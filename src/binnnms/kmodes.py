"""k-modes baseline: dynamic-clusters minimization of the Hamming inertia."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binvec import _key_dtype, hamming_blocks, pack_bits, unique_rows
from .ingest import Dataset
from .median import group_majority_bits


@dataclass(eq=False)
class KModesResult:
    """One run; row j of the read-only (k, d) uint8 `prototypes` is cluster j's.
    Results compare (and hash) by identity."""

    labels: np.ndarray
    prototypes: np.ndarray
    total_inertia: float
    iterations: int
    seed: int
    inertia_history: list[float] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.prototypes)


def _distance_matrix(data: Dataset, proto_bits: np.ndarray) -> np.ndarray:
    """(k, n) Hamming distances from each prototype to each data row."""
    blocks = hamming_blocks(pack_bits(proto_bits), data.packed)
    return np.concatenate([dist for _, dist in blocks])


def kmodes_run(data: Dataset, k: int, seed: int = 0, max_iter: int = 100,
               distinct: np.ndarray | None = None) -> KModesResult:
    """One k-modes run: alternate nearest-prototype assignment and majority update.

    Prototypes start from k distinct points sampled without replacement;
    assignment ties go to the lowest cluster index, vote ties keep the
    previous prototype's bit. A cluster that empties is reseeded with the
    point farthest from its prototype. `distinct` is the distinct rows of
    `data.bits` in `unique_rows` order (that of `np.unique(..., axis=0)`),
    computed here when not given.
    """
    if not 1 <= k <= data.n:
        raise ValueError(f"k must be in [1, {data.n}], got {k}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if distinct is None:
        distinct = data.bits[unique_rows(data.bits)[0]]
    if k > distinct.shape[0]:
        raise ValueError(f"k = {k} exceeds the {distinct.shape[0]} distinct points")
    rng = np.random.default_rng(seed)
    proto = distinct[rng.choice(distinct.shape[0], size=k, replace=False)].copy()

    labels = np.full(data.n, -1, dtype=np.int64)
    history: list[float] = []
    # each row's least key `distance * k + j` over the clusters j: the key
    # is unique, so ties go to the lowest j
    key_type = _key_dtype(k, data.packed.shape[1])
    cluster = np.arange(k, dtype=key_type)[:, None]
    for iterations in range(1, max_iter + 1):
        dist = _distance_matrix(data, proto)
        key = dist.astype(key_type)
        key *= k
        key += cluster
        key = key.min(axis=0)
        new_labels = (key % k).astype(np.int64)
        total = float((key // k).sum())
        history.append(total)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        proto = group_majority_bits(data.bits, labels, k, tie_bits=proto)
        # an empty cluster's prototype is unchanged here (all its votes tie),
        # so dist[j] still holds the distances to it
        for j in np.flatnonzero(np.bincount(labels, minlength=k) == 0):
            proto[j] = data.bits[dist[j].argmax()]
    else:  # stopped at max_iter: dist predates the last prototype update
        dist = _distance_matrix(data, proto)
        total = float(dist[labels, np.arange(data.n)].sum())
    proto.flags.writeable = False
    return KModesResult(labels=labels, prototypes=proto, total_inertia=total,
                        iterations=iterations, seed=seed, inertia_history=history)


def kmodes_repeated(data: Dataset, k: int, runs: int, base_seed: int = 0,
                    max_iter: int = 100) -> list[KModesResult]:
    """Independent restarts with seeds base_seed .. base_seed+runs-1."""
    if runs < 1:
        raise ValueError("runs must be at least 1")
    distinct = data.bits[unique_rows(data.bits)[0]]
    return [kmodes_run(data, k, seed=base_seed + r, max_iter=max_iter,
                       distinct=distinct)
            for r in range(runs)]
