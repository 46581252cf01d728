"""k-modes baseline: dynamic-clusters minimization of the Hamming inertia."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binvec import _Nearest, pack_bits, unique_rows
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


def kmodes_run(data: Dataset, k: int, seed: int = 0, max_iter: int = 100,
               distinct: np.ndarray | None = None) -> KModesResult:
    """One k-modes run: alternate nearest-prototype assignment and majority update.

    Prototypes start from k distinct points sampled without replacement;
    assignment ties go to the lowest cluster index, vote ties keep the
    previous prototype's bit. A cluster that empties is reseeded with the
    point farthest from its prototype. `distinct`, computed here when not
    given, is `data.bits[unique_rows(data.packed)[0]]`: the distinct rows in
    ascending order, as `np.unique(data.bits, axis=0)` gives them.
    """
    if not 1 <= k <= data.n:
        raise ValueError(f"k must be in [1, {data.n}], got {k}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if distinct is None:
        distinct = data.bits[unique_rows(data.packed)[0]]
    if k > distinct.shape[0]:
        raise ValueError(f"k = {k} exceeds the {distinct.shape[0]} distinct points")
    rng = np.random.default_rng(seed)
    proto = distinct[rng.choice(distinct.shape[0], size=k, replace=False)]

    labels = np.full(data.n, -1, dtype=np.int64)
    history: list[float] = []
    # row j of near.dist holds the distances to proto[j]; a row depends only
    # on its prototype, so only the rows in `moved` are ever recomputed
    near = _Nearest(k, data.packed)
    moved = np.arange(k)
    for iterations in range(1, max_iter + 1):
        near.write(moved, pack_bits(proto[moved]))
        nearest, to_nearest = near.nearest()
        new_labels = nearest.astype(np.int64)
        total = float(to_nearest.sum())
        history.append(total)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        new_proto = group_majority_bits(data.bits, labels, k, tie_bits=proto)
        # an empty cluster's prototype is unchanged here (all its votes tie),
        # so near.dist[j] still holds the distances to it
        for j in np.flatnonzero(np.bincount(labels, minlength=k) == 0):
            new_proto[j] = data.bits[near.dist[j].argmax()]
        moved = np.flatnonzero((new_proto != proto).any(axis=1))
        proto = new_proto
    else:  # stopped at max_iter: the moved rows predate the last update
        near.write(moved, pack_bits(proto[moved]))
        total = float(near.dist[labels, np.arange(data.n)].sum())
    proto.flags.writeable = False
    return KModesResult(labels=labels, prototypes=proto, total_inertia=total,
                        iterations=iterations, seed=seed, inertia_history=history)


def kmodes_repeated(data: Dataset, k: int, runs: int, base_seed: int = 0,
                    max_iter: int = 100) -> list[KModesResult]:
    """Independent restarts with seeds base_seed .. base_seed+runs-1."""
    if runs < 1:
        raise ValueError("runs must be at least 1")
    distinct = data.bits[unique_rows(data.packed)[0]]
    return [kmodes_run(data, k, seed=base_seed + r, max_iter=max_iter,
                       distinct=distinct)
            for r in range(runs)]
