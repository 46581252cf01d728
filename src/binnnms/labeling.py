"""Epsilon-proximity labeling of converged ascent endpoints.

Two endpoints share a cluster iff they are connected in the graph whose
edges join points at Hamming distance <= epsilon; this is exactly what the
seed-and-grow region procedure computes, written as connected components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binvec import bit_matrix, hamming_blocks, hamming_topk, pack_bits, unique_rows
from .median import group_majority_bits

EPSILON_MODES = ("mean_all", "kth_only")


@dataclass
class ClusterLabeling:
    """Cluster ids per input point plus the median-center prototypes, a
    read-only (k, d) uint8 matrix whose row j is cluster j's prototype."""

    labels: np.ndarray
    prototypes: np.ndarray

    @property
    def num_clusters(self) -> int:
        return len(self.prototypes)

    @property
    def single_cluster(self) -> bool:
        return self.num_clusters == 1


def _distinct(bits: np.ndarray):
    """(packed distinct rows, inverse, counts) of a bit matrix, the distinct
    rows in order of first appearance; the packed matrix is
    `distinct[inverse]`."""
    first, inverse, counts = unique_rows(bits)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return pack_bits(bits[first[order]]), rank[inverse], counts[order]


def epsilon_bits(bits, k2: int, mode="mean_all") -> float:
    """Merge threshold from the k2-nearest-neighbor distances (self excluded)
    of the rows of an (m, d) 0/1 matrix.

    mean_all: mean over rows of the mean of their k2 nearest distances.
    kth_only: mean over rows of the k2-th nearest distance alone.
    """
    if mode not in EPSILON_MODES:
        raise ValueError(f"unknown epsilon mode {mode!r}")
    if k2 < 1:
        raise ValueError("k2 must be positive")
    bits = bit_matrix(bits)
    m = bits.shape[0]
    if m < 2:
        return 0.0
    if k2 >= m:
        raise ValueError(f"k2 must be at most m-1 = {m - 1}, got {k2}")
    upacked, inverse, counts = _distinct(bits)
    # A distinct row's nearest others are its own other copies at distance 0,
    # then the copies of the next distinct rows in (distance, index) order.
    # Itself comes first (the only distance 0), and each later row adds at
    # least one copy, so k2 + 1 distinct rows always hold the k2 nearest.
    idx, dist = hamming_topk(upacked, upacked, min(k2 + 1, len(counts)))
    mult = counts[idx]
    mult[:, 0] -= 1
    before = np.cumsum(mult, axis=1) - mult
    if mode == "kth_only":
        kth = (before + mult >= k2).argmax(axis=1)
        per_row = dist[np.arange(len(dist)), kth]
    else:
        per_row = (np.clip(k2 - before, 0, mult) * dist).sum(axis=1) / k2
    # the same per-point values, in the same order, as a per-point top-k gives
    return float(per_row[inverse].mean())


def label_bits(bits, epsilon: float) -> ClusterLabeling:
    """Connected components of the epsilon-threshold Hamming graph over the
    rows of an (m, d) 0/1 matrix.

    Labels are assigned in order of first appearance: the distinct rows come
    in that order, and the components are numbered as they are seeded. Each
    prototype is the majority vote of its cluster's rows, a tie giving 0.
    """
    bits = bit_matrix(bits)
    if not bits.shape[0]:
        raise ValueError("need at least one converged point")
    upacked, inverse, _ = _distinct(bits)
    u = upacked.shape[0]

    if epsilon < 1:  # distinct rows are at distance >= 1: no edges
        comp, ncomp = np.arange(u), u
    else:
        comp, ncomp = _components(upacked, epsilon)
    labels = comp[inverse]
    protos = group_majority_bits(bits, labels, ncomp)
    protos.flags.writeable = False
    return ClusterLabeling(labels, protos)


def _components(upacked: np.ndarray, epsilon: float) -> tuple[np.ndarray, int]:
    """(component per row, component count) of the epsilon-threshold graph
    over distinct packed rows, by a BFS from each unreached row in order."""
    u = upacked.shape[0]
    comp = np.full(u, -1, dtype=np.int64)
    ncomp = 0
    for seed in range(u):
        if comp[seed] != -1:
            continue
        frontier = [seed]
        comp[seed] = ncomp
        while len(frontier):  # expand the whole frontier, block by block
            near = np.zeros(u, dtype=bool)
            for _, dist in hamming_blocks(upacked[frontier], upacked):
                near |= (dist <= epsilon).any(axis=0)
            frontier = np.flatnonzero(near & (comp == -1))
            comp[frontier] = ncomp
        ncomp += 1
    return comp, ncomp

