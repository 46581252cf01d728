"""Epsilon-proximity labeling of converged ascent endpoints.

Two endpoints share a cluster iff they are connected in the graph whose
edges join points at Hamming distance <= epsilon; this is exactly what the
seed-and-grow region procedure computes, written as connected components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binvec import (
    BinaryVector,
    DimensionMismatch,
    hamming_to_rows,
    hamming_topk,
    pack_bits,
)
from .median import WeightedSample, median_center

EPSILON_MODES = ("mean_all", "kth_only")


@dataclass
class ClusterLabeling:
    """Cluster ids per input point plus per-cluster median-center prototypes."""

    labels: np.ndarray
    prototypes: list[BinaryVector]

    @property
    def num_clusters(self) -> int:
        return len(self.prototypes)

    @property
    def single_cluster(self) -> bool:
        return self.num_clusters == 1


def compute_epsilon(points: list[BinaryVector], k2: int, mode="mean_all") -> float:
    """Merge threshold from the k2-nearest-neighbor distances (self excluded).

    mean_all: mean over points of the mean of their k2 nearest distances.
    kth_only: mean over points of the k2-th nearest distance alone.
    """
    if mode not in EPSILON_MODES:
        raise ValueError(f"unknown epsilon mode {mode!r}")
    if k2 < 1:
        raise ValueError("k2 must be positive")
    m = len(points)
    if m < 2:
        return 0.0
    if k2 >= m:
        raise ValueError(f"k2 must be at most m-1 = {m - 1}, got {k2}")
    packed = pack_bits(np.stack([p.bits for p in points]))
    # each point's own row is among its k2 + 1 nearest at distance 0, the
    # minimum, so dropping column 0 leaves the k2 nearest others exactly
    dist = hamming_topk(packed, packed, k2 + 1)[1][:, 1:]
    per_point = dist[:, -1] if mode == "kth_only" else dist.mean(axis=1)
    return float(per_point.mean())


def label_clusters(converged: list[BinaryVector], epsilon: float) -> ClusterLabeling:
    """Connected components of the epsilon-threshold Hamming graph.

    Labels are assigned in order of first appearance; each prototype is the
    median center of its cluster's points (no tie anchor).
    """
    if not converged:
        raise ValueError("need at least one converged point")
    d = converged[0].dim
    if any(p.dim != d for p in converged):
        raise DimensionMismatch("all points must share one dimension")

    bits = np.stack([p.bits for p in converged])
    # collapse duplicates first; endpoints of merged trajectories repeat a lot
    uniq, inverse = np.unique(bits, axis=0, return_inverse=True)
    u = uniq.shape[0]
    upacked = pack_bits(uniq)

    comp = np.full(u, -1, dtype=np.int64)
    ncomp = 0
    for seed in range(u):
        if comp[seed] != -1:
            continue
        frontier = [seed]
        comp[seed] = ncomp
        while frontier:
            cur = frontier.pop()
            dist = hamming_to_rows(upacked, upacked[cur])
            near = np.flatnonzero((dist <= epsilon) & (comp == -1))
            comp[near] = ncomp
            frontier.extend(near.tolist())
        ncomp += 1

    point_comp = comp[inverse]
    # relabel components by first appearance over the original ordering
    remap: dict[int, int] = {}
    labels = np.empty(len(converged), dtype=np.int64)
    for i, c in enumerate(point_comp):
        if c not in remap:
            remap[c] = len(remap)
        labels[i] = remap[c]

    prototypes = []
    for cid in range(len(remap)):
        members = [converged[i] for i in np.flatnonzero(labels == cid)]
        prototypes.append(median_center(WeightedSample(members)))
    return ClusterLabeling(labels, prototypes)
