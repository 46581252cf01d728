"""Epsilon-proximity labeling of converged ascent endpoints.

Two endpoints share a cluster iff they are connected in the graph whose
edges join points at Hamming distance <= epsilon. Those components are the
single-linkage clusters at epsilon: the components of the edges of weight
<= epsilon of one minimum spanning tree over the distinct endpoints (Gower &
Ross, JRSS C 1969). `Endpoints` dedupes a set of endpoints once, reads every
k2's epsilon from one top-k and cuts one tree at every threshold, so a
`sweep` column shares them across its cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binvec import bit_matrix, hamming_blocks, hamming_topk, pack_bits, unique_rows
from .median import group_majority_bits
from .metrics import label_codes

EPSILON_MODES = ("mean_all", "kth_only")


@dataclass(eq=False)
class ClusterLabeling:
    """Cluster ids per input point plus the median-center prototypes, a
    read-only (k, d) uint8 matrix whose row j is cluster j's prototype.
    Labelings compare (and hash) by identity."""

    labels: np.ndarray
    prototypes: np.ndarray

    @property
    def num_clusters(self) -> int:
        return len(self.prototypes)

    @property
    def single_cluster(self) -> bool:
        return self.num_clusters == 1


class Endpoints:
    """The rows of an (m, d) 0/1 matrix, packed and deduped once. One top-k
    serves every k2 in `k2s` and one spanning tree every cut; each is built
    on first use."""

    def __init__(self, bits, k2s=()):
        self.bits = bit_matrix(bits)
        self.m = self.bits.shape[0]
        self._packed = pack_bits(self.bits)
        self._first, self._inverse = unique_rows(self._packed)
        self._k2s = list(k2s)
        self._nearest = self._tree = None  # top-k distances; (parent, weight)

    def epsilon(self, k2: int, mode="mean_all") -> tuple[float, int]:
        """(epsilon, threshold) from the rows' k2-nearest-neighbor distances
        (self excluded), the threshold being epsilon's floor in integers: the
        float mean can land one ulp below an integer.

        mean_all: mean over rows of the mean of their k2 nearest distances.
        kth_only: mean over rows of the k2-th nearest distance alone.
        """
        if mode not in EPSILON_MODES:
            raise ValueError(f"unknown epsilon mode {mode!r}")
        if k2 < 1:
            raise ValueError("k2 must be positive")
        m = self.m
        if m < 2:
            return 0.0, 0
        if k2 >= m:
            raise ValueError(f"k2 must be at most m-1 = {m - 1}, got {k2}")
        if self._nearest is None or self._nearest.shape[1] <= k2:
            # in (distance, index) order every top-(k2 + 1) is a prefix of
            # the top-(K + 1); column 0 is a distance-0 copy of the row
            # itself, so the rest are its nearest others
            k = min(max([k2, *self._k2s]), m - 1) + 1
            _, self._nearest = hamming_topk(self._packed[self._first], self._packed, k)
        if mode == "kth_only":
            totals = per_row = self._nearest[:, k2]
            count = m
        else:
            totals = self._nearest[:, 1:k2 + 1].sum(axis=1)
            per_row, count = totals / k2, k2 * m
        # the same per-point values, in the same order, as a per-point top-k gives
        epsilon = float(per_row[self._inverse].mean())
        return epsilon, int(totals[self._inverse].sum()) // count

    def labeling(self, epsilon) -> ClusterLabeling:
        """Connected components of the epsilon-threshold Hamming graph over
        the rows: the spanning tree cut at epsilon, by pointer jumping.
        Labels are numbered in order of first appearance (`label_codes`); each
        prototype is the majority vote of its cluster's rows, a tie giving 0.
        """
        if not self.m:
            raise ValueError("need at least one converged point")
        comp = np.arange(len(self._first))
        if epsilon >= 1:  # distinct rows are at distance >= 1: below, no edges
            if self._tree is None:
                self._tree = _spanning_tree(self._packed[self._first])
            parent, weight = self._tree
            comp = np.where(weight <= epsilon, parent, comp)
            while ((up := comp[comp]) != comp).any():
                comp = up
        labels, ncomp = label_codes(comp[self._inverse])
        protos = group_majority_bits(self.bits, labels, ncomp)
        protos.flags.writeable = False
        return ClusterLabeling(labels, protos)


def epsilon_bits(bits, k2: int, mode="mean_all") -> float:
    """The epsilon of `Endpoints(bits).epsilon(k2, mode)`."""
    return Endpoints(bits, [k2]).epsilon(k2, mode)[0]


def label_bits(bits, epsilon: float) -> ClusterLabeling:
    """The labeling of `Endpoints(bits).labeling(epsilon)`."""
    return Endpoints(bits).labeling(epsilon)


def _spanning_tree(upacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(parent, weight): a Prim minimum spanning tree from row 0 of the
    complete Hamming graph over distinct packed rows; row v's edge goes to
    parent[v] and weighs weight[v], and the root is its own parent. The rows
    not yet in the tree stay compact at the front of one copy, so each step
    is one kernel call from them to the row that joined last."""
    u = len(upacked)
    parent, weight = np.empty(u, dtype=np.intp), np.empty(u, dtype=np.int64)
    rest, ids = upacked.copy(), np.arange(u)  # a copy: it is permuted in place
    best = np.full(u, np.iinfo(np.int64).max)  # each rest row's distance to the tree
    near = np.zeros(u, dtype=np.intp)  # and the tree row at that distance
    j = 0
    for r in range(u - 1, -1, -1):  # r rows stay out once slot j joins
        v = ids[j]
        parent[v], weight[v] = near[j], best[j]
        rest[j], ids[j], best[j], near[j] = rest[r], ids[r], best[r], near[r]
        if not r:
            break
        for sl, dist in hamming_blocks(rest[:r], upacked[v:v + 1]):
            closer = dist[:, 0] < best[sl]
            best[sl][closer] = dist[closer, 0]
            near[sl][closer] = v
        j = int(best[:r].argmin())
    return parent, weight
