"""Epsilon-proximity labeling of converged ascent endpoints.

Two endpoints share a cluster iff they are connected in the graph whose
edges join points at Hamming distance <= epsilon: the single-linkage clusters
at epsilon, which need only the edges of weight <= epsilon (Gower & Ross, JRSS
C 1969). `Endpoints` reads every k2's epsilon from one top-k, whose lists hold
most of those edges, and keeps one labeling per integer threshold, so a
`sweep` column shares both across its cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binvec import (bit_matrix, hamming_blocks, hamming_topk, pack_bits, row_blocks,
                     unique_rows)
from .median import group_majority_bits
from .metrics import label_codes

EPSILON_MODES = ("mean_all", "kth_only")


@dataclass(eq=False)
class ClusterLabeling:
    """Cluster ids per input point plus the median-center prototypes, a (k, d)
    uint8 matrix whose row j is cluster j's prototype; both are read-only.
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
    serves every k2 in `k2s`, and one labeling every cut with the same
    integer threshold; each is built on first use.

    This is the one public labeling API, the flow `cluster` runs:

        ends = Endpoints(bits, [k2])
        epsilon, t = ends.epsilon(k2, mode)
        labeling = ends.labeling(t)

    Cutting at t, the exact floor of epsilon, keeps the edges at an integer
    epsilon that the float mean lands one ulp below. For an epsilon of the
    caller's own, `Endpoints(bits).labeling(epsilon)`.
    """

    def __init__(self, bits, k2s=()):
        self.bits = bit_matrix(bits)
        self.m = self.bits.shape[0]
        self._packed = pack_bits(self.bits)
        self._first, self._inverse = unique_rows(self._packed)
        self._k2s = list(k2s)
        self._index = self._nearest = None  # the distinct rows' top-k
        self._labelings = {}  # integer threshold -> ClusterLabeling

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
            self._index, self._nearest = hamming_topk(self._packed[self._first],
                                                      self._packed, k)
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
        """Components of the epsilon-threshold Hamming graph over the rows, one
        labeling per threshold floor(min(epsilon, d)), 0 below 1 and for NaN:
        labels numbered by first appearance (`label_codes`), each prototype
        its cluster's majority vote, a tie giving 0."""
        if not self.m:
            raise ValueError("need at least one converged point")
        # distinct rows are at distance >= 1: below, no edges and no kernel
        t = int(min(epsilon, self.bits.shape[1])) if epsilon >= 1 else 0
        if t not in self._labelings:
            comp = np.arange(len(self._first))
            for a, b in self._edges(t) if t else ():
                _hook(comp, a, b)
            labels, ncomp = label_codes(comp[self._inverse])
            protos = group_majority_bits(self.bits, labels, ncomp)
            labels.flags.writeable = protos.flags.writeable = False
            self._labelings[t] = ClusterLabeling(labels, protos)
        return self._labelings[t]

    def _edges(self, t: int):
        """Chunks (a, b) of distinct rows, each pair within t in one. A row
        whose last top-k distance is above t lists them all, so the other
        (dense) rows, all without a top-k, need one kernel pass among them."""
        dense = np.arange(len(self._first))
        if self._nearest is not None:
            listed = self._nearest[:, -1] > t
            rows, dense = np.flatnonzero(listed), np.flatnonzero(~listed)
            for sl in row_blocks(len(rows), 8 * self._nearest.shape[1]):
                i, j = np.nonzero(self._nearest[rows[sl]] <= t)
                yield rows[sl][i], self._inverse[self._index[rows[sl][i], j]]
        upacked = self._packed[self._first[dense]]
        for sl, dist in hamming_blocks(upacked, upacked) if len(dense) else ():
            i, j = np.divmod(np.flatnonzero(dist <= t), len(dense))
            yield dense[sl][i], dense[j]


def _hook(comp: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join each pair (a, b) in `comp` (each row's root) in place: each root
    hooks to the least root it shares a pair with, then every row jumps to it."""
    while (cross := (ra := comp[a]) != (rb := comp[b])).any():
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(comp, np.maximum(ra, rb), np.minimum(ra, rb))
        while ((up := comp[comp]) != comp).any():
            comp[:] = up
