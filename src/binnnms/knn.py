"""Exact k-nearest-neighbor queries under the Hamming distance.

Both queries are thin wrappers over `binvec.hamming_topk`, the blocked
distance-plus-selection primitive that the ascent and epsilon also use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binvec import BinaryVector, DimensionMismatch, hamming_topk
from .ingest import Dataset

@dataclass(frozen=True)
class NeighborSet:
    """The k nearest dataset indices for one query, distances nondecreasing."""

    indices: tuple[int, ...]
    distances: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.indices)

def _check(data: Dataset, q: BinaryVector, k: int):
    if q.dim != data.d:
        raise DimensionMismatch(f"query dim {q.dim} != dataset dim {data.d}")
    if not 1 <= k <= data.n:
        raise ValueError(f"k must be in [1, {data.n}], got {k}")

def knn_query(data: Dataset, q: BinaryVector, k: int) -> NeighborSet:
    """Exact k-NN by the blocked packed XOR/popcount top-k; boundary ties go
    to the lower index."""
    _check(data, q, k)
    idx, dist = hamming_topk(q.packed[None], data.packed, k)
    return NeighborSet(tuple(idx[0].tolist()), tuple(dist[0].tolist()))

def kth_distance(data: Dataset, q: BinaryVector, k: int) -> int:
    """Distance to the k-th nearest neighbor (the ball radius delta_(k))."""
    _check(data, q, k)
    return int(hamming_topk(q.packed[None], data.packed, k)[1][0, -1])
