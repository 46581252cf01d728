"""Exact k-nearest neighbors: one `hamming_topk` call of a packed query
against a dataset's packed rows, the call the README names."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binnnms.binvec import BinaryVector, DimensionMismatch, hamming_blocks, hamming_topk
from binnnms.ingest import Dataset
from oracles import knn_ref


def dataset(strings):
    return Dataset(np.array([[int(c) for c in s] for s in strings]))


def bv(s):
    return BinaryVector.from_string(s)


def knn(data: Dataset, q: BinaryVector, k: int):
    """(indices, distances) of the k nearest rows, as lists."""
    idx, dist = hamming_topk(q.packed[None], data.packed, k)
    return idx[0].tolist(), dist[0].tolist()


def kth_distance(data: Dataset, q: BinaryVector, k: int) -> int:
    return knn(data, q, k)[1][-1]


class TestKnnQuery:
    def test_k_equals_n(self):
        ds = dataset(["000", "001", "011", "111"])
        assert knn(ds, bv("000"), 4) == ([0, 1, 2, 3], [0, 1, 2, 3])

    def test_two_nearest(self):
        ds = dataset(["000", "001", "011", "111"])
        assert knn(ds, bv("000"), 2) == ([0, 1], [0, 1])

    def test_boundary_tie_goes_to_lower_index(self):
        # 000, 011 and 110 are all at distance 1 from 010
        ds = dataset(["000", "011", "110", "111"])
        assert knn(ds, bv("010"), 2) == ([0, 1], [1, 1])

    def test_deterministic(self):
        ds = dataset(["010", "100", "001", "111", "000"])
        q = bv("011")
        assert knn(ds, q, 3) == knn(ds, q, 3)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_bad_k(self, k):
        ds = dataset(["000", "001", "011"])
        with pytest.raises(ValueError, match=rf"^k must be in \[0, 3\], got {k}$"):
            knn(ds, bv("000"), k)

    def test_k_zero(self):
        assert knn(dataset(["000", "001"]), bv("000"), 0) == ([], [])

    def test_dim_mismatch(self):
        # a 70-bit query packs to 2 words, 64-bit rows to 1: either way round
        # the word counts differ. Equal counts (10 bits against 64) cannot be
        # told apart, so the caller checks q.dim == data.d
        ds = Dataset(np.eye(64, dtype=np.uint8)[:5])
        q = BinaryVector([1] + [0] * 69)
        with pytest.raises(DimensionMismatch):
            knn(ds, q, 2)
        with pytest.raises(DimensionMismatch):
            hamming_topk(ds.packed[:1], q.packed[None], 1)
        with pytest.raises(DimensionMismatch):
            next(hamming_blocks(q.packed[None], ds.packed))


class TestKthDistance:
    def test_self_query(self):
        ds = dataset(["000", "001", "011", "111"])
        assert kth_distance(ds, bv("000"), 1) == 0

    def test_third(self):
        ds = dataset(["000", "001", "011", "111"])
        assert kth_distance(ds, bv("000"), 3) == 2

    def test_farthest(self):
        ds = dataset(["000", "111"])
        assert kth_distance(ds, bv("000"), 2) == 3


instances = st.integers(1, 64).flatmap(
    lambda d: st.tuples(
        st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                 min_size=1, max_size=40),
        st.lists(st.integers(0, 1), min_size=d, max_size=d)))


class TestOracle:
    @given(instances, st.data())
    @settings(max_examples=200)
    def test_matches_full_sort(self, inst, data):
        rows, q = inst
        k = data.draw(st.integers(1, len(rows)))
        indices, _ = knn(Dataset(np.array(rows)), BinaryVector(q), k)
        assert indices == knn_ref(rows, q, k)

    @given(instances)
    def test_kth_distance_nondecreasing_in_k(self, inst):
        rows, q = inst
        ds = Dataset(np.array(rows))
        dists = [kth_distance(ds, BinaryVector(q), k)
                 for k in range(1, len(rows) + 1)]
        assert dists == sorted(dists)
