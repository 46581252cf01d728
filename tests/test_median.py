import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binnnms.median import group_majority_bits, majority_bits
from oracles import best_center_ref, inertia_ref, majority_ref


def bits(*strings):
    return np.array([[int(c) for c in s] for s in strings], dtype=np.uint8)


def center(strings, weights=None, tie=None):
    """The weighted median center of the rows, as a 0/1 string."""
    w = np.ones(len(strings)) if weights is None else np.asarray(weights)
    tie_bits = None if tie is None else bits(tie)[0]
    return "".join(map(str, majority_bits(bits(*strings), w, tie_bits).tolist()))


class TestWeightedSample:
    """A weighted sample is the (rows, d) matrix `majority_bits` takes with
    one positive weight per row."""

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_bits(np.zeros((0, 3), dtype=np.uint8), np.ones(0))

    def test_mixed_dims_rejected(self):
        # rows of different widths form no matrix
        with pytest.raises(ValueError):
            majority_bits([[0, 1], [0, 1, 1]], np.ones(2))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            majority_bits(bits("01", "11"), [1.0, 0.0])
        with pytest.raises(ValueError):
            majority_bits(bits("01", "11"), [1.0, -2.0])

    def test_weight_shape_rejected(self):
        for weights in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], 1.0):
            with pytest.raises(ValueError):
                majority_bits(bits("01", "11"), weights)


class TestMedianCenter:
    def test_singleton(self):
        assert center(["1011"]) == "1011"

    def test_majority(self):
        assert center(["10", "11", "01"]) == "11"

    def test_tie_defaults_to_zero(self):
        assert center(["00", "11"]) == "00"

    def test_tie_follows_tie_breaker(self):
        assert center(["00", "11"], tie="10") == "10"

    def test_weighted_majority(self):
        # weight 3 on "01" outvotes two copies of "10"
        assert center(["01", "10", "10"], [3.0, 1.0, 1.0]) == "01"


class TestMajorityBits:
    def test_integer_weight_tie_is_exact(self):
        # a majority of one vote in 200001 is a majority, not a tie
        bits = np.zeros((200001, 1), dtype=np.uint8)
        bits[:100001] = 1
        assert majority_bits(bits, np.ones(200001)).tolist() == [1]
        assert majority_bits(1 - bits, np.ones(200001)).tolist() == [0]
        tie = bits[1:]
        assert majority_bits(tie, np.ones(200000)).tolist() == [0]
        assert majority_bits(tie, np.ones(200000), np.array([1])).tolist() == [1]

    def test_fractional_weights_tie_within_rounding(self):
        # 0.1 + 0.2 != 0.3 in floating point, yet the vote is a tie
        bits = np.array([[1], [1], [0]], dtype=np.uint8)
        assert majority_bits(bits, np.array([0.1, 0.2, 0.3]),
                             np.array([1])).tolist() == [1]

    @given(st.integers(1, 5).flatmap(lambda d: st.lists(
               st.lists(st.integers(0, 1), min_size=d, max_size=d),
               min_size=1, max_size=20)), st.data())
    @settings(max_examples=150)
    def test_group_majority_matches_per_group(self, rows, data):
        k = data.draw(st.integers(1, 4))
        groups = data.draw(st.lists(st.integers(0, k - 1), min_size=len(rows),
                                    max_size=len(rows)))
        tie = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=len(rows[0]),
                                          max_size=len(rows[0])),
                                 min_size=k, max_size=k))
        got = group_majority_bits(np.array(rows, dtype=np.uint8), np.array(groups),
                                  k, np.array(tie, dtype=np.uint8))
        for g in range(k):
            members = [r for r, gr in zip(rows, groups) if gr == g]
            want = majority_ref(members, tie_bits=tie[g]) if members else tie[g]
            assert got[g].tolist() == want

    @pytest.mark.parametrize("size", [255, 256, 65535, 65536])
    @pytest.mark.parametrize("anchored", [False, True])
    def test_group_majority_at_count_type_limits(self, size, anchored):
        # group 0 has `size` rows, the most a uint8 or uint16 count holds
        # (255, 65535) or one more (256, 65536); group 1 is empty and
        # group 2 ties in four columns
        rng = np.random.default_rng(size)
        big = np.zeros((size, 6), dtype=np.uint8)
        big[:, 0] = 1                   # unanimous: the count is `size`
        big[:size // 2, 1] = 1          # a tie when `size` is even
        big[:size // 2 + 1, 2] = 1      # a majority of one or two
        big[:(size - 1) // 2, 3] = 1    # a minority of one or two
        big[:, 4] = rng.integers(0, 2, size)
        small = np.array([[1, 0, 1, 0, 1, 0], [0, 1, 1, 0, 0, 1]], dtype=np.uint8)
        bits = np.vstack([big, small])
        groups = np.r_[np.zeros(size, dtype=np.int64), 2, 2]
        perm = rng.permutation(len(bits))
        bits, groups = bits[perm], groups[perm]
        tie = (np.array([[1, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0],
                         [0, 1, 0, 1, 1, 1]], dtype=np.uint8) if anchored else None)
        got = group_majority_bits(bits, groups, 3, tie)
        for g in range(3):
            members = bits[groups == g].tolist()
            tie_g = tie[g].tolist() if anchored else None
            want = (majority_ref(members, tie_bits=tie_g) if members
                    else tie_g or [0] * 6)
            assert got[g].tolist() == want


vector_sets = st.integers(1, 6).flatmap(
    lambda d: st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                       min_size=1, max_size=10))


class TestProperties:
    @given(vector_sets, st.data())
    @settings(max_examples=150)
    def test_exhaustive_optimality(self, rows, data):
        weights = data.draw(st.lists(
            st.floats(0.1, 10.0, allow_nan=False), min_size=len(rows),
            max_size=len(rows)))
        center = majority_bits(np.array(rows), np.array(weights)).tolist()
        _, best_val = best_center_ref(rows, weights)
        assert inertia_ref(rows, weights, center) <= best_val + 1e-9

    @given(vector_sets)
    def test_unit_weight_reduction(self, rows):
        assert majority_bits(np.array(rows), np.ones(len(rows))).tolist() == \
            majority_ref(rows)
