import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binnnms.bga import DEFAULT_J_MAX, ascend_bits
from binnnms.binvec import DimensionMismatch
from binnnms.ingest import Dataset
from conftest import trajectories
from oracles import ascend_ref, hamming_ref, step_ref

# the termination names of `oracles.ascend_ref` and `conftest.trajectories`
FIXED_POINT, MAX_ITERATIONS = "fixed_point", "max_iterations"


def bits(s):
    return [int(c) for c in s]


def dataset(strings):
    return Dataset(np.array([bits(s) for s in strings]))


def step(ds, x, k1):
    """One median-shift step from the 0/1 list x, as a list."""
    got = ascend_bits(ds, np.array([x]), k1, j_max=1)
    return got.endpoints[0].tolist()


def ascent(ds, x0, k1, j_max=DEFAULT_J_MAX):
    """(iterates as 0/1 strings, termination) of the ascent from one string."""
    x0 = np.array([bits(x0)])
    [(its, term)] = trajectories(ascend_bits(ds, x0, k1, j_max), x0)
    return ["".join(map(str, x)) for x in its], term


class TestMedianShiftStep:
    def test_tie_keeps_current_bit(self):
        # neighbors of 000 at k1=2 are {000, 001}: third component ties
        ds = dataset(["000", "001", "011", "111"])
        assert step(ds, bits("000"), 2) == bits("000")

    def test_full_majority(self):
        ds = dataset(["111", "110", "101", "011"])
        assert step(ds, bits("000"), 4) == bits("111")

    def test_k1_one_is_nearest_point(self):
        ds = dataset(["010", "111"])
        assert step(ds, bits("110"), 1) == bits("010")

    def test_bad_k1(self):
        ds = dataset(["00", "01"])
        with pytest.raises(ValueError):
            step(ds, bits("00"), 3)


class TestAscend:
    def test_immediate_fixed_point(self):
        ds = dataset(["000", "001", "011", "111"])
        its, term = ascent(ds, "000", 2)
        assert its == ["000", "000"]
        assert term == FIXED_POINT
        assert len(its) == 2  # one step

    def test_two_step_convergence(self):
        ds = dataset(["111", "110", "101", "011"])
        its, term = ascent(ds, "000", 4)
        assert its == ["000", "111", "111"]
        assert term == FIXED_POINT

    def test_jmax_cap(self):
        ds = dataset(["111", "110", "101", "011"])
        its, term = ascent(ds, "000", 4, j_max=1)
        assert len(its) == 2  # one step
        assert term == MAX_ITERATIONS

    def test_invalid_config(self):
        # each call breaks every later check too, so each message shows that
        # it fires first: a failed sweep column writes it into sweep.csv
        ds = dataset(["01", "11"])
        wide = np.zeros((1, 3), dtype=np.uint8)
        bad_wide = np.array([[0, 2, 0]])
        for k1 in (-1, 3):
            with pytest.raises(ValueError,
                               match=f"^{re.escape(f'k1 must be in [0, 2], got {k1}')}$"):
                ascend_bits(ds, bad_wide, k1, j_max=0)
        with pytest.raises(ValueError, match="^j_max must be at least 1$"):
            ascend_bits(ds, bad_wide, 1, j_max=0)
        # k1 = 0 takes no step, so no j_max is out of range for it
        for k1, j_max in ((1, 1), (0, 0)):
            with pytest.raises(ValueError, match="^components must be exactly 0 or 1$"):
                ascend_bits(ds, bad_wide, k1, j_max)
        with pytest.raises(DimensionMismatch):
            ascend_bits(ds, wide, 1)

    @pytest.mark.parametrize("j_max", [0, 1, 50])
    def test_k1_zero_takes_no_step(self, j_max):
        # the no-ascent baseline: whatever j_max, every endpoint is its start
        ds = dataset(["111", "110", "101", "011"])
        x0 = np.array([bits("000"), bits("110"), bits("111")])
        got = ascend_bits(ds, x0, 0, j_max)
        assert got.endpoints.tolist() == x0.tolist()
        assert got.rounds == [] and got.at_j_max.tolist() == [False] * 3

    def test_fixed_point_stability(self):
        ds = dataset(["0011", "0010", "1100", "1101", "0111"])
        its, term = ascent(ds, "0000", 3)
        if term == FIXED_POINT:
            again, again_term = ascent(ds, its[-1], 3)
            assert again_term == FIXED_POINT
            assert len(again) == 2  # one step
            assert again[-1] == its[-1]


class TestAscendAll:
    def test_order_and_values(self):
        ds = dataset(["111", "110", "101", "011"])
        got = ascend_bits(ds, np.array([bits("000"), bits("111")]), 4)
        assert got.endpoints.tolist() == [bits("111"), bits("111")]
        # ascents compare by identity, not array by array
        assert (got == ascend_bits(ds, ds.bits, 4)) is False and (got == got) is True

    def test_empty_candidates(self):
        ds = dataset(["01"])
        x0 = np.zeros((0, 2), dtype=np.uint8)
        assert trajectories(ascend_bits(ds, x0, 1), x0) == []

    def test_identical_points_all_fixed(self):
        ds = dataset(["0101"] * 5)
        got = ascend_bits(ds, ds.bits, 3)
        for its, term in trajectories(got, ds.bits):
            assert term == FIXED_POINT
            assert its == [bits("0101"), bits("0101")]

instances = st.integers(2, 12).flatmap(
    lambda d: st.tuples(
        st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                 min_size=1, max_size=25),
        st.lists(st.integers(0, 1), min_size=d, max_size=d)))


class TestProperties:
    @given(instances, st.data())
    @settings(max_examples=200)
    def test_step_matches_brute_force(self, inst, data):
        rows, x = inst
        k1 = data.draw(st.integers(1, len(rows)))
        ds = Dataset(np.array(rows))
        assert step(ds, x, k1) == step_ref(rows, x, k1)

    @given(instances, st.data())
    @settings(max_examples=60)
    def test_trajectory_consistency(self, inst, data):
        rows, x = inst
        k1 = data.draw(st.integers(1, len(rows)))
        ds = Dataset(np.array(rows))
        x0 = np.array([x])
        [(its, term)] = trajectories(
            ascend_bits(ds, x0, k1, j_max=20), x0)
        # every consecutive pair obeys the recurrence, iterates stay binary
        for a, b in zip(its, its[1:]):
            assert b == step(ds, a, k1)
            assert set(b) <= {0, 1}
        if term == FIXED_POINT:
            assert its[-1] == its[-2]

    @given(instances, st.data())
    @settings(max_examples=100)
    def test_objective_strictly_decreases(self, inst, data):
        # each moving step strictly lowers the sum of distances to the k1
        # nearest rows, so no ascent can cycle: every one ends at a fixed
        # point or at j_max
        rows, x = inst
        k1 = data.draw(st.integers(1, len(rows)))
        x0 = np.array([x])
        [(its, term)] = trajectories(
            ascend_bits(Dataset(np.array(rows)), x0, k1), x0)

        def f(v):
            return sum(sorted(hamming_ref(r, v) for r in rows)[:k1])

        for a, b in zip(its, its[1:]):
            assert a == b or f(b) < f(a)


# Tie-heavy ascent inputs: few bits, rows drawn from a small pool so rows
# repeat, candidates drawn from the same bit space (dataset rows or not).
ascent_instances = st.integers(1, 6).flatmap(
    lambda d: st.tuples(
        st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                 min_size=1, max_size=4),
        st.lists(st.integers(0, 3), min_size=1, max_size=20),
        st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                 min_size=0, max_size=6)))


class TestBatchedEngine:
    @given(ascent_instances, st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_candidate_reference(self, inst, data):
        pool, picks, extra = inst
        rows = [pool[i % len(pool)] for i in picks]
        n = len(rows)
        k1 = data.draw(st.one_of(st.just(n), st.integers(1, n)), label="k1")
        j_max = data.draw(st.integers(1, 3), label="j_max")
        cands = data.draw(st.lists(st.sampled_from(rows + extra) if extra
                                   else st.sampled_from(rows),
                                   min_size=1, max_size=12), label="cands")
        ds = Dataset(np.array(rows))
        x0 = np.array(cands)
        got = trajectories(ascend_bits(ds, x0, k1, j_max=j_max), x0)
        assert got == [ascend_ref(rows, c, k1, j_max) for c in cands]

    @given(ascent_instances, st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_matrices_match_iterates(self, inst, data):
        pool, picks, extra = inst
        rows = [pool[i % len(pool)] for i in picks]
        k1 = data.draw(st.integers(1, len(rows)), label="k1")
        j_max = data.draw(st.integers(1, 4), label="j_max")
        cands = data.draw(st.lists(st.sampled_from(rows + extra), min_size=1,
                                   max_size=12), label="cands")
        ds = Dataset(np.array(rows))
        got = ascend_bits(ds, np.array(cands), k1, j_max)
        prev = np.arange(len(cands))
        for ids, round_bits in got.rounds:
            # each round's candidates are a subset of the previous round's
            assert np.isin(ids, prev).all() and (np.diff(ids) > 0).all()
            assert round_bits.shape == (len(ids), ds.d)
            prev = ids
        for c, (its, term) in enumerate(trajectories(got, np.array(cands))):
            assert got.at_j_max[c] == (term == MAX_ITERATIONS)
            assert got.endpoints[c].tolist() == its[-1]
            assert (its, term) == ascend_ref(rows, cands[c], k1, j_max)

    def test_bit_matrix_checks(self):
        ds = dataset(["010", "111"])
        with pytest.raises(DimensionMismatch):
            ascend_bits(ds, np.zeros((2, 2), dtype=np.uint8), 1)
        with pytest.raises(ValueError):
            ascend_bits(ds, np.array([[0, 2, 1]]), 1)
        empty = ascend_bits(ds, np.zeros((0, 3), dtype=np.uint8), 1)
        assert empty.rounds == [] and empty.endpoints.shape == (0, 3)

    @pytest.mark.parametrize("k1", [255, 256])
    def test_matches_reference_at_count_type_limits(self, k1):
        # from 000001 the 256 nearest rows are the 128 copies of each of
        # 000000 and 000011, so the last two bits tie at k1 = 256 and lose
        # at 255; from 111111 every vote is unanimous, a count of k1 that
        # doubles past 255
        rng = np.random.default_rng(k1)
        pool = np.array([[0] * 6, [0, 0, 0, 0, 1, 1], [1] * 6])
        rows = pool[rng.permutation(np.repeat([0, 1, 2], [128, 128, 300]))].tolist()
        cands = [[0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [1] * 6, [0, 1, 1, 1, 1, 1],
                 *rng.integers(0, 2, size=(4, 6)).tolist()]
        got = ascend_bits(Dataset(np.array(rows)), np.array(cands), k1, j_max=4)
        for c, traj in zip(cands, trajectories(got, np.array(cands))):
            assert traj == ascend_ref(rows, c, k1, 4)
        assert got.endpoints[0].tolist() == bits("000001" if k1 == 256 else "000000")

    def test_matches_reference_across_blocks(self):
        # 3000 rows repeating 300 distinct 12-bit vectors tie at the k1
        # boundary; at 10 queries per distance block, the 30-odd distinct
        # iterates of a round span several blocks
        rng = np.random.default_rng(11)
        pool = rng.integers(0, 2, size=(300, 12))
        rows = pool[rng.integers(0, 300, size=3000)].tolist()
        ds = Dataset(np.array(rows))
        cands = rows[::100] + rng.integers(0, 2, size=(5, 12)).tolist()
        got = ascend_bits(ds, np.array(cands), 40, j_max=4)
        for c, traj in zip(cands, trajectories(got, np.array(cands))):
            assert traj == ascend_ref(rows, c, 40, 4)
