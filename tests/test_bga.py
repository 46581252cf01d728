import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binnnms import bga
from binnnms.bga import (
    CYCLE,
    FIXED_POINT,
    MAX_ITERATIONS,
    TERMINATIONS,
    AscentTrajectory,
    BgaConfig,
    ascend,
    ascend_all,
    ascend_bits,
    median_shift_step,
)
from binnnms.binvec import BinaryVector, DimensionMismatch
from binnnms.ingest import Dataset
from oracles import ascend_ref, hamming_ref, step_ref


def dataset(strings):
    return Dataset(np.array([[int(c) for c in s] for s in strings]))


def bv(s):
    return BinaryVector.from_string(s)


class TestMedianShiftStep:
    def test_tie_keeps_current_bit(self):
        # neighbors of 000 at k1=2 are {000, 001}: third component ties
        ds = dataset(["000", "001", "011", "111"])
        assert median_shift_step(ds, bv("000"), 2) == bv("000")

    def test_full_majority(self):
        ds = dataset(["111", "110", "101", "011"])
        assert median_shift_step(ds, bv("000"), 4) == bv("111")

    def test_k1_one_is_nearest_point(self):
        ds = dataset(["010", "111"])
        assert median_shift_step(ds, bv("110"), 1) == bv("010")

    def test_bad_k1(self):
        ds = dataset(["00", "01"])
        with pytest.raises(ValueError):
            median_shift_step(ds, bv("00"), 3)


class TestAscend:
    def test_immediate_fixed_point(self):
        ds = dataset(["000", "001", "011", "111"])
        t = ascend(ds, bv("000"), BgaConfig(k1=2))
        assert [x.to01() for x in t.iterates] == ["000", "000"]
        assert t.termination == FIXED_POINT
        assert t.steps == 1

    def test_two_step_convergence(self):
        ds = dataset(["111", "110", "101", "011"])
        t = ascend(ds, bv("000"), BgaConfig(k1=4))
        assert [x.to01() for x in t.iterates] == ["000", "111", "111"]
        assert t.termination == FIXED_POINT

    def test_jmax_cap(self):
        ds = dataset(["111", "110", "101", "011"])
        t = ascend(ds, bv("000"), BgaConfig(k1=4, j_max=1))
        assert t.steps == 1
        assert t.termination == MAX_ITERATIONS

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BgaConfig(k1=0)
        with pytest.raises(ValueError):
            BgaConfig(k1=1, j_max=0)

    def test_fixed_point_stability(self):
        ds = dataset(["0011", "0010", "1100", "1101", "0111"])
        t = ascend(ds, bv("0000"), BgaConfig(k1=3))
        if t.termination == FIXED_POINT:
            again = ascend(ds, t.endpoint, BgaConfig(k1=3))
            assert again.termination == FIXED_POINT
            assert again.steps == 1
            assert again.endpoint == t.endpoint


class TestAscendAll:
    def test_order_and_values(self):
        ds = dataset(["111", "110", "101", "011"])
        trajs = ascend_all(ds, [bv("000"), bv("111")], BgaConfig(k1=4))
        assert [t.endpoint.to01() for t in trajs] == ["111", "111"]

    def test_empty_candidates(self):
        ds = dataset(["01"])
        assert ascend_all(ds, [], BgaConfig(k1=1)) == []

    def test_identical_points_all_fixed(self):
        ds = dataset(["0101"] * 5)
        trajs = ascend_all(ds, ds.points(), BgaConfig(k1=3))
        for t in trajs:
            assert t.termination == FIXED_POINT
            assert [x.to01() for x in t.iterates] == ["0101", "0101"]

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
        got = median_shift_step(ds, BinaryVector(x), k1)
        assert got == BinaryVector(step_ref(rows, x, k1))

    @given(instances, st.data())
    @settings(max_examples=60)
    def test_trajectory_consistency(self, inst, data):
        rows, x = inst
        k1 = data.draw(st.integers(1, len(rows)))
        ds = Dataset(np.array(rows))
        t = ascend(ds, BinaryVector(x), BgaConfig(k1=k1, j_max=20))
        # every consecutive pair obeys the recurrence, iterates stay binary
        for a, b in zip(t.iterates, t.iterates[1:]):
            assert b == median_shift_step(ds, a, k1)
            assert set(np.unique(b.bits)) <= {0, 1}
        if t.termination == FIXED_POINT:
            assert t.iterates[-1] == t.iterates[-2]
        if t.termination == CYCLE:
            assert t.iterates[-1] == t.iterates[-3]

    @given(instances, st.data())
    @settings(max_examples=100)
    def test_objective_strictly_decreases(self, inst, data):
        # each moving step strictly lowers the sum of distances to the k1
        # nearest rows, so no ascent can cycle: every one ends at a fixed
        # point or at j_max
        rows, x = inst
        k1 = data.draw(st.integers(1, len(rows)))
        t = ascend(Dataset(np.array(rows)), BinaryVector(x), BgaConfig(k1=k1))

        def f(v):
            return sum(sorted(hamming_ref(r, v.bits.tolist()) for r in rows)[:k1])

        for a, b in zip(t.iterates, t.iterates[1:]):
            assert a == b or f(b) < f(a)
        assert t.termination != CYCLE


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
        x0s = [BinaryVector(c) for c in cands]
        trajs = ascend_all(ds, x0s, BgaConfig(k1=k1, j_max=j_max))
        for x0, c, t in zip(x0s, cands, trajs):
            its, term = ascend_ref(rows, c, k1, j_max)
            assert [x.bits.tolist() for x in t.iterates] == its
            assert t.termination == term
            assert t.iterates[0] is x0

    @given(ascent_instances, st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_matrices_match_iterates(self, inst, data):
        pool, picks, extra = inst
        rows = [pool[i % len(pool)] for i in picks]
        k1 = data.draw(st.integers(1, len(rows)), label="k1")
        cfg = BgaConfig(k1=k1, j_max=data.draw(st.integers(1, 4), label="j_max"))
        cands = data.draw(st.lists(st.sampled_from(rows + extra), min_size=1,
                                   max_size=12), label="cands")
        ds = Dataset(np.array(rows))
        ascent = ascend_bits(ds, np.array(cands), cfg)
        trajs = ascend_all(ds, [BinaryVector(c) for c in cands], cfg)
        its = [[c] for c in cands]
        prev = np.arange(len(cands))
        for ids, bits in ascent.rounds:
            # each round's candidates are a subset of the previous round's
            assert np.isin(ids, prev).all() and (np.diff(ids) > 0).all()
            assert bits.shape == (len(ids), ds.d)
            for c, row in zip(ids.tolist(), bits.tolist()):
                its[c].append(row)
            prev = ids
        for c, t in enumerate(trajs):
            assert its[c] == [x.bits.tolist() for x in t.iterates]
            assert TERMINATIONS[ascent.ends[c]] == t.termination
            assert ascent.endpoints[c].tolist() == t.endpoint.bits.tolist()
            assert (its[c], t.termination) == ascend_ref(rows, cands[c], k1, cfg.j_max)

    def test_bit_matrix_checks(self):
        ds = dataset(["010", "111"])
        with pytest.raises(DimensionMismatch):
            ascend_bits(ds, np.zeros((2, 2), dtype=np.uint8), BgaConfig(k1=1))
        with pytest.raises(ValueError):
            ascend_bits(ds, np.array([[0, 2, 1]]), BgaConfig(k1=1))
        empty = ascend_bits(ds, np.zeros((0, 3), dtype=np.uint8), BgaConfig(k1=1))
        assert empty.rounds == [] and empty.endpoints.shape == (0, 3)

    def test_cycle_rule(self, monkeypatch):
        # the real step never cycles (see test_objective_strictly_decreases),
        # so a bit-flipping step stands in to exercise the 2-cycle stop
        monkeypatch.setattr(bga, "_vote", lambda data, x, k1: 1 - x)
        t = ascend(dataset(["00", "11"]), bv("01"), BgaConfig(k1=1))
        assert [x.to01() for x in t.iterates] == ["01", "10", "01"]
        assert t.termination == CYCLE

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
        cfg = BgaConfig(k1=k1, j_max=4)
        trajs = ascend_all(Dataset(np.array(rows)),
                           [BinaryVector(c) for c in cands], cfg)
        for c, t in zip(cands, trajs):
            its, term = ascend_ref(rows, c, k1, cfg.j_max)
            assert [x.bits.tolist() for x in t.iterates] == its
            assert t.termination == term
        assert trajs[0].endpoint.to01() == ("000001" if k1 == 256 else "000000")

    def test_matches_reference_across_blocks(self):
        # 3000 rows repeating 300 distinct 12-bit vectors tie at the k1
        # boundary; at 10 queries per distance block, the 30-odd distinct
        # iterates of a round span several blocks
        rng = np.random.default_rng(11)
        pool = rng.integers(0, 2, size=(300, 12))
        rows = pool[rng.integers(0, 300, size=3000)].tolist()
        ds = Dataset(np.array(rows))
        cands = rows[::100] + rng.integers(0, 2, size=(5, 12)).tolist()
        trajs = ascend_all(ds, [BinaryVector(c) for c in cands],
                           BgaConfig(k1=40, j_max=4))
        for c, t in zip(cands, trajs):
            its, term = ascend_ref(rows, c, 40, 4)
            assert [x.bits.tolist() for x in t.iterates] == its
            assert t.termination == term
