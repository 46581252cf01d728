import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import binnnms.kmodes
from binnnms.ingest import Dataset
from binnnms.kmodes import kmodes_repeated, kmodes_run
from binnnms.metrics import quantization_error
from oracles import best_center_ref, hamming_ref, inertia_ref, kmodes_ref, majority_ref


def dataset(strings):
    return Dataset(np.array([[int(c) for c in s] for s in strings]))


class TestKModesRun:
    def test_k_one_global_median(self):
        # every component ties 2-2 here, so any tie resolution is a global
        # median center; check optimality via inertia rather than exact bits
        ds = dataset(["000", "001", "110", "111"])
        res = kmodes_run(ds, 1, seed=0)
        assert set(res.labels) == {0}
        rows, ones = ds.bits.tolist(), [1] * ds.n
        assert inertia_ref(rows, ones, res.prototypes[0].tolist()) == \
            best_center_ref(rows, ones)[1]

    def test_k_one_no_ties(self):
        ds = dataset(["001", "011", "111"])
        res = kmodes_run(ds, 1, seed=0)
        assert res.prototypes[0].tolist() == majority_ref(ds.bits.tolist())

    def test_k_equals_n_distinct(self):
        ds = dataset(["000", "011", "101", "110"])
        res = kmodes_run(ds, 4, seed=1)
        assert res.total_inertia == 0.0
        assert len(set(res.labels)) == 4

    def test_optimal_two_clustering(self):
        # exhaustive check over 2-partitions shows {000,001} | {110,111}
        # with inertia 2 is optimal; both seeds below start one prototype
        # per side
        ds = dataset(["000", "001", "110", "111"])
        found = False
        for seed in range(20):
            res = kmodes_run(ds, 2, seed=seed)
            if res.total_inertia == 2.0:
                assert list(res.labels[:2]) == [res.labels[0]] * 2
                assert list(res.labels[2:]) == [res.labels[2]] * 2
                assert res.labels[0] != res.labels[2]
                # third bits tie inside each side, anchored to the previous
                # prototype, so each side yields one of its own two points
                low = res.prototypes[res.labels[0]].tolist()
                high = res.prototypes[res.labels[2]].tolist()
                assert low in ([0, 0, 0], [0, 0, 1])
                assert high in ([1, 1, 0], [1, 1, 1])
                found = True
        assert found

    def test_max_iter_below_one_rejected(self):
        # with no iteration there is no assignment to report
        rng = np.random.default_rng(0)
        ds = Dataset(rng.integers(0, 2, size=(20, 8)))
        for max_iter in (0, -1):
            with pytest.raises(ValueError):
                kmodes_run(ds, 3, seed=0, max_iter=max_iter)
            with pytest.raises(ValueError):
                kmodes_repeated(ds, 3, runs=2, max_iter=max_iter)

    def test_negative_seed_rejected(self):
        # numpy's own message would name no seed
        ds = dataset(["01", "10", "11"])
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            kmodes_run(ds, 2, seed=-1)
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            kmodes_repeated(ds, 2, runs=3, base_seed=-1)

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_outside_1_to_n_rejected(self, k):
        ds = dataset(["01", "10", "11"])
        with pytest.raises(ValueError, match=rf"^k must be in \[1, 3\], got {k}$"):
            kmodes_run(ds, k, seed=0)

    def test_k_exceeds_distinct_points(self):
        ds = dataset(["01", "01", "10"])
        with pytest.raises(ValueError):
            kmodes_run(ds, 3, seed=0)

    def test_prototypes_are_cluster_medians(self):
        rng = np.random.default_rng(11)
        ds = Dataset(rng.integers(0, 2, size=(30, 8)))
        res = kmodes_run(ds, 4, seed=2)
        # one read-only uint8 row per cluster
        assert res.prototypes.shape == (4, 8)
        assert res.prototypes.dtype == np.uint8
        assert not res.prototypes.flags.writeable
        # results compare by identity, not array by array
        assert (res == kmodes_run(ds, 4, seed=2)) is False and (res == res) is True
        for j in range(4):
            members = ds.bits[res.labels == j].tolist()
            if members:
                # the stored prototype minimizes inertia at least as well as
                # the unanchored majority (ties were anchored to its own bits)
                proto = res.prototypes[j].tolist()
                assert proto == majority_ref(members, tie_bits=proto)

    def test_total_inertia_consistent(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.integers(0, 2, size=(25, 6)))
        res = kmodes_run(ds, 3, seed=9)
        total = sum(int((ds.bits[i] != res.prototypes[res.labels[i]]).sum())
                    for i in range(ds.n))
        assert res.total_inertia == total

    @pytest.mark.parametrize("max_iter", [1, 100])
    def test_total_inertia_is_brute_force_inertia(self, max_iter):
        # max_iter 1 stops every run before it can converge; at 100 every
        # run converges and its total is the last assignment's inertia
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ds = Dataset(rng.integers(0, 2, size=(30, 7)))
            res = kmodes_run(ds, 4, seed=seed, max_iter=max_iter)
            protos = res.prototypes.tolist()
            want = sum(hamming_ref(row, protos[lab])
                       for row, lab in zip(ds.bits.tolist(), res.labels.tolist()))
            assert res.total_inertia == want
            if max_iter == 1:
                assert res.iterations == 1
            else:
                assert res.iterations < max_iter
                assert res.total_inertia == res.inertia_history[-1]


class TestKModesRepeated:
    def test_single_run_equals_base_seed(self):
        ds = dataset(["000", "001", "110", "111"])
        solo = kmodes_run(ds, 2, seed=42)
        rep = kmodes_repeated(ds, 2, runs=1, base_seed=42)
        assert len(rep) == 1
        assert list(rep[0].labels) == list(solo.labels)
        assert rep[0].total_inertia == solo.total_inertia

    def test_seeds_increment(self):
        ds = dataset(["000", "001", "110", "111"])
        rep = kmodes_repeated(ds, 2, runs=3, base_seed=10)
        assert [r.seed for r in rep] == [10, 11, 12]

    def test_identical_points_zero_inertia(self):
        ds = dataset(["0101"] * 6)
        rep = kmodes_repeated(ds, 1, runs=2)
        assert all(r.total_inertia == 0.0 for r in rep)

    def test_bad_runs(self):
        ds = dataset(["01", "10"])
        with pytest.raises(ValueError):
            kmodes_repeated(ds, 1, runs=0)


class TestDescent:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_inertia_monotone_nonincreasing(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(8, 40)), int(rng.integers(3, 12))
        ds = Dataset(rng.integers(0, 2, size=(n, d)))
        k = int(rng.integers(2, min(6, len(np.unique(ds.bits, axis=0)) + 1)))
        res = kmodes_run(ds, k, seed=seed)
        hist = res.inertia_history
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
        assert res.total_inertia <= hist[0] + 1e-9


# 19 rows of 8 bits on which seed 11756 at k = 3 empties a cluster in the
# second iteration, so the reseed runs
RESEED_ROWS = ["01111000", "01011000", "11000011", "11110011", "10001000",
               "11001001", "10000000", "01111000", "11010001", "01011101",
               "11110011", "01111010", "10101100", "10100111", "01011100",
               "00110000", "01111001", "01000010", "11000010"]


def assert_matches_reference(ds, k, seed, max_iter, res):
    labels, protos, total, iterations, history, reseeds = kmodes_ref(
        ds.bits.tolist(), k, seed, max_iter)
    assert res.labels.tolist() == labels
    assert res.prototypes.tolist() == protos
    assert res.total_inertia == total
    assert res.iterations == iterations
    assert res.inertia_history == history
    return reseeds


class TestReference:
    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 3, 100]))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_cluster_loop(self, seed, max_iter):
        # few bits and a small pool of rows: assignment and vote ties abound;
        # max_iter 1-3 stops many runs before they converge
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        pool = rng.integers(0, 2, size=(int(rng.integers(1, 8)), d))
        ds = Dataset(pool[rng.integers(0, len(pool), size=int(rng.integers(1, 30)))])
        k = int(rng.integers(1, len(np.unique(ds.bits, axis=0)) + 1))
        res = kmodes_run(ds, k, seed=seed, max_iter=max_iter)
        assert_matches_reference(ds, k, seed, max_iter, res)

    @pytest.mark.parametrize("max_iter", [2, 3, 100])
    def test_empty_cluster_reseed_matches(self, max_iter):
        ds = dataset(RESEED_ROWS)
        res = kmodes_run(ds, 3, seed=11756, max_iter=max_iter)
        assert assert_matches_reference(ds, 3, 11756, max_iter, res) == 1

    def test_matches_reference_across_blocks(self):
        # 1725 copies of the reseed rows: 32775 rows of 8 bytes leave one
        # prototype per distance block, so the k = 3 distance matrix spans
        # three blocks, and the run (every count scaled by 1725) still
        # empties a cluster and reseeds it
        ds = Dataset(np.tile(dataset(RESEED_ROWS).bits, (1725, 1)))
        res = kmodes_run(ds, 3, seed=11756)
        assert assert_matches_reference(ds, 3, 11756, 100, res) == 1

    def test_repeated_matches_reference_runs(self):
        ds = dataset(RESEED_ROWS)
        for res in kmodes_repeated(ds, 3, runs=4, base_seed=11754):
            assert_matches_reference(ds, 3, res.seed, 100, res)

    def test_reused_rows_match_reference(self, monkeypatch):
        # rows drawn around a few planted centres: after the first update
        # some prototypes settle while others still move, so the loop
        # recomputes only part of its distance matrix
        kernel = binnnms.binvec._hamming_cols
        sent = []  # prototype rows per kernel call, one list per run

        def counting(q_packed, cols):
            sent[-1].append(len(q_packed))
            return kernel(q_packed, cols)

        monkeypatch.setattr(binnnms.binvec, "_hamming_cols", counting)

        @given(st.integers(0, 10_000), st.sampled_from([1, 2, 3, 100]))
        @settings(max_examples=150, deadline=None)
        def check(seed, max_iter):
            rng = np.random.default_rng(seed)
            d, c = int(rng.integers(8, 25)), int(rng.integers(2, 6))
            centres = rng.integers(0, 2, size=(c, d))
            n = int(rng.integers(20, 61))
            flips = rng.random((n, d)) < 0.1
            ds = Dataset(centres[rng.integers(0, c, size=n)] ^ flips)
            k = int(rng.integers(2, min(5, len(np.unique(ds.bits, axis=0))) + 1))
            sent.append([])
            res = kmodes_run(ds, k, seed=seed, max_iter=max_iter)
            assert_matches_reference(ds, k, seed, max_iter, res)
            assert sent[-1][0] == k and all(1 <= m <= k for m in sent[-1])

        check()
        # some iteration after a run's first recomputed fewer than k rows
        assert any(m < run[0] for run in sent for m in run[1:])

    def test_int64_keys_run_the_same(self, monkeypatch):
        # the reseed rows empty a cluster; the planted rows span 4 words and
        # stop at max_iter 2 before they converge
        rng = np.random.default_rng(5)
        planted = rng.integers(0, 2, size=(6, 240))[rng.integers(0, 6, 500)]
        planted ^= rng.random(planted.shape) < 0.1
        cases = [(dataset(RESEED_ROWS), 3, 11756, 100)] + [
            (Dataset(planted), 6, seed, max_iter)
            for seed in range(3) for max_iter in (2, 100)]
        want = [kmodes_run(ds, k, seed=seed, max_iter=max_iter)
                for ds, k, seed, max_iter in cases]
        monkeypatch.setattr(binnnms.binvec, "_key_layout", lambda n, words: (np.int64, 32))
        for (ds, k, seed, max_iter), w in zip(cases, want):
            res = kmodes_run(ds, k, seed=seed, max_iter=max_iter)
            assert np.array_equal(res.labels, w.labels)
            assert np.array_equal(res.prototypes, w.prototypes)
            assert res.inertia_history == w.inertia_history
            assert (res.total_inertia, res.iterations) == (w.total_inertia, w.iterations)
        # some max_iter 2 run stopped before its max_iter 100 twin converged
        assert any(a.iterations < b.iterations for a, b in zip(want[1::2], want[2::2]))

    def test_one_word_major_copy_per_run(self, monkeypatch):
        # every kernel call of a run scans the same word-major copy of the
        # data, built once; each restart builds its own
        kernel = binnnms.binvec._hamming_cols
        scanned = []  # the columns of each kernel call

        def recorded(q_packed, cols):
            scanned.append(cols)
            return kernel(q_packed, cols)

        monkeypatch.setattr(binnnms.binvec, "_hamming_cols", recorded)
        ds = Dataset(np.tile(dataset(RESEED_ROWS).bits, (3, 1)))
        runs = kmodes_repeated(ds, 3, runs=2, base_seed=11754)
        assert len(scanned) > len(runs)
        assert len({id(cols) for cols in scanned}) == len(runs)
        assert all(np.array_equal(cols, ds.packed.T) for cols in scanned)


class TestQuantizationIdentity:
    # the CLI reports each restart's quantization error as total_inertia / n
    @pytest.mark.parametrize("max_iter", [1, 2, 100])
    def test_inertia_over_n_is_quantization_error(self, max_iter):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ds = Dataset(rng.integers(0, 2, size=(int(rng.integers(10, 40)), 9)))
            res = kmodes_run(ds, 3, seed=seed, max_iter=max_iter)
            assert quantization_error(ds, res.labels, res.prototypes) == \
                res.total_inertia / ds.n

    @pytest.mark.parametrize("max_iter", [2, 100])
    def test_holds_after_a_reseed(self, max_iter):
        ds = dataset(RESEED_ROWS)
        res = kmodes_run(ds, 3, seed=11756, max_iter=max_iter)
        assert quantization_error(ds, res.labels, res.prototypes) == \
            res.total_inertia / ds.n
