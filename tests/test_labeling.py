import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binnnms import binvec, labeling
from binnnms.labeling import Endpoints
from oracles import epsilon_ref, majority_ref, partition_of_labels, partition_ref


def _no_kernel_call(*args):
    raise AssertionError("hamming_blocks was called")


def bits(*strings):
    return np.array([[int(c) for c in s] for s in strings], dtype=np.uint8)


class TestComputeEpsilon:
    def test_identical_points(self):
        assert Endpoints(bits("010", "010", "010")).epsilon(1)[0] == 0.0

    def test_two_points(self):
        assert Endpoints(bits("011", "000")).epsilon(1)[0] == 2.0

    def test_three_points(self):
        got = Endpoints(bits("000", "001", "111")).epsilon(1)[0]
        assert got == pytest.approx(4 / 3)

    def test_kth_only_mode(self):
        # pair distances are 1, 3, 2, so the 2-NN distances per point are
        # (1,3), (1,2), (2,3): kth_only averages the 2nd ones, mean_all all six
        pts = bits("000", "001", "111")
        assert Endpoints(pts).epsilon(2, mode="kth_only")[0] == pytest.approx(8 / 3)
        assert Endpoints(pts).epsilon(2, mode="mean_all")[0] == pytest.approx(2.0)

    def test_single_point_is_zero(self):
        assert Endpoints(bits("0101")).epsilon(1)[0] == 0.0

    def test_k2_too_large(self):
        with pytest.raises(ValueError):
            Endpoints(bits("00", "01")).epsilon(2)

    @given(st.integers(1, 5).flatmap(lambda d: st.lists(
               st.lists(st.integers(0, 1), min_size=d, max_size=d),
               min_size=2, max_size=30)),
           st.sampled_from(["mean_all", "kth_only"]), st.data())
    @settings(max_examples=200)
    def test_matches_per_point_loop(self, rows, mode, data):
        # few bits, so points repeat and distances tie heavily
        k2 = data.draw(st.integers(1, len(rows) - 1))
        got = Endpoints(np.array(rows)).epsilon(k2, mode=mode)[0]
        assert got == float(np.mean(epsilon_ref(rows, k2, mode)))

    @pytest.mark.parametrize("mode", ["mean_all", "kth_only"])
    def test_matches_per_point_loop_across_blocks(self, mode):
        # epsilon runs on the distinct rows: 700 points of 10 bits hold 515,
        # so each distance block holds 63 queries
        rows = np.random.default_rng(5).integers(0, 2, size=(700, 10)).tolist()
        got = Endpoints(np.array(rows)).epsilon(7, mode=mode)[0]
        assert got == float(np.mean(epsilon_ref(rows, 7, mode)))


class TestLabelClusters:
    def test_integer_epsilon_keeps_its_edges(self):
        # the README's flow; the k2 = 3 distance means are 4/3, 1, 2/3, 1:
        # exactly 1 on average, where the threshold graph is connected. The
        # float epsilon can land one ulp below 1; the cut is its exact floor
        ends = Endpoints(bits("0001", "0000", "0010", "0000"), [3])
        t = ends.epsilon(3)[1]
        assert t == 1
        assert ends.labeling(t).num_clusters == 1

    def test_everything_merges_at_large_epsilon(self):
        lab = Endpoints(bits("000", "011", "110")).labeling(3)
        assert lab.num_clusters == 1
        assert lab.single_cluster

    def test_zero_epsilon_groups_identical(self):
        lab = Endpoints(bits("000", "010", "000", "111")).labeling(0)
        assert lab.num_clusters == 3
        assert list(lab.labels) == [0, 1, 0, 2]

    def test_threshold_components(self):
        lab = Endpoints(bits("000", "001", "111")).labeling(1)
        assert list(lab.labels) == [0, 0, 1]

    def test_transitive_chaining(self):
        # 0000 - 0001 - 0011 - 0111 chain with step 1 merges fully
        lab = Endpoints(bits("0000", "0001", "0011", "0111")).labeling(1)
        assert lab.num_clusters == 1

    @pytest.mark.parametrize("epsilon", [-1, np.nan, 0.5, 1.5, 4.5, np.inf, 1e300])
    def test_edge_epsilons(self, epsilon):
        # d = 4, with a duplicate row: any epsilon below 1 (NaN too) cuts at
        # 0, which still merges copies, where the oracle's H <= epsilon merges
        # nothing for -1 and NaN; d + 0.5, inf and 1e300 merge everything
        rows = [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1], [1, 1, 1, 1]]
        lab = Endpoints(np.array(rows)).labeling(epsilon)
        assert partition_of_labels(lab.labels.tolist()) == \
            partition_ref(rows, epsilon if epsilon >= 0 else 0)

    def test_prototypes_are_median_centers(self):
        pts = bits("000", "001", "011", "111")
        lab = Endpoints(pts).labeling(1)
        # one read-only uint8 row per cluster
        assert lab.prototypes.shape == (lab.num_clusters, 3)
        assert lab.prototypes.dtype == np.uint8
        assert not lab.prototypes.flags.writeable
        # labelings compare by identity, not array by array
        assert (lab == Endpoints(pts).labeling(1)) is False and (lab == lab) is True
        for cid in range(lab.num_clusters):
            members = pts[lab.labels == cid].tolist()
            assert lab.prototypes[cid].tolist() == majority_ref(members)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Endpoints(np.zeros((0, 3), dtype=np.uint8)).labeling(1)

    def test_mixed_dims_rejected(self):
        # rows of different widths form no matrix
        with pytest.raises(ValueError):
            Endpoints([[0, 1], [0, 1, 1]])


point_sets = st.integers(2, 10).flatmap(
    lambda d: st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                       min_size=1, max_size=30))


class TestProperties:
    @given(point_sets, st.data())
    @settings(max_examples=150)
    def test_matches_union_find_oracle(self, rows, data):
        eps = data.draw(st.floats(0, len(rows[0]) + 1))
        lab = Endpoints(np.array(rows)).labeling(eps)
        assert partition_of_labels(list(lab.labels)) == partition_ref(rows, eps)

    @given(point_sets, st.data())
    @settings(max_examples=80)
    def test_permutation_equivariance(self, rows, data):
        eps = data.draw(st.floats(0, len(rows[0])))
        perm = data.draw(st.permutations(range(len(rows))))
        base = Endpoints(np.array(rows)).labeling(eps)
        permuted = Endpoints(np.array([rows[i] for i in perm])).labeling(eps)
        part_base = partition_of_labels(list(base.labels))
        part_perm = partition_of_labels(list(permuted.labels))
        # map permuted indices back to the original positions
        unmapped = frozenset(frozenset(perm[i] for i in grp)
                             for grp in part_perm)
        assert unmapped == part_base

    @given(point_sets)
    @settings(max_examples=60)
    def test_monotone_in_epsilon(self, rows):
        pts = np.array(rows)
        counts = [Endpoints(pts).labeling(eps).num_clusters
                  for eps in range(len(rows[0]) + 2)]
        assert counts == sorted(counts, reverse=True)

    @given(point_sets)
    @settings(max_examples=60)
    def test_labels_contiguous_first_appearance(self, rows):
        lab = Endpoints(np.array(rows)).labeling(1)
        seen = []
        for x in lab.labels:
            if x not in seen:
                seen.append(int(x))
        assert seen == list(range(lab.num_clusters))


# Duplicate-heavy point sets: rows drawn from a pool of a few distinct rows,
# so a row's k2 nearest others take in its own copies and the copies of
# several other distinct rows, ties at every distance.
dup_rows = st.integers(1, 6).flatmap(
    lambda d: st.tuples(
        st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                 min_size=1, max_size=5),
        st.lists(st.integers(0, 4), min_size=2, max_size=40))).map(
    lambda t: [t[0][i % len(t[0])] for i in t[1]])


class TestMatrixFunctions:
    @given(dup_rows, st.sampled_from(["mean_all", "kth_only"]), st.data())
    @settings(max_examples=300)
    def test_deduped_epsilon_matches_per_point_loop(self, rows, mode, data):
        k2 = data.draw(st.integers(1, len(rows) - 1))
        want = float(np.mean(epsilon_ref(rows, k2, mode)))
        assert Endpoints(np.array(rows)).epsilon(k2, mode)[0] == want

    def test_epsilon_across_blocks_with_duplicates(self):
        # 600 rows drawn from 400 distinct 12-bit vectors hold 300 of them,
        # so each distance block holds 54 of the 300 distinct queries against
        # all 600 rows; k2 = 30 reaches past the copies of the nearest few
        # distinct rows
        rng = np.random.default_rng(3)
        codes = rng.choice(1 << 12, size=400, replace=False)
        pool = (codes[:, None] >> np.arange(12)) & 1
        rows = pool[rng.integers(0, 400, size=600)].tolist()
        for mode in ("mean_all", "kth_only"):
            assert Endpoints(np.array(rows)).epsilon(30, mode)[0] == \
                float(np.mean(epsilon_ref(rows, 30, mode)))

    @given(dup_rows, st.data())
    @settings(max_examples=200)
    def test_labeling_matches_reference(self, rows, data):
        eps = data.draw(st.floats(0, len(rows[0]) + 1))
        lab = Endpoints(np.array(rows)).labeling(eps)
        assert partition_of_labels(list(lab.labels)) == partition_ref(rows, eps)
        first_seen = list(dict.fromkeys(lab.labels.tolist()))
        assert first_seen == list(range(lab.num_clusters))
        for cid in range(lab.num_clusters):
            members = [rows[i] for i in np.flatnonzero(lab.labels == cid)]
            assert lab.prototypes[cid].tolist() == majority_ref(members)

    def test_labeling_matches_reference_across_blocks(self, monkeypatch):
        # 256-bit rows: the zero row, 128 unit rows e_i and 128 pendants
        # e_i + e_(128+i), plus their complements, are 514 distinct rows.
        # Without a top-k every row is dense: one kernel pass of the distinct
        # rows against themselves, whose 800-byte blocks hold one query each,
        # so each row's edges are hooked on their own. At epsilon 1 each
        # pendant joins only through its own unit row, and every unit row
        # only through the zero row.
        monkeypatch.setattr(binvec, "BLOCK_BYTES", 8 * 100)
        eye = np.eye(256, dtype=np.uint8)
        half = np.vstack([np.zeros((1, 256), np.uint8), eye[:128],
                          eye[:128] + eye[128:]])
        rng = np.random.default_rng(5)
        distinct = np.vstack([half, 1 - half])
        rows = distinct[rng.permutation(np.r_[:514, rng.integers(0, 514, 30)])]
        lab = Endpoints(rows).labeling(1)
        assert lab.num_clusters == 2
        assert partition_of_labels(lab.labels.tolist()) == \
            partition_ref(rows.tolist(), 1)

    @given(dup_rows, st.sampled_from([0, 0.5, 0.999]))
    @settings(max_examples=150)
    def test_labeling_below_one_makes_no_kernel_call(self, rows, eps):
        # distinct rows are at distance >= 1, so each is its own component
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(labeling, "hamming_blocks", _no_kernel_call)
            lab = Endpoints(np.array(rows)).labeling(eps)
        assert partition_of_labels(lab.labels.tolist()) == partition_ref(rows, eps)
        distinct = list(dict.fromkeys(map(tuple, rows)))
        assert lab.labels.tolist() == [distinct.index(tuple(r)) for r in rows]
        for cid in range(lab.num_clusters):
            members = [rows[i] for i in np.flatnonzero(lab.labels == cid)]
            assert lab.prototypes[cid].tolist() == majority_ref(members)

    def test_rejects_non_binary_and_non_matrix(self):
        with pytest.raises(ValueError):
            Endpoints(np.array([[0, 2]]))
        with pytest.raises(ValueError):
            Endpoints(np.array([0, 1, 1]))
        with pytest.raises(ValueError):
            Endpoints(np.zeros((0, 3), dtype=np.uint8)).labeling(1)


class TestEndpoints:
    @given(dup_rows, st.sampled_from([3, binvec.BLOCK_BYTES // 8]), st.data())
    @settings(max_examples=200)
    def test_one_object_labels_many_thresholds(self, rows, block, data):
        # one object, cut at thresholds in random order, repeats and
        # fractions included. When epsilon(k2) runs first, a row whose last
        # top-k distance is above the cut takes its edges from its own list
        # and the other rows from the kernel pass; without it every row is
        # dense. 3-query blocks split that pass, and the list walk, in blocks
        d = len(rows[0])
        cuts = data.draw(st.lists(st.one_of(st.integers(0, d + 1),
                                            st.floats(0, d + 1)),
                                  min_size=1, max_size=8))
        k2 = data.draw(st.none() | st.integers(1, len(rows) - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(binvec, "BLOCK_BYTES", 8 * block)
            ends = Endpoints(np.array(rows))
            if k2 is not None:
                ends.epsilon(k2)
            labs = [ends.labeling(eps) for eps in cuts]
        for eps, lab in zip(cuts, labs):
            assert partition_of_labels(lab.labels.tolist()) == partition_ref(rows, eps)
            first_seen = list(dict.fromkeys(lab.labels.tolist()))
            assert first_seen == list(range(lab.num_clusters))
            for cid in range(lab.num_clusters):
                members = [rows[i] for i in np.flatnonzero(lab.labels == cid)]
                assert lab.prototypes[cid].tolist() == majority_ref(members)

    @given(dup_rows, st.sampled_from(["mean_all", "kth_only"]), st.data())
    @settings(max_examples=200)
    def test_every_epsilon_from_one_top_k(self, rows, mode, data):
        # each k2 reads a prefix of the one top-k, whatever the order asked;
        # a k2 the object was not told of widens the top-k
        k2s = data.draw(st.lists(st.integers(1, len(rows) - 1), min_size=1,
                                 max_size=6))
        ends = Endpoints(np.array(rows), k2s if data.draw(st.booleans()) else ())
        for k2 in k2s:
            want = epsilon_ref(rows, k2, mode)
            total = sum(want) * (1 if mode == "kth_only" else k2)
            count = len(rows) * (1 if mode == "kth_only" else k2)
            assert ends.epsilon(k2, mode) == (float(np.mean(want)),
                                              round(total) // count)

    @pytest.mark.parametrize("rows, k2, dense", [
        # k2 = 1 lists each row's one nearest other, at distance 1: at the
        # cut 1 every row is dense
        (("0000", "0001", "1110", "1111"), 1, 4),
        # k2 = m - 1 lists every row, the last at distance 5 or 6: no row is,
        # so no kernel pass runs
        (("000000", "000001", "111111", "111110"), 3, None)])
    def test_listed_and_dense_rows(self, monkeypatch, rows, k2, dense):
        queries = []

        def recorded(q_packed, packed_rows):
            queries.append(len(q_packed))
            return binvec.hamming_blocks(q_packed, packed_rows)

        monkeypatch.setattr(labeling, "hamming_blocks", recorded)
        ends = Endpoints(bits(*rows))
        ends.epsilon(k2)
        lab = ends.labeling(1)
        assert queries == ([] if dense is None else [dense])
        assert partition_of_labels(lab.labels.tolist()) == \
            partition_ref([list(map(int, r)) for r in rows], 1) == \
            frozenset({frozenset({0, 1}), frozenset({2, 3})})

    def test_a_column_makes_one_top_k_and_one_labeling_per_cut(self, monkeypatch):
        calls = {"hamming_topk": 0, "hamming_blocks": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(labeling, name, counted(name, getattr(labeling, name)))
        # ten copies of one row fill its top-10 list with distance 0, so that
        # row is dense at every cut and each cut >= 1 runs one kernel pass
        rng = np.random.default_rng(2)
        rows = np.vstack([rng.integers(0, 2, size=(60, 8)), np.ones((10, 8), int)])
        ends = Endpoints(rows, range(1, 10))
        cuts = set()
        for k2 in range(1, 10):
            for mode in ("mean_all", "kth_only"):
                cut = ends.epsilon(k2, mode)[1]
                lab = ends.labeling(cut)
                # a repeated cut, or a fraction with the same floor, is the
                # same shared, read-only labeling
                assert ends.labeling(cut) is lab and ends.labeling(cut + 0.5) is lab
                assert not lab.labels.flags.writeable
                assert not lab.prototypes.flags.writeable
                cuts.add(cut)
        kernel_cuts = [cut for cut in cuts if cut >= 1]
        assert len(kernel_cuts) > 1
        assert calls == {"hamming_topk": 1, "hamming_blocks": len(kernel_cuts)}
