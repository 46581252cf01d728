import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binnnms import binvec, labeling
from binnnms.labeling import Endpoints, epsilon_bits, label_bits
from oracles import epsilon_ref, majority_ref, partition_of_labels, partition_ref


def _no_kernel_call(*args):
    raise AssertionError("hamming_blocks was called")


def bits(*strings):
    return np.array([[int(c) for c in s] for s in strings], dtype=np.uint8)


class TestComputeEpsilon:
    def test_identical_points(self):
        assert epsilon_bits(bits("010", "010", "010"), 1) == 0.0

    def test_two_points(self):
        assert epsilon_bits(bits("011", "000"), 1) == 2.0

    def test_three_points(self):
        assert epsilon_bits(bits("000", "001", "111"), 1) == pytest.approx(4 / 3)

    def test_kth_only_mode(self):
        # pair distances are 1, 3, 2, so the 2-NN distances per point are
        # (1,3), (1,2), (2,3): kth_only averages the 2nd ones, mean_all all six
        pts = bits("000", "001", "111")
        assert epsilon_bits(pts, 2, mode="kth_only") == pytest.approx(8 / 3)
        assert epsilon_bits(pts, 2, mode="mean_all") == pytest.approx(2.0)

    def test_single_point_is_zero(self):
        assert epsilon_bits(bits("0101"), 1) == 0.0

    def test_k2_too_large(self):
        with pytest.raises(ValueError):
            epsilon_bits(bits("00", "01"), 2)

    @given(st.integers(1, 5).flatmap(lambda d: st.lists(
               st.lists(st.integers(0, 1), min_size=d, max_size=d),
               min_size=2, max_size=30)),
           st.sampled_from(["mean_all", "kth_only"]), st.data())
    @settings(max_examples=200)
    def test_matches_per_point_loop(self, rows, mode, data):
        # few bits, so points repeat and distances tie heavily
        k2 = data.draw(st.integers(1, len(rows) - 1))
        got = epsilon_bits(np.array(rows), k2, mode=mode)
        assert got == float(np.mean(epsilon_ref(rows, k2, mode)))

    @pytest.mark.parametrize("mode", ["mean_all", "kth_only"])
    def test_matches_per_point_loop_across_blocks(self, mode):
        # epsilon runs on the distinct rows: 700 points of 10 bits hold 515,
        # so each distance block holds 63 queries
        rows = np.random.default_rng(5).integers(0, 2, size=(700, 10)).tolist()
        got = epsilon_bits(np.array(rows), 7, mode=mode)
        assert got == float(np.mean(epsilon_ref(rows, 7, mode)))


class TestLabelClusters:
    def test_everything_merges_at_large_epsilon(self):
        lab = label_bits(bits("000", "011", "110"), 3)
        assert lab.num_clusters == 1
        assert lab.single_cluster

    def test_zero_epsilon_groups_identical(self):
        lab = label_bits(bits("000", "010", "000", "111"), 0)
        assert lab.num_clusters == 3
        assert list(lab.labels) == [0, 1, 0, 2]

    def test_threshold_components(self):
        lab = label_bits(bits("000", "001", "111"), 1)
        assert list(lab.labels) == [0, 0, 1]

    def test_transitive_chaining(self):
        # 0000 - 0001 - 0011 - 0111 chain with step 1 merges fully
        lab = label_bits(bits("0000", "0001", "0011", "0111"), 1)
        assert lab.num_clusters == 1

    def test_prototypes_are_median_centers(self):
        pts = bits("000", "001", "011", "111")
        lab = label_bits(pts, 1)
        # one read-only uint8 row per cluster
        assert lab.prototypes.shape == (lab.num_clusters, 3)
        assert lab.prototypes.dtype == np.uint8
        assert not lab.prototypes.flags.writeable
        # labelings compare by identity, not array by array
        assert (lab == label_bits(pts, 1)) is False and (lab == lab) is True
        for cid in range(lab.num_clusters):
            members = pts[lab.labels == cid].tolist()
            assert lab.prototypes[cid].tolist() == majority_ref(members)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            label_bits(np.zeros((0, 3), dtype=np.uint8), 1)

    def test_mixed_dims_rejected(self):
        # rows of different widths form no matrix
        with pytest.raises(ValueError):
            label_bits([[0, 1], [0, 1, 1]], 1)


point_sets = st.integers(2, 10).flatmap(
    lambda d: st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                       min_size=1, max_size=30))


class TestProperties:
    @given(point_sets, st.data())
    @settings(max_examples=150)
    def test_matches_union_find_oracle(self, rows, data):
        eps = data.draw(st.floats(0, len(rows[0]) + 1))
        lab = label_bits(np.array(rows), eps)
        assert partition_of_labels(list(lab.labels)) == partition_ref(rows, eps)

    @given(point_sets, st.data())
    @settings(max_examples=80)
    def test_permutation_equivariance(self, rows, data):
        eps = data.draw(st.floats(0, len(rows[0])))
        perm = data.draw(st.permutations(range(len(rows))))
        base = label_bits(np.array(rows), eps)
        permuted = label_bits(np.array([rows[i] for i in perm]), eps)
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
        counts = [label_bits(pts, eps).num_clusters
                  for eps in range(len(rows[0]) + 2)]
        assert counts == sorted(counts, reverse=True)

    @given(point_sets)
    @settings(max_examples=60)
    def test_labels_contiguous_first_appearance(self, rows):
        lab = label_bits(np.array(rows), 1)
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
        assert epsilon_bits(np.array(rows), k2, mode) == want

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
            assert epsilon_bits(np.array(rows), 30, mode) == \
                float(np.mean(epsilon_ref(rows, 30, mode)))

    @given(dup_rows, st.data())
    @settings(max_examples=200)
    def test_labeling_matches_reference(self, rows, data):
        eps = data.draw(st.floats(0, len(rows[0]) + 1))
        lab = label_bits(np.array(rows), eps)
        assert partition_of_labels(list(lab.labels)) == partition_ref(rows, eps)
        first_seen = list(dict.fromkeys(lab.labels.tolist()))
        assert first_seen == list(range(lab.num_clusters))
        for cid in range(lab.num_clusters):
            members = [rows[i] for i in np.flatnonzero(lab.labels == cid)]
            assert lab.prototypes[cid].tolist() == majority_ref(members)

    def test_labeling_matches_reference_across_blocks(self, monkeypatch):
        # 256-bit rows: the zero row, 128 unit rows e_i and 128 pendants
        # e_i + e_(128+i), plus their complements, are 514 distinct rows.
        # Each tree step is one kernel call from the rows not yet in the tree
        # to one row, so a 100-query block makes the first steps span six
        # blocks. At epsilon 1 each pendant joins only through its own unit
        # row, and every unit row only through the zero row.
        monkeypatch.setattr(binvec, "BLOCK_BYTES", 8 * 100)
        eye = np.eye(256, dtype=np.uint8)
        half = np.vstack([np.zeros((1, 256), np.uint8), eye[:128],
                          eye[:128] + eye[128:]])
        rng = np.random.default_rng(5)
        distinct = np.vstack([half, 1 - half])
        rows = distinct[rng.permutation(np.r_[:514, rng.integers(0, 514, 30)])]
        lab = label_bits(rows, 1)
        assert lab.num_clusters == 2
        assert partition_of_labels(lab.labels.tolist()) == \
            partition_ref(rows.tolist(), 1)

    @given(dup_rows, st.sampled_from([0, 0.5, 0.999]))
    @settings(max_examples=150)
    def test_labeling_below_one_makes_no_kernel_call(self, rows, eps):
        # distinct rows are at distance >= 1, so each is its own component
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(labeling, "hamming_blocks", _no_kernel_call)
            lab = label_bits(np.array(rows), eps)
        assert partition_of_labels(lab.labels.tolist()) == partition_ref(rows, eps)
        distinct = list(dict.fromkeys(map(tuple, rows)))
        assert lab.labels.tolist() == [distinct.index(tuple(r)) for r in rows]
        for cid in range(lab.num_clusters):
            members = [rows[i] for i in np.flatnonzero(lab.labels == cid)]
            assert lab.prototypes[cid].tolist() == majority_ref(members)

    def test_rejects_non_binary_and_non_matrix(self):
        with pytest.raises(ValueError):
            label_bits(np.array([[0, 2]]), 1)
        with pytest.raises(ValueError):
            epsilon_bits(np.array([0, 1, 1]), 1)
        with pytest.raises(ValueError):
            label_bits(np.zeros((0, 3), dtype=np.uint8), 1)


class TestEndpoints:
    @given(dup_rows, st.sampled_from([3, binvec.BLOCK_BYTES // 8]), st.data())
    @settings(max_examples=200)
    def test_one_tree_cut_at_many_thresholds(self, rows, block, data):
        # one object, so every cut after the first reuses its tree; the
        # thresholds come in random order, repeats and fractions included,
        # and 3-query blocks split each tree step across blocks
        d = len(rows[0])
        cuts = data.draw(st.lists(st.one_of(st.integers(0, d + 1),
                                            st.floats(0, d + 1)),
                                  min_size=1, max_size=8))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(binvec, "BLOCK_BYTES", 8 * block)
            ends = Endpoints(np.array(rows))
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

    def test_a_column_makes_one_top_k_and_one_tree(self, monkeypatch):
        calls = {"topk": 0, "tree": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(labeling, "hamming_topk",
                            counted("topk", labeling.hamming_topk))
        monkeypatch.setattr(labeling, "_spanning_tree",
                            counted("tree", labeling._spanning_tree))
        rows = np.random.default_rng(2).integers(0, 2, size=(60, 8))
        ends = Endpoints(rows, range(1, 10))
        for k2 in range(1, 10):
            for mode in ("mean_all", "kth_only"):
                ends.labeling(ends.epsilon(k2, mode)[1])
        assert calls == {"topk": 1, "tree": 1}
