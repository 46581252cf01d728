import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binnnms.binvec import DimensionMismatch
from binnnms.ingest import Dataset
from binnnms.metrics import arand, contingency, nmi, quantization_error, scores
from oracles import all_vectors, arand_ref, hamming_ref, majority_ref, nmi_ref


class TestContingency:
    def test_counts_and_marginals(self):
        ct = contingency([0, 0, 1, 1], [0, 0, 1, 2])
        assert ct.n == 4
        assert ct.table.sum() == 4
        assert list(ct.row_marginals) == [2, 2]
        assert list(ct.col_marginals) == [2, 1, 1]

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)),
                    min_size=1, max_size=60),
           st.sampled_from(["int", "str", "numpy"]))
    @settings(max_examples=200)
    def test_matches_brute_force_count(self, pairs, kind):
        convert = {"int": list, "str": lambda xs: [f"c{x}" for x in xs],
                   "numpy": np.array}[kind]
        truth, pred = (convert([pair[i] for pair in pairs]) for i in (0, 1))

        def first_appearance(labels):
            order = []
            for x in labels:
                if x not in order:
                    order.append(x)
            return order

        want = [[sum(1 for u, v in zip(truth, pred) if u == r and v == c)
                 for c in first_appearance(pred)]
                for r in first_appearance(truth)]
        ct = contingency(truth, pred)
        assert ct.table.dtype == np.int64
        assert ct.table.tolist() == want
        assert ct.n == len(pairs)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency([0, 1], [0])

    def test_empty(self):
        with pytest.raises(ValueError):
            contingency([], [])


class TestNmi:
    def test_identical(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_identical_up_to_relabeling(self):
        assert nmi([0, 0, 1, 1], [5, 5, 2, 2]) == pytest.approx(1.0)

    def test_independent(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_derived_oracle_value(self):
        # frozen from the contingency oracle on the 2x3 table
        assert nmi([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(
            0.816496580927726, abs=1e-12)

    def test_degenerate_single_cluster(self):
        assert nmi([0, 0, 0], [1, 1, 1]) == 1.0
        assert nmi([0, 0, 1], [1, 1, 1]) == 0.0

    def test_normalization_options(self):
        t, p = [0, 0, 1, 1], [0, 0, 1, 2]
        for mode in ("geometric", "arithmetic", "max"):
            assert 0.0 <= nmi(t, p, mode) <= 1.0
        with pytest.raises(ValueError):
            nmi(t, p, "bogus")


class TestArand:
    def test_identical(self):
        assert arand([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_single_cluster_pred(self):
        assert arand([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.0)

    def test_derived_oracle_value(self):
        # frozen from pair counting over all 6 pairs
        assert arand([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_can_be_negative(self):
        assert arand([0, 0, 1, 1], [0, 1, 0, 1]) < 0.0


labelings = st.integers(2, 50).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
        st.lists(st.integers(0, 5), min_size=n, max_size=n)))


class TestScores:
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)),
                    min_size=1, max_size=80),
           st.sampled_from(["int", "str", "numpy", "tolist"]))
    @settings(max_examples=200)
    def test_equals_nmi_and_arand(self, pairs, kind):
        convert = {"int": list, "str": lambda xs: [f"c{x}" for x in xs],
                   "numpy": np.array, "tolist": lambda xs: np.array(xs).tolist()}[kind]
        truth, pred = (convert([pair[i] for pair in pairs]) for i in (0, 1))
        assert scores(truth, pred) == (nmi(truth, pred), arand(truth, pred))

    def test_numpy_labels_as_list_give_the_same_scores(self):
        truth = ["a", "b", "a", "c", "b", "a"]
        pred = np.array([2, 0, 2, 1, 0, 0])
        assert scores(truth, pred.tolist()) == (nmi(truth, list(pred)),
                                                arand(truth, list(pred)))


class TestOracleAgreement:
    @given(labelings)
    @settings(max_examples=300)
    def test_nmi_matches_reference(self, pair):
        t, p = pair
        assert nmi(t, p) == pytest.approx(nmi_ref(t, p), abs=1e-12)

    @given(labelings)
    @settings(max_examples=300)
    def test_arand_matches_reference(self, pair):
        t, p = pair
        assert arand(t, p) == pytest.approx(arand_ref(t, p), abs=1e-12)

    @given(labelings, st.data())
    @settings(max_examples=100)
    def test_relabeling_invariance(self, pair, data):
        t, p = pair
        perm = data.draw(st.permutations(range(6)))
        relabeled = [perm[x] for x in p]
        assert nmi(t, p) == nmi(t, relabeled)
        assert arand(t, p) == arand(t, relabeled)
        # argument symmetry holds to rounding (summation order differs)
        assert nmi(t, p) == pytest.approx(nmi(p, t), abs=1e-12)


def protos(*strings):
    return np.array([[int(c) for c in s] for s in strings], dtype=np.uint8)


class TestQuantizationError:
    def test_zero_when_points_equal_prototypes(self):
        ds = Dataset(np.array([[0, 0], [1, 1]]))
        assert quantization_error(ds, [0, 1], protos("00", "11")) == 0.0

    def test_single_cluster(self):
        ds = Dataset(np.array([[0, 0], [1, 1]]))
        assert quantization_error(ds, [0, 0], protos("00")) == 1.0

    def test_missing_prototype(self):
        ds = Dataset(np.array([[0, 0], [1, 1]]))
        with pytest.raises(ValueError):
            quantization_error(ds, [0, 1], protos("00"))

    def test_negative_label(self):
        # a label of -1 must not read the last prototype
        ds = Dataset(np.array([[0, 0], [1, 1]]))
        with pytest.raises(ValueError):
            quantization_error(ds, [0, -1], protos("00", "11"))

    @pytest.mark.parametrize("d", [1, 63, 64, 65, 240])
    def test_matches_brute_force_count(self, d):
        # widths on both sides of the 64-bit word boundary, whose pad bits
        # must not count
        rng = np.random.default_rng(d)
        ds = Dataset(rng.integers(0, 2, size=(40, d)))
        centres = rng.integers(0, 2, size=(5, d))
        labels = rng.integers(0, 5, size=40)
        want = sum(hamming_ref(row, centres[lab].tolist()) for row, lab
                   in zip(ds.bits.tolist(), labels.tolist())) / ds.n
        assert quantization_error(ds, labels, centres) == want

    def test_prototype_width_mismatch(self):
        # 63 and 64 bits pack into the same single word
        ds = Dataset(np.zeros((2, 64), dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            quantization_error(ds, [0, 0], protos("0" * 63))

    @pytest.mark.parametrize("bad", [np.array([0, 1]), np.array([[0, 2]]),
                                     np.array([[0.5, 1.0]])])
    def test_prototypes_must_be_a_bit_matrix(self, bad):
        # a single row is not a (k, d) matrix; every cell must be 0 or 1
        ds = Dataset(np.array([[0, 1], [1, 1]]))
        with pytest.raises(ValueError):
            quantization_error(ds, [0, 0], bad)

    @given(st.integers(0, 1000))
    @settings(max_examples=40)
    def test_median_prototypes_are_optimal(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 10)), int(rng.integers(1, 6))
        ds = Dataset(rng.integers(0, 2, size=(n, d)))
        labels = rng.integers(0, 2, size=n)
        if len(set(labels)) < 2:
            labels[0] = 1 - labels[0]
        medians = [majority_ref(ds.bits[labels == j].tolist()) for j in range(2)]
        best = quantization_error(ds, labels, np.array(medians))
        for alt0 in all_vectors(d):
            for alt1 in all_vectors(d):
                alt = np.array([alt0, alt1])
                assert best <= quantization_error(ds, labels, alt) + 1e-12
