import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binnnms.binvec import BinaryVector, DimensionMismatch
from binnnms.ingest import Dataset
from binnnms.kde import aa_kernel, kde_estimate, kde_gradient


def dataset(strings):
    return Dataset(np.array([[int(c) for c in s] for s in strings]))


def bv(s):
    return BinaryVector.from_string(s)


class TestKernel:
    def test_flat_at_half(self):
        for diff in ([0, 0, 0], [1, -1, 0], [1, 1, 1]):
            assert aa_kernel(diff, 0.5) == pytest.approx(0.125)

    def test_point_mass_at_one(self):
        assert aa_kernel([0, 0], 1.0) == 1.0
        assert aa_kernel([1, 0], 1.0) == 0.0

    def test_closed_form(self):
        assert aa_kernel([1, 0, 0], 0.8) == pytest.approx(0.8 ** 2 * 0.2)

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            aa_kernel([0], 0.3)
        with pytest.raises(ValueError):
            aa_kernel([0], 1.2)

    def test_bad_components(self):
        with pytest.raises(ValueError):
            aa_kernel([2, 0], 0.8)


class TestEstimate:
    def test_constant_at_half(self):
        ds = dataset(["0101", "1111", "0000"])
        for q in ("0000", "1010"):
            assert kde_estimate(ds, bv(q), 0.5) == pytest.approx(0.0625)

    def test_empirical_frequency_at_one(self):
        ds = dataset(["00", "11", "00", "01"])
        assert kde_estimate(ds, bv("00"), 1.0) == pytest.approx(0.5)
        assert kde_estimate(ds, bv("10"), 1.0) == 0.0

    def test_two_point_example(self):
        ds = dataset(["00", "11"])
        assert kde_estimate(ds, bv("00"), 0.8) == pytest.approx(0.34)

    def test_point_of_another_width(self):
        with pytest.raises(DimensionMismatch):
            kde_estimate(dataset(["00", "11"]), bv("001"), 0.8)

    def test_log_space_agrees_with_linear(self):
        # d = 40 forces the log-space branch; compare to direct evaluation
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(10, 40))
        ds = Dataset(bits)
        q = BinaryVector(rng.integers(0, 2, size=40))
        lam = 0.85
        m = (bits != q.bits).sum(axis=1)
        direct = np.mean([lam ** (40 - mi) * (1 - lam) ** mi for mi in m])
        assert kde_estimate(ds, q, lam) == pytest.approx(direct, rel=1e-12)


class TestGradient:
    def test_zero_at_half(self):
        ds = dataset(["01", "10"])
        assert np.allclose(kde_gradient(ds, bv("00"), 0.5), 0.0)

    def test_zero_at_own_single_point(self):
        ds = dataset(["0110"])
        assert np.allclose(kde_gradient(ds, bv("0110"), 0.8), 0.0)

    def test_two_point_example(self):
        grad = kde_gradient(dataset(["00", "11"]), bv("00"), 0.8)
        expect = math.log(4.0) * 0.04
        assert np.allclose(grad, [expect, expect])

    def test_rejects_lambda_one(self):
        with pytest.raises(ValueError):
            kde_gradient(dataset(["01"]), bv("00"), 1.0)


class TestIdentities:
    @pytest.mark.parametrize("lam", [0.5 + 0.05 * i for i in range(10)] + [0.99])
    @pytest.mark.parametrize("d", [1, 3, 6, 9, 12])
    def test_normalization(self, d, lam):
        rng = np.random.default_rng(d)
        ds = Dataset(rng.integers(0, 2, size=(5, d)))
        total = sum(kde_estimate(ds, BinaryVector(list(x)), lam)
                    for x in product((0, 1), repeat=d))
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(1, 10), st.floats(0.51, 0.99), st.data())
    @settings(max_examples=80)
    def test_gradient_is_sum_of_per_term_identity(self, d, lam, data):
        # D f = n^-1 sum_i 2 (X_i - x) log(lam/(1-lam)) K(x - X_i)
        rows = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=d, max_size=d),
            min_size=1, max_size=8))
        x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=d, max_size=d)))
        ds = Dataset(np.array(rows))
        expect = np.zeros(d)
        for row in rows:
            diff = x - np.array(row)
            expect += 2.0 * (np.array(row) - x) * math.log(lam / (1 - lam)) \
                * aa_kernel(diff, lam)
        expect /= len(rows)
        assert np.allclose(kde_gradient(ds, BinaryVector(x), lam), expect,
                           atol=1e-12)

    @given(st.integers(1, 8), st.floats(0.51, 0.99), st.data())
    @settings(max_examples=80)
    def test_kernel_gradient_identity(self, d, lam, data):
        # D K(x) = 2 x log((1-lam)/lam) K(x); check the analytic form against
        # central finite differences of the continuous extension
        # K(x) = lam^(d - x.x) (1-lam)^(x.x)
        diff = np.array(data.draw(st.lists(st.sampled_from([-1, 0, 1]),
                                           min_size=d, max_size=d)), dtype=float)

        def k_cont(x):
            q = float(x @ x)
            return lam ** (d - q) * (1 - lam) ** q

        analytic = 2.0 * diff * math.log((1 - lam) / lam) * aa_kernel(
            diff.astype(int), lam)
        h = 1e-6
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            numeric = (k_cont(diff + e) - k_cont(diff - e)) / (2 * h)
            assert analytic[j] == pytest.approx(numeric, abs=1e-7)
