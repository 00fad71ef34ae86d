"""Weight matrix, sparsity screening, and the odds transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_synthetic_data
from scq.datamodel import SideInfo
from scq.errors import PiOutOfRange
from scq.pipeline import WeightConfig, candidate_pvalues, compute_weights
from scq.scoring import ClassifierSpec
from scq.weights import (
    EPS_PI,
    WeightMatrix,
    estimate_sparsity,
    oracle_weights,
    structure_weights,
    weight_matrix,
)


def cp(nums, n):
    """Conformal p-values ``num / (n + 1)`` for an array of numerators."""
    return np.asarray(nums) / (n + 1)


class TestWeightMatrix:
    def test_group_indicator(self):
        side = SideInfo("group", [1, 1, 2])
        expected = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
        np.testing.assert_array_equal(weight_matrix(side).dense(), expected)

    def test_kernel_ratio_one_bandwidth_apart(self):
        h = 2.5
        side = SideInfo("position", [0.0, h, 2 * h])
        omega = weight_matrix(side, bandwidth=h).dense()
        assert omega[0, 1] / omega[0, 0] == pytest.approx(np.exp(-0.5))

    def test_single_unit(self):
        side = SideInfo("group", [7])
        np.testing.assert_array_equal(weight_matrix(side).dense(), [[1.0]])

    def test_row_sums_positive(self):
        side = SideInfo("position", np.arange(50, dtype=float))
        omega = weight_matrix(side)
        assert np.all(omega.weighted_sums(np.ones(50)) > 0)

    def test_lazy_aggregation_matches_dense(self):
        rng = np.random.default_rng(0)
        side = SideInfo("position", rng.uniform(0, 100, size=60))
        omega = weight_matrix(side)
        x = rng.random(60)
        np.testing.assert_allclose(
            omega.weighted_sums(x), omega.dense().T @ x, rtol=1e-12
        )
        gside = SideInfo("group", rng.integers(0, 5, size=60))
        gomega = weight_matrix(gside)
        np.testing.assert_allclose(gomega.weighted_sums(x), gomega.dense().T @ x)
        # integer-lattice positions take the FFT path; the dense matrix is
        # the oracle for one column and for two
        lattices = {
            "1..m": np.arange(1, 61, dtype=float),
            "gaps": np.sort(rng.choice(400, size=60, replace=False)).astype(float),
            "duplicates": rng.integers(0, 20, size=60).astype(float),
            "negative": np.arange(-40, 20, dtype=float),
            "m = 1": np.array([3.0]),
        }
        for name, s in lattices.items():
            lside = SideInfo("position", s)
            for h in (0.05, 1.0, None, 1e4):
                lomega = weight_matrix(lside, h)
                dense = lomega.dense()
                tol = 1e-12 * dense.sum(axis=0)
                xs = rng.random((len(s), 2))
                got = lomega.weighted_sums(xs)
                assert got.shape == xs.shape
                assert np.all(np.abs(got - dense.T @ xs) <= tol[:, None]), (name, h)
                one = lomega.weighted_sums(xs[:, 0])
                assert np.all(np.abs(one - dense.T @ xs[:, 0]) <= tol), (name, h)

    def test_lattice_positions_skip_dense_kernel(self, monkeypatch):
        def refuse(self, rows):
            raise AssertionError("dense kernel block evaluated")

        monkeypatch.setattr(WeightMatrix, "_kernel_block", refuse)
        x = np.random.default_rng(1).random(40)
        lattice = weight_matrix(SideInfo("position", np.arange(1, 41, dtype=float)))
        lattice.weighted_sums(x)
        irregular = weight_matrix(SideInfo("position", np.linspace(0.0, 1.0, 40) ** 2))
        with pytest.raises(AssertionError, match="dense kernel block"):
            irregular.weighted_sums(x)

    def test_depends_on_side_info_alone(self):
        side = SideInfo("group", [1, 2, 1])
        a = weight_matrix(side).dense()
        b = weight_matrix(SideInfo("group", [1, 2, 1])).dense()
        np.testing.assert_array_equal(a, b)


class TestEstimateSparsity:
    def test_two_unit_group_example(self):
        # 3 of 4 p-values exceed 0.5: raw = 1 - 3/2 = -0.5, clipped up
        side = SideInfo("group", [1, 1])
        omega = weight_matrix(side)
        est = estimate_sparsity(
            omega, cp([6, 2], 9), cp([7, 9], 9), lam=0.5
        )
        np.testing.assert_allclose(est.raw, [-0.5, -0.5])
        np.testing.assert_allclose(est.pi_hat, [EPS_PI, EPS_PI])

    def test_pure_null_saturation(self):
        side = SideInfo("group", [1, 1, 1])
        omega = weight_matrix(side)
        ones = cp([10] * 3, 9)
        est = estimate_sparsity(omega, ones, ones, lam=0.5)
        np.testing.assert_allclose(est.raw, [-1.0, -1.0, -1.0])
        np.testing.assert_allclose(est.pi_hat, [EPS_PI] * 3)

    def test_all_signal_saturation(self):
        side = SideInfo("group", [1, 1])
        omega = weight_matrix(side)
        tiny = cp([1] * 2, 99)
        est = estimate_sparsity(omega, tiny, tiny, lam=0.5)
        np.testing.assert_allclose(est.raw, [1.0, 1.0])
        np.testing.assert_allclose(est.pi_hat, [0.5 - EPS_PI] * 2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    def test_swap_invariance_exact(self, m, seed, lattice):
        rng = np.random.default_rng(seed)
        n_cal = int(rng.integers(3, 40))
        p = cp(rng.integers(1, n_cal + 2, size=m), n_cal)
        pt = cp(rng.integers(1, n_cal + 2, size=m), n_cal)
        # integer positions take the FFT path, uniform ones the dense path
        positions = rng.integers(-5, 3 * m, size=m) if lattice else rng.uniform(0, 10, size=m)
        side = SideInfo("position", positions)
        omega = weight_matrix(side)
        swap = rng.random(m) < 0.5
        p2 = np.where(swap, pt, p)
        pt2 = np.where(swap, p, pt)
        lam = float(rng.uniform(0.05, 0.9))
        est1 = estimate_sparsity(omega, p, pt, lam)
        est2 = estimate_sparsity(omega, p2, pt2, lam)
        np.testing.assert_array_equal(est1.pi_hat, est2.pi_hat)
        np.testing.assert_array_equal(
            structure_weights(est1).w, structure_weights(est2).w
        )

    def test_one_aggregation_per_estimate(self, monkeypatch):
        calls = []
        aggregate = WeightMatrix.weighted_sums

        def counted(self, x):
            calls.append(np.shape(x))
            return aggregate(self, x)

        monkeypatch.setattr(WeightMatrix, "weighted_sums", counted)
        omega = weight_matrix(SideInfo("position", np.arange(1, 21, dtype=float)))
        p = cp(np.arange(1, 21), 20)
        estimate_sparsity(omega, p, p[::-1], 0.3)
        assert calls == [(20, 2)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=2**32 - 1))
    def test_weights_positive_finite_under_fuzz(self, m, seed):
        rng = np.random.default_rng(seed)
        n_cal = int(rng.integers(1, 8))
        # saturate: include forced extremes alongside random numerators
        nums = rng.integers(1, n_cal + 2, size=m)
        nums[: m // 2] = 1
        nums[m // 2 :] = n_cal + 1
        p = cp(nums, n_cal)
        pt = cp(nums[::-1], n_cal)
        side = SideInfo("group", rng.integers(0, 3, size=m))
        est = estimate_sparsity(weight_matrix(side), p, pt, 0.5)
        w = structure_weights(est).w
        assert np.all(w > 0) and np.all(np.isfinite(w))


class TestStructureWeights:
    def test_values(self):
        from scq.weights import SparsityEstimate

        est = SparsityEstimate(pi_hat=[0.25, 1 / 3, EPS_PI], lam=0.1, raw=[0, 0, 0])
        w = structure_weights(est).w
        assert w[0] == pytest.approx(1.0)
        assert w[1] == pytest.approx(2.0)
        assert w[2] == pytest.approx(EPS_PI / (0.5 - EPS_PI))
        assert w[2] == pytest.approx(2.004e-3, rel=1e-3)


class TestOracleWeights:
    def test_even_odds(self):
        assert oracle_weights([0.5]).w[0] == 1.0

    def test_nine_to_one(self):
        assert oracle_weights([0.9]).w[0] == pytest.approx(9.0)

    def test_block_levels(self):
        w = oracle_weights([0.01, 0.6]).w
        np.testing.assert_allclose(w, [0.01 / 0.99, 1.5])

    def test_out_of_range(self):
        with pytest.raises(PiOutOfRange):
            oracle_weights([0.0, 0.5])
        with pytest.raises(PiOutOfRange):
            oracle_weights([1.0])


class TestConsistencyDirection:
    def test_dense_block_outweighs_background(self):
        # strong signal: estimated weights inside a dense block should
        # exceed background weights in at least 95% of seeded runs
        from scq.bench import paper_synthetic_config

        cfg = paper_synthetic_config(m=200, p=5, mu=3.0)
        pi = cfg.pi_vector()
        block = pi == 0.9
        background = pi == 0.01
        wins = 0
        runs = 100
        for seed in range(runs):
            data = make_synthetic_data(m=200, p=5, mu=3.0, seed=seed)
            scores = candidate_pvalues(data, ClassifierSpec("OCC", "gaussian"))
            w = compute_weights(data, scores.p, scores.p_tilde, WeightConfig())[0].w
            wins += w[block].mean() > w[background].mean()
        assert wins >= 95
