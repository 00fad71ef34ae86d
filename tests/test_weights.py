"""Neighborhood sums, sparsity screening, and the odds transforms."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import candidate_pvalues, dense, jittered_estimate_inputs, make_synthetic_data
from scq import weights
from scq.datamodel import SideInfo
from scq.errors import ConfigError, PiOutOfRange
from scq.pipeline import WeightConfig, compute_weights
from scq.scoring import ClassifierSpec
from scq.weights import (
    EPS_PI,
    SparsityEstimate,
    estimate_sparsity,
    neighbour_sums,
    oracle_weights,
    silverman_bandwidth,
    structure_weights,
)


def cp(nums, n):
    """Conformal p-values ``num / (n + 1)`` for an array of numerators."""
    return np.asarray(nums) / (n + 1)


def matrix(side, bandwidth=None):
    """The neighborhood matrix, read back from the sums of the identity's
    columns (the matrix is symmetric)."""
    return neighbour_sums(side, bandwidth, np.eye(len(side)))


class TestWeightMatrix:
    def test_group_indicator(self):
        side = SideInfo("group", [1, 1, 2])
        expected = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
        np.testing.assert_array_equal(matrix(side), expected)

    def test_kernel_ratio_one_bandwidth_apart(self):
        h = 2.5
        side = SideInfo("position", [0.0, h, 2 * h])
        omega = matrix(side, bandwidth=h)
        assert omega[0, 1] / omega[0, 0] == pytest.approx(np.exp(-0.5))

    def test_single_unit(self):
        side = SideInfo("group", [7])
        np.testing.assert_array_equal(matrix(side), [[1.0]])

    def test_row_sums_positive(self):
        side = SideInfo("position", np.arange(50, dtype=float))
        assert np.all(neighbour_sums(side, silverman_bandwidth(side), np.ones(50)) > 0)

    def test_lazy_aggregation_matches_dense(self):
        rng = np.random.default_rng(0)
        side = SideInfo("position", rng.uniform(0, 100, size=60))
        h = silverman_bandwidth(side)
        x = rng.random(60)
        np.testing.assert_allclose(
            neighbour_sums(side, h, x), dense(side, h).T @ x, rtol=1e-12
        )
        gside = SideInfo("group", rng.integers(0, 5, size=60))
        np.testing.assert_allclose(neighbour_sums(gside, None, x), dense(gside, None).T @ x)
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
            for h in (0.05, 1.0, silverman_bandwidth(lside), 1e4):
                omega = dense(lside, h)
                tol = 1e-12 * omega.sum(axis=0)
                xs = rng.random((len(s), 2))
                got = neighbour_sums(lside, h, xs)
                assert got.shape == xs.shape
                assert np.all(np.abs(got - omega.T @ xs) <= tol[:, None]), (name, h)
                one = neighbour_sums(lside, h, xs[:, 0])
                assert np.all(np.abs(one - omega.T @ xs[:, 0]) <= tol), (name, h)

    def test_lattice_positions_skip_dense_kernel(self, monkeypatch):
        ndims = []
        gaussian = weights._gaussian

        def recorded(d, h):
            ndims.append(np.ndim(d))
            return gaussian(d, h)

        monkeypatch.setattr(weights, "_gaussian", recorded)
        x = np.random.default_rng(1).random(40)
        neighbour_sums(SideInfo("position", np.arange(1, 41, dtype=float)), 2.0, x)
        assert ndims == [1]
        ndims.clear()
        neighbour_sums(SideInfo("position", np.linspace(0.0, 1.0, 40) ** 2), 2.0, x)
        assert ndims == [2]

    def test_depends_on_side_info_alone(self):
        side = SideInfo("group", [1, 2, 1])
        a = matrix(side)
        b = matrix(SideInfo("group", [1, 2, 1]))
        np.testing.assert_array_equal(a, b)


DENSE_CANARY = """
import hashlib, sys
from helpers import jittered_estimate_inputs
from scq.weights import estimate_sparsity
side, p, p_tilde = jittered_estimate_inputs(int(sys.argv[1]))
est = estimate_sparsity(side, None, p, p_tilde, 0.1)
print(hashlib.sha256(est.raw.tobytes() + est.pi_hat.tobytes()).hexdigest())
"""


class TestDenseKernel:
    """Irregular positions: kernel sums over tiles of one shape."""

    def test_tiles_match_the_dense_oracle(self):
        # 300 units make five row tiles, the last one padded; 40 columns
        # make column tiles of 102 units, the last one short
        side, _, _ = jittered_estimate_inputs(300, seed=1)
        omega = dense(side, 3.0)
        x = np.random.default_rng(2).random((300, 40))
        for xs in (x, x[:, :2], x[:, 0]):
            got = neighbour_sums(side, 3.0, xs)
            assert got.shape == xs.shape
            np.testing.assert_allclose(got, omega.T @ xs, rtol=1e-12)

    def test_same_bytes_at_one_and_two_blas_threads(self):
        """A one-shot product of 512 positions by 3,000 units is large enough
        for OpenBLAS to split among threads, which moves last bits; the
        kernel tiles keep every product on one thread."""
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
            run = subprocess.run(
                [sys.executable, "-c", DENSE_CANARY, "3000"],
                env=env, capture_output=True, text=True, check=True,
            )
            digests.append(run.stdout)
        assert digests[0] == digests[1]

    def test_peak_memory_flat_in_m(self):
        # the whole kernel at m = 10^4 would take 763 MB, and 512 rows of it 39 MB
        side, p, p_tilde = jittered_estimate_inputs(10_000)
        tracemalloc.start()
        try:
            estimate_sparsity(side, None, p, p_tilde, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peaked at {peak / 2**20:.1f} MB"


class TestEstimateSparsity:
    def test_two_unit_group_example(self):
        # 3 of 4 p-values exceed 0.5: raw = 1 - 3/2 = -0.5, clipped up
        side = SideInfo("group", [1, 1])
        est = estimate_sparsity(side, None, cp([6, 2], 9), cp([7, 9], 9), lam=0.5)
        np.testing.assert_allclose(est.raw, [-0.5, -0.5])
        np.testing.assert_allclose(est.pi_hat, [EPS_PI, EPS_PI])

    def test_pure_null_saturation(self):
        side = SideInfo("group", [1, 1, 1])
        ones = cp([10] * 3, 9)
        est = estimate_sparsity(side, None, ones, ones, lam=0.5)
        np.testing.assert_allclose(est.raw, [-1.0, -1.0, -1.0])
        np.testing.assert_allclose(est.pi_hat, [EPS_PI] * 3)

    def test_all_signal_saturation(self):
        side = SideInfo("group", [1, 1])
        tiny = cp([1] * 2, 99)
        est = estimate_sparsity(side, None, tiny, tiny, lam=0.5)
        np.testing.assert_allclose(est.raw, [1.0, 1.0])
        np.testing.assert_allclose(est.pi_hat, [0.5 - EPS_PI] * 2)

    @pytest.mark.parametrize(
        "bandwidth, lam, m_p, m_pt, match",
        [
            (0.0, 0.1, 5, 5, "bandwidth must be positive and finite"),
            (-1.0, 0.1, 5, 5, "bandwidth must be positive and finite"),
            (np.nan, 0.1, 5, 5, "bandwidth must be positive and finite"),
            (np.inf, 0.1, 5, 5, "bandwidth must be positive and finite"),
            (None, 0.0, 5, 5, "lambda"),
            (None, 1.0, 5, 5, "lambda"),
            (None, -0.2, 5, 5, "lambda"),
            (None, 0.1, 4, 5, "length"),
            (None, 0.1, 5, 6, "length"),
        ],
    )
    def test_rejects_bad_input(self, bandwidth, lam, m_p, m_pt, match):
        side = SideInfo("position", [0.5, 1.7, 2.0, 4.4, 9.1])
        with pytest.raises(ConfigError, match=match):
            estimate_sparsity(side, bandwidth, np.full(m_p, 0.5), np.full(m_pt, 0.5), lam)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["group", "lattice", "irregular"]),
    )
    def test_swap_invariance_exact(self, m, seed, kind):
        rng = np.random.default_rng(seed)
        n_cal = int(rng.integers(3, 40))
        p = cp(rng.integers(1, n_cal + 2, size=m), n_cal)
        pt = cp(rng.integers(1, n_cal + 2, size=m), n_cal)
        # integer positions take the FFT path, uniform ones the dense path
        if kind == "group":
            side = SideInfo("group", rng.integers(0, 4, size=m))
        elif kind == "lattice":
            side = SideInfo("position", rng.integers(-5, 3 * m, size=m))
        else:
            side = SideInfo("position", rng.uniform(0, 10, size=m))
        swap = rng.random(m) < 0.5
        p2 = np.where(swap, pt, p)
        pt2 = np.where(swap, p, pt)
        lam = float(rng.uniform(0.05, 0.9))
        est1 = estimate_sparsity(side, None, p, pt, lam)
        est2 = estimate_sparsity(side, None, p2, pt2, lam)
        np.testing.assert_array_equal(est1.pi_hat, est2.pi_hat)
        np.testing.assert_array_equal(
            structure_weights(est1), structure_weights(est2)
        )

    def test_one_aggregation_per_estimate(self, monkeypatch):
        calls = []
        sums = weights.neighbour_sums

        def counted(side, bandwidth, x):
            calls.append(np.shape(x))
            return sums(side, bandwidth, x)

        monkeypatch.setattr(weights, "neighbour_sums", counted)
        side = SideInfo("position", np.arange(1, 21, dtype=float))
        p = cp(np.arange(1, 21), 20)
        estimate_sparsity(side, None, p, p[::-1], 0.3)
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
        est = estimate_sparsity(side, None, p, pt, 0.5)
        w = structure_weights(est)
        assert np.all(w > 0) and np.all(np.isfinite(w))


class TestStructureWeights:
    def test_values(self):
        est = SparsityEstimate(pi_hat=[0.25, 1 / 3, EPS_PI], raw=[0, 0, 0])
        w = structure_weights(est)
        assert w[0] == pytest.approx(1.0)
        assert w[1] == pytest.approx(2.0)
        assert w[2] == pytest.approx(EPS_PI / (0.5 - EPS_PI))
        assert w[2] == pytest.approx(2.004e-3, rel=1e-3)


class TestOracleWeights:
    def test_even_odds(self):
        assert oracle_weights([0.5])[0] == 1.0

    def test_nine_to_one(self):
        assert oracle_weights([0.9])[0] == pytest.approx(9.0)

    def test_block_levels(self):
        w = oracle_weights([0.01, 0.6])
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
            w = compute_weights(data, scores.p, scores.p_tilde, WeightConfig())[0]
            wins += w[block].mean() > w[background].mean()
        assert wins >= 95
