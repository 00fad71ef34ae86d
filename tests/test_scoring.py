"""Classifier toolbox: orientation, invariance contracts, determinism."""

import numpy as np
import pytest

from helpers import make_synthetic_data
from scq.errors import ConfigError, DegenerateFit, DimensionMismatch, MissingOutliers
from scq.scoring import (
    ClassifierSpec,
    TrainContext,
    _regularized_cholesky,
    fit_score,
    make_transductive_pool,
    score,
    score_batch,
    verify_swap_invariance,
)


def ctx_with_pool(rng, n_train=25, m=10, n_cal=8, p=3, outliers=0):
    train = rng.standard_normal((n_train, p))
    test = rng.standard_normal((m, p)) + 1.0
    mirror = rng.standard_normal((m, p))
    cal = rng.standard_normal((n_cal, p))
    pool, n_pairs = make_transductive_pool(test, mirror, cal)
    lab = rng.standard_normal((outliers, p)) + 3.0 if outliers else np.empty((0, p))
    return TrainContext(
        train_nulls=train, labeled_outliers=lab, transductive_pool=pool, n_pairs=n_pairs
    )


class TestSpecValidation:
    def test_supported_combinations(self):
        for fam, meth in [
            ("OCC", "gaussian"),
            ("OCC", "kde"),
            ("OCC", "knn"),
            ("BIC", "logistic"),
            ("BIC", "knn"),
            ("PUC", "kde-ratio"),
            ("PUC", "pu-logistic"),
        ]:
            assert ClassifierSpec(fam, meth).name == f"{fam}/{meth}"

    def test_rejects_bad_combination(self):
        with pytest.raises(ConfigError):
            ClassifierSpec("OCC", "logistic")
        with pytest.raises(ConfigError):
            ClassifierSpec("XYZ", "kde")


class TestGaussian:
    def test_closed_form_moments(self):
        train = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        model = fit_score(ClassifierSpec("OCC", "gaussian"), TrainContext(train_nulls=train))
        np.testing.assert_allclose(model.params["mean"], [1.0, 1.0])
        # hand computation: sample covariance (ddof=1) is (4/3) I, plus the
        # trace-scaled ridge 1e-6 * (8/3) / 2
        lam = 1e-6 * (8.0 / 3.0) / 2.0
        cov = model.params["chol"] @ model.params["chol"].T
        np.testing.assert_allclose(cov, (4.0 / 3.0 + lam) * np.eye(2), rtol=1e-12)

    def test_density_orientation(self):
        rng = np.random.default_rng(0)
        model = fit_score(
            ClassifierSpec("OCC", "gaussian"),
            TrainContext(train_nulls=rng.standard_normal((200, 4))),
        )
        assert score(model, np.zeros(4)) > score(model, np.full(4, 5.0))

    def test_degenerate_fit_exhausts_escalation(self):
        # indefinite matrix stays indefinite under the tiny ridge escalation
        with pytest.raises(DegenerateFit):
            _regularized_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), 2)

    def test_single_point_train(self):
        model = fit_score(
            ClassifierSpec("OCC", "gaussian"), TrainContext(train_nulls=np.array([[1.0, 2.0]]))
        )
        assert np.isfinite(score(model, np.array([1.0, 2.0])))

    def test_overflowing_covariance_is_degenerate(self):
        # finite features whose squares overflow: a typed error, not scipy's ValueError
        train = np.random.default_rng(0).standard_normal((50, 3)) * 1e160
        with pytest.raises(DegenerateFit):
            fit_score(ClassifierSpec("OCC", "gaussian"), TrainContext(train_nulls=train))


class TestKnn:
    def test_occ_exhaustive_distances(self):
        train = np.array([[0.0], [1.0], [2.0]])
        model = fit_score(
            ClassifierSpec("OCC", "knn", {"k": 1}), TrainContext(train_nulls=train)
        )
        assert score(model, np.array([0.5])) == pytest.approx(-0.5)
        assert score(model, np.array([10.0])) == pytest.approx(-8.0)

    def test_bic_nearest_label(self):
        ctx = TrainContext(
            train_nulls=np.array([[0.0]]), labeled_outliers=np.array([[10.0]])
        )
        model = fit_score(ClassifierSpec("BIC", "knn", {"k": 1}), ctx)
        assert score(model, np.array([5.1])) < score(model, np.array([4.9]))
        assert score(model, np.array([5.1])) == -1.0
        assert score(model, np.array([4.9])) == 0.0

    def test_default_k_is_sqrt_n(self):
        rng = np.random.default_rng(1)
        model = fit_score(
            ClassifierSpec("OCC", "knn"), TrainContext(train_nulls=rng.standard_normal((100, 2)))
        )
        assert model.params["k"] == 10

    def test_k_clamped_to_train_size(self):
        model = fit_score(
            ClassifierSpec("OCC", "knn", {"k": 50}),
            TrainContext(train_nulls=np.zeros((5, 1)) + np.arange(5)[:, None]),
        )
        assert model.params["k"] == 5


class TestLogistic:
    def test_bic_orientation_separable(self):
        ctx = TrainContext(
            train_nulls=np.full((20, 1), -1.0), labeled_outliers=np.full((20, 1), 1.0)
        )
        model = fit_score(ClassifierSpec("BIC", "logistic"), ctx)
        assert score(model, np.array([-3.0])) > score(model, np.array([3.0]))

    def test_missing_outliers(self):
        with pytest.raises(MissingOutliers):
            fit_score(
                ClassifierSpec("BIC", "logistic"),
                TrainContext(train_nulls=np.zeros((5, 1))),
            )


class TestKde:
    def test_orientation(self):
        rng = np.random.default_rng(2)
        model = fit_score(
            ClassifierSpec("OCC", "kde"), TrainContext(train_nulls=rng.standard_normal((150, 2)))
        )
        assert score(model, np.zeros(2)) > score(model, np.full(2, 6.0))

    def test_log_density_floor(self):
        model = fit_score(
            ClassifierSpec("OCC", "kde", {"bandwidth": 0.01}),
            TrainContext(train_nulls=np.zeros((3, 1))),
        )
        assert score(model, np.array([1e6])) == -745.0


class TestPuc:
    def test_kde_ratio_pool_order_irrelevant(self):
        rng = np.random.default_rng(3)
        ctx = ctx_with_pool(rng)
        shuffled = TrainContext(
            train_nulls=ctx.train_nulls,
            labeled_outliers=ctx.labeled_outliers,
            transductive_pool=ctx.transductive_pool[::-1].copy(),
            n_pairs=ctx.n_pairs,
        )
        a = fit_score(ClassifierSpec("PUC", "kde-ratio"), ctx)
        b = fit_score(ClassifierSpec("PUC", "kde-ratio"), shuffled)
        np.testing.assert_array_equal(
            a.params["mix_kde"]["train"], b.params["mix_kde"]["train"]
        )
        probe = rng.standard_normal(3)
        assert score(a, probe) == score(b, probe)

    def test_pu_logistic_orientation(self):
        rng = np.random.default_rng(4)
        train = rng.standard_normal((60, 2))
        test = rng.standard_normal((30, 2)) + np.array([4.0, 4.0])
        mirror = rng.standard_normal((30, 2))
        cal = rng.standard_normal((20, 2))
        pool, n_pairs = make_transductive_pool(test, mirror, cal)
        ctx = TrainContext(train_nulls=train, transductive_pool=pool, n_pairs=n_pairs)
        model = fit_score(ClassifierSpec("PUC", "pu-logistic"), ctx)
        assert score(model, np.zeros(2)) > score(model, np.full(2, 4.0))

    def test_requires_pool(self):
        with pytest.raises(ConfigError):
            fit_score(
                ClassifierSpec("PUC", "kde-ratio"), TrainContext(train_nulls=np.zeros((4, 2)))
            )


class TestInvarianceContracts:
    def test_occ_ignores_pool(self):
        rng = np.random.default_rng(5)
        ctx = ctx_with_pool(rng)
        mutated = TrainContext(
            train_nulls=ctx.train_nulls,
            labeled_outliers=ctx.labeled_outliers,
            transductive_pool=ctx.transductive_pool + 100.0,
            n_pairs=ctx.n_pairs,
        )
        probe = rng.standard_normal(3)
        for method in ("gaussian", "kde", "knn"):
            spec = ClassifierSpec("OCC", method)
            assert score(fit_score(spec, ctx), probe) == score(fit_score(spec, mutated), probe)

    def test_bic_ignores_pool(self):
        rng = np.random.default_rng(6)
        ctx = ctx_with_pool(rng, outliers=10)
        mutated = TrainContext(
            train_nulls=ctx.train_nulls,
            labeled_outliers=ctx.labeled_outliers,
            transductive_pool=None,
            n_pairs=0,
        )
        probe = rng.standard_normal(3)
        for method in ("logistic", "knn"):
            spec = ClassifierSpec("BIC", method)
            assert score(fit_score(spec, ctx), probe) == score(fit_score(spec, mutated), probe)

    def test_verify_swap_invariance_occ_trivial(self):
        rng = np.random.default_rng(7)
        ctx = ctx_with_pool(rng)
        assert verify_swap_invariance(
            ClassifierSpec("OCC", "kde"), ctx, [1, 3], rng.standard_normal(3)
        )

    def test_verify_swap_invariance_puc_all_pairs(self):
        rng = np.random.default_rng(8)
        ctx = ctx_with_pool(rng)
        assert verify_swap_invariance(
            ClassifierSpec("PUC", "kde-ratio"), ctx, range(1, 11), rng.standard_normal(3)
        )

    def test_verify_swap_invariance_puc_subsets(self):
        rng = np.random.default_rng(9)
        ctx = ctx_with_pool(rng)
        probe = rng.standard_normal(3)
        for spec in (ClassifierSpec("PUC", "kde-ratio"), ClassifierSpec("PUC", "pu-logistic")):
            for _ in range(10):
                subset = [int(j) for j in np.flatnonzero(rng.random(10) < 0.5) + 1]
                assert verify_swap_invariance(spec, ctx, subset, probe)

    def test_fit_deterministic(self):
        rng = np.random.default_rng(10)
        ctx = ctx_with_pool(rng, outliers=5)
        probe = rng.standard_normal(3)
        for fam, meth in [
            ("OCC", "gaussian"),
            ("OCC", "kde"),
            ("OCC", "knn"),
            ("BIC", "logistic"),
            ("BIC", "knn"),
            ("PUC", "kde-ratio"),
            ("PUC", "pu-logistic"),
        ]:
            spec = ClassifierSpec(fam, meth)
            assert score(fit_score(spec, ctx), probe) == score(fit_score(spec, ctx), probe)


class TestOrientationMonteCarlo:
    def test_outlier_scores_below_inlier_scores(self):
        # strong mean-shift data: the median score of true signals sits
        # strictly below the median score of true nulls, run over 50 seeds
        wins = 0
        for seed in range(50):
            data = make_synthetic_data(m=120, p=5, mu=3.0, seed=seed)
            model = fit_score(
                ClassifierSpec("OCC", "gaussian"),
                TrainContext(train_nulls=data.split.train),
            )
            s = score_batch(model, data.test.features)
            truth = data.test.truth
            if truth.sum() >= 3 and (~truth).sum() >= 3:
                wins += np.median(s[truth]) < np.median(s[~truth])
        assert wins == 50


class TestScoreValidation:
    def test_dimension_mismatch(self):
        model = fit_score(
            ClassifierSpec("OCC", "gaussian"),
            TrainContext(train_nulls=np.random.default_rng(0).standard_normal((9, 2))),
        )
        with pytest.raises(DimensionMismatch):
            score(model, np.zeros(3))
