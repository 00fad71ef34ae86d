"""Classifier toolbox: orientation, invariance contracts, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from helpers import (
    knn_label_mean_ranked,
    logistic_gd_loop,
    make_synthetic_data,
    score,
    swap_inference_pairs,
    verify_swap_invariance,
)
from scq import scoring
from scq.bench import paper_synthetic_config
from scq.datamodel import (
    InferenceData,
    NullSplit,
    SideInfo,
    TestSet,
    generate_hierarchical,
    split_nulls,
)
from scq.errors import ConfigError, DegenerateFit, DimensionMismatch, MissingOutliers, ScqError
from scq.pipeline import ScoreTable, WeightConfig, run_scq
from scq.scoring import (
    ClassifierSpec,
    _BLOCK_ROWS,
    _block_rows,
    _logsumexp_rows,
    _regularized_cholesky,
    fit_score,
    score_batch,
)


def inference_data(train, test, mirror, cal, outliers=()):
    """The rows of one dataset, bundled; test units sit at positions 1..m."""
    side = SideInfo("position", np.arange(1.0, len(test) + 1))
    return InferenceData(
        split=NullSplit(train=train, cal=cal, mirror=mirror),
        test=TestSet(features=test, side=side),
        labeled_outliers=outliers,
    )


def data_with_pool(rng, n_train=25, m=10, n_cal=8, p=3, outliers=0):
    train = rng.standard_normal((n_train, p))
    test = rng.standard_normal((m, p)) + 1.0
    mirror = rng.standard_normal((m, p))
    cal = rng.standard_normal((n_cal, p))
    lab = rng.standard_normal((outliers, p)) + 3.0 if outliers else ()
    return inference_data(train, test, mirror, cal, lab)


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
        model = fit_score(ClassifierSpec("OCC", "gaussian"), train)
        np.testing.assert_allclose(model.params["mean"], [1.0, 1.0])
        # hand computation: sample covariance (ddof=1) is (4/3) I, plus the
        # trace-scaled ridge 1e-6 * (8/3) / 2
        lam = 1e-6 * (8.0 / 3.0) / 2.0
        cov = model.params["chol"] @ model.params["chol"].T
        np.testing.assert_allclose(cov, (4.0 / 3.0 + lam) * np.eye(2), rtol=1e-12)

    def test_density_orientation(self):
        rng = np.random.default_rng(0)
        model = fit_score(ClassifierSpec("OCC", "gaussian"), rng.standard_normal((200, 4)))
        assert score(model, np.zeros(4)) > score(model, np.full(4, 5.0))

    def test_degenerate_fit_exhausts_escalation(self):
        # indefinite matrix stays indefinite under the tiny ridge escalation
        with pytest.raises(DegenerateFit):
            _regularized_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), 2)

    def test_single_point_train(self):
        model = fit_score(ClassifierSpec("OCC", "gaussian"), np.array([[1.0, 2.0]]))
        assert np.isfinite(score(model, np.array([1.0, 2.0])))

    def test_matches_scipy_density(self):
        rng = np.random.default_rng(4)
        train = rng.standard_normal((80, 4)) @ rng.standard_normal((4, 4))
        model = fit_score(ClassifierSpec("OCC", "gaussian"), train)
        params = model.params
        ref = stats.multivariate_normal(params["mean"], params["chol"] @ params["chol"].T)
        x = rng.standard_normal((50, 4)) * 3.0
        np.testing.assert_allclose(score_batch(model, x), ref.logpdf(x), rtol=1e-12)

    def test_overflowing_covariance_is_degenerate(self):
        # finite features whose squares overflow: a typed error, not scipy's ValueError
        train = np.random.default_rng(0).standard_normal((50, 3)) * 1e160
        with pytest.raises(DegenerateFit):
            fit_score(ClassifierSpec("OCC", "gaussian"), train)


class TestKnn:
    def test_occ_exhaustive_distances(self):
        train = np.array([[0.0], [1.0], [2.0]])
        model = fit_score(ClassifierSpec("OCC", "knn", {"k": 1}), train)
        assert score(model, np.array([0.5])) == pytest.approx(-0.5)
        assert score(model, np.array([10.0])) == pytest.approx(-8.0)

    def test_bic_nearest_label(self):
        spec = ClassifierSpec("BIC", "knn", {"k": 1})
        model = fit_score(spec, np.array([[0.0]]), np.array([[10.0]]))
        assert score(model, np.array([5.1])) < score(model, np.array([4.9]))
        assert score(model, np.array([5.1])) == -1.0
        assert score(model, np.array([4.9])) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        n_null=st.integers(1, 40),
        n_out=st.integers(1, 20),
        p=st.integers(1, 3),
        n_eval=st.integers(1, 120),
        k=st.one_of(st.none(), st.integers(1, 60)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bic_ties_go_to_the_smaller_index(self, n_null, n_out, p, n_eval, k, seed):
        # small integer features: distances are exact, so ties are common
        rng = np.random.default_rng(seed)
        train, outliers, x = (
            rng.integers(-2, 3, (n, p)).astype(float) for n in (n_null, n_out, n_eval)
        )
        model = fit_score(
            ClassifierSpec("BIC", "knn", {} if k is None else {"k": k}),
            train,
            outliers,
        )
        ref, labels, kk = model.params["train"], model.params["labels"], model.params["k"]
        dist = ((x[:, None, :] - model.params["center"] - ref[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(dist, axis=1, kind="stable")[:, :kk]
        np.testing.assert_array_equal(score_batch(model, x), -labels[order].mean(axis=1))

    def test_bic_nan_distances_rank_like_a_stable_sort(self):
        # 2x overflows in the first coordinate, so a row's distances are NaN
        # or inf by the sign of each reference row's first coordinate
        rng = np.random.default_rng(4)
        train = rng.standard_normal((30, 2))
        outliers = rng.standard_normal((10, 2)) + 2.0
        model = fit_score(ClassifierSpec("BIC", "knn", {"k": 35}), train, outliers)
        x = rng.standard_normal((50, 2))
        x[:3, 0] = 1e308

        def stable_sort_mean(a):
            assert np.isnan(a[:3]).any()
            order = np.argsort(a, axis=1, kind="stable")[:, :35]
            return -model.params["labels"][order].mean(axis=1)

        with np.errstate(over="ignore", invalid="ignore"):
            want = scoring._reduce_rows(x, model.params, stable_sort_mean)
            got = score_batch(model, x)
        np.testing.assert_array_equal(got, want)

    def test_default_k_is_sqrt_n(self):
        rng = np.random.default_rng(1)
        model = fit_score(ClassifierSpec("OCC", "knn"), rng.standard_normal((100, 2)))
        assert model.params["k"] == 10

    def test_k_clamped_to_train_size(self):
        model = fit_score(
            ClassifierSpec("OCC", "knn", {"k": 50}),
            np.zeros((5, 1)) + np.arange(5)[:, None],
        )
        assert model.params["k"] == 5

    def test_label_mean_equals_the_tie_sharing_path(self):
        # distinct distances skip sharing out ties; integer ones and NaN rows do not
        rng = np.random.default_rng(9)
        labels = (rng.random(300) < 0.3).astype(float)
        distinct = rng.random((240, 300))
        tied = rng.integers(0, 4, (240, 300)).astype(float)
        nan_rows = distinct.copy()
        nan_rows[:5, :40] = np.nan
        all_nan = distinct.copy()
        all_nan[7] = np.nan
        one_tied_row = distinct.copy()
        one_tied_row[3, :20] = one_tied_row[3, 0]
        for a in (distinct, tied, nan_rows, all_nan, one_tied_row):
            for k in (1, 2, 17, 150, 300):
                got = scoring._knn_label_mean(a, labels, k)
                assert got.tobytes() == knn_label_mean_ranked(a, labels, k).tobytes()


class TestLogistic:
    def test_bic_orientation_separable(self):
        model = fit_score(
            ClassifierSpec("BIC", "logistic"), np.full((20, 1), -1.0), np.full((20, 1), 1.0)
        )
        assert score(model, np.array([-3.0])) > score(model, np.array([3.0]))

    def test_missing_outliers(self):
        with pytest.raises(MissingOutliers):
            fit_score(ClassifierSpec("BIC", "logistic"), np.zeros((5, 1)))

    def test_descent_equals_the_plain_loop_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n, p = int(rng.integers(2, 401)), int(rng.integers(1, 8))
            n_train = int(rng.integers(1, n))
            scale = 10.0 ** rng.uniform(-3.0, 1.5)
            rows = scale * rng.standard_normal((n, p)) + rng.uniform(-1.0, 1.0, p)
            train, rest = rows[:n_train], rows[n_train:]
            hp = {"iterations": int(rng.integers(1, 601)), "step": float(rng.choice([0.01, 0.1, 1.0]))}
            bic = fit_score(ClassifierSpec("BIC", "logistic", hp), train, outliers=rest).params
            puc = fit_score(ClassifierSpec("PUC", "pu-logistic", hp), train, pool=rest).params
            pool = scoring._canonical_sort(rest)
            for params, x, y in (
                (bic, rows, np.repeat([0.0, 1.0], [n_train, n - n_train])),
                (puc, np.vstack([train, pool]), np.repeat([1.0, 0.0], [n_train, n - n_train])),
            ):
                # the loop runs on the columns scaled into [4, 8), then rescaled
                scale = 2.0 ** (3 - np.frexp(np.abs(x).max(axis=0))[1])
                w, b = logistic_gd_loop(x * scale, y, hp["iterations"], hp["step"])
                want = np.append(w * scale, b)
                assert np.append(params["w"], params["b"]).tobytes() == want.tobytes()

    def test_subnormal_column_keeps_a_finite_scale(self):
        # 2^(3 - e) for a column of 1e-310 would be 2^1032, which overflows;
        # the clamped scale brings it to about 0.009, enough to separate
        model = fit_score(
            ClassifierSpec("BIC", "logistic"), np.full((20, 1), -1e-310), np.full((20, 1), 1e-310)
        )
        assert np.isfinite(model.params["w"]).all()
        assert score(model, np.array([-1e-310])) > score(model, np.array([1e-310]))


class TestKde:
    def test_orientation(self):
        rng = np.random.default_rng(2)
        model = fit_score(ClassifierSpec("OCC", "kde"), rng.standard_normal((150, 2)))
        assert score(model, np.zeros(2)) > score(model, np.full(2, 6.0))

    def test_log_density_floor(self):
        model = fit_score(
            ClassifierSpec("OCC", "kde", {"bandwidth": 0.01}),
            np.zeros((3, 1)),
        )
        assert score(model, np.array([1e6])) == -745.0

    def test_wide_features_keep_rejections(self):
        # at p = 128 most rows' densities lie below the smallest double; a
        # floor of -745 ties them all and rejects nothing, while a floor of
        # -745 per coordinate keeps them apart
        cfg = paper_synthetic_config(1000, 128, 1.0)
        pool, test = generate_hierarchical(cfg, np.random.default_rng(7))
        data = InferenceData(split=split_nulls(pool, test.m, np.random.default_rng(8)), test=test)
        res = run_scq(data, ClassifierSpec("OCC", "kde"), WeightConfig(), alpha=0.1)
        assert len(res.rejection) >= 100


class TestLogsumexpRows:
    def check(self, a):
        a = np.asarray(a, dtype=np.float64)
        ref = special.logsumexp(a, axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp_rows(a.copy())
        np.testing.assert_array_equal(got, ref)

    def test_random_kernel_rows_bit_identical(self):
        rng = np.random.default_rng(5)
        self.check(-0.5 * rng.chisquare(3, size=(200, 300)))

    def test_ties_at_the_max(self):
        self.check([[1.0, 3.0, 3.0, -2.0], [0.5, 0.5, 0.5, 0.5 - 1e-16], [-1.0, 2.0, -1.0, 2.0]])

    def test_constant_row(self):
        self.check(np.full((3, 7), -4.25))

    def test_minus_infinity_entries(self):
        self.check([[-np.inf, 0.0, -1.0], [-np.inf, -np.inf, -np.inf], [-np.inf, -3.0, -np.inf]])

    def test_one_column(self):
        self.check([[-2.0], [0.0], [-np.inf]])

    def test_nan_row_beside_tied_row(self):
        # the NaN row has no entry at its max and the tied row has two, so a
        # count over the whole block equals the row count while k is not 1
        self.check([[np.nan, 0.0, -1.0], [2.0, 2.0, 0.5], [0.0, -1.0, -2.0]])

    @pytest.mark.parametrize("special", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_col=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_mixed_rows_bit_identical(self, special, data, n_col, seed):
        # unique-max rows take the argmax fast path; a block with any tie at
        # the max (0.0 against -0.0 included), all -inf row or NaN row falls
        # back to counting ties, and either way the bits are scipy's
        rng = np.random.default_rng(seed)
        kinds = ["unique", "unique-neg-zero"] + (["unique-inf"] if n_col > 1 else [])
        odd = ["all-inf", "nan"] + (["tied", "signed-zeros"] if n_col > 1 else [])
        rows = data.draw(st.lists(st.sampled_from(kinds + odd if special else kinds), min_size=1))
        if special and not set(rows) & set(odd):
            rows.append(data.draw(st.sampled_from(odd)))
        a = np.empty((len(rows), n_col))
        for row, kind in zip(a, rows):
            row[:] = -rng.chisquare(2, n_col) - 1e-3
            top, other = rng.permutation(n_col)[:2] if n_col > 1 else (0, 0)
            if kind == "unique":
                row[top] = rng.normal()
            elif kind == "unique-inf":
                row[other] = -np.inf
            elif kind == "unique-neg-zero":
                row[top] = -0.0
            elif kind == "all-inf":
                row[:] = -np.inf
            elif kind == "nan":
                row[top] = np.nan
            elif kind == "tied":
                row[top] = row[other] = rng.random()
            else:  # signed-zeros
                row[top], row[other] = 0.0, -0.0
        with mock.patch.object(scoring, "_split_off_max", wraps=scoring._split_off_max) as ties:
            self.check(a)
        assert ties.call_count == int(special)

    def test_nan_row_is_nan_without_warning(self):
        a = np.array([[0.0, np.nan, -1.0], [np.nan, np.nan, np.nan], [0.0, -1.0, -2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp_rows(a)
        assert np.isnan(got[0]) and np.isnan(got[1])
        assert got[2] == special.logsumexp([0.0, -1.0, -2.0])


SCALES = (1e-170, 1e-100, 1e3, 1e6, 1e100, 1e160)


def scaled_probe(c: float) -> InferenceData:
    """``paper_synthetic_config(1000, 5, 2.0)`` (data seed 7, split seed 8)
    with 50 labeled outliers N(3, I) (seed 9), every feature times ``c``."""
    cfg = paper_synthetic_config(1000, 5, 2.0)
    pool, test = generate_hierarchical(cfg, np.random.default_rng(7))
    split = split_nulls(pool, test.m, np.random.default_rng(8))
    outliers = np.random.default_rng(9).normal(3.0, 1.0, (50, 5))
    return InferenceData(
        split=NullSplit(train=split.train * c, cal=split.cal * c, mirror=split.mirror * c),
        test=TestSet(features=test.features * c, side=test.side),
        labeled_outliers=outliers * c,
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows at c = 1e160
class TestScale:
    """Every feature times c: a scorer still ranks the rows, or the run raises."""

    @pytest.mark.parametrize(
        "family, method",
        [("OCC", "gaussian"), ("OCC", "kde"), ("OCC", "knn"), ("BIC", "knn"), ("PUC", "kde-ratio")],
    )
    def test_equivariant_scorers_keep_their_rejections(self, family, method):
        spec = ClassifierSpec(family, method)
        base = run_scq(scaled_probe(1.0), spec, WeightConfig(), 0.1).rejection.sorted()
        assert base
        for c in SCALES:
            try:
                res = run_scq(scaled_probe(c), spec, WeightConfig(), 0.1)
            except ScqError:
                continue
            assert res.rejection.sorted() == base, c

    @pytest.mark.parametrize("family, method", [("BIC", "logistic"), ("PUC", "pu-logistic")])
    def test_logistic_scores_stay_distinct(self, family, method):
        spec = ClassifierSpec(family, method)
        for c in SCALES:
            try:
                scores = run_scq(scaled_probe(c), spec, WeightConfig(), 0.1).scores
            except ScqError:
                continue
            s = np.concatenate([scores.test, scores.mirror, scores.cal])
            assert len(np.unique(s)) == len(s) == 2333, c

    @pytest.mark.parametrize("family, method", [("BIC", "logistic"), ("PUC", "pu-logistic")])
    def test_logistic_fits_ignore_a_power_of_two_scale(self, family, method):
        # each column's scale into [4, 8) absorbs a power of two exactly
        spec = ClassifierSpec(family, method)
        base = run_scq(scaled_probe(1.0), spec, WeightConfig(), 0.1).rejection.sorted()
        for k in (-500, -10, 10, 500):
            res = run_scq(scaled_probe(2.0**k), spec, WeightConfig(), 0.1)
            assert res.rejection.sorted() == base, k

    @pytest.mark.parametrize("family, method", [("BIC", "logistic"), ("PUC", "pu-logistic")])
    def test_logistic_fits_reject_at_every_scale(self, family, method):
        # a fixed step on unscaled columns diverges on large features while
        # the scores stay distinct, so a run would reject nothing with exit 0
        spec = ClassifierSpec(family, method)
        for c in SCALES:
            try:
                res = run_scq(scaled_probe(c), spec, WeightConfig(), 0.1)
            except ScqError:
                continue
            assert len(res.rejection) >= 100, c

    def test_pu_logistic_ranks_past_the_sigmoid(self):
        # at 1e3 the sigmoid of x.w + b rounds the 2,333 scores to 13 values
        res = run_scq(scaled_probe(1e3), ClassifierSpec("PUC", "pu-logistic"), WeightConfig(), 0.1)
        assert len(res.rejection) >= 100


class TestPuc:
    def test_kde_ratio_pool_order_irrelevant(self):
        rng = np.random.default_rng(3)
        data = data_with_pool(rng)
        # every pair swapped, the units reordered and the calibration rows reversed
        swapped = swap_inference_pairs(data, range(1, data.m + 1))
        order = rng.permutation(data.m)
        shuffled = inference_data(
            data.split.train,
            swapped.test.features[order],
            swapped.split.mirror[order],
            data.split.cal[::-1],
        )
        a = ScoreTable(data).model(ClassifierSpec("PUC", "kde-ratio"))
        b = ScoreTable(shuffled).model(ClassifierSpec("PUC", "kde-ratio"))
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
        data = inference_data(train, test, mirror, cal)
        model = ScoreTable(data).model(ClassifierSpec("PUC", "pu-logistic"))
        assert score(model, np.zeros(2)) > score(model, np.full(2, 4.0))

    def test_requires_pool(self):
        with pytest.raises(ConfigError):
            fit_score(ClassifierSpec("PUC", "kde-ratio"), np.zeros((4, 2)))


SCORERS = [
    ("OCC", "gaussian"),
    ("OCC", "kde"),
    ("OCC", "knn"),
    ("BIC", "logistic"),
    ("BIC", "knn"),
    ("PUC", "kde-ratio"),
    ("PUC", "pu-logistic"),
]
DISTANCE_SCORERS = [("OCC", "kde"), ("OCC", "knn"), ("BIC", "knn"), ("PUC", "kde-ratio")]


def fitted_models(n_ref, p, seed):
    """The seven scorers, each fitted on about ``n_ref`` reference rows."""
    rng = np.random.default_rng(seed)
    n_out = n_ref // 10
    m = (n_ref - n_out) // 3
    table = ScoreTable(inference_data(
        rng.standard_normal((n_ref - n_out, p)),
        rng.standard_normal((m, p)) + 1.0,
        rng.standard_normal((m, p)),
        rng.standard_normal((n_ref - n_out - 2 * m, p)),
        rng.standard_normal((n_out, p)) + 2.0,
    ))
    return {f"{f}/{m}": table.model(ClassifierSpec(f, m)) for f, m in SCORERS}


# 684 null rows (OCC, both KDEs of PUC/kde-ratio) and 760 labeled rows (BIC)
# at p = 3 fit in one column tile; at p = 20, 820 null rows take column tiles
# of 273 rows, the last one a single row
PURITY_MODELS = {
    (name, p): model
    for n_ref, p in ((760, 3), (911, 20))
    for name, model in fitted_models(n_ref, p, seed=21).items()
}
BATCH_SIZES = [1, 2] + [k * _BLOCK_ROWS + d for k in (1, 2) for d in (-1, 0, 1)] + [3 * _BLOCK_ROWS + 1]


class TestBlockedScoring:
    def test_reference_sizes_give_the_smallest_block(self):
        assert _block_rows(684) == _block_rows(760) == _BLOCK_ROWS
        assert _block_rows(300) == 4 * _BLOCK_ROWS

    @settings(max_examples=100, deadline=None)
    @given(
        key=st.sampled_from(sorted(PURITY_MODELS)),
        n=st.sampled_from(BATCH_SIZES),
        size=st.sampled_from(BATCH_SIZES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_score_depends_on_its_row_alone(self, key, n, size, seed):
        # alone, or in a batch of any size that holds it at any offset, a row
        # scores the same bits, so swapping rows between batches swaps scores
        model = PURITY_MODELS[key]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, model.dim)) * 1.5
        whole = score_batch(model, x)
        rows = rng.integers(0, n, size)
        np.testing.assert_array_equal(score_batch(model, x[rows]), whole[rows])
        j = rows[0]
        assert score_batch(model, x[j : j + 1])[0] == whole[j]

    @pytest.mark.parametrize("name", [f"{f}/{m}" for f, m in DISTANCE_SCORERS])
    def test_peak_memory_flat_in_batch_size(self, name):
        # the whole 8000 x 2000 distance matrix alone would take 122 MB
        model = fitted_models(n_ref=2000, p=5, seed=22)[name]
        for n_eval in (1000, 8000):
            x = np.random.default_rng(n_eval).standard_normal((n_eval, 5))
            tracemalloc.start()
            try:
                score_batch(model, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, f"{name} at {n_eval} rows peaked at {peak / 2**20:.1f} MB"


THREAD_CANARY = """
import hashlib, json, sys
import numpy as np
from scq.scoring import ClassifierSpec, fit_score, score_batch
rng = np.random.default_rng(0)
train, pool = rng.standard_normal((2, 3333, 5))
outliers = rng.standard_normal((300, 5)) + 2.0
x = rng.standard_normal((4800, 5)) * 1.5
digests = {}
for family, method in json.loads(sys.argv[1]):
    model = fit_score(ClassifierSpec(family, method), train, outliers, pool + 0.5)
    digests[f"{family}/{method}"] = hashlib.sha256(score_batch(model, x).tobytes()).hexdigest()
print(json.dumps(digests))
"""


def test_scores_are_the_same_bytes_at_one_and_two_blas_threads():
    """A one-shot product of 3,333 reference rows is large enough for
    OpenBLAS to split among threads, which moves last bits; the scorers'
    tiles keep every product on one thread."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run(
            [sys.executable, "-c", THREAD_CANARY, json.dumps(SCORERS)],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.append(json.loads(run.stdout))
    assert [name for name in digests[0] if digests[0][name] != digests[1][name]] == []


class TestCommonOffset:
    @pytest.fixture(scope="class")
    def data(self):
        base = make_synthetic_data(m=500, p=5, mu=2.0, seed=7)
        outliers = np.random.default_rng(1).standard_normal((50, 5)) + 2.0
        return InferenceData(split=base.split, test=base.test, labeled_outliers=outliers)

    @pytest.mark.parametrize("shift", [1e4, 1e8])
    @pytest.mark.parametrize(
        "spec", [ClassifierSpec(*s) for s in DISTANCE_SCORERS], ids=lambda spec: spec.name
    )
    def test_shifting_every_feature_keeps_the_rejections(self, data, spec, shift):
        # the distances are taken between centered rows, so |x|^2 + |t|^2
        # does not swamp 2x.t when the features share a large offset
        split = data.split
        shifted = InferenceData(
            split=NullSplit(train=split.train + shift, cal=split.cal + shift, mirror=split.mirror + shift),
            test=TestSet(features=data.test.features + shift, side=data.test.side),
            labeled_outliers=data.labeled_outliers + shift,
        )
        base = run_scq(data, spec, WeightConfig(), alpha=0.1).rejection.sorted()
        assert len(base) > 30
        assert run_scq(shifted, spec, WeightConfig(), alpha=0.1).rejection.sorted() == base


class TestInvarianceContracts:
    def test_occ_ignores_pool(self):
        rng = np.random.default_rng(5)
        train, pool = rng.standard_normal((25, 3)), rng.standard_normal((28, 3))
        probe = rng.standard_normal(3)
        for method in ("gaussian", "kde", "knn"):
            spec = ClassifierSpec("OCC", method)
            base = score(fit_score(spec, train, pool=pool), probe)
            assert base == score(fit_score(spec, train, pool=pool + 100.0), probe)

    def test_bic_ignores_pool(self):
        rng = np.random.default_rng(6)
        train, outliers = rng.standard_normal((25, 3)), rng.standard_normal((10, 3)) + 3.0
        pool = rng.standard_normal((28, 3))
        probe = rng.standard_normal(3)
        for method in ("logistic", "knn"):
            spec = ClassifierSpec("BIC", method)
            base = score(fit_score(spec, train, outliers, pool), probe)
            assert base == score(fit_score(spec, train, outliers), probe)

    def test_verify_swap_invariance_occ_trivial(self):
        rng = np.random.default_rng(7)
        data = data_with_pool(rng)
        assert verify_swap_invariance(
            ClassifierSpec("OCC", "kde"), data, [1, 3], rng.standard_normal(3)
        )

    def test_verify_swap_invariance_puc_all_pairs(self):
        rng = np.random.default_rng(8)
        data = data_with_pool(rng)
        assert verify_swap_invariance(
            ClassifierSpec("PUC", "kde-ratio"), data, range(1, 11), rng.standard_normal(3)
        )

    def test_verify_swap_invariance_puc_subsets(self):
        rng = np.random.default_rng(9)
        data = data_with_pool(rng)
        probe = rng.standard_normal(3)
        for spec in (ClassifierSpec("PUC", "kde-ratio"), ClassifierSpec("PUC", "pu-logistic")):
            for _ in range(10):
                subset = [int(j) for j in np.flatnonzero(rng.random(10) < 0.5) + 1]
                assert verify_swap_invariance(spec, data, subset, probe)

    def test_swap_helper_rejects_ids_outside_one_to_m_and_repeats(self):
        data = data_with_pool(np.random.default_rng(7))
        for ids in ([0], [data.m + 1], [2, 2]):
            with pytest.raises(ValueError):
                swap_inference_pairs(data, ids)

    def test_fit_deterministic(self):
        rng = np.random.default_rng(10)
        data = data_with_pool(rng, outliers=5)
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
            first, second = ScoreTable(data).model(spec), ScoreTable(data).model(spec)
            assert score(first, probe) == score(second, probe)


class TestOrientationMonteCarlo:
    def test_outlier_scores_below_inlier_scores(self):
        # strong mean-shift data: the median score of true signals sits
        # strictly below the median score of true nulls, run over 50 seeds
        wins = 0
        for seed in range(50):
            data = make_synthetic_data(m=120, p=5, mu=3.0, seed=seed)
            model = fit_score(ClassifierSpec("OCC", "gaussian"), data.split.train)
            s = score_batch(model, data.test.features)
            truth = data.test.truth
            if truth.sum() >= 3 and (~truth).sum() >= 3:
                wins += np.median(s[truth]) < np.median(s[~truth])
        assert wins == 50


class TestScoreValidation:
    def test_dimension_mismatch(self):
        model = fit_score(
            ClassifierSpec("OCC", "gaussian"), np.random.default_rng(0).standard_normal((9, 2))
        )
        with pytest.raises(DimensionMismatch):
            score(model, np.zeros(3))
