"""Pseudo-score selection: coins, operators, and invariance of the choice."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_calls, make_synthetic_data, random_pairs, swap_inference_pairs
from scq.conformal import RejectionSet, ScorePairs
from scq.errors import AllCandidatesFailed, ConfigError
from scq.modelselect import (
    DEFAULT_LAMBDA_GRID,
    STAGE1_LAMBDA,
    CoinStream,
    Toolbox,
    preliminary_partition,
    pseudo_scores,
    ptams,
    ptams_plus,
    _pseudo_rejection_count,
)
from scq.datamodel import InferenceData, SideInfo, TestSet
from scq.pipeline import ScoreTable, WeightConfig, run_scq
from scq.scoring import ClassifierSpec, fit_score
from scq.weights import estimate_sparsity


def cp(nums, n):
    """Conformal p-values ``num / (n + 1)`` for an array of numerators."""
    return np.asarray(nums) / (n + 1)


def mask(m, ids):
    """Rejection mask over units 1..m with the given 1-based ids set."""
    out = np.zeros(m, dtype=bool)
    out[np.asarray(list(ids), dtype=np.int64) - 1] = True
    return out


TOOLBOX = Toolbox(
    candidates=(
        ClassifierSpec("OCC", "gaussian"),
        ClassifierSpec("OCC", "knn"),
        ClassifierSpec("PUC", "kde-ratio"),
    )
)


class TestCoinStream:
    def test_deterministic(self):
        a = CoinStream(seed=99).bits(1000)
        b = CoinStream(seed=99).bits(1000)
        np.testing.assert_array_equal(a, b)

    def test_stable_under_m_changes(self):
        short = CoinStream(seed=5).bits(10)
        long = CoinStream(seed=5).bits(1000)
        np.testing.assert_array_equal(short, long[:10])

    def test_roughly_balanced(self):
        bits = CoinStream(seed=0).bits(100_000)
        assert 0.49 < bits.mean() < 0.51

    def test_consumes_only_seed_and_index(self):
        # the derivation has no data inputs at all; two different datasets
        # at the same seed necessarily share every coin
        coins = CoinStream(seed=7)
        data_a = make_synthetic_data(m=30, p=2, mu=1.0, seed=1)
        data_b = make_synthetic_data(m=30, p=2, mu=9.0, seed=2)
        assert data_a.test.features.sum() != data_b.test.features.sum()
        np.testing.assert_array_equal(coins.bits(30), coins.bits(30))

    def test_seeds_differ(self):
        assert CoinStream(seed=1).bits(64).tolist() != CoinStream(seed=2).bits(64).tolist()


class TestPreliminaryPartition:
    def test_all_ones_empty(self):
        ones = cp([10] * 4, 9)
        assert len(preliminary_partition(ones, ones, 0.1)) == 0

    def test_single_strong_unit(self):
        # m=5, smallest possible p-value 1/100 <= alpha0/m = 0.02
        p = cp([1, 100, 100, 100, 100], 99)
        pt = cp([100] * 5, 99)
        rej = preliminary_partition(p, pt, 0.1)
        assert rej.sorted() == [1]

    def test_swap_every_pair_identical(self):
        rng = np.random.default_rng(0)
        p = cp(rng.integers(1, 21, size=12), 19)
        pt = cp(rng.integers(1, 21, size=12), 19)
        a = preliminary_partition(p, pt, 0.2)
        b = preliminary_partition(pt, p, 0.2)
        np.testing.assert_array_equal(a.mask, b.mask)


class TestPseudoScores:
    def test_min_max_on_preliminary(self):
        pairs = ScorePairs(v=[0.3], vt=[0.1])
        prelim = RejectionSet(mask=[True], alpha=0.1)
        pseudo = pseudo_scores(pairs, prelim, CoinStream(seed=0))
        assert (pseudo.v[0], pseudo.vt[0]) == (0.1, 0.3)

    def test_mask_must_cover_every_unit(self):
        pairs = ScorePairs(v=[0.3, 0.2], vt=[0.1, 0.4])
        with pytest.raises(ConfigError):
            pseudo_scores(pairs, RejectionSet(mask=[True], alpha=0.1), CoinStream(seed=0))

    def test_coin_branch_orients_pair(self):
        pairs = ScorePairs(v=[0.3], vt=[0.1])
        empty = RejectionSet(mask=[False], alpha=0.1)
        # find seeds for both coin outcomes at unit 1
        seed_one = next(s for s in range(100) if CoinStream(seed=s).bits(1)[0] == 1)
        seed_zero = next(s for s in range(100) if CoinStream(seed=s).bits(1)[0] == 0)
        pseudo = pseudo_scores(pairs, empty, CoinStream(seed=seed_one))
        assert (pseudo.v[0], pseudo.vt[0]) == (0.1, 0.3)
        pseudo = pseudo_scores(pairs, empty, CoinStream(seed=seed_zero))
        assert (pseudo.v[0], pseudo.vt[0]) == (0.3, 0.1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_multiset_identity(self, m, seed):
        rng = np.random.default_rng(seed)
        pairs = random_pairs(rng, m)
        prelim = RejectionSet(mask=rng.random(m) < 0.3, alpha=0.1)
        pseudo = pseudo_scores(pairs, prelim, CoinStream(seed=seed))
        for a, b, v, vt in zip(pseudo.v, pseudo.vt, pairs.v, pairs.vt):
            assert {a, b} == {v, vt}

    def test_swap_invariance_fixed_coins(self):
        rng = np.random.default_rng(1)
        m = 30
        pairs = random_pairs(rng, m)
        swap = rng.random(m) < 0.5
        swapped = ScorePairs(
            v=np.where(swap, pairs.vt, pairs.v), vt=np.where(swap, pairs.v, pairs.vt)
        )
        prelim = RejectionSet(mask=mask(m, {1, 5}), alpha=0.1)
        coins = CoinStream(seed=3)
        a = pseudo_scores(pairs, prelim, coins)
        b = pseudo_scores(swapped, prelim, coins)
        np.testing.assert_array_equal(a.v, b.v)
        np.testing.assert_array_equal(a.vt, b.vt)


class TestPtams:
    def test_single_candidate_matches_plain_run(self):
        data = make_synthetic_data(m=60, p=3, mu=3.0, seed=4)
        toolbox = Toolbox(candidates=(ClassifierSpec("OCC", "kde"),))
        trace, result = ptams(toolbox, data, alpha=0.1, coins=CoinStream(seed=8))
        plain = run_scq(data, ClassifierSpec("OCC", "kde"), WeightConfig(), alpha=0.1)
        assert trace.selected == 1
        assert result.rejection.sorted() == plain.rejection.sorted()
        np.testing.assert_array_equal(result.qvalues, plain.qvalues)

    def test_selection_swap_invariant(self):
        coins = CoinStream(seed=11)
        for inst in range(5):
            data = make_synthetic_data(m=50, p=3, mu=2.0, seed=100 + inst)
            trace0, _ = ptams(TOOLBOX, data, alpha=0.1, coins=coins)
            rng = np.random.default_rng(inst)
            for _ in range(8):
                ids = [int(j) for j in np.flatnonzero(rng.random(50) < 0.5) + 1]
                swapped = swap_inference_pairs(data, ids)
                trace1, _ = ptams(TOOLBOX, swapped, alpha=0.1, coins=coins)
                assert trace1.selected == trace0.selected
                assert [r.r_k for r in trace1.records] == [r.r_k for r in trace0.records]

    def test_failed_candidate_excluded(self):
        data = make_synthetic_data(m=40, p=2, mu=3.0, seed=5)
        toolbox = Toolbox(
            candidates=(
                ClassifierSpec("BIC", "logistic"),  # no labeled outliers: fails
                ClassifierSpec("OCC", "gaussian"),
            )
        )
        trace, _ = ptams(toolbox, data, alpha=0.1, coins=CoinStream(seed=0))
        assert trace.records[0].r_k == -1
        assert trace.records[0].error
        assert trace.selected == 2

    def test_constant_score_candidate_excluded(self):
        data = make_synthetic_data(m=40, p=2, mu=3.0, seed=5)
        crippled = ClassifierSpec("OCC", "kde", {"bandwidth": 1e-12})  # every row at the floor
        toolbox = Toolbox(candidates=(crippled, ClassifierSpec("OCC", "gaussian")))
        trace, result = ptams(toolbox, data, alpha=0.1, coins=CoinStream(seed=0))
        assert trace.records[0].r_k == -1
        assert "OCC/kde scores every row alike" in trace.records[0].error
        assert trace.selected == 2
        assert result.scores.spec == toolbox.candidates[1]

    def test_all_candidates_failed(self):
        data = make_synthetic_data(m=20, p=2, mu=1.0, seed=6)
        toolbox = Toolbox(candidates=(ClassifierSpec("BIC", "knn"),))
        with pytest.raises(AllCandidatesFailed):
            ptams(toolbox, data, alpha=0.1, coins=CoinStream(seed=0))

    def test_tie_breaks_to_smallest_index(self):
        data = make_synthetic_data(m=30, p=2, mu=0.1, seed=7)
        toolbox = Toolbox(
            candidates=(ClassifierSpec("OCC", "kde"), ClassifierSpec("OCC", "kde"))
        )
        trace, _ = ptams(toolbox, data, alpha=0.05, coins=CoinStream(seed=1))
        assert trace.records[0].r_k == trace.records[1].r_k
        assert trace.selected == 1
        assert trace.tie_rule_applied

    def test_alpha0_default_validation(self):
        data = make_synthetic_data(m=20, p=2, mu=1.0, seed=8)
        toolbox = Toolbox(candidates=(ClassifierSpec("OCC", "gaussian"),))
        with pytest.raises(ConfigError, match="alpha0"):
            ptams(toolbox, data, alpha=0.6, coins=CoinStream(seed=0))

    @pytest.mark.parametrize("select", [ptams, ptams_plus])
    def test_oracle_weights_need_pi_before_any_fit(self, monkeypatch, select):
        data = make_synthetic_data(m=20, p=2, mu=1.0, seed=8)
        data = replace(data, test=replace(data.test, pi=None))  # as read from a file
        fits = count_calls(monkeypatch, fit_score)
        oracle = WeightConfig(mode="oracle")
        with pytest.raises(ConfigError, match="^oracle weights need"):
            select(TOOLBOX, data, alpha=0.1, coins=CoinStream(seed=0), weight_cfg=oracle)
        assert fits == []


class TestPtamsPlus:
    def test_singleton_grid_matches_ptams(self):
        data = make_synthetic_data(m=60, p=3, mu=3.0, seed=9)
        coins = CoinStream(seed=2)
        trace_a, result_a = ptams(TOOLBOX, data, alpha=0.1, coins=coins)
        trace_b, lam, result_b = ptams_plus(
            TOOLBOX, data, alpha=0.1, coins=coins, lambda_grid=[0.1]
        )
        assert lam == 0.1
        assert trace_b.selected == trace_a.selected
        assert result_b.rejection.sorted() == result_a.rejection.sorted()
        np.testing.assert_array_equal(result_b.qvalues, result_a.qvalues)

    def test_reuses_stage_one_fit(self, monkeypatch):
        # K candidates cost K fits: the winner's stage-one scores are reused
        data = make_synthetic_data(m=60, p=3, mu=3.0, seed=9)
        fits = count_calls(monkeypatch, fit_score)
        trace, _, result = ptams_plus(
            TOOLBOX, data, alpha=0.1, coins=CoinStream(seed=2), lambda_grid=[0.05, 0.3]
        )
        assert len(fits) == len(TOOLBOX)
        assert result.scores.spec == TOOLBOX.candidates[trace.selected - 1]
        scores = result.scores
        fresh = estimate_sparsity(data.test.side, None, scores.p, scores.p_tilde, trace.lambda_star)
        np.testing.assert_array_equal(result.sparsity.raw, fresh.raw)

    @pytest.mark.parametrize("grid", [DEFAULT_LAMBDA_GRID, (0.05, 0.2, 0.3)])
    def test_reuses_stage_one_count(self, monkeypatch, grid):
        # the winner's count at STAGE1_LAMBDA comes from stage one, not a rerun
        data = make_synthetic_data(m=60, p=3, mu=3.0, seed=9)
        counts = count_calls(monkeypatch, _pseudo_rejection_count)
        ptams_plus(TOOLBOX, data, alpha=0.1, coins=CoinStream(seed=2), lambda_grid=grid)
        assert len(counts) == len(TOOLBOX) + len(grid) - (STAGE1_LAMBDA in grid)

    def test_lambda_star_swap_invariant(self):
        coins = CoinStream(seed=21)
        data = make_synthetic_data(m=50, p=3, mu=2.5, seed=22)
        _, lam0, _ = ptams_plus(
            TOOLBOX, data, alpha=0.1, coins=coins, lambda_grid=[0.05, 0.1, 0.3]
        )
        rng = np.random.default_rng(23)
        for _ in range(5):
            ids = [int(j) for j in np.flatnonzero(rng.random(50) < 0.5) + 1]
            _, lam1, _ = ptams_plus(
                TOOLBOX,
                swap_inference_pairs(data, ids),
                alpha=0.1,
                coins=coins,
                lambda_grid=[0.05, 0.1, 0.3],
            )
            assert lam1 == lam0

    def test_empty_grid_rejected(self):
        data = make_synthetic_data(m=20, p=2, mu=1.0, seed=10)
        with pytest.raises(ConfigError):
            ptams_plus(TOOLBOX, data, alpha=0.1, coins=CoinStream(seed=0), lambda_grid=[])

    def test_null_only_rejects_nothing(self):
        from scq.datamodel import InferenceData, SyntheticConfig, generate_hierarchical, split_nulls

        cfg = SyntheticConfig(
            m=60, p=2, sparsity_blocks=(), background_pi=0.0,
            alt_components=(), null_pool_size=110,
        )
        empty_runs = 0
        for seed in range(100):
            ss = np.random.SeedSequence([31, seed])
            g, s = ss.spawn(2)
            pool, test = generate_hierarchical(cfg, np.random.default_rng(g))
            split = split_nulls(pool, test.m, np.random.default_rng(s))
            data = InferenceData(split=split, test=test)
            _, _, result = ptams_plus(
                TOOLBOX, data, alpha=0.05, coins=CoinStream(seed=seed),
                lambda_grid=[0.1, 0.5, 0.9],
            )
            empty_runs += len(result.rejection) == 0
        assert empty_runs >= 99


def assert_same_run(got, want):
    for a, b in (
        (got.qvalues, want.qvalues),
        (got.rejection.mask, want.rejection.mask),
        (got.pairs.v, want.pairs.v),
        (got.pairs.vt, want.pairs.vt),
        (got.weights, want.weights),
        (got.sparsity.raw, want.sparsity.raw),
    ):
        np.testing.assert_array_equal(a, b)
    assert got.tau == want.tau


def with_side(data, kind):
    if kind == "position":
        return data
    groups = SideInfo("group", np.arange(data.m) // 20 + 1)
    test = TestSet(features=data.test.features, side=groups, truth=data.test.truth)
    return InferenceData(split=data.split, test=test)


GAUSS, KDE = ClassifierSpec("OCC", "gaussian"), ClassifierSpec("OCC", "kde")
# BIC/knn fails without labeled outliers, so candidate 1 is always excluded
MIXED = Toolbox((ClassifierSpec("BIC", "knn"), GAUSS, KDE, ClassifierSpec("PUC", "kde-ratio")))


class TestOneRunPath:
    """A selector's answer is run_scq of what it selected."""

    @pytest.mark.parametrize("side", ["group", "position"])
    @pytest.mark.parametrize("seed", [2, 5])
    def test_selectors_end_in_run_scq(self, side, seed):
        # these seeds select candidates 2 and 4, and lambda* 0.05 and 0.1
        data = with_side(make_synthetic_data(m=150, p=3, mu=2.5, seed=seed), side)
        wcfg = WeightConfig(lam=0.2)
        coins = CoinStream(seed=seed)
        trace, result = ptams(MIXED, data, alpha=0.1, coins=coins, weight_cfg=wcfg)
        assert trace.records[0].r_k == -1
        spec = MIXED.candidates[trace.selected - 1]
        assert_same_run(result, run_scq(data, spec, wcfg, alpha=0.1))

        trace, lam, result = ptams_plus(
            MIXED, data, alpha=0.1, coins=coins, lambda_grid=(0.05, 0.1, 0.3), weight_cfg=wcfg
        )
        spec = MIXED.candidates[trace.selected - 1]
        assert_same_run(result, run_scq(data, spec, replace(wcfg, lam=lam), alpha=0.1))

    def test_table_shares_fits_across_entry_points(self, monkeypatch):
        data = make_synthetic_data(m=80, p=3, mu=3.0, seed=4)
        fits = count_calls(monkeypatch, fit_score)
        table = ScoreTable(data)
        alone = run_scq(table, GAUSS, WeightConfig(), alpha=0.1)
        trace, result = ptams(Toolbox((GAUSS, KDE)), table, alpha=0.1, coins=CoinStream(seed=4))
        assert len(fits) == 2
        assert trace.selected == 1
        assert_same_run(result, alone)
