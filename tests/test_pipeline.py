"""End-to-end runs: weight modes, tie jitter, baselines, report payload."""

import numpy as np
import pytest

from helpers import count_calls, make_synthetic_data
from scq import scoring
from scq.bench import paper_synthetic_config
from scq.conformal import bh
from scq.errors import ConfigError
from scq.pipeline import ScoreTable, WeightConfig, run_cfbh, run_scq
from scq.scoring import ClassifierSpec
from scq.weights import structure_weights

GAUSS = ClassifierSpec("OCC", "gaussian")
KDE = ClassifierSpec("OCC", "kde")


class TestWeightModes:
    def test_unit_mode_uses_raw_pvalues(self):
        data = make_synthetic_data(m=50, p=2, mu=3.0, seed=0)
        res = run_scq(data, GAUSS, WeightConfig(mode="unit"), alpha=0.1)
        np.testing.assert_array_equal(res.pairs.v, res.scores.num / (res.scores.n_cal + 1))
        np.testing.assert_array_equal(res.pairs.vt, res.scores.p_tilde)
        assert res.sparsity is None

    def test_oracle_mode(self):
        cfg = paper_synthetic_config(m=50, p=2, mu=3.0)
        data = make_synthetic_data(m=50, p=2, mu=3.0, seed=1)
        wcfg = WeightConfig(mode="oracle", oracle_pi=cfg.pi_vector())
        res = run_scq(data, GAUSS, wcfg, alpha=0.1)
        pi = cfg.pi_vector()
        np.testing.assert_allclose(res.weights.w, pi / (1 - pi))

    def test_oracle_needs_pi(self):
        data = make_synthetic_data(m=50, p=2, mu=3.0, seed=1)
        with pytest.raises(ConfigError):
            run_scq(data, GAUSS, WeightConfig(mode="oracle"), alpha=0.1)

    def test_structure_is_default(self):
        assert WeightConfig().mode == "structure"

    def test_result_carries_its_sparsity_estimate(self):
        data = make_synthetic_data(m=50, p=2, mu=3.0, seed=0)
        res = run_scq(data, GAUSS, WeightConfig(lam=0.3), alpha=0.1)
        assert res.sparsity.lam == 0.3
        np.testing.assert_array_equal(structure_weights(res.sparsity).w, res.weights.w)


class TestJitter:
    def test_breaks_ties_without_moving_ranks(self):
        data = make_synthetic_data(m=80, p=2, mu=1.0, seed=2)
        plain = run_scq(data, GAUSS, WeightConfig(mode="unit"), alpha=0.1)
        assert plain.num_tied_pairs > 0  # discrete p-values tie often
        rng = np.random.default_rng(3)
        jittered = run_scq(
            data, GAUSS, WeightConfig(mode="unit"), alpha=0.1, jitter=True, rng=rng
        )
        assert jittered.num_tied_pairs == 0
        # perturbation is smaller than one grid step
        shift = jittered.pairs.v - plain.pairs.v
        assert np.all((0.0 <= shift) & (shift < 1.0 / (plain.scores.n_cal + 1)))

    def test_jitter_requires_rng(self):
        data = make_synthetic_data(m=20, p=2, mu=1.0, seed=4)
        with pytest.raises(ConfigError):
            run_scq(data, GAUSS, WeightConfig(mode="unit"), alpha=0.1, jitter=True)


class TestReportDict:
    def test_payload_shape(self):
        data = make_synthetic_data(m=30, p=2, mu=3.0, seed=5)
        res = run_scq(data, GAUSS, WeightConfig(), alpha=0.05)
        doc = res.report_dict()
        assert set(doc) == {"alpha", "tau", "rejected", "qvalues", "num_tied_pairs"}
        assert doc["alpha"] == 0.05
        assert doc["rejected"] == sorted(doc["rejected"])
        assert len(doc["qvalues"]) == 30


class TestCfbh:
    def test_detects_strong_signal(self):
        data = make_synthetic_data(m=200, p=5, mu=3.0, seed=6)
        rej = run_cfbh(data, GAUSS, alpha=0.1, storey=True)
        truth = data.test.truth
        hits = np.count_nonzero(rej.mask & truth)
        assert hits > 0.5 * truth.sum()

    def test_plain_bh_variant(self):
        data = make_synthetic_data(m=100, p=2, mu=3.0, seed=7)
        rej_bh = run_cfbh(data, GAUSS, alpha=0.1, storey=False)
        rej_st = run_cfbh(data, GAUSS, alpha=0.1, storey=True)
        assert np.all(rej_bh.mask <= rej_st.mask)

    def test_null_only_rarely_rejects(self):
        # pooled over seeds: false rejections stay near the target rate
        total_fdp = []
        for seed in range(30):
            data = make_synthetic_data(m=60, p=2, mu=1.0, seed=100 + seed)
            null_test = data.test
            rej = run_cfbh(data, GAUSS, alpha=0.05)
            truth = null_test.truth
            false = np.count_nonzero(rej.mask & ~truth)
            total_fdp.append(false / max(1, len(rej)))
        assert np.mean(total_fdp) <= 0.05 + 2 * np.std(total_fdp) / np.sqrt(30) + 1e-9


class TestSharedNullDensity:
    @pytest.mark.parametrize("hyperparams", [{}, {"bandwidth": 0.5}])
    @pytest.mark.parametrize("kde_first", [True, False])
    def test_shared_table_equals_fresh_tables(self, monkeypatch, hyperparams, kde_first):
        # the train-null KDE density of each batch is scored once, by
        # whichever of the two comes first, and the answers do not move
        data = make_synthetic_data(m=97, p=3, mu=2.0, seed=8)
        order = [ClassifierSpec(*spec, hyperparams) for spec in (("OCC", "kde"), ("PUC", "kde-ratio"))]
        if not kde_first:
            order.reverse()
        densities = count_calls(monkeypatch, scoring._kde_logpdf)
        table = ScoreTable(data)
        shared = [table.scores(spec) for spec in order]
        assert len(densities) == 3 + 3  # one null and one mixture KDE per batch
        for spec, got in zip(order, shared):
            fresh = ScoreTable(data).scores(spec)
            np.testing.assert_array_equal(got.num, fresh.num)
            np.testing.assert_array_equal(got.num_tilde, fresh.num_tilde)

    def test_other_bandwidth_shares_nothing(self, monkeypatch):
        data = make_synthetic_data(m=97, p=3, mu=2.0, seed=9)
        narrow = ClassifierSpec("PUC", "kde-ratio", {"bandwidth": 0.5})
        densities = count_calls(monkeypatch, scoring._kde_logpdf)
        table = ScoreTable(data)
        table.scores(KDE)
        got = table.scores(narrow)
        assert len(densities) == 3 + 3 + 3
        fresh = ScoreTable(data).scores(narrow)
        np.testing.assert_array_equal(got.num, fresh.num)
        np.testing.assert_array_equal(got.num_tilde, fresh.num_tilde)


class TestRunMemo:
    def test_same_setting_same_run(self):
        table = ScoreTable(make_synthetic_data(m=60, p=2, mu=3.0, seed=10))
        run = run_scq(table, GAUSS, WeightConfig(), alpha=0.1)
        assert run_scq(table, GAUSS, WeightConfig(), alpha=0.1) is run
        for other in (
            run_scq(table, GAUSS, WeightConfig(lam=0.3), alpha=0.1),
            run_scq(table, GAUSS, WeightConfig(bandwidth=2.0), alpha=0.1),
            run_scq(table, GAUSS, WeightConfig(mode="unit"), alpha=0.1),
            run_scq(table, GAUSS, WeightConfig(), alpha=0.2),
            run_scq(table, KDE, WeightConfig(), alpha=0.1),
        ):
            assert other is not run

    def test_jitter_and_oracle_runs_are_not_kept(self):
        cfg = paper_synthetic_config(m=60, p=2, mu=3.0)
        table = ScoreTable(make_synthetic_data(m=60, p=2, mu=3.0, seed=11))
        unit = WeightConfig(mode="unit")
        rng = np.random.default_rng(0)
        a = run_scq(table, GAUSS, unit, alpha=0.1, jitter=True, rng=rng)
        b = run_scq(table, GAUSS, unit, alpha=0.1, jitter=True, rng=rng)
        assert a is not b and not np.array_equal(a.pairs.v, b.pairs.v)
        oracle = WeightConfig(mode="oracle", oracle_pi=cfg.pi_vector())
        assert run_scq(table, GAUSS, oracle, alpha=0.1) is not run_scq(table, GAUSS, oracle, alpha=0.1)
