"""End-to-end runs: weight modes, tie jitter, baselines, report payload."""

from dataclasses import fields, replace

import numpy as np
import pytest

from helpers import count_calls, make_synthetic_data
from scq import scoring
from scq.bench import paper_synthetic_config
from scq.conformal import bh, conformal_pvalues, storey_bh
from scq.errors import ConfigError
from scq.pipeline import ScoreTable, WeightConfig, compute_weights, run_cfbh, run_scq
from scq.scoring import ClassifierSpec, score_batch
from scq.weights import estimate_sparsity, oracle_weights, structure_weights

GAUSS = ClassifierSpec("OCC", "gaussian")
KDE = ClassifierSpec("OCC", "kde")
KDE_RATIO = ClassifierSpec("PUC", "kde-ratio")


class TestSettingsAreValues:
    def test_equal_specs_compare_and_hash_equal(self):
        equal = [
            (ClassifierSpec("OCC", "kde", {"bandwidth": 1}), ClassifierSpec("OCC", "kde", {"bandwidth": 1.0})),
            (KDE, ClassifierSpec("OCC", "kde", {"bandwidth": None})),
            (
                ClassifierSpec("BIC", "logistic"),
                ClassifierSpec("BIC", "logistic", {"step": 0.1, "iterations": 500}),
            ),
        ]
        for a, b in equal:
            assert a == b and hash(a) == hash(b)
        table = {spec: i for i, (spec, _) in enumerate(equal)}
        assert [table[b] for _, b in equal] == [0, 1, 2]
        assert KDE != ClassifierSpec("OCC", "kde", {"bandwidth": 1.0})
        assert KDE != KDE_RATIO

    def test_weight_settings_hold_no_data(self):
        assert {f.name for f in fields(WeightConfig)} == {"mode", "lam", "bandwidth"}
        oracle = WeightConfig(mode="oracle")
        assert oracle == WeightConfig(mode="oracle") and hash(oracle) == hash(WeightConfig(mode="oracle"))
        assert WeightConfig(bandwidth=2) == WeightConfig(bandwidth=2.0)
        assert {(GAUSS, oracle): 1}[(ClassifierSpec("OCC", "gaussian"), WeightConfig(mode="oracle"))] == 1


class TestWeightModes:
    def test_unit_mode_uses_raw_pvalues(self):
        data = make_synthetic_data(m=50, p=2, mu=3.0, seed=0)
        res = run_scq(data, GAUSS, WeightConfig(mode="unit"), alpha=0.1)
        np.testing.assert_array_equal(res.pairs.v, res.scores.p)
        np.testing.assert_array_equal(res.pairs.vt, res.scores.p_tilde)
        assert res.sparsity is None

    def test_oracle_mode(self):
        cfg = paper_synthetic_config(m=50, p=2, mu=3.0)
        data = make_synthetic_data(m=50, p=2, mu=3.0, seed=1)
        res = run_scq(data, GAUSS, WeightConfig(mode="oracle"), alpha=0.1)
        pi = cfg.pi_vector()
        np.testing.assert_allclose(res.weights, pi / (1 - pi))

    def test_oracle_weights_are_those_of_the_generating_pi(self):
        cfg = paper_synthetic_config(m=50, p=2, mu=3.0)
        data = make_synthetic_data(m=50, p=2, mu=3.0, seed=1)
        p = np.full(data.m, 0.5)
        w, est = compute_weights(data, p, p, WeightConfig(mode="oracle"))
        np.testing.assert_array_equal(w, oracle_weights(cfg.pi_vector()))
        assert est is None

    def test_oracle_needs_pi(self):
        data = make_synthetic_data(m=50, p=2, mu=3.0, seed=1)
        data = replace(data, test=replace(data.test, pi=None))
        with pytest.raises(ConfigError):
            run_scq(data, GAUSS, WeightConfig(mode="oracle"), alpha=0.1)

    def test_structure_is_default(self):
        assert WeightConfig().mode == "structure"

    def test_result_carries_its_sparsity_estimate(self):
        data = make_synthetic_data(m=50, p=2, mu=3.0, seed=0)
        res = run_scq(data, GAUSS, WeightConfig(lam=0.3), alpha=0.1)
        fresh = estimate_sparsity(data.test.side, None, res.scores.p, res.scores.p_tilde, 0.3)
        np.testing.assert_array_equal(res.sparsity.raw, fresh.raw)
        np.testing.assert_array_equal(structure_weights(res.sparsity), res.weights)


class TestJitter:
    def test_breaks_ties_without_moving_ranks(self):
        data = make_synthetic_data(m=80, p=2, mu=1.0, seed=2)
        plain = run_scq(data, GAUSS, WeightConfig(mode="unit"), alpha=0.1)
        assert plain.num_tied_pairs > 0  # discrete p-values tie often
        rng = np.random.default_rng(3)
        jittered = run_scq(data, GAUSS, WeightConfig(mode="unit"), alpha=0.1, rng=rng)
        assert jittered.num_tied_pairs == 0
        # perturbation is smaller than one grid step
        shift = jittered.pairs.v - plain.pairs.v
        assert np.all((0.0 <= shift) & (shift < 1.0 / (len(plain.scores.cal) + 1)))


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

    @pytest.mark.parametrize("spec", [GAUSS, KDE, KDE_RATIO], ids=lambda spec: spec.name)
    def test_reads_the_table_scores(self, monkeypatch, spec):
        # cfbh scores nothing itself, and ranking the cal and mirror scores of
        # the table rejects what ranking one stacked scoring of them does
        for seed in range(4):
            table = ScoreTable(make_synthetic_data(m=80, p=2, mu=2.0, seed=20 + seed))
            run_scq(table, spec, WeightConfig(), alpha=0.1)
            calls = count_calls(monkeypatch, scoring.score_batch)
            got = {storey: run_cfbh(table, spec, alpha=0.1, storey=storey) for storey in (True, False)}
            assert calls == []
            data, model = table.data, table.model(spec)
            s_null = score_batch(model, np.vstack([data.split.cal, data.split.mirror]))
            p = conformal_pvalues(s_null, score_batch(model, data.test.features)) / (len(s_null) + 1)
            np.testing.assert_array_equal(got[True].mask, storey_bh(p, 0.1).mask)
            np.testing.assert_array_equal(got[False].mask, bh(p, 0.1).mask)
            monkeypatch.undo()

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
        # the train-null KDE density of the rows is scored once, by
        # whichever of the two comes first, and the answers do not move
        data = make_synthetic_data(m=97, p=3, mu=2.0, seed=8)
        order = [ClassifierSpec(*spec, hyperparams) for spec in (("OCC", "kde"), ("PUC", "kde-ratio"))]
        if not kde_first:
            order.reverse()
        densities = count_calls(monkeypatch, scoring._kde_logpdf)
        table = ScoreTable(data)
        shared = [table.scores(spec) for spec in order]
        assert len(densities) == 1 + 1  # one null and one mixture KDE
        for spec, got in zip(order, shared):
            fresh = ScoreTable(data).scores(spec)
            np.testing.assert_array_equal(got.p, fresh.p)
            np.testing.assert_array_equal(got.p_tilde, fresh.p_tilde)

    def test_other_bandwidth_shares_nothing(self, monkeypatch):
        data = make_synthetic_data(m=97, p=3, mu=2.0, seed=9)
        narrow = ClassifierSpec("PUC", "kde-ratio", {"bandwidth": 0.5})
        densities = count_calls(monkeypatch, scoring._kde_logpdf)
        table = ScoreTable(data)
        table.scores(KDE)
        got = table.scores(narrow)
        assert len(densities) == 1 + 1 + 1
        fresh = ScoreTable(data).scores(narrow)
        np.testing.assert_array_equal(got.p, fresh.p)
        np.testing.assert_array_equal(got.p_tilde, fresh.p_tilde)


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

    def test_jitter_runs_are_not_kept_but_oracle_runs_are(self):
        table = ScoreTable(make_synthetic_data(m=60, p=2, mu=3.0, seed=11))
        unit = WeightConfig(mode="unit")
        rng = np.random.default_rng(0)
        a = run_scq(table, GAUSS, unit, alpha=0.1, rng=rng)
        b = run_scq(table, GAUSS, unit, alpha=0.1, rng=rng)
        assert a is not b and not np.array_equal(a.pairs.v, b.pairs.v)
        oracle = WeightConfig(mode="oracle")
        assert run_scq(table, GAUSS, oracle, alpha=0.1) is run_scq(table, GAUSS, oracle, alpha=0.1)
