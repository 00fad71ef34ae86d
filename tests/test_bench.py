"""Replication harness: metrics, pairing, determinism, failure handling."""

import concurrent.futures
import re

import numpy as np
import pytest

from helpers import attainment_config, count_calls, run_replications
from scq import bench, conformal, modelselect, scoring, weights
from scq.bench import (
    METHOD_KEYS,
    MethodSpec,
    MetricsRow,
    compare,
    fdp,
    long_rows,
    paper_synthetic_config,
    power,
    replication_table,
    rows_to_csv,
    true_positives,
    write_long_csv,
    _replicate_once,
)
from scq.cli import _write_json
from scq.conformal import RejectionSet
from scq.datamodel import SyntheticConfig
from scq.errors import ConfigError, TooManyFailures
from scq.modelselect import Toolbox
from scq.pipeline import WeightConfig
from scq.scoring import ClassifierSpec

GAUSS = ClassifierSpec("OCC", "gaussian")
KDE = ClassifierSpec("OCC", "kde")
SCQ_GAUSS = MethodSpec(name="scq-gauss", pipeline="scq", classifier=GAUSS)
# the method set of the replicate-500 benchmark workload
REPLICATE_METHODS = [
    SCQ_GAUSS,
    MethodSpec(name="bc", pipeline="bc-unweighted", classifier=GAUSS),
    MethodSpec(name="cfbh", pipeline="cfbh", classifier=GAUSS),
    MethodSpec(name="ptams", pipeline="ptams", toolbox=Toolbox((GAUSS, KDE))),
]


def tiny_config(m=40, p=2, mu=3.0):
    return paper_synthetic_config(m=m, p=p, mu=mu)


class TestFdp:
    def test_half_false(self):
        rej = RejectionSet(mask=[True, True, False], alpha=0.1)
        assert fdp(rej, [False, True, True]) == 0.5

    def test_empty_rejection_floor(self):
        assert fdp(RejectionSet(mask=[False, False], alpha=0.1), [True, False]) == 0.0

    def test_all_rejected_all_true(self):
        rej = RejectionSet(mask=[True, True, True], alpha=0.1)
        assert fdp(rej, [True, True, True]) == 0.0

    def test_power_and_tp(self):
        rej = RejectionSet(mask=[True, False, True, False], alpha=0.1)
        truth = [True, True, False, True]
        assert true_positives(rej, truth) == 1
        assert power(rej, truth) == pytest.approx(1 / 3)

    def test_mask_length_must_match_truth(self):
        with pytest.raises(ConfigError):
            fdp(RejectionSet(mask=[True, False, True], alpha=0.1), [True, False])


class TestRunReplications:
    def test_single_rep_zero_se(self):
        row = run_replications(SCQ_GAUSS, tiny_config(), reps=1, master_seed=5)
        assert row.reps == 1
        assert row.fdr_se == 0.0 and row.ap_se == 0.0

    def test_deterministic_given_master_seed(self):
        a = run_replications(SCQ_GAUSS, tiny_config(), reps=8, master_seed=11)
        b = run_replications(SCQ_GAUSS, tiny_config(), reps=8, master_seed=11)
        assert a == b

    def test_reps_must_be_positive(self):
        with pytest.raises(ConfigError):
            run_replications(SCQ_GAUSS, tiny_config(), reps=0, master_seed=1)

    def test_oracle_weight_method(self):
        oracle = MethodSpec(
            name="scq-oracle",
            pipeline="scq",
            classifier=ClassifierSpec("OCC", "gaussian"),
            weight_cfg=WeightConfig(mode="oracle"),
        )
        row = run_replications(oracle, tiny_config(), reps=5, master_seed=13)
        assert row.reps == 5
        assert np.isfinite(row.ap_hat)

    def test_null_only_fdr_envelope(self):
        cfg = SyntheticConfig(
            m=80, p=2, sparsity_blocks=(), background_pi=0.0,
            alt_components=(), null_pool_size=140,
        )
        row = run_replications(SCQ_GAUSS, cfg, reps=100, master_seed=17)
        assert row.fdr_hat <= 0.05 + 2 * row.fdr_se


class TestCompare:
    def test_identical_specs_identical_rows(self):
        twin = MethodSpec(
            name="twin", pipeline="scq", classifier=ClassifierSpec("OCC", "gaussian")
        )
        rows = compare([SCQ_GAUSS, twin], tiny_config(), reps=6, master_seed=3)
        a, b = rows
        assert (a.fdr_hat, a.ap_hat, a.etp_hat) == (b.fdr_hat, b.ap_hat, b.etp_hat)

    def test_paired_table_shape(self):
        table = replication_table([SCQ_GAUSS], tiny_config(), reps=5, master_seed=4)
        assert table.shape == (5, 1, 3)
        assert not np.isnan(table).any()

    def test_threads_do_not_change_results(self):
        serial = compare([SCQ_GAUSS], tiny_config(), reps=6, master_seed=9, threads=1)
        parallel = compare([SCQ_GAUSS], tiny_config(), reps=6, master_seed=9, threads=2)
        assert serial == parallel

    def test_workers_are_capped_at_the_replications(self, monkeypatch):
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        table = replication_table([SCQ_GAUSS], tiny_config(), reps=3, master_seed=9, threads=10**6)
        assert pools == [3]
        serial = replication_table([SCQ_GAUSS], tiny_config(), reps=3, master_seed=9)
        np.testing.assert_array_equal(table, serial)
        replication_table([SCQ_GAUSS], tiny_config(), reps=1, master_seed=9, threads=10**6)
        assert pools == [3]  # one replication runs in this process

    def test_too_many_failures(self):
        # BIC-only toolbox cannot fit: synthetic pools carry no labeled outliers
        doomed = MethodSpec(
            name="doomed",
            pipeline="ptams",
            toolbox=Toolbox(candidates=(ClassifierSpec("BIC", "logistic"),)),
        )
        with pytest.raises(TooManyFailures):
            compare([doomed], tiny_config(), reps=4, master_seed=2)


class TestSharedScoreTable:
    """Methods of one replication share fits; no number may change."""

    def test_compare_equals_each_method_alone(self):
        # synthetic pools carry no labeled outliers, so BIC/knn always fails
        methods = REPLICATE_METHODS + [
            MethodSpec(
                name="plus",
                pipeline="ptams_plus",
                toolbox=Toolbox((ClassifierSpec("BIC", "knn"), KDE, GAUSS)),
            ),
            MethodSpec(
                name="scq-kde", pipeline="scq", classifier=KDE, weight_cfg=WeightConfig(lam=0.3)
            ),
        ]
        cfg = paper_synthetic_config(m=300, p=3, mu=2.0)
        rows = compare(methods, cfg, reps=4, master_seed=12, alpha=0.1)
        alone = [run_replications(m, cfg, reps=4, master_seed=12, alpha=0.1) for m in methods]
        assert rows == alone
        assert all(row.reps == 4 for row in rows)

    def test_failure_message_equals_the_method_alone(self):
        bic = ClassifierSpec("BIC", "knn")
        doomed = MethodSpec(name="doomed", pipeline="scq", classifier=bic)
        # the ptams method tries, and fails, the same fit first
        picky = MethodSpec(name="picky", pipeline="ptams", toolbox=Toolbox((bic, GAUSS)))
        with pytest.raises(TooManyFailures) as shared:
            compare([picky, doomed], tiny_config(), reps=3, master_seed=8)
        with pytest.raises(TooManyFailures) as alone:
            run_replications(doomed, tiny_config(), reps=3, master_seed=8)
        assert str(shared.value) == str(alone.value)

    def test_one_fit_and_one_weight_estimate_per_classifier(self, monkeypatch):
        fits = count_calls(monkeypatch, scoring.fit_score)
        estimates = count_calls(monkeypatch, weights.estimate_sparsity)
        cfg = paper_synthetic_config(m=500, p=5, mu=3.0)
        table = replication_table(REPLICATE_METHODS, cfg, reps=3, master_seed=1, alpha=0.1)
        assert not np.isnan(table).any()
        # OCC/gaussian and OCC/kde, each fitted and weighted once per replication
        assert len(fits) == 2 * 3
        assert len(estimates) == 2 * 3

    def test_ptams_reuses_the_scq_run(self, monkeypatch):
        # one threshold each for the scq run, the bc-unweighted run and
        # ptams's two pseudo counts; ptams's final run is the scq run
        traces = []

        def recording_ptams(*args, **kwargs):
            trace, result = modelselect.ptams(*args, **kwargs)
            traces.append(trace)
            return trace, result

        monkeypatch.setattr(bench, "ptams", recording_ptams)
        calibrations = count_calls(monkeypatch, conformal.bc_threshold)
        cfg = paper_synthetic_config(m=500, p=5, mu=3.0)
        _, outcomes = _replicate_once((tuple(REPLICATE_METHODS), cfg, 0.1, 0.5, 1, 0))
        assert not any(isinstance(o, Exception) for o in outcomes)
        assert traces[0].selected == 1  # OCC/gaussian, the scq method's classifier
        assert outcomes[-1] == outcomes[0]
        assert len(calibrations) == 4

    def test_bad_weight_setting_fails_when_built(self):
        for setting in ({"bandwidth": -1.0}, {"mode": "structur"}, {"lam": 0.0}):
            with pytest.raises(ConfigError):
                MethodSpec(
                    name="scq", pipeline="scq", classifier=GAUSS, weight_cfg=WeightConfig(**setting)
                )


class TestMethodKeys:
    """METHOD_KEYS lists exactly the keys MethodSpec.from_dict reads."""

    NON_DEFAULT = {
        "classifier": KDE.to_dict(),
        "toolbox": [KDE.to_dict()],
        "weight_mode": "unit",
        "lambda": 0.3,
        "bandwidth": 0.5,
        "storey": False,
        "alpha0": 0.2,
        "lambda_grid": [0.2],
    }

    @staticmethod
    def base(pipeline):
        needed = METHOD_KEYS[pipeline][0]
        spec = GAUSS.to_dict()
        return {"pipeline": pipeline, needed: spec if needed == "classifier" else [spec]}

    @pytest.mark.parametrize("pipeline", sorted(METHOD_KEYS))
    def test_no_listed_key_is_dead(self, pipeline):
        base = self.base(pipeline)
        default = MethodSpec.from_dict(base)
        for key in METHOD_KEYS[pipeline]:
            assert MethodSpec.from_dict({**base, key: self.NON_DEFAULT[key]}) != default, key

    @pytest.mark.parametrize("pipeline", sorted(METHOD_KEYS))
    def test_every_other_key_is_rejected(self, pipeline):
        base = self.base(pipeline)
        for key in sorted(set(self.NON_DEFAULT) - set(METHOD_KEYS[pipeline])) + ["lamda"]:
            with pytest.raises(ConfigError, match=re.escape(f"[{key!r}]")):
                MethodSpec.from_dict({**base, key: self.NON_DEFAULT.get(key, 0.3)})


class TestConfigBuilders:
    def test_paper_scale_is_exact_at_3000(self):
        cfg = paper_synthetic_config(m=3000, p=5, mu=2.0)
        blocks = [(b.lo, b.hi, b.pi) for b in cfg.sparsity_blocks]
        assert blocks == [
            (201, 300, 0.6),
            (601, 700, 0.6),
            (1000, 1100, 0.9),
            (1400, 1500, 0.9),
        ]
        assert cfg.null_pool_size == 5000
        comps = [(c.lo, c.hi, c.scale) for c in cfg.alt_components]
        assert comps == [(1, 1500, 1.0), (1501, 3000, 0.5)]
        np.testing.assert_array_equal(cfg.alt_components[1].mean, np.full(5, -2.0))

    def test_paper_scale_downscales(self):
        cfg = paper_synthetic_config(m=500, p=2, mu=1.0, null_pool_size=1200)
        assert cfg.m == 500 and cfg.null_pool_size == 1200
        assert all(1 <= b.lo <= b.hi <= 500 for b in cfg.sparsity_blocks)
        assert cfg.alt_components[0].hi == 250

    def test_attainment_scaling(self):
        cfg = attainment_config(1000)
        assert cfg.p == 1
        mu = float(cfg.alt_components[0].mean[0])
        assert mu == pytest.approx(np.sqrt(2 * 1.25 * np.log(1000) ** 1.25))
        pis = sorted({b.pi for b in cfg.sparsity_blocks})
        assert pis[1] == pytest.approx(1000 ** -0.1)
        assert pis[0] == pytest.approx(2 / 3 * 1000 ** -0.1)
        widths = {b.hi - b.lo + 1 for b in cfg.sparsity_blocks}
        assert widths == {34}  # ceil(1000/30)


class TestOutputs:
    def test_csv_and_json(self, tmp_path):
        rows = compare([SCQ_GAUSS], tiny_config(), reps=3, master_seed=6)
        rows_to_csv(rows, tmp_path / "m.csv")
        doc = {"rows": [row.to_dict() for row in rows], "param_value": 2.0}
        _write_json(tmp_path / "m.json", doc)
        header = (tmp_path / "m.csv").read_text().splitlines()[0]
        assert header == "method,fdr,fdr_se,ap,ap_se,etp,etp_se,reps"
        import json

        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["param_value"] == 2.0
        assert doc["rows"][0]["method"] == "scq-gauss"
        assert [MetricsRow.from_dict(row) for row in doc["rows"]] == rows

    def test_long_format(self, tmp_path):
        rows = compare([SCQ_GAUSS], tiny_config(), reps=2, master_seed=7)
        records = long_rows(rows, param_value=1.5)
        assert [r[2] for r in records] == ["fdr", "ap", "etp"]
        assert all(r[1] == 1.5 for r in records)
        write_long_csv(records, tmp_path / "long.csv")
        lines = (tmp_path / "long.csv").read_text().splitlines()
        assert lines[0] == "method,param_value,metric,value,se"
        assert len(lines) == 4
