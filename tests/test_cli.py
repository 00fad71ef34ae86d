"""Command-line contract: exit codes, artifacts, determinism."""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scq
from cli_artifacts import compare as compare_artifacts
from helpers import count_calls
from scq.cli import main
from scq.scoring import fit_score
from scq.weights import estimate_sparsity


SYNTHETIC = {
    "m": 40,
    "p": 2,
    "sparsity_blocks": [{"interval": [1, 10], "pi": 0.9}],
    "background_pi": 0.01,
    "alt_components": [{"interval": [1, 40], "mean": 3.0, "scale": 1.0}],
    "null_pool_size": 80,
}


@pytest.fixture
def simulate_config(tmp_path):
    cfg = {
        "synthetic": SYNTHETIC,
        "methods": [
            {
                "name": "scq-gauss",
                "pipeline": "scq",
                "classifier": {"family": "OCC", "method": "gaussian"},
            }
        ],
        "alpha": 0.05,
        "reps": 2,
        "seed": 12,
        "threads": 1,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return path


def write_signal_csv(path, fixture_seed=5, n_pool=400, m=60, n_plant=35):
    rng = np.random.default_rng(fixture_seed)
    lines = ["__role__,__label__,f0,f1,f2"]
    for row in rng.standard_normal((n_pool, 3)):
        lines.append("train-null,," + ",".join(repr(float(v)) for v in row))
    planted = sorted(rng.choice(m, size=n_plant, replace=False).tolist())
    test_rows = rng.standard_normal((m, 3))
    test_rows[planted] += 10.0
    for row in test_rows:
        lines.append("test,," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return {j + 1 for j in planted}


@pytest.fixture
def infer_config(tmp_path):
    path = tmp_path / "infer.json"
    path.write_text(
        json.dumps(
            {"classifier": {"family": "OCC", "method": "gaussian"}, "alpha": 0.05, "seed": 3}
        )
    )
    return path


@pytest.fixture
def select_config(tmp_path):
    path = tmp_path / "select.json"
    path.write_text(
        json.dumps(
            {
                "toolbox": [
                    {"family": "OCC", "method": "gaussian"},
                    {"family": "OCC", "method": "kde"},
                ],
                "alpha": 0.05,
                "seed": 3,
            }
        )
    )
    return path


class TestSimulate:
    def test_smoke(self, tmp_path, simulate_config):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(simulate_config), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "metrics.json").exists()

    def test_bad_alpha_exit_one(self, tmp_path, simulate_config, capsys):
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--config", str(simulate_config), "--out", str(out), "--alpha", "1.5"]
        )
        assert rc == 1
        assert "alpha" in capsys.readouterr().err

    def test_negative_threads_flag_exit_one(self, tmp_path, simulate_config, capsys):
        argv = ["simulate", "--config", str(simulate_config), "--out", str(tmp_path / "out")]
        assert main(argv + ["--threads", "-1"]) == 1
        assert "'threads' must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exit_one(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1

    def test_replication_collapse_exit_two(self, tmp_path, simulate_config, capsys):
        # a toolbox of binary classifiers cannot fit synthetic data (no
        # labeled outliers), so every replication fails
        doc = json.loads(simulate_config.read_text())
        doc["methods"] = [
            {
                "name": "doomed",
                "pipeline": "ptams",
                "toolbox": [{"family": "BIC", "method": "logistic"}],
            }
        ]
        cfg = tmp_path / "doomed.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_uncovered_signal_index_exit_one_at_every_seed(self, tmp_path, simulate_config, capsys):
        # an index with pi > 0 and no component is an error before any draw,
        # not only at the seeds whose draw puts a signal there
        doc = json.loads(simulate_config.read_text())
        doc["synthetic"] = {**SYNTHETIC, "m": 20, "sparsity_blocks": [], "alt_components": []}
        cfg = tmp_path / "uncovered.json"
        cfg.write_text(json.dumps({**doc, "reps": 1}))
        for seed in range(10):
            argv = ["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(tmp_path / "out")]
            assert main(argv) == 1
            assert "no alternative component covers it" in capsys.readouterr().err

    def test_null_only_config_runs(self, tmp_path, simulate_config):
        doc = json.loads(simulate_config.read_text())
        doc["synthetic"] = {"m": 20, "p": 2, "background_pi": 0.0, "null_pool_size": 60}
        cfg = tmp_path / "null.json"
        cfg.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_seed_reproducibility(self, tmp_path, simulate_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(simulate_config), "--out", str(out1), "--seed", "77"])
        main(["simulate", "--config", str(simulate_config), "--out", str(out2), "--seed", "77"])
        assert filecmp.cmp(out1 / "metrics.csv", out2 / "metrics.csv", shallow=False)
        assert filecmp.cmp(out1 / "metrics.json", out2 / "metrics.json", shallow=False)


class TestInfer:
    def test_planted_outliers_rejected(self, tmp_path, infer_config):
        data = tmp_path / "signal.csv"
        planted = write_signal_csv(data)
        out = tmp_path / "out"
        rc = main(["infer", str(data), "--config", str(infer_config), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert planted <= set(report["rejected"])
        assert report["alpha"] == 0.05
        assert len(report["qvalues"]) == 60
        diag = (out / "weights.csv").read_text().splitlines()
        assert diag[0] == "unit,side,pi_raw,pi_clipped,weight"
        assert len(diag) == 61

    def test_strong_null_rejects_nothing(self, tmp_path, infer_config):
        # test rows identical to null rows: constant scores, p-values all 1
        data = tmp_path / "null.csv"
        lines = ["__role__,f0,f1"]
        lines += ["train-null,1.0,2.0"] * 40
        lines += ["test,1.0,2.0"] * 10
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["infer", str(data), "--config", str(infer_config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rejected"] == []
        assert report["tau"] is None

    def test_weights_estimated_once(self, tmp_path, infer_config, monkeypatch):
        # weights.csv is written from the estimate the run already made
        data = tmp_path / "signal.csv"
        write_signal_csv(data)
        calls = count_calls(monkeypatch, estimate_sparsity)
        out = tmp_path / "out"
        assert main(["infer", str(data), "--config", str(infer_config), "--out", str(out)]) == 0
        assert len(calls) == 1
        assert (out / "weights.csv").exists()

    @pytest.mark.parametrize("method", ["gaussian", "kde"])
    def test_huge_features_exit_two(self, tmp_path, method, capsys):
        # finite features near 1e160 overflow the fit: exit 2, no traceback
        data = tmp_path / "huge.csv"
        write_signal_csv(data)
        lines = data.read_text().splitlines()
        rows = [",".join(c if i < 2 else repr(float(c) * 1e160) for i, c in enumerate(line.split(",")))
                for line in lines[1:]]
        data.write_text("\n".join([lines[0]] + rows) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classifier": {"family": "OCC", "method": method}}))
        rc = main(["infer", str(data), "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("failure:")

    def test_constant_scores_exit_two(self, tmp_path, capsys):
        # a bandwidth this small floors every row's density: no ranking
        data = tmp_path / "signal.csv"
        write_signal_csv(data)
        cfg = tmp_path / "cfg.json"
        kde = {"family": "OCC", "method": "kde", "hyperparams": {"bandwidth": 1e-12}}
        cfg.write_text(json.dumps({"classifier": kde}))
        rc = main(["infer", str(data), "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("failure: OCC/kde scores every row alike")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_side_exit_one(self, tmp_path, infer_config, monkeypatch, capsys, bad):
        # a non-finite position is rejected when the CSV is read, before any fit
        data = tmp_path / "side.csv"
        write_signal_csv(data)
        lines = data.read_text().splitlines()
        sides = iter([str(float(j)) for j in range(1, 60)] + [bad])
        rows = [line.replace(",,", f",,{next(sides)}," if line.startswith("test") else ",,,", 1)
                for line in lines[1:]]
        data.write_text("\n".join(["__role__,__label__,__side__,f0,f1,f2"] + rows) + "\n")
        fits = count_calls(monkeypatch, fit_score)
        rc = main(["infer", str(data), "--config", str(infer_config), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert fits == []
        err = capsys.readouterr().err
        assert err.startswith("error: positional side info must be finite")
        assert f"unit 60 is {float(bad)}" in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_data_exit_one(self, tmp_path, infer_config, capsys, kind):
        data = tmp_path / "data.csv"
        if kind == "directory":
            data.mkdir()
        elif kind == "not-utf8":
            data.write_bytes("__role__,f0\ntest,0.5\n# caf\u00e9\n".encode("latin-1"))
        rc = main(["infer", str(data), "--config", str(infer_config), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read data file {data}") and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_exit_one(self, tmp_path, capsys, kind):
        data, cfg = tmp_path / "signal.csv", tmp_path / "cfg.json"
        write_signal_csv(data)
        if kind == "directory":
            cfg.mkdir()
        elif kind == "not-utf8":
            cfg.write_bytes('{"classifier": "caf\u00e9"}'.encode("latin-1"))
        rc = main(["infer", str(data), "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {cfg}") and "Traceback" not in err

    @pytest.mark.parametrize("bom_file", ["data", "config"])
    def test_utf8_byte_order_mark_reads_the_same(self, tmp_path, infer_config, bom_file):
        # spreadsheet exports often start with a UTF-8 BOM
        data = tmp_path / "signal.csv"
        write_signal_csv(data)
        argv = ["infer", str(data), "--config", str(infer_config)]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
        path = data if bom_file == "data" else infer_config
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(argv + ["--out", str(tmp_path / "bom")]) == 0
        for name in ("report.json", "weights.csv"):
            assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_no_test_rows_exit_one(self, tmp_path, infer_config, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("__role__,f0\n" + "\n".join(["train-null,0.5"] * 5) + "\n")
        rc = main(["infer", str(data), "--config", str(infer_config)])
        assert rc == 1
        assert "no test rows" in capsys.readouterr().err

    def test_outliers_without_nulls_exit_one(self, tmp_path, infer_config, capsys):
        # the empty block of train-null rows keeps the width of the outlier rows
        data = tmp_path / "outliers-only.csv"
        data.write_text("__role__,f0,f1\ntrain-outlier,5.0,5.0\n" + "test,0.5,0.5\n" * 3)
        rc = main(["infer", str(data), "--config", str(infer_config), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error: need at least m + 2 = 5 inliers, have 0\n"


class TestSelect:
    def test_single_candidate_matches_infer(self, tmp_path, infer_config):
        data = tmp_path / "signal.csv"
        write_signal_csv(data)
        single = tmp_path / "single.json"
        single.write_text(
            json.dumps(
                {
                    "toolbox": [{"family": "OCC", "method": "gaussian"}],
                    "alpha": 0.05,
                    "seed": 3,
                }
            )
        )
        out_s, out_i = tmp_path / "sel", tmp_path / "inf"
        assert main(["select", str(data), "--config", str(single), "--out", str(out_s)]) == 0
        assert main(["infer", str(data), "--config", str(infer_config), "--out", str(out_i)]) == 0
        trace = json.loads((out_s / "trace.json").read_text())
        assert trace["selected"] == 1
        assert filecmp.cmp(out_s / "report.json", out_i / "report.json", shallow=False)

    def test_bic_without_outliers_excluded(self, tmp_path):
        data = tmp_path / "signal.csv"
        write_signal_csv(data)
        cfg = tmp_path / "mixed.json"
        cfg.write_text(
            json.dumps(
                {
                    "toolbox": [
                        {"family": "BIC", "method": "logistic"},
                        {"family": "OCC", "method": "gaussian"},
                    ],
                    "seed": 3,
                }
            )
        )
        out = tmp_path / "out"
        assert main(["select", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert trace["candidates"][0]["r_k"] == -1
        assert trace["selected"] == 2

    def test_all_candidates_failed_exit_two(self, tmp_path, capsys):
        data = tmp_path / "signal.csv"
        write_signal_csv(data)
        cfg = tmp_path / "bic.json"
        cfg.write_text(
            json.dumps({"toolbox": [{"family": "BIC", "method": "knn"}], "seed": 3})
        )
        assert main(["select", str(data), "--config", str(cfg)]) == 2

    def test_plus_singleton_grid_matches_plain(self, tmp_path, select_config):
        data = tmp_path / "signal.csv"
        write_signal_csv(data)
        cfg = tmp_path / "plus.json"
        doc = json.loads(select_config.read_text())
        doc["lambda_grid"] = [0.1]
        cfg.write_text(json.dumps(doc))
        out_a, out_b = tmp_path / "plain", tmp_path / "plus"
        assert main(["select", str(data), "--config", str(select_config), "--out", str(out_a)]) == 0
        assert main(["select", str(data), "--config", str(cfg), "--plus", "--out", str(out_b)]) == 0
        assert filecmp.cmp(out_a / "report.json", out_b / "report.json", shallow=False)
        trace = json.loads((out_b / "trace.json").read_text())
        assert trace["lambda_star"] == 0.1

    def test_select_deterministic(self, tmp_path, select_config):
        data = tmp_path / "signal.csv"
        write_signal_csv(data)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["select", str(data), "--config", str(select_config), "--out", str(out1)])
        main(["select", str(data), "--config", str(select_config), "--out", str(out2)])
        assert filecmp.cmp(out1 / "trace.json", out2 / "trace.json", shallow=False)
        assert filecmp.cmp(out1 / "report.json", out2 / "report.json", shallow=False)


GAUSS = {"family": "OCC", "method": "gaussian"}
# (command, extra flags, config keys), each with one value of the wrong type
MISTYPED = {
    "plus-grid-scalar": ("select", ["--plus"], {"toolbox": [GAUSS], "lambda_grid": 0.2}),
    "plus-grid-word": ("select", ["--plus"], {"toolbox": [GAUSS], "lambda_grid": ["0.2", "x"]}),
    "infer-lambda": ("infer", [], {"classifier": GAUSS, "lambda": "abc"}),
    "infer-alpha-string": ("infer", [], {"classifier": GAUSS, "alpha": "0.1"}),
    "infer-train-frac-null": ("infer", [], {"classifier": GAUSS, "train_frac": None}),
    "infer-bandwidth": ("infer", [], {"classifier": GAUSS, "bandwidth": "wide"}),
    "infer-knn-k": (
        "infer", [], {"classifier": {"family": "OCC", "method": "knn", "hyperparams": {"k": "many"}}}
    ),
    "simulate-grid-string": (
        "simulate", [], {"methods": [{"pipeline": "ptams_plus", "toolbox": [GAUSS], "lambda_grid": "0.1"}]}
    ),
    "simulate-bandwidth": (
        "simulate", [], {"methods": [{"pipeline": "scq", "classifier": GAUSS, "bandwidth": "wide"}]}
    ),
    # a flag must be a JSON boolean: "false" is a string, and bool("false") is True
    "simulate-storey-string": (
        "simulate", [], {"methods": [{"pipeline": "cfbh", "classifier": GAUSS, "storey": "false"}]}
    ),
    "infer-jitter-string": ("infer", [], {"classifier": GAUSS, "jitter": "false"}),
    # integer settings must be integral, not truncated
    "simulate-reps-fraction": ("simulate", [], {"reps": 2.5}),
    "simulate-seed-fraction": ("simulate", [], {"seed": 2.5}),
    "simulate-threads-fraction": ("simulate", [], {"threads": 1.5}),
    "infer-seed-fraction": ("infer", [], {"classifier": GAUSS, "seed": 2.5}),
    # synthetic fields are numbers of the right kind, and no other key is read
    "synthetic-m-string": ("simulate", [], {"synthetic": {**SYNTHETIC, "m": "40"}}),
    "synthetic-p-fraction": ("simulate", [], {"synthetic": {**SYNTHETIC, "p": 2.9}}),
    "synthetic-pi-string": (
        "simulate", [], {"synthetic": {**SYNTHETIC, "sparsity_blocks": [{"interval": [1, 10], "pi": "0.9"}]}}
    ),
    "synthetic-interval-fraction": (
        "simulate", [], {"synthetic": {**SYNTHETIC, "sparsity_blocks": [{"interval": [1.9, 10], "pi": 0.9}]}}
    ),
    "synthetic-key-typo": (
        "simulate", [], {"synthetic": {**SYNTHETIC, "sparsity_block": [{"interval": [1, 10], "pi": 0.9}]}}
    ),
    "synthetic-seed": ("simulate", [], {"synthetic": {**SYNTHETIC, "seed": 7}}),
    # hyperparams a method does not read, and values outside their range
    "infer-kde-bandwidth-typo": (
        "infer", [], {"classifier": {"family": "OCC", "method": "kde", "hyperparams": {"bandwith": 0.05}}}
    ),
    "infer-knn-k-negative": (
        "infer", [], {"classifier": {"family": "OCC", "method": "knn", "hyperparams": {"k": -5}}}
    ),
    "infer-knn-k-fraction": (
        "infer", [], {"classifier": {"family": "OCC", "method": "knn", "hyperparams": {"k": 2.5}}}
    ),
    "infer-iterations-zero": (
        "infer", [], {"classifier": {"family": "PUC", "method": "pu-logistic", "hyperparams": {"iterations": 0}}}
    ),
    "infer-step-negative": (
        "infer", [], {"classifier": {"family": "PUC", "method": "pu-logistic", "hyperparams": {"step": -0.1}}}
    ),
    "select-toolbox-bandwidth-negative": (
        "select", [], {"toolbox": [GAUSS, {"family": "OCC", "method": "kde", "hyperparams": {"bandwidth": -1}}]}
    ),
    "select-bandwidth-negative": ("select", [], {"toolbox": [GAUSS], "bandwidth": -1}),
    "infer-bandwidth-negative": ("infer", [], {"classifier": GAUSS, "bandwidth": -1}),
    # a classifier section or toolbox entry must be a JSON object
    "infer-classifier-string": ("infer", [], {"classifier": "OCC/gaussian"}),
    "select-toolbox-entry-string": ("select", [], {"toolbox": [GAUSS, "OCC/kde"]}),
    "select-toolbox-object": ("select", ["--plus"], {"toolbox": {"OCC/gaussian": GAUSS}}),
    # keys nothing reads: the error names the key (UNREAD)
    "infer-lambda-typo": ("infer", [], {"classifier": GAUSS, "lamda": 0.3}),
    "plus-lambda": ("select", ["--plus"], {"toolbox": [GAUSS], "lambda": 0.3}),
    "select-lambda-grid": ("select", [], {"toolbox": [GAUSS], "lambda_grid": [0.1]}),
    "select-jitter": ("select", [], {"toolbox": [GAUSS], "jitter": True}),
    "simulate-scq-storey": (
        "simulate", [], {"methods": [{"pipeline": "scq", "classifier": GAUSS, "storey": False}]}
    ),
    # only simulated data carries the true signal frequencies oracle weights need
    "infer-oracle": ("infer", [], {"classifier": GAUSS, "weight_mode": "oracle"}),
    "select-oracle": ("select", [], {"toolbox": [GAUSS], "weight_mode": "oracle"}),
    # every section is read against one table of keys and JSON kinds
    "infer-hyperparam-typo": (
        "infer", [], {"classifier": {"family": "OCC", "method": "kde", "hyperparam": {"bandwidth": 0.05}}}
    ),
    "simulate-rep-typo": ("simulate", [], {"rep": 2}),
    "infer-out-number": ("infer", [], {"classifier": GAUSS, "out": 5}),
    "simulate-config-number": ("simulate", [], 5),
    "simulate-methods-number": ("simulate", [], {"methods": 5}),
    "simulate-method-name-number": (
        "simulate", [], {"methods": [{"name": 5, "pipeline": "scq", "classifier": GAUSS}]}
    ),
    "select-toolbox-name-number": ("select", [], {"toolbox": [{**GAUSS, "name": 5}]}),
    "simulate-param-value-object": ("simulate", [], {"param_value": {"a": 1}}),
    # a seed must be non-negative, whether a flag or a config key sets it
    "infer-seed-flag-negative": ("infer", ["--seed", "-1"], {"classifier": GAUSS}),
    "select-seed-negative": ("select", [], {"toolbox": [GAUSS], "seed": -1}),
    "simulate-seed-negative": ("simulate", [], {"seed": -1}),
    # 0 threads is one worker per CPU; a negative count is not a count
    "simulate-threads-negative": ("simulate", [], {"threads": -3}),
    # a JSON integer too large for a float is not a number
    "infer-lambda-beyond-float": ("infer", [], {"classifier": GAUSS, "lambda": 10**400}),
}
UNREAD = {
    "infer-lambda-typo": "lamda",
    "plus-lambda": "lambda",
    "select-lambda-grid": "lambda_grid",
    "select-jitter": "jitter",
    "simulate-scq-storey": "storey",
    "infer-hyperparam-typo": "hyperparam",
    "simulate-rep-typo": "rep",
}
# the key a mistyped value's error names
NAMED = {
    "infer-out-number": "out",
    "simulate-methods-number": "methods",
    "simulate-method-name-number": "name",
    "select-toolbox-name-number": "name",
    "simulate-param-value-object": "param_value",
    "infer-lambda-beyond-float": "lambda",
    "infer-seed-flag-negative": "seed",
    "select-seed-negative": "seed",
    "simulate-seed-negative": "seed",
    "simulate-threads-negative": "threads",
}


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_mistyped_config_value_exit_one(tmp_path, simulate_config, capsys, case):
    command, flags, doc = MISTYPED[case]
    if command == "simulate":
        doc = {**json.loads(simulate_config.read_text()), **doc} if isinstance(doc, dict) else doc
        argv = [command]
    else:
        write_signal_csv(tmp_path / "signal.csv")
        argv = [command, str(tmp_path / "signal.csv"), *flags]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    if case in UNREAD:
        assert f"[{UNREAD[case]!r}]" in err
    if case in NAMED:
        assert repr(NAMED[case]) in err


SCQ_METHOD = {"name": "scq-gauss", "pipeline": "scq", "classifier": GAUSS}
PTAMS_METHOD = {"name": "sel", "pipeline": "ptams", "toolbox": [GAUSS]}
PLUS_METHOD = {"name": "plus", "pipeline": "ptams_plus", "toolbox": [GAUSS]}


@pytest.mark.parametrize(
    "setting",
    [
        {**SCQ_METHOD, "bandwidth": -1},
        {**SCQ_METHOD, "weight_mode": "structur"},
        {**SCQ_METHOD, "lambda": 1.5},
        {**PLUS_METHOD, "lambda_grid": [1.5]},
        {**PLUS_METHOD, "lambda_grid": []},
        {**PLUS_METHOD, "alpha0": 1.5},
        {**PTAMS_METHOD, "alpha0": 1.5},
    ],
)
def test_bad_weight_setting_stops_before_any_replication(
    tmp_path, simulate_config, capsys, monkeypatch, setting
):
    fits = count_calls(monkeypatch, fit_score)
    doc = json.loads(simulate_config.read_text())
    doc["methods"] = [setting]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert fits == []


class TestReport:
    def test_merges_metrics(self, tmp_path, simulate_config):
        art = tmp_path / "art"
        main(["simulate", "--config", str(simulate_config), "--out", str(art / "run1")])
        assert main(["report", str(art), "--out", str(tmp_path / "rep")]) == 0
        summary = (tmp_path / "rep" / "summary.txt").read_text()
        assert "scq-gauss" in summary
        lines = (tmp_path / "rep" / "long.csv").read_text().splitlines()
        assert lines[0] == "method,param_value,metric,value,se"
        assert len(lines) == 4

    def test_empty_dir_exit_one(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["report", str(empty)]) == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"rows": [{"method": "x"}]},
            {"rows": 5},
            {"rows": [5]},
            {"rows": [{"method": "x", "fdr": "low", "fdr_se": 0, "ap": 0, "ap_se": 0,
                       "etp": 0, "etp_se": 0, "reps": 1}]},
        ],
    )
    def test_malformed_metrics_exit_one(self, tmp_path, capsys, doc):
        art = tmp_path / "art"
        art.mkdir()
        (art / "metrics.json").write_text(json.dumps(doc))
        assert main(["report", str(art)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt artifact {art / 'metrics.json'}")

    def test_sweep_param_values(self, tmp_path, simulate_config):
        art = tmp_path / "art"
        doc = json.loads(simulate_config.read_text())
        for mu in (1.0, 2.0):
            doc["param_value"] = mu
            doc["synthetic"]["alt_components"][0]["mean"] = mu
            cfg = tmp_path / f"sim{mu}.json"
            cfg.write_text(json.dumps(doc))
            main(["simulate", "--config", str(cfg), "--out", str(art / f"mu{mu}")])
        assert main(["report", str(art), "--out", str(tmp_path / "rep")]) == 0
        lines = (tmp_path / "rep" / "long.csv").read_text().splitlines()[1:]
        params = {line.split(",")[1] for line in lines}
        assert params == {"1.0", "2.0"}


def test_cli_import_loads_numpy_only():
    # scq depends on numpy alone; scipy is needed by the tests only, the
    # process pool only by simulate runs with more than one worker, and
    # numpy.ma (1.5 MB resident) by nothing
    unwanted = ("scipy", "multiprocessing", "concurrent.futures.process", "numpy.ma")
    code = (
        "import scq.cli, sys; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {unwanted!r} "
        f"or m in {unwanted!r}))"
    )
    src = str(Path(scq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


TAU = 0.11377854600095694


def write_artifacts(root, tau=TAU, qvalues=(0.5, 1.0), side="1.0", weight=0.048117375808041526):
    """A hand-made ``tests/cli_artifacts.py`` output: one infer run."""
    run = root / "infer"
    run.mkdir(parents=True)
    report = {"alpha": 0.1, "tau": tau, "rejected": [1], "qvalues": list(qvalues), "num_tied_pairs": 0}
    (run / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    rows = ["unit,side,pi_raw,pi_clipped,weight", f"1,{side},0.02,0.02,{weight!r}", "2,2.0,0.5,0.5,1.0"]
    (run / "weights.csv").write_bytes("".join(row + "\r\n" for row in rows).encode())
    (run / "console.txt").write_text("exit 0\n--- stdout\ninfer: rejected 1 of 2 test units\n")
    return root


class TestArtifactCompare:
    """``tests/cli_artifacts.py --compare``: last bits of tau and the weights
    may move within the bound, nothing else may."""

    @pytest.mark.parametrize(
        "change, moved",
        [
            ({}, None),
            ({"tau": float(np.nextafter(TAU, 1.0))}, "infer/report.json"),
            ({"weight": float(np.nextafter(0.048117375808041526, 0.0))}, "infer/weights.csv"),
        ],
        ids=["identical", "tau 1 ulp", "weight 1 ulp"],
    )
    def test_last_bits_are_reported_and_pass(self, tmp_path, capsys, change, moved):
        a, b = write_artifacts(tmp_path / "a"), write_artifacts(tmp_path / "b", **change)
        assert compare_artifacts(a, b) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ([moved] if moved else [])
        for line in lines:
            change = float(line.split("largest relative change ")[1].split()[0])
            assert 0 < change < 2**-52

    @pytest.mark.parametrize(
        "change",
        [{"qvalues": (0.5, 0.9)}, {"side": "1.5"}, {"tau": TAU * (1 + 1e-9)}, {"tau": None}],
        ids=["q-value", "side", "tau beyond the bound", "tau null"],
    )
    def test_other_changes_fail(self, tmp_path, capsys, change):
        a, b = write_artifacts(tmp_path / "a"), write_artifacts(tmp_path / "b", **change)
        assert compare_artifacts(a, b) == 1
        assert capsys.readouterr().out.startswith("infer/")

    def test_missing_and_changed_files_fail(self, tmp_path):
        a, b = write_artifacts(tmp_path / "a"), write_artifacts(tmp_path / "b")
        (b / "infer" / "trace.json").write_text("{}\n")
        (b / "infer" / "console.txt").write_text("exit 1\n")
        script = Path(__file__).with_name("cli_artifacts.py")
        src = str(Path(scq.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, str(script), "--compare", str(a), str(b)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        assert done.stdout.splitlines() == [
            "infer/console.txt: differs", f"infer/trace.json: only in {b}"
        ]
