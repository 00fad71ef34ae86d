"""Smoke test of the benchmark: every workload at tiny m, untraced and traced.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY_M = "200"
E2E_PRINTED = tuple(run.END_TO_END) + ("failed_frac",)
LAYER_PRINTED = (
    "weights.estimate_s", "weights.calls", "weights.units", "weights.clipped_frac",
    "scoring.fit_s", "scoring.fit_calls", "scoring.score_s", "scoring.rows_scored",
    "scoring.pair_evals", "scoring.rss_growth_mb",
    "conformal.pvalues_s", "conformal.calibrate_s", "conformal.tied_pairs",
    "pipeline.self_s", "pipeline.weighted_pairs_s",
    "modelselect.self_s", "modelselect.candidate_fits", "modelselect.pseudo_s",
    "datamodel.load_csv_s", "datamodel.generate_s", "cli.self_s", "cli.write_s",
    "bench.self_s", "bench.failed_reps", "trace.overhead_frac",
)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def printed_metrics(stdout: str) -> dict:
    """``{name: unit}`` from the human-readable lines before the JSON line."""
    found = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            float(parts[1])
            found[parts[0]] = parts[2]
    return found


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_prints_every_metric_and_passes_checks(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--m", TINY_M)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1

    wanted = run.PER_LAYER if trace == "1" else tuple(run.END_TO_END)
    assert tuple(result["metrics"]) == wanted
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]

    printed = printed_metrics(done.stdout)
    expected = LAYER_PRINTED if trace == "1" else E2E_PRINTED
    if trace == "0" and workload == "replicate-500":
        expected += ("solve_p90_s",)
    missing = [name for name in expected if name not in printed]
    assert not missing, done.stdout
    if trace == "1":
        assert "absent spans" not in done.stdout


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_the_sources():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "replicate-500", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
