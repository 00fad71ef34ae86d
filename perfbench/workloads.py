"""The three benchmark workloads, their inputs and their correctness checks.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
solve in :meth:`solve` (the only timed call), turns the solve's public
result into a JSON-comparable document in :meth:`output`, and checks that
document in :meth:`check`.  All inputs come from
``bench.paper_synthetic_config(m, p=5, mu=3.0)``.  Why each workload
exists, and why ``select`` runs at m=1000, is in ``README.md`` here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from scq import bench, cli, modelselect
from scq.datamodel import (
    InferenceData,
    SideInfo,
    TestSet,
    generate_hierarchical,
    save_csv,
    split_nulls,
)
from scq.modelselect import CoinStream, Toolbox
from scq.scoring import ClassifierSpec

ALPHA = 0.1
P = 5
MU = 3.0
GROUP_WIDTH = 100

GAUSSIAN = ClassifierSpec("OCC", "gaussian")
KDE = ClassifierSpec("OCC", "kde")
KDE_RATIO = ClassifierSpec("PUC", "kde-ratio")


def _generate(seed: int, m: int, k: int = 0):
    cfg = bench.paper_synthetic_config(m, p=P, mu=MU)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1, k]))
    return generate_hierarchical(cfg, rng)


def report_problems(report: dict, alpha: float) -> list:
    """Checks on a ``report_dict()`` / ``report.json`` document."""
    problems = []
    expected = [j for j, q in enumerate(report["qvalues"], start=1) if q <= alpha]
    if report["rejected"] != expected:
        problems.append("rejected differs from {j : q_j <= alpha}")
    if (report["tau"] is None) != (len(report["rejected"]) == 0):
        problems.append("tau is null but |R| > 0, or set with |R| = 0")
    return problems


def true_positive_frac(rejected, truth: np.ndarray) -> float:
    hits = sum(1 for j in rejected if truth[j - 1])
    return hits / max(1, int(truth.sum()))


class Workload:
    """One closed-loop workload; the benchmark process is its only client."""

    name = ""
    default_m = 0
    report_p90 = False
    # every solve reads the same inputs, so every output must be equal
    same_input_each_solve = True

    def __init__(self, m=None):
        self.m = int(m or self.default_m)

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def solve(self, i: int):
        raise NotImplementedError

    def output(self, i: int, raw) -> dict:
        raise NotImplementedError

    def units(self, out: dict) -> int:
        return self.m

    def check(self, out: dict) -> list:
        return report_problems(out["report"], ALPHA)

    def power(self, i: int, out: dict) -> float:
        raise NotImplementedError

    def run_problems(self, outputs: list) -> list:
        """Checks over every good output of a run."""
        return []


class InferKernel(Workload):
    name = "infer-kernel-10k"
    default_m = 10000

    def setup(self, seed, workdir):
        pool, test = _generate(seed, self.m)
        self.truth = test.truth
        workdir.mkdir(parents=True, exist_ok=True)
        self.csv = workdir / "data.csv"
        save_csv(pool, test, self.csv)
        self.config = workdir / "infer.json"
        doc = {
            "classifier": GAUSSIAN.to_dict(),
            "weight_mode": "structure",
            "lambda": 0.1,
            "alpha": ALPHA,
            "seed": seed,
        }
        self.config.write_text(json.dumps(doc), encoding="utf-8")
        self.out_dir = workdir / "infer-out"

    def solve(self, i):
        argv = ["infer", str(self.csv), "--config", str(self.config), "--out", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def output(self, i, raw):
        if raw != 0:
            return {"exit_code": raw}
        report = json.loads((self.out_dir / "report.json").read_text(encoding="utf-8"))
        weights_csv = (self.out_dir / "weights.csv").read_bytes()
        return {
            "exit_code": raw,
            "report": report,
            "weights_csv_sha256": hashlib.sha256(weights_csv).hexdigest(),
        }

    def check(self, out):
        if out["exit_code"] != 0:
            return [f"scq infer exited with code {out['exit_code']}"]
        return report_problems(out["report"], ALPHA)

    def power(self, i, out):
        return true_positive_frac(out["report"]["rejected"], self.truth)


class SelectGroup(Workload):
    name = "select-group-1k"
    default_m = 1000
    datasets = 96  # reused in turn if a run makes more solves than this
    same_input_each_solve = False

    def setup(self, seed, workdir):
        groups = SideInfo("group", np.arange(self.m) // GROUP_WIDTH + 1)
        self.inputs = []
        for k in range(self.datasets):
            pool, test = _generate(seed, self.m, k)
            test = TestSet(features=test.features, side=groups, truth=test.truth)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0, k]))
            self.inputs.append(InferenceData(split=split_nulls(pool, test.m, rng), test=test))
        self.toolbox = Toolbox((GAUSSIAN, KDE, KDE_RATIO))
        coin_seed = int(np.random.SeedSequence([seed, 2]).generate_state(1, dtype=np.uint64)[0])
        self.coins = CoinStream(seed=coin_seed)

    def _data(self, i):
        return self.inputs[i % self.datasets]

    def solve(self, i):
        return modelselect.ptams_plus(self.toolbox, self._data(i), ALPHA, self.coins)

    def output(self, i, raw):
        trace, lam, result = raw
        return {"trace": trace.to_dict(), "lambda": lam, "report": result.report_dict()}

    def power(self, i, out):
        return true_positive_frac(out["report"]["rejected"], self._data(i).test.truth)


class Replicate(Workload):
    name = "replicate-500"
    default_m = 500
    reps = 2
    report_p90 = True
    same_input_each_solve = False

    def setup(self, seed, workdir):
        self.seed = seed
        self.cfg = bench.paper_synthetic_config(self.m, p=P, mu=MU)
        self.methods = [
            bench.MethodSpec(name="scq", pipeline="scq", classifier=GAUSSIAN),
            bench.MethodSpec(name="bc-unweighted", pipeline="bc-unweighted", classifier=GAUSSIAN),
            bench.MethodSpec(name="cfbh", pipeline="cfbh", classifier=GAUSSIAN),
            bench.MethodSpec(name="ptams", pipeline="ptams", toolbox=Toolbox((GAUSSIAN, KDE))),
        ]

    def master_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def solve(self, i):
        return bench.compare(self.methods, self.cfg, self.reps, self.master_seed(i),
                             alpha=ALPHA, threads=1)

    def output(self, i, raw):
        return {"rows": [row.to_dict() for row in raw]}

    def units(self, out):
        return self.reps * self.m * len(self.methods)

    def check(self, out):
        problems = []
        if [row["method"] for row in out["rows"]] != [m.name for m in self.methods]:
            problems.append("rows do not follow method order")
        for row in out["rows"]:
            if row["reps"] != self.reps:
                problems.append(f"{row['method']}: {self.reps - row['reps']} replications failed")
            for key in ("fdr", "ap"):
                if not 0.0 <= row[key] <= 1.0:
                    problems.append(f"{row['method']}: {key}={row[key]} outside [0, 1]")
        return problems

    def power(self, i, out):
        return out["rows"][0]["ap"]

    def run_problems(self, outputs):
        """The scq method's mean FDP must stay within alpha + 3 se."""
        fdrs = np.array([out["rows"][0]["fdr"] for out in outputs])
        if len(fdrs) == 0:
            return []
        if len(fdrs) > 1:
            se = float(fdrs.std(ddof=1) / math.sqrt(len(fdrs)))
        else:
            se = outputs[0]["rows"][0]["fdr_se"]
        mean = float(fdrs.mean())
        if not mean <= ALPHA + 3.0 * se:
            return [f"scq mean FDP {mean:.4f} exceeds alpha + 3 se = {ALPHA + 3.0 * se:.4f}"]
        return []


WORKLOADS = {cls.name: cls for cls in (InferKernel, SelectGroup, Replicate)}
