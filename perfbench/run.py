#!/usr/bin/env python3
"""scq benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run one workload:

    python3 perfbench/run.py --workload infer-kernel-10k --seed 1 --seconds 20 --trace 0

or every workload, each in its own process:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` solves each input twice in a row, first with spans around
every call into an ``scq`` module and then untraced, reports the
per-layer metrics and the tracing overhead, and checks that the traced
solves reproduce the untraced results exactly.  The last line of standard
output is one JSON object; the lines before it list every metric by name
with its unit.  Run files go to ``.perfbench/`` at the repository root.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before numpy is imported

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, layer_metrics, maxrss_mb, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("infer-kernel-10k", "select-group-1k", "replicate-500")

END_TO_END = {
    "units_per_s": "units/s",
    "solve_p50_s": "s",
    "peak_rss_mb": "MB",
    "power": "fraction",
    "setup_s": "s",
}
# Per-layer metrics that every workload measures; the rest are printed and
# written to the run file only (see perfbench/README.md).
PER_LAYER = (
    "weights.estimate_s",
    "weights.calls",
    "weights.units",
    "weights.clipped_frac",
    "scoring.fit_s",
    "scoring.fit_calls",
    "scoring.score_s",
    "scoring.rows_scored",
    "scoring.pair_evals",
    "scoring.rss_growth_mb",
    "conformal.pvalues_s",
    "conformal.calibrate_s",
    "conformal.tied_pairs",
    "pipeline.self_s",
    "pipeline.weighted_pairs_s",
    "modelselect.candidate_fits",
    "bench.failed_reps",
    "trace.overhead_frac",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--m", type=int, default=None, help="override the workload's m")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pin_blas_threads() -> None:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_scq():
    """Import ``scq`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "scq" / "__init__.py").is_file():
        fail(f"no scq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scq

    if Path(scq.__file__).resolve().parent != (SRC / "scq").resolve():
        fail(f"imported scq from {scq.__file__}, not from {SRC}")


def blas_threads() -> int:
    """Threads the loaded OpenBLAS reports, or the pinned value if it cannot be asked."""
    import ctypes
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return BLAS_THREADS


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "scq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def setup_sample(args) -> float:
    """Set up once in a fresh process and return its set-up seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.m:
        cmd += ["--m", str(args.m)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if done.returncode != 0:
        fail(f"set-up process failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


@dataclass
class Solve:
    """One timed solve: its id, wall seconds, output document, and problems."""

    index: int
    seconds: float
    out: dict = None
    problems: list = field(default_factory=list)
    error: str = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


def attempt(wl, i: int, recorder=None) -> Solve:
    """Time one solve; an exception makes it a failed solve, not a dead run."""
    from scq.errors import ScqError

    if recorder is not None:
        recorder.solve = i
    t0 = time.perf_counter()
    try:
        raw = wl.solve(i)
    except Exception as exc:
        if not isinstance(exc, ScqError):
            traceback.print_exc(file=sys.stderr)
        return Solve(i, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    finally:
        if recorder is not None:
            recorder.solve = None
    elapsed = time.perf_counter() - t0
    out = wl.output(i, raw)
    return Solve(i, elapsed, out, wl.check(out))


def closed_loop(wl, seconds: float) -> list:
    """Run solves back to back for ``seconds``; at least one solve."""
    solves = []
    deadline = time.perf_counter() + seconds
    while not solves or time.perf_counter() < deadline:
        solves.append(attempt(wl, len(solves)))
    return solves


def determinism_problems(wl, solves: list) -> list:
    """The same input must give the same output twice within a run."""
    good = [s for s in solves if s.ok]
    if not good:
        return []
    first = good[0]
    if wl.same_input_each_solve:
        others = [s for s in good[1:] if s.out != first.out]
        return [f"solve {s.index} differs from solve {first.index} on the same input"
                for s in others]
    again = attempt(wl, first.index)
    if again.out != first.out:
        return [f"solve {first.index} gave a different output when run again"]
    return []


def trace_problems(untraced: list, traced: list) -> list:
    """Each traced solve must reproduce the untraced solve of the same input exactly."""
    return [f"traced solve {t.index} differs from the untraced result"
            for t, u in zip(traced, untraced) if t.ok and u.ok and t.out != u.out]


def run_one(args) -> int:
    pin_blas_threads()
    import_scq()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.m)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / "work" / (f"{tag}-setup{os.getpid()}" if args.setup_only else tag)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl.setup(args.seed, workdir)
        setup_times = [time.perf_counter() - _T0]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_times[0]}))
            return 0
        setup_times += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        if args.trace:
            result = traced_run(args, wl)
        else:
            result = untraced_run(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    solves, metrics, extras, problems, info = result
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    failed = sum(1 for s in solves if not s.ok)
    extras["failed_frac"] = (failed / len(solves), "fraction")

    doc = {
        "workload": args.workload,
        "m": wl.m,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "samples": {"solves": len(solves), "setup": len(setup_times)},
        "setup_s_samples": setup_times,
        "solve_s": [s.seconds for s in solves],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extras}.items()},
        "errors": [s.error for s in solves if s.error],
        "problems": problems + [p for s in solves for p in s.problems],
        **info,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    print(f"workload {args.workload}  m={wl.m}  seed={args.seed}  trace={args.trace}  "
          f"solves={len(solves)}  setup samples={len(setup_times)}")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    for msg in doc["problems"] + doc["errors"]:
        print(f"  problem: {msg}")
    if doc.get("absent_spans"):
        print(f"  absent spans: {', '.join(doc['absent_spans'])}")

    names = PER_LAYER if args.trace else tuple(END_TO_END)
    print(json.dumps({
        "correct": not doc["problems"] and failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }))
    return 0


def untraced_run(args, wl):
    solves = closed_loop(wl, args.seconds)
    good = [s for s in solves if s.ok]
    times = [s.seconds for s in solves]
    problems = determinism_problems(wl, solves) + wl.run_problems([s.out for s in good])
    metrics = {
        "units_per_s": (sum(wl.units(s.out) for s in good) / sum(times), "units/s"),
        "solve_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (maxrss_mb(), "MB"),
        "power": (statistics.fmean(wl.power(s.index, s.out) for s in good) if good else 0.0, "fraction"),
    }
    extras = {"solves": (len(solves), "count")}
    if wl.report_p90:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
        extras["solve_p90_s"] = (p90, "s")
    return solves, metrics, extras, problems, {}


def traced_run(args, wl):
    """Solve each input twice in a row, traced then untraced, for ``--seconds``.

    Pairing on the same input keeps drift in machine speed out of the
    overhead and gives the equality check its reference; tracing first lets
    ``scoring.rss_growth_mb`` see the first rise of the peak RSS.
    """
    recorder = Tracer()
    traced, untraced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        with recorder:
            traced.append(attempt(wl, len(traced), recorder))
        untraced.append(attempt(wl, len(untraced)))
    problems = (determinism_problems(wl, untraced) + trace_problems(untraced, traced)
                + wl.run_problems([s.out for s in untraced if s.ok]))
    layers = layer_metrics(recorder.spans, [s.index for s in traced])
    overhead = (statistics.median(s.seconds for s in traced)
                / statistics.median(s.seconds for s in untraced) - 1.0)
    metrics = dict(layers)
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    extras = {
        "traced_solves": (len(traced), "count"),
        "untraced_solves": (len(untraced), "count"),
        "spans": (len(recorder.spans), "count"),
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    write_spans(recorder.spans, results / f"{args.workload}-s{args.seed}-spans.csv")
    info = {"absent_spans": recorder.absent, "hook_errors": recorder.hook_errors}
    return traced + untraced, metrics, extras, problems, info


def run_all(args) -> int:
    """Run every workload, each in its own process, and print a summary."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.m:
            cmd += ["--m", str(args.m)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = 1
            continue
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
        if not summary[name]["correct"]:
            status = 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
