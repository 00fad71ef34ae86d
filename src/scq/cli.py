"""Command-line interface: simulate, infer, select, report.

Experiment definitions live in JSON configs.  ``_read_config`` opens
one, reads its top level against the command's table (``SIMULATE``,
``INFER`` or ``SELECT``, with a method's keys for the last two), and lets
the scalar flags (``--alpha``, ``--seed``, ``--out``, and for
``simulate`` also ``--reps`` and ``--threads``) override its fields.  An
``infer`` config is one ``scq`` method and a ``select`` config one
``ptams`` method (``ptams_plus`` with ``--plus``); as in ``simulate``,
:meth:`~scq.bench.MethodSpec.from_dict` reads it and
:func:`~scq.bench.run_method` runs it.  Standard output carries a
one-line summary; all data goes to files whose bytes are fully
determined by the inputs and the seed.  ``infer`` and ``select`` write
``weights.csv`` from the sparsity estimate their result carries, so the
weights are computed once per run.  Exit codes: 0 success, 1 user or
config error, 2 statistical or runtime failure (a degenerate fit, a
classifier that scores differing rows alike, NaN scores, every selection
candidate failing, too many failed replications).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bench
from .datamodel import InferenceData, SyntheticConfig, load_csv, split_nulls
from .errors import REQUIRED, ConfigError, RuntimeFailure, ScqError, check_value, read_config
from .modelselect import CoinStream
from .pipeline import SCQResult
from .weights import dump_weight_diagnostics

# The top-level config keys of each command besides a method's, each with
# its JSON kind and default; the scalar flags override the same keys.
SELECT = {"alpha": (float, 0.05), "seed": (int, 0), "out": (str, None), "train_frac": (float, 0.5)}
INFER = {**SELECT, "jitter": (bool, False)}
SIMULATE = {
    "synthetic": (dict, REQUIRED),
    "methods": ([dict], REQUIRED),
    **SELECT,
    "reps": (int, 100),
    "threads": (int, 0),
    "param_value": ((float, str), None),
}
FLAGS = ("alpha", "seed", "out", "reps", "threads")


def _read_config(args, schema: dict) -> dict:
    """The ``--config`` file read against ``schema``, with the scalar flags
    given merged in; the seed and thread count they settle on must be
    non-negative."""
    if args.config is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = read_config(doc, schema, f"{args.command} config")
    flags = {key: getattr(args, key, None) for key in FLAGS}
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    for key in ("seed", "threads"):
        if cfg.get(key, 0) < 0:
            raise ConfigError(f"{args.command} config {key!r} must be non-negative, got {cfg[key]}")
    return cfg


def _out_dir(cfg: dict) -> Path:
    path = Path(cfg["out"] or "scq-out")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _split_csv_data(data_path, seed: int, train_frac: float) -> InferenceData:
    pool, test = load_csv(data_path)
    if test.m == 0:
        raise ConfigError("no test rows in the data file")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    split = split_nulls(pool, test.m, rng, train_frac)
    return InferenceData(split=split, test=test, labeled_outliers=pool.outliers)


def cmd_simulate(args) -> int:
    cfg = _read_config(args, SIMULATE)
    syn = SyntheticConfig.from_dict(cfg["synthetic"])
    methods = [bench.MethodSpec.from_dict(d) for d in cfg["methods"]]
    if not methods:
        raise ConfigError("simulate config requires a nonempty 'methods' list")
    threads = cfg["threads"] if cfg["threads"] > 0 else os.cpu_count() or 1
    out = _out_dir(cfg)
    rows = bench.compare(
        methods, syn, cfg["reps"], cfg["seed"],
        alpha=cfg["alpha"], train_frac=cfg["train_frac"], threads=threads,
    )
    bench.rows_to_csv(rows, out / "metrics.csv")
    doc = {"rows": [row.to_dict() for row in rows]}
    if cfg["param_value"] is not None:
        doc["param_value"] = cfg["param_value"]
    _write_json(out / "metrics.json", doc)
    print(f"simulate: {len(rows)} methods x {cfg['reps']} reps -> {out}")
    return 0


def cmd_run(args) -> int:
    """``infer`` runs an ``scq`` method, ``select`` a ``ptams`` or ``ptams_plus`` one."""
    infer = args.command == "infer"
    pipeline = "scq" if infer else "ptams_plus" if args.plus else "ptams"
    keys = bench.METHOD_KEYS[pipeline]
    cfg = _read_config(args, {**{k: bench.METHOD[k] for k in keys}, **(INFER if infer else SELECT)})
    method = bench.MethodSpec.from_dict({"pipeline": pipeline, **{k: cfg[k] for k in keys}})
    seed = cfg["seed"]
    data = _split_csv_data(args.data, seed, cfg["train_frac"])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1])) if cfg.get("jitter") else None
    coin_seed = np.random.SeedSequence([seed, 2]).generate_state(1, dtype=np.uint64)[0]
    coins = CoinStream(int(coin_seed))
    trace, result = bench.run_method(method, data, cfg["alpha"], coins, rng=rng)
    out = _out_dir(cfg)
    summary = f"rejected {len(result.rejection)} of {data.m} test units"
    if trace is not None:
        _write_json(out / "trace.json", trace.to_dict())
        chosen = method.toolbox.names[trace.selected - 1]
        summary = f"chose {chosen} (candidate {trace.selected}), {summary}"
    _write_json(out / "report.json", result.report_dict())
    _dump_weights(out, data, result)
    print(f"{args.command}: {summary}")
    return 0


def _dump_weights(out, data, result: SCQResult) -> None:
    # per-unit diagnostics only exist for learned weights
    if result.sparsity is None:
        return
    dump_weight_diagnostics(out / "weights.csv", data.test.side, result.sparsity, result.weights)


def cmd_report(args) -> int:
    src = Path(args.artifacts)
    if not src.is_dir():
        raise ConfigError(f"artifacts directory not found: {src}")
    merged = []
    summaries = {}
    for path in sorted(src.glob("**/*.json")):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or "rows" not in doc:
                continue
            rows = check_value(doc["rows"], [dict], "rows")
            rows = [bench.MetricsRow.from_dict(row) for row in rows]
        except (OSError, ValueError, ConfigError) as exc:
            raise ConfigError(f"corrupt artifact {path}: {exc!r}") from exc
        param_value = doc.get("param_value")
        merged.extend(bench.long_rows(rows, param_value))
        for row in rows:
            summaries.setdefault(row.name, []).append((param_value, row))
    if not merged:
        raise ConfigError(f"no metrics artifacts found under {src}")
    out = Path(args.out) if args.out else src
    out.mkdir(parents=True, exist_ok=True)
    bench.write_long_csv(merged, out / "long.csv")
    lines = []
    for method in sorted(summaries):
        lines.append(f"method: {method}")
        for param_value, row in summaries[method]:
            tag = "" if param_value is None else f" @ param={param_value}"
            lines.append(
                f"  fdr={row.fdr_hat:.4f} (se {row.fdr_se:.4f})"
                f"  ap={row.ap_hat:.4f} (se {row.ap_se:.4f})"
                f"  etp={row.etp_hat:.2f} (se {row.etp_se:.2f})"
                f"  reps={row.reps}{tag}"
            )
    with open(out / "summary.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"report: merged {len(merged)} rows from {src} -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scq",
        description="Structure-adaptive conformal inference for OOD testing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="master seed")
        sp.add_argument("--alpha", type=float, default=None, help="target FDR level")

    sp = sub.add_parser("simulate", help="run seeded synthetic replications")
    add_common(sp)
    sp.add_argument("--threads", type=int, default=None, help="worker cap")
    sp.add_argument("--reps", type=int, default=None, help="replication count")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("infer", help="calibrated inference on a CSV dataset")
    sp.add_argument("data", help="CSV data file")
    add_common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("select", help="model selection plus inference on a CSV dataset")
    sp.add_argument("data", help="CSV data file")
    sp.add_argument("--plus", action="store_true", help="also select the screening threshold")
    add_common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("report", help="merge simulation artifacts into one report")
    sp.add_argument("artifacts", help="directory holding metrics JSON files")
    sp.add_argument("--out", help="output directory (defaults to the artifacts dir)")
    sp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RuntimeFailure as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2
    except ScqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
