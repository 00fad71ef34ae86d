"""Write every artifact of a fixed set of CLI runs into one directory.

Usage::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/cli_artifacts.py OUT
    PYTHONPATH=src python tests/cli_artifacts.py --compare OUT_A OUT_B

The runs are the criterion-12 fixture at ``--seed 9``; ``infer``,
``select`` and ``select --plus`` on ``paper_synthetic_config(500, 3, 3.0)``
CSVs with positional and with group side info; ``select`` on the
positional CSV with ``"lambda": 0.3``, whose selection runs at that
threshold; ``infer`` with OCC/gaussian on a copy of the positional CSV
with LF line endings and one quoted
feature cell, whose ``report.json`` and ``weights.csv`` the script checks
are the original's bytes, so that quoting and line endings change no
number; ``infer`` on copies of the positional CSV with every feature
scaled, with PUC/pu-logistic at 1e3, where a sigmoid score would round
to exactly 1, and at 1e6, where a descent on the unscaled columns
diverged, with OCC/gaussian at 1e-170, where the squares
underflow and every row scores alike, so the script checks that it
exits 2 naming the classifier, and with OCC/gaussian and OCC/kde at
1e160, where the squares overflow, so the script checks that each exits
2 with its ``failure:`` line alone on stderr; ``infer`` with
OCC/gaussian and ``select --plus`` on the same test set as the
positional CSV with jittered non-integral positions, whose kernel
weights take the dense path; ``infer`` with PUC/kde-ratio on a
``paper_synthetic_config(3000, 3, 3.0)`` CSV, whose 7,000-row mixture
reference gives distance products of a size OpenBLAS splits among
threads unless they are tiled; ``infer`` with OCC/gaussian on
those 3,000 units with jittered positions, whose dense kernel sums are
of such a size too; ``simulate`` over all five pipelines (oracle weights
included) at 1 and 2 workers; and ``report`` over the simulations.  Each
run writes into its own subdirectory of ``OUT`` and leaves its exit code,
stdout and stderr in ``console.txt`` there.  The CLI runs in-process from
inside ``OUT`` with relative paths, so two source trees' outputs compare
byte for byte with ``diff -r OUT_A OUT_B``.  Every byte is a function of
the source tree alone, whatever the BLAS thread count: a thread-count check
is two runs, with ``OPENBLAS_NUM_THREADS=1`` and ``=2``, and a ``diff -r``.

``--compare OUT_A OUT_B`` checks two such directories for a change that
reorders exact arithmetic but keeps the answers.  ``report.json``'s
``tau`` and ``weights.csv``'s ``pi_raw``, ``pi_clipped`` and ``weight``
may move in their last bits: it prints the largest relative change in
each file where they moved.  Every other byte, such as the rejections,
the q-values (ratios of counts) and the units and sides of
``weights.csv``, must match.  It exits nonzero on a missing file, a
difference outside those fields, or a relative change above
``LAST_BITS_BOUND``.  The name keeps pytest from collecting this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from scq.bench import paper_synthetic_config
from scq.cli import main as cli_main
from scq.datamodel import LabeledPool, SideInfo, TestSet, generate_hierarchical, load_csv, save_csv
from test_acceptance import _write_cli_fixtures

CLASSIFIERS = [("OCC", "gaussian"), ("OCC", "kde"), ("PUC", "kde-ratio"), ("PUC", "pu-logistic")]
TOOLBOX = [{"family": f, "method": m} for f, m in CLASSIFIERS]
GROUP_WIDTH = 50
SIMULATE = {
    "synthetic": {
        "m": 90,
        "p": 2,
        "sparsity_blocks": [{"interval": [10, 30], "pi": 0.8}, {"interval": [50, 60], "pi": 0.5}],
        "background_pi": 0.02,
        "alt_components": [
            {"interval": [1, 45], "mean": 3.0},
            {"interval": [46, 90], "mean": [-2.0, 2.5], "scale": 0.5},
        ],
        "null_pool_size": 180,
    },
    "methods": [
        {"name": "scq-gauss", "pipeline": "scq", "classifier": {"family": "OCC", "method": "gaussian"}},
        {
            "name": "scq-oracle", "pipeline": "scq", "weight_mode": "oracle",
            "classifier": {"family": "OCC", "method": "kde"},
        },
        {"pipeline": "bc-unweighted", "classifier": {"family": "PUC", "method": "kde-ratio"}},
        {"pipeline": "cfbh", "classifier": {"family": "OCC", "method": "gaussian"}},
        {
            "name": "bh", "pipeline": "cfbh", "storey": False,
            "classifier": {"family": "PUC", "method": "pu-logistic"},
        },
        {"pipeline": "ptams", "toolbox": TOOLBOX[:3]},
        {"pipeline": "ptams_plus", "toolbox": TOOLBOX, "lambda_grid": [0.1, 0.3]},
    ],
    "reps": 6,
    "alpha": 0.1,
    "param_value": 3.0,
}

# The fields whose last bits may move when exact arithmetic is reordered
LAST_BITS = {"report.json": ("tau",), "weights.csv": ("pi_raw", "pi_clipped", "weight")}
LAST_BITS_BOUND = 1e-10


def run(name: str, argv: list) -> None:
    """Run the CLI with ``--out name`` and keep its console output there."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(argv + ["--out", name])
    Path(name).mkdir(parents=True, exist_ok=True)
    console = f"exit {rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    Path(name, "console.txt").write_text(console)


def write_json(path: str, doc) -> str:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    return path


def synthetic_csvs() -> dict:
    """The paper-config dataset, saved with positional, with group and with
    jittered positional side info."""
    rng = np.random.default_rng(np.random.SeedSequence([500, 3]))
    pool, test = generate_hierarchical(paper_synthetic_config(500, 3, 3.0), rng)
    groups = SideInfo("group", np.arange(test.m) // GROUP_WIDTH + 1)
    jittered = SideInfo("position", np.arange(1, test.m + 1) + rng.uniform(-0.3, 0.3, test.m))
    paths = {side: f"data-{side}.csv" for side in ("position", "group", "jittered")}
    save_csv(pool, test, paths["position"])
    save_csv(pool, TestSet(test.features, groups, test.truth, test.pi), paths["group"])
    save_csv(pool, TestSet(test.features, jittered, test.truth, test.pi), paths["jittered"])
    return paths


def quoted_lf_copy(src: str, dst: str) -> str:
    """Copy the CSV ``src`` with LF line endings in place of CRLF and the
    first test row's first feature cell in double quotes."""
    lines = Path(src).read_bytes().decode("utf-8").split("\r\n")
    i = next(i for i, line in enumerate(lines) if line.startswith("test,"))
    role, label, side, first, rest = lines[i].split(",", 4)
    lines[i] = ",".join([role, label, side, f'"{first}"', rest])
    Path(dst).write_bytes("\n".join(lines).encode("utf-8"))
    return dst


def scaled_copy(src: str, dst: str, c: float) -> str:
    """Copy the CSV ``src`` with every feature multiplied by ``c``."""
    pool, test = load_csv(src)
    scaled = TestSet(test.features * c, test.side, test.truth)
    save_csv(LabeledPool(pool.inliers * c, pool.outliers * c), scaled, dst)
    return dst


def main(out_dir: str) -> None:
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)

    Path("c12").mkdir(exist_ok=True)
    data, sim_cfg, infer_cfg, select_cfg = (str(p) for p in _write_cli_fixtures(Path("c12")))
    run("c12-simulate", ["simulate", "--config", sim_cfg, "--seed", "9"])
    run("c12-infer", ["infer", data, "--config", infer_cfg, "--seed", "9"])
    run("c12-select", ["select", data, "--config", select_cfg, "--seed", "9"])
    run("c12-report", ["report", "c12-simulate"])

    csvs = synthetic_csvs()
    jittered = csvs.pop("jittered")
    for side, data in csvs.items():
        for family, method in CLASSIFIERS:
            classifier = {"family": family, "method": method}
            cfg = write_json(f"infer-{family}-{method}.json", {"classifier": classifier, "alpha": 0.1})
            run(f"infer-{side}-{family}-{method}", ["infer", data, "--config", cfg, "--seed", "4"])
        gauss = {"family": "OCC", "method": "gaussian"}
        for tag, extra in (("unit", {"weight_mode": "unit"}), ("jitter", {"jitter": True})):
            cfg = write_json(f"infer-{tag}.json", {"classifier": gauss, "alpha": 0.1, **extra})
            run(f"infer-{side}-{tag}", ["infer", data, "--config", cfg, "--seed", "4"])
        cfg = write_json("select.json", {"toolbox": TOOLBOX, "alpha": 0.1})
        run(f"select-{side}", ["select", data, "--config", cfg, "--seed", "4"])
        run(f"select-plus-{side}", ["select", data, "--plus", "--config", cfg, "--seed", "4"])
    lam_cfg = write_json("select-lambda.json", {"toolbox": TOOLBOX, "alpha": 0.1, "lambda": 0.3})
    argv = ["select", csvs["position"], "--config", lam_cfg, "--seed", "4"]
    run("select-position-lambda0.3", argv)
    gauss_cfg = "infer-OCC-gaussian.json"
    quoted = quoted_lf_copy(csvs["position"], "data-position-quoted.csv")
    run("infer-quoted-OCC-gaussian", ["infer", quoted, "--config", gauss_cfg, "--seed", "4"])
    for name in ("report.json", "weights.csv"):
        if Path("infer-quoted-OCC-gaussian", name).read_bytes() != Path(
            "infer-position-OCC-gaussian", name
        ).read_bytes():
            sys.exit(f"{name} of the quoted LF copy differs from the positional CSV's")
    for c, family, method in (
        (1e3, "PUC", "pu-logistic"),
        (1e6, "PUC", "pu-logistic"),
        (1e-170, "OCC", "gaussian"),
        (1e160, "OCC", "gaussian"),
        (1e160, "OCC", "kde"),
    ):
        scaled = scaled_copy(csvs["position"], f"data-position-x{c:g}.csv", c)
        argv = ["infer", scaled, "--config", f"infer-{family}-{method}.json", "--seed", "4"]
        run(f"infer-x{c:g}-{family}-{method}", argv)
    console = Path("infer-x1e-170-OCC-gaussian", "console.txt").read_text()
    if not console.startswith("exit 2") or "OCC/gaussian scores every row alike" not in console:
        sys.exit("OCC/gaussian at 1e-170 did not exit 2 naming the classifier")
    for method in ("gaussian", "kde"):
        console = Path(f"infer-x1e+160-OCC-{method}", "console.txt").read_text()
        err = console.partition("--- stderr\n")[2].splitlines()
        if not console.startswith("exit 2") or len(err) != 1 or not err[0].startswith("failure:"):
            sys.exit(f"OCC/{method} at 1e160 did not exit 2 with one failure line")
    run("infer-jittered-OCC-gaussian", ["infer", jittered, "--config", gauss_cfg, "--seed", "4"])
    run("select-plus-jittered", ["select", jittered, "--plus", "--config", cfg, "--seed", "4"])

    rng = np.random.default_rng(np.random.SeedSequence([3000, 3]))
    pool, test = generate_hierarchical(paper_synthetic_config(3000, 3, 3.0), rng)
    save_csv(pool, test, "data-3000.csv")
    jittered = SideInfo("position", np.arange(1, test.m + 1) + rng.uniform(-0.3, 0.3, test.m))
    save_csv(pool, TestSet(test.features, jittered, test.truth, test.pi), "data-3000-jittered.csv")
    ratio = {"family": "PUC", "method": "kde-ratio"}
    cfg = write_json("infer-large.json", {"classifier": ratio, "alpha": 0.1})
    run("infer-large-PUC-kde-ratio", ["infer", "data-3000.csv", "--config", cfg, "--seed", "4"])
    large_jittered = ["infer", "data-3000-jittered.csv", "--config", gauss_cfg, "--seed", "4"]
    run("infer-large-jittered-OCC-gaussian", large_jittered)

    for threads in (1, 2):
        cfg = write_json("simulate.json", {**SIMULATE, "threads": threads})
        run(f"simulate/threads{threads}", ["simulate", "--config", cfg, "--seed", "11"])
    run("report", ["report", "simulate"])


def _split(path: Path) -> tuple:
    """The text of a ``LAST_BITS`` artifact with each last-bit value masked,
    and the list of those values."""
    text, fields = path.read_bytes().decode("utf-8"), LAST_BITS[path.name]
    if path.name == "report.json":
        pattern = re.compile(rf'("(?:{"|".join(fields)})": )([^,\n}}]*)')
        return pattern.sub(r"\1#", text), [m[1] for m in pattern.findall(text)]
    header, *rows = text.splitlines(keepends=True)
    cols = [i for i, name in enumerate(header.rstrip("\r\n").split(",")) if name in fields]
    masked, values = [header], []
    for row in rows:
        body = row.rstrip("\r\n")
        cells = body.split(",")
        for i in cols:
            if i < len(cells):
                values.append(cells[i])
                cells[i] = "#"
        masked.append(",".join(cells) + row[len(body):])
    return "".join(masked), values


def _relative_change(x, y) -> float:
    """``|x - y|`` over the larger magnitude; infinite for unequal cells
    that are not both finite numbers."""
    if x == y:
        return 0.0
    try:
        x, y = float(x), float(y)
    except (TypeError, ValueError):
        return math.inf
    change = abs(x - y) / max(abs(x), abs(y))
    return change if math.isfinite(change) else math.inf


def compare(dir_a: str, dir_b: str) -> int:
    """Print how the artifacts under ``dir_a`` and ``dir_b`` differ; 1 if
    any difference is outside the last bits of ``LAST_BITS``, else 0."""
    failed = False
    names = set()
    for root in (dir_a, dir_b):
        names |= {p.relative_to(root) for p in Path(root).rglob("*") if p.is_file()}
    for name in sorted(names):
        a, b = Path(dir_a, name), Path(dir_b, name)
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {dir_a if a.is_file() else dir_b}")
            failed = True
        elif a.read_bytes() == b.read_bytes():
            continue
        elif name.name not in LAST_BITS:
            print(f"{name}: differs")
            failed = True
        else:
            (exact_a, bits_a), (exact_b, bits_b) = _split(a), _split(b)
            if exact_a != exact_b or len(bits_a) != len(bits_b):
                print(f"{name}: differs outside {', '.join(LAST_BITS[name.name])}")
                failed = True
                continue
            change = max(map(_relative_change, bits_a, bits_b), default=0.0)
            print(f"{name}: largest relative change {change:.3g} (bound {LAST_BITS_BOUND:g})")
            failed |= change > LAST_BITS_BOUND
    return int(failed)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT | {sys.argv[0]} --compare OUT_A OUT_B")
    main(sys.argv[1])
