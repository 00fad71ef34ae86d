"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``[criterion NN] PASS/FAIL`` verdict line (run with
``pytest -s`` to see them live).  Monte Carlo tolerances are fixed in
terms of the replication standard errors computed in the run itself;
equality criteria are exact, with zero tolerance.
"""

import filecmp
import json
import sys
import time

import numpy as np
import pytest
from scipy import stats

from helpers import (
    attainment_config,
    candidate_pvalues,
    conformal_pvalue,
    make_synthetic_data,
    random_pairs,
    run_replications,
    swap_inference_pairs,
)
from scq.bench import MethodSpec, paper_synthetic_config, replication_table
from scq.cli import main as cli_main
from scq.conformal import (
    bc_threshold,
    ebh,
    evalues,
    scq_qvalues,
    scq_reject,
)
from scq.datamodel import InferenceData, SyntheticConfig, generate_hierarchical, split_nulls
from scq.errors import ScqError
from scq.modelselect import CoinStream, Toolbox, ptams
from scq.pipeline import ScoreTable, WeightConfig, compute_weights, run_scq
from scq.scoring import ClassifierSpec


def _verdict(num: int, desc: str, ok: bool) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


SELECTION_TOOLBOX = Toolbox(
    candidates=(
        ClassifierSpec("OCC", "kde"),
        ClassifierSpec("OCC", "knn"),
        ClassifierSpec("PUC", "kde-ratio"),
    )
)


def test_c01_bc_scq_equivalence_exact():
    rng = np.random.default_rng(20240101)
    t0 = time.time()
    all_equal = True
    for _ in range(10_000):
        m = int(rng.integers(1, 201))
        pairs = random_pairs(rng, m)
        alpha = float(rng.uniform(0.01, 0.5))
        _, rej_bc = bc_threshold(pairs, alpha)
        rej_q = scq_reject(scq_qvalues(pairs), alpha)
        if not np.array_equal(rej_bc.mask, rej_q.mask):
            all_equal = False
            break
    elapsed = time.time() - t0
    _verdict(
        1,
        f"q-value and score thresholding agree on 10^4 instances ({elapsed:.1f}s < 30s)",
        all_equal and elapsed < 30.0,
    )


def test_c02_ebh_equivalence_exact():
    rng = np.random.default_rng(20240102)
    t0 = time.time()
    all_equal = True
    for _ in range(1_000):
        m = int(rng.integers(1, 201))
        pairs = random_pairs(rng, m)
        alpha = float(rng.uniform(0.01, 0.5))
        _, rej_bc = bc_threshold(pairs, alpha)
        rej_e = ebh(evalues(pairs, alpha), alpha)
        if not np.array_equal(rej_e.mask, rej_bc.mask):
            all_equal = False
            break
    elapsed = time.time() - t0
    _verdict(
        2,
        f"e-value step-up equals score thresholding on 10^3 instances ({elapsed:.1f}s < 10s)",
        all_equal and elapsed < 10.0,
    )


def test_c03_finite_sample_fdr_control():
    method = MethodSpec(
        name="scq-kde", pipeline="scq", classifier=ClassifierSpec("OCC", "kde")
    )
    t0 = time.time()
    ok = True
    details = []
    for p in (2, 10):
        for mu in (1.0, 3.0):
            cfg = paper_synthetic_config(m=500, p=p, mu=mu, null_pool_size=1200)
            row = run_replications(method, cfg, reps=300, master_seed=301)
            bound = 0.05 + 2 * row.fdr_se
            details.append(f"p={p},mu={mu}: {row.fdr_hat:.4f}<={bound:.4f}")
            ok = ok and row.fdr_hat <= bound
    elapsed = time.time() - t0
    _verdict(
        3,
        f"FDR envelope holds on the m=500 grid [{'; '.join(details)}] ({elapsed:.0f}s < 600s)",
        ok and elapsed < 600.0,
    )


def test_c04_fdr_control_under_selection():
    method = MethodSpec(name="ptams", pipeline="ptams", toolbox=SELECTION_TOOLBOX)
    t0 = time.time()
    ok = True
    details = []
    for p in (2, 10):
        for mu in (1.0, 3.0):
            cfg = paper_synthetic_config(m=500, p=p, mu=mu, null_pool_size=1200)
            row = run_replications(method, cfg, reps=200, master_seed=401)
            bound = 0.05 + 2 * row.fdr_se
            details.append(f"p={p},mu={mu}: {row.fdr_hat:.4f}<={bound:.4f}")
            ok = ok and row.fdr_hat <= bound
    elapsed = time.time() - t0
    _verdict(
        4,
        f"selection keeps the FDR envelope [{'; '.join(details)}] ({elapsed:.0f}s < 1200s)",
        ok and elapsed < 1200.0,
    )


def test_c05_power_gain_from_informative_weights():
    cfg = paper_synthetic_config(m=500, p=5, mu=2.0, null_pool_size=1200)
    methods = [
        MethodSpec(
            name="scq-structure", pipeline="scq", classifier=ClassifierSpec("OCC", "kde")
        ),
        MethodSpec(
            name="bc-unweighted",
            pipeline="bc-unweighted",
            classifier=ClassifierSpec("OCC", "kde"),
        ),
    ]
    table = replication_table(methods, cfg, reps=200, master_seed=501)
    diff = table[:, 0, 1] - table[:, 1, 1]  # per-replication power gap, paired
    point = float(diff.mean())
    paired_se = float(diff.std(ddof=1) / np.sqrt(len(diff)))
    ok = point > 0.0 and point >= -2 * paired_se
    _verdict(
        5,
        f"structure weights gain power: diff={point:.4f} (paired se {paired_se:.4f})",
        ok,
    )


def test_c06_fdr_attainment_with_growing_m():
    method = MethodSpec(
        name="scq-gauss", pipeline="scq", classifier=ClassifierSpec("OCC", "gaussian")
    )
    t0 = time.time()
    rows = {}
    for m in (200, 500, 1000):
        rows[m] = run_replications(method, attainment_config(m), reps=300, master_seed=601)
    elapsed = time.time() - t0
    r200, r1000 = rows[200], rows[1000]
    band = 2 * np.hypot(r200.fdr_se, r1000.fdr_se)
    nondecreasing = r1000.fdr_hat >= r200.fdr_hat - band
    in_window = 0.02 <= r1000.fdr_hat <= 0.05 + 2 * r1000.fdr_se
    detail = ", ".join(f"m={m}: {rows[m].fdr_hat:.4f}" for m in (200, 500, 1000))
    _verdict(
        6,
        f"FDR rises toward the target [{detail}] ({elapsed:.0f}s < 900s)",
        nondecreasing and in_window and elapsed < 900.0,
    )


def test_c07_null_sign_symmetry():
    cfg = SyntheticConfig(
        m=200, p=3, sparsity_blocks=(), background_pi=0.0,
        alt_components=(), null_pool_size=334,
    )
    passes = 0
    for seed in range(100):
        ss = np.random.SeedSequence([701, seed])
        gen_ss, split_ss = ss.spawn(2)
        pool, test = generate_hierarchical(cfg, np.random.default_rng(gen_ss))
        split = split_nulls(pool, test.m, np.random.default_rng(split_ss))
        data = InferenceData(split=split, test=test)
        res = run_scq(data, ClassifierSpec("OCC", "gaussian"), WeightConfig(), alpha=0.05)
        v = res.pairs.v
        vt = res.pairs.vt
        forward = int((v < vt).sum())
        informative = int((v != vt).sum())
        pval = stats.binomtest(forward, informative, 0.5).pvalue
        passes += pval >= 0.001
    _verdict(7, f"null pair orientation is a fair coin ({passes}/100 runs pass)", passes >= 98)


def _pvalue_draws(n_draws: int, n_cal: int, seed: int):
    rng = np.random.default_rng(seed)
    cal = rng.standard_normal((n_draws, n_cal))
    x = rng.standard_normal(n_draws)
    x_mirror = rng.standard_normal(n_draws)
    p = np.empty(n_draws)
    p_mirror = np.empty(n_draws)
    for i in range(n_draws):
        p[i] = conformal_pvalue(cal[i], x[i])
        p_mirror[i] = conformal_pvalue(cal[i], x_mirror[i])
    return p, p_mirror


P_DRAWS = None


def _get_draws():
    global P_DRAWS
    if P_DRAWS is None:
        P_DRAWS = _pvalue_draws(100_000, 20, seed=801)
    return P_DRAWS


def test_c08_null_pvalue_super_uniformity():
    p, _ = _get_draws()
    n = len(p)
    ok = True
    worst = -np.inf
    for t in np.arange(0.05, 0.951, 0.05):
        ecdf = float((p <= t).mean())
        slack = 3 * np.sqrt(t * (1 - t) / n)
        worst = max(worst, ecdf - t)
        ok = ok and ecdf <= t + slack
    _verdict(8, f"P(p <= t) <= t + 3se on the grid (max excess {worst:.5f})", ok)


def test_c09_conditional_cdf_lower_bound():
    p, p_mirror = _get_draws()
    cond = p[p < p_mirror]
    n = len(cond)
    ok = True
    worst = np.inf
    for k in range(1, 22):
        t = k / 21.0
        ecdf = float((cond <= t).mean())
        slack = 3 * np.sqrt(t * (1 - t) / n)
        worst = min(worst, ecdf - t)
        ok = ok and ecdf >= t - slack
    _verdict(
        9,
        f"P(p <= t | p < mirror p) >= t - 3se on the grid (min margin {worst:.5f}, n={n})",
        ok,
    )


def test_c10_selection_tracks_dominant_candidate():
    toolbox = Toolbox(
        candidates=(
            ClassifierSpec("OCC", "kde"),
            ClassifierSpec("OCC", "kde", {"bandwidth": 1e-12}),  # floored: no ranking
        ),
        names=("kde", "kde-crippled"),
    )
    picks = 0
    for seed in range(100):
        data = make_synthetic_data(m=400, p=5, mu=3.0, seed=1001 + seed)
        trace, _ = ptams(toolbox, data, alpha=0.05, coins=CoinStream(seed=seed))
        picks += trace.selected == 1
    _verdict(10, f"dominant candidate selected in {picks}/100 runs", picks >= 90)


def test_c11_swap_invariance_suite():
    rng = np.random.default_rng(1101)
    n_instances, n_swaps = 20, 200
    m = 40
    ok = True
    for inst in range(n_instances):
        data = make_synthetic_data(m=m, p=3, mu=2.5, seed=1200 + inst)
        table = ScoreTable(data)
        kde_base = table.model(ClassifierSpec("PUC", "kde-ratio"))
        pulog_base = table.model(ClassifierSpec("PUC", "pu-logistic"))
        scores_base = candidate_pvalues(data, ClassifierSpec("OCC", "gaussian"))
        w_base = compute_weights(data, scores_base.p, scores_base.p_tilde, WeightConfig())[0]
        coins = CoinStream(seed=5000 + inst)
        trace_base, _ = ptams(SELECTION_TOOLBOX, data, alpha=0.05, coins=coins)

        for _ in range(n_swaps):
            ids = [int(j) for j in np.flatnonzero(rng.random(m) < 0.5) + 1]
            sdata = swap_inference_pairs(data, ids)
            swapped = ScoreTable(sdata)
            kde_swap = swapped.model(ClassifierSpec("PUC", "kde-ratio"))
            if not (
                np.array_equal(
                    kde_base.params["mix_kde"]["train"], kde_swap.params["mix_kde"]["train"]
                )
                and np.array_equal(
                    kde_base.params["mix_kde"]["h"], kde_swap.params["mix_kde"]["h"]
                )
            ):
                ok = False
                break
            pulog_swap = swapped.model(ClassifierSpec("PUC", "pu-logistic"))
            if not (
                np.array_equal(pulog_base.params["w"], pulog_swap.params["w"])
                and pulog_base.params["b"] == pulog_swap.params["b"]
            ):
                ok = False
                break

            scores_swap = candidate_pvalues(sdata, ClassifierSpec("OCC", "gaussian"))
            w_swap = compute_weights(
                sdata, scores_swap.p, scores_swap.p_tilde, WeightConfig()
            )[0]
            if not np.array_equal(w_base, w_swap):
                ok = False
                break

            trace_swap, _ = ptams(SELECTION_TOOLBOX, sdata, alpha=0.05, coins=coins)
            if trace_swap.selected != trace_base.selected or [
                r.r_k for r in trace_swap.records
            ] != [r.r_k for r in trace_base.records]:
                ok = False
                break
        if not ok:
            break
    _verdict(
        11,
        f"PUC fits, weights, and selections exactly swap-invariant "
        f"({n_swaps} swaps x {n_instances} instances)",
        ok,
    )


def _write_cli_fixtures(tmp_path):
    rng = np.random.default_rng(5)
    lines = ["__role__,__label__,f0,f1,f2"]
    for row in rng.standard_normal((400, 3)):
        lines.append("train-null,," + ",".join(repr(float(v)) for v in row))
    planted = sorted(rng.choice(60, size=35, replace=False).tolist())
    test_rows = rng.standard_normal((60, 3))
    test_rows[planted] += 10.0
    for row in test_rows:
        lines.append("test,," + ",".join(repr(float(v)) for v in row))
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")

    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(
        json.dumps(
            {
                "synthetic": {
                    "m": 40,
                    "p": 2,
                    "sparsity_blocks": [{"interval": [1, 10], "pi": 0.9}],
                    "background_pi": 0.01,
                    "alt_components": [{"interval": [1, 40], "mean": 3.0, "scale": 1.0}],
                    "null_pool_size": 80,
                },
                "methods": [
                    {
                        "name": "scq-gauss",
                        "pipeline": "scq",
                        "classifier": {"family": "OCC", "method": "gaussian"},
                    }
                ],
                "reps": 2,
                "threads": 1,
            }
        )
    )
    infer_cfg = tmp_path / "infer.json"
    infer_cfg.write_text(
        json.dumps({"classifier": {"family": "OCC", "method": "gaussian"}})
    )
    select_cfg = tmp_path / "select.json"
    select_cfg.write_text(
        json.dumps(
            {
                "toolbox": [
                    {"family": "OCC", "method": "gaussian"},
                    {"family": "OCC", "method": "kde"},
                ]
            }
        )
    )
    return data, sim_cfg, infer_cfg, select_cfg


def test_c12_cli_determinism(tmp_path):
    data, sim_cfg, infer_cfg, select_cfg = _write_cli_fixtures(tmp_path)
    ok = True
    produced = {
        "simulate": ["metrics.csv", "metrics.json"],
        "infer": ["report.json", "weights.csv"],
        "select": ["trace.json", "report.json", "weights.csv"],
        "report": ["long.csv", "summary.txt"],
    }

    def run_twice(name, argv_of):
        nonlocal ok
        dirs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{name}-{tag}"
            rc = cli_main(argv_of(out))
            ok = ok and rc == 0
            dirs.append(out)
        for fname in produced[name]:
            same = filecmp.cmp(dirs[0] / fname, dirs[1] / fname, shallow=False)
            ok = ok and same
        return dirs

    run_twice(
        "simulate",
        lambda out: ["simulate", "--config", str(sim_cfg), "--out", str(out), "--seed", "9"],
    )
    run_twice(
        "infer",
        lambda out: ["infer", str(data), "--config", str(infer_cfg), "--out", str(out), "--seed", "9"],
    )
    run_twice(
        "select",
        lambda out: ["select", str(data), "--config", str(select_cfg), "--out", str(out), "--seed", "9"],
    )
    run_twice(
        "report",
        lambda out: ["report", str(tmp_path / "simulate-x"), "--out", str(out)],
    )
    _verdict(12, "all four commands write byte-identical artifacts when reseeded", ok)
