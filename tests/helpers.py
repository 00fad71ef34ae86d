"""Shared test utilities: brute-force oracles and instance generators.

The oracles re-derive every quantity by direct enumeration of the
definitions, one unit and one grid point at a time, independent of the
package's sorted-sweep implementations.  They read score pairs through
the ``v`` and ``vt`` arrays of :class:`~scq.conformal.ScorePairs`.  The
one-unit conveniences below (one score, one p-value, one method's
replications, the attainment config) are built on the package's batch
functions and serve only the tests.
"""

from __future__ import annotations

import csv
import math
import re
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from scq.bench import MethodSpec, MetricsRow, compare, paper_synthetic_config
from scq.conformal import ScorePairs, conformal_pvalues
from scq.datamodel import (
    LABEL_COLUMN,
    ROLE_COLUMN,
    ROLE_TEST,
    ROLE_TRAIN_NULL,
    ROLE_TRAIN_OUTLIER,
    SIDE_COLUMN,
    AltComponent,
    InferenceData,
    LabeledPool,
    NullSplit,
    SideInfo,
    SparsityBlock,
    SyntheticConfig,
    TestSet,
    generate_hierarchical,
    split_nulls,
)
from scq.errors import (
    DimensionMismatch,
    NonFiniteFeature,
    ParseError,
    SchemaMismatch,
    UnreadableData,
)
from scq.pipeline import CandidateScores, ScoreTable
from scq.scoring import ClassifierSpec, ScoreModel, score_batch


def mirror_stat(pairs: ScorePairs, t: float) -> float:
    """Evaluate the mirror process ``H(t)`` by direct counting."""
    assert t > 0.0, "t must be positive"
    v, vt = pairs.v, pairs.vt
    num = 1 + int(np.count_nonzero((vt <= t) & (vt < v)))
    den = max(1, int(np.count_nonzero((v <= t) & (v < vt))))
    return num / den


def conformal_pvalue(cal_scores, s_x: float) -> float:
    """One conformal p-value: ``(1 + #{cal <= s_x}) / (1 + N)``."""
    n_cal = np.size(cal_scores)
    return int(conformal_pvalues(cal_scores, [s_x])[0]) / (n_cal + 1)


def score(model: ScoreModel, x: np.ndarray) -> float:
    """Score a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatch("score expects a single feature vector")
    return float(score_batch(model, x[None, :])[0])


def verify_swap_invariance(
    spec: ClassifierSpec,
    data: InferenceData,
    pairs_to_swap,
    probe: np.ndarray,
) -> bool:
    """Refit after swapping the given (test, mirror) pairs and compare scores.

    Both fits run through :meth:`~scq.pipeline.ScoreTable.model`, the fit
    path of every run.  Exact equality is required for closed-form fits
    (gaussian, kde, knn); iterative logistic fits are allowed 1e-12
    relative slack.
    """
    base = score(ScoreTable(data).model(spec), np.asarray(probe, dtype=np.float64))
    swapped = score(ScoreTable(swap_inference_pairs(data, pairs_to_swap)).model(spec), probe)
    if spec.method in ("logistic", "pu-logistic"):
        return bool(np.isclose(swapped, base, rtol=1e-12, atol=0.0))
    return swapped == base


def candidate_pvalues(data: InferenceData, spec: ClassifierSpec) -> CandidateScores:
    """Fit one classifier and compute its scores and (test, mirror) p-values."""
    return ScoreTable(data).scores(spec)


def run_replications(
    method: MethodSpec,
    cfg: SyntheticConfig,
    reps: int,
    master_seed: int,
    alpha: float = 0.05,
    train_frac: float = 0.5,
    threads: int = 1,
) -> MetricsRow:
    """Single-method convenience wrapper around :func:`~scq.bench.compare`."""
    return compare([method], cfg, reps, master_seed, alpha, train_frac, threads)[0]


def attainment_config(m: int) -> SyntheticConfig:
    """One-dimensional config whose signal strength grows with m.

    Signal magnitude mu_m = sqrt(2 * 1.25 * (log m)^1.25) and block
    frequency pi_m = m^(-0.1); four blocks of width ceil(m/30) start at
    ceil(2m/30), ceil(6m/30) (frequency pi_m) and ceil(10m/30),
    ceil(14m/30) (frequency 2/3 * pi_m), over a 0.01 background.
    """
    h = math.ceil(m / 30)
    pi_m = m ** (-0.1)
    mu_m = math.sqrt(2.0 * 1.25 * math.log(m) ** 1.25)
    blocks = []
    for numer, pi in ((2, pi_m), (6, pi_m), (10, 2.0 / 3.0 * pi_m), (14, 2.0 / 3.0 * pi_m)):
        lo = math.ceil(numer * m / 30) + 1
        hi = min(m, lo + h - 1)
        blocks.append(SparsityBlock(lo, hi, pi))
    return SyntheticConfig(
        m=m,
        p=1,
        sparsity_blocks=tuple(blocks),
        background_pi=0.01,
        alt_components=(AltComponent(1, m, np.array([mu_m]), 1.0),),
        null_pool_size=round(5 * m / 3),
    )


def dense(side: SideInfo, bandwidth: Optional[float]) -> np.ndarray:
    """The m-by-m matrix of :func:`~scq.weights.neighbour_sums`: the 0/1
    same-group indicator for group side info, the Gaussian kernel with
    bandwidth ``bandwidth`` on pairwise position distances otherwise."""
    s = side.values
    if side.kind == "group":
        return (s[:, None] == s[None, :]).astype(np.float64)
    d = (s[:, None] - s[None, :]) / bandwidth
    return np.exp(-0.5 * d * d) / (bandwidth * np.sqrt(2.0 * np.pi))


def jittered_estimate_inputs(m: int, seed: int = 0):
    """Positions ``1..m`` jittered by U(-0.3, 0.3), which take the dense
    kernel path, and uniform test and mirror p-values."""
    rng = np.random.default_rng(seed)
    side = SideInfo("position", np.arange(1, m + 1) + rng.uniform(-0.3, 0.3, m))
    p, p_tilde = rng.random((2, m))
    return side, p, p_tilde


def qvalues_bruteforce(pairs: ScorePairs) -> list:
    """Evaluate H at every grid point at or above v_j and take the minimum."""
    v, vt = pairs.v.tolist(), pairs.vt.tolist()
    grid = sorted(set(v) | set(vt))
    out = []
    for a, b in zip(v, vt):
        if a < b:
            hs = [mirror_stat(pairs, t) for t in grid if t >= a]
            out.append(min(min(hs), 1.0))
        else:
            out.append(1.0)
    return out


def bc_bruteforce(pairs: ScorePairs, alpha):
    """Largest grid point with H <= alpha, and its 1-based rejection set."""
    v, vt = pairs.v.tolist(), pairs.vt.tolist()
    grid = sorted(set(v) | set(vt))
    feasible = [t for t in grid if mirror_stat(pairs, t) <= alpha]
    if not feasible:
        return None, set()
    tau = max(feasible)
    return tau, {j for j, (a, b) in enumerate(zip(v, vt), start=1) if a <= tau and a < b}


def bh_bruteforce(pvals, alpha) -> set:
    """Textbook step-up: largest k with p_(k) <= k * alpha / m."""
    m = len(pvals)
    order = sorted(range(m), key=lambda i: pvals[i])
    k = 0
    for rank, i in enumerate(order, start=1):
        if pvals[i] <= rank * alpha / m:
            k = rank
    if k == 0:
        return set()
    cut = pvals[order[k - 1]]
    return {i + 1 for i in range(m) if pvals[i] <= cut}


def ebh_bruteforce(e, alpha) -> set:
    """e-BH step-up on descending order statistics."""
    m = len(e)
    desc = sorted(e, reverse=True)
    khat = 0
    for i in range(1, m + 1):
        if i * desc[i - 1] / m >= 1.0 / alpha:
            khat = i
    if khat == 0:
        return set()
    cut = desc[khat - 1]
    return {j + 1 for j in range(m) if e[j] >= cut}


def random_pairs(rng: np.random.Generator, m: int) -> ScorePairs:
    """Score-pair instances mixing continuous values and tie-heavy grids."""
    if rng.random() < 0.5:
        v = rng.uniform(0.01, 1.5, size=m)
        vt = rng.uniform(0.01, 1.5, size=m)
    else:
        n_cal = int(rng.integers(1, 30))
        w = rng.lognormal(0.0, 1.0, size=m)
        v = rng.integers(1, n_cal + 2, size=m) / (n_cal + 1) / w
        vt = rng.integers(1, n_cal + 2, size=m) / (n_cal + 1) / w
    if m > 1 and rng.random() < 0.3:
        ties = rng.random(m) < 0.3
        vt = np.where(ties, v, vt)
    return ScorePairs(v=v, vt=vt)


def count_calls(monkeypatch, fn) -> list:
    """Count calls to ``fn`` made through any ``scq`` module namespace.

    Every loaded ``scq`` module that binds ``fn`` by name gets a counting
    wrapper; the returned list grows by one entry per call.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "scq" or name.startswith("scq.")) and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def make_synthetic_data(
    m: int, p: int, mu: float, seed: int, train_frac: float = 0.5
) -> InferenceData:
    """One block-structured instance, split and bundled for inference."""
    cfg = paper_synthetic_config(m=m, p=p, mu=mu)
    ss = np.random.SeedSequence([seed])
    gen_ss, split_ss = ss.spawn(2)
    pool, test = generate_hierarchical(cfg, np.random.default_rng(gen_ss))
    split = split_nulls(pool, test.m, np.random.default_rng(split_ss), train_frac)
    return InferenceData(split=split, test=test)


def swap_inference_pairs(data: InferenceData, pair_ids) -> InferenceData:
    """Exchange test and mirror feature rows for the given 1-based unit ids,
    which must be distinct and within 1..m."""
    ids = [int(j) for j in pair_ids]
    if len(set(ids)) != len(ids) or not all(1 <= j <= data.m for j in ids):
        raise ValueError(f"pair ids must be distinct and within 1..{data.m}, got {ids}")
    test_feats = data.test.features.copy()
    mirror = data.split.mirror.copy()
    for j in ids:
        a = j - 1
        test_feats[a], mirror[a] = mirror[a].copy(), test_feats[a].copy()
    split = NullSplit(train=data.split.train, cal=data.split.cal, mirror=mirror)
    test = TestSet(features=test_feats, side=data.test.side, truth=data.test.truth, pi=data.test.pi)
    return InferenceData(split=split, test=test, labeled_outliers=data.labeled_outliers)


# Plain-loop references for code the package runs in faster, equivalent
# forms; each must agree with its package version exactly.


def logistic_gd_loop(x: np.ndarray, y: np.ndarray, iterations: int, step: float):
    """Gradient descent of ``scoring._logistic_gd``, one sigmoid call and
    one ``mean`` per step."""
    n, p = x.shape
    w = np.zeros(p)
    b = 0.0
    for _ in range(iterations):
        with np.errstate(over="ignore"):
            g = 1.0 / (1.0 + np.exp(-(x @ w + b))) - y
        w -= step * (x.T @ g) / n
        b -= step * float(g.mean())
    return w, b


def knn_label_mean_ranked(a: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """``scoring._knn_label_mean`` sharing out the ties at the k-th distance
    on every block, with or without ties."""
    kth = np.partition(a, k - 1, axis=1)[:, k - 1 : k]
    if np.isnan(kth).any():
        order = np.argsort(a, axis=1, kind="stable")[:, :k]
        return labels[order].mean(axis=1)
    near = a < kth
    ties = a == kth
    room = k - np.count_nonzero(near, axis=1)
    near |= ties & (np.cumsum(ties, axis=1) <= room[:, None])
    return np.count_nonzero(near & (labels == 1.0), axis=1) / k


def load_csv_by_cell(path) -> tuple:
    """``datamodel.load_csv`` as a per-cell loop: every cell through
    ``float()``, one list per row, the first bad row raising, and an
    undecodable file named by the byte offset and line of its first bad
    byte, counted from the start of the file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # splitlines ends a line at LF, CRLF or CR; the marker starts the bad byte's line
            line = len((data[: exc.start] + b"#").splitlines())
            where = f"byte 0x{data[exc.start]:02x} at byte offset {exc.start}, line {line}"
            raise UnreadableData(
                f"cannot read data file {path}: 'utf-8' codec can't decode {where}: {exc.reason}"
            ) from exc
    except (OSError, csv.Error) as exc:
        raise UnreadableData(f"cannot read data file {path}: {exc}") from exc
    if header is None:
        raise SchemaMismatch("empty file: no header row")
    if ROLE_COLUMN not in header:
        raise SchemaMismatch(f"missing required column {ROLE_COLUMN!r}")
    role_i = header.index(ROLE_COLUMN)
    label_i = header.index(LABEL_COLUMN) if LABEL_COLUMN in header else None
    side_i = header.index(SIDE_COLUMN) if SIDE_COLUMN in header else None
    reserved = {role_i, label_i, side_i} - {None}
    feat_is = [i for i in range(len(header)) if i not in reserved]
    if not feat_is:
        raise SchemaMismatch("no feature columns found")

    def parse(raw, row, col):
        try:
            val = float(raw)
        except ValueError as exc:
            raise ParseError(f"row {row}: column {col!r}: cannot parse {raw!r} as float") from exc
        if not np.isfinite(val):
            raise NonFiniteFeature(f"row {row}: column {col!r}: non-finite feature {raw!r}")
        return val

    inliers, outliers, test_rows, test_sides, test_labels = [], [], [], [], []
    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ParseError(f"row {r}: expected {len(header)} cells, got {len(row)}")
        feats = [parse(row[i], r, header[i]) for i in feat_is]
        role = row[role_i].strip()
        if role == ROLE_TRAIN_NULL:
            inliers.append(feats)
        elif role == ROLE_TRAIN_OUTLIER:
            outliers.append(feats)
        elif role == ROLE_TEST:
            test_rows.append(feats)
            test_sides.append(row[side_i].strip() if side_i is not None else None)
            lab = row[label_i].strip() if label_i is not None else ""
            if lab == "":
                test_labels.append(None)
            elif lab in ("0", "1"):
                test_labels.append(lab == "1")
            else:
                raise ParseError(f"row {r}: label must be 0, 1, or empty, got {lab!r}")
        else:
            raise ParseError(f"row {r}: unknown role {role!r}")

    def matrix(rows):
        return np.asarray(rows, dtype=np.float64).reshape(len(rows), len(feat_is))

    pool = LabeledPool(inliers=matrix(inliers), outliers=matrix(outliers))
    m = len(test_rows)
    if side_i is None or all(s is None for s in test_sides):
        side = SideInfo("position", np.arange(1, m + 1, dtype=np.float64))
    else:
        raw = [s if s is not None else "" for s in test_sides]
        if any(s == "" for s in raw):
            test_rows_at = [r for r, row in enumerate(rows, 2) if row[role_i].strip() == ROLE_TEST]
            r = test_rows_at[raw.index("")]
            raise ParseError(f"row {r}: side column present but empty")
        if all(re.match(r"^[+-]?\d+$", s) for s in raw):
            try:
                side = SideInfo("group", np.array([int(s) for s in raw], dtype=np.int64))
            except OverflowError:
                j = next(j for j, s in enumerate(raw) if not -(2**63) <= int(s) < 2**63)
                r = [r for r, row in enumerate(rows, 2) if row[role_i].strip() == ROLE_TEST][j]
                raise ParseError(f"row {r}: side value {raw[j]} does not fit in 64 bits") from None
        else:
            try:
                side = SideInfo("position", np.array([float(s) for s in raw]))
            except ValueError as exc:
                raise ParseError(f"cannot parse side values: {exc}") from exc
    truth = None
    if m and all(lab is not None for lab in test_labels):
        truth = np.array(test_labels, dtype=bool)
    return pool, TestSet(features=matrix(test_rows), side=side, truth=truth)
