"""Seeded replication harness, metrics, and experiment protocol configs.

``compare`` runs a list of methods over the same stream of synthetic
datasets: replication ``r`` derives its generator from
``(master_seed, r)``, generates one dataset, and feeds it to every method,
so method columns are exactly paired.  The methods of one replication share
one :class:`~scq.pipeline.ScoreTable`: a classifier several methods use is
fitted and scored once, and its learned weights estimated once.  Aggregation
is a fixed-order reduce over replication indices, which makes whole tables
bit-reproducible from the master seed regardless of worker scheduling.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass
from typing import Optional, Sequence

import numpy as np

from .conformal import RejectionSet
from .datamodel import (
    AltComponent,
    InferenceData,
    SparsityBlock,
    SyntheticConfig,
    generate_hierarchical,
    split_nulls,
    write_csv,
)
from .errors import ConfigError, ScqError, TooManyFailures, config_flag, config_number, config_numbers
from .modelselect import DEFAULT_LAMBDA_GRID, CoinStream, Toolbox, ptams, ptams_plus
from .pipeline import ScoreTable, WeightConfig, check_weight_setting, run_cfbh, run_scq
from .scoring import ClassifierSpec

PIPELINES = ("scq", "bc-unweighted", "cfbh", "ptams", "ptams_plus")
FAILURE_CAP = 0.05
# Per-replication metrics, in the order of the trailing axis of
# replication_table; each is reported with its standard error.
METRICS = ("fdr", "ap", "etp")
# metrics.csv columns and metrics.json keys, in MetricsRow field order
COLUMNS = ("method", *(c for m in METRICS for c in (m, f"{m}_se")), "reps")


@dataclass(frozen=True)
class MethodSpec:
    """A named end-to-end pipeline the harness can replicate."""

    name: str
    pipeline: str
    classifier: Optional[ClassifierSpec] = None
    weight_mode: str = "structure"
    lam: float = 0.1
    bandwidth: Optional[float] = None
    storey: bool = True
    toolbox: Optional[Toolbox] = None
    lambda_grid: tuple = ()
    alpha0: Optional[float] = None

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ConfigError(f"unknown pipeline {self.pipeline!r}")
        if self.pipeline in ("scq", "bc-unweighted", "cfbh") and self.classifier is None:
            raise ConfigError(f"pipeline {self.pipeline!r} requires a classifier")
        if self.pipeline in ("ptams", "ptams_plus") and self.toolbox is None:
            raise ConfigError(f"pipeline {self.pipeline!r} requires a toolbox")
        # checked here, before any replication; oracle_pi arrives with each dataset
        check_weight_setting(self.weight_mode, self.lam, self.bandwidth)

    @staticmethod
    def from_dict(doc: dict) -> "MethodSpec":
        try:
            pipeline = doc["pipeline"]
            name = doc.get("name", pipeline)
            classifier = (
                ClassifierSpec.from_dict(doc["classifier"]) if "classifier" in doc else None
            )
            toolbox = Toolbox.from_list(doc["toolbox"]) if "toolbox" in doc else None
            return MethodSpec(
                name=name,
                pipeline=pipeline,
                classifier=classifier,
                weight_mode=doc.get("weight_mode", "structure"),
                lam=config_number(doc, "lambda", 0.1),
                bandwidth=config_number(doc, "bandwidth"),
                storey=config_flag(doc, "storey", True),
                toolbox=toolbox,
                lambda_grid=config_numbers(doc.get("lambda_grid", ()), "lambda_grid"),
                alpha0=config_number(doc, "alpha0"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad method spec: {exc}") from exc


@dataclass(frozen=True)
class MetricsRow:
    """Replication averages with Monte Carlo standard errors."""

    name: str
    fdr_hat: float
    fdr_se: float
    ap_hat: float
    ap_se: float
    etp_hat: float
    etp_se: float
    reps: int

    def to_dict(self) -> dict:
        return dict(zip(COLUMNS, astuple(self)))

    @staticmethod
    def from_dict(doc: dict) -> "MetricsRow":
        """Inverse of :meth:`to_dict`, for rows read back from ``metrics.json``."""
        return MetricsRow(*(doc[column] for column in COLUMNS))


def _rejection_mask(rejection: RejectionSet, truth: np.ndarray) -> np.ndarray:
    if rejection.mask.shape != truth.shape:
        raise ConfigError("rejection mask and truth vector must share length")
    return rejection.mask


def fdp(rejection: RejectionSet, truth: Sequence[bool]) -> float:
    """Realized false discovery proportion: false rejections over max(1, |R|)."""
    truth = np.asarray(truth, dtype=bool)
    mask = _rejection_mask(rejection, truth)
    false = int(np.count_nonzero(mask & ~truth))
    return false / max(1, len(rejection))


def true_positives(rejection: RejectionSet, truth: Sequence[bool]) -> int:
    truth = np.asarray(truth, dtype=bool)
    return int(np.count_nonzero(_rejection_mask(rejection, truth) & truth))


def power(rejection: RejectionSet, truth: Sequence[bool]) -> float:
    """Fraction of true signals rejected, with max(1, |H1|) in the denominator."""
    truth = np.asarray(truth, dtype=bool)
    return true_positives(rejection, truth) / max(1, int(truth.sum()))


def paper_synthetic_config(
    m: int,
    p: int,
    mu: float,
    null_pool_size: Optional[int] = None,
) -> SyntheticConfig:
    """Block-structured benchmark config, proportionally rescaled from m=3000.

    Two moderate blocks (signal frequency 0.6) and two dense blocks (0.9)
    over a 0.01 background; the first half of the index range draws
    mean-``mu`` alternatives, the second half draws N(-2, 0.25 I).
    """
    f = m / 3000.0
    def scale(lo, hi):
        return max(1, round(lo * f)), min(m, max(1, round(hi * f)))
    blocks = []
    for lo, hi, pi in (
        (201, 300, 0.6),
        (601, 700, 0.6),
        (1000, 1100, 0.9),
        (1400, 1500, 0.9),
    ):
        slo, shi = scale(lo, hi)
        blocks.append(SparsityBlock(slo, shi, pi))
    half = min(m, max(1, round(1500 * f)))
    comps = [AltComponent(1, half, np.full(p, float(mu)), 1.0)]
    if half < m:
        comps.append(AltComponent(half + 1, m, np.full(p, -2.0), 0.5))
    if null_pool_size is None:
        null_pool_size = round(5 * m / 3)
    return SyntheticConfig(
        m=m,
        p=p,
        sparsity_blocks=tuple(blocks),
        background_pi=0.01,
        alt_components=tuple(comps),
        null_pool_size=null_pool_size,
    )


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


def run_method(
    method: MethodSpec,
    table: ScoreTable,
    alpha: float,
    coins: CoinStream,
    oracle_pi: Optional[np.ndarray] = None,
) -> RejectionSet:
    """Dispatch one method on the dataset of ``table``, sharing its fits."""
    if method.pipeline == "cfbh":
        return run_cfbh(table, method.classifier, alpha, storey=method.storey)
    if method.pipeline == "bc-unweighted":
        return run_scq(table, method.classifier, WeightConfig(mode="unit"), alpha).rejection
    wcfg = WeightConfig(
        mode=method.weight_mode,
        lam=method.lam,
        bandwidth=method.bandwidth,
        oracle_pi=oracle_pi if method.weight_mode == "oracle" else None,
    )
    if method.pipeline == "scq":
        return run_scq(table, method.classifier, wcfg, alpha).rejection
    if method.pipeline == "ptams":
        _, result = ptams(
            method.toolbox, table, alpha, coins, alpha0=method.alpha0, weight_cfg=wcfg
        )
        return result.rejection
    _, _, result = ptams_plus(
        method.toolbox, table, alpha, coins,
        lambda_grid=method.lambda_grid or DEFAULT_LAMBDA_GRID,
        alpha0=method.alpha0, weight_cfg=wcfg,
    )
    return result.rejection


def _replicate_once(args):
    methods, cfg, alpha, train_frac, master_seed, rep = args
    ss = np.random.SeedSequence([int(master_seed), int(rep)])
    data_ss, split_ss, coin_ss = ss.spawn(3)
    pool, test = generate_hierarchical(cfg, np.random.default_rng(data_ss))
    split = split_nulls(pool, test.m, np.random.default_rng(split_ss), train_frac)
    table = ScoreTable(InferenceData(split=split, test=test))
    coins = CoinStream(seed=int(coin_ss.generate_state(1, dtype=np.uint64)[0]))
    oracle_pi = cfg.pi_vector()
    out = []
    for method in methods:
        try:
            rej = run_method(method, table, alpha, coins, oracle_pi=oracle_pi)
            out.append(
                (fdp(rej, test.truth), power(rej, test.truth), true_positives(rej, test.truth))
            )
        except ScqError as exc:
            out.append(exc)
    return rep, out


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = len(values)
    if n == 0:
        return float("nan"), float("nan")
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, se


def replication_table(
    methods: Sequence[MethodSpec],
    cfg: SyntheticConfig,
    reps: int,
    master_seed: int,
    alpha: float = 0.05,
    train_frac: float = 0.5,
    threads: int = 1,
) -> np.ndarray:
    """Paired per-replication outcomes, shape ``(reps, len(methods), 3)``.

    The trailing axis holds (fdp, power, true positives), the per-replication
    values of ``METRICS``; replications whose pipeline raised are NaN for
    that method.  If more than ``FAILURE_CAP`` of any method's replications
    fail, the run aborts.
    """
    if reps < 1:
        raise ConfigError("reps must be at least 1")
    jobs = [(tuple(methods), cfg, alpha, train_frac, master_seed, r) for r in range(reps)]
    if threads > 1:
        # imported here so that runs without workers never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            raw = list(pool.map(_replicate_once, jobs, chunksize=max(1, reps // (4 * threads))))
    else:
        raw = [_replicate_once(job) for job in jobs]
    raw.sort(key=lambda item: item[0])

    table = np.full((reps, len(methods), 3), np.nan)
    first_failure = {}
    for r, outcomes in raw:
        for mi, outcome in enumerate(outcomes):
            if isinstance(outcome, Exception):
                first_failure.setdefault(mi, outcome)
            else:
                table[r, mi] = outcome
    for mi, method in enumerate(methods):
        failed = int(np.isnan(table[:, mi, 0]).sum())
        if failed > FAILURE_CAP * reps:
            raise TooManyFailures(
                f"method {method.name!r}: {failed}/{reps} replications failed "
                f"(first: {first_failure[mi]})"
            )
    return table


def compare(
    methods: Sequence[MethodSpec],
    cfg: SyntheticConfig,
    reps: int,
    master_seed: int,
    alpha: float = 0.05,
    train_frac: float = 0.5,
    threads: int = 1,
) -> list[MetricsRow]:
    """Replicate every method over identical per-replication datasets.

    Rows come back in method order; failed replications are excluded from
    that method's averages.
    """
    table = replication_table(methods, cfg, reps, master_seed, alpha, train_frac, threads)
    rows = []
    for mi, method in enumerate(methods):
        good = table[:, mi, :][~np.isnan(table[:, mi, 0])]
        stats = (x for i in range(len(METRICS)) for x in _mean_se(good[:, i]))
        rows.append(MetricsRow(method.name, *stats, len(good)))
    return rows


def run_replications(
    method: MethodSpec,
    cfg: SyntheticConfig,
    reps: int,
    master_seed: int,
    alpha: float = 0.05,
    train_frac: float = 0.5,
    threads: int = 1,
) -> MetricsRow:
    """Single-method convenience wrapper around :func:`compare`."""
    return compare([method], cfg, reps, master_seed, alpha, train_frac, threads)[0]


def rows_to_csv(rows: Sequence[MetricsRow], path) -> None:
    write_csv(path, COLUMNS, map(astuple, rows))


def rows_to_json(rows: Sequence[MetricsRow], path, param_value=None) -> None:
    doc = {"rows": [row.to_dict() for row in rows]}
    if param_value is not None:
        doc["param_value"] = param_value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def long_rows(rows: Sequence[MetricsRow], param_value=None) -> list[list]:
    """Plot-ready long format: method, param_value, metric, value, se."""
    out = []
    for row in rows:
        doc = row.to_dict()
        out.extend([row.name, param_value, m, doc[m], doc[f"{m}_se"]] for m in METRICS)
    return out


def write_long_csv(records: Sequence[Sequence], path) -> None:
    write_csv(
        path,
        ("method", "param_value", "metric", "value", "se"),
        ((name, param, metric, float(value), float(se)) for name, param, metric, value, se in records),
    )
