"""Transductive automated model selection guided by pseudo-rejections.

Selecting the classifier that maximizes true rejections would peek at the
asymmetry between test and mirror scores and void the calibration
guarantee.  Instead, each candidate is judged by the rejection count the
calibration produces on swap-invariant pseudo-score pairs:

* units in a preliminary rejection set (BH on the pairwise-minimum
  p-values at level ``alpha0``) keep their pair ordered (min, max), which
  preserves the signal tendency;
* all other units get their pair ordered by an index-keyed coin, which
  mimics the random ordering a null unit exhibits.

Both operators read a pair only through its unordered values, so for a
fixed coin stream the whole selection is exactly invariant under swapping
any subset of (test, mirror) pairs in the raw inputs.  The coins are
derived by a counter-based hash of (seed, unit index) alone: stable under
any processing order, any m, and any change to feature values.

A selector's answer is :func:`~scq.pipeline.run_scq` of the selected
classifier at the selected screening threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .conformal import RejectionSet, ScorePairs, bc_threshold, bh, check_alpha
from .datamodel import InferenceData
from .errors import AllCandidatesFailed, ConfigError, ScqError
from .pipeline import CandidateScores, SCQResult, ScoreTable, WeightConfig, run_scq, weighted_pairs

DEFAULT_LAMBDA_GRID = (0.05, 0.1, 0.2, 0.3, 0.5)
STAGE1_LAMBDA = 0.1

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    z = x & _MASK
    z = (z ^ (z >> np.uint64(30))) * _MIX1 & _MASK
    z = (z ^ (z >> np.uint64(27))) * _MIX2 & _MASK
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class Toolbox:
    """Ordered candidate classifiers with display labels."""

    candidates: tuple
    names: tuple = ()

    def __post_init__(self):
        cands = tuple(self.candidates)
        if len(cands) < 1:
            raise ConfigError("toolbox must hold at least one candidate")
        names = tuple(self.names) if self.names else tuple(c.name for c in cands)
        if len(names) != len(cands):
            raise ConfigError("names must match candidates one-to-one")
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "names", names)

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class CoinStream:
    """Index-keyed fair coins: ``b_j = bit(hash(seed, j))``.

    By construction the coins depend on nothing but (seed, unit index),
    never on features, scores, or p-values.
    """

    seed: int

    def bits(self, m: int) -> np.ndarray:
        j = np.arange(1, m + 1, dtype=np.uint64)
        state = (np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF) + j * _GOLDEN) & _MASK
        return (_splitmix64(state) >> np.uint64(63)).astype(np.int8)


def checked_lambda_grid(values) -> list:
    """``values`` sorted, if they form a nonempty grid of thresholds in (0, 1)."""
    grid = sorted(map(float, values))
    if not grid or any(not 0.0 < l < 1.0 for l in grid):
        raise ConfigError(f"lambda_grid must be nonempty, with values in (0, 1), got {values!r}")
    return grid


def preliminary_partition(p: np.ndarray, p_tilde: np.ndarray, alpha0: float) -> RejectionSet:
    """BH on the pairwise-minimum p-values: a swap-invariant signal screen."""
    if not 0.0 < alpha0 < 1.0:
        raise ConfigError("alpha0 must lie in (0, 1)")
    return bh(np.minimum(p, p_tilde), alpha0)


def pseudo_scores(pairs: ScorePairs, prelim: RejectionSet, coins: CoinStream) -> ScorePairs:
    """Symmetrized pseudo pairs for selection.

    Preliminary rejections are ordered (min, max); the rest are ordered by
    the unit's coin (1 puts the smaller value first).  Each output pair is
    a function of the unordered input pair and the coin alone, and its
    value multiset always equals the input pair's.
    """
    m = len(pairs)
    if prelim.mask.shape != (m,):
        raise ConfigError("preliminary rejection mask must cover units 1..m")
    lo = np.minimum(pairs.v, pairs.vt)
    hi = np.maximum(pairs.v, pairs.vt)
    forward = prelim.mask | (coins.bits(m) == 1)
    return ScorePairs(v=np.where(forward, lo, hi), vt=np.where(forward, hi, lo))


@dataclass(frozen=True)
class CandidateRecord:
    k: int
    name: str
    prelim: RejectionSet
    r_k: int
    error: Optional[str] = None


@dataclass(frozen=True)
class SelectionTrace:
    """Per-candidate pseudo-rejection counts and the selection outcome."""

    records: tuple
    selected: int
    tie_rule_applied: bool
    lambda_star: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "candidates": [
                {
                    "name": rec.name,
                    "r_k": rec.r_k,
                    "prelim_size": len(rec.prelim),
                    **({"error": rec.error} if rec.error else {}),
                }
                for rec in self.records
            ],
            "selected": self.selected,
            "tie_rule_applied": self.tie_rule_applied,
            "lambda_star": self.lambda_star,
        }


def _pseudo_rejection_count(
    scores: CandidateScores,
    prelim: RejectionSet,
    weight_cfg: WeightConfig,
    table: ScoreTable,
    alpha: float,
    coins: CoinStream,
) -> int:
    w, _ = table.weights(scores, weight_cfg)
    _, rej = bc_threshold(pseudo_scores(weighted_pairs(scores, w), prelim, coins), alpha)
    return len(rej)


def _select_candidate(toolbox, table, alpha, coins, alpha0, weight_cfg) -> SelectionTrace:
    """Stage one of :func:`ptams`: score every candidate, pick the best."""
    check_alpha(alpha)
    if alpha0 is None:
        alpha0 = 2.0 * alpha
    if not 0.0 < alpha0 < 1.0:
        raise ConfigError("alpha0 must lie in (0, 1); pass alpha0 explicitly")
    # checked before any fit: in the loop it would count as every candidate failing
    if weight_cfg.mode == "oracle" and table.data.test.pi is None:
        raise ConfigError("oracle weights need the true signal frequencies of simulated data")

    records = []
    for k, (spec, name) in enumerate(zip(toolbox.candidates, toolbox.names), start=1):
        try:
            scores = table.scores(spec)
            prelim = preliminary_partition(scores.p, scores.p_tilde, alpha0)
            r_k = _pseudo_rejection_count(scores, prelim, weight_cfg, table, alpha, coins)
        except ScqError as exc:
            empty = RejectionSet(mask=np.zeros(table.data.m, dtype=bool), alpha=alpha0)
            records.append(CandidateRecord(k=k, name=name, prelim=empty, r_k=-1, error=str(exc)))
            continue
        records.append(CandidateRecord(k=k, name=name, prelim=prelim, r_k=r_k))

    best = max(rec.r_k for rec in records)
    if best == -1:
        raise AllCandidatesFailed("every candidate in the toolbox failed to fit")
    winners = [rec.k for rec in records if rec.r_k == best]
    return SelectionTrace(
        records=tuple(records), selected=min(winners), tie_rule_applied=len(winners) > 1
    )


def ptams(
    toolbox: Toolbox,
    data: Union[InferenceData, ScoreTable],
    alpha: float,
    coins: CoinStream,
    alpha0: Optional[float] = None,
    weight_cfg: WeightConfig = WeightConfig(),
) -> tuple[SelectionTrace, SCQResult]:
    """Select a classifier by pseudo-rejection count, then run it for real.

    Candidates whose fit raises are excluded with sentinel count -1; ties
    in the pseudo-rejection count go to the smallest candidate index.  The
    returned result is :func:`~scq.pipeline.run_scq` of the selected
    classifier at level ``alpha``.  ``data`` may be a
    :class:`~scq.pipeline.ScoreTable`, whose fits and weights it reuses.

    Raises
    ------
    AllCandidatesFailed
        If no candidate fits.
    """
    table = ScoreTable.of(data)
    trace = _select_candidate(toolbox, table, alpha, coins, alpha0, weight_cfg)
    return trace, run_scq(table, toolbox.candidates[trace.selected - 1], weight_cfg, alpha)


def ptams_plus(
    toolbox: Toolbox,
    data: Union[InferenceData, ScoreTable],
    alpha: float,
    coins: CoinStream,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    alpha0: Optional[float] = None,
    weight_cfg: WeightConfig = WeightConfig(),
) -> tuple[SelectionTrace, float, SCQResult]:
    """Model selection followed by screening-threshold selection.

    Stage one runs the :func:`ptams` selection with the screening threshold
    pinned at ``STAGE1_LAMBDA`` to pick the classifier; stage two reuses
    that classifier's p-values and preliminary set, sweeps the grid,
    scoring each threshold by its pseudo-rejection count (ties go to the
    smallest threshold), and returns :func:`~scq.pipeline.run_scq` of the
    winning pair.  ``data`` may be a table, as for :func:`ptams`.
    """
    grid = checked_lambda_grid(lambda_grid)
    table = ScoreTable.of(data)
    trace = _select_candidate(
        toolbox, table, alpha, coins, alpha0, replace(weight_cfg, lam=STAGE1_LAMBDA)
    )
    spec = toolbox.candidates[trace.selected - 1]
    winner = trace.records[trace.selected - 1]
    # stage one already counted the winner at STAGE1_LAMBDA with the same coins
    counts = [
        winner.r_k if lam == STAGE1_LAMBDA else _pseudo_rejection_count(
            table.scores(spec), winner.prelim, replace(weight_cfg, lam=lam), table, alpha, coins
        )
        for lam in grid
    ]
    lam_star = grid[counts.index(max(counts))]
    trace = replace(trace, lambda_star=lam_star)
    return trace, lam_star, run_scq(table, spec, replace(weight_cfg, lam=lam_star), alpha)
