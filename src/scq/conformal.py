"""Conformal p-values, mirror calibration, q-values, and BH-style baselines.

The two-stage calibration starts from exact-rational conformal p-values,
divides them by structural weights to form per-unit score pairs, and
calibrates the pairs against the mirror process ``H(t)``:

    H(t) = (1 + #{j : vt_j <= t, vt_j < v_j}) / max(1, #{j : v_j <= t, v_j < vt_j})

Pair comparisons are strict, so exact ties ``v == vt`` count on neither
side and always receive q-value 1; a tie diagnostic is surfaced instead of
silently perturbing values.  All counting uses exact binary64 comparisons
with no epsilon, which makes q-value thresholding and direct score
thresholding agree as sets, not merely approximately.

Test units are numbered 1..m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigError, DegenerateFit, NonPositiveWeight

STOREY_LAMBDA = 0.5  # Storey's null-fraction estimate counts p-values above this


@dataclass(frozen=True)
class ScorePairs:
    """Weighted (test, mirror) score pairs for units 1..m, as two float64 arrays."""

    v: np.ndarray
    vt: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        vt = np.asarray(self.vt, dtype=np.float64)
        if v.shape != vt.shape or v.ndim != 1:
            raise ConfigError("v and vt must be 1-d arrays of equal length")
        if not (np.all(v > 0.0) and np.all(vt > 0.0)):
            raise ConfigError("score pairs must be strictly positive")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "vt", vt)

    def __len__(self) -> int:
        return len(self.v)

    @cached_property
    def _mirror_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """H evaluated on the merged sorted grid of all 2m scores.

        Returns (grid, H-on-grid).  A single sorted sweep: numerator events
        sit at mirror scores of reversed pairs, denominator events at test
        scores of forward pairs.  Built once per pairs object, so the
        q-values and the threshold of one calibration share it.
        """
        v, vt = self.v, self.vt
        grid = np.sort(np.concatenate([v, vt]))
        num_events = np.sort(vt[vt < v])
        den_events = np.sort(v[v < vt])
        num = 1 + np.searchsorted(num_events, grid, side="right")
        den = np.maximum(1, np.searchsorted(den_events, grid, side="right"))
        return grid, num / den


@dataclass(frozen=True)
class RejectionSet:
    """Rejection mask over units 1..m and the level used."""

    mask: np.ndarray
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))

    def sorted(self) -> list:
        """Rejected unit ids (1-based) in increasing order."""
        return (np.flatnonzero(self.mask) + 1).tolist()

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))


def conformal_pvalues(cal_scores: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """P-value numerators ``1 + #{cal <= s}`` for a batch of scores.

    The p-value of score ``s`` is the numerator over ``N + 1`` for ``N``
    calibration scores; ties count inclusively, so it lives on the exact
    grid ``{1/(N+1), ..., 1}``.  A NaN score has no rank and raises
    :class:`DegenerateFit`.
    """
    cal = np.sort(np.asarray(cal_scores, dtype=np.float64))
    if cal.size == 0:
        raise ConfigError("calibration scores must be nonempty")
    s = np.asarray(scores, dtype=np.float64)
    if np.isnan(cal[-1]) or np.any(np.isnan(s)):
        raise DegenerateFit("NaN conformity score: the fitted model is numerically degenerate")
    return 1 + np.searchsorted(cal, s, side="right").astype(np.int64)


def build_pairs(p: np.ndarray, p_tilde: np.ndarray, w: np.ndarray) -> ScorePairs:
    """Divide each (test, mirror) p-value pair by its unit weight."""
    p = np.asarray(p, dtype=np.float64)
    p_tilde = np.asarray(p_tilde, dtype=np.float64)
    wa = np.asarray(w, dtype=np.float64)
    if not (len(p) == len(p_tilde) == len(wa)):
        raise ConfigError("p, p_tilde, and w must share length")
    if np.any(wa <= 0.0) or not np.all(np.isfinite(wa)):
        raise NonPositiveWeight("weights must be strictly positive and finite")
    return ScorePairs(v=p / wa, vt=p_tilde / wa)


def count_tied_pairs(pairs: ScorePairs) -> int:
    """Diagnostic: pairs with exactly equal coordinates contribute to neither side."""
    return int(np.count_nonzero(pairs.v == pairs.vt))


def scq_qvalues(pairs: ScorePairs) -> np.ndarray:
    """Conformal q-values: running minima of ``H`` over the merged score grid.

    ``q_j = min{H(t) : t in grid, t >= v_j}`` (capped at 1) when
    ``v_j < vt_j``; reversed or tied pairs get ``q_j = 1``.  Computed in
    O(m log m) by one sorted sweep plus suffix minima.
    """
    if len(pairs) == 0:
        raise ConfigError("pairs must be nonempty")
    v, vt = pairs.v, pairs.vt
    grid, h = pairs._mirror_grid
    # min over grid points >= v_j, via suffix minima of H
    suffix_min = np.minimum.accumulate(h[::-1])[::-1]
    q = np.ones(len(v))
    fwd = v < vt
    if np.any(fwd):
        pos = np.searchsorted(grid, v[fwd], side="left")
        q[fwd] = np.minimum(suffix_min[pos], 1.0)
    return q


def check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")


def scq_reject(q: np.ndarray, alpha: float) -> RejectionSet:
    """Units with q-value at or below the target level."""
    check_alpha(alpha)
    return RejectionSet(mask=np.asarray(q) <= alpha, alpha=alpha)


def bc_threshold(pairs: ScorePairs, alpha: float) -> tuple[Optional[float], RejectionSet]:
    """Direct score thresholding: the largest grid point with ``H(t) <= alpha``.

    Returns ``(tau, rejections)``; ``tau`` is absent (and the rejection set
    empty) when no grid point qualifies.
    """
    check_alpha(alpha)
    v, vt = pairs.v, pairs.vt
    grid, h = pairs._mirror_grid
    ok = np.flatnonzero(h <= alpha)
    if ok.size == 0:
        return None, RejectionSet(mask=np.zeros(len(v), dtype=bool), alpha=alpha)
    tau = float(grid[ok[-1]])
    return tau, RejectionSet(mask=(v <= tau) & (v < vt), alpha=alpha)


def evalues(pairs: ScorePairs, alpha: float) -> np.ndarray:
    """Per-unit e-values induced by the mirror threshold.

    ``e_j = m * 1{v_j <= tau, v_j < vt_j} / (1 + #{i : vt_i <= tau, vt_i < v_i})``,
    an all-zero vector when the threshold is absent.
    """
    v, vt = pairs.v, pairs.vt
    tau, rej = bc_threshold(pairs, alpha)
    m = len(v)
    if tau is None:
        return np.zeros(m)
    mirror_count = int(np.count_nonzero((vt <= tau) & (vt < v)))
    return m * rej.mask.astype(np.float64) / (1 + mirror_count)


def ebh(e: np.ndarray, alpha: float) -> RejectionSet:
    """e-BH step-up: reject the units carrying the ``khat`` largest e-values.

    ``khat = max{i : i * e_(i) / m >= 1 / alpha}`` over the descending order
    statistics; empty when no index qualifies.
    """
    check_alpha(alpha)
    arr = np.asarray(e, dtype=np.float64)
    m = len(arr)
    desc = np.sort(arr)[::-1]
    ok = np.flatnonzero(np.arange(1, m + 1) * desc / m >= 1.0 / alpha)
    if ok.size == 0:
        return RejectionSet(mask=np.zeros(m, dtype=bool), alpha=alpha)
    return RejectionSet(mask=arr >= desc[ok[-1]], alpha=alpha)


def _step_up(p: np.ndarray, level: float, alpha: float) -> RejectionSet:
    m = len(p)
    order = np.sort(p)
    ok = np.flatnonzero(order <= level * np.arange(1, m + 1) / m)
    if ok.size == 0:
        return RejectionSet(mask=np.zeros(m, dtype=bool), alpha=alpha)
    return RejectionSet(mask=p <= order[ok[-1]], alpha=alpha)


def bh(pvals: np.ndarray, alpha: float) -> RejectionSet:
    """Benjamini-Hochberg step-up at level ``alpha`` (1-based unit ids)."""
    check_alpha(alpha)
    return _step_up(np.asarray(pvals, dtype=np.float64), alpha, alpha)


def storey_bh(pvals: np.ndarray, alpha: float) -> RejectionSet:
    """BH at level ``alpha / pi0_hat`` with Storey's null-fraction estimate.

    ``pi0_hat = (1 + #{p_j > STOREY_LAMBDA}) / (m (1 - STOREY_LAMBDA))``,
    capped at 1.
    """
    check_alpha(alpha)
    p = np.asarray(pvals, dtype=np.float64)
    if len(p) == 0:
        return RejectionSet(mask=np.zeros(0, dtype=bool), alpha=alpha)
    pi0 = (1 + int(np.count_nonzero(p > STOREY_LAMBDA))) / (len(p) * (1.0 - STOREY_LAMBDA))
    pi0 = min(1.0, pi0)
    return _step_up(p, alpha / pi0, alpha)
