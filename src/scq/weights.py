"""Structure-adaptive weights learned from side information.

Unit ``j`` borrows evidence from its side-information neighborhood through
a weight matrix (group indicator or Gaussian kernel on positions), a
screened estimate of the local signal frequency built symmetrically from
both coordinates of each p-value pair, and a bias-correcting odds
transform.  Because the estimator only sees ``1{p > lambda} + 1{pt > lambda}``
per unit, it is exactly invariant under swapping any subset of
(test, mirror) pairs, which is what lets the weighted pairs feed the
mirror calibration without breaking its validity.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .datamodel import SideInfo
from .errors import ConfigError, PiOutOfRange, VariantMismatch

EPS_PI = 1e-3
_KERNEL_CHUNK = 512


@dataclass(frozen=True)
class WeightMatrix:
    """Lazy m-by-m nonnegative matrix derived from side information alone.

    ``kind`` is ``"group"`` (0/1 same-category indicator, diagonal all
    ones) or ``"kernel"`` (Gaussian kernel on pairwise position distances
    with bandwidth ``bandwidth``).  Rows are never materialized unless
    :meth:`dense` is called; aggregation helpers preserve exact row
    semantics.
    """

    side: SideInfo
    kind: str
    bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("group", "kernel"):
            raise ConfigError(f"unknown weight matrix kind {self.kind!r}")
        if self.kind == "kernel" and (self.bandwidth is None or self.bandwidth <= 0):
            raise ConfigError("kernel weighting requires a positive bandwidth")

    @property
    def m(self) -> int:
        return len(self.side)

    def _kernel_block(self, rows: np.ndarray) -> np.ndarray:
        s = self.side.values.astype(np.float64)
        h = self.bandwidth
        d = (s[rows, None] - s[None, :]) / h
        return np.exp(-0.5 * d * d) / (h * np.sqrt(2.0 * np.pi))

    def weighted_sums(self, x: np.ndarray) -> np.ndarray:
        """Column aggregation ``(sum_i omega_ij * x_i : j = 1..m)``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.m:
            raise ConfigError("aggregation vector length must equal m")
        if self.kind == "group":
            _, inv = np.unique(self.side.values, return_inverse=True)
            sums = np.bincount(inv, weights=x)
            return sums[inv]
        out = np.empty(self.m)
        for start in range(0, self.m, _KERNEL_CHUNK):
            rows = np.arange(start, min(start + _KERNEL_CHUNK, self.m))
            out[rows] = self._kernel_block(rows) @ x
        return out

    def row_sums(self) -> np.ndarray:
        return self.weighted_sums(np.ones(self.m))

    def dense(self) -> np.ndarray:
        """Materialize the full matrix (intended for small m / tests)."""
        if self.kind == "group":
            s = self.side.values
            return (s[:, None] == s[None, :]).astype(np.float64)
        return self._kernel_block(np.arange(self.m))


@dataclass(frozen=True)
class SparsityEstimate:
    """Screened local signal-frequency estimates, clipped for stability."""

    pi_hat: np.ndarray
    lam: float
    raw: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi_hat", np.asarray(self.pi_hat, dtype=np.float64))
        object.__setattr__(self, "raw", np.asarray(self.raw, dtype=np.float64))


@dataclass(frozen=True)
class WeightVector:
    w: np.ndarray

    def __post_init__(self):
        wa = np.asarray(self.w, dtype=np.float64)
        if np.any(wa <= 0.0) or not np.all(np.isfinite(wa)):
            raise ConfigError("weight vector must be strictly positive and finite")
        object.__setattr__(self, "w", wa)

    def __len__(self) -> int:
        return len(self.w)


def silverman_bandwidth(side: SideInfo) -> float:
    """Rule-of-thumb bandwidth 1.06 * sd(S) * m^(-1/5) on positional side info."""
    s = side.values.astype(np.float64)
    m = len(s)
    sd = float(s.std(ddof=1)) if m > 1 else 0.0
    h = 1.06 * sd * m ** (-0.2)
    return h if np.isfinite(h) and h > 0.0 else 1.0


def weight_matrix(
    side: SideInfo, kind: str, bandwidth: Optional[float] = None
) -> WeightMatrix:
    """Build the neighborhood matrix for the matching side-info variant.

    Group side info yields the same-category indicator; positional side
    info yields a Gaussian kernel with Silverman's bandwidth unless a
    fixed bandwidth is supplied.
    """
    if kind == "group":
        if side.kind != "group":
            raise VariantMismatch("group weighting needs categorical side info")
        return WeightMatrix(side=side, kind="group")
    if kind == "kernel":
        if side.kind != "position":
            raise VariantMismatch("kernel weighting needs positional side info")
        h = float(bandwidth) if bandwidth is not None else silverman_bandwidth(side)
        return WeightMatrix(side=side, kind="kernel", bandwidth=h)
    raise ConfigError(f"unknown weight matrix kind {kind!r}")


def matrix_for_side(side: SideInfo, bandwidth: Optional[float] = None) -> WeightMatrix:
    """Pick the matrix kind implied by the side-info variant."""
    return weight_matrix(side, "group" if side.kind == "group" else "kernel", bandwidth)


def estimate_sparsity(
    omega: WeightMatrix,
    p: np.ndarray,
    p_tilde: np.ndarray,
    lam: float = 0.1,
) -> SparsityEstimate:
    """Screened neighborhood estimate of the local signal frequency.

    For each unit, the fraction of neighborhood p-values (test and mirror
    sides pooled) exceeding the screening threshold ``lam`` is converted to
    a signal-frequency estimate and clipped to
    ``[EPS_PI, 1/2 - EPS_PI]``; the unclipped values are kept for
    diagnostics.
    """
    if not 0.0 < lam < 1.0:
        raise ConfigError("lambda must lie in (0, 1)")
    p = np.asarray(p, dtype=np.float64)
    p_tilde = np.asarray(p_tilde, dtype=np.float64)
    if not (len(p) == len(p_tilde) == omega.m):
        raise ConfigError("p-value arrays must match the matrix size")
    exceed = (p > lam).astype(np.float64) + (p_tilde > lam)
    raw = 1.0 - omega.weighted_sums(exceed) / (2.0 * (1.0 - lam) * omega.row_sums())
    clipped = np.clip(raw, EPS_PI, 0.5 - EPS_PI)
    return SparsityEstimate(pi_hat=clipped, lam=lam, raw=raw)


def structure_weights(est: SparsityEstimate) -> WeightVector:
    """Bias-corrected odds transform ``w_j = pi_hat_j / (1/2 - pi_hat_j)``.

    The estimator concentrates near half the true signal frequency, so
    dividing by ``1/2 - pi_hat`` recovers the odds scale of
    :func:`oracle_weights`.
    """
    return WeightVector(w=est.pi_hat / (0.5 - est.pi_hat))


def oracle_weights(pi: Sequence[float]) -> WeightVector:
    """Odds transform of known signal frequencies, for simulation studies."""
    arr = np.asarray(pi, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise PiOutOfRange("oracle pi values must lie strictly inside (0, 1)")
    return WeightVector(w=arr / (1.0 - arr))


def dump_weight_diagnostics(
    path, side: SideInfo, est: SparsityEstimate, wv: WeightVector
) -> None:
    """Write per-unit weight diagnostics as CSV (unit,side,pi_raw,pi_clipped,weight)."""
    fmt = str if side.kind == "group" else repr
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "side", "pi_raw", "pi_clipped", "weight"])
        writer.writerows(
            zip(
                range(1, len(wv) + 1),
                map(fmt, side.values.tolist()),
                map(repr, est.raw.tolist()),
                map(repr, est.pi_hat.tolist()),
                map(repr, wv.w.tolist()),
            )
        )
