"""Structure-adaptive weights learned from side information.

Unit ``j`` borrows evidence from its side-information neighborhood through
:func:`neighbour_sums`, which sums a per-unit quantity over ``j``'s group
for group side info and weighs it by a Gaussian kernel in the position
distance for positional side info.  :func:`estimate_sparsity` feeds it a
screened count built symmetrically from both coordinates of each p-value
pair, giving a local signal-frequency estimate, and a bias-correcting odds
transform turns that into weights.  Because the estimator only sees
``1{p > lambda} + 1{pt > lambda}`` per unit, it is exactly invariant under
swapping any subset of (test, mirror) pairs, which is what lets the weighted
pairs feed the mirror calibration without breaking its validity.  Weights
are float64 arrays; :func:`~scq.conformal.build_pairs` checks that they are
positive and finite.

Kernel sums take one of two exact paths, chosen from the side information
alone.  When every position sits on an integer lattice (``s - min(s)``
integral, span below ``_LATTICE_SPAN_PER_UNIT * m``, as for the default
positions ``1..m``), the Gaussian sum over units is a discrete convolution:
the units are binned onto the lattice, with duplicates added, and convolved
by FFT with the kernel evaluated at each integer offset, in O(m log m).  The
kernel is evaluated at the same scaled distances ``(s_i - s_j) / h`` as on
the dense path, so the two paths differ only in summation order, at
roundoff.  Any other positions take the dense O(m^2) path, which evaluates
the kernel and multiplies in products of one shape: ``_KERNEL_ROWS``
positions, the last tile zero-padded, times as many units as fit in
``_TILE_MACS`` multiply-adds, a size OpenBLAS runs on one thread.  The
column-tile products are added in order, so the sums do not depend on the
BLAS thread count, and memory stays flat in m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .datamodel import SideInfo, write_csv
from .errors import ConfigError, PiOutOfRange
from .scoring import _TILE_MACS

EPS_PI = 1e-3
_KERNEL_ROWS = 64  # positions per dense kernel tile, the last tile zero-padded
# Lattice positions take the FFT path while their span stays below this
# multiple of m, which keeps the convolution grid O(m).
_LATTICE_SPAN_PER_UNIT = 16


def _gaussian(d: np.ndarray, h: float) -> np.ndarray:
    """Gaussian kernel at scaled distances ``d = (s_i - s_j) / h``."""
    return np.exp(-0.5 * d * d) / (h * np.sqrt(2.0 * np.pi))


def _binned(idx: np.ndarray, x: np.ndarray, n_bins: int) -> np.ndarray:
    """Sums of the rows of ``x`` that share a bin index, added in row order."""
    out = np.zeros((n_bins,) + x.shape[1:])
    np.add.at(out, idx, x)
    return out


def neighbour_sums(side: SideInfo, bandwidth: Optional[float], x: np.ndarray) -> np.ndarray:
    """Neighborhood sums ``(sum_i omega_ij * x_i : j = 1..m)``.

    ``omega_ij`` is the same-group indicator for group side info, where
    ``bandwidth`` is ignored, and the Gaussian kernel with bandwidth
    ``bandwidth`` on the position distance ``s_i - s_j`` for positional
    side info.  ``x`` has shape ``(m,)`` or ``(m, k)``; each column is
    summed and the result has the shape of ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    s = side.values
    m = len(s)
    if side.kind == "group":
        groups, idx = np.unique(s, return_inverse=True)
        return _binned(idx, x, len(groups))[idx]
    off = s - s.min() if m else s
    if m and np.all(off == np.floor(off)) and off.max() < _LATTICE_SPAN_PER_UNIT * m:
        idx = off.astype(np.int64)
        g = int(idx.max()) + 1
        taps = _gaussian(np.arange(1 - g, g) / bandwidth, bandwidth)
        # linear convolution: a length >= 2g - 1 keeps the wrap-around out of
        # the g outputs read back
        n = 1 << (2 * g - 2).bit_length()
        spectrum = np.fft.rfft(taps, n).reshape((-1,) + (1,) * (x.ndim - 1))
        conv = np.fft.irfft(np.fft.rfft(_binned(idx, x, g), n, axis=0) * spectrum, n, axis=0)
        return conv[idx + g - 1]
    xs = x if x.ndim == 2 else x[:, None]
    cols = max(1, _TILE_MACS // (_KERNEL_ROWS * xs.shape[1]))
    rows = np.zeros(-(-m // _KERNEL_ROWS) * _KERNEL_ROWS)
    rows[:m] = s
    out = np.zeros((len(rows), xs.shape[1]))
    for lo in range(0, m, _KERNEL_ROWS):
        tile = rows[lo : lo + _KERNEL_ROWS, None]
        for c in range(0, m, cols):
            kernel = _gaussian((tile - s[c : c + cols]) / bandwidth, bandwidth)
            out[lo : lo + _KERNEL_ROWS] += kernel @ xs[c : c + cols]
    return out[:m].reshape(x.shape)


@dataclass(frozen=True)
class SparsityEstimate:
    """Screened local signal-frequency estimates, clipped for stability."""

    pi_hat: np.ndarray
    raw: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi_hat", np.asarray(self.pi_hat, dtype=np.float64))
        object.__setattr__(self, "raw", np.asarray(self.raw, dtype=np.float64))


def silverman_bandwidth(side: SideInfo) -> float:
    """Rule-of-thumb bandwidth 1.06 * sd(S) * m^(-1/5) on positional side info."""
    s = side.values.astype(np.float64)
    m = len(s)
    sd = float(s.std(ddof=1)) if m > 1 else 0.0
    h = 1.06 * sd * m ** (-0.2)
    return h if np.isfinite(h) and h > 0.0 else 1.0


def estimate_sparsity(
    side: SideInfo,
    bandwidth: Optional[float],
    p: np.ndarray,
    p_tilde: np.ndarray,
    lam: float,
) -> SparsityEstimate:
    """Screened neighborhood estimate of the local signal frequency.

    For each unit, the fraction of neighborhood p-values (test and mirror
    sides pooled) exceeding the screening threshold ``lam`` is converted to
    a signal-frequency estimate and clipped to
    ``[EPS_PI, 1/2 - EPS_PI]``; the unclipped values are kept for
    diagnostics.  The neighborhood is that of :func:`neighbour_sums`;
    positional side info uses Silverman's bandwidth unless ``bandwidth``
    is given, and group side info ignores ``bandwidth``.
    """
    if not 0.0 < lam < 1.0:
        raise ConfigError("lambda must lie in (0, 1)")
    p = np.asarray(p, dtype=np.float64)
    p_tilde = np.asarray(p_tilde, dtype=np.float64)
    m = len(side)
    if not (len(p) == len(p_tilde) == m):
        raise ConfigError("p-value arrays must match the side information's length")
    if side.kind == "position":
        bandwidth = silverman_bandwidth(side) if bandwidth is None else float(bandwidth)
        if not 0.0 < bandwidth < np.inf:
            raise ConfigError(f"bandwidth must be positive and finite, got {bandwidth}")
    exceed = (p > lam).astype(np.float64) + (p_tilde > lam)
    num, row_sums = neighbour_sums(side, bandwidth, np.column_stack([exceed, np.ones(m)])).T
    raw = 1.0 - num / (2.0 * (1.0 - lam) * row_sums)
    clipped = np.clip(raw, EPS_PI, 0.5 - EPS_PI)
    return SparsityEstimate(pi_hat=clipped, raw=raw)


def structure_weights(est: SparsityEstimate) -> np.ndarray:
    """Bias-corrected odds transform ``w_j = pi_hat_j / (1/2 - pi_hat_j)``.

    The estimator concentrates near half the true signal frequency, so
    dividing by ``1/2 - pi_hat`` recovers the odds scale of
    :func:`oracle_weights`.
    """
    return est.pi_hat / (0.5 - est.pi_hat)


def oracle_weights(pi: Sequence[float]) -> np.ndarray:
    """Odds transform of known signal frequencies, for simulation studies."""
    arr = np.asarray(pi, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise PiOutOfRange("oracle pi values must lie strictly inside (0, 1)")
    return arr / (1.0 - arr)


def dump_weight_diagnostics(path, side: SideInfo, est: SparsityEstimate, w: np.ndarray) -> None:
    """Write per-unit weight diagnostics as CSV (unit,side,pi_raw,pi_clipped,weight)."""
    write_csv(
        path,
        ("unit", "side", "pi_raw", "pi_clipped", "weight"),
        zip(
            range(1, len(w) + 1),
            side.values.tolist(),
            est.raw.tolist(),
            est.pi_hat.tolist(),
            w.tolist(),
        ),
    )
