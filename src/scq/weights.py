"""Structure-adaptive weights learned from side information.

Unit ``j`` borrows evidence from its side-information neighborhood through a
weight matrix whose kind follows ``side.kind`` (a same-group indicator for
groups, a Gaussian kernel for positions), a screened estimate of the local
signal frequency built symmetrically from both coordinates of each p-value
pair, and a bias-correcting odds transform.  Because the estimator only sees
``1{p > lambda} + 1{pt > lambda}`` per unit, it is exactly invariant under
swapping any subset of (test, mirror) pairs, which is what lets the weighted
pairs feed the mirror calibration without breaking its validity.

Kernel aggregation takes one of two exact paths, chosen from the side
information alone.  When every position sits on an integer lattice
(``s - min(s)`` integral, span below ``_LATTICE_SPAN_PER_UNIT * m``, as
for the default positions ``1..m``), the Gaussian sum over units is a
discrete convolution: the columns are binned onto the lattice, with
duplicates added, and convolved by FFT with the kernel evaluated at each
integer offset, in O(m log m).  The kernel is evaluated at the same scaled
distances ``(s_i - s_j) / h`` as on the dense path, so the two paths differ
only in summation order, at roundoff.  Any other positions take the dense
O(m^2) path in row chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .datamodel import SideInfo, write_csv
from .errors import ConfigError, PiOutOfRange

EPS_PI = 1e-3
_KERNEL_CHUNK = 512
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


@dataclass(frozen=True)
class WeightMatrix:
    """Lazy m-by-m nonnegative matrix derived from side information alone.

    The matrix kind follows ``side.kind``: group side info gives the 0/1
    same-category indicator (diagonal all ones), positional side info the
    Gaussian kernel on pairwise position distances with bandwidth
    ``bandwidth``.  Rows are never materialized unless
    :meth:`dense` is called.  :meth:`weighted_sums` aggregates group
    indicators by summing within groups; it aggregates the kernel by one FFT
    convolution when the positions lie on an integer lattice (the default
    positions ``1..m`` do) and by dense row chunks otherwise.  Both kernel
    paths evaluate the kernel at the distances :meth:`dense` uses, so they
    agree with it to roundoff; :meth:`dense` is the reference the tests
    compare against.
    """

    side: SideInfo
    bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.side.kind == "position" and (self.bandwidth is None or self.bandwidth <= 0):
            raise ConfigError("kernel weighting requires a positive bandwidth")

    @property
    def m(self) -> int:
        return len(self.side)

    def _kernel_block(self, rows: np.ndarray) -> np.ndarray:
        s = self.side.values
        return _gaussian((s[rows, None] - s[None, :]) / self.bandwidth, self.bandwidth)

    def _lattice_index(self) -> Optional[np.ndarray]:
        """Lattice offset of each unit, or ``None`` when positions are not on
        an integer lattice of span below ``_LATTICE_SPAN_PER_UNIT * m``."""
        off = self.side.values - self.side.values.min()
        if np.any(off != np.floor(off)) or off.max() >= _LATTICE_SPAN_PER_UNIT * self.m:
            return None
        return off.astype(np.int64)

    def weighted_sums(self, x: np.ndarray) -> np.ndarray:
        """Column aggregation ``(sum_i omega_ij * x_i : j = 1..m)``.

        ``x`` has shape ``(m,)`` or ``(m, k)``; each column is aggregated
        and the result has the shape of ``x``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.m:
            raise ConfigError("aggregation vector length must equal m")
        if self.side.kind == "group":
            groups, idx = np.unique(self.side.values, return_inverse=True)
            return _binned(idx, x, len(groups))[idx]
        idx = self._lattice_index() if self.m else None
        if idx is not None:
            return self._lattice_sums(idx, x)
        out = np.empty_like(x)
        for start in range(0, self.m, _KERNEL_CHUNK):
            rows = np.arange(start, min(start + _KERNEL_CHUNK, self.m))
            out[rows] = self._kernel_block(rows) @ x
        return out

    def _lattice_sums(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Kernel aggregation of lattice positions as one FFT convolution."""
        g = int(idx.max()) + 1
        taps = _gaussian(np.arange(1 - g, g) / self.bandwidth, self.bandwidth)
        # linear convolution: a length >= 2g - 1 keeps the wrap-around out of
        # the g outputs read back
        n = 1 << (2 * g - 2).bit_length()
        spectrum = np.fft.rfft(taps, n).reshape((-1,) + (1,) * (x.ndim - 1))
        conv = np.fft.irfft(np.fft.rfft(_binned(idx, x, g), n, axis=0) * spectrum, n, axis=0)
        return conv[idx + g - 1]

    def dense(self) -> np.ndarray:
        """Materialize the full matrix (intended for small m / tests)."""
        if self.side.kind == "group":
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


def weight_matrix(side: SideInfo, bandwidth: Optional[float] = None) -> WeightMatrix:
    """The neighborhood matrix of ``side``, of the kind ``side.kind`` implies.

    Group side info yields the same-category indicator and ignores
    ``bandwidth``; positional side info yields a Gaussian kernel with
    Silverman's bandwidth unless a fixed bandwidth is supplied.
    """
    if side.kind == "group":
        return WeightMatrix(side=side)
    h = float(bandwidth) if bandwidth is not None else silverman_bandwidth(side)
    return WeightMatrix(side=side, bandwidth=h)


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
    num, row_sums = omega.weighted_sums(np.column_stack([exceed, np.ones(omega.m)])).T
    raw = 1.0 - num / (2.0 * (1.0 - lam) * row_sums)
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
    write_csv(
        path,
        ("unit", "side", "pi_raw", "pi_clipped", "weight"),
        zip(
            range(1, len(wv) + 1),
            side.values.tolist(),
            est.raw.tolist(),
            est.pi_hat.tolist(),
            wv.w.tolist(),
        ),
    )
