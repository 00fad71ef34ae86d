"""Score-function toolbox: one-class, binary, and positive-unlabeled models.

Every fitted model maps a feature vector to a real conformity score with
the convention that smaller scores mean stronger outlier evidence.  Two
structural contracts hold by construction:

* one-class and binary fits depend only on the training nulls (and labeled
  outliers), never on test, mirror, or calibration data;
* positive-unlabeled fits consume the transductive pool, which
  :class:`~scq.pipeline.ScoreTable` stacks, only through its
  canonically sorted multiset, so refitting after any permutation, or any
  swap of (test, mirror) pairs, reproduces the model bit for bit.

Fits are deterministic: closed-form moments, fixed bandwidth rules, and
fixed-iteration full-batch gradient descent with zero initialization on
feature columns scaled by powers of two.

The module needs numpy alone.  The KDE row log-sum-exp splits off the row
maximum in the order scipy's ``logsumexp`` uses (analysed by Blanchard,
Higham & Higham, 2021, *IMA J. Numer. Anal.* 41:2311), so KDE scores are
bit-identical to those of releases that called scipy.  It finds the
maximum with one ``argmax`` per row and counts ties only when some row's
runner-up is not strictly below it; a unique maximum leaves the block
exactly as the count would, so the fast path changes the cost, not the
order of the sum.

The distance scorers (KDE, both kNNs, and so the KDE ratio) hand one row
reduction to ``_reduce_rows``, which reduces the distances block by block,
so memory stays flat as the batch grows.  Every product a score reads runs
at one shape fixed by the model: a distance product multiplies a
zero-padded tile of ``_block_rows(n_ref)`` rows by a tile of reference
rows worth at most ``_TILE_MACS`` multiply-adds, which OpenBLAS runs on
one thread, and the Gaussian and logistic products run in ``np.einsum``,
outside BLAS.  So a score is a function of its row alone, whatever its
batch, its offset in the batch or the BLAS thread count, and a swap of two
rows between or within batches swaps their scores exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from .errors import ConfigError, DegenerateFit, DimensionMismatch, MissingOutliers, read_config

# family -> method -> the hyperparameters the method reads, each with its
# JSON kind and default (None: chosen from the data); every one is positive
_BANDWIDTH = {"bandwidth": (float, None)}
_K = {"k": (int, None)}
_DESCENT = {"iterations": (int, 500), "step": (float, 0.1)}
FAMILIES = {
    "OCC": {"gaussian": {}, "kde": _BANDWIDTH, "knn": _K},
    "BIC": {"logistic": _DESCENT, "knn": _K},
    "PUC": {"kde-ratio": _BANDWIDTH, "pu-logistic": _DESCENT},
}

# log of the smallest positive double; a KDE log density is floored at this
# times the feature count, one smallest double per coordinate, so that rows
# far from every reference row in wide data keep distinct scores
LOG_DENSITY_FLOOR = -745.0
# Distance blocks hold a multiple of _BLOCK_ROWS rows, as many as fit in
# _BLOCK_ENTRIES entries (two buffers near 1 MB, inside L2).
_BLOCK_ROWS = 48
_BLOCK_ENTRIES = 1 << 16
_TILE_MACS = 1 << 18  # OpenBLAS runs a product this small on one thread


@dataclass(frozen=True)
class ClassifierSpec:
    """A (family, method) pair plus method-specific hyperparameters."""

    family: str
    method: str
    hyperparams: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if self.method not in FAMILIES[self.family]:
            raise ConfigError(
                f"method {self.method!r} not supported for family {self.family!r}"
            )
        table = FAMILIES[self.family][self.method]
        hyperparams = read_config(self.hyperparams, table, f"{self.name} hyperparams")
        for key, value in hyperparams.items():
            if value is not None and not 0 < value < np.inf:
                raise ConfigError(f"{key} must be positive and finite, got {value}")
        object.__setattr__(self, "hyperparams", hyperparams)

    def __hash__(self) -> int:
        # hyperparams holds every key of the method's table, in table order
        return hash((self.family, self.method, tuple(self.hyperparams.items())))

    @property
    def name(self) -> str:
        return f"{self.family}/{self.method}"

    def to_dict(self) -> dict:
        return {"family": self.family, "method": self.method, "hyperparams": dict(self.hyperparams)}


@dataclass(frozen=True)
class ScoreModel:
    """Opaque fitted parameters plus the (family, method) tag and dimension."""

    family: str
    method: str
    dim: int
    params: Mapping[str, Any]


def _canonical_sort(rows: np.ndarray) -> np.ndarray:
    # lexicographic row order: first coordinate is the primary key
    if rows.shape[0] <= 1:
        return rows
    order = np.lexsort(rows.T[::-1])
    return rows[order]


def _silverman_bandwidths(train: np.ndarray) -> np.ndarray:
    n = train.shape[0]
    sd = train.std(axis=0, ddof=1) if n > 1 else np.zeros(train.shape[1])
    h = 1.06 * sd * n ** (-0.2)
    h[~np.isfinite(h) | (h <= 0.0)] = 1e-6
    return h


def _regularized_cholesky(cov: np.ndarray, dim: int) -> np.ndarray:
    """Cholesky of cov + lam*I, escalating lam tenfold up to three times."""
    trace = float(np.trace(cov))
    lam = 1e-6 * trace / dim
    if not np.isfinite(lam) or lam <= 0.0:
        lam = 1e-6
    for _ in range(4):
        try:
            return np.linalg.cholesky(cov + lam * np.eye(dim))
        except np.linalg.LinAlgError:
            lam *= 10.0
    raise DegenerateFit("covariance not positive definite after regularization fallbacks")


def _fit_gaussian(train: np.ndarray) -> dict:
    n, p = train.shape
    mean = train.mean(axis=0)
    cov = np.cov(train, rowvar=False, ddof=1) if n > 1 else np.zeros((p, p))
    cov = np.atleast_2d(cov)
    if not np.all(np.isfinite(cov)):
        raise DegenerateFit("covariance of the training nulls is not finite")
    chol = _regularized_cholesky(cov, p)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return {
        "mean": mean,
        "chol": chol,
        "inv_chol": np.linalg.inv(chol),
        "logdet": logdet,
    }


def _gaussian_logpdf(params: dict, x: np.ndarray) -> np.ndarray:
    sol = np.einsum("ij,kj->ik", x - params["mean"], params["inv_chol"])
    maha = np.sum(sol * sol, axis=1)
    p = x.shape[1]
    return -0.5 * (p * np.log(2.0 * np.pi) + params["logdet"] + maha)


def _fit_kde(train: np.ndarray, bandwidth: Optional[float]) -> dict:
    if bandwidth is not None:
        h = np.full(train.shape[1], float(bandwidth))
    else:
        h = _silverman_bandwidths(train)
    # the reference rows are stored divided by h
    return {"h": h, **_reference(train / h)}


def _split_off_max(a: np.ndarray):
    """Set every entry equal to its row maximum to -inf; return the row
    maxima and the count k of such entries per row."""
    amax = np.max(a, axis=1)
    at_max = a == amax[:, None]
    k = np.count_nonzero(at_max, axis=1).astype(np.float64)
    np.copyto(a, -np.inf, where=at_max)
    return amax, k


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise ``log(sum(exp(a)))``, overwriting ``a``.

    The k entries equal to the row maximum are split off and the rest are
    shifted, exponentiated and summed in place, giving
    ``log1p(s / k) + log(k) + max``.  A row of -inf gives -inf and a row
    holding NaN gives NaN, without a warning.

    Most blocks have one maximum per row, so the split starts with one
    ``argmax`` per row: that entry is set to -inf, and if every row's
    largest remaining entry lies strictly below it, k = 1 and the block
    holds exactly what the tie count would leave.  A NaN row, a tie at the
    maximum (0.0 against -0.0 included) or a row of -inf fails the strict
    test, and then the entries are restored and ``_split_off_max`` counts
    the ties.  Either way the shift, sum and log see the same numbers in
    the same order as scipy's.
    """
    rows = np.arange(a.shape[0])
    top = np.argmax(a, axis=1)
    amax = a[rows, top]
    a[rows, top] = -np.inf
    if np.all(np.max(a, axis=1) < amax):
        k = 1.0
    else:
        a[rows, top] = amax
        amax, k = _split_off_max(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        a -= amax[:, None]
        np.exp(a, out=a)
        s = np.sum(a, axis=1)
        out = np.log1p(s / k) + np.log(k) + amax
    out[np.isneginf(amax)] = -np.inf
    return out


def _kde_logpdf(params: dict, x: np.ndarray) -> np.ndarray:
    h = params["h"]
    out = _reduce_rows(x / h, params, lambda a: _logsumexp_rows(np.multiply(a, -0.5, out=a)))
    n = params["train"].shape[0]
    out -= float(np.sum(np.log(h * np.sqrt(2.0 * np.pi)))) + np.log(n)
    return np.maximum(out, LOG_DENSITY_FLOOR * len(h), out=out)


def _knn_k(spec_k: Optional[int], n_train: int) -> int:
    k = int(np.sqrt(n_train)) if spec_k is None else int(spec_k)
    return min(k, n_train)  # k >= 1: ClassifierSpec checks it, and n_train >= 1


def _reference(rows: np.ndarray) -> dict:
    """Reference rows of a distance scorer less their coordinatewise median
    ``center`` (a half-integer for integer rows, so they stay exact), and
    their squared norms.  ``np.median`` would give the same bits but import
    ``numpy.ma``, 1.5 MB of resident memory."""
    mid = [(len(rows) - 1) // 2, len(rows) // 2]
    center = np.partition(rows, mid, axis=0)[mid].mean(axis=0)
    rows = rows - center
    return {"train": rows, "train_sq": np.sum(rows * rows, axis=1), "center": center}


def _block_rows(n_ref: int) -> int:
    return max(_BLOCK_ROWS, _BLOCK_ENTRIES // n_ref // _BLOCK_ROWS * _BLOCK_ROWS)


def _reduce_rows(x: np.ndarray, ref: Mapping[str, np.ndarray], reduce) -> np.ndarray:
    """``reduce`` of the squared distances from each row of ``x`` to ``ref``.

    The rows are taken block by block, and ``reduce`` maps a block of
    distances, which it may overwrite, to one value per row.  Both sides are
    taken less the reference's ``center``, so a large common offset cancels
    before the product.  Each entry is ``max(|t|^2 + |x|^2 - (2x).t, 0)``,
    computed in that order: the norms of the reference rows are copied in
    whole and each row's own norm is added in place, and ``t + x`` is the
    same double as ``x + t``.  Every product has one shape:
    ``_block_rows(n_ref)`` rows, the last tile zero-padded, times as many
    reference rows as fit in ``_TILE_MACS`` multiply-adds, and ``reduce``
    sees only the real rows.  So a row's value depends on that row alone,
    not on its batch, its offset or the BLAS thread count.
    """
    train, tt = ref["train"], ref["train_sq"]
    (n_ref, p), n = train.shape, x.shape[0]
    step = _block_rows(n_ref)
    cols = max(1, _TILE_MACS // (step * p))
    xc = np.zeros((-(-n // step) * step, p))
    np.subtract(x, ref["center"], out=xc[:n])
    xx = np.sum(xc * xc, axis=1)
    xc *= 2.0
    g = np.empty((step, n_ref))
    a = np.empty_like(g)
    out = np.empty(n)
    for lo in range(0, n, step):
        for c in range(0, n_ref, cols):
            np.matmul(xc[lo : lo + step], train[c : c + cols].T, out=g[:, c : c + cols])
        np.copyto(a, tt)
        a += xx[lo : lo + step, None]
        a -= g
        np.maximum(a, 0.0, out=a)
        out[lo : lo + step] = reduce(a[: n - lo])
    return out


def _knn_label_mean(a: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Mean label of each row's k nearest columns, distance ties going to
    the smaller column index (the first k of a stable argsort).

    ``partition`` finds the k-th distance.  When every row has exactly k
    columns at or within it, those are the k nearest.  Otherwise every
    column strictly nearer is taken, and the ties at it fill the rest in
    column order.  The label sum is an exact integer, so the means equal a
    full sort's bit for bit.
    """
    kth = np.partition(a, k - 1, axis=1)[:, k - 1 : k]
    if np.isnan(kth).any():
        # NaN distances sort last and compare false; rank them in full
        order = np.argsort(a, axis=1, kind="stable")[:, :k]
        return labels[order].mean(axis=1)
    near = a <= kth
    if (np.count_nonzero(near, axis=1) != k).any():
        # some row has more than k columns within its k-th distance
        near = a < kth
        ties = a == kth
        room = k - np.count_nonzero(near, axis=1)
        near |= ties & (np.cumsum(ties, axis=1) <= room[:, None])
    return np.count_nonzero(near & (labels == 1.0), axis=1) / k


def _logistic_gd(x: np.ndarray, y: np.ndarray, iterations: int, step: float):
    # full-batch gradient descent on mean log loss; zero init, no stopping rule.
    # The sigmoid 1 / (1 + exp(-z)) runs in place, exp overflow giving exactly
    # 0 without a warning; np.add.reduce(g) / n is g.mean()
    n, p = x.shape
    w = np.zeros(p)
    b = 0.0
    xt = x.T
    with np.errstate(over="ignore"):
        for _ in range(iterations):
            g = x @ w
            g += b
            np.negative(g, out=g)
            np.exp(g, out=g)
            g += 1.0
            np.divide(1.0, g, out=g)
            g -= y
            w -= step * (xt @ g) / n
            b -= step * float(np.add.reduce(g) / n)
    return w, b


def _fit_logistic(x: np.ndarray, y: np.ndarray, hp: Mapping[str, Any]) -> dict:
    """``_logistic_gd`` of labels ``y`` on ``x`` with column j scaled by
    2^(3 - e_j), e_j the binary exponent of its largest magnitude, so that
    the fixed step sees a largest magnitude in [4, 8) at any feature scale.
    A power of two scales exactly, so ``x.w`` with the returned ``w`` is the
    scaled fit's linear predictor bit for bit wherever nothing under- or
    overflows.  An all-zero column keeps the scale 1, and the exponent is
    clamped so that a subnormal column's scale stays finite."""
    peak = np.max(np.abs(x), axis=0)
    e = np.where(peak > 0.0, np.frexp(peak)[1], 3)
    scale = np.ldexp(1.0, np.minimum(3 - e, 1023))
    w, b = _logistic_gd(x * scale, y, hp["iterations"], hp["step"])
    return {"w": w * scale, "b": b}


def fit_score(
    spec: ClassifierSpec,
    train: np.ndarray,
    outliers: Optional[np.ndarray] = None,
    pool: Optional[np.ndarray] = None,
) -> ScoreModel:
    """Fit the score function described by ``spec`` on the given rows.

    Parameters
    ----------
    spec : ClassifierSpec
        Family, method, and hyperparameters.
    train : ndarray, shape (n, p)
        Training nulls; every family fits on them.
    outliers : ndarray, shape (k, p), optional
        Labeled outliers, read by BIC fits alone.
    pool : ndarray, shape (N, p), optional
        The test, mirror and calibration rows that
        :class:`~scq.pipeline.ScoreTable` stacks, read by PUC fits alone,
        in canonical row order.

    Raises
    ------
    MissingOutliers
        For a BIC spec with no labeled outliers.
    DegenerateFit
        When the Gaussian covariance is not finite or its regularization
        is exhausted.
    """
    if train.shape[0] == 0:
        raise ConfigError("the training nulls must be nonempty")
    p = train.shape[1]
    hp = spec.hyperparams

    if spec.family == "OCC":
        if spec.method == "gaussian":
            params = _fit_gaussian(train)
        elif spec.method == "kde":
            params = _fit_kde(train, hp["bandwidth"])
        else:  # knn
            params = {"k": _knn_k(hp["k"], train.shape[0]), **_reference(train)}
    elif spec.family == "BIC":
        if outliers is None or outliers.shape[0] == 0:
            raise MissingOutliers("BIC fits require at least one labeled outlier")
        x = np.vstack([train, outliers])
        y = np.concatenate([np.zeros(train.shape[0]), np.ones(outliers.shape[0])])
        if spec.method == "logistic":
            params = _fit_logistic(x, y, hp)
        else:  # knn on labeled points
            params = {"labels": y, "k": _knn_k(hp["k"], x.shape[0]), **_reference(x)}
    else:  # PUC
        if pool is None or pool.shape[0] == 0:
            raise ConfigError("PUC fits require a nonempty transductive pool")
        pool = _canonical_sort(pool)
        if spec.method == "kde-ratio":
            params = {
                "null_kde": _fit_kde(train, hp["bandwidth"]),
                "mix_kde": _fit_kde(pool, hp["bandwidth"]),
            }
        else:  # pu-logistic: nulls are the positive class, pool is unlabeled
            y = np.concatenate([np.ones(train.shape[0]), np.zeros(pool.shape[0])])
            params = _fit_logistic(np.vstack([train, pool]), y, hp)

    return ScoreModel(family=spec.family, method=spec.method, dim=p, params=params)


def score_batch(model: ScoreModel, x: np.ndarray) -> np.ndarray:
    """Score a batch of feature vectors; smaller means more outlier-like.
    A logistic score is the linear predictor ``x.w + b`` (negated for BIC):
    it ranks rows as its sigmoid would, without rounding them to 0 or 1."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.dim:
        raise DimensionMismatch(f"expected dimension {model.dim}, got {x.shape[1]}")
    params = model.params
    if model.method in ("logistic", "pu-logistic"):
        z = np.einsum("ij,j->i", x, params["w"]) + params["b"]
        return -z if model.family == "BIC" else z
    if model.family == "OCC":
        if model.method == "gaussian":
            return _gaussian_logpdf(params, x)
        if model.method == "kde":
            return _kde_logpdf(params, x)
        k = params["k"] - 1

        def kth(a):  # in place: a copy of each block would cost a sixth more
            a.partition(k, axis=1)
            return a[:, k]

        return -np.sqrt(_reduce_rows(x, params, kth))
    if model.family == "BIC":  # knn
        return -_reduce_rows(x, params, lambda a: _knn_label_mean(a, params["labels"], params["k"]))
    # PUC/kde-ratio
    return _kde_logpdf(params["null_kde"], x) - _kde_logpdf(params["mix_kde"], x)

