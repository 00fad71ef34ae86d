"""Score-function toolbox: one-class, binary, and positive-unlabeled models.

Every fitted model maps a feature vector to a real conformity score with
the convention that smaller scores mean stronger outlier evidence.  Two
structural contracts hold by construction:

* one-class and binary fits depend only on the training nulls (and labeled
  outliers), never on test, mirror, or calibration data;
* positive-unlabeled fits consume the transductive pool only through its
  canonically sorted multiset, so refitting after any permutation, or any
  swap of (test, mirror) pairs inside the pool, reproduces the model
  bit for bit.

Fits are deterministic: closed-form moments, fixed bandwidth rules, and
fixed-iteration full-batch gradient descent with zero initialization.

The module needs numpy alone.  The KDE row log-sum-exp splits off the row
maximum in the order scipy's ``logsumexp`` uses (analysed by Blanchard,
Higham & Higham, 2021, *IMA J. Numer. Anal.* 41:2311), so KDE scores are
bit-identical to those of releases that called scipy.  It finds the
maximum with one ``argmax`` per row and counts ties only when some row's
runner-up is not strictly below it; a unique maximum leaves the block
exactly as the count would, so the fast path changes the cost, not the
order of the sum.

The distance scorers (KDE, both kNNs, and so the KDE ratio) reduce their
distances block by block from ``_sq_dist_blocks``, so memory stays flat as
the batch grows.  A block holds a multiple of ``_BLOCK_ROWS`` = 48 rows and
never one row alone: OpenBLAS's dgemm bits for a row depend on how the row
count splits into kernel tiles (and a one-row product runs as gemv), and
such blocks reproduce the one-shot product bit for bit with one BLAS thread.
With more threads, the split among threads also moves last bits, blocked or
not.  Either way a score depends in its last bits on its row's offset and
its batch's size; pair j of the equal-size test and mirror batches sits at
the same offset, which is what exact swap invariance needs.
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

LOG_DENSITY_FLOOR = -745.0  # log of the smallest positive double
# Distance blocks hold a multiple of _BLOCK_ROWS rows, as many as fit in
# _BLOCK_ENTRIES entries (two buffers near 1 MB, inside L2).
_BLOCK_ROWS = 48
_BLOCK_ENTRIES = 1 << 16


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

    @property
    def name(self) -> str:
        return f"{self.family}/{self.method}"

    def to_dict(self) -> dict:
        return {"family": self.family, "method": self.method, "hyperparams": dict(self.hyperparams)}


@dataclass(frozen=True)
class TrainContext:
    """Training inputs for a score fit.

    ``transductive_pool`` is the multiset test + mirror + calibration
    (used only by PUC methods); its first ``2 * n_pairs`` rows are the test
    block followed by the mirror block, so pair ``j`` (1-based) occupies
    rows ``j - 1`` and ``n_pairs + j - 1``.
    """

    train_nulls: np.ndarray
    labeled_outliers: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    transductive_pool: Optional[np.ndarray] = None
    n_pairs: int = 0

    def __post_init__(self):
        tn = np.asarray(self.train_nulls, dtype=np.float64)
        object.__setattr__(self, "train_nulls", tn)
        lo = np.asarray(self.labeled_outliers, dtype=np.float64)
        if lo.size == 0:
            lo = lo.reshape(0, tn.shape[1] if tn.ndim == 2 else 0)
        object.__setattr__(self, "labeled_outliers", lo)
        if self.transductive_pool is not None:
            object.__setattr__(
                self, "transductive_pool", np.asarray(self.transductive_pool, dtype=np.float64)
            )

    def with_swapped_pairs(self, pair_ids) -> "TrainContext":
        """Return a copy with (test, mirror) rows exchanged for the given 1-based pair ids."""
        if self.transductive_pool is None:
            return self
        ids = np.fromiter(pair_ids, dtype=np.int64)
        bad = ids[(ids < 1) | (ids > self.n_pairs)]
        if bad.size:
            raise ConfigError(f"pair id {bad[0]} outside the paired region 1..{self.n_pairs}")
        if np.unique(ids).size != ids.size:
            raise ConfigError("pair ids to swap must be distinct")
        a = ids - 1
        b = a + self.n_pairs
        pool = self.transductive_pool.copy()
        pool[np.concatenate([a, b])] = self.transductive_pool[np.concatenate([b, a])]
        return TrainContext(
            train_nulls=self.train_nulls,
            labeled_outliers=self.labeled_outliers,
            transductive_pool=pool,
            n_pairs=self.n_pairs,
        )


def make_transductive_pool(test: np.ndarray, mirror: np.ndarray, cal: np.ndarray):
    """Stack test, mirror, and calibration rows into a pool; returns (pool, n_pairs)."""
    if test.shape[0] != mirror.shape[0]:
        raise ConfigError("test and mirror blocks must pair up one-to-one")
    return np.vstack([test, mirror, cal]), test.shape[0]


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
    sol = (x - params["mean"]) @ params["inv_chol"].T
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
    out = np.empty(x.shape[0])
    for rows, a in _sq_dist_blocks(x / h, params):
        a *= -0.5
        out[rows] = _logsumexp_rows(a)
    n = params["train"].shape[0]
    out -= float(np.sum(np.log(h * np.sqrt(2.0 * np.pi)))) + np.log(n)
    return np.maximum(out, LOG_DENSITY_FLOOR, out=out)


def _knn_k(spec_k: Optional[int], n_train: int) -> int:
    k = int(np.sqrt(n_train)) if spec_k is None else int(spec_k)
    return min(k, n_train)  # k >= 1: ClassifierSpec checks it, and n_train >= 1


def _reference(rows: np.ndarray) -> dict:
    """Reference rows of a distance scorer and their squared norms."""
    return {"train": rows, "train_sq": np.sum(rows * rows, axis=1)}


def _block_rows(n_ref: int) -> int:
    return max(_BLOCK_ROWS, _BLOCK_ENTRIES // n_ref // _BLOCK_ROWS * _BLOCK_ROWS)


def _sq_dist_blocks(x: np.ndarray, ref: Mapping[str, np.ndarray]):
    """Yield ``(rows, block)``: squared distances from ``x[rows]`` to ``ref``.

    The blocks cover the rows of ``x`` in order and are views of two
    buffers allocated once per call, so a consumer must reduce each block
    before asking for the next.  Each entry is
    ``max(|t|^2 + |x|^2 - (2x).t, 0)``, computed in that order: the norms
    of the reference rows are copied in whole and each row's own norm is
    added in place, and ``t + x`` is the same double as ``x + t``.
    """
    train, tt = ref["train"], ref["train_sq"]
    n = x.shape[0]
    step = _block_rows(train.shape[0])
    bounds = list(range(0, n, step)) + [n]
    if len(bounds) > 2 and n - bounds[-2] == 1:
        # a one-row product runs as matrix-vector, with other bits
        del bounds[-2]
    xx = np.sum(x * x, axis=1)
    g = np.empty((min(n, step + 1), train.shape[0]))
    a = np.empty_like(g)
    for lo, hi in zip(bounds, bounds[1:]):
        gb, ab = g[: hi - lo], a[: hi - lo]
        np.matmul(2.0 * x[lo:hi], train.T, out=gb)
        np.copyto(ab, tt)
        ab += xx[lo:hi, None]
        ab -= gb
        np.maximum(ab, 0.0, out=ab)
        yield slice(lo, hi), ab


def _knn_label_mean(a: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Mean label of each row's k nearest columns, distance ties going to
    the smaller column index (the first k of a stable argsort).

    ``partition`` finds the k-th distance; every column strictly nearer
    is taken, and the ties at it fill the rest in column order.  The label
    sum is an exact integer, so the means equal a full sort's bit for bit.
    """
    kth = np.partition(a, k - 1, axis=1)[:, k - 1 : k]
    if np.isnan(kth).any():
        # NaN distances sort last and compare false; rank them in full
        order = np.argsort(a, axis=1, kind="stable")[:, :k]
        return labels[order].mean(axis=1)
    near = a < kth
    ties = a == kth
    room = k - np.count_nonzero(near, axis=1)
    near |= ties & (np.cumsum(ties, axis=1) <= room[:, None])
    return np.count_nonzero(near & (labels == 1.0), axis=1) / k


def _expit(z: np.ndarray) -> np.ndarray:
    """The logistic sigmoid; exp overflow gives exactly 0, without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _logistic_gd(x: np.ndarray, y: np.ndarray, iterations: int, step: float):
    # full-batch gradient descent on mean log loss; zero init, no stopping rule
    n, p = x.shape
    w = np.zeros(p)
    b = 0.0
    for _ in range(iterations):
        g = _expit(x @ w + b) - y
        w -= step * (x.T @ g) / n
        b -= step * float(g.mean())
    return w, b


def fit_score(spec: ClassifierSpec, ctx: TrainContext) -> ScoreModel:
    """Fit the score function described by ``spec`` on the given context.

    Parameters
    ----------
    spec : ClassifierSpec
        Family, method, and hyperparameters.
    ctx : TrainContext
        Training nulls, labeled outliers, and (for PUC) the transductive pool.

    Raises
    ------
    MissingOutliers
        For a BIC spec with no labeled outliers.
    DegenerateFit
        When the Gaussian covariance is not finite or its regularization
        is exhausted.
    """
    train = ctx.train_nulls
    if train.shape[0] == 0:
        raise ConfigError("train_nulls must be nonempty")
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
        if ctx.labeled_outliers.shape[0] == 0:
            raise MissingOutliers("BIC fits require at least one labeled outlier")
        x = np.vstack([train, ctx.labeled_outliers])
        y = np.concatenate([np.zeros(train.shape[0]), np.ones(ctx.labeled_outliers.shape[0])])
        if spec.method == "logistic":
            w, b = _logistic_gd(x, y, hp["iterations"], hp["step"])
            params = {"w": w, "b": b}
        else:  # knn on labeled points
            params = {"labels": y, "k": _knn_k(hp["k"], x.shape[0]), **_reference(x)}
    else:  # PUC
        if ctx.transductive_pool is None or ctx.transductive_pool.shape[0] == 0:
            raise ConfigError("PUC fits require a nonempty transductive pool")
        pool = _canonical_sort(ctx.transductive_pool)
        if spec.method == "kde-ratio":
            params = {
                "null_kde": _fit_kde(train, hp["bandwidth"]),
                "mix_kde": _fit_kde(pool, hp["bandwidth"]),
            }
        else:  # pu-logistic: nulls are the positive class, pool is unlabeled
            x = np.vstack([train, pool])
            y = np.concatenate([np.ones(train.shape[0]), np.zeros(pool.shape[0])])
            w, b = _logistic_gd(x, y, hp["iterations"], hp["step"])
            params = {"w": w, "b": b}

    return ScoreModel(family=spec.family, method=spec.method, dim=p, params=params)


def score_batch(model: ScoreModel, x: np.ndarray) -> np.ndarray:
    """Score a batch of feature vectors; smaller means more outlier-like."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.dim:
        raise DimensionMismatch(f"expected dimension {model.dim}, got {x.shape[1]}")
    params = model.params
    if model.family == "OCC":
        if model.method == "gaussian":
            return _gaussian_logpdf(params, x)
        if model.method == "kde":
            return _kde_logpdf(params, x)
        k = params["k"] - 1
        kth = np.empty(x.shape[0])
        for rows, a in _sq_dist_blocks(x, params):
            a.partition(k, axis=1)
            kth[rows] = a[:, k]
        return -np.sqrt(kth)
    if model.family == "BIC":
        if model.method == "logistic":
            return -_expit(x @ params["w"] + params["b"])
        frac_outlier = np.empty(x.shape[0])
        for rows, a in _sq_dist_blocks(x, params):
            frac_outlier[rows] = _knn_label_mean(a, params["labels"], params["k"])
        return -frac_outlier
    # PUC
    if model.method == "kde-ratio":
        return _kde_logpdf(params["null_kde"], x) - _kde_logpdf(params["mix_kde"], x)
    return _expit(x @ params["w"] + params["b"])


def score(model: ScoreModel, x: np.ndarray) -> float:
    """Score a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatch("score expects a single feature vector")
    return float(score_batch(model, x[None, :])[0])


def verify_swap_invariance(
    spec: ClassifierSpec,
    ctx: TrainContext,
    pairs_to_swap,
    probe: np.ndarray,
) -> bool:
    """Refit after swapping the given (test, mirror) pairs and compare scores.

    Exact equality is required for closed-form fits (gaussian, kde, knn);
    iterative logistic fits are allowed 1e-12 relative slack.
    """
    base = score(fit_score(spec, ctx), np.asarray(probe, dtype=np.float64))
    swapped = score(fit_score(spec, ctx.with_swapped_pairs(pairs_to_swap)), probe)
    if spec.method in ("logistic", "pu-logistic"):
        return bool(np.isclose(swapped, base, rtol=1e-12, atol=0.0))
    return swapped == base
