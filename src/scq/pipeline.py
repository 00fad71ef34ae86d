"""End-to-end inference runs: fit, calibrate, weight, and threshold.

This is the glue the selection harness, the replication bench, and the
CLI all share.  A run takes an :class:`~scq.datamodel.InferenceData`
bundle, fits one classifier, converts calibration ranks into p-value
pairs, learns weights, and thresholds the weighted pairs by mirror
calibration.  Baseline runs (unweighted thresholding, plain/Storey BH on
conformal p-values) live here too.  Runs on one dataset can share a
:class:`ScoreTable`, so methods that use the same classifier fit and
score it once: every entry point takes the data or a table over it.  The
weight matrix's kind follows the side-info kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .conformal import (
    RejectionSet,
    ScorePairs,
    bc_threshold,
    bh,
    build_pairs,
    conformal_pvalues,
    count_tied_pairs,
    scq_qvalues,
    scq_reject,
    storey_bh,
)
from .datamodel import InferenceData
from .errors import ConfigError
from .scoring import ClassifierSpec, ScoreModel, TrainContext, fit_score, make_transductive_pool, score_batch
from .weights import (
    SparsityEstimate,
    WeightVector,
    estimate_sparsity,
    oracle_weights,
    structure_weights,
    weight_matrix,
)

JITTER_SCALE = 1e6  # tie-breaking jitter is u / (JITTER_SCALE * (N + 1))


@dataclass(frozen=True)
class WeightConfig:
    """How per-unit weights are produced.

    ``structure`` learns them from the side-information neighborhood of
    the p-value pairs (screening threshold ``lam``); ``oracle`` applies the
    odds transform to known signal frequencies (``oracle_pi``); ``unit``
    uses constant weights, reducing the procedure to unweighted mirror
    thresholding.  ``oracle_pi`` is data of one dataset, required only
    where :func:`compute_weights` uses it.
    """

    mode: str = "structure"
    lam: float = 0.1
    bandwidth: Optional[float] = None
    oracle_pi: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.mode not in ("structure", "oracle", "unit"):
            raise ConfigError(f"unknown weight mode {self.mode!r}")
        if not 0.0 < self.lam < 1.0:
            raise ConfigError(f"lambda must lie in (0, 1), got {self.lam}")
        if self.bandwidth is not None and not 0.0 < self.bandwidth < np.inf:
            raise ConfigError(f"bandwidth must be positive and finite, got {self.bandwidth}")


@dataclass(frozen=True)
class CandidateScores:
    """The conformal p-value numerators one fitted classifier induces.

    The test and mirror p-values of unit ``j`` are ``num[j] / (n_cal + 1)``
    and ``num_tilde[j] / (n_cal + 1)``.
    """

    spec: ClassifierSpec
    num: np.ndarray
    num_tilde: np.ndarray
    n_cal: int

    @property
    def p(self) -> np.ndarray:
        return self.num / (self.n_cal + 1)

    @property
    def p_tilde(self) -> np.ndarray:
        return self.num_tilde / (self.n_cal + 1)


def _fit(data: InferenceData, spec: ClassifierSpec) -> ScoreModel:
    """Fit one classifier; PUC fits see the test + mirror + calibration pool."""
    if spec.family == "PUC":
        pool, n_pairs = make_transductive_pool(
            data.test.features, data.split.mirror, data.split.cal
        )
    else:
        pool, n_pairs = None, 0
    ctx = TrainContext(
        train_nulls=data.split.train,
        labeled_outliers=data.labeled_outliers,
        transductive_pool=pool,
        n_pairs=n_pairs,
    )
    return fit_score(spec, ctx)


def _kde_half(model: ScoreModel, half: str) -> ScoreModel:
    """One of the two KDEs of a PUC/kde-ratio model, as an OCC/kde model."""
    return ScoreModel(family="OCC", method="kde", dim=model.dim, params=model.params[half])


def candidate_pvalues(data: InferenceData, spec: ClassifierSpec) -> CandidateScores:
    """Fit one classifier and compute the (test, mirror) p-value numerators."""
    return ScoreTable(data).scores(spec)


def compute_weights(
    data: InferenceData, p: np.ndarray, p_tilde: np.ndarray, cfg: WeightConfig
) -> tuple[WeightVector, Optional[SparsityEstimate]]:
    """Per-unit weights for the configured mode, plus the sparsity estimate
    they come from (``None`` unless the weights are learned)."""
    m = data.m
    if cfg.mode == "unit":
        return WeightVector(w=np.ones(m)), None
    if cfg.mode == "oracle":
        if cfg.oracle_pi is None:
            raise ConfigError("oracle weight mode requires oracle_pi")
        pi = np.asarray(cfg.oracle_pi, dtype=np.float64)
        if pi.shape[0] != m:
            raise ConfigError("oracle_pi length must equal m")
        return oracle_weights(pi), None
    omega = weight_matrix(data.test.side, cfg.bandwidth)
    est = estimate_sparsity(omega, p, p_tilde, cfg.lam)
    return structure_weights(est), est


def _memo(entries: list, key, make):
    # keys are compared by ==: ClassifierSpec holds a dict and is unhashable
    for k, value in entries:
        if k == key:
            return value
    value = make()
    entries.append((key, value))
    return value


class ScoreTable:
    """The fits, p-value numerators, learned weights and runs of one dataset.

    Each classifier is fitted and scored once, and each (classifier,
    screening threshold, bandwidth) gets one structure-weight estimate,
    however many methods ask for them.  OCC/kde and PUC/kde-ratio at one
    ``bandwidth`` hyperparameter share the train-null KDE density of each
    batch, and :func:`run_scq` calibrates each (classifier, weight
    setting, alpha) once.  A table belongs to one
    :class:`~scq.datamodel.InferenceData` and lives as long as the caller
    keeps it: one replication in the bench, one run elsewhere.  A failed
    fit or estimate is not stored, so asking again raises again.
    """

    def __init__(self, data: InferenceData):
        self.data = data
        self._models = []
        self._null_kde = []
        self._scores = []
        self._weights = []
        self._runs = []

    @staticmethod
    def of(data: Union[InferenceData, "ScoreTable"]) -> "ScoreTable":
        """``data`` itself if it is a table, else a new table over ``data``."""
        return data if isinstance(data, ScoreTable) else ScoreTable(data)

    def model(self, spec: ClassifierSpec) -> ScoreModel:
        return _memo(self._models, spec, lambda: _fit(self.data, spec))

    def _batch_scores(self, spec: ClassifierSpec) -> list:
        """Scores of the calibration, test and mirror batches.

        The train-null KDE is fitted on the same rows at the same bandwidth
        by OCC/kde and by PUC/kde-ratio, so its density of each batch is
        computed once per bandwidth; kde-ratio subtracts the mixture KDE from
        it, as ``score_batch`` does.
        """
        model = self.model(spec)
        batches = (self.data.split.cal, self.data.test.features, self.data.split.mirror)
        if spec.method not in ("kde", "kde-ratio"):
            return [score_batch(model, x) for x in batches]
        null = model if spec.method == "kde" else _kde_half(model, "null_kde")
        density = _memo(
            self._null_kde,
            spec.hyperparams.get("bandwidth"),
            lambda: [score_batch(null, x) for x in batches],
        )
        if spec.method == "kde":
            return density
        mix = _kde_half(model, "mix_kde")
        return [d - score_batch(mix, x) for d, x in zip(density, batches)]

    def scores(self, spec: ClassifierSpec) -> CandidateScores:
        def make():
            s_cal, s_test, s_mirror = self._batch_scores(spec)
            return CandidateScores(
                spec=spec,
                num=conformal_pvalues(s_cal, s_test),
                num_tilde=conformal_pvalues(s_cal, s_mirror),
                n_cal=len(s_cal),
            )

        return _memo(self._scores, spec, make)

    def weights(
        self, scores: CandidateScores, cfg: WeightConfig
    ) -> tuple[WeightVector, Optional[SparsityEstimate]]:
        """:func:`compute_weights` for ``scores``, which this table produced."""
        def make():
            return compute_weights(self.data, scores.p, scores.p_tilde, cfg)

        if cfg.mode != "structure":
            return make()
        return _memo(self._weights, (scores.spec, cfg.lam, cfg.bandwidth), make)


def weighted_pairs(
    scores: CandidateScores,
    w: WeightVector,
    jitter: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> ScorePairs:
    """Weighted score pairs; optional jitter breaks exact p-value ties.

    Jitter adds ``u / (JITTER_SCALE * (N + 1))`` with independent uniform
    ``u`` to every p-value before weighting, small enough never to cross a
    grid step.  It destroys exact swap invariance and is off by default.
    """
    p, p_tilde = scores.p, scores.p_tilde
    if jitter:
        if rng is None:
            raise ConfigError("jitter requires a random generator")
        step = 1.0 / (JITTER_SCALE * (scores.n_cal + 1))
        p = p + rng.random(len(p)) * step
        p_tilde = p_tilde + rng.random(len(p_tilde)) * step
    return build_pairs(p, p_tilde, w.w)


@dataclass(frozen=True)
class SCQResult:
    """Everything one calibrated run produces.

    ``sparsity`` is the estimate the learned weights were built from, or
    ``None`` for unit and oracle weights.
    """

    rejection: RejectionSet
    qvalues: np.ndarray
    tau: Optional[float]
    pairs: ScorePairs
    weights: WeightVector
    scores: CandidateScores
    num_tied_pairs: int
    sparsity: Optional[SparsityEstimate] = None

    def report_dict(self) -> dict:
        return {
            "alpha": self.rejection.alpha,
            "tau": self.tau,
            "rejected": self.rejection.sorted(),
            "qvalues": self.qvalues.tolist(),
            "num_tied_pairs": self.num_tied_pairs,
        }


def calibrate_pairs(pairs: ScorePairs, alpha: float):
    """Q-values, threshold, and rejections for prepared pairs."""
    q = scq_qvalues(pairs)
    tau, _ = bc_threshold(pairs, alpha)
    return q, tau, scq_reject(q, alpha)


def run_scq(
    data: Union[InferenceData, ScoreTable],
    classifier: ClassifierSpec,
    weight_cfg: WeightConfig,
    alpha: float,
    jitter: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> SCQResult:
    """Full structure-adaptive run with one fixed classifier.

    ``data`` may be a :class:`ScoreTable`, whose fits and weights the run
    then reuses; the table also keeps the result, so the same classifier,
    weight setting and ``alpha`` give the same result object again.  Runs
    with jitter or oracle weights are not kept.
    """
    table = ScoreTable.of(data)

    def run():
        scores = table.scores(classifier)
        w, est = table.weights(scores, weight_cfg)
        pairs = weighted_pairs(scores, w, jitter=jitter, rng=rng)
        q, tau, rej = calibrate_pairs(pairs, alpha)
        return SCQResult(
            rejection=rej,
            qvalues=q,
            tau=tau,
            pairs=pairs,
            weights=w,
            scores=scores,
            num_tied_pairs=count_tied_pairs(pairs),
            sparsity=est,
        )

    if jitter or weight_cfg.mode == "oracle":
        return run()
    key = (classifier, weight_cfg.mode, weight_cfg.lam, weight_cfg.bandwidth, alpha)
    return _memo(table._runs, key, run)


def run_cfbh(
    data: Union[InferenceData, ScoreTable],
    classifier: ClassifierSpec,
    alpha: float,
    storey: bool = True,
) -> RejectionSet:
    """Conformal-BH baseline without mirror pairing.

    The mirror block carries no structural role here, so it is merged into
    the calibration set before ranking the test scores.  ``data`` may be a
    :class:`ScoreTable`, whose fit the run reuses; the merged block is scored
    afresh, as a score's last bits depend on its row's offset and batch size.
    """
    table = ScoreTable.of(data)
    data = table.data
    model = table.model(classifier)
    s_cal = score_batch(model, np.vstack([data.split.cal, data.split.mirror]))
    p = conformal_pvalues(s_cal, score_batch(model, data.test.features)) / (len(s_cal) + 1)
    return storey_bh(p, alpha) if storey else bh(p, alpha)
