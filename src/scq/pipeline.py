"""End-to-end inference runs: fit, calibrate, weight, and threshold.

This is the glue the selection harness, the replication bench, and the
CLI all share.  A run takes an :class:`~scq.datamodel.InferenceData`
bundle, fits one classifier, converts calibration ranks into p-value
pairs, learns weights, and thresholds the weighted pairs by mirror
calibration.  Baseline runs (unweighted thresholding, plain/Storey BH on
conformal p-values) live here too.  Runs on one dataset can share a
:class:`ScoreTable`, so methods that use the same classifier fit and
score it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    matrix_for_side,
    oracle_weights,
    structure_weights,
)

JITTER_SCALE = 1e6  # tie-breaking jitter is u / (JITTER_SCALE * (N + 1))


@dataclass(frozen=True)
class WeightConfig:
    """How per-unit weights are produced.

    ``structure`` learns them from the side-information neighborhood of
    the p-value pairs (screening threshold ``lam``); ``oracle`` applies the
    odds transform to known signal frequencies (``oracle_pi``); ``unit``
    uses constant weights, reducing the procedure to unweighted mirror
    thresholding.
    """

    mode: str = "structure"
    lam: float = 0.1
    bandwidth: Optional[float] = None
    oracle_pi: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.mode not in ("structure", "oracle", "unit"):
            raise ConfigError(f"unknown weight mode {self.mode!r}")
        if self.mode == "oracle" and self.oracle_pi is None:
            raise ConfigError("oracle weight mode requires oracle_pi")


@dataclass(frozen=True)
class CandidateScores:
    """A fitted model plus the conformal p-value numerators it induces.

    The test and mirror p-values of unit ``j`` are ``num[j] / (n_cal + 1)``
    and ``num_tilde[j] / (n_cal + 1)``.
    """

    spec: ClassifierSpec
    model: ScoreModel
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


def _candidate_scores(
    data: InferenceData, spec: ClassifierSpec, model: ScoreModel
) -> CandidateScores:
    s_cal = score_batch(model, data.split.cal)
    return CandidateScores(
        spec=spec,
        model=model,
        num=conformal_pvalues(s_cal, score_batch(model, data.test.features)),
        num_tilde=conformal_pvalues(s_cal, score_batch(model, data.split.mirror)),
        n_cal=len(s_cal),
    )


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
        pi = np.asarray(cfg.oracle_pi, dtype=np.float64)
        if pi.shape[0] != m:
            raise ConfigError("oracle_pi length must equal m")
        return oracle_weights(pi), None
    omega = matrix_for_side(data.test.side, cfg.bandwidth)
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
    """The fits, p-value numerators and learned weights of one dataset.

    Each classifier is fitted and scored once, and each (classifier,
    screening threshold, bandwidth) gets one structure-weight estimate,
    however many methods ask for them.  A table belongs to one
    :class:`~scq.datamodel.InferenceData` and lives as long as the caller
    keeps it: one replication in the bench, one run elsewhere.  A failed
    fit or estimate is not stored, so asking again raises again.
    """

    def __init__(self, data: InferenceData):
        self.data = data
        self._models = []
        self._scores = []
        self._weights = []

    def model(self, spec: ClassifierSpec) -> ScoreModel:
        return _memo(self._models, spec, lambda: _fit(self.data, spec))

    def scores(self, spec: ClassifierSpec) -> CandidateScores:
        return _memo(
            self._scores, spec, lambda: _candidate_scores(self.data, spec, self.model(spec))
        )

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
    rej = scq_reject(q, alpha)
    return q, tau, RejectionSet(mask=rej.mask, alpha=alpha, threshold=tau)


def calibrated_result(
    scores: CandidateScores,
    pairs: ScorePairs,
    w: WeightVector,
    est: Optional[SparsityEstimate],
    alpha: float,
) -> SCQResult:
    """Calibrate prepared pairs and bundle them with their inputs."""
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


def run_scq(
    data: InferenceData,
    classifier: ClassifierSpec,
    weight_cfg: WeightConfig,
    alpha: float,
    jitter: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> SCQResult:
    """Full structure-adaptive run with one fixed classifier."""
    return run_scq_on(ScoreTable(data), classifier, weight_cfg, alpha, jitter, rng)


def run_scq_on(
    table: ScoreTable,
    classifier: ClassifierSpec,
    weight_cfg: WeightConfig,
    alpha: float,
    jitter: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> SCQResult:
    """:func:`run_scq` on the table's dataset, reusing its fits and weights."""
    scores = table.scores(classifier)
    w, est = table.weights(scores, weight_cfg)
    pairs = weighted_pairs(scores, w, jitter=jitter, rng=rng)
    return calibrated_result(scores, pairs, w, est, alpha)


def run_cfbh(
    data: InferenceData,
    classifier: ClassifierSpec,
    alpha: float,
    storey: bool = True,
    lambda_storey: float = 0.5,
) -> RejectionSet:
    """Conformal-BH baseline without mirror pairing.

    The mirror block carries no structural role here, so it is merged into
    the calibration set before ranking the test scores.
    """
    return run_cfbh_on(ScoreTable(data), classifier, alpha, storey, lambda_storey)


def run_cfbh_on(
    table: ScoreTable,
    classifier: ClassifierSpec,
    alpha: float,
    storey: bool = True,
    lambda_storey: float = 0.5,
) -> RejectionSet:
    """:func:`run_cfbh` on the table's dataset, reusing its fit.

    The merged calibration block is scored afresh: a score's last bits
    depend on its row's offset and its batch's size.
    """
    data = table.data
    model = table.model(classifier)
    s_cal = score_batch(model, np.vstack([data.split.cal, data.split.mirror]))
    p = conformal_pvalues(s_cal, score_batch(model, data.test.features)) / (len(s_cal) + 1)
    return storey_bh(p, alpha, lambda_storey) if storey else bh(p, alpha)
