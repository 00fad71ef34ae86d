"""End-to-end inference runs: fit, calibrate, weight, and threshold.

This is the glue the selection harness, the replication bench, and the
CLI all share.  A run takes an :class:`~scq.datamodel.InferenceData`
bundle, fits one classifier, converts calibration ranks into p-value
pairs, learns weights, and thresholds the weighted pairs by mirror
calibration.  :class:`ScoreTable` alone stacks the test, mirror and
calibration rows, the pool of a PUC fit and every scorer's one batch, and
it keeps one :class:`CandidateScores` per classifier: the scores and
p-values every run of that classifier reads.  Weights are float64 arrays,
one entry per unit.  Baseline runs (unweighted thresholding,
plain/Storey BH on conformal p-values) live here too.  Runs on one
dataset can share a :class:`ScoreTable`, so methods that use the same
classifier fit and score it once: every entry point takes the data or a
table over it.  Learned weights come from each unit's group or
Gaussian-kernel neighborhood, as the side-info kind implies.
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
from .scoring import ClassifierSpec, ScoreModel, fit_score, score_batch
from .weights import SparsityEstimate, estimate_sparsity, oracle_weights, structure_weights

JITTER_SCALE = 1e6  # tie-breaking jitter is u / (JITTER_SCALE * (N + 1))


@dataclass(frozen=True)
class WeightConfig:
    """How per-unit weights are produced.

    ``structure`` learns them from the side-information neighborhood of
    the p-value pairs (screening threshold ``lam``); ``oracle`` applies the
    odds transform to the true signal frequencies ``TestSet.pi`` that
    simulated data carry; ``unit`` uses constant weights, reducing the
    procedure to unweighted mirror thresholding.  Equal settings compare
    and hash equal, so a setting keys a :class:`ScoreTable` entry.
    """

    mode: str = "structure"
    lam: float = 0.1
    bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("structure", "oracle", "unit"):
            raise ConfigError(f"unknown weight mode {self.mode!r}")
        if not 0.0 < self.lam < 1.0:
            raise ConfigError(f"lambda must lie in (0, 1), got {self.lam}")
        if self.bandwidth is not None and not 0.0 < self.bandwidth < np.inf:
            raise ConfigError(f"bandwidth must be positive and finite, got {self.bandwidth}")


@dataclass(frozen=True)
class CandidateScores:
    """Everything a run reads about one fitted classifier.

    ``cal``, ``test`` and ``mirror`` are its scores of the three batches;
    ``p`` and ``p_tilde`` are the conformal p-values of the test and mirror
    scores, numerators over ``len(cal) + 1``.
    """

    spec: ClassifierSpec
    cal: np.ndarray
    test: np.ndarray
    mirror: np.ndarray
    p: np.ndarray
    p_tilde: np.ndarray


def _kde_half(model: ScoreModel, half: str) -> ScoreModel:
    """One of the two KDEs of a PUC/kde-ratio model, as an OCC/kde model."""
    return ScoreModel(family="OCC", method="kde", dim=model.dim, params=model.params[half])


def compute_weights(
    data: InferenceData, p: np.ndarray, p_tilde: np.ndarray, cfg: WeightConfig
) -> tuple[np.ndarray, Optional[SparsityEstimate]]:
    """Per-unit float64 weights for the configured mode, plus the sparsity
    estimate they come from (``None`` unless the weights are learned)."""
    if cfg.mode == "unit":
        return np.ones(data.m), None
    if cfg.mode == "oracle":
        if data.test.pi is None:
            raise ConfigError("oracle weights need the true signal frequencies of simulated data")
        return oracle_weights(data.test.pi), None
    est = estimate_sparsity(data.test.side, cfg.bandwidth, p, p_tilde, cfg.lam)
    return structure_weights(est), est


class ScoreTable:
    """The fits, scores, weights and runs of one dataset, keyed by setting.

    ``rows`` stacks the test, mirror and calibration rows once: the pool of
    every PUC fit and the one batch each classifier is scored on, in one
    call.  Each classifier is fitted and scored once, into one
    :class:`CandidateScores` entry, and each (classifier, weight setting)
    gets one weight vector, however many methods ask.  OCC/kde and
    PUC/kde-ratio at one ``bandwidth`` hyperparameter share the train-null
    KDE density of ``rows``, and :func:`run_scq` calibrates each
    (classifier, weight setting, alpha) once; runs given a generator, which
    jitters them, are not kept.  The entries live in one dict whose keys
    are the settings themselves.  A table belongs to one
    :class:`~scq.datamodel.InferenceData` and lives as long as the caller
    keeps it: one replication in the bench, one run elsewhere.  A failed
    fit or estimate is not stored, so asking again raises again.
    """

    def __init__(self, data: InferenceData):
        self.data = data
        self.rows = np.vstack([data.test.features, data.split.mirror, data.split.cal])
        self._entries = {}

    @staticmethod
    def of(data: Union[InferenceData, "ScoreTable"]) -> "ScoreTable":
        """``data`` itself if it is a table, else a new table over ``data``."""
        return data if isinstance(data, ScoreTable) else ScoreTable(data)

    def _cached(self, key: tuple, make):
        if key not in self._entries:
            self._entries[key] = make()
        return self._entries[key]

    def model(self, spec: ClassifierSpec) -> ScoreModel:
        """A fit of ``spec``; a PUC fit reads ``rows`` as its pool."""
        return fit_score(spec, self.data.split.train, self.data.labeled_outliers, self.rows)

    def scores(self, spec: ClassifierSpec) -> CandidateScores:
        """The scores and p-values of ``spec``, cut from one scoring of
        ``rows``; a score depends on its row alone.

        The train-null KDE is fitted on the same rows at the same bandwidth
        by OCC/kde and by PUC/kde-ratio, so its density of ``rows`` is
        computed once per bandwidth; kde-ratio subtracts the mixture KDE
        from it, as ``score_batch`` does.
        """
        def make():
            model = self.model(spec)
            if spec.method not in ("kde", "kde-ratio"):
                s = score_batch(model, self.rows)
            else:
                null = model if spec.method == "kde" else _kde_half(model, "null_kde")
                bandwidth = spec.hyperparams["bandwidth"]
                s = self._cached(("null_kde", bandwidth), lambda: score_batch(null, self.rows))
                if spec.method == "kde-ratio":
                    s = s - score_batch(_kde_half(model, "mix_kde"), self.rows)
            m = self.data.m
            cal, test, mirror = s[2 * m :], s[:m], s[m : 2 * m]
            n = len(cal) + 1
            return CandidateScores(
                spec=spec,
                cal=cal,
                test=test,
                mirror=mirror,
                p=conformal_pvalues(cal, test) / n,
                p_tilde=conformal_pvalues(cal, mirror) / n,
            )

        return self._cached(("scores", spec), make)

    def weights(
        self, scores: CandidateScores, cfg: WeightConfig
    ) -> tuple[np.ndarray, Optional[SparsityEstimate]]:
        """:func:`compute_weights` for ``scores``, which this table produced."""
        return self._cached(
            ("weights", scores.spec, cfg),
            lambda: compute_weights(self.data, scores.p, scores.p_tilde, cfg),
        )


def weighted_pairs(
    scores: CandidateScores, w: np.ndarray, rng: Optional[np.random.Generator] = None
) -> ScorePairs:
    """Weighted score pairs; a generator ``rng`` jitters away exact p-value ties.

    Jitter adds ``u / (JITTER_SCALE * (N + 1))`` with independent uniform
    ``u`` drawn from ``rng`` to every p-value before weighting, small
    enough never to cross a grid step.  It destroys exact swap invariance,
    so it is off unless a generator is given.
    """
    p, p_tilde = scores.p, scores.p_tilde
    if rng is not None:
        step = 1.0 / (JITTER_SCALE * (len(scores.cal) + 1))
        p = p + rng.random(len(p)) * step
        p_tilde = p_tilde + rng.random(len(p_tilde)) * step
    return build_pairs(p, p_tilde, w)


@dataclass(frozen=True)
class SCQResult:
    """Everything one calibrated run produces.

    ``weights`` holds the per-unit weights and ``sparsity`` the estimate
    learned weights were built from (``None`` for unit and oracle weights).
    """

    rejection: RejectionSet
    qvalues: np.ndarray
    tau: Optional[float]
    pairs: ScorePairs
    weights: np.ndarray
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


def run_scq(
    data: Union[InferenceData, ScoreTable],
    classifier: ClassifierSpec,
    weight_cfg: WeightConfig,
    alpha: float,
    rng: Optional[np.random.Generator] = None,
) -> SCQResult:
    """Full structure-adaptive run with one fixed classifier.

    ``data`` may be a :class:`ScoreTable`, whose fits and weights the run
    then reuses; the table also keeps the result, so the same classifier,
    weight setting and ``alpha`` give the same result object again.  A
    generator ``rng`` jitters the p-values (:func:`weighted_pairs`); such
    runs, whose ``rng`` is no setting, are not kept.
    """
    table = ScoreTable.of(data)

    def run():
        scores = table.scores(classifier)
        w, est = table.weights(scores, weight_cfg)
        pairs = weighted_pairs(scores, w, rng)
        q = scq_qvalues(pairs)
        tau, _ = bc_threshold(pairs, alpha)
        return SCQResult(
            rejection=scq_reject(q, alpha),
            qvalues=q,
            tau=tau,
            pairs=pairs,
            weights=w,
            scores=scores,
            num_tied_pairs=count_tied_pairs(pairs),
            sparsity=est,
        )

    if rng is not None:
        return run()
    return table._cached(("run", classifier, weight_cfg, alpha), run)


def run_cfbh(
    data: Union[InferenceData, ScoreTable],
    classifier: ClassifierSpec,
    alpha: float,
    storey: bool = True,
) -> RejectionSet:
    """Conformal-BH baseline without mirror pairing.

    The mirror block carries no structural role here, so its scores join
    the calibration scores in ranking the test scores.  ``data`` may be a
    :class:`ScoreTable`, whose scores of the three batches the run reads.
    """
    scores = ScoreTable.of(data).scores(classifier)
    s_null = np.concatenate([scores.cal, scores.mirror])
    p = conformal_pvalues(s_null, scores.test) / (len(s_null) + 1)
    return storey_bh(p, alpha) if storey else bh(p, alpha)
