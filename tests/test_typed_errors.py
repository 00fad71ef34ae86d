"""Constructor and entry-point checks: each bad input raises its typed error."""

from dataclasses import replace

import numpy as np
import pytest

from scq.bench import MethodSpec
from scq.conformal import ScorePairs, build_pairs, scq_qvalues
from scq.datamodel import (
    AltComponent,
    InferenceData,
    LabeledPool,
    NullSplit,
    SideInfo,
    SyntheticConfig,
    TestSet,
)
from scq.errors import ConfigError, InsufficientNulls, NonFiniteFeature
from scq.modelselect import Toolbox, preliminary_partition
from scq.scoring import ClassifierSpec, fit_score

GAUSS = ClassifierSpec("OCC", "gaussian")
SYNTHETIC = SyntheticConfig(
    m=10,
    p=2,
    sparsity_blocks=(),
    background_pi=0.1,
    alt_components=(AltComponent(1, 10, np.zeros(2), 1.0),),
    null_pool_size=20,
)


def positions(m):
    return SideInfo("position", np.arange(1.0, m + 1))


# (call, error type, message fragment)
CHECKS = {
    "side-kind": (lambda: SideInfo("bogus", np.arange(3)), ConfigError, "unknown side-info kind"),
    "pool-widths": (
        lambda: LabeledPool(inliers=np.zeros((3, 2)), outliers=np.zeros((2, 3))),
        ConfigError,
        "inliers and outliers disagree on dimension",
    ),
    "split-empty-part": (
        lambda: NullSplit(train=np.zeros((2, 2)), cal=np.zeros((0, 2)), mirror=np.zeros((2, 2))),
        InsufficientNulls,
        "every split part must be nonempty",
    ),
    "test-side-length": (
        lambda: TestSet(features=np.zeros((3, 2)), side=positions(2)),
        ConfigError,
        "side info length must equal the number of test units",
    ),
    "test-nan-feature": (
        lambda: TestSet(features=np.array([[0.0, np.nan]]), side=positions(1)),
        NonFiniteFeature,
        "feature matrix contains NaN or infinite entries",
    ),
    "mirror-size": (
        lambda: InferenceData(
            split=NullSplit(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))),
            test=TestSet(np.zeros((3, 2)), positions(3)),
        ),
        ConfigError,
        "mirror set size must equal the test set size",
    ),
    "synthetic-m-zero": (lambda: replace(SYNTHETIC, m=0), ConfigError, "m and p must be positive"),
    "synthetic-component-interval": (
        lambda: replace(SYNTHETIC, alt_components=(AltComponent(0, 5, np.zeros(2), 1.0),)),
        ConfigError,
        "component interval [0, 5] outside [1, 10]",
    ),
    "synthetic-component-scale": (
        lambda: replace(SYNTHETIC, alt_components=(AltComponent(1, 5, np.zeros(2), 0.0),)),
        ConfigError,
        "component scale must be positive",
    ),
    "synthetic-null-pool": (
        lambda: replace(SYNTHETIC, null_pool_size=2),
        ConfigError,
        "null_pool_size must be at least 3",
    ),
    "toolbox-names": (
        lambda: Toolbox((GAUSS,), ("a", "b")), ConfigError, "names must match candidates one-to-one"
    ),
    "prelim-alpha0": (
        lambda: preliminary_partition(np.full(3, 0.5), np.full(3, 0.5), 1.5),
        ConfigError,
        "alpha0 must lie in (0, 1)",
    ),
    "pairs-lengths": (
        lambda: build_pairs(np.ones(3), np.ones(2), np.ones(3)),
        ConfigError,
        "p, p_tilde, and w must share length",
    ),
    "qvalues-empty": (
        lambda: scq_qvalues(ScorePairs(v=np.empty(0), vt=np.empty(0))),
        ConfigError,
        "pairs must be nonempty",
    ),
    "method-no-classifier": (
        lambda: MethodSpec(name="scq", pipeline="scq"),
        ConfigError,
        "pipeline 'scq' requires a classifier",
    ),
    "fit-empty-train": (
        lambda: fit_score(GAUSS, np.zeros((0, 2))),
        ConfigError,
        "the training nulls must be nonempty",
    ),
}


@pytest.mark.parametrize("case", list(CHECKS))
def test_check_raises_its_typed_error(case):
    call, error, fragment = CHECKS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)
