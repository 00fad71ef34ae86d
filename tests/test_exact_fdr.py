"""Exact finite-sample FDR audit: the mean false discovery proportion over
every orientation of the null (test, mirror) pairs.

Given the unordered pairs and the orientations of the non-null pairs,
pairwise exchangeability makes each null pair's orientation a fair coin.
The weights and the model selection read the pairs only as unordered, so
the mirror threshold is Barber & Candes's knockoff+ rule on fixed
magnitudes, whose FDR conditional on them is at most alpha.  That
conditional FDR is the mean over all 2^m0 orientations, which small
instances give exactly in ``Fraction``s, with no Monte Carlo error.

The audit has power: weights that read the orientation, estimated from the
test p-values alone and multiplied by 4 on forward pairs, break the bound.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from helpers import make_synthetic_data, swap_inference_pairs
from scq.conformal import bc_threshold, build_pairs
from scq.datamodel import SideInfo
from scq.modelselect import CoinStream, Toolbox, ptams, ptams_plus
from scq.pipeline import WeightConfig
from scq.scoring import ClassifierSpec
from scq.weights import estimate_sparsity, structure_weights

M, N_NONNULL, GRID = 14, 6, 20  # p-values on {1/20, ..., 1}
ALPHA, LAM = 0.2, 0.1
SIDES = {
    "group": SideInfo("group", np.arange(M) // 4),
    "lattice": SideInfo("position", np.arange(1.0, M + 1)),
    "jittered": SideInfo(
        "position", np.arange(1.0, M + 1) + np.random.default_rng(0).uniform(-0.3, 0.3, M)
    ),
}


def structure(side, p, p_tilde):
    return structure_weights(estimate_sparsity(side, None, p, p_tilde, LAM))


def orientation_reading(side, p, p_tilde):
    """Weights from the test p-values alone, times 4 on forward pairs."""
    w = structure_weights(estimate_sparsity(side, None, p, p, LAM))
    return np.where(p < p_tilde, 4.0 * w, w)


def pvalue_instance(seed):
    """Unordered pairs ``(lo, hi)`` of grid p-values and the non-null mask;
    each non-null pair has a small p-value and is taken forward."""
    rng = np.random.default_rng(seed)
    nonnull = np.zeros(M, dtype=bool)
    nonnull[rng.permutation(M)[:N_NONNULL]] = True
    a, b = rng.integers(1, GRID + 1, (2, M))
    small = rng.integers(1, 4, M)
    lo = np.where(nonnull, small, np.minimum(a, b)) / GRID
    hi = np.where(nonnull, np.maximum(np.maximum(a, b), small + 1), np.maximum(a, b)) / GRID
    return nonnull, lo, hi


def false_discovery_proportion(mask, nonnull) -> Fraction:
    return Fraction(int(np.count_nonzero(mask & ~nonnull)), max(1, int(np.count_nonzero(mask))))


def exact_pvalue_fdr(side, nonnull, lo, hi, weights) -> Fraction:
    """Mean FDP of ``estimate_sparsity`` -> weights -> ``build_pairs`` ->
    ``bc_threshold`` over every orientation of the null pairs."""
    nulls = np.flatnonzero(~nonnull)
    total = Fraction(0)
    for flips in itertools.product((False, True), repeat=len(nulls)):
        p, p_tilde = lo.copy(), hi.copy()
        flipped = nulls[list(flips)]
        p[flipped], p_tilde[flipped] = hi[flipped], lo[flipped]
        _, rej = bc_threshold(build_pairs(p, p_tilde, weights(side, p, p_tilde)), ALPHA)
        total += false_discovery_proportion(rej.mask, nonnull)
    return total / 2 ** len(nulls)


@pytest.mark.parametrize("side", sorted(SIDES))
def test_structure_weights_control_the_fdr_exactly(side):
    for seed in range(8):
        fdr = exact_pvalue_fdr(SIDES[side], *pvalue_instance(seed), structure)
        assert fdr <= Fraction(1, 5), (seed, fdr)


def test_the_audit_flags_weights_that_read_the_orientation():
    fdrs = [
        exact_pvalue_fdr(SIDES["lattice"], *pvalue_instance(seed), orientation_reading)
        for seed in range(8)
    ]
    assert max(fdrs) > Fraction(1, 5)


def test_ptams_plus_controls_the_fdr_exactly():
    # seed 3 selects PUC/kde-ratio, which refits on every orientation
    data = make_synthetic_data(m=12, p=3, mu=2.5, seed=3)
    specs = (("OCC", "gaussian"), ("OCC", "kde"), ("PUC", "kde-ratio"))
    toolbox = Toolbox(tuple(ClassifierSpec(*s) for s in specs))
    nonnull = data.test.truth
    nulls = np.flatnonzero(~nonnull) + 1
    total, selections = Fraction(0), set()
    for r in range(len(nulls) + 1):
        for swapped in itertools.combinations(nulls, r):
            orientation = swap_inference_pairs(data, swapped)
            trace, lam, res = ptams_plus(toolbox, orientation, 0.3, CoinStream(3))
            selections.add((trace.selected, lam))
            total += false_discovery_proportion(res.rejection.mask, nonnull)
    assert selections == {(3, 0.05)}
    assert total / 2 ** len(nulls) <= Fraction(3, 10)


def test_ptams_controls_the_fdr_exactly():
    # ptams is ptams_plus over its one threshold, here 0.3 for both stages
    data = make_synthetic_data(m=12, p=3, mu=2.5, seed=3)
    specs = (("OCC", "gaussian"), ("OCC", "kde"), ("PUC", "kde-ratio"))
    toolbox = Toolbox(tuple(ClassifierSpec(*s) for s in specs))
    wcfg = WeightConfig(lam=0.3)
    nonnull = data.test.truth
    nulls = np.flatnonzero(~nonnull) + 1
    total, selections = Fraction(0), set()
    for r in range(len(nulls) + 1):
        for swapped in itertools.combinations(nulls, r):
            orientation = swap_inference_pairs(data, swapped)
            trace, res = ptams(toolbox, orientation, 0.3, CoinStream(3), weight_cfg=wcfg)
            selections.add((trace.selected, trace.lambda_star))
            total += false_discovery_proportion(res.rejection.mask, nonnull)
    assert selections == {(3, 0.3)}
    assert total / 2 ** len(nulls) <= Fraction(3, 10)
