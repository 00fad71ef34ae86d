"""Calibration machinery: p-values, mirror process, q-values, thresholds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bc_bruteforce,
    bh_bruteforce,
    ebh_bruteforce,
    qvalues_bruteforce,
    random_pairs,
)
from scq.conformal import (
    ScorePairs,
    bc_threshold,
    bh,
    build_pairs,
    conformal_pvalue,
    conformal_pvalues,
    count_tied_pairs,
    ebh,
    evalues,
    mirror_stat,
    scq_qvalues,
    scq_reject,
    storey_bh,
)
from scq.errors import ConfigError, DegenerateFit, NonPositiveWeight


def six_pair_instance():
    return ScorePairs(
        [0.01, 0.02, 0.03, 0.04, 0.05, 0.95],
        [0.9, 0.9, 0.9, 0.9, 0.9, 0.02],
    )


class TestConformalPvalue:
    def test_middle_rank(self):
        assert conformal_pvalue([0.1, 0.3, 0.5], 0.2) == 0.5

    def test_minimum(self):
        num = conformal_pvalues([0.1, 0.3, 0.5], [0.05])
        assert num.dtype == np.int64 and num.tolist() == [1]
        assert conformal_pvalue([0.1, 0.3, 0.5], 0.05) == 0.25

    def test_inclusive_tie_at_max(self):
        assert conformal_pvalue([0.1, 0.3, 0.5], 0.5) == 1.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        cal = rng.standard_normal(17)
        xs = rng.standard_normal(40)
        batch = conformal_pvalues(cal, xs)
        for x, num in zip(xs, batch):
            assert num / 18 == conformal_pvalue(cal, x)

    def test_empty_calibration_rejected(self):
        with pytest.raises(ConfigError):
            conformal_pvalue([], 0.1)

    def test_nan_scores_rejected_by_both_entry_points(self):
        # a NaN score has no rank; it must not read as the strongest evidence
        cal = [0.1, 0.3, 0.5]
        with pytest.raises(DegenerateFit):
            conformal_pvalue(cal, float("nan"))
        with pytest.raises(DegenerateFit):
            conformal_pvalues(cal, [0.2, float("nan")])
        with pytest.raises(DegenerateFit):
            conformal_pvalue([0.1, float("nan"), 0.5], 0.2)
        with pytest.raises(DegenerateFit):
            conformal_pvalues([float("nan")], [0.2])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=30),
        st.lists(st.integers(-50, 50), min_size=1, max_size=30),
        st.sampled_from(["exp", "cube", "affine"]),
    )
    def test_numerators_invariant_under_increasing_transform(self, cal, scores, kind):
        # integer-valued scores keep ties exact under every transform below
        cal = np.array(cal, dtype=np.float64) / 8.0
        scores = np.array(scores, dtype=np.float64) / 8.0
        f = {"exp": np.exp, "cube": lambda x: x**3, "affine": lambda x: 4.0 * x - 3.0}[kind]
        np.testing.assert_array_equal(
            conformal_pvalues(f(cal), f(scores)), conformal_pvalues(cal, scores)
        )


class TestBuildPairs:
    def test_direct_division(self):
        pairs = build_pairs(np.array([2]) / 4, np.array([1]) / 4, [2.0])
        assert (pairs.v[0], pairs.vt[0]) == (0.25, 0.125)

    def test_unit_weights_identity(self):
        p = np.array([1, 4]) / 4
        pt = np.array([2, 3]) / 4
        pairs = build_pairs(p, pt, [1.0, 1.0])
        np.testing.assert_array_equal(pairs.v, p)
        np.testing.assert_array_equal(pairs.vt, pt)

    def test_weights_rerank_units_not_within_pair(self):
        pairs = build_pairs(np.array([2, 2]) / 4, np.array([1, 1]) / 4, [1.0, 5.0])
        assert pairs.v[0] == 0.5 and pairs.v[1] == 0.1
        assert np.all(pairs.v > pairs.vt)

    def test_nonpositive_weight(self):
        with pytest.raises(NonPositiveWeight):
            build_pairs([1.0], [1.0], [0.0])

    def test_pairs_must_be_positive_and_paired(self):
        with pytest.raises(ConfigError):
            ScorePairs(v=[0.5, 0.0], vt=[0.5, 0.5])
        with pytest.raises(ConfigError):
            ScorePairs(v=[0.5, float("nan")], vt=[0.5, 0.5])
        with pytest.raises(ConfigError):
            ScorePairs(v=[0.5, 0.5], vt=[0.5])


class TestMirrorStat:
    def test_six_pair_instance(self):
        assert mirror_stat(six_pair_instance(), 0.05) == pytest.approx(0.4)

    def test_empty_region_floor(self):
        pairs = ScorePairs([0.5], [0.7])
        assert mirror_stat(pairs, 0.1) == 1.0

    def test_single_pair(self):
        assert mirror_stat(ScorePairs([0.1], [0.3]), 0.1) == 1.0


class TestQValues:
    def test_six_pair_instance(self):
        q = scq_qvalues(six_pair_instance())
        np.testing.assert_allclose(q, [0.4, 0.4, 0.4, 0.4, 0.4, 1.0])

    def test_reversed_single_pair(self):
        assert scq_qvalues(ScorePairs([0.9], [0.1])).tolist() == [1.0]

    def test_two_identical_pairs(self):
        # brute-force oracle: H(0.1) = H(0.9) = (1+0)/2, so both q are 0.5
        pairs = ScorePairs([0.1, 0.1], [0.9, 0.9])
        assert qvalues_bruteforce(pairs) == [0.5, 0.5]
        np.testing.assert_array_equal(scq_qvalues(pairs), [0.5, 0.5])

    def test_three_pair_instance_all_one(self):
        pairs = ScorePairs([0.05, 0.5, 0.2], [0.8, 0.1, 0.9])
        assert qvalues_bruteforce(pairs) == [1.0, 1.0, 1.0]
        np.testing.assert_array_equal(scq_qvalues(pairs), [1.0, 1.0, 1.0])

    def test_tied_pair_gets_one(self):
        pairs = ScorePairs([0.2, 0.2], [0.2, 0.9])
        q = scq_qvalues(pairs)
        assert q[0] == 1.0
        assert count_tied_pairs(pairs) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_bruteforce(self, m, seed):
        pairs = random_pairs(np.random.default_rng(seed), m)
        np.testing.assert_array_equal(scq_qvalues(pairs), qvalues_bruteforce(pairs))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
    def test_monotone_in_v_among_forward_pairs(self, m, seed):
        pairs = random_pairs(np.random.default_rng(seed), m)
        q = scq_qvalues(pairs)
        fwd = pairs.v < pairs.vt
        qs = q[fwd][np.argsort(pairs.v[fwd], kind="stable")]
        assert all(a <= b or np.isclose(a, b) for a, b in zip(qs, qs[1:]))
        assert np.all(q[~fwd] == 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_unit_permutation_permutes_outputs(self, m, seed, alpha):
        rng = np.random.default_rng(seed)
        pairs = random_pairs(rng, m)
        perm = rng.permutation(m)
        permuted = ScorePairs(v=pairs.v[perm], vt=pairs.vt[perm])
        np.testing.assert_array_equal(scq_qvalues(permuted), scq_qvalues(pairs)[perm])
        tau, rej = bc_threshold(pairs, alpha)
        tau_p, rej_p = bc_threshold(permuted, alpha)
        assert tau_p == tau
        np.testing.assert_array_equal(rej_p.mask, rej.mask[perm])
        np.testing.assert_array_equal(evalues(permuted, alpha), evalues(pairs, alpha)[perm])


class TestRejectAndThreshold:
    def test_reject_six_pairs(self):
        q = scq_qvalues(six_pair_instance())
        assert scq_reject(q, 0.5).sorted() == [1, 2, 3, 4, 5]

    def test_reject_empty(self):
        q = scq_qvalues(ScorePairs([0.9], [0.1]))
        assert len(scq_reject(q, 0.05)) == 0

    def test_reject_boundary_inclusive(self):
        assert scq_reject(np.array([0.05]), 0.05).sorted() == [1]

    def test_bc_six_pairs(self):
        tau, rej = bc_threshold(six_pair_instance(), 0.5)
        assert tau == 0.95
        assert rej.sorted() == [1, 2, 3, 4, 5]

    def test_bc_absent_threshold(self):
        tau, rej = bc_threshold(six_pair_instance(), 0.3)
        assert tau is None and len(rej) == 0

    def test_bc_single_pair_never_rejects(self):
        tau, rej = bc_threshold(ScorePairs([0.1], [0.2]), 0.99)
        assert tau is None and len(rej) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_bc_equals_qvalue_thresholding(self, m, seed, alpha):
        pairs = random_pairs(np.random.default_rng(seed), m)
        _, rej_bc = bc_threshold(pairs, alpha)
        rej_q = scq_reject(scq_qvalues(pairs), alpha)
        np.testing.assert_array_equal(rej_bc.mask, rej_q.mask)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
    def test_monotone_in_alpha(self, m, seed):
        pairs = random_pairs(np.random.default_rng(seed), m)
        prev = np.zeros(m, dtype=bool)
        for alpha in (0.05, 0.1, 0.2, 0.3, 0.5, 0.8):
            cur = scq_reject(scq_qvalues(pairs), alpha).mask
            assert np.all(prev <= cur)
            prev = cur

    def test_bc_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            pairs = random_pairs(rng, int(rng.integers(1, 40)))
            alpha = float(rng.uniform(0.01, 0.6))
            tau, rej = bc_threshold(pairs, alpha)
            tau_bf, rej_bf = bc_bruteforce(pairs, alpha)
            assert set(rej.sorted()) == rej_bf
            assert (tau is None) == (tau_bf is None)
            if tau is not None:
                assert tau == tau_bf


class TestEValues:
    def test_six_pair_instance(self):
        e = evalues(six_pair_instance(), 0.5)
        np.testing.assert_array_equal(e, [3.0, 3.0, 3.0, 3.0, 3.0, 0.0])

    def test_absent_threshold_zero_vector(self):
        e = evalues(six_pair_instance(), 0.3)
        np.testing.assert_array_equal(e, np.zeros(6))

    def test_single_pair_zero(self):
        np.testing.assert_array_equal(evalues(ScorePairs([0.1], [0.9]), 0.99), [0.0])

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_ebh_matches_bc(self, m, seed, alpha):
        pairs = random_pairs(np.random.default_rng(seed), m)
        e = evalues(pairs, alpha)
        _, rej_bc = bc_threshold(pairs, alpha)
        np.testing.assert_array_equal(ebh(e, alpha).mask, rej_bc.mask)
        assert ebh_bruteforce(e.tolist(), alpha) == set(rej_bc.sorted())


class TestBH:
    def test_textbook_example(self):
        # step-up oracle on (0.01, 0.04, 0.9) at alpha=0.05 keeps only the smallest
        assert bh_bruteforce([0.01, 0.04, 0.9], 0.05) == {1}
        assert bh([0.01, 0.04, 0.9], 0.05).sorted() == [1]

    def test_all_ones_empty(self):
        assert len(bh([1.0, 1.0, 1.0], 0.05)) == 0

    def test_boundary_inclusive(self):
        assert bh([0.05], 0.05).sorted() == [1]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=50),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_matches_bruteforce(self, pvals, alpha):
        assert set(bh(pvals, alpha).sorted()) == bh_bruteforce(pvals, alpha)


class TestStoreyBH:
    def test_tiny_pvalues_more_rejections(self):
        p = [0.001] * 20
        assert len(storey_bh(p, 0.05, 0.5)) >= len(bh(p, 0.05))

    def test_cap_reduces_to_bh(self):
        p = [0.01, 0.02, 0.8, 0.9]
        # pi0 = (1 + 2) / (4 * 0.5) = 1.5, capped to 1
        np.testing.assert_array_equal(storey_bh(p, 0.05, 0.5).mask, bh(p, 0.05).mask)

    def test_mostly_null_matches_bh(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(size=50)
        assert np.all(storey_bh(p, 0.1, 0.5).mask >= bh(p, 0.1).mask)
