"""Shared test utilities: brute-force oracles and instance generators.

The oracles re-derive every quantity by direct enumeration of the
definitions, one unit and one grid point at a time, independent of the
package's sorted-sweep implementations.  They read score pairs through
the ``v`` and ``vt`` arrays of :class:`~scq.conformal.ScorePairs`.
"""

from __future__ import annotations

import sys

import numpy as np

from scq.bench import paper_synthetic_config
from scq.conformal import ScorePairs, mirror_stat
from scq.datamodel import InferenceData, generate_hierarchical, split_nulls


def qvalues_bruteforce(pairs: ScorePairs) -> list:
    """Evaluate H at every grid point at or above v_j and take the minimum."""
    v, vt = pairs.v.tolist(), pairs.vt.tolist()
    grid = sorted(set(v) | set(vt))
    out = []
    for a, b in zip(v, vt):
        if a < b:
            hs = [mirror_stat(pairs, t) for t in grid if t >= a]
            out.append(min(min(hs), 1.0))
        else:
            out.append(1.0)
    return out


def bc_bruteforce(pairs: ScorePairs, alpha):
    """Largest grid point with H <= alpha, and its 1-based rejection set."""
    v, vt = pairs.v.tolist(), pairs.vt.tolist()
    grid = sorted(set(v) | set(vt))
    feasible = [t for t in grid if mirror_stat(pairs, t) <= alpha]
    if not feasible:
        return None, set()
    tau = max(feasible)
    return tau, {j for j, (a, b) in enumerate(zip(v, vt), start=1) if a <= tau and a < b}


def bh_bruteforce(pvals, alpha) -> set:
    """Textbook step-up: largest k with p_(k) <= k * alpha / m."""
    m = len(pvals)
    order = sorted(range(m), key=lambda i: pvals[i])
    k = 0
    for rank, i in enumerate(order, start=1):
        if pvals[i] <= rank * alpha / m:
            k = rank
    if k == 0:
        return set()
    cut = pvals[order[k - 1]]
    return {i + 1 for i in range(m) if pvals[i] <= cut}


def ebh_bruteforce(e, alpha) -> set:
    """e-BH step-up on descending order statistics."""
    m = len(e)
    desc = sorted(e, reverse=True)
    khat = 0
    for i in range(1, m + 1):
        if i * desc[i - 1] / m >= 1.0 / alpha:
            khat = i
    if khat == 0:
        return set()
    cut = desc[khat - 1]
    return {j + 1 for j in range(m) if e[j] >= cut}


def random_pairs(rng: np.random.Generator, m: int) -> ScorePairs:
    """Score-pair instances mixing continuous values and tie-heavy grids."""
    if rng.random() < 0.5:
        v = rng.uniform(0.01, 1.5, size=m)
        vt = rng.uniform(0.01, 1.5, size=m)
    else:
        n_cal = int(rng.integers(1, 30))
        w = rng.lognormal(0.0, 1.0, size=m)
        v = rng.integers(1, n_cal + 2, size=m) / (n_cal + 1) / w
        vt = rng.integers(1, n_cal + 2, size=m) / (n_cal + 1) / w
    if m > 1 and rng.random() < 0.3:
        ties = rng.random(m) < 0.3
        vt = np.where(ties, v, vt)
    return ScorePairs(v=v, vt=vt)


def count_calls(monkeypatch, fn) -> list:
    """Count calls to ``fn`` made through any ``scq`` module namespace.

    Every loaded ``scq`` module that binds ``fn`` by name gets a counting
    wrapper; the returned list grows by one entry per call.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "scq" or name.startswith("scq.")) and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def make_synthetic_data(
    m: int, p: int, mu: float, seed: int, train_frac: float = 0.5
) -> InferenceData:
    """One block-structured instance, split and bundled for inference."""
    cfg = paper_synthetic_config(m=m, p=p, mu=mu)
    ss = np.random.SeedSequence([seed])
    gen_ss, split_ss = ss.spawn(2)
    pool, test = generate_hierarchical(cfg, np.random.default_rng(gen_ss))
    split = split_nulls(pool, test.m, np.random.default_rng(split_ss), train_frac)
    return InferenceData(split=split, test=test)


def swap_inference_pairs(data: InferenceData, pair_ids) -> InferenceData:
    """Exchange test and mirror feature rows for the given 1-based unit ids."""
    test_feats = data.test.features.copy()
    mirror = data.split.mirror.copy()
    for j in pair_ids:
        a = j - 1
        test_feats[a], mirror[a] = mirror[a].copy(), test_feats[a].copy()
    from scq.datamodel import NullSplit, TestSet

    split = NullSplit(train=data.split.train, cal=data.split.cal, mirror=mirror)
    test = TestSet(features=test_feats, side=data.test.side, truth=data.test.truth)
    return InferenceData(split=split, test=test, labeled_outliers=data.labeled_outliers)
