"""Data types, null splitting, synthetic generation, CSV round-trips."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from scq.datamodel import (
    AltComponent,
    LabeledPool,
    SideInfo,
    SparsityBlock,
    SyntheticConfig,
    TestSet,
    generate_hierarchical,
    load_csv,
    save_csv,
    split_nulls,
)
from scq.errors import (
    ConfigError,
    InsufficientNulls,
    NonFiniteFeature,
    ParseError,
    SchemaMismatch,
)


def pool_of(n, p=2, seed=0):
    return LabeledPool(inliers=np.random.default_rng(seed).standard_normal((n, p)))


class TestSplitNulls:
    def test_paper_scale_split(self):
        split = split_nulls(pool_of(5000), 3000, np.random.default_rng(1))
        assert len(split.train) == 1000
        assert len(split.cal) == 1000
        assert len(split.mirror) == 3000

    def test_minimal_split(self):
        split = split_nulls(pool_of(3), 1, np.random.default_rng(1))
        assert (len(split.train), len(split.cal), len(split.mirror)) == (1, 1, 1)

    def test_insufficient_nulls(self):
        with pytest.raises(InsufficientNulls):
            split_nulls(pool_of(10), 9, np.random.default_rng(1))

    def test_disjoint_partition(self):
        pool = pool_of(40, p=3, seed=5)
        split = split_nulls(pool, 15, np.random.default_rng(2))
        combined = np.vstack([split.train, split.cal, split.mirror])
        assert combined.shape == pool.inliers.shape
        # every pool row appears exactly once
        src = {tuple(row) for row in pool.inliers}
        out = [tuple(row) for row in combined]
        assert len(out) == len(set(out)) and set(out) == src

    def test_deterministic_given_seed(self):
        pool = pool_of(30)
        a = split_nulls(pool, 10, np.random.default_rng(42))
        b = split_nulls(pool, 10, np.random.default_rng(42))
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.cal, b.cal)
        np.testing.assert_array_equal(a.mirror, b.mirror)

    def test_assignment_marginally_uniform(self):
        # 10-element pool, m=4: each unit lands in (train, cal, mirror)
        # with probabilities (0.3, 0.3, 0.4); chi-square per unit.
        pool = pool_of(10, p=1, seed=9)
        keys = [float(v) for v in pool.inliers[:, 0]]
        counts = {k: np.zeros(3) for k in keys}
        rng = np.random.default_rng(123)
        n_trials = 10_000
        for _ in range(n_trials):
            split = split_nulls(pool, 4, rng)
            for part, rows in enumerate((split.train, split.cal, split.mirror)):
                for v in rows[:, 0]:
                    counts[float(v)][part] += 1
        expected = np.array([0.3, 0.3, 0.4]) * n_trials
        for k in keys:
            chi2 = stats.chisquare(counts[k], expected)
            assert chi2.pvalue > 1e-4

    def test_train_frac(self):
        split = split_nulls(pool_of(110), 10, np.random.default_rng(0), train_frac=0.3)
        assert len(split.train) == 30 and len(split.cal) == 70


def small_config(**overrides):
    base = dict(
        m=100,
        p=3,
        sparsity_blocks=(SparsityBlock(1, 100, 1.0),),
        background_pi=0.0,
        alt_components=(AltComponent(1, 100, np.full(3, 10.0), 1.0),),
        null_pool_size=50,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


class TestGenerateHierarchical:
    def test_degenerate_null_only(self):
        cfg = small_config(sparsity_blocks=(), alt_components=())
        pool, test = generate_hierarchical(cfg, np.random.default_rng(0))
        assert not test.truth.any()
        assert pool.inliers.shape == (50, 3)
        assert test.features.shape == (100, 3)
        # null-only draws are standard normal; crude 6-sigma sanity band
        assert abs(test.features.mean()) < 6 / np.sqrt(300)

    def test_all_signal_mean_shift(self):
        cfg = small_config()
        _, test = generate_hierarchical(cfg, np.random.default_rng(1))
        assert test.truth.all()
        m, p = 100, 3
        grand_mean = test.features.mean()
        assert abs(grand_mean - 10.0) < 3 / np.sqrt(m * p)

    def test_block_signal_fraction(self):
        m = 2000
        cfg = SyntheticConfig(
            m=m,
            p=1,
            sparsity_blocks=(SparsityBlock(1, 500, 0.9),),
            background_pi=0.0,
            alt_components=(AltComponent(1, m, np.array([2.0]), 1.0),),
            null_pool_size=10,
        )
        hits = []
        for seed in range(20):
            _, test = generate_hierarchical(cfg, np.random.default_rng(seed))
            hits.append(test.truth[:500].mean())
        band = 4 * np.sqrt(0.9 * 0.1 / 500)
        assert all(abs(h - 0.9) <= band for h in hits)

    def test_positional_side_info(self):
        _, test = generate_hierarchical(small_config(), np.random.default_rng(2))
        assert test.side.kind == "position"
        np.testing.assert_array_equal(test.side.values, np.arange(1, 101, dtype=float))

    def test_signal_without_component_rejected(self):
        cfg = small_config(alt_components=(AltComponent(1, 50, np.full(3, 1.0), 1.0),))
        with pytest.raises(ConfigError):
            generate_hierarchical(cfg, np.random.default_rng(3))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(sparsity_blocks=(SparsityBlock(0, 10, 0.5),))
        with pytest.raises(ConfigError):
            small_config(sparsity_blocks=(SparsityBlock(1, 10, 1.5),))
        with pytest.raises(ConfigError):
            small_config(background_pi=-0.1)

    def test_json_round_trip(self):
        # the JSON document of small_config() parses back to it field for field
        doc = {
            "m": 100,
            "p": 3,
            "sparsity_blocks": [{"interval": [1, 100], "pi": 1.0}],
            "background_pi": 0.0,
            "alt_components": [{"interval": [1, 100], "mean": [10.0, 10.0, 10.0], "scale": 1.0}],
            "null_pool_size": 50,
        }
        cfg, want = SyntheticConfig.from_dict(doc), small_config()
        assert replace(cfg, alt_components=()) == replace(want, alt_components=())
        (comp,), (want_comp,) = cfg.alt_components, want.alt_components
        assert (comp.lo, comp.hi, comp.scale) == (want_comp.lo, want_comp.hi, want_comp.scale)
        np.testing.assert_array_equal(comp.mean, want_comp.mean)


class TestCsv:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "__role__,__label__,f0,f1\n"
            "train-null,,0.0,1.0\n"
            "train-null,,2.0,3.0\n"
            "test,,4.0,5.0\n"
        )
        pool, test = load_csv(path)
        assert pool.n_inliers == 2
        assert test.m == 1
        assert test.truth is None
        np.testing.assert_array_equal(test.features, [[4.0, 5.0]])

    def test_nan_feature_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("__role__,f0\ntrain-null,1.0\ntest,NaN\n")
        with pytest.raises(NonFiniteFeature, match="row 3"):
            load_csv(path)

    def test_hour_groups(self, tmp_path):
        path = tmp_path / "hours.csv"
        lines = ["__role__,__label__,__side__,f0"]
        lines += [f"train-null,,,{i / 10}" for i in range(5)]
        for hour in range(9, 18):
            lines.append(f"test,0,{hour},{hour / 10}")
        path.write_text("\n".join(lines) + "\n")
        _, test = load_csv(path)
        assert test.side.kind == "group"
        assert len(np.unique(test.side.values)) == 9

    def test_missing_role_column(self, tmp_path):
        path = tmp_path / "norole.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(SchemaMismatch):
            load_csv(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "badlabel.csv"
        path.write_text("__role__,__label__,f0\ntest,2,1.0\n")
        with pytest.raises(ParseError, match="label"):
            load_csv(path)

    @pytest.mark.parametrize("wide", ["99999999999999999999", "-9223372036854775809"])
    def test_side_beyond_int64_names_first_row(self, tmp_path, wide):
        # group labels are int64; the first test row outside that range is named
        path = tmp_path / "wide.csv"
        lines = ["__role__,__side__,f0", "train-null,,0.0", "test,-9223372036854775808,1.0"]
        lines += ["train-null,,0.5", f"test,{wide},2.0", f"test,{wide}0,3.0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^row 5: side value {wide} does not fit"):
            load_csv(path)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(11)
        pool = LabeledPool(
            inliers=rng.standard_normal((6, 3)),
            outliers=rng.standard_normal((2, 3)),
        )
        test = TestSet(
            features=rng.standard_normal((4, 3)),
            side=SideInfo("position", rng.uniform(0, 10, size=4)),
            truth=np.array([True, False, False, True]),
        )
        path = tmp_path / "roundtrip.csv"
        save_csv(pool, test, path)
        pool2, test2 = load_csv(path)
        np.testing.assert_array_equal(pool.inliers, pool2.inliers)
        np.testing.assert_array_equal(pool.outliers, pool2.outliers)
        np.testing.assert_array_equal(test.features, test2.features)
        np.testing.assert_array_equal(test.side.values, test2.side.values)
        assert test2.side.kind == "position"
        np.testing.assert_array_equal(test.truth, test2.truth)

    def test_round_trip_group_side(self, tmp_path):
        pool = LabeledPool(inliers=np.zeros((3, 2)))
        test = TestSet(
            features=np.ones((2, 2)),
            side=SideInfo("group", np.array([3, 7])),
        )
        path = tmp_path / "groups.csv"
        save_csv(pool, test, path)
        _, test2 = load_csv(path)
        assert test2.side.kind == "group"
        np.testing.assert_array_equal(test2.side.values, [3, 7])
