"""Data types, null splitting, synthetic generation, CSV round-trips."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from helpers import load_csv_by_cell
from scq import datamodel
from scq.bench import paper_synthetic_config
from scq.datamodel import (
    AltComponent,
    InferenceData,
    LabeledPool,
    NullSplit,
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
    DimensionMismatch,
    InsufficientNulls,
    NonFiniteFeature,
    ParseError,
    SchemaMismatch,
    ScqError,
    UnreadableData,
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

    def test_test_set_carries_the_generating_pi(self):
        cfg = small_config(sparsity_blocks=(SparsityBlock(1, 40, 0.7),), background_pi=0.2)
        _, test = generate_hierarchical(cfg, np.random.default_rng(4))
        np.testing.assert_array_equal(test.pi, cfg.pi_vector())

    @pytest.mark.parametrize("n", [99, 101])
    def test_pi_of_wrong_length_rejected(self, n):
        side = SideInfo("position", np.arange(1, 101, dtype=float))
        with pytest.raises(ConfigError, match="pi length"):
            TestSet(features=np.zeros((100, 3)), side=side, pi=np.full(n, 0.1))

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


class TestSideInfo:
    @pytest.mark.parametrize(
        "kind, values",
        [
            ("group", [1.5] * 10 + [2.5] * 10),
            ("group", [np.nan, 1.0]),
            ("group", [1.0, 1e30]),
            ("group", [[1, 2], [3, 4]]),
            ("position", [[1.0, 2.0], [3.0, 4.0]]),
            ("group", ["x", "y"]),
            ("position", ["x", "y"]),
        ],
    )
    def test_bad_values_raise_config_error(self, kind, values):
        # 1-d numbers only, and group labels integral within int64
        with pytest.raises(ConfigError):
            SideInfo(kind, values)


class TestInferenceData:
    @pytest.mark.parametrize("odd", ["train", "calibration", "mirror", "test", "labeled outlier"])
    def test_a_part_of_another_width_raises_dimension_mismatch(self, odd):
        rng = np.random.default_rng(0)

        def rows(part, n):
            return rng.standard_normal((n, 2 if part == odd else 3))

        split = NullSplit(train=rows("train", 6), cal=rows("calibration", 5), mirror=rows("mirror", 4))
        test = TestSet(features=rows("test", 4), side=SideInfo("position", np.arange(1.0, 5.0)))
        with pytest.raises(DimensionMismatch, match=f"{odd} 2"):
            InferenceData(split=split, test=test, labeled_outliers=rows("labeled outlier", 3))


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


# A small CSV with every role, labels and group sides; row 6 is the first test row
CSV_LINES = [
    "__role__,__label__,__side__,f0,f1",
    "train-null,,,0.5,-1.25",
    "train-null,,,1e-3,2",
    "train-outlier,,,3.5,4",
    "train-null,,,-0.0,7",
    "test,1,4,0.25,1.5",
    "test,0,5,2.5,-3",
    "test,,6,1.75,0.125",
]


def _with_cell(text):
    """CSV_LINES with the first test row's f0 cell replaced by ``text``."""
    return [*CSV_LINES[:5], f"test,1,4,{text},1.5", *CSV_LINES[6:]]


CSV_MUTATIONS = {
    "plain": CSV_LINES,
    **{
        f"cell {text!r}": _with_cell(text)
        for text in ("1_0", "١", " 1.5", "nan", "1e400", "", "1#2", '"1.5"', "1_000.5", "\x1c1.5")
    },
    "blank line mid-file": [*CSV_LINES[:3], "", *CSV_LINES[3:]],
    "blank line at the end": [*CSV_LINES, ""],
    "ragged row": [*CSV_LINES[:3], "train-null,,,1.0,2.0,3.0", *CSV_LINES[3:]],
    "duplicate feature header": ["__role__,__label__,__side__,f0,f0", *CSV_LINES[1:]],
    "group side beyond int64": [*CSV_LINES[:6], "test,0,99999999999999999999,2.5,-3", CSV_LINES[7]],
    "float sides": [*CSV_LINES[:6], "test,0,5.5,2.5,-3", CSV_LINES[7]],
    "empty side cell": [*CSV_LINES[:6], "test,0,,2.5,-3", CSV_LINES[7]],
    "no test rows": CSV_LINES[:5],
    "outlier rows only": [CSV_LINES[0], CSV_LINES[3], CSV_LINES[3]],
    "header only": CSV_LINES[:1],
    "reserved columns only": ["__role__,__label__,__side__", "train-null,,", "test,0,1"],
    "quoted role": [*CSV_LINES[:6], '"test",0,5,2.5,-3', CSV_LINES[7]],
    "quoted side with a comma": [*CSV_LINES[:6], 'test,0,"5,5",2.5,-3', CSV_LINES[7]],
    "quoted cell across lines": [*CSV_LINES[:6], 'test,0,"5', '",2.5,-3', CSV_LINES[7]],
    # two lines numpy reads as rows of numbers, which are one csv row
    "quoted role across numeric lines": [
        "__side__,f0,__role__,__label__", "1,0.5,train-null,", "2,0.5,train-null,",
        '5,0.25,"test', '",1', "6,1.5,test,0",
    ],
    "unknown role after a bad cell": [*_with_cell("x")[:7], "tset,,6,1.75,0.125"],
    "one feature column": ["__role__,f0", "train-null,0.5", "train-outlier,2", "test,-1.5"],
    "one feature column, bad cell": ["__role__,f0", "train-null,0.5", "test,1_0", "test,x"],
}

# Files with a bad row, then 20 kB of rows (more than one read of the text
# layer decodes), then a byte that is not UTF-8: "\udcff" is written as 0xff
_FILLER = [CSV_LINES[1]] * 1000
CSV_UNDECODABLE = {
    "bad cell": [*_with_cell("x"), *_FILLER, "train-null,,,\udcff,1"],
    "ragged row": [*CSV_MUTATIONS["ragged row"], *_FILLER, "train-null,,,\udcff,1"],
    "no role column": ["__label__,__side__,f0,f1", *CSV_LINES[1:], *_FILLER, "\udcff"],
}


def _chunk_file(mutation, j):
    """47 rows of every role with row ``j`` (1-based, the header is row 1)
    changed by ``mutation``."""
    lines = ["__role__,__label__,__side__,f0,f1,f2"]
    for r in range(2, 49):
        role = ("train-null", "train-outlier", "test", "train-null")[r % 4]
        cells = [role, str(r % 2) if role == "test" else "", str(r // 5), f"{r / 8}", f"{-r}", "0.1"]
        if r == j:
            if mutation in ("bad cell", "bad cell and unknown role", "bad cell and bad label"):
                cells[3 + r % 3] = "x"
            if mutation in ("nan", "nan, then a ragged row"):
                cells[3 + r % 3] = "nan"
            if mutation in ("unknown role", "bad cell and unknown role"):
                cells[0] = "tset"
            if mutation == "ragged row":
                cells.append("1")
            if mutation in ("bad label", "bad cell and bad label"):
                cells[1] = "2"  # a test row raises; any other row's label is not read
        if r == j + 1 and mutation == "nan, then a ragged row":
            cells.pop()
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _outcome(load, path):
    """What ``load`` makes of ``path``: its error's type and message, or
    every array's dtype, shape and bytes with the side kind and truth."""
    try:
        pool, test = load(path)
    except ScqError as exc:
        return type(exc), str(exc)
    arrays = (pool.inliers, pool.outliers, test.features, test.side.values)
    truth = None if test.truth is None else test.truth.tolist()
    return test.side.kind, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], truth


class TestCsvAgreement:
    """``load_csv`` against a per-cell reference loop, on files that take
    the streamed path and files that must fall back to the cell parser."""

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("name", list(CSV_MUTATIONS))
    def test_equals_the_cell_loop(self, tmp_path, name, ending):
        path = tmp_path / "data.csv"
        path.write_bytes((ending.join(CSV_MUTATIONS[name]) + ending).encode("utf-8"))
        assert _outcome(load_csv, path) == _outcome(load_csv_by_cell, path)

    @pytest.mark.parametrize("name", ["plain", "cell '1_0'", "ragged row"])
    def test_byte_order_mark(self, tmp_path, name):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + ("\n".join(CSV_MUTATIONS[name]) + "\n").encode())
        assert _outcome(load_csv, path) == _outcome(load_csv_by_cell, path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        outcome = _outcome(load_csv, path)
        assert outcome == (SchemaMismatch, "empty file: no header row")
        assert outcome == _outcome(load_csv_by_cell, path)

    def test_float_accepts_what_numpy_does_not(self, tmp_path):
        path = tmp_path / "digits.csv"
        for text, value in (("1_0", 10.0), ("١", 1.0), ('"1.5"', 1.5)):
            path.write_text("\n".join(_with_cell(text)) + "\n", encoding="utf-8")
            _, test = load_csv(path)
            assert test.features[0, 0] == value

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("name", list(CSV_UNDECODABLE))
    def test_undecodable_bytes_outrank_a_bad_row(self, tmp_path, monkeypatch, name, ending):
        monkeypatch.setattr(datamodel, "_CHUNK", 1)  # so a bad cell raises at its row
        path = tmp_path / "undecodable.csv"
        text = ending.join(CSV_UNDECODABLE[name]) + ending
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        outcome = _outcome(load_csv, path)
        assert outcome[0] is UnreadableData
        assert outcome == _outcome(load_csv_by_cell, path)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no BOM", "BOM"])
    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_undecodable_byte_is_placed_in_the_file(self, tmp_path, bom, ending):
        # a 33-byte header and 2,001 rows of 22 bytes, each with its ending;
        # 0xff opens line 1,036's first feature cell, about 24 kB in: far
        # past the first 8 kB buffer the text layer decodes
        lines = [CSV_LINES[0], *[CSV_LINES[1]] * 2001]
        lines[1035] = "train-null,,,\udcff.5,-1.25"
        path = tmp_path / "undecodable.csv"
        path.write_bytes(bom + (ending.join(lines) + ending).encode("utf-8", "surrogateescape"))
        offset = len(bom) + 33 + len(ending) + 1034 * (22 + len(ending)) + len("train-null,,,")
        where = f"can't decode byte 0xff at byte offset {offset}, line 1036: invalid start byte"
        for load in (load_csv, load_csv_by_cell):
            with pytest.raises(UnreadableData) as err:
                load(path)
            assert str(err.value).endswith(where)

    @pytest.mark.parametrize("chunk", range(1, 11))
    def test_bad_rows_at_every_chunk_boundary(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(datamodel, "_CHUNK", chunk)
        path = tmp_path / "chunks.csv"
        mutations = (
            "bad cell", "nan", "ragged row", "unknown role",
            "bad cell and unknown role", "nan, then a ragged row",
            "bad label", "bad cell and bad label",
        )
        for mutation, j in [(None, 0), *((m, j) for m in mutations for j in range(2, 49))]:
            path.write_text(_chunk_file(mutation, j), encoding="utf-8")
            assert _outcome(load_csv, path) == _outcome(load_csv_by_cell, path), (mutation, j)

    def test_peak_memory_at_10k_units(self, tmp_path):
        rng = np.random.default_rng(1)
        pool, test = generate_hierarchical(paper_synthetic_config(10000, 5, 3.0), rng)
        path = tmp_path / "10k.csv"
        save_csv(pool, test, path)
        tracemalloc.start()
        try:
            loaded = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded[1].features, test.features)
        assert peak < 8e6, f"load_csv peaked at {peak / 1e6:.1f} MB"
