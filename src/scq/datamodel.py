"""Core data types, null-pool splitting, CSV ingestion, and synthetic data.

Feature collections are held as 2-d ``float64`` arrays of shape ``(n, p)``;
a single feature vector is a 1-d array of length ``p``.  Test units are
numbered 1..m throughout the package.  All containers are frozen after
construction and every operation is a pure function of its inputs and an
explicit random generator, so values can be shared freely across threads.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .errors import (
    REQUIRED,
    ConfigError,
    DimensionMismatch,
    InsufficientNulls,
    NonFiniteFeature,
    NonFiniteSideInfo,
    ParseError,
    SchemaMismatch,
    ScqError,
    UnreadableData,
    read_config,
)

ROLE_COLUMN = "__role__"
LABEL_COLUMN = "__label__"
SIDE_COLUMN = "__side__"

ROLE_TRAIN_NULL = "train-null"
ROLE_TRAIN_OUTLIER = "train-outlier"
ROLE_TEST = "test"

_INT_RE = re.compile(r"^[+-]?\d+$")
# the loader's codes for the reserved cells; label code 2 is an empty label
_ROLE_CODES = {ROLE_TRAIN_NULL: 0, ROLE_TRAIN_OUTLIER: 1, ROLE_TEST: 2}
_LABEL_CODES = {"0": 0, "1": 1, "": 2}
_CHUNK = 1 << 14  # feature cells converted at a time


def _as_matrix(rows, p: Optional[int] = None) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    if arr.size == 0:
        # an empty (0, p) array keeps its width
        width = arr.shape[1] if arr.ndim == 2 else 0
        arr = arr.reshape(0, p if p is not None else width)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteFeature("feature matrix contains NaN or infinite entries")
    return arr


@dataclass(frozen=True)
class SideInfo:
    """Per-unit side information, either categorical or positional.

    The variant is uniform across a test set: ``kind`` is ``"group"`` for
    integer category labels and ``"position"`` for real-valued locations
    (indices, timestamps).  ``values`` must be a 1-d array of numbers;
    positions must be finite and group labels integral and within int64.
    """

    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("group", "position"):
            raise ConfigError(f"unknown side-info kind {self.kind!r}")
        values = np.asarray(self.values)
        if values.ndim != 1 or values.dtype.kind not in "iuf":
            raise ConfigError(
                f"{self.kind} side info must be a 1-d array of numbers, "
                f"got {values.dtype} values of shape {values.shape}"
            )
        if self.kind == "group" and values.dtype.kind != "i":
            # NaN fails every comparison
            fits = (values == np.floor(values)) & (values >= -(2.0**63)) & (values < 2.0**63)
            bad = np.flatnonzero(~fits)
            if bad.size:
                raise ConfigError(
                    "group labels must be integers within int64: "
                    f"unit {bad[0] + 1} is {values[bad[0]]}"
                )
        values = values.astype(np.int64 if self.kind == "group" else np.float64, copy=False)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NonFiniteSideInfo(
                f"positional side info must be finite: unit {bad[0] + 1} is {values[bad[0]]}"
            )
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class LabeledPool:
    """Labeled reference data: inliers (label 0) and optional outliers (label 1)."""

    inliers: np.ndarray
    outliers: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __post_init__(self):
        inl = _as_matrix(self.inliers)
        out = _as_matrix(self.outliers, p=inl.shape[1])
        if out.shape[0] and out.shape[1] != inl.shape[1]:
            raise ConfigError("inliers and outliers disagree on dimension")
        object.__setattr__(self, "inliers", inl)
        object.__setattr__(self, "outliers", out)

    @property
    def dim(self) -> int:
        return self.inliers.shape[1]

    @property
    def n_inliers(self) -> int:
        return self.inliers.shape[0]


@dataclass(frozen=True)
class NullSplit:
    """Disjoint three-way partition of the null pool."""

    train: np.ndarray
    cal: np.ndarray
    mirror: np.ndarray

    def __post_init__(self):
        for name in ("train", "cal", "mirror"):
            object.__setattr__(self, name, _as_matrix(getattr(self, name)))
        if min(len(self.train), len(self.cal), len(self.mirror)) < 1:
            raise InsufficientNulls("every split part must be nonempty")


@dataclass(frozen=True)
class TestSet:
    """Unlabeled test units with side information and, in simulations, the
    truth and the signal frequencies ``pi`` it was drawn with."""

    __test__ = False  # not a pytest class, despite the name

    features: np.ndarray
    side: SideInfo
    truth: Optional[np.ndarray] = None
    pi: Optional[np.ndarray] = None

    def __post_init__(self):
        feats = _as_matrix(self.features)
        object.__setattr__(self, "features", feats)
        if len(self.side) != feats.shape[0]:
            raise ConfigError("side info length must equal the number of test units")
        for name, dtype in (("truth", bool), ("pi", np.float64)):
            if getattr(self, name) is not None:
                value = np.asarray(getattr(self, name), dtype=dtype)
                if value.shape != (feats.shape[0],):
                    raise ConfigError(f"{name} length must equal the number of test units")
                object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class InferenceData:
    """Everything one inference run consumes: split nulls, test set, labeled outliers."""

    split: NullSplit
    test: TestSet
    labeled_outliers: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __post_init__(self):
        outliers = _as_matrix(self.labeled_outliers, p=self.test.features.shape[1])
        object.__setattr__(self, "labeled_outliers", outliers)
        if self.split.mirror.shape[0] != self.test.m:
            raise ConfigError("mirror set size must equal the test set size")
        widths = {
            "train": self.split.train.shape[1],
            "calibration": self.split.cal.shape[1],
            "mirror": self.split.mirror.shape[1],
            "test": self.test.features.shape[1],
        }
        if len(outliers):
            widths["labeled outlier"] = outliers.shape[1]
        if len(set(widths.values())) > 1:
            named = ", ".join(f"{part} {w}" for part, w in widths.items())
            raise DimensionMismatch(f"feature rows must share one width, got widths {named}")

    @property
    def m(self) -> int:
        return self.test.m


@dataclass(frozen=True)
class SparsityBlock:
    lo: int
    hi: int
    pi: float


@dataclass(frozen=True)
class AltComponent:
    lo: int
    hi: int
    mean: np.ndarray
    scale: float  # per-coordinate standard deviation

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=np.float64)))


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the hierarchical benchmark generator.

    Signal indicators follow ``Y_j ~ Bernoulli(pi(j))`` where ``pi`` equals
    ``background_pi`` outside the listed blocks.  Null features are standard
    Gaussian; signal features come from the alternative component whose
    index interval covers ``j`` (mean vector plus ``scale`` times standard
    Gaussian noise).  Side information is positional, ``S_j = j``.
    """

    m: int
    p: int
    sparsity_blocks: tuple[SparsityBlock, ...]
    background_pi: float
    alt_components: tuple[AltComponent, ...]
    null_pool_size: int

    def __post_init__(self):
        if self.m < 1 or self.p < 1:
            raise ConfigError("m and p must be positive")
        if not 0.0 <= self.background_pi <= 1.0:
            raise ConfigError("background_pi must lie in [0, 1]")
        for blk in self.sparsity_blocks:
            if not (1 <= blk.lo <= blk.hi <= self.m):
                raise ConfigError(f"block interval [{blk.lo}, {blk.hi}] outside [1, {self.m}]")
            if not 0.0 <= blk.pi <= 1.0:
                raise ConfigError("block pi must lie in [0, 1]")
        for comp in self.alt_components:
            if not (1 <= comp.lo <= comp.hi <= self.m):
                raise ConfigError(f"component interval [{comp.lo}, {comp.hi}] outside [1, {self.m}]")
            if comp.mean.shape != (self.p,) and comp.mean.shape != (1,):
                raise ConfigError("component mean must be scalar or length p")
            if comp.scale <= 0:
                raise ConfigError("component scale must be positive")
        if self.null_pool_size < 3:
            raise ConfigError("null_pool_size must be at least 3")

    def pi_vector(self) -> np.ndarray:
        """Local signal frequency pi(j) for j = 1..m; later blocks win on overlap."""
        pi = np.full(self.m, self.background_pi)
        for blk in self.sparsity_blocks:
            pi[blk.lo - 1 : blk.hi] = blk.pi
        return pi

    @staticmethod
    def from_dict(doc: dict) -> "SyntheticConfig":
        """Parse a ``synthetic`` config section; any other key is a ConfigError."""
        cfg = read_config(doc, SYNTHETIC, "synthetic config")
        blocks = [read_config(d, _BLOCK, "sparsity block") for d in cfg["sparsity_blocks"]]
        comps = [read_config(d, _COMPONENT, "alternative component") for d in cfg["alt_components"]]
        cfg["sparsity_blocks"] = tuple(SparsityBlock(*_interval(b), b["pi"]) for b in blocks)
        cfg["alt_components"] = tuple(
            AltComponent(*_interval(c), c["mean"], c["scale"]) for c in comps
        )
        return SyntheticConfig(**cfg)


# The keys of a synthetic config section and of its blocks and components
SYNTHETIC = {
    "m": (int, REQUIRED),
    "p": (int, REQUIRED),
    "sparsity_blocks": ([dict], []),
    "background_pi": (float, REQUIRED),
    "alt_components": ([dict], []),
    "null_pool_size": (int, REQUIRED),
}
_BLOCK = {"interval": ([int], REQUIRED), "pi": (float, REQUIRED)}
_COMPONENT = {
    "interval": ([int], REQUIRED), "mean": ((float, [float]), REQUIRED), "scale": (float, 1.0)
}


def _interval(section: dict) -> list:
    if len(section["interval"]) != 2:
        raise ConfigError(f"interval must be [lo, hi], got {section['interval']!r}")
    return section["interval"]


def split_nulls(
    pool: LabeledPool,
    m: int,
    rng: np.random.Generator,
    train_frac: float = 0.5,
) -> NullSplit:
    """Partition the inlier pool into train / calibration / mirror subsets.

    The partition is uniformly random over all disjoint assignments with
    ``|mirror| = m``; the remaining inliers go to train and calibration in
    proportion ``train_frac`` (both parts always nonempty).  Deterministic
    given the generator state.

    Raises
    ------
    InsufficientNulls
        If the pool holds fewer than ``m + 2`` inliers.
    """
    n0 = pool.n_inliers
    if n0 < m + 2:
        raise InsufficientNulls(f"need at least m + 2 = {m + 2} inliers, have {n0}")
    if not 0.0 < train_frac < 1.0:
        raise ConfigError("train_frac must lie strictly between 0 and 1")
    perm = rng.permutation(n0)
    rest = n0 - m
    n_train = int(round(train_frac * rest))
    n_train = max(1, min(rest - 1, n_train))
    mirror_idx = perm[:m]
    train_idx = perm[m : m + n_train]
    cal_idx = perm[m + n_train :]
    return NullSplit(
        train=pool.inliers[train_idx],
        cal=pool.inliers[cal_idx],
        mirror=pool.inliers[mirror_idx],
    )


def generate_hierarchical(
    cfg: SyntheticConfig, rng: np.random.Generator
) -> tuple[LabeledPool, TestSet]:
    """Draw one benchmark instance from the hierarchical mixture model.

    Returns the i.i.d. standard-Gaussian null pool and a test set with
    positional side information ``S_j = j``, the realized truth labels and
    the signal frequencies ``pi``.  Every index with ``pi > 0`` must lie in
    an alternative component, whatever the generator would draw.
    """
    m, p = cfg.m, cfg.p
    pi = cfg.pi_vector()
    # map each index to its alternative component; later components win
    comp_of = np.full(m, -1, dtype=np.int64)
    for ci, comp in enumerate(cfg.alt_components):
        comp_of[comp.lo - 1 : comp.hi] = ci
    uncovered = np.flatnonzero((pi > 0) & (comp_of < 0))
    if uncovered.size:
        j = uncovered[0]
        raise ConfigError(f"unit {j + 1} has pi {pi[j]} but no alternative component covers it")
    y = rng.random(m) < pi
    x = rng.standard_normal((m, p))
    for ci, comp in enumerate(cfg.alt_components):
        sel = y & (comp_of == ci)
        if np.any(sel):
            x[sel] = comp.mean + comp.scale * rng.standard_normal((int(sel.sum()), p))
    nulls = rng.standard_normal((cfg.null_pool_size, p))
    pool = LabeledPool(inliers=nulls, outliers=np.empty((0, p)))
    side = SideInfo("position", np.arange(1, m + 1, dtype=np.float64))
    return pool, TestSet(features=x, side=side, truth=y, pi=pi)


def _parse_feature(raw: str, row: int, col: str) -> float:
    try:
        val = float(raw)
    except ValueError as exc:
        raise ParseError(f"row {row}: column {col!r}: cannot parse {raw!r} as float") from exc
    if not np.isfinite(val):
        raise NonFiniteFeature(f"row {row}: column {col!r}: non-finite feature {raw!r}")
    return val


def load_csv(path) -> tuple[LabeledPool, TestSet]:
    """Parse a CSV file into a labeled pool and a test set.

    The file must carry a header.  The role column ``__role__`` assigns
    each row to ``train-null``, ``train-outlier``, or ``test``; the
    optional label column ``__label__`` (0/1/empty) supplies simulation
    truth for test rows; the optional side column ``__side__`` supplies
    side information (integer literals form groups, anything else is
    positional).  All remaining columns are features.  Test rows without a
    side column get positional side info ``1..m`` in file order.

    A feature cell is valid when ``float()`` reads it as a finite number.
    The file is streamed in one :mod:`csv` pass that keeps the reserved
    cells and converts the feature cells with ``float()`` a chunk at a
    time.  The first bad row raises, and a file that cannot be decoded
    raises :class:`UnreadableData` whatever its rows hold.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                parts = _read(reader)
            except ScqError:
                for _ in reader:  # an undecodable line later on outranks a bad row
                    pass
                raise
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UnreadableData(f"cannot read data file {path}: {exc}") from exc
    return _assemble(*parts)


def _columns(header) -> tuple:
    """The role, label and side column indices of ``header`` (``None`` when
    absent) and the list of its feature column indices."""
    if header is None:
        raise SchemaMismatch("empty file: no header row")
    if ROLE_COLUMN not in header:
        raise SchemaMismatch(f"missing required column {ROLE_COLUMN!r}")
    role_i = header.index(ROLE_COLUMN)
    label_i = header.index(LABEL_COLUMN) if LABEL_COLUMN in header else None
    side_i = header.index(SIDE_COLUMN) if SIDE_COLUMN in header else None
    reserved = {role_i, label_i, side_i} - {None}
    feat_is = [i for i in range(len(header)) if i not in reserved]
    if not feat_is:
        raise SchemaMismatch("no feature columns found")
    return role_i, label_i, side_i, feat_is


def _keep_reserved(row, r: int, columns: tuple, roles, sides: list, labels) -> None:
    """Append row ``r``'s role code and, for a test row, its side cell and label code."""
    role_i, label_i, side_i, _ = columns
    role = row[role_i].strip()
    code = _ROLE_CODES.get(role)
    if code is None:
        raise ParseError(f"row {r}: unknown role {role!r}")
    roles.append(code)
    if code == _ROLE_CODES[ROLE_TEST]:
        if side_i is not None:
            sides.append(row[side_i].strip())
        lab = row[label_i].strip() if label_i is not None else ""
        if lab not in _LABEL_CODES:
            raise ParseError(f"row {r}: label must be 0, 1, or empty, got {lab!r}")
        labels.append(_LABEL_CODES[lab])


def _read(reader) -> tuple:
    """The feature rows of ``reader`` as one array, with the role codes and
    the test rows' side cells and label codes; the first bad row raises."""
    header = next(reader, None)
    columns = _columns(header)
    feat_is = columns[3]
    blocks, cells, roles, sides, labels = [], [], bytearray(), [], bytearray()
    r0 = 2  # the row of cells[0], 1-based with the header on row 1
    try:
        for r, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"row {r}: expected {len(header)} cells, got {len(row)}")
            cells += [row[i] for i in feat_is]
            _keep_reserved(row, r, columns, roles, sides, labels)
            if len(cells) >= _CHUNK:
                pending, cells = cells, []
                blocks.append(_block(pending, r0, header, feat_is))
                r0 = r + 1
    except ParseError:
        _block(cells, r0, header, feat_is)  # a bad feature cell up to this row raises first
        raise
    blocks.append(_block(cells, r0, header, feat_is))
    return np.concatenate(blocks), roles, sides, labels


def _block(cells: list, r0: int, header, feat_is) -> np.ndarray:
    """The feature cells of whole rows from row ``r0`` on, as a float64
    block; the first cell ``float()`` rejects or reads as non-finite raises."""
    p = len(feat_is)
    try:
        block = np.fromiter(map(float, cells), np.float64, len(cells))
        valid = np.isfinite(block).all()
    except ValueError:
        valid = False
    if not valid:
        block = np.array([
            _parse_feature(raw, r0 + k // p, header[feat_is[k % p]]) for k, raw in enumerate(cells)
        ])
    return block.reshape(-1, p)


def _assemble(features: np.ndarray, roles, sides: list, labels) -> tuple[LabeledPool, TestSet]:
    """Cut the pool and the test set out of the feature rows by role, and
    read the test rows' side cells and labels."""
    roles = np.frombuffer(roles, dtype=np.uint8)
    is_test = roles == _ROLE_CODES[ROLE_TEST]
    pool = LabeledPool(
        inliers=features[roles == _ROLE_CODES[ROLE_TRAIN_NULL]],
        outliers=features[roles == _ROLE_CODES[ROLE_TRAIN_OUTLIER]],
    )
    m = int(np.count_nonzero(is_test))
    if not sides:  # no side column, or no test rows
        side = SideInfo("position", np.arange(1, m + 1, dtype=np.float64))
    elif "" in sides:
        raise ParseError("side column present but empty for some test rows")
    elif all(_INT_RE.match(s) for s in sides):
        try:
            side = SideInfo("group", np.array([int(s) for s in sides], dtype=np.int64))
        except OverflowError:
            j = next(j for j, s in enumerate(sides) if not -(2**63) <= int(s) < 2**63)
            r = int(np.flatnonzero(is_test)[j]) + 2
            raise ParseError(f"row {r}: side value {sides[j]} does not fit in 64 bits") from None
    else:
        try:
            side = SideInfo("position", np.array([float(s) for s in sides]))
        except ValueError as exc:
            raise ParseError(f"cannot parse side values: {exc}") from exc
    labels = np.frombuffer(labels, dtype=np.uint8)
    truth = labels == _LABEL_CODES["1"] if m and labels.max() < _LABEL_CODES[""] else None
    return pool, TestSet(features=features[is_test], side=side, truth=truth)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows``; :mod:`csv` writes a float as its repr, ``None`` as ""."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(pool: LabeledPool, test: TestSet, path) -> None:
    """Write a pool and test set in the reserved-column CSV format.

    Inverse of :func:`load_csv` on the data model (floats are written in
    round-trip precision).
    """
    p = pool.dim if pool.dim else test.features.shape[1]
    header = [ROLE_COLUMN, LABEL_COLUMN, SIDE_COLUMN] + [f"f{i}" for i in range(p)]
    labels = [None] * test.m if test.truth is None else test.truth.astype(int).tolist()
    write_csv(path, header, chain(
        ([ROLE_TRAIN_NULL, None, None, *row.tolist()] for row in pool.inliers),
        ([ROLE_TRAIN_OUTLIER, None, None, *row.tolist()] for row in pool.outliers),
        (
            [ROLE_TEST, label, side, *row.tolist()]
            for label, side, row in zip(labels, test.side.values.tolist(), test.features)
        ),
    ))
