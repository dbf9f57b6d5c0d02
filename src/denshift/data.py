"""Dataset handling: CSV ingestion, preprocessing, splitting, synthetic generation.

A Dataset couples a feature matrix with integer class labels and the
per-class counts that drive every density-aware component downstream.
Missing feature values are carried as NaN until `apply_preprocess`
imputes them; after preprocessing every value is finite.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import sys
import warnings
from array import array
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParseError, SchemaError, ValidationError

MAX_LABEL_VALUES = 64
VARIANTS = ("base", "decoupling", "dah", "focal", "cost", "full")


def _number(v) -> bool:
    """A finite number that a float64 can hold, not a bool (NaN fails the comparison)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


class Rule(NamedTuple):
    """What a value must be: `test(value)` says whether it is, `expected` says so in an error message."""

    test: Callable[[object], bool]
    expected: str

    def check(self, name: str, value):
        """Return `value`; raise ValidationError naming `name` when the value breaks the rule."""
        if not self.test(value):
            raise ValidationError(f"{name} must be {self.expected}, got {value!r}")
        return value


POSITIVE = Rule(lambda v: _number(v) and v > 0, "a finite number > 0")
NON_NEGATIVE = Rule(lambda v: _number(v) and v >= 0, "a finite number >= 0")
PROBABILITY = Rule(lambda v: _number(v) and 0 <= v <= 1, "a probability in [0, 1]")
TEXT = Rule(lambda v: isinstance(v, str), "a string")


def at_least(n: int) -> Rule:
    return Rule(lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= n,
                f"an integer >= {n}")


def one_of(*choices) -> Rule:
    """One of `choices`, of the same type as the choice it equals (so 1 is not True)."""
    return Rule(lambda v: any(type(v) is type(c) and v == c for c in choices), f"one of {json.dumps(choices)}")


def list_of(item: Rule, length: int | None = None) -> Rule:
    """A non-empty list, of exactly `length` items when given, whose every item keeps `item`."""
    size = f"a list of {length} items" if length else "a non-empty list"
    return Rule(lambda v: isinstance(v, list) and len(v) > 0 and len(v) == (length or len(v))
                and all(map(item.test, v)), f"{size}, each {item.expected}")


def or_null(rule: Rule) -> Rule:
    return Rule(lambda v: v is None or rule.test(v), f"{rule.expected} or null")


_COUNT, _SEED, _FRACTIONS = at_least(1), at_least(0), list_of(POSITIVE, 3)
_ANY = Rule(lambda v: True, "anything")

# every config key, by its dotted path -> the rule its value keeps; gen-data's manifest keys load unchecked
CONFIG_RULES = {
    "dataset.synthetic.n_majority": _COUNT, "dataset.synthetic.n_minority": _COUNT,
    "dataset.synthetic.n_minority_modes": _COUNT, "dataset.synthetic.dim": _COUNT,
    "dataset.synthetic.mode_spread": POSITIVE, "dataset.synthetic.noise_scale": POSITIVE,
    "dataset.synthetic.minority_scale": POSITIVE, "dataset.synthetic.seed": _SEED,
    "dataset.csv.path": TEXT, "dataset.csv.label_column": TEXT,
    "split.fractions": Rule(lambda v: _FRACTIONS.test(v) and abs(sum(map(float, v)) - 1.0) <= 1e-9,
                            f"{_FRACTIONS.expected}, summing to 1"), "split.seed": _SEED,
    "train.variant": one_of(*VARIANTS), "train.epochs": _COUNT, "train.batch_size": _COUNT,
    "train.learning_rate": POSITIVE, "train.optimizer": one_of("sgd", "adam"), "train.seed": _SEED,
    "train.early_stop_patience": _SEED, "train.hidden": _COUNT, "train.depth": at_least(2),
    "train.margin_scale": or_null(POSITIVE),
    "train.gamma": NON_NEGATIVE, "train.theta": POSITIVE, "train.offset": NON_NEGATIVE,
    "train.lambda_cost": NON_NEGATIVE, "train.q_regular": PROBABILITY, "train.q_balanced": PROBABILITY,
    "metrics.n_bins": _COUNT, "metrics.temperature_scaling": one_of(False, True),
    "sweep.theta_grid": list_of(POSITIVE), "sweep.seeds": list_of(_SEED), "ablation.seeds": list_of(_SEED),
    "output_dir": TEXT, "config_hash": _ANY, "rows": _ANY, "label_mapping": _ANY,
}
_SECTIONS = {key[:i] for key in CONFIG_RULES for i, ch in enumerate(key) if ch == "."}


def check_config(cfg, path: str = "") -> None:
    """Check a nested config by each key's dotted path: a section is an object, a key keeps its rule."""
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path or 'a config'} must be an object, got {cfg!r}")
    for key, value in cfg.items():
        dotted = f"{path}.{key}" if path else key
        if "." in key or (dotted not in CONFIG_RULES and dotted not in _SECTIONS):
            raise ValidationError(f"unknown config key {dotted!r}")
        if dotted in CONFIG_RULES:
            CONFIG_RULES[dotted].check(dotted, value)
        else:
            check_config(value, dotted)


def check_fields(obj, section: str) -> None:
    """Check each field of the dataclass `obj` by the rule of the config key `section.<field>`."""
    for f in fields(obj):
        CONFIG_RULES[f"{section}.{f.name}"].check(f.name, getattr(obj, f.name))


def class_labels(labels, n_classes: int) -> np.ndarray:
    """`labels` as contiguous int64 class indices; each must be a whole number in [0, n_classes)."""
    y = np.ascontiguousarray(labels, dtype=np.int64)
    fractional = y is not labels and not np.array_equal(y, labels)
    # one reduction over the labels as unsigned integers: a negative label wraps to a huge one
    if fractional or (y.size and np.maximum.reduce(y.view(np.uint64), axis=None) >= n_classes):
        valid = "0/1" if n_classes == 2 else f"in 0..{n_classes - 1}"
        raise ValidationError(f"label out of range: labels must be whole numbers {valid}")
    return y


def freeze(obj, **values) -> None:
    """Set fields of the frozen dataclass `obj` (from its `__post_init__`), making each numpy array read-only."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix + labels + class bookkeeping.

    features may contain NaN (missing) before preprocessing but never Inf.
    labels are contiguous class indices aligned with class_names. A class
    may have no rows (a split or an eval file can lack one); `SamplerState`
    and `stratified_split` refuse such a class, naming it.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    label_column: str = "label"
    class_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        n_classes = len(self.class_names)
        labels = class_labels(self.labels, n_classes)
        if feats.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {feats.shape}")
        n, d = feats.shape
        if labels.shape != (n,):
            raise ValidationError(f"labels shape {labels.shape} does not match {n} rows")
        if len(self.feature_names) != d:
            raise ValidationError(f"{len(self.feature_names)} feature names for {d} columns")
        if n_classes < 2:
            raise ValidationError("need at least 2 classes")
        if np.isinf(feats).any():
            raise ValidationError("features contain Inf")
        counts = np.bincount(labels, minlength=n_classes).astype(np.int64)
        freeze(self, features=feats, labels=labels, feature_names=tuple(self.feature_names),
               class_names=tuple(self.class_names), class_counts=counts)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def has_missing(self) -> bool:
        return bool(np.isnan(self.features).any())

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Row subset preserving the class index space (splits may lose a class)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.feature_names, self.class_names,
                       label_column=self.label_column)


@dataclass(frozen=True)
class NormStats:
    """Per-feature normalization fitted on the training split only.

    mean/std use the population (1/N) convention over present values;
    impute holds the training mean; constant_mask flags features whose
    observed variance was zero (their std is recorded as 1).
    """

    mean: np.ndarray
    std: np.ndarray
    impute: np.ndarray
    constant_mask: np.ndarray

    def __post_init__(self):
        freeze(self, **{f.name: np.asarray(getattr(self, f.name)) for f in fields(self)})
        for name in ("mean", "std", "impute"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"{name}: entries must be finite")
        if (self.std <= 0).any():
            raise ValidationError("std: stddev entries must be > 0")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic imbalanced-data generator settings.

    The majority class is one dense isotropic Gaussian; the minority class
    splits across n_minority_modes Gaussians whose centers sit at
    mode_spread majority-stddevs from the majority center, modeling a
    condensed low-risk cluster against a multi-modal high-risk class.
    """

    n_majority: int = 900
    n_minority: int = 100
    n_minority_modes: int = 3
    dim: int = 20
    mode_spread: float = 3.0
    noise_scale: float = 1.0
    minority_scale: float = 1.0  # minority mode stddev, relative to the majority's
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "dataset.synthetic")
        if not self.n_majority >= self.n_minority >= self.n_minority_modes:
            raise ValidationError("dataset.synthetic needs n_majority >= n_minority >= n_minority_modes, got "
                                  f"{self.n_majority}, {self.n_minority}, {self.n_minority_modes}")


def _parse_cells(path, rownum: int, cells: list[str], names: tuple[str, ...]) -> list[float]:
    """One row's feature cells, cell by cell: empty means NaN, else a finite number."""
    row = []
    for name, cell in zip(names, cells):
        cell = cell.strip()
        if cell == "":
            row.append(math.nan)
            continue
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(f"{path}: row {rownum}, column {name!r}: non-numeric cell {cell!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"{path}: row {rownum}, column {name!r}: non-finite value {cell!r}")
        row.append(value)
    return row


def _class_index(classes: dict[str, int], cell: str) -> int | None:
    """The class index of the label in `cell`, stripped, numbered in order of first appearance.

    A new label is added to `classes`. None for an empty label, or for a
    new one when `classes` already holds MAX_LABEL_VALUES labels.
    """
    cell = cell.strip()
    index = classes.get(cell)
    if index is None and cell != "" and len(classes) < MAX_LABEL_VALUES:
        index = classes[cell] = len(classes)
    return index


def load_csv(path, label_column: str) -> Dataset:
    """Load a UTF-8, comma-separated, headered CSV into a Dataset.

    Empty feature cells become NaN (missing); labels are mapped to
    contiguous class indices in order of first appearance. A byte-order
    mark at the start of the file is skipped. A plain numeric file is
    parsed by numpy's C reader; any other file (an empty cell, a quote,
    a blank or ragged row, a cell numpy does not read) is read row by
    row, which also names what is wrong with a file it refuses.
    """
    ds = _read_plain(path, label_column)
    return _read_rows(path, label_column) if ds is None else ds


def _read_plain(path, label_column: str) -> Dataset | None:
    """The Dataset `_read_rows` would build, parsed by `np.loadtxt`; None unless the file is plain.

    A plain file has no quote, no blank line (numpy skips one, the row
    reader refuses it), no line longer than the csv module's field limit,
    the header's number of cells in every row, a finite number in every
    feature cell and 2 to MAX_LABEL_VALUES distinct non-empty labels,
    and numpy reads it without an error or a warning.
    """
    class_index: dict[str, int] = {}

    def label(cell: str) -> int:
        index = _class_index(class_index, cell)
        if index is None:
            raise ValueError("not a plain label")
        return index

    n_lines = 0

    def plain_lines(fh):
        nonlocal n_lines
        limit = csv.field_size_limit()
        for line in fh:
            if '"' in line or len(line) > limit:
                raise ValueError("not a plain line")
            n_lines += 1
            yield line

    try:
        # universal newlines split lines at \r, \n and \r\n, where the csv module splits rows
        with open(path, encoding="utf-8-sig") as fh:
            first = fh.readline().rstrip("\n")
            header = first.split(",") if first else []
            if '"' in first or label_column not in header:
                return None
            label_idx = header.index(label_column)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy warns on a file with no rows
                # any encoding but numpy < 2's default "bytes" hands the converter str, not bytes
                table = np.loadtxt(plain_lines(fh), delimiter=",", comments=None,
                                   converters={label_idx: label}, ndmin=2, encoding="utf-8")
    except (OSError, ValueError, Warning):  # the row reader reads the file, or says why it cannot
        return None
    if table.shape != (n_lines, len(header)) or len(class_index) < 2 or not np.isfinite(table).all():
        return None
    labels = table[:, label_idx].astype(np.int64)
    # pack the feature cells to the front of the table's own buffer, so no second table-sized
    # array is made: np.delete copies a block of rows (about 64k cells) before it is written
    # back, and a packed block ends before the next block's rows begin
    n, dim = table.shape[0], len(header) - 1
    packed = table.reshape(-1)[: n * dim].reshape(n, dim)
    step = 1 + (1 << 16) // len(header)
    for start in range(0, n, step):
        packed[start:start + step] = np.delete(table[start:start + step], label_idx, axis=1)
    del packed
    try:
        table.resize((n, dim))  # the buffer shrinks to the packed cells: the label column is not kept
    except ValueError:  # the table does not own its buffer, or something else refers to it
        table = table.reshape(-1)[: n * dim].reshape(n, dim).copy()
    return Dataset(table, labels, tuple(header[:label_idx] + header[label_idx + 1:]), tuple(class_index),
                   label_column=label_column)


def _read_rows(path, label_column: str) -> Dataset:
    """Read the CSV row by row with the csv module: the reader of every file that is not plain.

    A row is converted whole; one that fails, or holds a non-finite value,
    is parsed again cell by cell, which reads empty cells as NaN and names
    the row and column of a bad one.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if label_column not in header:
            raise SchemaError(f"{path}: label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)

        values = array("d")  # raw doubles, row after row: no float object outlives its row
        label_values: list[int] = []
        class_index: dict[str, int] = {}
        for rownum, cells in enumerate(reader, start=1):
            if len(cells) != len(header):
                raise ParseError(f"{path}: row {rownum} has {len(cells)} cells, expected {len(header)}")
            raw_label = cells.pop(label_idx)
            index = _class_index(class_index, raw_label)
            if index is None:
                if raw_label.strip() == "":
                    raise ParseError(f"{path}: row {rownum} has an empty label cell")
                raise ValidationError(f"{path}: label column has more than {MAX_LABEL_VALUES} distinct values")
            label_values.append(index)

            try:
                row = list(map(float, cells))
            except ValueError:
                row = None
            if row is None or not math.isfinite(sum(row)):
                row = _parse_cells(path, rownum, cells, feature_names)
            values.fromlist(row)

    if len(class_index) < 2:
        raise ValidationError(f"{path}: label column has a single class {list(class_index)!r}")
    features = np.frombuffer(values, dtype=np.float64).reshape(len(label_values), len(feature_names))
    labels = np.array(label_values, dtype=np.int64)
    return Dataset(features, labels, feature_names, tuple(class_index), label_column=label_column)


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(["", text])
    return buf.getvalue()[1:]


def save_csv(ds: Dataset, path) -> None:
    """Write a Dataset in the same CSV dialect `load_csv` reads (NaN -> empty cell, CRLF line ends)."""
    for name in ds.class_names:
        if name != name.strip():
            raise ValidationError(f"class name {name!r} has leading or trailing whitespace, "
                                  f"which load_csv strips; it would read back as {name.strip()!r}")
    labels = [_csv_field(name) for name in ds.class_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(ds.feature_names) + [ds.label_column])
        for row, label in zip(ds.features, ds.labels.tolist()):
            cells = ["" if v != v else repr(v) for v in row.tolist()]  # v != v: NaN
            cells.append(labels[label])
            fh.write(",".join(cells) + "\r\n")


def _table_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value)) if math.isfinite(value) else ""
    return str(value)


def write_table(path, columns, rows) -> None:
    """Write a result table as CSV with LF line ends.

    Floats are written with `repr`, so they read back bit-exact, and a
    non-finite float is an empty cell; any other value is written with `str`.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_table_cell, row)) + "\n")


def fit_preprocess(train: Dataset) -> NormStats:
    """Fit mean-imputation + z-score stats on the training split, ignoring missing cells."""
    if train.n == 0:
        raise ValidationError("cannot fit preprocessing on an empty split")
    feats = train.features
    present = ~np.isnan(feats)
    n_present = present.sum(axis=0)
    if (n_present == 0).any():
        bad = [train.feature_names[j] for j in np.flatnonzero(n_present == 0)]
        raise ValidationError(f"all-missing feature columns: {bad}")
    mean = np.nanmean(feats, axis=0)
    std = np.nanstd(feats, axis=0)  # population (1/N) convention
    constant = std == 0.0
    std = np.where(constant, 1.0, std)
    return NormStats(mean=mean, std=std, impute=mean.copy(), constant_mask=constant)


def apply_preprocess(ds: Dataset, stats: NormStats) -> Dataset:
    """Impute missing cells to the training mean, then z-score with the fitted stats."""
    if stats.dim != ds.dim:
        raise ValidationError(f"stats dimension {stats.dim} does not match dataset dim {ds.dim}")
    feats = ds.features.copy()
    missing = np.isnan(feats)
    feats[missing] = np.broadcast_to(stats.impute, feats.shape)[missing]
    feats = (feats - stats.mean) / stats.std
    return Dataset(feats, ds.labels, ds.feature_names, ds.class_names, label_column=ds.label_column)


def stratified_split(
    ds: Dataset,
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[Dataset, Dataset, Dataset]:
    """Split into (train, val, test) preserving per-class proportions within one instance.

    Per class, indices are shuffled with the seeded generator and allocated by
    largest remainder, so each split count is within +-1 of count*fraction.
    """
    fracs = tuple(map(float, CONFIG_RULES["split.fractions"].check("fractions", list(fractions))))
    too_small = [ds.class_names[c] for c in range(ds.n_classes) if ds.class_counts[c] < len(fracs)]
    if too_small:
        raise ValidationError(f"classes too small to stratify (< {len(fracs)} instances): {too_small}")

    rng = np.random.default_rng(seed)
    split_indices: list[list[int]] = [[], [], []]
    for c in range(ds.n_classes):
        idx = np.flatnonzero(ds.labels == c)
        rng.shuffle(idx)
        n_c = idx.size
        quotas = [n_c * f for f in fracs]
        alloc = [int(q) for q in quotas]
        remainders = [q - a for q, a in zip(quotas, alloc)]
        for s in sorted(range(3), key=lambda s: (-remainders[s], s))[: n_c - sum(alloc)]:
            alloc[s] += 1
        start = 0
        for s in range(3):
            split_indices[s].extend(idx[start : start + alloc[s]].tolist())
            start += alloc[s]

    return tuple(ds.subset(np.sort(np.array(idx, dtype=np.int64))) for idx in split_indices)


def gen_synthetic(cfg: SynthConfig) -> Dataset:
    """Draw a synthetic imbalanced dataset: one dense majority cluster, multi-modal minority.

    Rows are ordered majority block first, then minority mode by mode, so the
    first-appearance label mapping (majority=0, minority=1) survives CSV round trips.
    """
    rng = np.random.default_rng(cfg.seed)
    maj = rng.normal(0.0, cfg.noise_scale, size=(cfg.n_majority, cfg.dim))

    # Mode directions: orthonormal when they fit in the ambient space, else unit vectors.
    k = cfg.n_minority_modes
    if k <= cfg.dim:
        basis = rng.normal(size=(cfg.dim, k))
        q, r = np.linalg.qr(basis)
        directions = (q * np.sign(np.diag(r))).T
    else:
        raw = rng.normal(size=(k, cfg.dim))
        directions = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    centers = cfg.mode_spread * cfg.noise_scale * directions

    base, extra = divmod(cfg.n_minority, k)
    min_sigma = cfg.minority_scale * cfg.noise_scale
    blocks = [maj]
    for m in range(k):
        n_m = base + (1 if m < extra else 0)
        blocks.append(centers[m] + rng.normal(0.0, min_sigma, size=(n_m, cfg.dim)))
    features = np.vstack(blocks)
    labels = np.concatenate(
        [np.zeros(cfg.n_majority, dtype=np.int64), np.ones(cfg.n_minority, dtype=np.int64)]
    )
    feature_names = tuple(f"f{j}" for j in range(cfg.dim))
    return Dataset(features, labels, feature_names, ("majority", "minority"))


def imbalance_ratio(ds: Dataset) -> float:
    """Largest class count divided by the smallest."""
    counts = ds.class_counts[ds.class_counts > 0]
    return float(counts.max() / counts.min())
