"""Dataset handling: CSV ingestion, preprocessing, splitting, synthetic generation.

A Dataset couples a feature matrix with integer class labels and the
per-class counts that drive every density-aware component downstream.
Missing feature values are carried as NaN until `apply_preprocess`
imputes them; after preprocessing every value is finite.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, SchemaError, ValidationError

MAX_LABEL_VALUES = 64


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix + labels + class bookkeeping.

    features may contain NaN (missing) before preprocessing but never Inf.
    labels are contiguous class indices aligned with class_names.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    label_column: str = "label"
    allow_empty_classes: bool = False
    class_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if labels is not self.labels and not np.array_equal(labels, self.labels):
            raise ValidationError("labels must be whole numbers")
        if feats.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {feats.shape}")
        n, d = feats.shape
        if labels.shape != (n,):
            raise ValidationError(f"labels shape {labels.shape} does not match {n} rows")
        if len(self.feature_names) != d:
            raise ValidationError(f"{len(self.feature_names)} feature names for {d} columns")
        if len(self.class_names) < 2:
            raise ValidationError("need at least 2 classes")
        if np.isinf(feats).any():
            raise ValidationError("features contain Inf")
        n_classes = len(self.class_names)
        if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
            raise ValidationError("labels outside [0, n_classes)")
        counts = np.bincount(labels, minlength=n_classes).astype(np.int64)
        if not self.allow_empty_classes and (counts == 0).any():
            empty = [self.class_names[c] for c in np.flatnonzero(counts == 0)]
            raise ValidationError(f"classes with no instances: {empty}")
        feats.flags.writeable = False
        labels.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "class_counts", counts)

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
        return Dataset(
            self.features[idx],
            self.labels[idx],
            self.feature_names,
            self.class_names,
            label_column=self.label_column,
            allow_empty_classes=True,
        )


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
        for name in ("mean", "std", "impute", "constant_mask"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if (self.std <= 0).any():
            raise ValidationError("stddev entries must be > 0")

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
        if not (self.n_majority >= self.n_minority >= self.n_minority_modes >= 1):
            raise ValidationError("need n_majority >= n_minority >= n_minority_modes >= 1")
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if self.mode_spread <= 0 or self.noise_scale <= 0 or self.minority_scale <= 0:
            raise ValidationError("mode_spread, noise_scale and minority_scale must be positive")

    @property
    def imbalance_ratio(self) -> float:
        return self.n_majority / self.n_minority


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


def load_csv(path, label_column: str) -> Dataset:
    """Load a UTF-8, comma-separated, headered CSV into a Dataset.

    Empty feature cells become NaN (missing); labels are mapped to
    contiguous class indices in order of first appearance. A row is
    converted whole; one that fails, or holds a non-finite value, is
    parsed again cell by cell, which reads empty cells as NaN and names
    the row and column of a bad one.
    """
    with open(path, newline="", encoding="utf-8") as fh:
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
        class_names: list[str] = []
        class_index: dict[str, int] = {}
        for rownum, cells in enumerate(reader, start=1):
            if len(cells) != len(header):
                raise ParseError(f"{path}: row {rownum} has {len(cells)} cells, expected {len(header)}")
            raw_label = cells.pop(label_idx).strip()
            if raw_label == "":
                raise ParseError(f"{path}: row {rownum} has an empty label cell")
            if raw_label not in class_index:
                if len(class_names) >= MAX_LABEL_VALUES:
                    raise ValidationError(
                        f"{path}: label column has more than {MAX_LABEL_VALUES} distinct values"
                    )
                class_index[raw_label] = len(class_names)
                class_names.append(raw_label)
            label_values.append(class_index[raw_label])

            try:
                row = list(map(float, cells))
            except ValueError:
                row = None
            if row is None or not math.isfinite(sum(row)):
                row = _parse_cells(path, rownum, cells, feature_names)
            values.fromlist(row)

    if len(class_names) < 2:
        raise ValidationError(f"{path}: label column has a single class {class_names!r}")
    features = np.frombuffer(values, dtype=np.float64).reshape(len(label_values), len(feature_names))
    labels = np.array(label_values, dtype=np.int64)
    return Dataset(features, labels, feature_names, tuple(class_names), label_column=label_column)


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
    return Dataset(
        feats, ds.labels, ds.feature_names, ds.class_names,
        label_column=ds.label_column, allow_empty_classes=True,
    )


def stratified_split(
    ds: Dataset,
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[Dataset, Dataset, Dataset]:
    """Split into (train, val, test) preserving per-class proportions within one instance.

    Per class, indices are shuffled with the seeded generator and allocated by
    largest remainder, so each split count is within +-1 of count*fraction.
    """
    fracs = tuple(float(f) for f in fractions)
    if len(fracs) != 3 or any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
        raise ValidationError(f"fractions must be 3 non-negatives summing to 1, got {fracs}")
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

    parts = []
    for s in range(3):
        order = np.sort(np.array(split_indices[s], dtype=np.int64))
        parts.append(ds.subset(order))
    return parts[0], parts[1], parts[2]


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
