"""Dataset ingestion, preprocessing and the train/test split protocol.

Labels are always remapped to contiguous 1-based indices following the
sorted order of the distinct raw labels (so {-1, +1} becomes {1, 2}).
Categorical CSV columns are ordinal-encoded by sorted lexicographic order of
their distinct values.  Splits are seeded, disjoint and exhaustive: 80/20
train/test, with the train half split 50/50 into voter and bound halves in
strong-voter mode.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "SplitPlan",
    "DataError",
    "parse_libsvm",
    "parse_csv",
    "standardize",
    "make_split",
    "split_indices",
]


class DataError(ValueError):
    """Malformed dataset input; messages carry the line or row position."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError("features must be 2-d")
        if y.shape != (X.shape[0],):
            raise ValueError("labels length must match feature rows")
        if not np.all(np.isfinite(X)):
            raise DataError("features must be finite")
        if y.size and (y.min() < 1 or y.max() > self.num_classes):
            raise ValueError("labels must lie in [1..num_classes]")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def num_examples(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class SplitPlan:
    train_idx: np.ndarray
    test_idx: np.ndarray
    voter_half_idx: np.ndarray
    bound_half_idx: np.ndarray
    seed: int


def _remap_labels(raw: list) -> tuple[np.ndarray, int]:
    distinct = sorted(set(raw))
    mapping = {v: i + 1 for i, v in enumerate(distinct)}
    labels = np.array([mapping[v] for v in raw], dtype=np.int64)
    return labels, len(distinct)


_LIBSVM_MAX_INDEX = 100_000


def parse_libsvm(path) -> Dataset:
    """Parse sparse ``label idx:val ...`` lines with 1-based strictly
    increasing indices; absent indices are 0.0.  The matrix is dense, so an
    index above 100,000 is a DataError, raised before allocating it."""
    raw_labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    width = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            try:
                raw_labels.append(float(tokens[0]))
            except ValueError:
                raise DataError(f"line {lineno}: bad label {tokens[0]!r}") from None
            pairs = []
            last_idx = 0
            for tok in tokens[1:]:
                idx_str, _, val_str = tok.partition(":")
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise DataError(f"line {lineno}: bad token {tok!r}") from None
                if idx <= last_idx:
                    raise DataError(
                        f"line {lineno}: indices must be 1-based strictly increasing"
                    )
                if idx > _LIBSVM_MAX_INDEX:
                    raise DataError(f"line {lineno}: feature index {idx} above {_LIBSVM_MAX_INDEX}")
                last_idx = idx
                pairs.append((idx, val))
            width = max(width, last_idx)
            rows.append(pairs)
    if not rows:
        raise DataError("no data lines found")
    X = np.zeros((len(rows), width))
    for i, pairs in enumerate(rows):
        for idx, val in pairs:
            X[i, idx - 1] = val
    labels, num_classes = _remap_labels(raw_labels)
    return Dataset(X, labels, num_classes)


def parse_csv(path, label_column) -> Dataset:
    """Parse a headed CSV; non-numeric columns are ordinal-encoded.

    label_column is a header name or 0-based column index.  Missing values
    (empty cells) are rejected; imputation is out of scope.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file") from None
        records = [rec for rec in reader if rec]
    if not records:
        raise DataError("no data rows found")
    if isinstance(label_column, int):
        label_pos = label_column
        if not 0 <= label_pos < len(header):
            raise DataError(f"label column index {label_column} out of range")
    else:
        try:
            label_pos = header.index(label_column)
        except ValueError:
            raise DataError(f"label column {label_column!r} not in header") from None
    width = len(header)
    for i, rec in enumerate(records, start=1):
        if len(rec) != width:
            raise DataError(f"row {i}: expected {width} fields, got {len(rec)}")
        for j, cell in enumerate(rec):
            if cell == "":
                raise DataError(f"row {i}: missing value in column {header[j]!r}")

    feature_pos = [j for j in range(width) if j != label_pos]
    columns = []
    for j in feature_pos:
        values = [rec[j] for rec in records]
        try:
            columns.append(np.array([float(v) for v in values]))
        except ValueError:
            codes = {v: k for k, v in enumerate(sorted(set(values)))}
            columns.append(np.array([float(codes[v]) for v in values]))
    X = np.column_stack(columns) if columns else np.zeros((len(records), 0))

    raw = [rec[label_pos] for rec in records]
    try:
        raw = [float(v) for v in raw]
    except ValueError:  # non-numeric labels remap in string order
        pass
    labels, num_classes = _remap_labels(raw)
    return Dataset(X, labels, num_classes)


def standardize(ds: Dataset, plan: SplitPlan) -> Dataset:
    """Per-feature (x - mean) / std using train-row statistics only; the
    std is floored at 1e-12 so constant features map to zeros.

    A column whose train mean or std overflows is first scaled by 2^-e, e
    the binary exponent of its largest train magnitude.  Scaling by a power
    of two is exact, so the column standardises as its in-range twin does.
    A row far from the train rows, whose standardised value overflows, is
    clipped to the largest finite float of its sign."""
    X = ds.features
    train = X[plan.train_idx]
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sd = train.mean(axis=0), train.std(axis=0)
    wide = ~(np.isfinite(mu) & np.isfinite(sd))
    if wide.any():
        X = X.copy()
        X[:, wide] = np.ldexp(X[:, wide], -np.frexp(abs(train[:, wide]).max(axis=0))[1])
        train = X[plan.train_idx]
        mu, sd = train.mean(axis=0), train.std(axis=0)
    with np.errstate(over="ignore"):
        Z = (X - mu) / np.maximum(sd, 1e-12)
    big = np.finfo(float).max
    return Dataset(np.clip(Z, -big, big), ds.labels, ds.num_classes)


def split_indices(m: int, seed: int, strong_voters: bool) -> SplitPlan:
    """Seeded 80/20 shuffle split; strong mode halves the train set into
    voter and bound halves, weak mode certifies on the whole train set."""
    if m < 10:
        raise DataError("need at least 10 examples to split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    n_test = int(round(0.2 * m))
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    if strong_voters:
        train_perm = rng.permutation(train)
        n_voter = train.size // 2
        voter = np.sort(train_perm[:n_voter])
        bound = np.sort(train_perm[n_voter:])
    else:
        voter = train
        bound = train
    for arr in (train, test, voter, bound):
        arr.setflags(write=False)
    return SplitPlan(train, test, voter, bound, seed)


def make_split(ds: Dataset, seed: int, strong_voters: bool = False) -> SplitPlan:
    return split_indices(ds.num_examples, seed, strong_voters)
