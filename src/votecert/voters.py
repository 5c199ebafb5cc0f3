"""Base classifier ensembles: a decision-stump grid held as three arrays
(feature, threshold, above class), a small random forest, and
prediction-matrix ingestion for externally trained voters.

Ensembles are immutable after construction (the stump arrays are
read-only); training is deterministic under a fixed seed, so prediction
matrices are reproducible bit-exactly.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .votes import PredictionMatrix

__all__ = [
    "StumpEnsemble",
    "Forest",
    "make_stumps",
    "train_forest",
    "predict_matrix",
    "ingest_predictions",
    "PredictionFileError",
]


class PredictionFileError(ValueError):
    """Malformed prediction CSV; the message names the offending row."""


@dataclass(frozen=True)
class StumpEnsemble:
    """Axis-aligned threshold voters on the binary labels {1, 2}: voter j
    predicts above_class[j] where x[feature[j]] > threshold[j] and the other
    class elsewhere.  The three arrays are held as read-only copies."""

    feature: np.ndarray
    threshold: np.ndarray
    above_class: np.ndarray
    num_classes = 2

    def __post_init__(self):
        for name, dtype in (("feature", np.int64), ("threshold", float), ("above_class", np.int64)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def predict_all(self, features: np.ndarray) -> np.ndarray:
        X = np.asarray(features, dtype=float)
        return np.where(X[:, self.feature] > self.threshold, self.above_class, 3 - self.above_class)


_STUMP_THRESHOLDS = 6


def make_stumps(train_features) -> StumpEnsemble:
    """Stump grid for binary tasks: per feature, ``_STUMP_THRESHOLDS``
    evenly spaced thresholds strictly between the training min and max, and
    one stump per class orientation per threshold.

    Constant features yield degenerate single-class stumps, which is valid.
    """
    X = np.asarray(train_features, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("train_features must be a non-empty 2-d matrix")
    lo, hi = X.min(axis=0)[:, None], X.max(axis=0)[:, None]
    i = np.arange(1, _STUMP_THRESHOLDS + 1)
    with np.errstate(over="ignore"):  # a span past the float range is inf, as in Python
        thresholds = lo + (hi - lo) * i / (_STUMP_THRESHOLDS + 1)
    return StumpEnsemble(np.arange(X.shape[1]).repeat(2 * _STUMP_THRESHOLDS),
                         thresholds.repeat(2), np.tile([1, 2], thresholds.size))


@dataclass(frozen=True)
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    klass: int = 0  # leaf prediction when feature < 0


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return 1.0 - float(np.dot(p, p))


def _majority(y: np.ndarray, num_classes: int) -> int:
    counts = np.bincount(y, minlength=num_classes + 1)[1:]
    return int(np.argmax(counts)) + 1  # argmax ties -> smallest class


_GAIN_EPS = 1e-12
_NUM_TREES = 10
_BAG_FRACTION = 0.5


def _grow(X: np.ndarray, y: np.ndarray, feats: np.ndarray, num_classes: int) -> _Node:
    counts = np.bincount(y, minlength=num_classes + 1)[1:]
    if np.count_nonzero(counts) <= 1:
        return _Node(klass=_majority(y, num_classes))
    n = y.size
    parent = _gini(counts)
    best_gain = _GAIN_EPS
    best = None
    for f in feats:  # ascending feature order pins gain ties
        vals = np.unique(X[:, f])
        if vals.size < 2:
            continue
        for t in 0.5 * (vals[:-1] + vals[1:]):  # ascending threshold order
            left = X[:, f] <= t
            nl = int(left.sum())
            cl = np.bincount(y[left], minlength=num_classes + 1)[1:]
            cr = counts - cl
            gain = parent - (nl * _gini(cl) + (n - nl) * _gini(cr)) / n
            if gain > best_gain:
                best_gain = gain
                best = (int(f), float(t), left)
    if best is None:
        return _Node(klass=_majority(y, num_classes))
    f, t, left = best
    return _Node(
        feature=f,
        threshold=t,
        left=_grow(X[left], y[left], feats, num_classes),
        right=_grow(X[~left], y[~left], feats, num_classes),
    )


def _predict_tree(node: _Node, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.int64)
    idx = np.arange(X.shape[0])

    def descend(nd: _Node, rows: np.ndarray):
        if nd.feature < 0:
            out[rows] = nd.klass
            return
        left = X[rows, nd.feature] <= nd.threshold
        descend(nd.left, rows[left])
        descend(nd.right, rows[~left])

    descend(node, idx)
    return out


@dataclass(frozen=True)
class Forest:
    trees: tuple
    num_classes: int

    def predict_all(self, features: np.ndarray) -> np.ndarray:
        X = np.asarray(features, dtype=float)
        return np.stack([_predict_tree(t, X) for t in self.trees], axis=1)


def train_forest(features, labels, seed: int) -> Forest:
    """``_NUM_TREES`` bagged Gini trees: each draws floor(_BAG_FRACTION * n)
    rows with replacement and floor(sqrt(p)) feature indices without
    replacement, then grows to unbounded depth while some split has positive
    gain.  Split candidates are midpoints of consecutive sorted unique
    values; ties break toward the lowest feature index, then the lowest
    threshold.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("features and labels must have matching rows")
    n, p = X.shape
    bag_size = int(n * _BAG_FRACTION)
    if bag_size < 1:
        raise ValueError("dataset too small to draw a bag")
    num_classes = int(y.max())
    trees = []
    for i in range(_NUM_TREES):
        rng = np.random.default_rng((seed, i))
        bag = rng.integers(0, n, size=bag_size)
        feats = np.sort(rng.choice(p, size=math.isqrt(p), replace=False))
        trees.append(_grow(X[bag], y[bag], feats, num_classes))
    return Forest(tuple(trees), num_classes)


def predict_matrix(ensemble, features, labels) -> PredictionMatrix:
    """Evaluate every voter on every example."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("features must be a non-empty 2-d matrix")
    if y.shape != (X.shape[0],):
        raise ValueError("labels length must match the number of examples")
    preds = ensemble.predict_all(X)
    return PredictionMatrix(preds, y, ensemble.num_classes)


def ingest_predictions(path) -> PredictionMatrix:
    """Load a prediction CSV with header ``label,v1,...,vd``.

    Entries are integer class indices >= 1 of any size; margins and
    majority votes depend only on their order, so the distinct indices of
    labels and votes together become 1..C in sorted order (C >= 2).  A
    ragged or malformed row raises a PredictionFileError naming it (1-based).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PredictionFileError("empty prediction file") from None
        if len(header) < 3 or header[0] != "label":
            raise PredictionFileError("header must be label,v1,...,vd")
        width = len(header)
        rows = []
        for i, rec in enumerate(reader, start=1):
            if not rec:
                continue
            if len(rec) != width:
                raise PredictionFileError(f"row {i}: expected {width} fields, got {len(rec)}")
            try:
                values = [int(tok) for tok in rec]
            except ValueError:
                raise PredictionFileError(f"row {i}: non-integer class index") from None
            if min(values) < 1:
                raise PredictionFileError(f"row {i}: class indices must be >= 1")
            rows.append(values)
    if not rows:
        raise PredictionFileError("prediction file has no data rows")
    classes = {k: c for c, k in enumerate(sorted(set().union(*rows)), start=1)}
    table = np.array([[classes[k] for k in row] for row in rows], dtype=np.int64)
    return PredictionMatrix(table[:, 1:], table[:, 0], max(2, len(classes)))
