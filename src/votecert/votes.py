"""Voter prediction matrices and the empirical losses consumed by the bounds.

A PredictionMatrix is immutable after construction and precomputes the
per-row, per-class voter partitions, so every loss below is a handful of
vectorised reductions.  All margins live in [-1/2, 1/2]; ties in the majority
vote (margin exactly zero) count as errors, consistent with the margin loss
at gamma = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkern as nk

__all__ = [
    "PredictionMatrix",
    "WeightPosterior",
    "margins",
    "empirical_margin_loss",
    "gibbs_loss",
    "tandem_loss",
    "binomial_loss",
    "beta_margin_loss_terms",
    "expected_margin_loss_beta",
    "majority_vote_error",
]


@dataclass(frozen=True)
class WeightPosterior:
    """Simplex weights plus a concentration; alpha = K * theta."""

    theta: np.ndarray
    K: float

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1 or theta.size < 2:
            raise ValueError("theta must be a 1-d vector of length >= 2")
        if not np.all(np.isfinite(theta)) or np.any(theta < 0.0):
            raise ValueError("theta must be non-negative and finite")
        total = float(theta.sum())
        if total <= 0.0:
            raise ValueError("theta must have positive mass")
        theta = theta / total
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        K = float(self.K)
        if not np.isfinite(K) or K <= 0.0:
            raise ValueError("K must be positive and finite")
        object.__setattr__(self, "K", K)

    @staticmethod
    def uniform(num_voters: int, K: float = 1.0) -> "WeightPosterior":
        return WeightPosterior(np.full(num_voters, 1.0 / num_voters), K)


class PredictionMatrix:
    """m x d table of voter class predictions plus the true labels.

    Class indices are 1-based in [1..num_classes].  The constructor caches
    the correctness mask and the one-hot class masks, voter-major as a
    C-contiguous (d, m, c) boolean array, so the weight on each class is a
    sum over the first axis, taken in voter order.
    """

    def __init__(self, preds, labels, num_classes: int):
        preds = np.asarray(preds, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if preds.ndim != 2:
            raise ValueError("preds must be a 2-d table")
        m, d = preds.shape
        if m < 1 or d < 2:
            raise ValueError("need at least one example and two voters")
        if labels.shape != (m,):
            raise ValueError("labels length must equal the number of rows")
        c = int(num_classes)
        if c < 2:
            raise ValueError("num_classes must be >= 2")
        for name, arr in (("preds", preds), ("labels", labels)):
            if arr.min() < 1 or arr.max() > c:
                raise ValueError(f"{name} entries must lie in [1..{c}]")
        preds.setflags(write=False)
        labels.setflags(write=False)
        self._preds = preds
        self._labels = labels
        self._num_classes = c
        correct = preds == labels[:, None]
        correct.setflags(write=False)
        self._correct = correct
        masks = np.ascontiguousarray(preds.T[:, :, None] == np.arange(1, c + 1))
        masks.setflags(write=False)
        self._class_masks = masks

    @property
    def preds(self) -> np.ndarray:
        return self._preds

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def num_classes(self) -> int:
        return self._num_classes

    @property
    def num_examples(self) -> int:
        return self._preds.shape[0]

    @property
    def num_voters(self) -> int:
        return self._preds.shape[1]

    @property
    def correct_mask(self) -> np.ndarray:
        return self._correct

    def subset(self, rows) -> "PredictionMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        return PredictionMatrix(
            self._preds[rows], self._labels[rows], self._num_classes
        )

    def class_weight_table(self, weights) -> np.ndarray:
        """(m, c) table: total weight voting for each class on each row.

        Summed in voter order (over the masks' contiguous first axis, the
        outermost loop of the einsum), so classes that hold equal weights
        tie exactly; a BLAS product or a pairwise sum adds them in a
        different order per class and breaks the tie by rounding."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.num_voters,):
            raise ValueError("weights length must equal the number of voters")
        return np.einsum("j,jik->ik", w, self._class_masks)

    def correct_mass(self, weights) -> np.ndarray:
        """(m,) total weight on voters that predict the true label."""
        w = np.asarray(weights, dtype=float)
        return self._correct @ w

    def wrong_mass(self, weights) -> np.ndarray:
        """(m,) total weight on erring voters (exact zero when none err)."""
        w = np.asarray(weights, dtype=float)
        return (~self._correct) @ w

    def voter_error_rates(self) -> np.ndarray:
        """(d,) empirical 0-1 risk of each voter on its own."""
        return (~self._correct).mean(axis=0)


def margins(P: PredictionMatrix, theta) -> np.ndarray:
    """All m margins: half the gap between true-class weight and the runner-up.

    Clipped into [-1/2, 1/2]: rounding in the weight sums must not push a
    unanimous row past the half-margin boundary.
    """
    table = P.class_weight_table(theta)
    rows = np.arange(P.num_examples)
    true_w = table[rows, P.labels - 1]
    rivals = table.copy()
    rivals[rows, P.labels - 1] = -np.inf
    return np.clip(0.5 * (true_w - rivals.max(axis=1)), -0.5, 0.5)


def empirical_margin_loss(P: PredictionMatrix, theta, gamma):
    """Fraction of rows with margin <= gamma, lanewise in gamma: a float for
    a float gamma, one value per lane for an array.

    At gamma = 0 this is the majority-vote training error with ties counted
    as errors.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not (gamma >= 0.0).all():
        raise ValueError("gamma must be non-negative")
    sorted_margins = np.sort(margins(P, theta))
    out = np.searchsorted(sorted_margins, gamma, side="right") / P.num_examples
    return float(out) if out.ndim == 0 else out


def gibbs_loss(P: PredictionMatrix, theta) -> float:
    """Expected 0-1 risk of a single voter drawn from Categorical(theta)."""
    th = np.asarray(theta, dtype=float)
    return float(P.voter_error_rates() @ th)


def tandem_loss(P: PredictionMatrix, theta) -> float:
    """theta' M theta with M_ij the fraction of rows where voters i and j both err."""
    th = np.asarray(theta, dtype=float)
    errors = (~P.correct_mask).astype(float)
    second_moment = errors.T @ errors / P.num_examples
    return float(th @ second_moment @ th)


def binomial_loss(P: PredictionMatrix, theta, N: int) -> float:
    """Mean probability that >= ceil(N/2) of N voters drawn from theta err."""
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    th = np.asarray(theta, dtype=float)
    p_err = np.clip(P.wrong_mass(th), 0.0, 1.0)
    k0 = (N + 1) // 2
    return float(np.mean(nk.binomial_tail(N, p_err, k0)))


def beta_margin_loss_terms(a_correct, a_wrong, gamma, grad: bool = False, log_beta=None):
    """Per-row Beta-CDF margin-loss terms I_{1/2+gamma}(a_correct, a_wrong);
    with ``grad`` the tuple (terms, d/da_correct, d/da_wrong).

    ``gamma`` is a scalar or an array broadcast to the shape of the masses
    (for example one margin per row of an (n, m) stack of mass lanes); it
    must lie in [-1/2, 1/2] on every lane, degenerate rows included.
    Degenerate rows go to the kernel as boundary lanes with a = b = 1: no
    mass on correct voters as z = 1, whose term is 1, and otherwise no mass
    on erring voters as z = 0, whose term is 0; both partials are +0.0.
    ``log_beta`` (without ``grad``), broadcast to the masses' shape, is
    ln B(a_correct, a_wrong) for ``nk.reg_inc_beta``; its entries on
    degenerate rows are not used.
    """
    a_c = np.asarray(a_correct, dtype=float)
    a_w = np.asarray(a_wrong, dtype=float)
    margin = np.asarray(gamma, dtype=float)
    if not np.all(np.abs(margin) <= 0.5):  # NaN fails the test too
        raise ValueError("gamma must lie in [-1/2, 1/2]")
    none_right = a_c <= 0.0
    regular = ~none_right & ~(a_w <= 0.0)  # a NaN or inf mass reaches the kernel's check
    z = np.where(regular, 0.5 + margin, none_right)
    lanes = z, np.where(regular, a_c, 1.0), np.where(regular, a_w, 1.0)
    if grad:
        return nk.reg_inc_beta_with_grad(*lanes)
    return nk.reg_inc_beta(*lanes, log_beta=log_beta)


def expected_margin_loss_beta(P: PredictionMatrix, alpha, gamma: float) -> float:
    """Mean over rows of I_{1/2+gamma}(correct alpha mass, erring alpha mass).

    Equals the expected gamma-margin loss of a Dirichlet(alpha) stochastic
    vote exactly for binary labels and upper-bounds it otherwise.
    """
    if not 0.0 <= gamma < 0.5:
        raise ValueError("gamma must lie in [0, 1/2)")
    a = np.asarray(alpha, dtype=float)
    if a.shape != (P.num_voters,):
        raise ValueError("alpha length must equal the number of voters")
    if not np.all(np.isfinite(a)) or np.any(a < 0.0):
        raise ValueError("alpha must be non-negative and finite")
    terms = beta_margin_loss_terms(P.correct_mass(a), P.wrong_mass(a), gamma)
    return float(terms.mean())


def _majority_predict(P: PredictionMatrix, theta) -> np.ndarray:
    """Deterministic vote: argmax of class-weight sums, smallest index on ties."""
    return np.argmax(P.class_weight_table(theta), axis=1) + 1


def majority_vote_error(P: PredictionMatrix, theta) -> float:
    """Test-style error of the deterministic vote (argmax tie -> smallest class)."""
    return float(np.mean(_majority_predict(P, theta) != P.labels))
