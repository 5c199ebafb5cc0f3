"""Monte Carlo verification of the probabilistic claims behind the bounds.

Oracles recompute every loss directly from the raw prediction table, so they
share nothing with the production bound formulas apart from the numeric
kernel.  Sampling uses a counter-based generator (Philox) keyed by
(seed, stream), which makes every battery reproducible; use a distinct
stream per oracle invocation.

The 3-standard-error rule is one-sided for inequality claims and two-sided
for equality claims; each McReport records which direction applied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numkern as nk, votes
from .votes import PredictionMatrix

__all__ = [
    "McReport",
    "sample_dirichlet",
    "ks_statistic",
    "verify_aggregation",
    "verify_marchal_arbel",
    "verify_derandomisation",
    "verify_beta_sharpness",
    "derandomisation_battery",
    "marchal_arbel_battery",
    "sharpness_battery",
    "aggregation_battery",
]

# 1% critical coefficient for the one-sample Kolmogorov-Smirnov statistic.
_KS_CRIT_1PCT = 1.628


@dataclass(frozen=True)
class McReport:
    """A Monte Carlo estimate against a claimed bound.

    direction: "mc_upper" checks claim_bound <= estimate + 3 se,
    "mc_lower" checks estimate - 3 se <= claim_bound,
    "two_sided" checks |estimate - claim_bound| <= 3 se,
    "statistic" checks estimate <= claim_bound outright.
    """

    label: str
    estimate: float
    stderr: float
    n_samples: int
    claim_bound: float
    direction: str
    verdict: bool

    @staticmethod
    def build(label, estimate, stderr, n_samples, claim_bound, direction) -> "McReport":
        if not 0.0 <= stderr < math.inf:  # NaN fails too
            raise ValueError("stderr must be non-negative and finite")
        if direction == "mc_upper":
            verdict = claim_bound <= estimate + 3.0 * stderr
        elif direction == "mc_lower":
            verdict = estimate - 3.0 * stderr <= claim_bound
        elif direction == "two_sided":
            verdict = abs(estimate - claim_bound) <= 3.0 * stderr
        elif direction == "statistic":
            verdict = estimate <= claim_bound
        else:
            raise ValueError(f"unknown direction {direction!r}")
        return McReport(label, float(estimate), float(stderr), int(n_samples),
                        float(claim_bound), direction, bool(verdict))


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_dirichlet(alpha, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """n i.i.d. Dirichlet(alpha) rows via normalised Gamma variates."""
    a = np.asarray(alpha, dtype=float)
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("alpha must be positive and finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _rng(seed, stream).standard_gamma(a, size=(int(n), a.size))
    g /= g.sum(axis=1, keepdims=True)
    return g


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a CDF callable."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    F = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(np.maximum(np.abs(grid - F), np.abs(grid - 1.0 / n - F)).max())


def verify_aggregation(alpha, partition, n: int, seed: int, stream: int = 0) -> McReport:
    """Check that block sums of Dirichlet coordinates follow the Dirichlet
    with block-summed parameters, via the worst per-block KS statistic
    against the Beta CDF (1% critical value)."""
    a = np.asarray(alpha, dtype=float)
    blocks = [np.asarray(b, dtype=int) for b in partition]
    seen = np.concatenate(blocks)
    if sorted(seen.tolist()) != list(range(a.size)):
        raise ValueError("partition must cover every coordinate exactly once")
    samples = sample_dirichlet(a, n, seed, stream)
    a0 = float(a.sum())
    worst = 0.0
    for block in blocks:
        a_block = float(a[block].sum())
        rest = a0 - a_block
        if rest <= 0.0:
            continue  # whole-vector block: sums are identically one
        sums = samples[:, block].sum(axis=1)
        stat = ks_statistic(sums, lambda z: nk.reg_inc_beta(np.clip(z, 0, 1), a_block, rest))
        worst = max(worst, stat)
    return McReport.build(
        "dirichlet_aggregation", worst, 0.0, n, _KS_CRIT_1PCT / math.sqrt(n), "statistic"
    )


def verify_marchal_arbel(alpha, u, t: float, n: int, seed: int, stream: int = 0) -> McReport:
    """Sub-Gaussian tail check: the empirical Pr{u . (X - EX) > t} plus three
    standard errors must stay below exp(-2 (sum alpha + 1) t^2)."""
    a = np.asarray(alpha, dtype=float)
    u_vec = np.asarray(u, dtype=float)
    if abs(float(u_vec @ u_vec) - 1.0) > 1e-12:
        raise ValueError("u must be a unit vector")
    if t <= 0.0:
        raise ValueError("t must be positive")
    samples = sample_dirichlet(a, n, seed, stream)
    mean = a / a.sum()
    proj = (samples - mean) @ u_vec
    hits = proj > t
    p_hat = float(hits.mean())
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)
    claim = math.exp(-2.0 * (float(a.sum()) + 1.0) * t * t)
    return McReport.build("marchal_arbel_tail", p_hat, stderr, n, claim, "mc_lower")


# Samples per matmul in _per_sample_margin_losses, chosen by measurement
# (2 vCPUs, one BLAS thread): at n = 1e6, d = 20, m = 24, c = 2 a pass takes
# 0.45 s at 256 and at 1024 samples, 0.55 s at 4096 and 1.07 s at 2**14.
# Eight bench-size verify calls peak at 41.6 MB with 1024 and 44.6 MB with
# 2**14 (41.5 MB row by row).
_LOSS_CHUNK = 1024


def _class_masks(preds: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot class masks as a (d, m * c) matrix: column i * c + k is 1.0
    where a voter predicts class k + 1 on row i.  Weights times this matrix
    give every row's per-class vote mass in one product."""
    m, d = preds.shape
    onehot = preds[:, :, None] == np.arange(1, num_classes + 1)
    return onehot.transpose(1, 0, 2).reshape(d, m * num_classes).astype(float)


def _margins_from_mass(mass: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Clipped margins from per-class vote mass of shape (..., m, c): true-class
    mass minus the runner-up's, halved.  Overwrites the true-class entries
    of ``mass`` with -inf."""
    rows, cols = np.arange(labels.size), labels - 1
    margins = mass[..., rows, cols]
    mass[..., rows, cols] = -np.inf
    runner_up = np.maximum(mass[..., 0], mass[..., 1])
    for k in range(2, mass.shape[-1]):
        np.maximum(runner_up, mass[..., k], out=runner_up)
    margins -= runner_up
    margins *= 0.5
    return np.clip(margins, -0.5, 0.5, out=margins)


def _margins_direct(preds: np.ndarray, labels: np.ndarray, num_classes: int,
                    weights: np.ndarray) -> np.ndarray:
    """Row margins recomputed from scratch (oracle-side implementation).

    The class sums are taken in voter order (a reduction over the masks'
    first axis, not a BLAS product), so classes that hold equal weights
    tie exactly and count towards L_0."""
    masked = weights[:, None] * _class_masks(preds, num_classes)
    mass = masked.sum(axis=0).reshape(-1, num_classes)
    return _margins_from_mass(mass, labels)


def _margin_loss_direct(preds, labels, num_classes, weights, gamma: float) -> float:
    return float(np.mean(_margins_direct(preds, labels, num_classes, weights) <= gamma))


def _per_sample_margin_losses(preds, labels, num_classes, samples, gamma: float) -> np.ndarray:
    """L_gamma(xi) for every sampled weight vector xi (a row of ``samples``),
    by one matmul per ``_LOSS_CHUNK`` samples against every row's class
    masks."""
    n = samples.shape[0]
    m = preds.shape[0]
    masks = _class_masks(preds, num_classes)
    counts = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _LOSS_CHUNK):
        mass = (samples[lo:lo + _LOSS_CHUNK] @ masks).reshape(-1, m, num_classes)
        margins = _margins_from_mass(mass, labels)
        counts[lo:lo + _LOSS_CHUNK] = np.count_nonzero(margins <= gamma, axis=1)
    return counts / m


def _mc_margin_loss(P: PredictionMatrix, alpha, gamma: float, n: int, seed: int,
                    stream: int) -> tuple[float, float]:
    """The mean of L_gamma(xi) over n samples xi ~ Dirichlet(alpha), and its
    standard error, from the sample standard deviation (ddof=1), which is
    undefined below 2 samples."""
    if n < 2:
        raise ValueError("n must be at least 2 samples")
    samples = sample_dirichlet(alpha, n, seed, stream)
    per_sample = _per_sample_margin_losses(P.preds, P.labels, P.num_classes, samples, gamma)
    return float(per_sample.mean()), float(per_sample.std(ddof=1)) / math.sqrt(n)


def verify_derandomisation(P: PredictionMatrix, theta, K: float, gamma: float,
                           n: int, seed: int, stream: int = 0):
    """Monte Carlo check of the two-sided margin de-randomisation claim.

    Estimates E L_gamma(xi) for xi ~ Dirichlet(K theta) and checks, with the
    one-sided 3-stderr rule and penalty eps = exp(-4 (K+1) gamma^2):
    L_0(theta) <= estimate + eps  and  estimate <= L_{2 gamma}(theta) + eps.
    The standard error needs n >= 2 samples.
    """
    th = np.asarray(theta, dtype=float)
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    est, stderr = _mc_margin_loss(P, K * th, gamma, n, seed, stream)
    preds, labels, c = P.preds, P.labels, P.num_classes
    eps = math.exp(-4.0 * (K + 1.0) * gamma * gamma)
    l0 = _margin_loss_direct(preds, labels, c, th, 0.0)
    l2g = _margin_loss_direct(preds, labels, c, th, 2.0 * gamma)
    lower = McReport.build(
        "derandomisation_lower", est, stderr, n, l0 - eps, "mc_upper"
    )
    upper = McReport.build(
        "derandomisation_upper", est, stderr, n, l2g + eps, "mc_lower"
    )
    return lower, upper


def verify_beta_sharpness(P: PredictionMatrix, alpha, gamma: float,
                          n: int, seed: int, stream: int = 0) -> McReport:
    """Compare the Beta-CDF closed form of the expected margin loss with a
    direct Monte Carlo estimate: two-sided equality for binary labels,
    one-sided (closed form is an upper bound) otherwise.  The standard error
    needs n >= 2 samples."""
    a = np.asarray(alpha, dtype=float)
    est, stderr = _mc_margin_loss(P, a, gamma, n, seed, stream)
    closed = votes.expected_margin_loss_beta(P, a, gamma)
    direction = "two_sided" if P.num_classes == 2 else "mc_lower"
    return McReport.build("beta_sharpness", est, stderr, n, closed, direction)


def _random_matrix(rng: np.random.Generator, m: int, d: int, c: int,
                   accuracy: float = 0.65) -> PredictionMatrix:
    labels = rng.integers(1, c + 1, size=m)
    preds = rng.integers(1, c + 1, size=(m, d))
    agree = rng.random((m, d)) < accuracy
    preds[agree] = np.broadcast_to(labels[:, None], (m, d))[agree]
    return PredictionMatrix(preds, labels, c)


# Configurations per battery, and rows per random prediction matrix.
_DERANDOMISATION_CONFIGS = 30
_MARCHAL_ARBEL_CONFIGS = 50
_SHARPNESS_CONFIGS = 10
_DERANDOMISATION_ROWS = 32
_SHARPNESS_ROWS = 24


def derandomisation_battery(seed: int = 0, n: int = 100_000) -> list:
    """``_DERANDOMISATION_CONFIGS`` randomised de-randomisation configs of
    ``_DERANDOMISATION_ROWS`` rows over d in {5,20,100}, c in {2,3}, K in
    {5,50,500}, gamma in {0.02,0.05,0.1}; two reports per config."""
    rng = np.random.default_rng(seed)
    reports = []
    for k in range(_DERANDOMISATION_CONFIGS):
        d = int(rng.choice([5, 20, 100]))
        c = int(rng.choice([2, 3]))
        K = float(rng.choice([5.0, 50.0, 500.0]))
        gamma = float(rng.choice([0.02, 0.05, 0.1]))
        P = _random_matrix(rng, _DERANDOMISATION_ROWS, d, c)
        theta = rng.dirichlet(np.ones(d))
        lower, upper = verify_derandomisation(P, theta, K, gamma, n, seed, stream=k)
        tag = f"[d={d},c={c},K={K:g},g={gamma:g}]"
        reports.extend(replace(r, label=r.label + tag) for r in (lower, upper))
    return reports


def marchal_arbel_battery(seed: int = 0, n: int = 100_000) -> list:
    """``_MARCHAL_ARBEL_CONFIGS`` randomised (alpha, u, t) sub-Gaussian tail
    configs."""
    rng = np.random.default_rng(seed)
    reports = []
    for k in range(_MARCHAL_ARBEL_CONFIGS):
        d = int(rng.integers(2, 21))
        alpha = rng.uniform(0.5, 5.0, size=d)
        u = rng.normal(size=d)
        u /= math.sqrt(float(u @ u))
        t = float(rng.uniform(0.05, 0.4))
        rep = verify_marchal_arbel(alpha, u, t, n, seed, stream=1000 + k)
        reports.append(replace(rep, label=rep.label + f"[d={d},t={t:.3f}]"))
    return reports


def sharpness_battery(seed: int = 0, n: int = 1_000_000) -> list:
    """``_SHARPNESS_CONFIGS`` binary equality checks of the Beta-CDF expected
    margin loss on ``_SHARPNESS_ROWS`` rows."""
    rng = np.random.default_rng(seed)
    reports = []
    for k in range(_SHARPNESS_CONFIGS):
        d = int(rng.integers(5, 31))
        P = _random_matrix(rng, _SHARPNESS_ROWS, d, 2)
        alpha = rng.uniform(0.5, 8.0, size=d)
        gamma = float(rng.uniform(0.0, 0.2))
        rep = verify_beta_sharpness(P, alpha, gamma, n, seed, stream=2000 + k)
        reports.append(replace(rep, label=rep.label + f"[d={d},g={gamma:.3f}]"))
    return reports


def aggregation_battery(seed: int = 0, n: int = 100_000) -> list:
    """Aggregation-property KS checks on a few fixed partitions."""
    configs = [
        (np.array([1.0, 1.0]), [[0], [1]]),
        (np.array([1.0, 1.0, 1.0]), [[0], [1, 2]]),
        (np.array([0.5, 2.0, 3.5]), [[0, 1], [2]]),
        (np.array([2.0, 3.0, 5.0, 1.5]), [[0, 2], [1, 3]]),
    ]
    return [
        verify_aggregation(alpha, part, n, seed, stream=3000 + i)
        for i, (alpha, part) in enumerate(configs)
    ]
