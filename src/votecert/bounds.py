"""Risk certificates for weighted majority votes and the (gamma, K) search.

Each certificate has a formula on precomputed empirical terms (the
``*_from_loss`` functions, used by the comparison sweeps and the search;
the margin-free baselines take the PredictionMatrix directly), and
``certify`` searches it on a PredictionMatrix.  The table ``_BOUNDS`` is the
one place a bound is defined: per bound id it holds how a result's value is
rebuilt from its components (a kl factor, or bg's closed form), whether the
delta/n_gamma union correction over the margin grid applies, whether the
bound is searched over margins, and how ``certify`` evaluates it.
``BOUND_IDS``, ``certify`` and ``reconstruct_value`` all read it.  All
certified values are clipped to 1 and carry their additive components so a
result can be reconstructed and audited.

The Dirichlet bounds (dirichlet_margin, stochastic_margin, f2) optimise the
concentration K by one golden-section search on ln K that runs every lane
(grid margin) in lockstep; see ``_search_log_K``.

Bound identifiers:

==================  =============================================================
dirichlet_margin    margin certificate for the deterministic vote, de-randomised
                    through a Dirichlet proxy with concentration K
stochastic_margin   differentiable variant using the Beta-CDF expected margin loss
gz                  kth-margin bound, holding simultaneously over margins
bgplus              fixed-margin bound via categorical replication
bg                  closed-form relaxation of bgplus (strictly looser)
bgplusplus          replication bound minimised over the replication count T
fo / so / bin       first-order, second-order and binomial Gibbs baselines
f2                  Dirichlet factor-two baseline
==================  =============================================================
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import numkern as nk
from . import votes
from .votes import PredictionMatrix, WeightPosterior

__all__ = [
    "BoundSpec",
    "BoundResult",
    "SearchConfig",
    "InapplicableMarginError",
    "BOUND_IDS",
    "dirichlet_margin_from_loss",
    "stochastic_margin_from_loss",
    "gz_from_loss",
    "bgplus_from_loss",
    "bg_original_from_loss",
    "bgplusplus_from_loss",
    "fo_bound",
    "so_bound",
    "bin_bound",
    "f2_from_loss",
    "dirichlet_margin_best_K",
    "certify",
    "reconstruct_value",
]

_THETA_FLOOR = 1e-12


class InapplicableMarginError(ValueError):
    """The requested margin is outside a bound's validity region."""


@dataclass(frozen=True)
class BoundSpec:
    """Sample size, confidence and prior shared by every certificate."""

    m: int
    delta: float
    prior_beta: np.ndarray | None = None

    def __post_init__(self):
        if int(self.m) < 1:
            raise ValueError("m must be >= 1")
        object.__setattr__(self, "m", int(self.m))
        if not 0.0 < float(self.delta) < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        object.__setattr__(self, "delta", float(self.delta))
        if self.prior_beta is not None:
            beta = np.asarray(self.prior_beta, dtype=float)
            if np.any(beta <= 0.0) or not np.all(np.isfinite(beta)):
                raise ValueError("prior_beta must be positive and finite")
            beta.setflags(write=False)
            object.__setattr__(self, "prior_beta", beta)

    def prior(self, num_voters: int) -> np.ndarray:
        if self.prior_beta is None:
            return np.ones(num_voters)
        if self.prior_beta.size != num_voters:
            raise ValueError("prior_beta length must equal the number of voters")
        return self.prior_beta

    def log_confidence(self) -> float:
        """ln(2 sqrt(m) / delta), the standard confidence term."""
        return math.log(2.0 * math.sqrt(self.m) / self.delta)


@dataclass(frozen=True)
class BoundResult:
    """Certified risk in [0, 1] plus the winning knobs and audit components."""

    value: float
    gamma_star: float | None
    K_star: float | None
    T_star: int | None
    empirical_term: float
    complexity_term: float
    derandomisation_term: float
    flags: tuple = ()

    def with_flags(self, extra) -> "BoundResult":
        merged = tuple(sorted(set(self.flags) | set(extra)))
        return replace(self, flags=merged)


def _floor_theta(theta) -> tuple[np.ndarray, tuple]:
    """Clamp zero weights before forming Dirichlet parameters.

    Trained posteriors can hit the simplex boundary numerically, where the
    Dirichlet KL diverges; flooring keeps the certificate finite and is
    flagged for audit.
    """
    th = np.asarray(theta, dtype=float)
    if float(th.min()) < _THETA_FLOOR:
        th = np.maximum(th, _THETA_FLOOR)
        th = th / th.sum()
        return th, ("theta_floored",)
    return th, ()


def _vacuous(gamma, K, empirical, flags) -> BoundResult:
    return BoundResult(
        value=1.0,
        gamma_star=gamma,
        K_star=K,
        T_star=None,
        empirical_term=empirical,
        complexity_term=math.inf,
        derandomisation_term=0.0,
        flags=tuple(sorted(set(flags) | {"infinite_complexity", "vacuous"})),
    )


def dirichlet_margin_from_loss(
    l_gamma: float, theta, K: float, gamma: float, spec: BoundSpec
) -> BoundResult:
    """Deterministic-vote margin certificate at a fixed margin gamma.

    value = min(1, kl_inv(min(1, L_gamma + eps), (D(K theta, beta) + ln(2 sqrt(m)/delta))/m) + eps)
    with the de-randomisation penalty eps = exp(-(K + 1) gamma^2).
    """
    if gamma <= 0.0 or K <= 0.0:
        raise ValueError("gamma and K must be positive")
    th, flags = _floor_theta(theta)
    eps = math.exp(-(K + 1.0) * gamma * gamma)
    u = min(1.0, float(l_gamma) + eps)
    dkl = nk.dirichlet_kl(K * th, spec.prior(th.size))
    if not math.isfinite(dkl):
        return _vacuous(gamma, K, u, flags)
    comp = max(0.0, dkl + spec.log_confidence()) / spec.m
    value = min(1.0, nk.kl_inv(u, comp) + eps)
    return BoundResult(value, gamma, K, None, u, comp, eps, flags)


def stochastic_margin_from_loss(
    expected_loss: float, theta, K: float, gamma: float, spec: BoundSpec
) -> BoundResult:
    """Differentiable variant; empirical term is the Beta-CDF expected loss."""
    if gamma <= 0.0 or K <= 0.0:
        raise ValueError("gamma and K must be positive")
    th, flags = _floor_theta(theta)
    eps = math.exp(-4.0 * (K + 1.0) * gamma * gamma)
    u = min(1.0, float(expected_loss))
    dkl = nk.dirichlet_kl(K * th, spec.prior(th.size))
    if not math.isfinite(dkl):
        return _vacuous(gamma, K, u, flags)
    comp = max(0.0, dkl + spec.log_confidence()) / spec.m
    value = min(1.0, nk.kl_inv(u, comp) + eps)
    return BoundResult(value, gamma, K, None, u, comp, eps, flags)


def gz_from_loss(
    l_gamma: float, num_voters: int, gamma: float, spec: BoundSpec
) -> BoundResult:
    """Margin bound holding simultaneously for all gamma > sqrt(2/d), d >= 3."""
    d = int(num_voters)
    if d < 3:
        raise InapplicableMarginError("needs at least 3 voters")
    if gamma <= math.sqrt(2.0 / d):
        raise InapplicableMarginError("gamma must exceed sqrt(2/d)")
    m = spec.m
    log_d = math.log(d)
    comp = (
        2.0 * math.log(2.0 * d) / (gamma * gamma) * math.log(2.0 * m * m / log_d)
        + math.log(d * m / spec.delta)
    ) / m
    tail = log_d / m
    u = float(l_gamma)
    value = min(1.0, nk.kl_inv(u, comp) + tail)
    return BoundResult(value, gamma, None, None, u, comp, tail)


def _bgplus_T(gamma: float, m: int) -> int:
    return max(1, math.ceil(2.0 * math.log(m) / (gamma * gamma)))


def bgplus_from_loss(
    l_gamma: float, num_voters: int, gamma: float, spec: BoundSpec
) -> BoundResult:
    """Sharpened fixed-margin bound; T = ceil(2 ln(m) / gamma^2) replications.

    The sampling penalty exp(-T gamma^2 / 2) <= 1/m by construction, so both
    additive corrections appear as 1/m.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    m = spec.m
    T = _bgplus_T(gamma, m)
    u = min(1.0, float(l_gamma) + 1.0 / m)
    comp = (T * math.log(num_voters) + spec.log_confidence()) / m
    value = min(1.0, nk.kl_inv(u, comp) + 1.0 / m)
    return BoundResult(value, gamma, None, T, u, comp, 1.0 / m)


def bg_original_from_loss(
    l_gamma: float, num_voters: int, gamma: float, spec: BoundSpec
) -> BoundResult:
    """Original closed-form relaxation; strictly looser than bgplus."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    m = spec.m
    C = 2.0 * math.log(2.0 / spec.delta) + 4.75 * math.log(num_voters) * math.log(
        m
    ) / (gamma * gamma)
    u = float(l_gamma)
    comp = C / m
    tail = (C + math.sqrt(C) + 2.0) / m
    value = min(1.0, u + math.sqrt(comp * u) + tail)
    return BoundResult(value, gamma, None, None, u, comp, tail)


def _minimize_over_int(f, t_max: int, forced=()):
    """Deterministic near-exhaustive minimisation of f over {1..t_max}.

    Evaluates a geometric ladder plus any forced candidates, then refines
    between the neighbours of the best ladder point by integer trisection.
    Exact for the unimodal profiles these bounds produce; small ranges are
    scanned exhaustively.
    """
    cache: dict[int, float] = {}

    def val(t: int) -> float:
        if t not in cache:
            cache[t] = f(t)
        return cache[t]

    if t_max <= 512:
        best_t = min(range(1, t_max + 1), key=val)
        return best_t, cache[best_t]

    ladder = [1]
    t = 2
    while t < t_max:
        ladder.append(t)
        t *= 2
    ladder.append(t_max)
    for t in forced:
        if 1 <= t <= t_max:
            ladder.append(int(t))
    ladder = sorted(set(ladder))
    best_idx = min(range(len(ladder)), key=lambda i: val(ladder[i]))
    lo = ladder[best_idx - 1] if best_idx > 0 else 1
    hi = ladder[best_idx + 1] if best_idx + 1 < len(ladder) else t_max
    while hi - lo > 3:
        m1 = lo + (hi - lo) // 3
        m2 = hi - (hi - lo) // 3
        if val(m1) <= val(m2):
            hi = m2
        else:
            lo = m1
    for t in range(lo, hi + 1):
        val(t)
    best_t = min(cache, key=lambda t: (cache[t], t))
    return best_t, cache[best_t]


def bgplusplus_from_loss(
    l_gamma: float,
    theta,
    gamma: float,
    spec: BoundSpec,
    T_max: int | None = None,
) -> BoundResult:
    """Variant minimised over the replication count T in {1..T_max}.

    T_max defaults to 4x the bgplus heuristic so that choice is always in
    the search range.  The complexity charges T * (ln d - H(theta)), which
    vanishes for uniform weights.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    th = np.asarray(theta, dtype=float)
    m = spec.m
    t_plus = _bgplus_T(gamma, m)
    if T_max is None:
        T_max = 4 * t_plus
    T_max = max(1, int(T_max))
    kl_unif = nk.categorical_kl_uniform(th)
    log_term = math.log(m / spec.delta)
    u0 = float(l_gamma)

    def candidate(T: int) -> tuple[float, float, float, float]:
        eps = math.exp(-0.5 * T * gamma * gamma)
        u = min(1.0, u0 + eps)
        comp = (T * kl_unif + log_term) / m
        return min(1.0, nk.kl_inv(u, comp) + eps), u, comp, eps

    T_star, _ = _minimize_over_int(
        lambda t: candidate(t)[0], T_max, forced=(t_plus,)
    )
    value, u, comp, eps = candidate(T_star)
    return BoundResult(value, gamma, None, T_star, u, comp, eps)


def fo_bound(P: PredictionMatrix, theta, spec: BoundSpec) -> BoundResult:
    """First-order Gibbs baseline: 2 * kl_inv(gibbs loss, complexity)."""
    th = np.asarray(theta, dtype=float)
    u = votes.gibbs_loss(P, th)
    comp = (nk.categorical_kl_uniform(th) + spec.log_confidence()) / spec.m
    value = min(1.0, 2.0 * nk.kl_inv(u, comp))
    return BoundResult(value, None, None, None, u, comp, 0.0)


def so_bound(P: PredictionMatrix, theta, spec: BoundSpec) -> BoundResult:
    """Second-order (tandem loss) baseline: 4 * kl_inv(tandem, complexity)."""
    th = np.asarray(theta, dtype=float)
    u = votes.tandem_loss(P, th)
    comp = (2.0 * nk.categorical_kl_uniform(th) + spec.log_confidence()) / spec.m
    value = min(1.0, 4.0 * nk.kl_inv(u, comp))
    return BoundResult(value, None, None, None, u, comp, 0.0)


def bin_bound(
    P: PredictionMatrix, theta, spec: BoundSpec, N: int = 100
) -> BoundResult:
    """Binomial baseline over N categorical draws; k0 = ceil(N/2)."""
    th = np.asarray(theta, dtype=float)
    u = votes.binomial_loss(P, th, N)
    comp = (N * nk.categorical_kl_uniform(th) + spec.log_confidence()) / spec.m
    value = min(1.0, 2.0 * nk.kl_inv(u, comp))
    return BoundResult(value, None, None, None, u, comp, 0.0)


def f2_from_loss(expected_loss: float, theta, K: float, spec: BoundSpec) -> BoundResult:
    """Dirichlet factor-two baseline at a given concentration K."""
    if K <= 0.0:
        raise ValueError("K must be positive")
    th, flags = _floor_theta(theta)
    u = min(1.0, float(expected_loss))
    dkl = nk.dirichlet_kl(K * th, spec.prior(th.size))
    if not math.isfinite(dkl):
        return _vacuous(None, K, u, flags)
    comp = max(0.0, dkl + spec.log_confidence()) / spec.m
    value = min(1.0, 2.0 * nk.kl_inv(u, comp))
    return BoundResult(value, None, K, None, u, comp, 0.0, flags)


@dataclass(frozen=True)
class SearchConfig:
    """Grid and line-search knobs for certify()."""

    n_gamma: int = 1000
    gamma_min: float = 1e-4
    gamma_max: float = 0.5
    k_span: float = 2.0**16
    k_rel_tol: float = 1e-3
    k_max_iter: int = 200
    bin_voters: int = 100

    def __post_init__(self):
        if self.n_gamma < 1:
            raise ValueError("n_gamma must be >= 1")
        if not 0.0 < self.gamma_min <= self.gamma_max <= 0.5:
            raise ValueError("need 0 < gamma_min <= gamma_max <= 1/2")
        if self.k_span < 1.0:
            raise ValueError("k_span must be >= 1")

    def gamma_grid(self) -> np.ndarray:
        """Log-spaced (base 10) margins over [gamma_min, gamma_max)."""
        return np.logspace(
            math.log10(self.gamma_min),
            math.log10(self.gamma_max),
            self.n_gamma,
            endpoint=False,
        )


# -- the K search -------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Rows x margins per reg_inc_beta call in the Beta-CDF searches; caps the
# kernel's working arrays at about 0.5 MB each.
_BETA_LANES = 1 << 16


def _search_log_K(values_at, n: int, K_init: float, cfg: SearchConfig):
    """Golden-section minimum over ln K in [ln K_init, ln(K_init * k_span)]
    for n independent lanes, all run in lockstep.

    ``values_at`` maps an (n,) array of ln K points, one per lane, to the
    (n,) lane values, so each golden step costs one call.  A lane stops
    once its bracket is no wider than ``cfg.k_rel_tol`` (or after
    ``cfg.k_max_iter`` steps).  Returns the best ln K and value per lane
    over every evaluation, the bracket ends included; ties keep the
    earliest evaluation.
    """
    lo = math.log(K_init)
    hi = math.log(K_init * cfg.k_span)
    best_x = np.full(n, lo)
    best_val = values_at(best_x)

    def consider(x, fx, live):
        nonlocal best_x, best_val
        better = live & (fx < best_val)
        best_val = np.where(better, fx, best_val)
        best_x = np.where(better, x, best_x)

    if cfg.k_span > 1.0:
        live = np.ones(n, dtype=bool)
        a = np.full(n, lo)
        b = np.full(n, hi)
        consider(b, values_at(b), live)
        x1 = b - _INV_PHI * (b - a)
        x2 = a + _INV_PHI * (b - a)
        f1 = values_at(x1)
        f2 = values_at(x2)
        consider(x1, f1, live)
        consider(x2, f2, live)
        for _ in range(cfg.k_max_iter):
            live = (b - a) > cfg.k_rel_tol
            if not live.any():
                break
            take_low = f1 <= f2
            a = np.where(take_low, a, x1)
            b = np.where(take_low, x2, b)
            x_keep = np.where(take_low, x1, x2)
            f_keep = np.where(take_low, f1, f2)
            x_new = np.where(take_low, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
            f_new = values_at(x_new)
            consider(x_new, f_new, live)
            x1 = np.where(take_low, x_new, x_keep)
            f1 = np.where(take_low, f_new, f_keep)
            x2 = np.where(take_low, x_keep, x_new)
            f2 = np.where(take_low, f_keep, f_new)
    return best_x, best_val


def _best_lane(values: np.ndarray, gammas: np.ndarray) -> int:
    """Lane of the smallest value; ties keep the smallest margin."""
    return int(np.lexsort((gammas, values))[0])


def _dirichlet_complexity(theta: np.ndarray, spec: BoundSpec):
    """Lanewise (D(K theta, prior) + ln(2 sqrt(m)/delta)) / m, clipped at 0."""
    prior = spec.prior(theta.size)
    log_B_prior = nk.log_multivariate_beta(prior)

    def complexity(K: np.ndarray) -> np.ndarray:
        A = K[:, None] * theta[None, :]
        lnB_A = nk.log_gamma(A).sum(axis=1) - nk.log_gamma(K)
        centered = nk.digamma(A) - nk.digamma(K)[:, None]
        dkl = log_B_prior - lnB_A + ((A - prior[None, :]) * centered).sum(axis=1)
        return np.maximum(0.0, dkl + spec.log_confidence()) / spec.m

    return complexity


def _margin_losses(P: PredictionMatrix, theta: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Empirical margin loss L_gamma at every grid margin."""
    sorted_margins = np.sort(votes.margins(P, theta))
    return np.searchsorted(sorted_margins, gammas, side="right") / P.num_examples


def _margin_search(losses, gammas, theta, K_init, spec, cfg):
    """Best ln K and search value per lane of the dirichlet_margin bound."""
    complexity = _dirichlet_complexity(theta, spec)

    def values_at(x: np.ndarray) -> np.ndarray:
        K = np.exp(x)
        eps = np.exp(-(K + 1.0) * gammas * gammas)
        u = np.minimum(1.0, losses + eps)
        return np.minimum(1.0, nk.kl_inv_vec(u, complexity(K)) + eps)

    return _search_log_K(values_at, gammas.size, K_init, cfg)


def dirichlet_margin_best_K(
    losses,
    theta,
    gammas,
    spec: BoundSpec,
    K_init: float = 1.0,
    search_cfg: SearchConfig | None = None,
) -> list[BoundResult]:
    """Deterministic-margin bound per lane of (margin loss, gamma), with K
    golden-sectioned over [K_init, K_init * k_span] for every lane at once.
    ``losses`` and ``gammas`` broadcast together; one result per lane, each
    equal to what a one-lane call returns.  Formula-level: takes the margin
    loss values."""
    cfg = search_cfg or SearchConfig()
    th, flags = _floor_theta(theta)
    losses, gammas = (
        np.ravel(arr).astype(float) for arr in np.broadcast_arrays(losses, gammas)
    )
    x, _ = _margin_search(losses, gammas, th, K_init, spec, cfg)
    return [
        _finalize(dirichlet_margin_from_loss(float(l), th, math.exp(xi), float(g), spec), flags)
        for l, g, xi in zip(losses, gammas, x)
    ]


def _beta_losses(K: np.ndarray, gammas: np.ndarray, a_c: np.ndarray, a_w: np.ndarray):
    """Per lane, the mean over rows of I_{1/2+gamma}(K a_c, K a_w)."""
    out = np.empty(K.size)
    step = max(1, _BETA_LANES // a_c.size)
    for s in range(0, K.size, step):
        k = K[s:s + step, None]
        terms = votes.beta_margin_loss_terms(k * a_c, k * a_w, gammas[s:s + step, None])
        out[s:s + step] = terms.mean(axis=1)
    return out


# -- certify: one evaluator per table entry -------------------------------------


def _certify_dirichlet_margin(P, wp, spec, cfg, gammas):
    th, flags = _floor_theta(wp.theta)
    losses = _margin_losses(P, th, gammas)
    x, values = _margin_search(losses, gammas, th, wp.K, spec, cfg)
    i = _best_lane(values, gammas)
    best = dirichlet_margin_from_loss(
        float(losses[i]), th, math.exp(x[i]), float(gammas[i]), spec
    )
    return _finalize(best, flags)


def _certify_stochastic_margin(P, wp, spec, cfg, gammas):
    th, flags = _floor_theta(wp.theta)
    a_c, a_w = P.correct_mass(th), P.wrong_mass(th)
    complexity = _dirichlet_complexity(th, spec)

    def values_at(x: np.ndarray) -> np.ndarray:
        K = np.exp(x)
        u = np.minimum(1.0, _beta_losses(K, gammas, a_c, a_w))
        eps = np.exp(-4.0 * (K + 1.0) * gammas * gammas)
        return np.minimum(1.0, nk.kl_inv_vec(u, complexity(K)) + eps)

    x, values = _search_log_K(values_at, gammas.size, wp.K, cfg)
    i = _best_lane(values, gammas)
    K, g = math.exp(x[i]), float(gammas[i])
    loss = float(votes.beta_margin_loss_terms(K * a_c, K * a_w, g).mean())
    return _finalize(stochastic_margin_from_loss(loss, th, K, g, spec), flags)


def _certify_f2(P, wp, spec, cfg, gammas):
    th, flags = _floor_theta(wp.theta)
    a_c, a_w = P.correct_mass(th), P.wrong_mass(th)

    def at(K: float) -> BoundResult:
        # gamma = 0: the expected 0-1 loss of the Dirichlet vote.
        loss = float(votes.beta_margin_loss_terms(K * a_c, K * a_w, 0.0).mean())
        return f2_from_loss(loss, th, K, spec)

    # A single lane, whose value function is the scalar formula itself: at
    # one lane the scalar kl inversion is cheaper than the vectorised one.
    x, _ = _search_log_K(lambda x: np.array([at(math.exp(x[0])).value]), 1, wp.K, cfg)
    return _finalize(at(math.exp(x[0])), flags)


def _per_margin(formula):
    """Evaluator that applies ``formula(loss, gamma, theta, spec)`` at every
    grid margin and keeps the smallest value (the smallest gamma on ties);
    margins where the formula does not apply are skipped."""

    def evaluate(P, wp, spec, cfg, gammas):
        th, flags = _floor_theta(wp.theta)
        best = None
        for loss, g in zip(_margin_losses(P, th, gammas), gammas):
            try:
                result = formula(float(loss), float(g), th, spec)
            except InapplicableMarginError:
                continue
            if best is None or result.value < best.value:
                best = result
        if best is None:
            best = _vacuous(None, None, 1.0, ("inapplicable_margin",))
        return _finalize(best, flags)

    return evaluate


# -- the bound table ------------------------------------------------------------


@dataclass(frozen=True)
class _Bound:
    """How a bound's value is rebuilt from its components and how it is
    searched.  ``evaluate(P, wp, spec, cfg, gammas)`` returns the result;
    ``gammas`` is the margin grid, or None for bounds without a margin."""

    rebuild: Callable[[BoundResult], float]  # unclipped value
    union: bool  # fixed-margin statement: searched at delta / n_gamma
    margin: bool  # searched over the margin grid
    evaluate: Callable[..., BoundResult]


def _kl(factor: float) -> Callable[[BoundResult], float]:
    """factor * kl_inv(empirical, complexity) + derandomisation."""
    return lambda r: (
        factor * nk.kl_inv(r.empirical_term, r.complexity_term) + r.derandomisation_term
    )


def _bg_closed_form(r: BoundResult) -> float:
    return (
        r.empirical_term
        + math.sqrt(r.complexity_term * r.empirical_term)
        + r.derandomisation_term
    )


_BOUNDS = {
    "dirichlet_margin": _Bound(_kl(1.0), True, True, _certify_dirichlet_margin),
    "stochastic_margin": _Bound(_kl(1.0), True, True, _certify_stochastic_margin),
    "gz": _Bound(_kl(1.0), False, True, _per_margin(
        lambda loss, g, th, spec: gz_from_loss(loss, th.size, g, spec))),
    "bgplus": _Bound(_kl(1.0), True, True, _per_margin(
        lambda loss, g, th, spec: bgplus_from_loss(loss, th.size, g, spec))),
    "bg": _Bound(_bg_closed_form, True, True, _per_margin(
        lambda loss, g, th, spec: bg_original_from_loss(loss, th.size, g, spec))),
    "bgplusplus": _Bound(_kl(1.0), True, True, _per_margin(
        lambda loss, g, th, spec: bgplusplus_from_loss(loss, th, g, spec))),
    "fo": _Bound(_kl(2.0), False, False,
                 lambda P, wp, spec, cfg, gammas: fo_bound(P, wp.theta, spec)),
    "so": _Bound(_kl(4.0), False, False,
                 lambda P, wp, spec, cfg, gammas: so_bound(P, wp.theta, spec)),
    "bin": _Bound(_kl(2.0), False, False,
                  lambda P, wp, spec, cfg, gammas: bin_bound(P, wp.theta, spec, cfg.bin_voters)),
    "f2": _Bound(_kl(2.0), False, False, _certify_f2),
}

BOUND_IDS = tuple(_BOUNDS)


def _lookup(bound_id: str) -> _Bound:
    try:
        return _BOUNDS[bound_id]
    except KeyError:
        raise ValueError(f"unknown bound id: {bound_id!r}") from None


def reconstruct_value(bound_id: str, r: BoundResult) -> float:
    """Recompute a certified value from its stored components."""
    return min(1.0, _lookup(bound_id).rebuild(r))


def certify(
    P: PredictionMatrix,
    wp_init: WeightPosterior,
    spec: BoundSpec,
    bound_id: str,
    search_cfg: SearchConfig | None = None,
) -> BoundResult:
    """Search the margin grid (and K where applicable) for the tightest bound.

    Fixed-margin bounds get the delta/N union correction over the grid; the
    gz bound holds simultaneously over margins and keeps the full delta, as
    do the margin-free baselines.  K is optimised per grid point by
    golden-section on ln K over [K_init, K_init * k_span].  Deterministic
    given (inputs, search_cfg); ties in the grid keep the smallest gamma.
    Every result of value 1 carries the ``vacuous`` flag.
    """
    bound = _lookup(bound_id)
    cfg = search_cfg or SearchConfig()
    if bound.union:
        spec = replace(spec, delta=spec.delta / cfg.n_gamma)
    gammas = cfg.gamma_grid() if bound.margin else None
    return _finalize(bound.evaluate(P, wp_init, spec, cfg, gammas), ())


def _finalize(result: BoundResult, base_flags: tuple) -> BoundResult:
    flags = set(base_flags)
    if result.value >= 1.0:
        flags.add("vacuous")
    return result.with_flags(flags) if flags else result
