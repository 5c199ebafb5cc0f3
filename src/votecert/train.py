"""Gradient training of voting weights on differentiable certificates.

The primary objective is the stochastic-margin certificate: the Beta-CDF
expected margin loss pushed through the inverted small-kl, plus the
de-randomisation penalty.  Dirichlet parameters are kept positive through a
softplus reparameterisation; gradients are assembled by the chain rule
through the incomplete-beta partials, the digamma/trigamma terms of the
Dirichlet KL, and implicit differentiation of the kl inverse.

One Dirichlet objective serves the stochastic-margin certificate and, with
no margin, the factor-two (f2) baseline; the first-order (fo) baseline keeps
softmax weights.  The table ``_OBJECTIVES`` says per kind how a run starts,
which margins it tries and which posterior its parameters stand for, so all
kinds share one optimiser and their certificates compare directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import bounds, numkern as nk
from .bounds import BoundResult, BoundSpec, SearchConfig
from .votes import PredictionMatrix, WeightPosterior

__all__ = [
    "TrainConfig",
    "AdamState",
    "adam_step",
    "alpha_from",
    "uniform_omega",
    "objective",
    "fo_objective",
    "EpochRecord",
    "RunResult",
    "TrainResult",
    "TrainingError",
    "train_posterior",
    "OBJECTIVES",
]

_ALPHA_SHIFT = 1e-6


class TrainingError(RuntimeError):
    """Every candidate run diverged."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation hyperparameters; defaults follow the reference protocol:
    Adam(0.9, 0.999) at learning rate 0.1, batches of 100, up to 100 epochs
    with 25-epoch early stopping and a /10 plateau schedule with patience 2,
    uniform initial weights at concentration K_init = 2."""

    learning_rate: float = 0.1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 100
    max_epochs: int = 100
    early_stop_patience: int = 25
    lr_reduce_factor: float = 10.0
    lr_reduce_patience: int = 2
    min_lr: float = 1e-6
    seed: int = 0
    gamma_candidates: tuple = (0.005, 0.01, 0.025, 0.05, 0.1)
    K_init: float = 2.0
    delta: float = 0.05

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 0:
            raise ValueError("batch_size must be >= 1 and max_epochs >= 0")
        if not all(0.0 < g < 0.5 for g in self.gamma_candidates):
            raise ValueError("gamma candidates must lie in (0, 1/2)")
        if self.K_init <= 0.0 or self.learning_rate <= 0.0:
            raise ValueError("K_init and learning_rate must be positive")


@dataclass(frozen=True)
class AdamState:
    params: np.ndarray
    step: int
    exp_avg: np.ndarray
    exp_avg_sq: np.ndarray

    @staticmethod
    def init(params: np.ndarray) -> "AdamState":
        p = np.array(params, dtype=float)
        return AdamState(p, 0, np.zeros_like(p), np.zeros_like(p))


def adam_step(
    state: AdamState,
    gradient: np.ndarray,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """One bias-corrected Adam update; pure (returns a new state)."""
    g = np.asarray(gradient, dtype=float)
    t = state.step + 1
    m = beta1 * state.exp_avg + (1.0 - beta1) * g
    v = beta2 * state.exp_avg_sq + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    params = state.params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return AdamState(params, t, m, v)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _inv_softplus(y: float) -> float:
    # ln(e^y - 1), stable for small y
    return y + math.log(-math.expm1(-y)) if y > 0 else math.log(math.expm1(y))


def alpha_from(omega: np.ndarray) -> np.ndarray:
    """Positive Dirichlet parameters from unconstrained ones."""
    return _softplus(omega) + _ALPHA_SHIFT


def uniform_omega(num_voters: int, K_init: float) -> np.ndarray:
    """Unconstrained parameters giving uniform theta at concentration K_init."""
    return np.full(num_voters, _inv_softplus(K_init / num_voters - _ALPHA_SHIFT))


def _dirichlet_complexity(alpha: np.ndarray, prior: np.ndarray, spec: BoundSpec):
    """(c, dc/dalpha) for c = (D(alpha, prior) + ln(2 sqrt(m)/delta)) / m.

    The digamma terms of the KL cancel in the gradient, leaving the
    trigamma form (alpha_i - beta_i) psi'(alpha_i) - psi'(alpha_0)(alpha_0 - beta_0).
    """
    a0 = float(alpha.sum())
    dkl = nk.dirichlet_kl(alpha, prior)
    c = max(0.0, dkl + spec.log_confidence()) / spec.m
    grad = (
        (alpha - prior) * nk.trigamma(alpha)
        - nk.trigamma(a0) * (a0 - float(prior.sum()))
    ) / spec.m
    return c, grad


def _kl_inv_with_grad(u: float, c: float):
    """kl_inv value and its partials, with u kept inside (0, 1); the
    complexity c is positive, as ln(2 sqrt(m)/delta) > 0."""
    return nk.kl_inv_with_grad(min(max(u, 1e-12), 1.0 - 1e-12), c)


def _beta_loss_and_grad(corr, wrong, a_y, a_n, gamma: float, num_voters: int):
    """Batch-mean Beta-CDF margin loss and its alpha gradient.

    Degenerate rows (no correct or no erring mass) contribute the constants
    1 and 0, so only the regular rows enter the incomplete-beta partials.
    """
    regular = (a_y > 0.0) & (a_n > 0.0)
    terms = np.where(a_y <= 0.0, 1.0, 0.0)
    grad = np.zeros(num_voters)
    if regular.any():
        val, d_a, d_b = nk.reg_inc_beta_with_grad(
            0.5 + gamma, a_y[regular], a_n[regular]
        )
        terms[regular] = val
        grad = (corr[regular].T @ d_a + wrong[regular].T @ d_b) / a_y.size
    return float(terms.mean()), grad


def _batch_correct(P: PredictionMatrix, batch_rows) -> np.ndarray:
    """Correctness mask of the batch rows (every row for None)."""
    rows = np.arange(P.num_examples) if batch_rows is None else np.asarray(batch_rows)
    if rows.size == 0:
        raise ValueError("batch must be non-empty")
    return P.correct_mask[rows]


def objective(
    P: PredictionMatrix,
    omega: np.ndarray,
    batch_rows,
    gamma: float | None,
    spec: BoundSpec,
):
    """Dirichlet training objective and its gradient in omega.

    At a margin gamma this is the stochastic-margin certificate
    kl_inv(u, c) + exp(-4 (alpha_0 + 1) gamma^2), with u the batch mean of
    I_{1/2+gamma}(a_y, a_wrong).  gamma=None selects the factor-two (f2)
    objective 2 kl_inv(u, c), with u the expected 0-1 loss (the margin
    loss at gamma = 0) and no de-randomisation penalty.  The complexity c
    always uses the full-sample m.  Matches central finite differences to
    ~1e-4 relative away from the kl-inverse singularity.
    """
    omega = np.asarray(omega, dtype=float)
    alpha = alpha_from(omega)
    corr = _batch_correct(P, batch_rows)
    wrong = ~corr
    margin = 0.0 if gamma is None else gamma
    u, dE = _beta_loss_and_grad(corr, wrong, corr @ alpha, wrong @ alpha, margin, alpha.size)
    c, dc = _dirichlet_complexity(alpha, spec.prior(alpha.size), spec)
    v, dv_du, dv_dc = _kl_inv_with_grad(u, c)
    if gamma is None:
        return 2.0 * v, 2.0 * (dv_du * dE + dv_dc * dc) * _sigmoid(omega)

    eps = math.exp(-4.0 * (float(alpha.sum()) + 1.0) * gamma * gamma)
    d_eps = -4.0 * gamma * gamma * eps
    grad_alpha = dv_du * dE + dv_dc * dc + d_eps
    return v + eps, grad_alpha * _sigmoid(omega)


def _softmax(omega: np.ndarray) -> np.ndarray:
    z = np.exp(omega - omega.max())
    return z / z.sum()


def fo_objective(P: PredictionMatrix, omega: np.ndarray, batch_rows, spec: BoundSpec):
    """First-order objective: 2 * kl_inv(batch Gibbs loss, categorical complexity).

    Weights are parameterised by softmax, so the gradient pulls back through
    the simplex Jacobian.
    """
    omega = np.asarray(omega, dtype=float)
    theta = _softmax(omega)
    err_rates = (~_batch_correct(P, batch_rows)).mean(axis=0)
    u = float(err_rates @ theta)

    d = theta.size
    c = (nk.categorical_kl_uniform(theta) + spec.log_confidence()) / spec.m
    v, dv_du, dv_dc = _kl_inv_with_grad(u, c)
    dc_dtheta = (np.log(theta) + 1.0 + math.log(d)) / spec.m
    grad_theta = 2.0 * (dv_du * err_rates + dv_dc * dc_dtheta)
    grad_omega = theta * (grad_theta - float(theta @ grad_theta))
    return 2.0 * v, grad_omega


def _dirichlet_posterior(omega: np.ndarray) -> WeightPosterior:
    alpha = alpha_from(omega)
    return WeightPosterior(alpha / alpha.sum(), float(alpha.sum()))


@dataclass(frozen=True)
class _Objective:
    """How one objective kind is trained: ``init(num_voters, cfg)`` gives
    the starting parameters, ``gammas(cfg)`` the margin candidates (one run
    each; None for the margin-free kinds), ``value_and_grad(P, omega, rows,
    gamma, spec)`` the objective (rows=None: the full sample) and
    ``posterior(omega)`` the weights the parameters stand for."""

    init: Callable[[int, TrainConfig], np.ndarray]
    gammas: Callable[[TrainConfig], tuple]
    value_and_grad: Callable[..., tuple]
    posterior: Callable[[np.ndarray], WeightPosterior]


# The callables look objective/fo_objective up when called, not when the
# table is built, so a wrapper installed on the module sees every call.
def _dirichlet(gammas) -> _Objective:
    """A kind trained through ``objective``: Dirichlet weights from uniform
    theta at K_init; the kinds differ only in their margin candidates."""
    return _Objective(
        lambda d, cfg: uniform_omega(d, cfg.K_init),
        gammas,
        lambda P, omega, rows, gamma, spec: objective(P, omega, rows, gamma, spec),
        _dirichlet_posterior,
    )


_OBJECTIVES = {
    "stochastic_margin": _dirichlet(lambda cfg: cfg.gamma_candidates),
    "fo": _Objective(
        lambda d, cfg: np.zeros(d),
        lambda cfg: (None,),
        lambda P, omega, rows, gamma, spec: fo_objective(P, omega, rows, spec),
        lambda omega: WeightPosterior(_softmax(omega), 1.0),
    ),
    "f2": _dirichlet(lambda cfg: (None,)),
}

OBJECTIVES = tuple(_OBJECTIVES)


@dataclass(frozen=True)
class EpochRecord:
    gamma: float | None
    epoch: int
    objective: float
    bound: float
    K: float
    lr: float


@dataclass(frozen=True)
class RunResult:
    gamma: float | None
    posterior: WeightPosterior | None
    history: tuple
    best_bound: float
    failed: bool = False


@dataclass(frozen=True)
class TrainResult:
    posterior: WeightPosterior
    certificate: BoundResult
    objective: str
    runs: tuple

    @property
    def history(self) -> tuple:
        return tuple(rec for run in self.runs for rec in run.history)


def _run_single(
    P: PredictionMatrix,
    cfg: TrainConfig,
    spec: BoundSpec,
    obj: _Objective,
    gamma: float | None,
    run_index: int,
) -> RunResult:
    m = P.num_examples
    state = AdamState.init(obj.init(P.num_voters, cfg))
    rng = np.random.default_rng((cfg.seed, run_index))

    def value_and_grad(params, rows):
        return obj.value_and_grad(P, params, rows, gamma, spec)

    lr = cfg.learning_rate
    bound0 = value_and_grad(state.params, None)[0]
    if not math.isfinite(bound0):
        return RunResult(gamma, None, (), math.inf, failed=True)
    history = [EpochRecord(gamma, 0, bound0, bound0, obj.posterior(state.params).K, lr)]
    best_bound = bound0
    best_params = state.params.copy()
    stall_stop = 0
    stall_lr = 0
    for epoch in range(1, cfg.max_epochs + 1):
        perm = rng.permutation(m)
        epoch_vals = []
        diverged = False
        for start in range(0, m, cfg.batch_size):
            rows = perm[start : start + cfg.batch_size]
            val, grad = value_and_grad(state.params, rows)
            if not math.isfinite(val) or not np.all(np.isfinite(grad)):
                diverged = True
                break
            epoch_vals.append(val)
            state = adam_step(
                state, grad, lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
            )
        if diverged:
            return RunResult(gamma, None, tuple(history), best_bound, failed=True)
        bound = value_and_grad(state.params, None)[0]
        if not math.isfinite(bound):
            return RunResult(gamma, None, tuple(history), best_bound, failed=True)
        history.append(
            EpochRecord(
                gamma, epoch, float(np.mean(epoch_vals)), bound,
                obj.posterior(state.params).K, lr,
            )
        )
        if bound < best_bound:
            best_bound = bound
            best_params = state.params.copy()
            stall_stop = 0
            stall_lr = 0
        else:
            stall_stop += 1
            stall_lr += 1
        if stall_lr >= cfg.lr_reduce_patience:
            lr /= cfg.lr_reduce_factor
            stall_lr = 0
            if lr < cfg.min_lr:
                break
        if stall_stop >= cfg.early_stop_patience:
            break
    return RunResult(gamma, obj.posterior(best_params), tuple(history), best_bound)


def train_posterior(
    P: PredictionMatrix,
    cfg: TrainConfig,
    spec: BoundSpec,
    objective_kind: str = "stochastic_margin",
    search_cfg: SearchConfig | None = None,
) -> TrainResult:
    """Run one minibatch-Adam fit per margin candidate and keep the winner.

    Early stopping and the plateau schedule track the full-sample bound, and
    the parameters from the best epoch are kept.  The final posterior is
    selected by its deterministic-margin certificate computed at
    delta / (#candidates), so the candidate union is accounted for; the
    certificate returned is never the minibatch surrogate.
    """
    try:
        obj = _OBJECTIVES[objective_kind]
    except KeyError:
        raise ValueError(f"unknown objective: {objective_kind!r}") from None
    gammas = obj.gammas(cfg)
    runs = [_run_single(P, cfg, spec, obj, g, idx) for idx, g in enumerate(gammas)]
    survivors = [r for r in runs if not r.failed]
    if not survivors:
        raise TrainingError("all candidate runs produced non-finite objectives")
    spec_sel = replace(spec, delta=spec.delta / len(gammas))
    best_pair = None
    for run in survivors:
        cert = bounds.certify(P, run.posterior, spec_sel, "dirichlet_margin", search_cfg)
        if best_pair is None or cert.value < best_pair[1].value:
            best_pair = (run, cert)
    run, cert = best_pair
    return TrainResult(run.posterior, cert, objective_kind, tuple(runs))
