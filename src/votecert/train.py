"""Gradient training of voting weights on differentiable certificates.

Each objective is the certificate formula that ``bounds.certify`` reports,
called from ``bounds`` rather than copied, and left unclipped so it keeps a
gradient above 1.  The primary objective is the stochastic-margin
certificate: the Beta-CDF expected margin loss pushed through the inverted
small-kl, plus the de-randomisation penalty, at K = alpha_0.  Dirichlet
parameters are kept positive through a softplus reparameterisation;
gradients are assembled by the chain rule through the incomplete-beta
partials, the formula's partials (implicit differentiation of the kl
inverse) and the trigamma form of the Dirichlet KL's gradient.

One Dirichlet objective serves the stochastic-margin certificate and, with
no margin, the factor-two (f2) baseline; the first-order (fo) baseline keeps
softmax weights.  The table ``_OBJECTIVES`` says per kind how a run starts,
which margins it tries and which posterior its parameters stand for, so all
kinds share one optimiser and their certificates compare directly.

The candidate runs of a kind train in lockstep: their parameters and Adam
moments are the rows of (R, d) arrays, and a run that stops or diverges
leaves the stack.  Both objectives take such stacks only, one run being a
stack of one, and are lanewise over their rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import bounds, numkern as nk, votes
from .bounds import BoundResult, BoundSpec, SearchConfig
from .votes import PredictionMatrix, WeightPosterior

__all__ = [
    "TrainConfig",
    "AdamState",
    "adam_step",
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
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_LEARNING_RATE = 0.1
_LR_REDUCE_FACTOR = 10.0
_LR_REDUCE_PATIENCE = 2
_MIN_LR = 1e-6
_EARLY_STOP_PATIENCE = 25
_K_INIT = 2.0


class TrainingError(RuntimeError):
    """Every candidate run diverged."""


@dataclass(frozen=True)
class TrainConfig:
    """The settings a training command chooses: the seed, the margin
    candidates (one run each), the epoch budget and the batch size.  The
    rest of the reference protocol is fixed by module constants: uniform
    initial weights at concentration ``_K_INIT`` = 2; Adam at learning rate
    ``_LEARNING_RATE`` = 0.1 with ``_ADAM_BETA1`` = 0.9, ``_ADAM_BETA2`` =
    0.999 and ``_ADAM_EPS`` = 1e-8; the rate divided by
    ``_LR_REDUCE_FACTOR`` = 10 after ``_LR_REDUCE_PATIENCE`` = 2 epochs in a
    row without a better bound; a run stopped after ``_EARLY_STOP_PATIENCE``
    = 25 of those or once its rate falls below ``_MIN_LR`` = 1e-6."""

    seed: int = 0
    gamma_candidates: tuple = (0.005, 0.01, 0.025, 0.05, 0.1)
    max_epochs: int = 100
    batch_size: int = 100

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 0:
            raise ValueError("batch_size must be >= 1 and max_epochs >= 0")
        if not all(0.0 < g < 0.5 for g in self.gamma_candidates):
            raise ValueError("gamma candidates must lie in (0, 1/2)")


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


def adam_step(state: AdamState, gradient: np.ndarray, lr: float | np.ndarray) -> AdamState:
    """One bias-corrected Adam(``_ADAM_BETA1``, ``_ADAM_BETA2``, ``_ADAM_EPS``)
    update; pure (returns a new state).  ``lr`` is a float, or an (R, 1)
    column of per-run rates for stacked (R, d) states."""
    g = np.asarray(gradient, dtype=float)
    t = state.step + 1
    m = _ADAM_BETA1 * state.exp_avg + (1.0 - _ADAM_BETA1) * g
    v = _ADAM_BETA2 * state.exp_avg_sq + (1.0 - _ADAM_BETA2) * g * g
    m_hat = m / (1.0 - _ADAM_BETA1**t)
    v_hat = v / (1.0 - _ADAM_BETA2**t)
    params = state.params - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
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


def _alpha_from(omega: np.ndarray) -> np.ndarray:
    """Positive Dirichlet parameters from unconstrained ones."""
    return _softplus(omega) + _ALPHA_SHIFT


def _uniform_omega(num_voters: int, K_init: float) -> np.ndarray:
    """Unconstrained parameters giving uniform theta at concentration K_init."""
    return np.full(num_voters, _inv_softplus(K_init / num_voters - _ALPHA_SHIFT))


def _clip_loss(u: np.ndarray) -> np.ndarray:
    """The empirical term kept inside (0, 1), where the kl inverse's partials
    are finite (the complexity is positive, as ln(2 sqrt(m)/delta) > 0)."""
    return np.clip(u, 1e-12, 1.0 - 1e-12)


def _batch_correct(P: PredictionMatrix, batch_rows) -> np.ndarray:
    """Correctness masks of the batch rows: (1, B, d) for one row set shared
    by every run ((B,), or None for every row), (R, B, d) for one per run
    ((R, B)).  The shared form broadcasts in the stacked products instead of
    being copied once per run."""
    rows = np.arange(P.num_examples) if batch_rows is None else np.asarray(batch_rows)
    if rows.size == 0:
        raise ValueError("batch must be non-empty")
    corr = P.correct_mask[rows]
    return corr.reshape((-1,) + corr.shape[-2:])


def objective(
    P: PredictionMatrix,
    omega: np.ndarray,
    batch_rows,
    gamma,
    spec: BoundSpec,
    grad: bool = True,
):
    """Dirichlet training objective of stacked runs and its gradient in omega.

    The objective is the certificate ``certify`` evaluates, unclipped, at
    K = alpha_0 and theta = alpha / alpha_0: at a margin gamma the
    stochastic-margin formula kl_inv(u, c) + exp(-4 (alpha_0 + 1) gamma^2),
    with u the batch mean of I_{1/2+gamma}(a_y, a_wrong); gamma=None selects
    the factor-two (f2) formula 2 kl_inv(u, c), with u the expected 0-1 loss
    (the margin loss at gamma = 0) and no de-randomisation penalty.  u is
    clipped to [1e-12, 1 - 1e-12] first, and the complexity c always uses
    the full-sample m.  Matches central finite differences to ~1e-4
    relative away from the kl-inverse singularity.

    omega is (R, d); batch_rows is (R, B), one (B,) row set shared by every
    run, or None for the full sample; gamma is R margins (or one) or None.
    Returns (R,) values and (R, d) gradients, lanewise over the runs: each
    row equals bit for bit the R = 1 call on that row.  ``grad=False``
    returns the values alone, skipping the finite-difference stacks and the
    pullbacks.
    """
    runs, d = omega.shape
    alpha = _alpha_from(omega)
    corr = _batch_correct(P, batch_rows)
    wrong = ~corr
    margin = np.zeros(runs) if gamma is None else np.broadcast_to(np.asarray(gamma, float), (runs,))
    # A stacked matmul calls BLAS once per run's 2-D slice, so each run sums
    # in the order of its own call; shared (1, B, d) masks broadcast uncopied.
    col = alpha[:, :, None]
    lanes = (corr @ col)[..., 0], (wrong @ col)[..., 0], margin[:, None]
    kl = nk.dirichlet_kl(alpha, np.ones(d))

    def certificate(terms):
        """The certify formula at K = alpha_0 on the batch's mean loss."""
        u = _clip_loss(terms.mean(axis=1))
        if gamma is None:
            return bounds._f2_formula(u, kl, spec, grad)
        return bounds._stochastic_formula(u, alpha.sum(axis=1), margin, kl, spec, grad)

    if not grad:
        return certificate(votes.beta_margin_loss_terms(*lanes))[0]

    terms, d_c, d_w = votes.beta_margin_loss_terms(*lanes, grad=True)
    # Float copies of the transposed masks, cast from a contiguous bool
    # transpose: numpy would cast the strided bool view element by element
    # before each BLAS call.  The products are the same bit for bit.
    corr_t = np.swapaxes(corr, 1, 2).copy()
    corr_t, wrong_t = corr_t.astype(float), (~corr_t).astype(float)
    dE = (corr_t @ d_c[..., None] + wrong_t @ d_w[..., None])[..., 0] / terms.shape[1]
    v, *_, dv_du, dv_dc, deps_dK = certificate(terms)
    dc = bounds._dirichlet_complexity_grad(alpha, spec)
    # d alpha_0 / d alpha_i = 1: the penalty's partial in K is its partial in each alpha_i.
    grad_alpha = dv_du[:, None] * dE + dv_dc[:, None] * dc + np.reshape(deps_dK, (-1, 1))
    return v, grad_alpha * _sigmoid(omega)


def _softmax(omega: np.ndarray) -> np.ndarray:
    z = np.exp(omega - omega.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def fo_objective(P: PredictionMatrix, omega: np.ndarray, batch_rows, spec: BoundSpec,
                 grad: bool = True):
    """First-order objective of R stacked runs: the fo certificate
    2 kl_inv(u, c), unclipped, with u the batch Gibbs loss clipped to
    [1e-12, 1 - 1e-12] and c the categorical complexity.

    Weights are parameterised by softmax, so the gradient pulls back through
    the simplex Jacobian.  Shapes, the row rule and ``grad`` as in
    ``objective``.
    """
    theta = _softmax(omega)
    err_rates = (~_batch_correct(P, batch_rows)).mean(axis=1)
    u = _clip_loss((err_rates[:, None, :] @ theta[:, :, None])[:, 0, 0])
    kl_cat = np.array([nk.categorical_kl_uniform(t) for t in theta])
    if not grad:
        return bounds._gibbs(u, kl_cat, 1, 2.0, spec)[0]
    v, _, dv_du, dv_dc = bounds._gibbs(u, kl_cat, 1, 2.0, spec, True)
    # d KL(theta || uniform) / d theta_i is ln theta_i + 1 + ln d; the softmax
    # pullback cancels the ln d that every voter shares.
    dc_dtheta = (np.log(theta) + 1.0) / spec.m
    grad_theta = dv_du[:, None] * err_rates + dv_dc[:, None] * dc_dtheta
    pull = (theta[:, None, :] @ grad_theta[:, :, None])[:, 0]
    return v, theta * (grad_theta - pull)


def _dirichlet_posterior(omega: np.ndarray) -> WeightPosterior:
    alpha = _alpha_from(omega)
    return WeightPosterior(alpha / alpha.sum(), float(alpha.sum()))


@dataclass(frozen=True)
class _Objective:
    """How one objective kind is trained: ``init(num_voters)`` gives the
    starting parameters, ``gammas(cfg)`` the margin candidates (one run
    each; None for the margin-free kinds), ``evaluate(P, omega, rows, gamma,
    spec, grad)`` the objective over stacked runs (omega (R, d), rows (R, B)
    or None for the full sample, gamma R margins or None), as values or as
    (values, gradients), and ``posterior(omega)`` the weights one run's
    parameters stand for."""

    init: Callable[[int], np.ndarray]
    gammas: Callable[[TrainConfig], tuple]
    evaluate: Callable[..., tuple]
    posterior: Callable[[np.ndarray], WeightPosterior]


# The callables look objective/fo_objective up when called, not when the
# table is built, so a wrapper installed on the module sees every call.
def _dirichlet(gammas) -> _Objective:
    """A kind trained through ``objective``: Dirichlet weights from uniform
    theta at ``_K_INIT``; the kinds differ only in their margin candidates."""
    return _Objective(
        lambda d: _uniform_omega(d, _K_INIT),
        gammas,
        lambda P, omega, rows, gamma, spec, grad: objective(P, omega, rows, gamma, spec, grad),
        _dirichlet_posterior,
    )


_OBJECTIVES = {
    "stochastic_margin": _dirichlet(lambda cfg: cfg.gamma_candidates),
    "fo": _Objective(
        np.zeros,
        lambda cfg: (None,),
        lambda P, omega, rows, gamma, spec, grad: fo_objective(P, omega, rows, spec, grad),
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


@dataclass
class _Run:
    """One candidate run's own state in the lockstep loop."""

    index: int
    gamma: float | None
    rng: np.random.Generator
    lr: float
    history: list
    best_bound: float
    best_params: np.ndarray
    stall_stop: int = 0
    stall_lr: int = 0

    def result(self, posterior: WeightPosterior | None) -> RunResult:
        """The run's outcome; no posterior marks it failed."""
        return RunResult(self.gamma, posterior, tuple(self.history), self.best_bound,
                         failed=posterior is None)


def _train_runs(
    P: PredictionMatrix,
    cfg: TrainConfig,
    spec: BoundSpec,
    obj: _Objective,
    gammas: tuple,
) -> list:
    """Train every candidate run of one kind in lockstep, one RunResult per
    gamma in order.

    The active runs' parameters and Adam moments are stacked (R, d) rows, so
    each minibatch step is one objective call over R runs x B rows and one
    Adam step.  Each run keeps its own permutation stream (seed, run index),
    learning rate, stall counters, best parameters and history, and leaves
    the stack when it stops early, its learning rate falls below ``_MIN_LR``
    or it diverges; the rows left behind step exactly as they would alone.
    """
    m = P.num_examples
    init = obj.init(P.num_voters)
    margins = None if gammas[0] is None else np.array(gammas)
    bound0 = obj.evaluate(P, np.tile(init, (len(gammas), 1)), None, margins, spec, False)
    results: list = [None] * len(gammas)
    active = []
    for idx, (gamma, bound) in enumerate(zip(gammas, bound0.tolist())):
        if not math.isfinite(bound):
            results[idx] = RunResult(gamma, None, (), math.inf, failed=True)
            continue
        history = [EpochRecord(gamma, 0, bound, bound, obj.posterior(init).K, _LEARNING_RATE)]
        active.append(_Run(idx, gamma, np.random.default_rng((cfg.seed, idx)), _LEARNING_RATE,
                           history, bound, init.copy()))
    state = AdamState.init(np.tile(init, (len(active), 1)))

    def keep(rows):
        """Drop every run whose row is not in ``rows`` from the stack."""
        nonlocal active, state, margins
        active = [active[r] for r in rows]
        state = AdamState(state.params[rows], state.step,
                          state.exp_avg[rows], state.exp_avg_sq[rows])
        if margins is not None:
            margins = np.array([run.gamma for run in active])

    for epoch in range(1, cfg.max_epochs + 1):
        if not active:
            break
        perms = np.stack([run.rng.permutation(m) for run in active])
        epoch_vals = [[] for _ in active]
        for start in range(0, m, cfg.batch_size):
            vals, grads = obj.evaluate(
                P, state.params, perms[:, start : start + cfg.batch_size], margins, spec, True
            )
            finite = np.isfinite(vals) & np.isfinite(grads).all(axis=1)
            if not finite.all():
                for run, ok in zip(active, finite):
                    if not ok:
                        results[run.index] = run.result(None)
                rows = np.flatnonzero(finite)
                keep(rows)
                perms, vals, grads = perms[rows], vals[rows], grads[rows]
                epoch_vals = [epoch_vals[r] for r in rows]
                if not active:
                    break
            for log, val in zip(epoch_vals, vals.tolist()):
                log.append(val)
            lrs = np.array([[run.lr] for run in active])
            state = adam_step(state, grads, lrs)
        if not active:
            break
        bounds_now = obj.evaluate(P, state.params, None, margins, spec, False)
        stay = []
        for row, (run, bound, vals) in enumerate(zip(active, bounds_now.tolist(), epoch_vals)):
            params = state.params[row]
            if not math.isfinite(bound):
                results[run.index] = run.result(None)
                continue
            run.history.append(EpochRecord(
                run.gamma, epoch, float(np.mean(vals)), bound, obj.posterior(params).K, run.lr,
            ))
            if bound < run.best_bound:
                run.best_bound = bound
                run.best_params = params.copy()
                run.stall_stop = 0
                run.stall_lr = 0
            else:
                run.stall_stop += 1
                run.stall_lr += 1
            stopped = False
            if run.stall_lr >= _LR_REDUCE_PATIENCE:
                run.lr /= _LR_REDUCE_FACTOR
                run.stall_lr = 0
                stopped = run.lr < _MIN_LR
            if stopped or run.stall_stop >= _EARLY_STOP_PATIENCE:
                results[run.index] = run.result(obj.posterior(run.best_params))
            else:
                stay.append(row)
        if len(stay) < len(active):
            keep(stay)
    for run in active:
        results[run.index] = run.result(obj.posterior(run.best_params))
    return results


def train_posterior(
    P: PredictionMatrix,
    cfg: TrainConfig,
    spec: BoundSpec,
    objective_kind: str = "stochastic_margin",
    search_cfg: SearchConfig | None = None,
) -> TrainResult:
    """Run one minibatch-Adam fit per margin candidate and keep the winner.

    The fits run in lockstep (see ``_train_runs``): each minibatch step is
    one objective call and one Adam step over every run still training, and
    each run's trajectory is the one it would have alone.  Per run, early
    stopping and the plateau schedule track the full-sample bound (a
    value-only evaluation), and the parameters from the best epoch are kept.  The final posterior is
    selected by its deterministic-margin certificate computed at
    delta / (#candidates), so the candidate union is accounted for; the
    certificate returned is never the minibatch surrogate.
    """
    try:
        obj = _OBJECTIVES[objective_kind]
    except KeyError:
        raise ValueError(f"unknown objective: {objective_kind!r}") from None
    gammas = obj.gammas(cfg)
    runs = _train_runs(P, cfg, spec, obj, gammas)
    survivors = [r for r in runs if not r.failed]
    if not survivors:
        raise TrainingError("all candidate runs produced non-finite objectives")
    spec_sel = replace(spec, delta=spec.delta / len(gammas))
    # min keeps the first of equal certificates.
    run, cert = min(
        ((run, bounds.certify(P, run.posterior, spec_sel, "dirichlet_margin", search_cfg))
         for run in survivors),
        key=lambda pair: pair[1].value,
    )
    return TrainResult(run.posterior, cert, objective_kind, tuple(runs))
