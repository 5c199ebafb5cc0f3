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

One Dirichlet objective serves the stochastic-margin certificate and, on
rows with no margin, the factor-two (f2) baseline; the first-order (fo)
baseline keeps softmax weights.  The table ``_OBJECTIVES`` says per kind
which objective its runs train on (how a run starts, how it is evaluated
and which posterior its parameters stand for) and which margins it tries,
so all kinds share one optimiser and their certificates compare directly.

The candidate runs of every kind that shares an objective train in one
lockstep: their parameters and Adam moments are the rows of (R, d) arrays,
and a run that stops or diverges leaves the stack.  Both objectives take
such stacks only, one run being a stack of one, and are lanewise over their
rows, so a stack mixing stochastic-margin and f2 rows gives each row its
own kind's value.  ``train_all`` trains a list of kinds this way and selects
each kind's posterior among its own candidates; ``train_posterior`` is
``train_all`` on one kind.
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
    "train_all",
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
    with u the batch mean of I_{1/2+gamma}(a_y, a_wrong); at a NaN margin
    the factor-two (f2) formula 2 kl_inv(u, c), with u the expected 0-1 loss
    (the margin loss at gamma = 0) and no de-randomisation penalty.  u is
    clipped to [1e-12, 1 - 1e-12] first, and the complexity c always uses
    the full-sample m.  Matches central finite differences to ~1e-4
    relative away from the kl-inverse singularity.

    omega is (R, d); batch_rows is (R, B), one (B,) row set shared by every
    run, or None for the full sample; gamma is R margins (or one), NaN on
    the f2 rows, or None for every row f2.  Returns (R,) values and (R, d)
    gradients, lanewise over the runs, whatever their kinds: each row
    equals bit for bit the R = 1 call on that row.  ``grad=False`` returns
    the values alone, skipping the finite-difference stacks and the
    pullbacks.
    """
    runs, d = omega.shape
    alpha = _alpha_from(omega)
    corr = _batch_correct(P, batch_rows)
    wrong = ~corr
    gamma = np.broadcast_to(np.nan if gamma is None else np.asarray(gamma, float), (runs,))
    # A stacked matmul calls BLAS once per run's 2-D slice, so each run sums
    # in the order of its own call; shared (1, B, d) masks broadcast uncopied.
    col = alpha[:, :, None]
    # f2 rows take the margin loss at margin 0.
    lanes = (corr @ col)[..., 0], (wrong @ col)[..., 0], np.nan_to_num(gamma)[:, None]
    kl = nk.dirichlet_kl(alpha, np.ones(d))

    def certificate(terms):
        """The certify formula at K = alpha_0 on the batch's mean loss."""
        u = _clip_loss(terms.mean(axis=1))
        return bounds._stochastic_formula(u, alpha.sum(axis=1), gamma, kl, spec, grad)

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
    grad_alpha = dv_du[:, None] * dE + dv_dc[:, None] * dc + deps_dK[:, None]
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
    """How a run of one objective is trained: ``init(num_voters)`` gives the
    starting parameters, ``evaluate(P, omega, rows, gamma, spec, grad)`` the
    objective over stacked runs (omega (R, d), rows (R, B) or None for the
    full sample, gamma R margins, NaN where a run has none), as values or as
    (values, gradients), and ``posterior(omega)`` the weights one run's
    parameters stand for."""

    init: Callable[[int], np.ndarray]
    evaluate: Callable[..., tuple]
    posterior: Callable[[np.ndarray], WeightPosterior]


# The callables look objective/fo_objective up when called, not when the
# table is built, so a wrapper installed on the module sees every call.
_DIRICHLET = _Objective(
    lambda d: _uniform_omega(d, _K_INIT),
    lambda P, omega, rows, gamma, spec, grad: objective(P, omega, rows, gamma, spec, grad),
    _dirichlet_posterior,
)

# Per kind: the objective its runs train on and its candidates (one run
# each, None for no margin).  stochastic_margin and f2 differ only in their
# candidates, so their runs share one lockstep.
_OBJECTIVES = {
    "stochastic_margin": (_DIRICHLET, lambda cfg: cfg.gamma_candidates),
    "fo": (
        _Objective(
            np.zeros,
            lambda P, omega, rows, gamma, spec, grad: fo_objective(P, omega, rows, spec, grad),
            lambda omega: WeightPosterior(_softmax(omega), 1.0),
        ),
        lambda cfg: (None,),
    ),
    "f2": (_DIRICHLET, lambda cfg: (None,)),
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


def _train_runs(
    P: PredictionMatrix,
    cfg: TrainConfig,
    spec: BoundSpec,
    obj: _Objective,
    candidates: list,
) -> list:
    """Train candidate runs of one objective in lockstep, one RunResult per
    (gamma, stream) candidate in order; the candidates may come from several
    kinds that share the objective.

    Each run's state is kept in arrays indexed by candidate: its best
    full-sample bound and the parameters it was reached at, its learning
    rate, its two stall counters (epochs without a better bound, towards the
    early stop and towards the next rate cut), whether it failed, and its
    epoch's row order and minibatch values.  Its history and its permutation
    stream (seed, stream), stream being its index among its kind's
    candidates, are per-candidate lists.  Row r of the stack trains
    candidate ``live[r]``: the rows' parameters and Adam moments are one
    stacked AdamState, so each minibatch step is one objective call over
    R runs x B rows and one Adam step.  Epoch 0 evaluates the starting
    bound; each later epoch takes its minibatch steps and then evaluates the
    bound it ends at.  A run leaves the stack when an evaluation of it is
    not finite (it fails), when it stops early, or when its learning rate
    falls below ``_MIN_LR``: one compaction of ``live`` and the Adam state
    after each evaluation drops it.  The rows left behind step exactly as
    they would alone, and each run exactly as in its own kind's lockstep.
    """
    m, n = P.num_examples, len(candidates)
    init = obj.init(P.num_voters)
    margins = np.array([math.nan if gamma is None else gamma for gamma, _ in candidates])
    rngs = [np.random.default_rng((cfg.seed, stream)) for _, stream in candidates]
    histories = [[] for _ in candidates]
    best, best_params = np.full(n, math.inf), np.tile(init, (n, 1))
    lr, failed = np.full(n, _LEARNING_RATE), np.zeros(n, dtype=bool)
    stall_stop, stall_lr = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    perms, vals = np.empty((n, m), dtype=int), np.empty((n, -(-m // cfg.batch_size)))
    live, state = np.arange(n), AdamState.init(best_params)
    for epoch in range(cfg.max_epochs + 1):
        # Epoch 0 is its closing evaluation alone, at the starting parameters.
        starts = range(0, m, cfg.batch_size) if epoch else ()
        if epoch:
            perms[live] = [rngs[i].permutation(m) for i in live]
        for j, start in enumerate([*starts, None]):
            if start is not None:  # a minibatch step
                batch = perms[live, start:start + cfg.batch_size]
                vals[live, j], grads = obj.evaluate(P, state.params, batch, margins[live], spec,
                                                    True)
                leave = ~(np.isfinite(vals[live, j]) & np.isfinite(grads).all(axis=1))
                failed[live] = leave
            else:  # the full-sample bound the epoch ends at
                bound = obj.evaluate(P, state.params, None, margins[live], spec, False)
                leave = ~np.isfinite(bound)
                failed[live] = leave
                rows = np.flatnonzero(~leave)
                runs, bound = live[rows], bound[rows]
                means = vals[runs].mean(axis=1) if epoch else bound
                for run, row, value, mean in zip(runs.tolist(), rows, bound.tolist(),
                                                 means.tolist()):
                    histories[run].append(EpochRecord(candidates[run][0], epoch, mean, value,
                                                      obj.posterior(state.params[row]).K,
                                                      float(lr[run])))
                better = bound < best[runs]
                won = runs[better]
                best[won], best_params[won] = bound[better], state.params[rows[better]]
                stall_stop[runs] += 1
                stall_lr[runs] += 1
                stall_stop[won] = stall_lr[won] = 0
                cut = runs[stall_lr[runs] >= _LR_REDUCE_PATIENCE]
                lr[cut] /= _LR_REDUCE_FACTOR
                stall_lr[cut] = 0
                leave[rows] = (stall_stop[runs] >= _EARLY_STOP_PATIENCE) | (lr[runs] < _MIN_LR)
            stay = ~leave
            live = live[stay]
            state = AdamState(state.params[stay], state.step,
                              state.exp_avg[stay], state.exp_avg_sq[stay])
            if not live.size:
                break
            if start is not None:
                state = adam_step(state, grads[stay], lr[live, None])
        if not live.size:
            break
    return [RunResult(gamma, None if fail else obj.posterior(params), tuple(history), value, fail)
            for (gamma, _), history, value, params, fail
            in zip(candidates, histories, best.tolist(), best_params, failed.tolist())]


def _select(P, spec, kind, runs, search_cfg) -> TrainResult:
    """A kind's TrainResult: the winner among its runs by the
    dirichlet_margin certificate at delta / len(runs)."""
    survivors = [r for r in runs if not r.failed]
    if not survivors:
        raise TrainingError("all candidate runs produced non-finite objectives")
    spec_sel = replace(spec, delta=spec.delta / len(runs))
    # One certify pass, so one K search, over every survivor's posterior;
    # min keeps the first of equal certificates.
    certs = [got["dirichlet_margin"] for got in bounds.certify_all(
        P, [run.posterior for run in survivors], spec_sel,
        [("dirichlet_margin",)] * len(survivors), search_cfg)]
    best = min(range(len(survivors)), key=lambda i: certs[i].value)
    return TrainResult(survivors[best].posterior, certs[best], kind, tuple(runs))


def train_all(
    P: PredictionMatrix,
    cfg: TrainConfig,
    spec: BoundSpec,
    kinds,
    search_cfg: SearchConfig | None = None,
) -> list:
    """Train every objective kind in ``kinds``, one TrainResult per kind in
    order: one minibatch-Adam fit per candidate of each kind, and per kind
    the winner.

    The fits of every kind that shares an objective run in one lockstep
    (see ``_train_runs``), stochastic_margin's margins and f2's margin-free
    run together: each minibatch step is one objective call and one Adam
    step over every run still training, and each run's trajectory is the
    one it would have alone.  Per run, early stopping and the plateau
    schedule track the full-sample bound (a value-only evaluation), and the
    parameters from the best epoch are kept.  Each kind's posterior is
    selected among its own candidates by the deterministic-margin
    certificate computed at delta / (#candidates of the kind), so the
    candidate union is accounted for: one ``certify_all`` pass over the
    stack of every surviving candidate's posterior, whose one K search
    covers them all, each certificate that of the candidate alone; the
    first of equal certificates wins.  The certificate returned is never
    the minibatch surrogate.  Raises TrainingError if every run of a kind
    diverged.
    """
    for kind in kinds:
        if kind not in _OBJECTIVES:
            raise ValueError(f"unknown objective: {kind!r}")
    objs = [_OBJECTIVES[kind][0] for kind in kinds]
    candidates = [_OBJECTIVES[kind][1](cfg) for kind in kinds]
    runs: list = [None] * len(kinds)
    for obj in dict.fromkeys(objs):
        # The candidates of every kind on this objective, kind by kind, in one lockstep.
        share = [i for i, other in enumerate(objs) if other is obj]
        done = iter(_train_runs(P, cfg, spec, obj, [
            (gamma, stream) for i in share for stream, gamma in enumerate(candidates[i])]))
        for i in share:
            runs[i] = [next(done) for _ in candidates[i]]
    return [_select(P, spec, kind, kind_runs, search_cfg) for kind, kind_runs in zip(kinds, runs)]


def train_posterior(
    P: PredictionMatrix,
    cfg: TrainConfig,
    spec: BoundSpec,
    objective_kind: str = "stochastic_margin",
    search_cfg: SearchConfig | None = None,
) -> TrainResult:
    """``train_all`` on the one kind ``objective_kind``."""
    return train_all(P, cfg, spec, (objective_kind,), search_cfg)[0]
