"""Risk certificates for weighted majority votes and the (gamma, K) search.

Every certificate but bg's closed form reads factor kl_inv(u, c) + eps, on
an empirical term u, a complexity c and an additive term eps, and each
builds its terms in one place:
- gz, bgplus, bg and bgplusplus in one margin-grid formula each (below);
- dirichlet_margin, stochastic_margin and f2 in one core (``_dirichlet``)
  on each lane's KL to the prior, which the caller computes: the searches
  through ``_dirichlet_kl_of``, training from its Dirichlet parameters;
- the Gibbs baselines fo, so and bin in ``_gibbs``, from one (loss, KL
  multiple, kl factor) triple each.
One function, ``_kl_bound``, computes every formula's unclipped value,
factor None standing for bg's closed form, and with ``grad`` its partials,
so ``train`` minimises the formula that ``certify`` reports.  ``_result``
clips the value to 1; ``reconstruct_value`` rebuilds a result's value from
its components through the same two functions, bit for bit.

The table ``_BOUNDS`` is the one place a bound is defined: per bound id it
holds its kl factor, whether the delta/n_gamma union correction over the
margin grid applies, and how it is evaluated.  A margin-grid bound
(dirichlet_margin, gz, bgplus, bg, bgplusplus) also holds its formula, with
one signature for all five and lanewise over (weight row, margin loss,
gamma), and the rule of the margins where it holds; ``_on_grid`` evaluates
it in a single formula call over every applicable grid margin of every
row, each row's winner picked by ``_best_lanes``.  ``margin_bound`` calls a
formula on the caller's lanes for every row of a stack of weight vectors,
in one search, as the comparison sweep does, and ``margin_applies`` reads
the rule.

The context ``_Posterior`` holds an (R, d) stack of weight vectors: each row
floored once, and one (row, K) -> KL closure for the K searches (its prior
terms computed once, each call's distinct (row, K) pairs one kernel row
each).  ``certify_all`` evaluates any bound ids on a stack of posteriors,
each with its own K, through one context, whose grid margin losses and
distinct example masses are computed per row the first time a bound reads
them; each searched bound runs one search over the lanes of every row.
``certify`` is ``certify_all`` of one id on a stack of one.

One search serves every searched knob: the Dirichlet bounds (f2 at a NaN
margin) optimise K over [K_init, K_init * _K_SPAN] (``_search_K``),
bgplusplus its replication count T over {1..4 T_bgplus}, each on the log of
the knob over every lane in lockstep (``_search_log``).  Its value function
is the formula itself, so the searched and the reported certificate come
from the same code.  It compares the unclipped values: the clip at 1 is nondecreasing, so
a point that minimises the formula minimises the certificate, and the
formula still ranks the points that the clip ties at 1, where a dip
narrower than the ladder's steps would otherwise go unseen.  The search
evaluates a ladder of rungs halving down from each lane's top (K_init 2^j
for K) in one call, then refines each lane's best rung by Brent's method;
the T search then scans the whole counts around its best point
(``_search_counts``).  For stochastic_margin it also takes a proven lower
bound on each margin's value below a bracket top (``_stochastic_floor``),
evaluates the top of the range first, drops the margins whose bound
exceeds the smallest value found, and leaves out of the ladder the rungs
below one whose bound exceeds the margin's own top value; dropped margins
come back as +inf, and the winning margin, its K and the certificate are
those of the search without the bound; in a stack, a margin is dropped
against the smallest value of its own row.  On a rung every margin lane
of a row shares K, so the Beta-CDF loss computes ln B(K a_c, K a_w) once
per rung, row and example mass (``_beta_losses``).  The grid's range and the searches' K
span, tolerance, step limit and T scan are module constants;
``SearchConfig`` sets only the grid's size.

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
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import numkern as nk
from . import votes
from .votes import PredictionMatrix, WeightPosterior

__all__ = [
    "BoundSpec",
    "BoundResult",
    "SearchConfig",
    "BOUND_IDS",
    "margin_bound",
    "margin_applies",
    "certify",
    "certify_all",
    "reconstruct_value",
]

_THETA_FLOOR = 1e-12


@dataclass(frozen=True)
class BoundSpec:
    """Sample size and confidence shared by every certificate.  Every
    Dirichlet certificate takes the prior Dirichlet(1, ..., 1)."""

    m: int
    delta: float

    def __post_init__(self):
        if int(self.m) < 1:
            raise ValueError("m must be >= 1")
        object.__setattr__(self, "m", int(self.m))
        if not 0.0 < float(self.delta) < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        object.__setattr__(self, "delta", float(self.delta))

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


class _Posterior:
    """What the certificates of an (R, d) stack of weight vectors share:
    the rows as given (for the Gibbs baselines), floored and each row's
    flags, each row's K, the margin grid, and a (K, row) -> KL closure,
    margin losses and example masses made when first read, so that fo, so
    and bin pay for none of them.

    Flooring clamps zero weights before forming Dirichlet parameters:
    trained posteriors can hit the simplex boundary numerically, where the
    Dirichlet KL diverges; flooring keeps the certificate finite and is
    flagged for audit.  A row without a weight below the floor keeps its bits.
    """

    def __init__(self, thetas, K=1.0, P: PredictionMatrix | None = None, gammas=None):
        self.P, self.gammas = P, gammas
        self.theta = self.floored = np.asarray(thetas, dtype=float)
        self.K = np.full(len(self.theta), K, dtype=float)
        low = self.theta.min(axis=1) < _THETA_FLOOR
        self.flags = [("theta_floored",) * bool(x) for x in low]
        if low.any():
            th = np.maximum(self.theta, _THETA_FLOOR)
            self.floored = np.where(low[:, None], th / th.sum(axis=1, keepdims=True), self.theta)

    @cached_property
    def kl_of(self):
        return _dirichlet_kl_of(self.floored)

    @cached_property
    def margin_losses(self) -> np.ndarray:
        """(R, n_gamma): each row's empirical margin loss at every grid margin."""
        return np.array([votes.empirical_margin_loss(self.P, th, self.gammas)
                         for th in self.floored])

    @cached_property
    def masses(self) -> list:
        """Per row, its distinct (a_c, a_w) example masses, each example's
        column among them, and the columns where both masses are positive."""
        out = []
        for th in self.floored:
            cols, column = np.unique(np.stack([self.P.correct_mass(th), self.P.wrong_mass(th)]),
                                     axis=1, return_inverse=True)
            out.append((cols, column, (cols > 0.0).all(axis=0)))
        return out


def _lanes(*values) -> list[np.ndarray]:
    """Float lane arrays of the arguments, broadcast together."""
    return [arr.astype(float) for arr in np.broadcast_arrays(*values)]


def _result(value, u, comp, eps, gamma=None, K=None, T=None, flags=()) -> BoundResult:
    """A formula's BoundResult from its value (clipped to 1 here), its
    components and its knobs: floats (an int T) from 0-d lanes, arrays with
    one entry per lane otherwise (T as integer-valued floats); a lane of
    infinite complexity is vacuous."""

    def out(x, kind=float):
        if x is None:
            return None
        arr = np.asarray(x)
        return arr if arr.ndim else kind(arr)

    comp = out(comp)
    if isinstance(comp, float) and comp == math.inf:
        flags = tuple(sorted(set(flags) | {"infinite_complexity", "vacuous"}))
    return BoundResult(out(np.minimum(1.0, value)), out(gamma), out(K), out(T, int), out(u),
                       comp, out(eps), flags)


def _per_lane(r: BoundResult, f) -> BoundResult:
    """A lanewise BoundResult with f applied to each of its lane arrays."""
    return _result(*(f(x) if isinstance(x, np.ndarray) else x for x in (
        r.value, r.empirical_term, r.complexity_term, r.derandomisation_term, r.gamma_star,
        r.K_star, r.T_star)), r.flags)


def _lane(r: BoundResult, i: int) -> BoundResult:
    """Lane i of a lanewise BoundResult."""
    return _per_lane(r, lambda x: x[i])


def _dirichlet_kl_of(thetas: np.ndarray):
    """Lanewise (K, rows) -> KL(Dir(K thetas[row]) || Dir(1, ..., 1)) on an
    (R, d) stack, prior terms computed once; rows broadcasts to K's shape.

    The KL depends on the (row, K) pair alone, so each call sends the kernel
    one row per distinct pair among its lanes and gathers the values back:
    every lane equals ``nk.dirichlet_kl(K * thetas[row], ones)`` bit for
    bit."""
    kl, R = nk._dirichlet_kl_to(np.ones(thetas.shape[1])), len(thetas)

    def kl_of(K, rows):
        K = np.asarray(K, dtype=float)
        distinct, at = np.unique(K, return_inverse=True)
        # Each lane's slot in a (distinct K, row) table, and the slots in use.
        slot = at.reshape(K.shape) * R + rows
        used = np.zeros(distinct.size * R, dtype=bool)
        used[slot] = True
        k, row = np.divmod(used.nonzero()[0], R)
        return kl(distinct[k, None] * thetas[row])[used.cumsum()[slot] - 1]

    return kl_of


def _kl_bound(u, comp, factor, eps, grad: bool = False):
    """Every certificate's value, lanewise and unclipped: (factor kl_inv(u,
    comp) + eps,), or for factor None bg's closed form (u + sqrt(comp u) +
    eps,); with ``grad`` (kl factors only) also factor dv/du and factor
    dv/dc for v = kl_inv(u, comp), from one ``kl_inv_with_grad`` call (which
    needs 0 < u < 1 and comp > 0)."""
    if factor is None:
        return (u + np.sqrt(comp * u) + eps,)
    if not grad:
        return (factor * nk.kl_inv(u, comp) + eps,)
    v, dv_du, dv_dc = nk.kl_inv_with_grad(u, comp)
    return factor * v + eps, factor * dv_du, factor * dv_dc


def _dirichlet(u, kl, eps, factor, spec: BoundSpec, grad: bool):
    """The Dirichlet certificates' core on each lane's KL D(K theta, beta) to
    the prior, computed by the caller: (value, u, c, eps, *partials) with the
    unclipped value factor kl_inv(u, c) + eps (factor one float, or one per
    lane), c = max(0, D + ln(2 sqrt(m) / delta)) / m, and c = inf (so kl_inv
    is 1) on lanes whose KL is not finite; the partials are
    ``_kl_bound``'s."""
    comp = np.where(np.isfinite(kl), np.maximum(0.0, kl + spec.log_confidence()) / spec.m,
                    np.inf)
    value, *partials = _kl_bound(u, comp, factor, eps, grad)
    return (value, u, comp, eps, *partials)


# The three Dirichlet formulas on lanes of loss, K (the concentration) and
# gamma, given each lane's KL, as ``_dirichlet`` returns them.
def _margin_formula(l_gamma, K, gamma, kl, spec):
    eps = np.exp(-(K + 1.0) * gamma * gamma)
    return _dirichlet(np.minimum(1.0, l_gamma + eps), kl, eps, 1.0, spec, False)


def _stochastic_formula(expected_loss, K, gamma, kl, spec, grad=False):
    """The stochastic-margin formula, with penalty exp(-4 (K + 1) gamma^2);
    a lane whose gamma is NaN takes the f2 formula instead (kl factor 2, no
    penalty), so one call serves both kinds' lanes.  With ``grad`` it
    appends d eps / dK (0 on f2 lanes)."""
    f2 = np.isnan(gamma)
    gamma = np.where(f2, 0.0, gamma)
    eps = np.where(f2, 0.0, np.exp(-4.0 * (K + 1.0) * gamma * gamma))
    out = _dirichlet(np.minimum(1.0, expected_loss), kl, eps, np.where(f2, 2.0, 1.0), spec, grad)
    return out + (np.where(f2, 0.0, -4.0 * gamma * gamma * eps),) if grad else out


# Slack under the stochastic floor for the 1e-9 of kl_inv's contract and
# the rounding of the KL, the exponentials and the sums.
_FLOOR_SLACK = 1e-8


def _stochastic_floor(hi, gamma, spec):
    """A lower bound on the clipped stochastic-margin value at each margin
    gamma over every K <= e^hi:
    min(1, 1 - exp(-c0) + exp(-4 (e^hi + 1) gamma^2)) - _FLOOR_SLACK, with
    c0 = ln(2 sqrt(m) / delta) / m.

    The Dirichlet KL is >= 0, so c >= c0.  The exact kl inverse is
    nondecreasing in u and in c, so at u = 0 it is at least kl_inv(0, c0) =
    1 - exp(-c0).  ``nk.kl_inv`` returns 1 or a v with |kl(u, v) - c| <=
    1e-9, so it is at least the exact inverse at c - 1e-9, which lowers the
    bound by at most 1e-9.  The penalty exp(-4 (K + 1) gamma^2) decreases in
    K, so it is least at the top, K = e^hi."""
    eps_top = np.exp(-4.0 * (np.exp(hi) + 1.0) * gamma * gamma)
    return np.minimum(1.0, -math.expm1(-spec.log_confidence() / spec.m) + eps_top) - _FLOOR_SLACK


def _dirichlet_complexity_grad(alpha: np.ndarray, spec: BoundSpec) -> np.ndarray:
    """dc/dalpha per row of an (R, d) alpha, c the Dirichlet complexity of
    ``_dirichlet`` at K theta = alpha.  The digamma terms of the KL cancel,
    leaving the trigamma form (alpha_i - 1) psi'(alpha_i) - psi'(alpha_0)
    (alpha_0 - d)."""
    d = alpha.shape[1]
    a0 = alpha.sum(axis=1, keepdims=True)
    # One trigamma lane array: alpha_0 rides along as the last column.
    tri = nk.trigamma(np.concatenate([alpha, a0], axis=1))
    return ((alpha - 1.0) * tri[:, :-1] - tri[:, -1:] * (a0 - float(d))) / spec.m


# The margin-grid formulas: one signature, (losses, gammas, rows, post, spec)
# -> BoundResult, lanewise over flat (margin loss, gamma, row) lanes, each
# lane on the row ``rows`` names of the weight stack of the context
# ``post``; each reads the parts it needs.


def _everywhere(gammas, d: int):
    return np.ones(np.shape(gammas), dtype=bool)


def _gz_applies(gammas, d: int):
    """Margins where the gz bound holds: d >= 3 and gamma > sqrt(2/d)."""
    return (d >= 3) & (np.asarray(gammas) > math.sqrt(2.0 / d))


def _gz(losses, gammas, rows, post, spec) -> BoundResult:
    """kth-margin bound, holding simultaneously over the margins where
    ``_gz_applies``.  ln(2 m^2 / ln d) is negative only for m < sqrt(ln(d) /
    2), where the tail ln(d) / m alone exceeds 1; the complexity is clamped
    at 0, so the value there is 1."""
    d, m = post.theta.shape[1], spec.m
    log_d = math.log(d)
    comp = np.maximum(0.0, (
        2.0 * math.log(2.0 * d) / (gammas * gammas) * math.log(2.0 * m * m / log_d)
        + math.log(d * m / spec.delta)
    ) / m)
    tail = log_d / m
    return _result(_kl_bound(losses, comp, 1.0, tail)[0], losses, comp, tail, gammas)


def _bgplus_T(gamma, m: int):
    """ceil(2 ln(m) / gamma^2), at least 1, as an integer-valued float: an
    int64 would wrap for margins below ~1e-9."""
    return np.maximum(1.0, np.ceil(2.0 * math.log(m) / (gamma * gamma)))


def _bgplus(losses, gammas, rows, post, spec) -> BoundResult:
    """Sharpened fixed-margin bound; T = ceil(2 ln(m) / gamma^2) replications.

    The sampling penalty exp(-T gamma^2 / 2) <= 1/m by construction, so both
    additive corrections appear as 1/m.
    """
    m = spec.m
    T = _bgplus_T(gammas, m)
    u = np.minimum(1.0, losses + 1.0 / m)
    comp = (T * math.log(post.theta.shape[1]) + spec.log_confidence()) / m
    return _result(_kl_bound(u, comp, 1.0, 1.0 / m)[0], u, comp, 1.0 / m, gammas, T=T)


def _bg(losses, gammas, rows, post, spec) -> BoundResult:
    """Original closed-form relaxation; strictly looser than bgplus."""
    m = spec.m
    C = (2.0 * math.log(2.0 / spec.delta)
         + 4.75 * math.log(post.theta.shape[1]) * math.log(m) / (gammas * gammas))
    comp = C / m
    tail = (C + np.sqrt(C) + 2.0) / m
    return _result(_kl_bound(losses, comp, None, tail)[0], losses, comp, tail, gammas)


# The T search's tolerance keeps its final bracket within this many whole
# counts, which the whole-count finish then scans.
_T_SCAN = 64


def _search_counts(values_at, top):
    """Per lane, the whole count T in {1..top} of the smallest value, and
    that value (the smallest T on ties), for ``values_at(lanes, T)`` as in
    ``_search_log`` on any real T in [1, top]; counts are integer-valued
    floats.  ``_search_log`` searches ln T over [1, top] at the tolerance
    min(``_K_REL_TOL``, ``_T_SCAN`` / top), so that the best point's bracket
    spans at most ``_T_SCAN`` counts; one call then evaluates every count
    within that tolerance of the best point.  Exact for unimodal profiles,
    whose best count neighbours the real minimum in the bracket, unless two
    rungs tie (see ``_search_log``).

    Past ~2e15 counts no step that short moves ln T, so the search's
    tolerance is raised to four float spacings of ln top, while the scan
    keeps ``_T_SCAN`` / top: its counts no longer cover the bracket, and
    the count returned can miss the best.  On (T - floor(0.3 top))^2 it is
    30000000000000032 (value 1024) at top = 1e17, and 384 counts off at
    1e18.  certify's margins (>= ``_GAMMA_MIN``) keep top far below that;
    ``margin_bound`` reaches it at margins below ~1e-7."""
    top = np.asarray(top, dtype=float)
    tol = np.minimum(_K_REL_TOL, _T_SCAN / top)
    x, _ = _search_log(lambda lanes, x: values_at(lanes, np.exp(x)), np.ones(top.size), top,
                       tol=np.maximum(tol, 4.0 * np.spacing(np.log(top))))
    last = np.minimum(top, np.ceil(np.exp(x + tol)))
    first = np.minimum(last, np.maximum(1.0, np.floor(np.exp(x - tol))))
    T = first[:, None] + np.arange(int((last - first).max(initial=0)) + 1)
    valid = T <= last[:, None]
    values = np.full(T.shape, np.inf)
    values[valid] = values_at(np.nonzero(valid)[0], T[valid])
    row, j = np.arange(top.size), values.argmin(axis=1)
    return T[row, j], values[row, j]


def _bgplusplus(losses, gammas, rows, post, spec) -> BoundResult:
    """Replication bound minimised over the count T in {1..4 T_bgplus}, every
    lane's T search in lockstep (``_search_counts``); the search compares
    the unclipped formula, as the K searches do, and bgplus's own count
    T_bgplus = top / 4 is one of its ladder's rungs.  The complexity charges
    T * (ln d - H(theta)), which vanishes for uniform weights, at each
    lane's row."""
    m = spec.m
    kl_unif = np.array([nk.categorical_kl_uniform(th) for th in post.floored])[rows]
    log_term = math.log(m / spec.delta)

    def terms(lanes, T):
        g = gammas[lanes]
        eps = np.exp(-0.5 * T * g * g)
        return np.minimum(1.0, losses[lanes] + eps), (T * kl_unif[lanes] + log_term) / m, eps

    def value(lanes, T):
        u, comp, eps = terms(lanes, T)
        return _kl_bound(u, comp, 1.0, eps)[0]

    T_star, best = _search_counts(value, 4 * _bgplus_T(gammas, m))
    return _result(best, *terms(np.arange(gammas.size), T_star), gammas, T=T_star)


def _gibbs(u, kl_cat, n: int, factor: float, spec: BoundSpec, grad: bool = False):
    """The Gibbs baselines' formula, lanewise: (value, c, *partials) with the
    unclipped value factor kl_inv(u, c), c = (n KL(theta || uniform) +
    ln(2 sqrt(m)/delta)) / m, and ``_kl_bound``'s partials."""
    comp = (n * kl_cat + spec.log_confidence()) / spec.m
    value, *partials = _kl_bound(u, comp, factor, 0.0, grad)
    return (value, comp, *partials)


# The binomial baseline's number of categorical draws N; it certifies at
# k0 = ceil(N/2).
_BIN_VOTERS = 100


# The margin grid spans [_GAMMA_MIN, _GAMMA_MAX).  Each K search spans
# [K_init, K_init * _K_SPAN] in ln K; every search stops once its bracket is
# no wider than _K_REL_TOL (the T search: narrower where _T_SCAN asks), or
# after _K_MAX_ITER steps.
_GAMMA_MIN = 1e-4
_GAMMA_MAX = 0.5
_K_SPAN = 2.0**16
_K_REL_TOL = 1e-3
_K_MAX_ITER = 200


@dataclass(frozen=True)
class SearchConfig:
    """The size of certify()'s margin grid."""

    n_gamma: int = 1000

    def __post_init__(self):
        if (not isinstance(self.n_gamma, (int, np.integer)) or isinstance(self.n_gamma, bool)
                or self.n_gamma < 1):
            raise ValueError("n_gamma must be an integer >= 1")

    def gamma_grid(self) -> np.ndarray:
        """Log-spaced (base 10) margins over [_GAMMA_MIN, _GAMMA_MAX)."""
        return np.logspace(math.log10(_GAMMA_MIN), math.log10(_GAMMA_MAX), self.n_gamma,
                           endpoint=False)


# -- the lockstep search ------------------------------------------------------

# The refinement's golden-section fraction, (3 - sqrt(5)) / 2.
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))

# Distinct row masses x searched points per reg_inc_beta call in the
# Beta-CDF searches.  Median seconds of five stochastic_margin certifies
# with Dirichlet(5) weights, so every row mass distinct, the sizes
# interleaved in one process (2 vCPUs, one BLAS thread; values
# bit-identical at every size), and the traced peak of the
# stochastic_margin certifies of a bench certify pass:
#
#   lanes   766 x 27, n_gamma=200   479 x 108, n_gamma=100   traced peak
#   2**13   0.644                   0.170                    2.98 MiB
#   2**14   0.597                   0.168                    5.03 MiB
#   2**15   0.625                   0.187                    6.02 MiB
#
# (479 x 108 is the desk experiment's shape.)  The peak is reached inside
# the Lentz loop, whose own footprint is ~18 floats per lane, on top of
# its callers' lane arrays, ~17 floats per lane at 2**14; both grow with
# the size.  2**14 is 7% faster on the first matrix and level on the
# second, but its peak is 1.7 times as high, so the size stays 2**13.
_BETA_LANES = 1 << 13

# The largest K_init the K search takes: its range must end at a finite
# K_init * _K_SPAN, which holds up to ~2.7e303.  The Beta-CDF bounds can
# fail well below it, where the incomplete beta's prefactor loses its
# accuracy (see ``nk.reg_inc_beta``).
_K_MAX = 1e300


def _K_range(K_init):
    """Per lane, the K range [K_init, K_init * _K_SPAN], each K_init in (0, _K_MAX]."""
    K_init = np.atleast_1d(np.asarray(K_init, dtype=float))
    if not ((0.0 < K_init) & (K_init <= _K_MAX)).all():
        raise ValueError("K must lie in (0, 1e300]")
    return K_init, K_init * _K_SPAN


def _search_K(values_at, K_init, floor=None, rows=None):
    """Per lane, the best K over [K_init_i, K_init_i * _K_SPAN] and its
    value: ``_search_log`` on ln K, for ``values_at(lanes, K)`` and its
    ``floor(lanes, ln K)`` over the lanes' ``rows``."""
    x, values = _search_log(lambda lanes, x: values_at(lanes, np.exp(x)), *_K_range(K_init),
                            floor, rows=rows)
    return np.array([math.exp(xi) for xi in x]), values


def _row_min(values, rows, n: int):
    """Per row of n, the smallest of its lanes' values (+inf for a row of
    none, NaN for a row holding a NaN), as ``values.min()`` on each row."""
    out = np.full(n, np.inf)
    np.minimum.at(out, rows, values)
    return out


def _search_log(values_at, lo, hi, floor=None, tol=None, rows=None):
    """Minimum over ln t in [ln lo_i, ln hi_i] for each lane i of the arrays
    lo and hi (0 < lo_i <= hi_i), every lane run in lockstep.

    ``values_at(lanes, x)`` maps an int array of lane indices and an array
    of ln t points of the same size to those values; a call may hold a lane
    more than once.  A lane's ladder is its top ln hi_i, the rungs
    ln(hi_i / 2^j) above its bottom, and its bottom ln lo_i, each by
    ``math.log`` (at hi_i / lo_i = 2^k, the rungs ln(lo_i 2^j)); one call
    evaluates every lane's top, then the other rungs from the bottom up,
    rung by rung.  Each lane's lowest rung (the smallest t on ties) and its
    two neighbours, the range's ends at its ends, bracket its refinement by
    Brent's method: a parabolic step through the three best points when it
    lands inside the bracket and is shorter than half the step before last,
    a golden-section step otherwise, with scipy's ``fminbound`` rules and
    its tolerance fixed at tol_i / 4, from the array ``tol`` (``_K_REL_TOL``
    on every lane if None).  No step is shorter than tol_i / 4, and a lane
    stops once its best point lies within tol_i / 2 of both bracket ends,
    so that its bracket is no wider than tol_i, or after ``_K_MAX_ITER``
    steps.  Each step is one call over the lanes still running.  A lane
    whose best rung ties the next rung up is flat there (its value
    saturated, or its penalty lost below the last bit): not refined.

    ``floor(lanes, x)``, if given, bounds each lane's value from below over
    every ln t <= x; the tops then get a call of their own.  After it and
    before every step, the search drops each running lane whose floor at its
    bracket top exceeds the smallest value found on any lane of its own row,
    ``rows`` naming each lane's row (one row for every lane if None), so
    that the lanes of one row never drop another row's.  A lane's best
    point lies in its bracket, so a dropped lane can neither reach nor tie
    that value.  The ladder call also leaves out each lane's rung k whose
    floor at rung k + 1 exceeds the lane's top value: every rung up to
    k + 1 then lies above that value, so the best rung j is at least k + 2,
    and rung k is none of j - 1, j and j + 1 that set the bracket, x, w, v
    and the flat test.  The rung just below the top always stays, as a kept
    lane's floor at its top is at most the smallest top value.  A NaN top
    leaves out no rung.  So every kept lane takes the same Brent steps to
    the same point and value, and the lanes that can reach their row's
    smallest value are evaluated as without a floor, at the same points in
    the same order but for a bottom run of ladder rungs; each row's smallest
    value, and the lanes and points that reach it, are unchanged.

    Returns the best ln t and value per lane over every evaluation, folded
    rung by rung from the bottom (the top last), then step by step; ties
    keep the first, and a dropped lane's value is +inf.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    tol = np.broadcast_to(_K_REL_TOL if tol is None else tol, lo.shape).astype(float)
    # Column k of a lane's ladder: its bottom at k = 0, then hi / 2^(last - k)
    # up to its top at k = last.
    halvings = 2.0 ** -np.arange(int(math.log2(np.max(hi / lo, initial=1.0))) + 2)
    last = (hi[:, None] * halvings > lo[:, None]).sum(axis=1)
    col = np.arange(last.max(initial=0) + 1)
    valid = col <= last[:, None]
    points = hi[:, None] * halvings[np.maximum(last[:, None] - col, 0)]
    points[:, 0] = lo
    distinct, at = np.unique(points[valid], return_inverse=True)
    rungs = np.zeros(points.shape)
    rungs[valid] = np.fromiter(map(math.log, distinct.tolist()), float, distinct.size)[at]
    lanes = np.arange(lo.size)
    out_x, out_val, f = rungs[lanes, last], np.full(lo.size, np.inf), np.full(rungs.shape, np.inf)
    if floor is not None:
        rows = np.zeros(lo.size, dtype=int) if rows is None else np.asarray(rows)
        n_rows = int(rows.max(initial=0)) + 1
        # Per row, the smallest value of its finished lanes.
        done_min = np.full(n_rows, np.inf)
        f[lanes, last] = values_at(lanes, out_x)
        keep = floor(lanes, out_x) <= _row_min(f[lanes, last], rows, n_rows)[rows]
        lanes, tol, last, rungs, f = lanes[keep], tol[keep], last[keep], rungs[keep], f[keep]

    # The ladder: the tops not yet evaluated first, then rung-major, so
    # that the lanes of one rung, which share t when their ranges do, sit
    # together in the call; with a floor, less the rungs that it rules out.
    below_c, below_r = np.nonzero(col[:, None] < last)
    if floor is not None:
        need = ~(floor(lanes[below_r], rungs[below_r, below_c + 1]) > f[below_r, last[below_r]])
        below_c, below_r = below_c[need], below_r[need]
    tops = np.arange(0 if floor is not None else lanes.size)
    r, c = np.concatenate([tops, below_r]), np.concatenate([last[tops], below_c])
    if r.size:
        f[r, c] = values_at(lanes[r], rungs[r, c])
    row = np.arange(lanes.size)
    j = f.argmin(axis=1)
    best_x, best_val = rungs[row, j], f[row, j]
    # Brent's state: the bracket [a, b], the best point x and the two next
    # best w and v (at a range end, or with a single rung, both the one
    # neighbour), and the last two step lengths rat and e, which start at the
    # bracket's width, so that the first two steps may be parabolic.
    lo_j, hi_j = np.maximum(j - 1, 0), np.minimum(j + 1, last)
    a, b, fa, fb = rungs[row, lo_j], rungs[row, hi_j], f[row, lo_j], f[row, hi_j]
    x, fx = best_x, best_val
    flat = (j < last) & (fb == fx)
    a, b = np.where(flat, x, a), np.where(flat, x, b)
    inner = (j > 0) & (j < last)
    low_w = (j == last) | (inner & (fa <= fb))
    w, fw = np.where(low_w, a, b), np.where(low_w, fa, fb)
    v, fv = np.where(inner, np.where(low_w, b, a), w), np.where(inner, np.where(low_w, fb, fa), fw)
    e = rat = b - a
    tol1 = tol / 4.0
    tol2 = 2.0 * tol1

    for step in range(_K_MAX_ITER + 1):
        xm = 0.5 * (a + b)
        run = (np.abs(x - xm) > tol2 - 0.5 * (b - a)) & (step < _K_MAX_ITER)
        done = ~run
        if floor is not None:
            # Per row, fmin leaves the finished lanes' min where a running
            # lane is NaN.
            smallest = np.fmin(done_min, _row_min(best_val, rows[lanes], n_rows))
            run &= floor(lanes, b) <= smallest[rows[lanes]]
        if not run.all():
            # Finished and dropped lanes leave; a dropped lane's value stays +inf.
            out_x[lanes[~run]] = best_x[~run]
            out_val[lanes[done]] = best_val[done]
            if floor is not None:
                done_min = np.fmin(done_min, _row_min(best_val[done], rows[lanes[done]], n_rows))
            state = (lanes, a, b, x, fx, w, fw, v, fv, e, rat, best_x, best_val, xm, tol1, tol2)
            lanes, a, b, x, fx, w, fw, v, fv, e, rat, best_x, best_val, xm, tol1, tol2 = (
                arr[run] for arr in state)
        if not lanes.size:
            break
        # The parabola through (x, w, v): its step p / q from x.
        xw, xv, ax, bx = x - w, x - v, a - x, b - x
        r = xw * (fx - fv)
        q = xv * (fx - fw)
        p = xv * q - xw * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = np.abs(e) > tol1
        e_before = e
        e = np.where(parabolic, rat, e)
        parabolic &= np.abs(p) < np.abs(0.5 * q * e_before)
        parabolic &= (p > q * ax) & (p < q * bx)
        rat = np.divide(p, q, out=np.zeros_like(p), where=parabolic)
        u = x + rat
        near_end = ((u - a) < tol2) | ((b - u) < tol2)
        rat = np.where(parabolic & near_end, tol1 * (np.sign(xm - x) + (xm == x)), rat)
        golden = np.where(x >= xm, ax, bx)
        e = np.where(parabolic, e, golden)
        rat = np.where(parabolic, rat, _GOLDEN * golden)
        u = x + (np.sign(rat) + (rat == 0.0)) * np.maximum(np.abs(rat), tol1)
        fu = values_at(lanes, u)
        better = fu < best_val
        best_x, best_val = np.where(better, u, best_x), np.where(better, fu, best_val)
        # Brent's update of the bracket, whose end on u's side moves to u, or
        # on the other side to x when u is the new best, and of x, w and v.
        moves = fu <= fx
        end, left = np.where(moves, x, u), moves == (u >= x)
        a, b = np.where(left, end, a), np.where(left, b, end)
        stays = ~moves
        to_w = stays & ((fu <= fw) | (w == x))
        to_v = stays & ~to_w & ((fu <= fv) | (v == x) | (v == w))
        shift = moves | to_w
        v, fv = (np.where(shift, w, np.where(to_v, u, v)),
                 np.where(shift, fw, np.where(to_v, fu, fv)))
        w, fw = (np.where(moves, x, np.where(to_w, u, w)),
                 np.where(moves, fx, np.where(to_w, fu, fw)))
        x, fx = np.where(moves, u, x), np.where(moves, fu, fx)
    return out_x, out_val


def _best_lanes(values: np.ndarray, gammas: np.ndarray, rows: np.ndarray, R: int) -> np.ndarray:
    """Per row of R, in order, the lane of the row's smallest value, for
    lanes that hold the R rows' blocks of equal size one after another
    (``rows`` naming each lane's row); ties keep the smallest margin, then
    the first lane."""
    return np.lexsort((gammas, values, rows)).reshape(R, -1)[:, 0]


def _margin_best_K(losses, gammas, rows, post, spec) -> BoundResult:
    """Deterministic-margin bound per lane, each lane at its K searched over
    [K, K * _K_SPAN] from the K of its row."""

    def at(lanes, K):
        return _margin_formula(losses[lanes], K, gammas[lanes], post.kl_of(K, rows[lanes]), spec)

    K, _ = _search_K(lambda lanes, K: at(lanes, K)[0], post.K[rows])
    return _result(*at(slice(None), K), gammas, K)


def _beta_losses(K: np.ndarray, gammas: np.ndarray, rows: np.ndarray, masses) -> np.ndarray:
    """Per (weight row, margin) lane, the mean over the examples of
    I_{1/2+gamma}(K a_c, K a_w) at the example masses of the lane's row,
    ``masses[row]`` holding the row's distinct (a_c, a_w) columns, each
    example's column among them and the columns where both masses are
    positive (``_Posterior.masses``): one CDF call per chunk runs each lane's
    row's columns, with ln B(K a_c, K a_w) computed once per run of lanes
    of equal K in a chunk and row and per column of the row, and the row's
    example columns gather it back into example order.  The gather is
    C-ordered, so numpy sums each lane's terms pairwise, as for a lone lane
    and for the every-example terms: a lane's loss is the every-example
    mean bit for bit, whichever lanes share the call."""
    out = np.empty(K.size)
    # At most _BETA_LANES CDF lanes per call, and at most 16 times as many
    # gathered terms, which few masses standing for many examples would exceed.
    width = max(cols.shape[1] for cols, *_ in masses)
    step = max(1, min(_BETA_LANES // width, 16 * _BETA_LANES // masses[0][1].size))
    for s in range(0, K.size, step):
        k, g, row = K[s:s + step], gammas[s:s + step], rows[s:s + step]
        # Each row's lanes of the chunk, and their CDF lanes, (lane, column) flat.
        groups = [((row == r).nonzero()[0], *masses[r]) for r in np.bincount(row).nonzero()[0]]
        cdf = []
        for at, (a_c, a_w), _, regular in groups:
            # ln B once per run of lanes of equal K: the ladder's calls are
            # rung-major, so each rung's lanes sit side by side.
            k_at = k[at]
            new = np.empty(at.size, dtype=bool)
            new[0] = True
            np.not_equal(k_at[1:], k_at[:-1], out=new[1:])
            shared, at_k = k_at[new], new.cumsum() - 1
            log_beta = np.zeros((shared.size, a_c.size))
            log_beta[:, regular] = nk._log_beta(
                (shared[:, None] * a_c[regular]).ravel(), (shared[:, None] * a_w[regular]).ravel()
            ).reshape(shared.size, -1)
            k_at = k_at[:, None]
            cdf.append(((k_at * a_c).ravel(), (k_at * a_w).ravel(), g[at].repeat(a_c.size),
                        log_beta[at_k].ravel()))
        a, b, margin, log_beta = map(np.concatenate, zip(*cdf))
        terms = votes.beta_margin_loss_terms(a, b, margin, log_beta=log_beta)
        done = 0
        for at, (a_c, _), column, _ in groups:
            lane_terms = terms[done:done + at.size * a_c.size].reshape(at.size, a_c.size)
            done += lane_terms.size
            out[s + at] = lane_terms.take(column, axis=1).mean(axis=1)
    return out


# -- certify: one evaluator per table entry -------------------------------------
#
# An evaluator returns one result per row it is given (an ascending int
# array of rows of the posterior context's stack), each with the flags of
# its own search; ``certify_all`` adds ``theta_floored`` and ``vacuous``.


def _certify_beta(stochastic: bool, post: _Posterior, spec: BoundSpec, rows) -> list:
    """stochastic_margin over the grid margins, or the f2 baseline at one
    NaN margin per row (``_stochastic_formula``'s f2 lane, on the margin
    loss at 0, as training's f2 rows), on (row, margin) lanes in one
    search; the stochastic
    search drops the margins, and the ladder rungs of a margin, that
    ``_stochastic_floor`` rules out, each against its own row's values."""
    margins = post.gammas if stochastic else np.full(1, math.nan)
    lane_row, lane_g = np.repeat(rows, margins.size), np.tile(margins, rows.size)

    def at(K, g, r):
        u = _beta_losses(K, np.nan_to_num(g), r, post.masses)
        return _stochastic_formula(u, K, g, post.kl_of(K, r), spec)

    def floor(lanes, hi):
        return _stochastic_floor(hi, lane_g[lanes], spec)

    K, values = _search_K(lambda lanes, K: at(K, lane_g[lanes], lane_row[lanes])[0],
                          post.K[lane_row], floor if stochastic else None, lane_row)
    best = _best_lanes(values, lane_g, lane_row, rows.size)
    K, g = K[best], lane_g[best]
    lanes = _result(*at(K, g, lane_row[best]), g if stochastic else None, K)
    return [_lane(lanes, i) for i in range(best.size)]


def _on_grid(formula, applies, post: _Posterior, spec: BoundSpec, rows) -> list:
    """A margin-grid bound's evaluator: ``formula`` in one call over each
    row's grid margins where ``applies(gammas, d)`` holds, on the row's
    margin losses there, keeping each row's smallest value (the smallest
    gamma on ties)."""
    keep = applies(post.gammas, post.theta.shape[1]).nonzero()[0]
    if not keep.size:
        return [_result(1.0, 1.0, math.inf, 0.0, flags=("inapplicable_margin",))] * rows.size
    # Row-major (row, margin) lanes.
    lane_row = rows.repeat(keep.size)
    gammas = post.gammas[keep][None].repeat(rows.size, 0).ravel()
    lanes = formula(post.margin_losses[rows[:, None], keep].ravel(), gammas, lane_row, post, spec)
    return [_lane(lanes, i) for i in _best_lanes(lanes.value, gammas, lane_row, rows.size)]


# -- the bound table ------------------------------------------------------------


@dataclass(frozen=True)
class _Bound:
    """A bound's kl factor and how it is evaluated: ``evaluate(post, spec,
    rows)`` returns its result on each of the given rows of a posterior
    context, whose value is ``_kl_bound`` of the factor and the result's
    components.  A margin-grid bound also holds
    its ``formula`` and the rule ``applies(gammas, d)`` of the margins where
    it holds (see ``_margin_grid``)."""

    factor: float | None  # None: bg's closed form
    union: bool  # fixed-margin statement: searched at delta / n_gamma
    evaluate: Callable[[_Posterior, BoundSpec, np.ndarray], list]
    formula: Callable[..., BoundResult] | None = None
    applies: Callable[..., np.ndarray] = _everywhere
    floored: bool = True  # reads the floored weights, so carries their flag


def _margin_grid(formula, factor=1.0, union: bool = True, applies=_everywhere) -> _Bound:
    """A margin-grid bound's entry: certify evaluates ``formula`` by
    ``_on_grid``, and ``margin_bound`` calls it on the caller's lanes."""
    return _Bound(factor, union, partial(_on_grid, formula, applies), formula, applies)


def _gibbs_bound(loss, n: int, factor: float) -> _Bound:
    """A Gibbs baseline's entry: ``_gibbs`` with this KL multiple n and kl
    factor on the empirical ``loss(P, theta)``, for the weights as given."""

    def evaluate(post, spec, rows):
        out = []
        for theta in post.theta[rows]:
            u = loss(post.P, theta)
            value, comp = _gibbs(u, nk.categorical_kl_uniform(theta), n, factor, spec)
            out.append(_result(value, u, comp, 0.0))
        return out

    return _Bound(factor, False, evaluate, floored=False)


_BOUNDS = {
    "dirichlet_margin": _margin_grid(_margin_best_K),
    "stochastic_margin": _Bound(1.0, True, partial(_certify_beta, True)),
    "gz": _margin_grid(_gz, union=False, applies=_gz_applies),
    "bgplus": _margin_grid(_bgplus),
    "bg": _margin_grid(_bg, factor=None),
    "bgplusplus": _margin_grid(_bgplusplus),
    # The losses are looked up when called, so a wrapper installed on votes
    # sees the calls.
    "fo": _gibbs_bound(lambda P, th: votes.gibbs_loss(P, th), 1, 2.0),
    "so": _gibbs_bound(lambda P, th: votes.tandem_loss(P, th), 2, 4.0),
    "bin": _gibbs_bound(lambda P, th: votes.binomial_loss(P, th, _BIN_VOTERS), _BIN_VOTERS, 2.0),
    "f2": _Bound(2.0, False, partial(_certify_beta, False)),
}

BOUND_IDS = tuple(_BOUNDS)


def _lookup(bound_id: str, margin_grid: bool = False) -> _Bound:
    bound = _BOUNDS.get(bound_id)
    if bound is None or (margin_grid and bound.formula is None):
        raise ValueError(f"unknown {'margin-grid ' * margin_grid}bound id: {bound_id!r}")
    return bound


def margin_applies(bound_id: str, gammas, d: int) -> np.ndarray:
    """Per margin, whether a margin-grid bound holds there for d voters:
    gz needs d >= 3 and gamma > sqrt(2/d), the others hold at every margin."""
    return _lookup(bound_id, margin_grid=True).applies(gammas, d)


def margin_bound(bound_id: str, losses, thetas, gammas, spec: BoundSpec) -> list[BoundResult]:
    """A margin-grid bound (dirichlet_margin, gz, bgplus, bg, bgplusplus) for
    each row of an (R, d) stack of weight vectors, on lanes of (margin loss,
    gamma), which broadcast together: one result per row, with that row's
    flags, whose fields hold one entry per lane (plain numbers for scalar
    lanes).  One formula call, so one search, covers every row's lanes, and
    each row's result equals its stack of one's bit for bit.  Formula-level:
    takes the margin loss values and ``spec`` as given (no union
    correction).  Each row is floored as certify floors it; dirichlet_margin
    searches its K over [1, 2**16] and bgplusplus its T over {1..4 T_bgplus}
    on every lane, as certify does.  Raises ValueError for a stack of no
    rows, for a row that is not a probability vector (finite, non-negative,
    summing to 1 within 1e-9), for a margin outside (0, 1/2) or a margin
    loss outside [0, 1] (NaN included) on any lane, and for a margin where
    the bound does not hold (``margin_applies``)."""
    bound = _lookup(bound_id, margin_grid=True)
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or not thetas.shape[0]:
        raise ValueError("thetas must be an (R, d) stack of R >= 1 weight vectors")
    for theta in thetas:
        nk._simplex_array(theta, "theta")
    losses, gammas = _lanes(losses, gammas)
    if not ((gammas > 0.0) & (gammas < 0.5) & (losses >= 0.0) & (losses <= 1.0)).all():
        raise ValueError("gamma must lie in (0, 1/2) and the margin loss in [0, 1]")
    if not bound.applies(gammas, thetas.shape[1]).all():
        raise ValueError(f"{bound_id} does not hold at every margin given")
    post, R = _Posterior(thetas), len(thetas)
    # Row-major (row, margin) lanes: row i holds lanes i n .. (i + 1) n - 1.
    lanes = bound.formula(np.tile(losses.ravel(), R), np.tile(gammas.ravel(), R),
                          np.repeat(np.arange(R), gammas.size), post, spec)
    return [_per_lane(lanes, lambda x: x.reshape((R,) + gammas.shape)[i]).with_flags(flags)
            for i, flags in enumerate(post.flags)]


def reconstruct_value(bound_id: str, r: BoundResult) -> float:
    """Recompute a certified value from its stored components, by the value
    function that computed it (``_kl_bound``), clipped as ``_result`` clips."""
    u, comp, eps = r.empirical_term, r.complexity_term, r.derandomisation_term
    return _result(_kl_bound(u, comp, _lookup(bound_id).factor, eps)[0], u, comp, eps).value


def certify_all(P: PredictionMatrix, posteriors, spec: BoundSpec, bound_ids,
                search_cfg: SearchConfig | None = None) -> list[dict[str, BoundResult]]:
    """Search the margin grid (and K where applicable) for the tightest
    certificate of each distinct id in ``bound_ids[i]``, in order, for each
    posterior ``posteriors[i]`` of a stack of R >= 1 (one list of ids per
    posterior), all on one P and spec: one result dict per posterior.  One
    posterior context serves the stack: each row is floored once, each row's
    grid margins are sorted at most once, and each search call computes the
    Dirichlet KL once per distinct (row, K) pair among its lanes.  Each
    searched bound runs one search over the lanes of every row that asks
    for it, and each row's results equal those of its stack of one bit for
    bit.

    Fixed-margin bounds get the delta/N union correction over the grid; the
    gz bound holds simultaneously over margins and keeps the full delta, as
    do the margin-free baselines.  One search (``_search_log``) optimises
    each grid point's knob: K on ln K over [K_init, K_init * 2**16], for
    each posterior's K_init in (0, 1e300], and bgplusplus's T on ln T over
    {1..4 T_bgplus}, by a ladder of rungs halving down from the top and
    Brent's method in each point's best bracket, T then by a scan of the
    whole counts there.  Deterministic given (inputs, search_cfg); ties in
    the grid keep the smallest gamma.  Every result of value 1 carries the
    ``vacuous`` flag.  Raises ValueError for an empty stack, for a list of
    ids per posterior of another length, and for an unknown id.
    """
    if not posteriors or len(bound_ids) != len(posteriors):
        raise ValueError("certify_all needs R >= 1 posteriors and one list of bound ids each")
    cfg = search_cfg or SearchConfig()
    post = _Posterior(np.array([wp.theta for wp in posteriors]), [wp.K for wp in posteriors],
                      P, cfg.gamma_grid())
    union_spec = replace(spec, delta=spec.delta / cfg.n_gamma)
    out = [dict.fromkeys(ids) for ids in bound_ids]
    for bound_id in dict.fromkeys(b for got in out for b in got):
        bound = _lookup(bound_id)
        rows = [i for i, got in enumerate(out) if bound_id in got]
        results = bound.evaluate(post, union_spec if bound.union else spec, np.array(rows))
        for i, result in zip(rows, results):
            extra = (post.flags[i] if bound.floored else ()) + ("vacuous",) * (result.value >= 1.0)
            out[i][bound_id] = result.with_flags(extra) if extra else result
    return out


def certify(P: PredictionMatrix, wp_init: WeightPosterior, spec: BoundSpec, bound_id: str,
            search_cfg: SearchConfig | None = None) -> BoundResult:
    """The tightest certificate of one bound id for one posterior: a stack
    of one of ``certify_all``."""
    return certify_all(P, [wp_init], spec, [(bound_id,)], search_cfg)[0][bound_id]
