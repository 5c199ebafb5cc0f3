"""Special-function and divergence kernel shared by every certificate formula.

Everything here is a pure, deterministic function of its arguments, safe to
call concurrently.  Functions documented as array-capable accept floats or
numpy arrays (broadcast together) and return a float when every input is
scalar.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "trigamma",
    "reg_inc_beta",
    "reg_inc_beta_with_grad",
    "kl_inv",
    "kl_inv_with_grad",
    "dirichlet_kl",
    "categorical_kl_uniform",
    "binomial_tail",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

_BETACF_MAX_ITER = 2000
_BETACF_EPS = 1e-15
_FPMIN = 1e-300
# Iterations per block of precomputed Lentz numerators, and the cap on a
# block's rows x lanes.
_BETACF_BLOCK_ROWS = 8
_BETACF_BLOCK_SIZE = 2**15
# Lanes per incomplete-beta pass.  Wider passes cost more per lane: on a
# 2-vCPU VM one pass over 1e5 lanes took 1.4x as long as chunks of this size.
_LANE_CHUNK = 2**14

# exp() underflows to zero below this; the incomplete beta is then 0 or 1
# to far better than the 1e-10 contract.
_LOG_UNDERFLOW = -745.0
# ln of the smallest normal float: exp() below it is subnormal, with few bits.
_LOG_NORMAL_MIN = math.log(2.0**-1022)


def _positive_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive and finite")
    return arr


def _unit_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():  # NaN fails both
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


# psi, psi' and h(x) = x psi(x) - ln Gamma(x) - x come from asymptotic
# series at z >= 8, where each is within 3e-15, and ln Gamma from psi and h;
# x < 8 is lifted to z = x + 8.
# psi's series is ln(x) - 1/(2x) minus these coefficients of x^-2, ..., x^-14
# (B_2k / (2k)); psi''s is 1/x + 1/(2x^2) plus these coefficients of
# x^-3, x^-5, ..., x^-15 (B_2k); h grows only like ln(x) / 2: its series is
# ln(x)/2 - 1/2 - ln(2 pi)/2 plus these coefficients of x^-1, x^-3, ..., x^-15
# (-B_2k / (2k - 1)).
_SERIES_FROM = 8
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
_H_SERIES = (-1 / 6, 1 / 90, -1 / 210, 1 / 210, -5 / 594, 691 / 30030, -7 / 78, 3617 / 7650)


def _lift(x: np.ndarray):
    """For a 1-d x > 0: the series points z (x + 8 on the lanes ``lift``
    where x < 8, x elsewhere)."""
    lift = np.flatnonzero(x < _SERIES_FROM)
    z = x.copy()
    z[lift] += _SERIES_FROM
    return z, lift


def _horner(coefs, t: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] t^k.  In place on one new array: on large lane arrays
    a fresh temporary per step costs more than the arithmetic."""
    out = t * coefs[-1]
    out += coefs[-2]
    for coef in coefs[-3::-1]:
        out *= t
        out += coef
    return out


def _series(x: np.ndarray):
    """For a 1-d float array x > 0: (psi(z), h(z), ln Gamma(x), lift) at the
    series points z of ``_lift``, with ln Gamma(z) = z psi(z) - z - h(z)
    brought back to x on lifted lanes by ln Gamma(x) = ln Gamma(z) -
    ln prod_j (x + j), j = 0..7.  The incomplete beta takes only ln Gamma."""
    z, lift = _lift(x)
    log_z, inv = np.log(z), 1.0 / z
    inv2 = inv * inv
    psi = log_z - 0.5 * inv - inv2 * _horner(_PSI_SERIES, inv2)
    h = 0.5 * log_z - 0.5 - _HALF_LOG_2PI + _horner(_H_SERIES, inv2) * inv
    ln_gamma = z * psi - z - h
    s = x[lift]
    prod = s.copy()
    for j in range(1, _SERIES_FROM):
        prod *= s + j
    ln_gamma[lift] -= np.log(prod)
    return psi, h, ln_gamma, lift


def _h_psi(x: np.ndarray):
    """(h(x), psi(x)) lanewise for a float array x > 0, from ``_series``.
    Lifted lanes are brought back by psi(x) = psi(z) - sum_j 1/(x + j) and
    x psi(x) = x psi(z) - sum_j x/(x + j), whose j = 0 term is taken as
    exactly 1, so h stays finite where psi(x) rounds to -inf (x below
    ~5.6e-309)."""
    shape, x = x.shape, x.ravel()
    psi, h, ln_gamma, lift = _series(x)
    s = x[lift]
    psi_rest = psi[lift] - sum(1.0 / (s + j) for j in range(1, _SERIES_FROM))
    h[lift] = s * psi_rest - 1.0 - ln_gamma[lift] - s
    with np.errstate(over="ignore"):  # 1/x overflows: -inf is psi rounded
        psi[lift] = psi_rest - 1.0 / s
    return h.reshape(shape), psi.reshape(shape)


def trigamma(x):
    """psi'(x) for x > 0, lifted lanes brought back by
    psi'(x) = psi'(z) + sum_j 1/(x + j)^2, summed in order of j, so an array
    call equals its one-lane calls bit for bit; exact Dirichlet-KL gradients
    need it.  Array-capable."""
    arr = _positive_array(x, "x")
    x = arr.ravel()
    z, lift = _lift(x)
    inv = 1.0 / z
    inv2 = inv * inv
    tail = inv * inv2 * _horner(_TRIGAMMA_SERIES, inv2)
    out = inv + 0.5 * inv2 + tail
    s = x[lift]
    # below x ~ 7.5e-155, 1/x^2 exceeds the largest double: inf is the
    # correctly rounded value, so its overflow is no fault
    with np.errstate(over="ignore", divide="ignore"):
        back = 1.0 / (s * s)
    for j in range(1, _SERIES_FROM):
        back += 1.0 / ((s + j) * (s + j))
    out[lift] += back
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _fpmin_guard(x: np.ndarray) -> None:
    """Lentz's guard, in place: entries with |x| < _FPMIN become _FPMIN."""
    np.copyto(x, _FPMIN, where=np.abs(x) < _FPMIN)


def _beta_cont_frac(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Modified Lentz continued fraction for the incomplete beta.

    Inputs are 1-d arrays with 0 < z <= (a + 1) / (a + b + 2) elementwise,
    which is the rapidly-converging regime.  A lane returns h at the first
    iteration whose step d c lies within ``_BETACF_EPS`` of 1, or, still
    unconverged after ``_BETACF_MAX_ITER`` iterations, its last iterate.
    Each lane's arithmetic is that of the lane run alone, so an array call
    equals its one-lane calls bit for bit.

    Lentz's guard raises a denominator 1 + y below ``_FPMIN`` in magnitude
    to ``_FPMIN``.  For finite y that happens only when 1 + y is exactly 0:
    a nonzero 1 + y near 0 is exact and at least 2**-53.  Left unguarded, a
    zero denominator makes d infinite or c zero, and h is zero or not
    finite from that step on, since h takes d and c as factors.  So the
    loop runs without the guard, division by zero and invalid operations
    silenced, and every lane whose value comes back zero or not finite
    runs again through the guarded loop, with numpy's warnings as they are.
    Overflow warns in both passes.

    The loop runs in blocks of iterations (see ``_lentz``), and reads
    convergence at each block end, where the lanes that have converged
    leave.  The first block has ``_BETACF_BLOCK_ROWS`` iterations; later
    blocks start at 2 and double up to that cap, so few iterations run past
    a lane's convergence, while a lane that runs all ``_BETACF_MAX_ITER``
    iterations still runs nearly all of them in full blocks.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _lentz(a, b, z, guard=False)
        redo = np.flatnonzero(out / out != 1.0)  # 0, +-inf or NaN
    if redo.size:
        out[redo] = _lentz(a[redo], b[redo], z[redo], guard=True)
    return out


def _lentz(a: np.ndarray, b: np.ndarray, z: np.ndarray, guard: bool) -> np.ndarray:
    """The Lentz loop of ``_beta_cont_frac``, with Lentz's ``_FPMIN`` guard
    on every denominator if ``guard``.  Without it a lane also leaves at the
    first block end where its h is zero or not finite, its value that h.

    A block's Lentz numerators are computed up front as (rows, lanes)
    arrays, rows x lanes at most ``_BETACF_BLOCK_SIZE`` elements, the odd
    ones with their sign flipped: 1 + aa d is computed as 1 - (-aa) d, which
    rounds the same.  Once an iteration has used its row of numerators, the
    row holds that iteration's h (even) or step d c (odd), and at the block
    end one argmax over the rows finds each lane's first converged
    iteration.  Every buffer is allocated once per call: the blocks, and two
    flat buffers for the live lanes' a, b, z, d, c and h as the rows of a
    (6, lanes) view; converged lanes leave by one ``np.take`` from one into
    the other (``np.compress`` with ``out`` would copy through a temporary).
    """
    k = z.size
    out = np.empty_like(z)
    lane = np.arange(k)
    flat, spare = np.empty(6 * k), np.empty(6 * k)
    state = flat.reshape(6, k)
    for row, x in zip(state, (a, b, z)):
        np.copyto(row, x)
    d, c, h = state[3:]
    s = spare[:k]
    np.add(a, b, out=s)
    np.multiply(s, z, out=d)
    np.add(a, 1.0, out=s)
    d /= s
    np.subtract(1.0, d, out=d)  # 1 - (a + b) z / (a + 1)
    if guard:
        _fpmin_guard(d)
    np.divide(1.0, d, out=d)
    c.fill(1.0)
    np.copyto(h, d)
    # even, odd and a scratch block, each of the most rows x lanes a block takes
    blocks = np.empty((3, max(k, min(_BETACF_BLOCK_ROWS * k, _BETACF_BLOCK_SIZE))))
    m, sched = 1, _BETACF_BLOCK_ROWS
    while lane.size:
        n = lane.size
        rows = min(sched, max(1, _BETACF_BLOCK_SIZE // n), _BETACF_MAX_ITER + 1 - m)
        even, odd, tmp = (blk[:rows * n].reshape(rows, n) for blk in blocks)
        a, b, z, d, c, h = state
        dc = state[3:5]
        s = spare[:n]
        mm = np.arange(m, m + rows, dtype=float)[:, None]
        m2 = 2.0 * mm
        # odd: (a + m)(a + b + m) z / ((a + 2m)(a + 1 + 2m))
        np.add(a, mm, out=odd)
        np.add(a, b, out=s)
        np.add(s, mm, out=tmp)
        odd *= tmp
        odd *= z
        np.add(a, m2, out=tmp)
        np.add(a, 1.0, out=s)
        np.add(s, m2, out=even)
        even *= tmp
        odd /= even
        # even: m (b - m) z / ((a - 1 + 2m)(a + 2m))
        np.subtract(a, 1.0, out=s)
        np.add(s, m2, out=even)
        tmp *= even
        np.subtract(b, mm, out=even)
        even *= mm
        even *= z
        even /= tmp
        h_last = h
        # e and o hold one iteration's numerators; once used, its h and d c.
        for e, o in zip(even, odd):
            d *= e
            np.divide(e, c, out=c)
            dc += 1.0
            if guard:
                _fpmin_guard(dc)
            np.divide(1.0, d, out=d)
            np.multiply(h_last, d, out=e)
            e *= c
            d *= o
            np.divide(o, c, out=c)
            np.subtract(1.0, dc, out=dc)
            if guard:
                _fpmin_guard(dc)
            np.divide(1.0, d, out=d)
            np.multiply(d, c, out=o)
            e *= o
            h_last = e
        sched = 2 if m == 1 else min(2 * sched, _BETACF_BLOCK_ROWS)
        m += rows
        odd -= 1.0
        np.abs(odd, out=odd)
        hit = odd < _BETACF_EPS
        if not guard:
            # h / h is 1 exactly where h is finite and nonzero.
            np.divide(h_last, h_last, out=odd[-1])
            hit[-1] |= odd[-1] != 1.0
        if m > _BETACF_MAX_ITER:
            hit[-1] = True
        first = hit.argmax(axis=0)
        left = hit.any(axis=0)
        gone = np.flatnonzero(left)
        out[lane[gone]] = even[first[gone], gone]
        if gone.size == n:
            break
        np.copyto(h, h_last)
        if gone.size:
            keep = np.flatnonzero(~left)
            live = spare[:6 * keep.size].reshape(6, -1)
            np.take(state, keep, axis=1, out=live, mode="clip")
            state, flat, spare = live, spare, flat
            lane = lane[keep]
    return out


def _log_beta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b) for 1-d
    a, b > 0, from one ``_series`` call; lanewise, and symmetric in (a, b)
    bit for bit."""
    ln_gamma_a, ln_gamma_b, ln_gamma_ab = _series(np.concatenate([a, b, a + b]))[2].reshape(3, -1)
    return ln_gamma_a + ln_gamma_b - ln_gamma_ab


def _inc_beta_lower(a: np.ndarray, b: np.ndarray, z: np.ndarray, log_beta=None) -> np.ndarray:
    """I_z(a, b) on lanes already in the convergent regime (see above) or at
    z = 0, where the prefactor underflows to 0; ``log_beta`` is ln B(a, b),
    computed here if not given."""
    if log_beta is None:
        log_beta = _log_beta(a, b)
    with np.errstate(divide="ignore"):  # ln 0 = -inf: z = 0 gives 0
        log_front = a * np.log(z) + b * np.log1p(-z) - log_beta
    out = np.zeros_like(z)
    live = log_front > _LOG_UNDERFLOW
    if live.any():
        front, a_live = log_front[live], a[live]
        cf = _beta_cont_frac(a_live, b[live], z[live])
        val = np.exp(front) * cf / a_live
        # A subnormal exp(log_front) divided by a tiny a magnifies its lost
        # bits: there 1/a goes into the exponent instead.
        sub = front < _LOG_NORMAL_MIN
        if sub.any():
            val[sub] = np.exp(front[sub] - np.log(a_live[sub])) * cf[sub]
        out[live] = val
    return out


def reg_inc_beta(z, a, b, log_beta=None):
    """Regularised incomplete beta I_z(a, b), the Beta(a, b) CDF at z.

    Continued-fraction evaluation with the symmetry swap: lanes with
    z > (a + 1)/(a + b + 2) evaluate 1 - I_{1-z}(b, a).  Both kinds of lane
    go through one prefactor pass and one continued-fraction loop, in chunks
    of at most ``_LANE_CHUNK`` lanes.  The boundary takes the same path: at
    z = 0 the prefactor z^a (1 - z)^b underflows, so the lane is exactly 0
    without entering the loop, and every z = 1 lane is swapped, so it is
    exactly 1 - I_0(b, a) = 1, also where (a + 1)/(a + b + 2) rounds to 1.
    The loop (see ``_beta_cont_frac``) runs without Lentz's guard and reruns
    guarded the rare lane that needs it, reads convergence once per block
    of iterations, and allocates its buffers once per call.
    Array-capable, and an array call equals its one-lane calls bit for bit;
    absolute error <= 1e-10 for a, b <= 1e4.
    Beyond that the prefactor's cancellation grows with the parameters: the
    largest absolute difference from ``scipy.special.betainc`` over 200
    lanes per scale s (a, b = s e^U(-1, 1), z at Beta quantiles in
    [0.01, 0.99], one generator seeded 12345 for s = 1e4, 1e5, 1e6, 1e7 in
    turn) is 3.8e-11, 6.2e-10, 6.0e-9 and 8.5e-8.  The certificate searches
    reach max(a, b) = 2.0e5 on a desk experiment and 3.2e6 on a
    default-grid ``stochastic_margin`` certify; ROADMAP item 2 tracks the
    fix.

    ``log_beta``, if given, is ln B(a, b) as ``_log_beta`` computes it,
    broadcast with the other arguments: a caller whose lanes share few
    (a, b) pairs computes it once per pair.  The values are those of the
    call without it, bit for bit.
    """
    zb, ab, bb = np.broadcast_arrays(
        _unit_array(z, "z"), _positive_array(a, "a"), _positive_array(b, "b"))
    zf, af, bf = zb.ravel(), ab.ravel(), bb.ravel()
    if log_beta is not None:
        log_beta = np.broadcast_to(np.asarray(log_beta, dtype=float), zb.shape).ravel()

    out = np.empty_like(zf)
    for start in range(0, zf.size, _LANE_CHUNK):
        lanes = slice(start, start + _LANE_CHUNK)
        zi, ai, bi = zf[lanes], af[lanes], bf[lanes]
        swap = (zi > (ai + 1.0) / (ai + bi + 2.0)) | (zi == 1.0)
        lower = _inc_beta_lower(np.where(swap, bi, ai), np.where(swap, ai, bi),
                                np.where(swap, 1.0 - zi, zi),
                                None if log_beta is None else log_beta[lanes])
        out[lanes] = np.where(swap, 1.0 - lower, lower)
    np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if zb.ndim == 0 else out.reshape(zb.shape)


def reg_inc_beta_with_grad(z, a, b):
    """(I_z(a, b), dI_z/da, dI_z/db) with the partials by central differences.

    Steps are h = 1e-5 * max(1, parameter), halved if they would leave the
    positive domain.  At z in {0, 1} the CDF is constant in (a, b), so both
    partials are zero.  The five required CDF evaluations run as one stacked
    call.  Array-capable.
    """
    zb, ab, bb = np.broadcast_arrays(
        _unit_array(z, "z"), _positive_array(a, "a"), _positive_array(b, "b"))
    ha = np.minimum(1e-5 * np.maximum(1.0, ab), ab / 2.0)
    hb = np.minimum(1e-5 * np.maximum(1.0, bb), bb / 2.0)
    A = np.stack([ab, ab + ha, ab - ha, ab, ab])
    B = np.stack([bb, bb, bb, bb + hb, bb - hb])
    vals = reg_inc_beta(np.broadcast_to(zb, A.shape), A, B)
    value = vals[0]
    d_a = (vals[1] - vals[2]) / (2.0 * ha)
    d_b = (vals[3] - vals[4]) / (2.0 * hb)
    if zb.ndim == 0:
        return float(value), float(d_a), float(d_b)
    return value, d_a, d_b


_TINY = 5e-324  # the smallest positive float64
_LOG_TINY = math.log(_TINY)


def _kl(q, p):
    """Bernoulli kl(q, p) on validated lanes (or numpy scalars), for q != p
    on the boundary; callers silence numpy's divide warnings.

    The (1 - q) term is (1 - q) ln(1 + (p - q)/(1 - p)): the log of the
    rounded ratio (1 - q)/(1 - p) is off by up to ~1e-16 absolute, which is
    all of the term when q and p are that small.  Adding the smallest
    float to q/p turns 0 ln 0 into 0 ln(tiny) = 0 and leaves every normal
    ratio unchanged; the log1p, -inf only at q = 1, is raised to ln(tiny)
    for the same rule.
    """
    rest = 1.0 - q
    return (q * np.log(q / p + _TINY)
            + rest * np.maximum(np.log1p((p - q) / (1.0 - p)), _LOG_TINY))


_KL_TOP = math.nextafter(1.0, 0.0)
_KL_TOL = 1e-9
_KL_MAX_STEPS = 60
# Bound on the rounding error of one kl evaluation, per unit of (1 + c).
_KL_NOISE = 4.0 * 2.0**-52


def kl_inv(u, c):
    """sup{v in [u, 1] : kl(u, v) <= c}.  Array-capable, lane by lane.

    A safeguarded Newton iteration on t = -ln(1 - v), where kl(u, .) is
    convex and increasing, started above the root from Pinsker-type bounds:
    the iterates fall monotonically and never undercut the root, so the
    value stays an upper bound.  Each lane stops on its own, so an array call
    equals its one-lane calls bit for bit.

    The returned v either satisfies |kl(u, v) - c| <= 1e-9 or is the
    saturating value 1.0 (used whenever the true inverse is closer to 1 than
    float64 can certify; 1.0 is always a valid upper value).
    """
    u_arr = _unit_array(u, "u")
    c_arr = np.asarray(c, dtype=float)
    if not (c_arr >= 0.0).all():
        raise ValueError("c must be non-negative")
    if u_arr.shape != c_arr.shape:
        u_arr, c_arr = np.broadcast_arrays(u_arr, c_arr)
    # One lane runs on numpy scalars, whose arithmetic skips the array
    # machinery and rounds exactly as an array lane does.
    lanes = (u_arr.reshape(())[()], c_arr.reshape(())[()]) if u_arr.size == 1 else (u_arr, c_arr)
    # A budget near the float maximum overflows the start to inf: saturated.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        v = _kl_inv_lanes(*lanes)
    return float(v) if u_arr.ndim == 0 else np.reshape(v, u_arr.shape)


def _kl_inv_lanes(u, c):
    # kl(u, v) >= (v - u)^2 / (2 max x(1 - x) over [u, v]) puts the root
    # below Pinsker's u + sqrt(c/2), or u + sqrt(2 c u (1 - u)) for u >= 1/2;
    # with x(1 - x) <= v, below u + c + sqrt(c (c + 2u)), which is tighter
    # for small u and keeps tiny budgets (where kl rounds to 0) above u.
    half = np.maximum(u, 0.5)
    gap = np.minimum(np.sqrt(2.0 * c * half * (1.0 - half)), c + np.sqrt(c * (c + 2.0 * u)))
    v = np.minimum(u + gap, _KL_TOP)
    # kl is a staircase at the scale of its own rounding: a lane whose
    # excess is that small has converged, and smaller steps would stall.
    noise = _KL_NOISE * (1.0 + c)
    excess = _kl(u, v) - c
    for _ in range(_KL_MAX_STEPS):
        # Newton step in t: dkl/dt = 1 - u/v, and 1 - v scales by exp(step).
        # A converged lane gets the step 0, or NaN at v = u, and fmin keeps
        # it where it is.
        step = excess * v / (v - u) * (excess > noise)
        lower = np.maximum(u, np.fmin(v, v - (1.0 - v) * np.expm1(step)))
        if not np.count_nonzero(lower < v):
            break
        v = lower
        excess = _kl(u, v) - c
    # Step to the largest float with kl <= c: near 1, where one ulp of v
    # moves kl by more than 1e-9, saturation then falls as from below.
    v = v - (v - np.nextafter(v, 0.0)) * (excess > 0.0)
    saturated = (u >= 1.0) | (_kl(u, _KL_TOP) <= c) | (np.abs(_kl(u, v) - c) > _KL_TOL)
    return np.where(c == 0.0, u, np.where(saturated, 1.0, v))


def kl_inv_with_grad(u, c):
    """(v, dv/du, dv/dc) for v = kl_inv(u, c), the partials by implicit
    differentiation at that v.  Array-capable, lane by lane.

    Requires 0 < u < 1 and c > 0 on every lane.  Where the inverse saturates
    at 1 the bound is locally constant and both partials are zero.
    """
    u_arr = np.asarray(u, dtype=float)
    c_arr = np.asarray(c, dtype=float)
    if not ((u_arr > 0.0) & (u_arr < 1.0)).all():
        raise ValueError("u must lie strictly inside (0, 1)")
    if not (c_arr > 0.0).all():
        raise ValueError("kl_inv_with_grad is singular at c = 0 (v = u)")
    v = np.asarray(kl_inv(u_arr, c_arr))
    u_arr = np.broadcast_to(u_arr, v.shape)
    gap = v - u_arr
    live = v < 1.0
    if (gap[live] <= 1e-15).any():
        raise ValueError("kl_inv_with_grad is singular: v coincides with u")
    with np.errstate(divide="ignore", invalid="ignore"):  # 1 - v = 0 where saturated
        dv_dc = np.where(live, v * (1.0 - v) / gap, 0.0)
        dv_du = np.where(
            live, -(np.log(u_arr / v) - np.log((1.0 - u_arr) / (1.0 - v))) * dv_dc, 0.0)
    if v.ndim == 0:
        return float(v), float(dv_du), float(dv_dc)
    return v, dv_du, dv_dc


def _dirichlet_kl_to(beta):
    """``dirichlet_kl`` against a fixed beta as a function of a float array
    alpha, beta's terms computed once.  alpha is not checked: a row with an
    entry that is not positive and finite, or whose KL overflows, is inf or NaN."""
    b = _positive_array(beta, "beta")
    if b.ndim != 1 or b.size < 2:
        raise ValueError("beta must be a 1-d vector of length >= 2")
    h_b, psi_b = _h_psi(np.append(b, b.sum()))

    def kl(a):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # alpha_0 rides along as the last column.
            h, psi = _h_psi(np.concatenate([a, a.sum(axis=-1, keepdims=True)], axis=-1))
            dh, dpsi = h - h_b, psi - psi_b
            return (dh[..., :-1].sum(axis=-1) - dh[..., -1]
                    - (b * (dpsi[..., :-1] - dpsi[..., -1:])).sum(axis=-1))

    return kl


def dirichlet_kl(alpha, beta):
    """KL(Dirichlet(alpha) || Dirichlet(beta)), lanewise over the rows of
    alpha: a float for a (d,) alpha, one value per row of an (n, d) one.

    With h(x) = x psi(x) - ln Gamma(x) - x and alpha_0 = sum_i alpha_i,
    KL = sum_i [h(alpha_i) - h(beta_i)] - [h(alpha_0) - h(beta_0)]
         - sum_i beta_i [(psi(alpha_i) - psi(beta_i)) - (psi(alpha_0) - psi(beta_0))],
    whose terms grow like ln alpha, where the textbook form's terms grow like
    alpha_0 ln alpha_0 and cancel.  Within 1.1e-14 (1 + |KL|) of 60-digit
    mpmath for alpha = K theta, K in [1e-3, 1e14], d in {2, 6, 108}, ones and
    non-uniform beta.  KL(alpha, alpha) is exactly 0.
    """
    kl = _dirichlet_kl_to(beta)
    a = _positive_array(alpha, "alpha")
    if a.ndim not in (1, 2) or a.shape[-1] != np.size(beta):
        raise ValueError("alpha rows and beta must have the same length")
    out = kl(a)
    return float(out) if a.ndim == 1 else out


def _simplex_array(theta, name: str, tol: float = 1e-9) -> np.ndarray:
    arr = np.asarray(theta, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{name} must be a 1-d vector of length >= 2")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError(f"{name} must be non-negative and finite")
    if abs(float(arr.sum()) - 1.0) > tol:
        raise ValueError(f"{name} must sum to 1")
    return arr


def categorical_kl_uniform(theta) -> float:
    """KL(Categorical(theta) || uniform) = ln d - H(theta) >= 0, with
    H(theta) = -sum_i theta_i ln theta_i and 0 ln 0 := 0.  Equal weights
    give exactly 0, where the difference would leave a rounding residue."""
    arr = _simplex_array(theta, "theta")
    if (arr == arr[0]).all():
        return 0.0
    pos = arr[arr > 0.0]
    return max(0.0, math.log(arr.size) + float(np.sum(pos * np.log(pos))))


def binomial_tail(N, p, k0):
    """P(X >= k0) for X ~ Binomial(N, p).

    Evaluated through the stable identity tail = I_p(k0, N - k0 + 1) for
    k0 >= 1; k0 <= 0 gives 1 and k0 > N gives 0.  Array-capable in p.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be a positive integer")
    k0 = int(k0)
    p_arr = _unit_array(p, "p")
    if k0 > N:
        out = np.zeros_like(p_arr)
    elif k0 <= 0:
        out = np.ones_like(p_arr)
    else:
        out = reg_inc_beta(p_arr, float(k0), float(N - k0 + 1))
    return float(out) if np.ndim(out) == 0 else out
