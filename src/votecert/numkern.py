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
    "log_gamma",
    "digamma",
    "trigamma",
    "log_multivariate_beta",
    "reg_inc_beta",
    "reg_inc_beta_with_grad",
    "small_kl",
    "kl_inv",
    "kl_inv_vec",
    "kl_inv_grad",
    "dirichlet_kl",
    "categorical_entropy",
    "categorical_kl_uniform",
    "binomial_tail",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Lanczos approximation, g = 7 with 9 coefficients (relative error ~1e-15
# over the positive reals once reflection handles x < 1/2).
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_BETACF_MAX_ITER = 2000
_BETACF_EPS = 1e-15
_FPMIN = 1e-300

# exp() underflows to zero below this; the incomplete beta is then 0 or 1
# to far better than the 1e-10 contract.
_LOG_UNDERFLOW = -745.0


def _positive_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive and finite")
    return arr


def _unit_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def _concentration_vector(x, name: str) -> np.ndarray:
    arr = _positive_array(x, name)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{name} must be a 1-d vector of length >= 2")
    return arr


def _lanczos_log_gamma(x: np.ndarray) -> np.ndarray:
    # Valid for x >= 0.5.
    series = np.full_like(x, _LANCZOS[0])
    for i in range(1, len(_LANCZOS)):
        series = series + _LANCZOS[i] / (x - 1.0 + i)
    t = x + 6.5
    return _HALF_LOG_2PI + (x - 0.5) * np.log(t) - t + np.log(series)


def log_gamma(x):
    """ln Gamma(x) for x > 0.  Array-capable."""
    arr = _positive_array(x, "x")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float, copy=True)
    out = np.empty_like(arr)
    small = arr < 0.5
    if small.any():
        xs = arr[small]
        # Reflection keeps the Lanczos argument >= 0.5.
        out[small] = np.log(np.pi / np.sin(np.pi * xs)) - _lanczos_log_gamma(1.0 - xs)
    big = ~small
    if big.any():
        out[big] = _lanczos_log_gamma(arr[big])
    return float(out[0]) if scalar else out


def _lifted_series(x: np.ndarray, shift_term, series):
    """Recurrence-lift x to >= 6, accumulating shift_term, then apply series."""
    z = x.copy()
    shift = np.zeros_like(z)
    for _ in range(6):  # at most 6 unit lifts are needed for any x > 0
        mask = z < 6.0
        if not mask.any():
            break
        shift[mask] += shift_term(z[mask])
        z[mask] += 1.0
    return shift + series(z)


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0.  Array-capable."""
    arr = _positive_array(x, "x")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float, copy=True)

    def series(z):
        inv = 1.0 / z
        inv2 = inv * inv
        # Asymptotic expansion, Bernoulli terms through z^-14.
        tail = inv2 * (
            1.0 / 12.0
            - inv2 * (
                1.0 / 120.0
                - inv2 * (
                    1.0 / 252.0
                    - inv2 * (
                        1.0 / 240.0
                        - inv2 * (
                            1.0 / 132.0
                            - inv2 * (691.0 / 32760.0 - inv2 * (1.0 / 12.0))
                        )
                    )
                )
            )
        )
        return np.log(z) - 0.5 * inv - tail

    out = _lifted_series(arr, lambda z: -1.0 / z, series)
    return float(out[0]) if scalar else out


def trigamma(x):
    """psi'(x) for x > 0; exact Dirichlet-KL gradients need it.  Array-capable."""
    arr = _positive_array(x, "x")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float, copy=True)

    def series(z):
        inv = 1.0 / z
        inv2 = inv * inv
        tail = inv * inv2 * (
            1.0 / 6.0
            - inv2 * (
                1.0 / 30.0
                - inv2 * (
                    1.0 / 42.0
                    - inv2 * (
                        1.0 / 30.0
                        - inv2 * (
                            5.0 / 66.0
                            - inv2 * (691.0 / 2730.0 - inv2 * (7.0 / 6.0))
                        )
                    )
                )
            )
        )
        return inv + 0.5 * inv2 + tail

    out = _lifted_series(arr, lambda z: 1.0 / (z * z), series)
    return float(out[0]) if scalar else out


def log_multivariate_beta(alpha) -> float:
    """ln B(alpha) = sum_i ln Gamma(alpha_i) - ln Gamma(sum_i alpha_i)."""
    arr = _concentration_vector(alpha, "alpha")
    return float(np.sum(log_gamma(arr)) - log_gamma(float(arr.sum())))


def _beta_cont_frac(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Modified Lentz continued fraction for the incomplete beta.

    Inputs are 1-d arrays with 0 < z <= (a + 1) / (a + b + 2) elementwise,
    which is the rapidly-converging regime.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(z)
    d = 1.0 - qab * z / qap
    d[np.abs(d) < _FPMIN] = _FPMIN
    d = 1.0 / d
    h = d.copy()
    out = np.empty_like(z)
    done = np.zeros(z.shape, dtype=bool)
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * z / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = 1.0 + aa / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        h = h * d * c
        aa = -(a + m) * (qab + m) * z / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = 1.0 + aa / c
        c[np.abs(c) < _FPMIN] = _FPMIN
        d = 1.0 / d
        delta = d * c
        h = h * delta
        newly = ~done & (np.abs(delta - 1.0) < _BETACF_EPS)
        if newly.any():
            # Freeze converged lanes so further iterations cannot drift them.
            out[newly] = h[newly]
            done |= newly
            if done.all():
                break
    if not done.all():
        out[~done] = h[~done]
    return out


def _inc_beta_lower(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """I_z(a, b) on lanes already in the convergent regime (see above)."""
    log_front = (
        a * np.log(z)
        + b * np.log1p(-z)
        - (log_gamma(a) + log_gamma(b) - log_gamma(a + b))
    )
    out = np.zeros_like(z)
    live = log_front > _LOG_UNDERFLOW
    if live.any():
        cf = _beta_cont_frac(a[live], b[live], z[live])
        out[live] = np.exp(log_front[live]) * cf / a[live]
    return out


def reg_inc_beta(z, a, b):
    """Regularised incomplete beta I_z(a, b), the Beta(a, b) CDF at z.

    Continued-fraction evaluation with the symmetry swap at
    z > (a + 1)/(a + b + 2).  Array-capable; absolute error <= 1e-10 across
    the parameter ranges the certificate search explores.
    """
    z_arr = _unit_array(z, "z")
    a_arr = _positive_array(a, "a")
    b_arr = _positive_array(b, "b")
    zb, ab, bb = np.broadcast_arrays(z_arr, a_arr, b_arr)
    scalar = zb.ndim == 0
    zf = np.atleast_1d(zb).astype(float).ravel()
    af = np.atleast_1d(ab).astype(float).ravel()
    bf = np.atleast_1d(bb).astype(float).ravel()

    out = np.empty_like(zf)
    at_zero = zf == 0.0
    at_one = zf == 1.0
    out[at_zero] = 0.0
    out[at_one] = 1.0
    interior = ~(at_zero | at_one)
    swap = interior & (zf > (af + 1.0) / (af + bf + 2.0))
    keep = interior & ~swap
    if keep.any():
        out[keep] = _inc_beta_lower(af[keep], bf[keep], zf[keep])
    if swap.any():
        out[swap] = 1.0 - _inc_beta_lower(bf[swap], af[swap], 1.0 - zf[swap])
    out = np.clip(out, 0.0, 1.0)
    if scalar:
        return float(out[0])
    return out.reshape(zb.shape)


def reg_inc_beta_with_grad(z, a, b):
    """(I_z(a, b), dI_z/da, dI_z/db) with the partials by central differences.

    Steps are h = 1e-5 * max(1, parameter), halved if they would leave the
    positive domain.  At z in {0, 1} the CDF is constant in (a, b), so both
    partials are zero.  The five required CDF evaluations run as one stacked
    call.  Array-capable.
    """
    z_arr = _unit_array(z, "z")
    a_arr = _positive_array(a, "a")
    b_arr = _positive_array(b, "b")
    zb, ab, bb = np.broadcast_arrays(z_arr, a_arr, b_arr)
    scalar = zb.ndim == 0
    zf = np.atleast_1d(zb).astype(float)
    af = np.atleast_1d(ab).astype(float)
    bf = np.atleast_1d(bb).astype(float)
    ha = np.minimum(1e-5 * np.maximum(1.0, af), af / 2.0)
    hb = np.minimum(1e-5 * np.maximum(1.0, bf), bf / 2.0)
    A = np.stack([af, af + ha, af - ha, af, af])
    B = np.stack([bf, bf, bf, bf + hb, bf - hb])
    vals = reg_inc_beta(np.broadcast_to(zf, A.shape), A, B)
    value = vals[0]
    d_a = (vals[1] - vals[2]) / (2.0 * ha)
    d_b = (vals[3] - vals[4]) / (2.0 * hb)
    if scalar:
        return float(value[0]), float(d_a[0]), float(d_b[0])
    shape = zb.shape
    return value.reshape(shape), d_a.reshape(shape), d_b.reshape(shape)


def small_kl(q, p) -> float:
    """kl(q, p) between Bernoulli(q) and Bernoulli(p), with 0 ln 0 := 0.

    Saturates to +inf when p is on the boundary and q differs; callers clip
    bound values at 1 instead of treating that as an error.
    """
    q = float(q)
    p = float(p)
    if math.isnan(q) or not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if q > 0.0:
        if p == 0.0:
            return math.inf
        first = q * math.log(q / p)
    else:
        first = 0.0
    if q < 1.0:
        if p == 1.0:
            return math.inf
        second = (1.0 - q) * math.log((1.0 - q) / (1.0 - p))
    else:
        second = 0.0
    return first + second


def kl_inv(u, c) -> float:
    """sup{v in [u, 1] : kl(u, v) <= c}, by bisection.

    The returned v either satisfies |kl(u, v) - c| <= 1e-9 or is the
    saturating value 1.0 (used whenever the true inverse is closer to 1 than
    float64 can certify; 1.0 is always a valid upper value).
    """
    u = float(u)
    c = float(c)
    if math.isnan(u) or not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    if math.isnan(c) or c < 0.0:
        raise ValueError("c must be non-negative")
    if u >= 1.0:
        return 1.0
    if c == 0.0:
        return u
    if math.isinf(c):
        return 1.0

    log = math.log
    rest = 1.0 - u

    def kl_at(v: float) -> float:
        second = rest * log(rest / (1.0 - v))
        if u == 0.0:
            return second
        return u * log(u / v) + second

    top = math.nextafter(1.0, 0.0)
    if kl_at(top) <= c:
        return 1.0
    lo, hi = u, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if kl_at(mid) <= c:
            lo = mid
        else:
            hi = mid
    if lo < 1.0 and c - kl_at(max(lo, 1e-300)) > 1e-9:
        # v is pinned against float resolution near 1; saturate.
        return 1.0
    return lo


def kl_inv_vec(u, c) -> np.ndarray:
    """Vectorised kl_inv for the certificate search; same contract lanewise."""
    u_arr = _unit_array(u, "u")
    c_arr = np.asarray(c, dtype=float)
    if np.any(np.isnan(c_arr)) or np.any(c_arr < 0.0):
        raise ValueError("c must be non-negative")
    ub, cb = np.broadcast_arrays(u_arr, c_arr)
    uf = np.atleast_1d(ub).astype(float).ravel()
    cf = np.atleast_1d(cb).astype(float).ravel()
    out = np.empty_like(uf)

    rest = 1.0 - uf

    def kl_at(v: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            first = np.where(uf > 0.0, uf * np.log(uf / np.maximum(v, _FPMIN)), 0.0)
            second = np.where(rest > 0.0, rest * np.log(rest / (1.0 - v)), 0.0)
        return first + second

    top = math.nextafter(1.0, 0.0)
    saturated = (uf >= 1.0) | np.isinf(cf) | (kl_at(np.full_like(uf, top)) <= cf)
    trivial = cf == 0.0
    out[saturated] = 1.0
    out[trivial & ~saturated] = uf[trivial & ~saturated]
    active = ~(saturated | trivial)
    if active.any():
        ua, ca = uf[active], cf[active]
        ra = rest[active]
        lo = ua.copy()
        hi = np.ones_like(ua)

        def kl_active(v):
            with np.errstate(divide="ignore", invalid="ignore"):
                first = np.where(ua > 0.0, ua * np.log(ua / np.maximum(v, _FPMIN)), 0.0)
            return first + ra * np.log(ra / (1.0 - v))

        for _ in range(200):
            mid = 0.5 * (lo + hi)
            movable = (mid > lo) & (mid < hi)
            if not movable.any():
                break
            le = kl_active(mid) <= ca
            lo = np.where(movable & le, mid, lo)
            hi = np.where(movable & ~le, mid, hi)
        res = lo.copy()
        res[(lo < 1.0) & (ca - kl_active(lo) > 1e-9)] = 1.0
        out[active] = res
    return out.reshape(ub.shape) if ub.ndim else float(out[0])


def kl_inv_grad(u, c):
    """(dv/du, dv/dc) for v = kl_inv(u, c), by implicit differentiation.

    Requires 0 < u < 1 and c > 0.  When the inverse saturates at 1 the bound
    is locally constant and both partials are zero.
    """
    u = float(u)
    c = float(c)
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie strictly inside (0, 1)")
    if not c > 0.0:
        raise ValueError("kl_inv_grad is singular at c = 0 (v = u)")
    v = kl_inv(u, c)
    if v >= 1.0:
        return 0.0, 0.0
    gap = v - u
    if gap <= 1e-15:
        raise ValueError("kl_inv_grad is singular: v coincides with u")
    scale = v * (1.0 - v) / gap
    dv_dc = scale
    dv_du = -(math.log(u / v) - math.log((1.0 - u) / (1.0 - v))) * scale
    return dv_du, dv_dc


def dirichlet_kl(alpha, beta) -> float:
    """KL divergence between Dirichlet(alpha) and Dirichlet(beta).

    ln(B(beta)/B(alpha)) + sum_i (alpha_i - beta_i)(psi(alpha_i) - psi(alpha_0))
    with alpha_0 = sum_i alpha_i.  Non-negative up to ~1e-10 rounding.
    """
    a = _concentration_vector(alpha, "alpha")
    b = _concentration_vector(beta, "beta")
    if a.shape != b.shape:
        raise ValueError("alpha and beta must have the same length")
    a0 = float(a.sum())
    centered = digamma(a) - digamma(a0)
    return float(
        log_multivariate_beta(b) - log_multivariate_beta(a) + np.dot(a - b, centered)
    )


def _simplex_array(theta, name: str, tol: float = 1e-9) -> np.ndarray:
    arr = np.asarray(theta, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{name} must be a 1-d vector of length >= 2")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError(f"{name} must be non-negative and finite")
    if abs(float(arr.sum()) - 1.0) > tol:
        raise ValueError(f"{name} must sum to 1")
    return arr


def categorical_entropy(theta) -> float:
    """H(theta) = -sum_i theta_i ln theta_i with 0 ln 0 := 0."""
    arr = _simplex_array(theta, "theta")
    pos = arr[arr > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def categorical_kl_uniform(theta) -> float:
    """KL(Categorical(theta) || uniform) = ln d - H(theta) >= 0."""
    arr = _simplex_array(theta, "theta")
    return max(0.0, math.log(arr.size) - categorical_entropy(arr))


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
