"""Numeric kernel tests: closed forms, independent oracles, and invariants."""
import math
import tracemalloc
import warnings
from decimal import Decimal, getcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from votecert import numkern as nk
from votecert.votes import WeightPosterior

from conftest import mpmath_dirichlet_kl, small_kl

EULER_GAMMA = 0.5772156649015329


def series_log_gamma(x):
    """ln Gamma from the psi/h series, the incomplete beta's only path to it."""
    return nk._series(np.atleast_1d(np.asarray(x, dtype=float)))[2]


def psi(x):
    """psi from the (h, psi) series that the Dirichlet KL uses."""
    out = nk._h_psi(np.asarray(x, dtype=float))[1]
    return float(out) if out.ndim == 0 else out


class TestLogGamma:
    def test_known_values(self):
        got = series_log_gamma([1.0, 2.0, 0.5])
        assert got[0] == pytest.approx(0.0, abs=1e-14)
        assert got[1] == pytest.approx(0.0, abs=1e-14)
        assert got[2] == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    def test_accuracy_over_range(self):
        """Absolute-or-relative error <= 1e-12 against the library reference
        across [1e-6, 1e6]."""
        xs = np.logspace(-6, 6, 500)
        for got, x in zip(series_log_gamma(xs), xs):
            ref = math.lgamma(x)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_subnormal_argument(self):
        """ln Gamma(x) = -ln x - Euler x + O(x^2), finite down to 1e-310."""
        x = 1e-310
        assert series_log_gamma(x)[0] == pytest.approx(-math.log(x), rel=1e-12)


class TestDigamma:
    """psi through ``_h_psi``, the path the Dirichlet KL takes, and psi'."""

    def test_psi_one_is_minus_euler(self):
        assert psi(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_psi_half_closed_form(self):
        assert psi(0.5) == pytest.approx(
            -EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12
        )

    def test_recurrence(self):
        """psi(x + 1) = psi(x) + 1/x, including the x = 3.7 check point."""
        assert psi(3.7) == pytest.approx(psi(2.7) + 1 / 2.7, abs=1e-12)
        rng = np.random.default_rng(0)
        for x in rng.uniform(1e-3, 60.0, 200):
            assert psi(x + 1.0) - psi(x) == pytest.approx(
                1.0 / x, abs=1e-12
            )

    def test_trigamma_against_derivative(self):
        assert nk.trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-11)
        for x in (0.3, 1.7, 6.5, 40.0):
            fd = (psi(x + 5e-6) - psi(x - 5e-6)) / 1e-5
            assert nk.trigamma(x) == pytest.approx(fd, rel=1e-6)

    def test_trigamma_overflows_to_inf_quietly(self):
        """psi'(x) ~ 1/x^2 passes the largest double below x ~ 7.5e-155: the
        correctly rounded value is inf, with no RuntimeWarning, in a scalar
        call and in an array call next to finite lanes."""
        tiny = [1e-160, 1e-300, 5e-324]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in tiny:
                assert nk.trigamma(x) == math.inf
            got = nk.trigamma(np.array(tiny + [1e-150, 0.5]))
        assert np.array_equal(got[:3], np.full(3, math.inf))
        assert got[3] == pytest.approx(1e300, rel=1e-12)
        assert got[4] == pytest.approx(math.pi**2 / 2.0, rel=1e-14)

    def test_lanes_against_mpmath(self):
        """psi and psi' over [1e-6, 1e6], one array call each, lifted and
        unlifted lanes alike: absolute-or-relative error <= 1e-14."""
        xs = np.concatenate([np.logspace(-6, 6, 300), np.linspace(0.05, 16.0, 300)])
        for got, ref in ((psi(xs), mpmath.digamma),
                         (nk.trigamma(xs), lambda x: mpmath.polygamma(1, x))):
            for g, x in zip(got, xs):
                want = float(ref(mpmath.mpf(float(x))))
                assert abs(g - want) <= 1e-14 * max(1.0, abs(want))


def beta_cdf_quadrature(z: float, a: float, b: float) -> float:
    """Adaptive quadrature of the Beta density with endpoint-weight handling."""
    if z <= 0.0:
        return 0.0
    if z >= 1.0:
        return 1.0
    ln_B = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    val, _ = integrate.quad(
        lambda t: (1.0 - t) ** (b - 1.0), 0.0, z, weight="alg", wvar=(a - 1.0, 0.0)
    )
    return val * math.exp(-ln_B)


class TestRegIncBeta:
    def test_uniform_cdf(self):
        for z in np.linspace(0.0, 1.0, 21):
            assert nk.reg_inc_beta(float(z), 1.0, 1.0) == pytest.approx(z, abs=1e-13)

    def test_symmetric_half(self):
        for a in (0.3, 1.0, 7.5, 133.0):
            assert nk.reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-12)

    def test_against_quadrature_case(self):
        # Beta(2, 3) integral to 0.6 has the exact value 0.8208.
        assert nk.reg_inc_beta(0.6, 2.0, 3.0) == pytest.approx(0.8208, abs=1e-12)
        assert beta_cdf_quadrature(0.6, 2.0, 3.0) == pytest.approx(0.8208, abs=1e-10)

    def test_symmetry_identity_random_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            z = rng.uniform(0.01, 0.99)
            a = math.exp(rng.uniform(math.log(0.05), math.log(500.0)))
            b = math.exp(rng.uniform(math.log(0.05), math.log(500.0)))
            total = nk.reg_inc_beta(z, a, b) + nk.reg_inc_beta(1.0 - z, b, a)
            assert abs(total - 1.0) <= 1e-10

    def test_monotonicity(self):
        zs = np.linspace(0.05, 0.95, 10)
        vals = nk.reg_inc_beta(zs, 2.5, 4.0)
        assert np.all(np.diff(vals) > 0)
        a_grid = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        in_a = nk.reg_inc_beta(0.4, a_grid, 3.0)
        assert np.all(np.diff(in_a) < 1e-15)  # non-increasing in a
        in_b = nk.reg_inc_beta(0.4, 3.0, a_grid)
        assert np.all(np.diff(in_b) > -1e-15)  # non-decreasing in b

    @pytest.mark.parametrize("k", [1e-300, 1e-310, 1e-315, 1e-320])
    def test_tiny_parameters(self, k):
        """As a, b -> 0 the Beta mass sits at the ends, I_z(a, b) -> b/(a + b)."""
        assert nk.reg_inc_beta(0.6, k, 2.0 * k) == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e3, 1e4])
    def test_lanes_against_scipy(self, scale):
        """200 lanes at a, b = scale e^U(-1, 1), z at random Beta quantiles,
        one array call: absolute error <= 1e-10."""
        rng = np.random.default_rng(int(math.log10(scale)))
        a, b = scale * np.exp(rng.uniform(-1.0, 1.0, (2, 200)))
        z = special.betaincinv(a, b, rng.uniform(0.0, 1.0, 200))
        assert np.max(np.abs(nk.reg_inc_beta(z, a, b) - special.betainc(a, b, z))) <= 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nk.reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            nk.reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            nk.reg_inc_beta(0.5, 1.0, -2.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                nk.reg_inc_beta(0.5, bad, 1.0)


def lockstep_cont_frac(a, b, z):
    """The Lentz loop as it ran before lanes left it: every lane in lockstep
    until the slowest converges, a converged lane frozen at its first
    convergence.  Returns (values, iteration each lane froze at, 0 where
    it never converged)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(z)
    d = 1.0 - qab * z / qap
    d[np.abs(d) < nk._FPMIN] = nk._FPMIN
    d = 1.0 / d
    h = d.copy()
    out = np.empty_like(z)
    froze = np.full(z.shape, -1)
    done = np.zeros(z.shape, dtype=bool)
    for m in range(1, nk._BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * z / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < nk._FPMIN] = nk._FPMIN
        c = 1.0 + aa / c
        c[np.abs(c) < nk._FPMIN] = nk._FPMIN
        d = 1.0 / d
        h = h * d * c
        aa = -(a + m) * (qab + m) * z / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d[np.abs(d) < nk._FPMIN] = nk._FPMIN
        c = 1.0 + aa / c
        c[np.abs(c) < nk._FPMIN] = nk._FPMIN
        d = 1.0 / d
        delta = d * c
        h = h * delta
        newly = ~done & (np.abs(delta - 1.0) < nk._BETACF_EPS)
        out[newly] = h[newly]
        froze[newly] = m
        done |= newly
        if done.all():
            break
    out[~done] = h[~done]
    return out, froze


def two_call_inc_beta_lower(a, b, z):
    """I_z(a, b) on convergent-regime lanes, prefactor and continued
    fraction as in the kernel, the Lentz loop run in lockstep."""
    ln_gamma_a, ln_gamma_b, ln_gamma_ab = nk._series(np.concatenate([a, b, a + b]))[2].reshape(3, -1)
    log_front = a * np.log(z) + b * np.log1p(-z) - (ln_gamma_a + ln_gamma_b - ln_gamma_ab)
    out = np.zeros_like(z)
    froze = np.zeros(z.shape, dtype=int)
    live = log_front > nk._LOG_UNDERFLOW
    if live.any():
        front, a_live = log_front[live], a[live]
        cf, froze[live] = lockstep_cont_frac(a_live, b[live], z[live])
        val = np.exp(front) * cf / a_live
        sub = front < nk._LOG_NORMAL_MIN
        if sub.any():
            val[sub] = np.exp(front[sub] - np.log(a_live[sub])) * cf[sub]
        out[live] = val
    return out, froze


def two_call_reg_inc_beta(z, a, b):
    """Reference for ``reg_inc_beta`` on 1-d lanes: the kept lanes and the
    swapped lanes (z > (a + 1)/(a + b + 2), evaluated as 1 - I_{1-z}(b, a))
    in two separate passes, each with its own lockstep Lentz loop.  Returns
    (values, iteration each lane's continued fraction froze at)."""
    out = np.empty_like(z)
    froze = np.zeros(z.shape, dtype=int)
    at_zero, at_one = z == 0.0, z == 1.0
    out[at_zero] = 0.0
    out[at_one] = 1.0
    interior = ~(at_zero | at_one)
    swap = interior & (z > (a + 1.0) / (a + b + 2.0))
    keep = interior & ~swap
    if keep.any():
        out[keep], froze[keep] = two_call_inc_beta_lower(a[keep], b[keep], z[keep])
    if swap.any():
        lower, froze[swap] = two_call_inc_beta_lower(b[swap], a[swap], 1.0 - z[swap])
        out[swap] = 1.0 - lower
    return np.clip(out, 0.0, 1.0), froze


def assert_bitwise_equal(x, y):
    assert x.shape == y.shape
    assert np.array_equal(x.view(np.int64), y.view(np.int64))


@st.composite
def beta_lanes(draw):
    """1 to 12 (z, a, b) lanes of four kinds: a, b at a scale in [1e-3, 1e6];
    in the subnormal-prefactor band (<= 1e-315); integers in [1, 60], where
    the Lentz numerator m (b - m) is exactly 0 at m = b; or, about one lane
    in 32, a = b in [1e7, 1e8] with z within 1e-6 of 1/2, a straggler that
    runs 1,000 to 2,000 iterations.  The other kinds put z on either side of
    the swap line (a + 1)/(a + b + 2), or at 0 or 1."""
    lanes = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.integers(0, 31))
        if kind == 31:
            a = b = 10.0 ** draw(st.floats(7.0, 8.0))
            lanes.append((0.5 + 1e-6 * draw(st.floats(-1.0, 1.0)), a, b))
            continue
        if kind < 8:
            a, b = (float(draw(st.integers(1, 60))) for _ in range(2))
        elif kind < 20:
            scale = 10.0 ** draw(st.floats(-3.0, 6.0))
            a, b = (scale * math.exp(draw(st.floats(-1.0, 1.0))) for _ in range(2))
        else:
            a, b = (draw(st.floats(5e-324, 1e-315)) for _ in range(2))
        split = (a + 1.0) / (a + b + 2.0)
        t = draw(st.floats(0.0, 1.0, exclude_min=True))
        side = draw(st.sampled_from(["keep", "swap", "end"]))
        if side == "keep":
            z = split * t
        elif side == "swap":
            z = min(split + (1.0 - split) * t, 1.0)
        else:
            z = float(t >= 0.5)
        lanes.append((z, a, b))
    return np.array(lanes).T


class TestOnePassIncBeta:
    """``reg_inc_beta`` runs kept and swapped lanes through one prefactor pass
    and one Lentz loop whose converged lanes leave at block ends; every lane
    must still round exactly as in the two-call lockstep form."""

    @settings(max_examples=300, deadline=None)
    @given(lanes=beta_lanes())
    def test_equals_two_call_form(self, lanes):
        z, a, b = lanes
        got = nk.reg_inc_beta(z, a, b)
        assert_bitwise_equal(got, two_call_reg_inc_beta(z, a, b)[0])
        for i in range(z.size):
            assert_bitwise_equal(np.float64(nk.reg_inc_beta(z[i], a[i], b[i])), got[i])

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2, 1e4, 1e6])
    def test_wide_array_equals_two_call_form(self, scale):
        """20,000 lanes per scale: more than one chunk of lanes, and wide
        enough that the first blocks hold fewer than 8 iterations; half the
        z at random Beta quantiles, half uniform."""
        n = 20_000
        assert n > nk._LANE_CHUNK > nk._BETACF_BLOCK_SIZE // nk._BETACF_BLOCK_ROWS
        rng = np.random.default_rng(int(math.log10(scale)) + 3)
        a, b = scale * np.exp(rng.uniform(-1.0, 1.0, (2, n)))
        z = rng.uniform(0.0, 1.0, n)
        near = rng.random(n) < 0.5
        z[near] = special.betaincinv(a[near], b[near], rng.uniform(0.0, 1.0, near.sum()))
        assert_bitwise_equal(nk.reg_inc_beta(z, a, b), two_call_reg_inc_beta(z, a, b)[0])

    def test_straggler_and_compaction(self):
        """An unconverged lane (a = b = 1e8 at z = 1/2 runs all 2,000
        iterations) beside lanes that converge in different blocks: lanes
        leaving the working arrays must not disturb a survivor's d, c or h,
        and the straggler returns its last iterate."""
        a = np.array([1e8, 0.5, 3.0, 40.0, 700.0, 9e3, 2e5, 4e6, 1e7, 1e8])
        b = np.array([1e8, 2.0, 5.0, 60.0, 500.0, 1.1e4, 3e5, 6e6, 1e7, 1e8])
        z = np.array([0.5, 0.1, 0.3, 0.45, 0.6, 0.44, 0.401, 0.4001, 0.5, 0.5])
        want, froze = two_call_reg_inc_beta(z, a, b)
        assert list(froze[[0, -1]]) == [-1, -1]  # unconverged after 2,000
        blocks = set(froze[1:-1] // nk._BETACF_BLOCK_ROWS)
        assert len(blocks) >= 7  # the others leave at different block ends
        assert_bitwise_equal(nk.reg_inc_beta(z, a, b), want)
        assert_bitwise_equal(nk.reg_inc_beta(z[::-1], a[::-1], b[::-1]), want[::-1])

    def test_lanes_that_need_the_guard(self):
        """Lanes on which Lentz's guard fires: 1 + aa d or 1 + aa / c is
        exactly 0 within a few iterations.  No lane of the convergent regime
        was found to do that (none of its 914,675 lanes with a and b
        multiples of 1/2 up to 60 and z a multiple of 1/128), so these lie
        above it, where small a, b and dyadic z hit exact zeros.  The
        guard-free pass returns them NaN, and the guarded pass must give the
        lockstep reference's finite values."""
        a = np.array([1.0, 1.0, 2.0, 0.5, 1.0, 1.5])
        b = np.array([4.0, 7.0, 8.0, 2.5, 2.0, 7.5])
        z = np.array([0.5, 0.5, 0.5, 0.625, 0.75, 0.5])
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.isnan(nk._lentz(a, b, z, guard=False)).all()
        want = lockstep_cont_frac(a, b, z)[0]
        assert np.isfinite(want).all()
        assert_bitwise_equal(nk._beta_cont_frac(a, b, z), want)

    def test_zero_or_nonfinite_lanes_run_guarded(self, monkeypatch):
        """A lane whose guard-free value is zero or not finite, as an exact
        zero Lentz denominator leaves it, runs again through the guarded
        loop.  Here the guard-free pass returns 0, NaN and +-inf on chosen
        lanes; those lanes alone run guarded, and every lane must equal the
        lockstep reference."""
        rng = np.random.default_rng(7)
        n = 40
        a, b = np.exp(rng.uniform(math.log(0.5), math.log(1e4), (2, n)))
        z = rng.uniform(0.0, 1.0, n) * (a + 1.0) / (a + b + 2.0)
        broken = {3: 0.0, 17: math.nan, 29: math.inf, 30: -math.inf}
        lentz, guarded = nk._lentz, []

        def guard_free_breaks(a, b, z, guard):
            out = lentz(a, b, z, guard)
            if guard:
                guarded.append(z.copy())
            else:
                out[list(broken)] = list(broken.values())
            return out

        monkeypatch.setattr(nk, "_lentz", guard_free_breaks)
        got = nk._beta_cont_frac(a, b, z)
        assert len(guarded) == 1
        assert_bitwise_equal(guarded[0], z[sorted(broken)])
        assert_bitwise_equal(got, lockstep_cont_frac(a, b, z)[0])

    def test_boundary_lanes_across_a_chunk(self):
        """z = 0 and z = 1 lanes among interior lanes, on both sides of a
        ``_LANE_CHUNK`` boundary, take the kernel's own path: z = 0 through
        the prefactor's underflow, z = 1 through the swap, also at
        a = 1e17, b = 1, where (a + 1)/(a + b + 2) rounds to 1.  Each is
        exactly 0.0 or 1.0, equals its one-lane call bit for bit, and warns
        nothing; the interior lanes equal the call without them."""
        edge = [(1.0, 1e17, 1.0), (0.0, 1e-300, 1.0), (0.0, 1e17, 1.0), (1.0, 1e-300, 2.0),
                (0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.0, 3.0, 1e17), (1.0, 2.0, 3.0)]
        assert (1e17 + 1.0) / (1e17 + 1.0 + 2.0) == 1.0
        n = nk._LANE_CHUNK + 64
        rng = np.random.default_rng(11)
        a, b = np.exp(rng.uniform(math.log(0.5), math.log(1e4), (2, n)))
        z = rng.uniform(0.01, 0.99, n)
        at = nk._LANE_CHUNK + np.arange(-4, 4)
        z[at], a[at], b[at] = np.array(edge).T
        inner = np.setdiff1d(np.arange(n), at)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = nk.reg_inc_beta(z, a, b)
            assert_bitwise_equal(got[inner], nk.reg_inc_beta(z[inner], a[inner], b[inner]))
            for i, (zi, ai, bi) in zip(at, edge):
                one = nk.reg_inc_beta(zi, ai, bi)
                assert one == zi and got[i] == zi
                assert_bitwise_equal(np.float64(one), got[i])

    @pytest.mark.parametrize("n", [8192, 16384])
    def test_footprint(self, n):
        """The traced peak of one continued-fraction call is at most 20
        float64 per lane beside the three numerator blocks of
        ``_BETACF_BLOCK_SIZE`` elements: 2.0 MiB at 8,192 lanes and 3.25 MiB
        at 16,384, where the loop that copied its nine working rows at each
        compaction peaked at 2.12 and 3.48 MiB on these lanes."""
        rng = np.random.default_rng(n)
        a, b = np.exp(rng.uniform(math.log(0.5), math.log(1e4), (2, n)))
        z = rng.uniform(0.0, 1.0, n) * (a + 1.0) / (a + b + 2.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            nk._beta_cont_frac(a, b, z)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (20 * n + 3 * nk._BETACF_BLOCK_SIZE)


class TestLogBetaArgument:
    """``reg_inc_beta`` with ln B(a, b) passed in, as the Beta-CDF searches
    pass it once per (K, row mass) for the margin lanes that share them,
    returns what it computes on its own, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(lanes=beta_lanes())
    def test_equals_call_without_it(self, lanes):
        z, a, b = lanes
        log_beta = nk._log_beta(a, b)
        assert_bitwise_equal(log_beta, nk._log_beta(b, a))
        assert_bitwise_equal(nk.reg_inc_beta(z, a, b, log_beta=log_beta),
                             nk.reg_inc_beta(z, a, b))

    @pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2, 1e4, 1e6])
    def test_once_per_pair(self, scale):
        """400 (a, b) pairs, each at 50 margins z = 1/2 + gamma, with ln B
        computed once per pair and broadcast over the margins."""
        rng = np.random.default_rng(int(math.log10(scale)) + 2)
        a, b = scale * np.exp(rng.uniform(-1.0, 1.0, (2, 400)))
        z = 0.5 + np.geomspace(1e-4, 0.5, 50, endpoint=False)[:, None]
        got = nk.reg_inc_beta(z, a, b, log_beta=nk._log_beta(a, b))
        assert_bitwise_equal(got, nk.reg_inc_beta(z, a, b))


def dIda_quadrature(z: float, a: float, b: float) -> float:
    """d/da I_z(a,b) by differentiating under the integral sign; the ln t
    factor rides in the quadrature weight to absorb the endpoint singularity."""
    ln_B = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    psi_term = psi(a) - psi(a + b)
    log_piece, _ = integrate.quad(
        lambda t: (1.0 - t) ** (b - 1.0),
        0.0, z, weight="alg-loga", wvar=(a - 1.0, 0.0),
    )
    return log_piece * math.exp(-ln_B) - psi_term * beta_cdf_quadrature(z, a, b)


class TestRegIncBetaGrad:
    def test_boundary_is_flat(self):
        assert nk.reg_inc_beta_with_grad(1.0, 2.0, 3.0)[1:] == (0.0, 0.0)
        assert nk.reg_inc_beta_with_grad(0.0, 2.0, 3.0)[1:] == (0.0, 0.0)

    def test_symmetric_point_partials_mirror(self):
        for a in (0.7, 2.0, 11.0):
            _, d_a, d_b = nk.reg_inc_beta_with_grad(0.5, a, a)
            assert d_a == pytest.approx(-d_b, rel=1e-6)

    def test_against_quadrature_derivative(self):
        _, d_a, _ = nk.reg_inc_beta_with_grad(0.6, 2.0, 3.0)
        assert d_a == pytest.approx(dIda_quadrature(0.6, 2.0, 3.0), rel=1e-6)

    def test_with_grad_matches_plain(self):
        val, d_a, d_b = nk.reg_inc_beta_with_grad(0.37, 1.8, 6.0)
        assert val == pytest.approx(nk.reg_inc_beta(0.37, 1.8, 6.0), abs=1e-14)
        _, g_a, g_b = nk.reg_inc_beta_with_grad(np.array([0.37]), 1.8, 6.0)
        assert (d_a, d_b) == (g_a[0], g_b[0])

    def test_matches_independent_finite_differences_over_range(self):
        """Relative agreement <= 1e-5 with a finer-step central difference
        across a in [0.1, 1e3], skipping negligible derivatives."""
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(60):
            z = float(rng.uniform(0.1, 0.9))
            a = math.exp(rng.uniform(math.log(0.1), math.log(1e3)))
            b = math.exp(rng.uniform(math.log(0.1), math.log(1e3)))
            _, d_a, d_b = nk.reg_inc_beta_with_grad(z, a, b)
            ha, hb = 1e-6 * max(1.0, a), 1e-6 * max(1.0, b)
            fd_a = (nk.reg_inc_beta(z, a + ha, b) - nk.reg_inc_beta(z, a - ha, b)) / (2 * ha)
            fd_b = (nk.reg_inc_beta(z, a, b + hb) - nk.reg_inc_beta(z, a, b - hb)) / (2 * hb)
            for got, fd in ((d_a, fd_a), (d_b, fd_b)):
                if abs(fd) > 1e-7:
                    assert got == pytest.approx(fd, rel=1e-5)
                    checked += 1
        assert checked >= 40


def small_kl_decimal(q: str, p: str) -> float:
    """50-digit evaluation of the Bernoulli KL divergence."""
    getcontext().prec = 50
    q_d, p_d = Decimal(q), Decimal(p)
    one = Decimal(1)
    total = Decimal(0)
    if q_d > 0:
        total += q_d * (q_d / p_d).ln()
    if q_d < 1:
        total += (one - q_d) * ((one - q_d) / (one - p_d)).ln()
    return float(total)


def mpmath_kl(q: float, p: float) -> float:
    """50-digit Bernoulli kl(q, p) at the exact float arguments."""
    mp = mpmath.mp.clone()
    mp.dps = 50
    q_m, p_m = mp.mpf(q), mp.mpf(p)
    head = q_m * mp.log(q_m / p_m) if q > 0 else mp.mpf(0)
    return float(head + (1 - q_m) * mp.log((1 - q_m) / (1 - p_m)))


class TestSmallKl:
    """The tests' kl reference and the kernel's ``_kl`` beneath it."""

    def test_zero_on_diagonal(self):
        for u in (0.0, 0.3, 1.0):
            assert small_kl(u, u) == 0.0

    def test_limit_form_at_zero(self):
        for p in (0.1, 0.5, 0.9):
            assert small_kl(0.0, p) == pytest.approx(-math.log(1.0 - p), abs=1e-14)

    def test_high_precision_value(self):
        assert small_kl(0.1, 0.2) == pytest.approx(
            small_kl_decimal("0.1", "0.2"), abs=1e-15
        )

    def test_boundary_saturation(self):
        assert small_kl(0.3, 0.0) == math.inf
        assert small_kl(0.3, 1.0) == math.inf

    def test_relative_accuracy_near_the_boundaries(self):
        """Relative error <= 1e-14 against mpmath where q and p are both
        small, so that ln((1 - q)/(1 - p)) is a log of a ratio within 1e-3 of
        1, and where p is within 1e-3 of 1."""
        cases = [(q, float(p)) for q in (0.0, 1e-300, 1e-12)
                 for p in np.logspace(-16, -3, 53) if p != q]
        cases += [(q, 1.0 - float(e)) for q in (0.5, 0.9) for e in np.logspace(-12, -3, 37)]
        for q, p in cases:
            want = mpmath_kl(q, p)
            assert abs(nk._kl(np.float64(q), np.float64(p)) - want) <= 1e-14 * want, (q, p)


class TestKlInv:
    def test_zero_budget_returns_u(self):
        for u in (0.0, 0.25, 0.8):
            assert nk.kl_inv(u, 0.0) == u

    def test_closed_form_at_zero(self):
        for c in (0.01, 0.3, 2.0):
            assert nk.kl_inv(0.0, c) == pytest.approx(1.0 - math.exp(-c), abs=1e-12)

    def test_resubstitution(self):
        v = nk.kl_inv(0.1, 0.05)
        assert abs(small_kl(0.1, v) - 0.05) <= 1e-9

    def test_infinite_budget(self):
        assert nk.kl_inv(0.5, math.inf) == 1.0

    def test_roundtrip_grid(self):
        """kl(u, kl_inv(u, c)) recovers c to 1e-9 wherever the inverse
        does not saturate at 1."""
        for u in np.arange(0.0, 1.0, 0.01):
            for c in np.logspace(-6, math.log10(5.0), 40):
                v = nk.kl_inv(float(u), float(c))
                if v < 1.0:
                    assert abs(small_kl(float(u), v) - c) <= 1e-9

    def test_monotone_in_both_arguments(self):
        cs = np.linspace(0.0, 2.0, 15)
        vals = [nk.kl_inv(0.2, float(c)) for c in cs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        us = np.linspace(0.0, 0.95, 15)
        vals = [nk.kl_inv(float(u), 0.3) for u in us]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_vectorised_variant_agrees(self):
        """An array call equals its one-lane calls bit for bit."""
        rng = np.random.default_rng(3)
        us = rng.uniform(0.0, 0.99, 400)
        cs = rng.uniform(0.0, 4.0, 400)
        vec = nk.kl_inv(us, cs)
        for u, c, v in zip(us, cs, vec):
            assert v == nk.kl_inv(float(u), float(c))


def kl_step_coverage(m: int, c: float) -> float:
    """The exact worst case over p of P[kl_inv(k/m, c) < p] for k ~ Bin(m,
    p), on a dense p grid plus the float just above each kl_inv(k/m, c),
    where the probability jumps up; between the jumps it falls as p grows,
    so these points hold the supremum.  kl_inv is monotone in k, so the
    event is k below the count of inverses under p: one binomial CDF."""
    v = nk.kl_inv(np.arange(m + 1) / m, np.full(m + 1, c))
    assert np.all(np.diff(v) >= 0.0)
    p = np.concatenate([np.linspace(0.0, 1.0, 4002)[1:-1], np.nextafter(v, 2.0)])
    p = p[(p > 0.0) & (p < 1.0)]
    return float(stats.binom.cdf(np.searchsorted(v, p, side="left") - 1, m, p).max())


class TestKlStepCoverage:
    """The kl step of every certificate, checked exactly on one Bernoulli
    loss: the chance that kl_inv(k/m, c) falls below the true risk p stays
    at most delta, both for the certificates' c = ln(2 sqrt(m)/delta)/m
    (Maurer 2004) and for the tighter Chernoff form c = ln(1/delta)/m
    (Langford 2005), which leaves no slack: at k = 0 its supremum is delta
    itself, so the check allows the binomial CDF's rounding, 1e-12."""

    @pytest.mark.parametrize("m", [20, 50, 200, 1000])
    def test_coverage_at_most_delta(self, m):
        delta = 0.05
        for c in (math.log(2.0 * math.sqrt(m) / delta) / m, math.log(1.0 / delta) / m):
            assert kl_step_coverage(m, c) <= delta + 1e-12


# Budgets from the degenerate ends to saturation, spaced widely enough that
# their inverses are ordered well beyond the rounding of kl itself.
KL_BUDGETS = (0.0, 1e-300, 1e-100, 1e-20, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.5,
              1.0, 5.0, 50.0, math.inf)


class TestKlInvContract:
    @settings(max_examples=300, deadline=None)
    @given(us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_contract_over_lanes(self, us):
        """|kl(u, v) - c| <= 1e-9 or v = 1; v >= u; v is monotone in c; and
        the array call equals its one-lane calls bit for bit."""
        u = np.array(us)[:, None]
        c = np.array(KL_BUDGETS)[None, :]
        v = nk.kl_inv(u, c)
        assert v.shape == (len(us), len(KL_BUDGETS))
        with np.errstate(invalid="ignore"):  # inf - inf where c = inf, and v = 1
            gap = np.abs(small_kl(np.broadcast_to(u, v.shape), v) - c)
        assert np.all((v == 1.0) | (gap <= 1e-9))
        assert np.all(v >= u)
        assert np.all(np.diff(v, axis=1) >= 0.0)
        for i, ui in enumerate(us):
            for j, cj in enumerate(KL_BUDGETS):
                assert nk.kl_inv(ui, cj) == v[i, j]


class TestKlInvGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            u = rng.uniform(0.05, 0.8)
            c = rng.uniform(0.01, 1.0)
            _, dv_du, dv_dc = nk.kl_inv_with_grad(u, c)
            h = 1e-7
            fd_u = (nk.kl_inv(u + h, c) - nk.kl_inv(u - h, c)) / (2 * h)
            fd_c = (nk.kl_inv(u, c + h) - nk.kl_inv(u, c - h)) / (2 * h)
            assert dv_du == pytest.approx(fd_u, rel=1e-5)
            assert dv_dc == pytest.approx(fd_c, rel=1e-5)

    def test_small_u_limit(self):
        u, c = 1e-9, 0.4
        v = nk.kl_inv(u, c)
        _, _, dv_dc = nk.kl_inv_with_grad(u, c)
        assert dv_dc == pytest.approx(1.0 - v, rel=1e-6)

    def test_singular_at_zero_budget(self):
        with pytest.raises(ValueError):
            nk.kl_inv_with_grad(0.5, 0.0)

    def test_array_equals_one_lane_calls(self):
        """Values and partials of an array call equal its one-lane calls bit
        for bit, saturated lanes included."""
        rng = np.random.default_rng(29)
        n = 10_000
        u = np.concatenate([10.0 ** rng.uniform(-12, 0, n // 2), rng.uniform(1e-12, 1.0, n // 2)])
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        c = 10.0 ** rng.uniform(-6, 2, n)
        rows = nk.kl_inv_with_grad(u, c)
        assert all(r.shape == (n,) for r in rows)
        assert np.count_nonzero(rows[0] == 1.0) > 0
        one = np.array([nk.kl_inv_with_grad(float(a), float(b)) for a, b in zip(u, c)]).T
        for got, want in zip(rows, one):
            assert np.array_equal(got, want)
        assert np.array_equal(rows[0], nk.kl_inv(u, c))

    def test_saturated_lanes_have_zero_partials(self):
        u = np.array([0.5, 0.5, 0.9, 0.2])
        c = np.array([0.1, 50.0, math.inf, 0.3])
        v, dv_du, dv_dc = nk.kl_inv_with_grad(u, c)
        saturated = v == 1.0
        assert list(saturated) == [False, True, True, False]
        assert np.all(dv_du[saturated] == 0.0) and np.all(dv_dc[saturated] == 0.0)
        assert np.all(dv_dc[~saturated] > 0.0)
        assert nk.kl_inv_with_grad(0.5, 50.0) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad_u, bad_c", [(0.0, 0.1), (1.0, 0.1), (0.3, 0.0), (0.3, 1e-300)])
    def test_one_bad_lane_raises_the_scalar_error(self, bad_u, bad_c):
        with pytest.raises(ValueError) as scalar:
            nk.kl_inv_with_grad(bad_u, bad_c)
        u = np.array([0.2, bad_u, 0.4])
        c = np.array([0.1, bad_c, 0.5])
        with pytest.raises(ValueError) as lanes:
            nk.kl_inv_with_grad(u, c)
        assert str(lanes.value) == str(scalar.value)


def beta_kl_quadrature(a1, a2, b1, b2) -> float:
    """KL(Beta(a1,a2) || Beta(b1,b2)) by weighted adaptive quadrature."""
    ln_Ba = math.lgamma(a1) + math.lgamma(a2) - math.lgamma(a1 + a2)
    ln_Bb = math.lgamma(b1) + math.lgamma(b2) - math.lgamma(b1 + b2)
    norm = math.exp(-ln_Ba)
    const = ln_Bb - ln_Ba
    log_x, _ = integrate.quad(
        lambda t: norm, 0.0, 1.0, weight="alg-loga", wvar=(a1 - 1.0, a2 - 1.0)
    )
    log_1mx, _ = integrate.quad(
        lambda t: norm, 0.0, 1.0, weight="alg-logb", wvar=(a1 - 1.0, a2 - 1.0)
    )
    return const + (a1 - b1) * log_x + (a2 - b2) * log_1mx


class TestDirichletKl:
    def test_zero_on_diagonal(self):
        assert nk.dirichlet_kl([2.0, 3.0, 1.5], [2.0, 3.0, 1.5]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_uniform_prior_matches_unit_posterior(self):
        assert nk.dirichlet_kl(np.ones(6), np.ones(6)) == 0.0

    def test_beta_case_against_quadrature(self):
        got = nk.dirichlet_kl([2.0, 2.0], [1.0, 1.0])
        assert got == pytest.approx(beta_kl_quadrature(2.0, 2.0, 1.0, 1.0), abs=1e-8)

    def test_random_beta_cases_against_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.uniform(0.3, 20.0, size=2)
            b = rng.uniform(0.3, 20.0, size=2)
            got = nk.dirichlet_kl(a, b)
            want = beta_kl_quadrature(a[0], a[1], b[0], b[1])
            assert got == pytest.approx(want, abs=1e-6)

    def test_non_negative(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            d = int(rng.integers(2, 8))
            a = rng.uniform(0.2, 30.0, size=d)
            b = rng.uniform(0.2, 30.0, size=d)
            assert nk.dirichlet_kl(a, b) >= -1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nk.dirichlet_kl([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(17)
        theta = rng.dirichlet(np.ones(30))
        alpha = np.logspace(-3, 14, 40)[:, None] * theta
        beta = rng.uniform(0.3, 5.0, 30)
        rows = nk.dirichlet_kl(alpha, beta)
        assert rows.shape == (40,)
        for i in range(40):
            assert rows[i] == nk.dirichlet_kl(alpha[i], beta)

    def test_against_mpmath_over_concentrations(self):
        """alpha = K theta for K in [1e-3, 1e14], where the textbook form
        cancels O(K ln K) terms down to an O(ln K) result."""
        rng = np.random.default_rng(19)
        for d in (2, 6, 108):
            theta = rng.dirichlet(np.ones(d))
            for beta in (np.ones(d), rng.uniform(0.3, 5.0, d)):
                for K in np.logspace(-3, 14, 18):
                    want = mpmath_dirichlet_kl(K * theta, beta)
                    got = nk.dirichlet_kl(K * theta, beta)
                    assert abs(got - want) <= 1e-11 * (1.0 + abs(want)), (d, K)


def entropy_decimal(weights) -> float:
    getcontext().prec = 50
    total = Decimal(0)
    for w in weights:
        w_d = Decimal(w)
        total -= w_d * w_d.ln()
    return float(total)


def entropy(theta) -> float:
    """H(theta) = ln d - KL(theta || uniform)."""
    return math.log(len(theta)) - nk.categorical_kl_uniform(theta)


class TestCategoricalEntropy:
    """H(theta), with 0 ln 0 := 0, read through ``categorical_kl_uniform``."""

    def test_uniform(self):
        """Equal weights read exactly 0, as given and as WeightPosterior
        renormalises them, though ln d - H(theta) would leave a residue."""
        theta = np.full(7, 1.0 / 7.0)
        assert entropy(theta) == pytest.approx(math.log(7), abs=1e-12)
        for d in range(2, 1001):
            assert nk.categorical_kl_uniform(np.full(d, 1.0 / d)) == 0.0
            assert nk.categorical_kl_uniform(WeightPosterior.uniform(d).theta) == 0.0

    def test_one_hot(self):
        theta = np.zeros(5)
        theta[2] = 1.0
        assert entropy(theta) == 0.0
        assert nk.categorical_kl_uniform(theta) == math.log(5)

    def test_high_precision_point(self):
        theta = [0.7, 0.2, 0.1]
        assert entropy(np.array(theta)) == pytest.approx(
            entropy_decimal(["0.7", "0.2", "0.1"]), abs=1e-14
        )


def binomial_tail_exact(N: int, p: Fraction, k0: int) -> float:
    total = Fraction(0)
    for k in range(k0, N + 1):
        total += math.comb(N, k) * p**k * (1 - p) ** (N - k)
    return float(total)


class TestBinomialTail:
    def test_zero_probability(self):
        assert nk.binomial_tail(10, 0.0, 1) == 0.0

    def test_two_coin_flips(self):
        assert nk.binomial_tail(2, 0.5, 1) == pytest.approx(0.75, abs=1e-12)

    def test_edge_thresholds(self):
        assert nk.binomial_tail(5, 0.3, 0) == 1.0
        assert nk.binomial_tail(5, 0.3, -2) == 1.0
        assert nk.binomial_tail(5, 0.3, 6) == 0.0

    def test_large_case_against_exact_summation(self):
        got = nk.binomial_tail(100, 0.3, 50)
        want = binomial_tail_exact(100, Fraction(3, 10), 50)
        assert got == pytest.approx(want, abs=1e-12)

    def test_enumeration_agreement_small_N(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            N = int(rng.integers(1, 31))
            k0 = int(rng.integers(1, N + 1))
            num = int(rng.integers(0, 101))
            p = Fraction(num, 100)
            got = nk.binomial_tail(N, float(p), k0)
            assert got == pytest.approx(binomial_tail_exact(N, p, k0), abs=1e-12)
