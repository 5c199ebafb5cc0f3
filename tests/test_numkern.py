"""Numeric kernel tests: closed forms, independent oracles, and invariants."""
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from votecert import numkern as nk

from conftest import mpmath_dirichlet_kl

EULER_GAMMA = 0.5772156649015329


def series_log_gamma(x):
    """ln Gamma from the psi/h series, the incomplete beta's only path to it."""
    return nk._series(np.atleast_1d(np.asarray(x, dtype=float)))[2]


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
    def test_psi_one_is_minus_euler(self):
        assert nk.digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_psi_half_closed_form(self):
        assert nk.digamma(0.5) == pytest.approx(
            -EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12
        )

    def test_recurrence(self):
        """psi(x + 1) = psi(x) + 1/x, including the x = 3.7 check point."""
        assert nk.digamma(3.7) == pytest.approx(nk.digamma(2.7) + 1 / 2.7, abs=1e-12)
        rng = np.random.default_rng(0)
        for x in rng.uniform(1e-3, 60.0, 200):
            assert nk.digamma(x + 1.0) - nk.digamma(x) == pytest.approx(
                1.0 / x, abs=1e-12
            )

    def test_trigamma_against_derivative(self):
        assert nk.trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-11)
        for x in (0.3, 1.7, 6.5, 40.0):
            fd = (nk.digamma(x + 5e-6) - nk.digamma(x - 5e-6)) / 1e-5
            assert nk.trigamma(x) == pytest.approx(fd, rel=1e-6)

    def test_lanes_against_mpmath(self):
        """psi and psi' over [1e-6, 1e6], one array call each, lifted and
        unlifted lanes alike: absolute-or-relative error <= 1e-14."""
        import mpmath

        xs = np.concatenate([np.logspace(-6, 6, 300), np.linspace(0.05, 16.0, 300)])
        for got, ref in ((nk.digamma(xs), mpmath.digamma),
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

    @pytest.mark.parametrize("k", [1e-300, 1e-310])
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


def dIda_quadrature(z: float, a: float, b: float) -> float:
    """d/da I_z(a,b) by differentiating under the integral sign; the ln t
    factor rides in the quadrature weight to absorb the endpoint singularity."""
    ln_B = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    psi_term = nk.digamma(a) - nk.digamma(a + b)
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


class TestSmallKl:
    def test_zero_on_diagonal(self):
        for u in (0.0, 0.3, 1.0):
            assert nk.small_kl(u, u) == 0.0

    def test_limit_form_at_zero(self):
        for p in (0.1, 0.5, 0.9):
            assert nk.small_kl(0.0, p) == pytest.approx(-math.log(1.0 - p), abs=1e-14)

    def test_high_precision_value(self):
        assert nk.small_kl(0.1, 0.2) == pytest.approx(
            small_kl_decimal("0.1", "0.2"), abs=1e-15
        )

    def test_boundary_saturation(self):
        assert nk.small_kl(0.3, 0.0) == math.inf
        assert nk.small_kl(0.3, 1.0) == math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            nk.small_kl(1.2, 0.5)
        with pytest.raises(ValueError):
            nk.small_kl(0.5, -0.1)


class TestKlInv:
    def test_zero_budget_returns_u(self):
        for u in (0.0, 0.25, 0.8):
            assert nk.kl_inv(u, 0.0) == u

    def test_closed_form_at_zero(self):
        for c in (0.01, 0.3, 2.0):
            assert nk.kl_inv(0.0, c) == pytest.approx(1.0 - math.exp(-c), abs=1e-12)

    def test_resubstitution(self):
        v = nk.kl_inv(0.1, 0.05)
        assert abs(nk.small_kl(0.1, v) - 0.05) <= 1e-9

    def test_infinite_budget(self):
        assert nk.kl_inv(0.5, math.inf) == 1.0

    def test_roundtrip_grid(self):
        """kl(u, kl_inv(u, c)) recovers c to 1e-9 wherever the inverse
        does not saturate at 1."""
        for u in np.arange(0.0, 1.0, 0.01):
            for c in np.logspace(-6, math.log10(5.0), 40):
                v = nk.kl_inv(float(u), float(c))
                if v < 1.0:
                    assert abs(nk.small_kl(float(u), v) - c) <= 1e-9

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
            gap = np.abs(nk.small_kl(np.broadcast_to(u, v.shape), v) - c)
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


class TestCategoricalEntropy:
    def test_uniform(self):
        theta = np.full(7, 1.0 / 7.0)
        assert nk.categorical_entropy(theta) == pytest.approx(math.log(7), abs=1e-12)
        assert nk.categorical_kl_uniform(theta) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot(self):
        theta = np.zeros(5)
        theta[2] = 1.0
        assert nk.categorical_entropy(theta) == 0.0
        assert nk.categorical_kl_uniform(theta) == pytest.approx(math.log(5), abs=1e-12)

    def test_high_precision_point(self):
        theta = [0.7, 0.2, 0.1]
        assert nk.categorical_entropy(np.array(theta)) == pytest.approx(
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
