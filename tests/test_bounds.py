"""Certificate formula tests: closed forms, orderings, and the search."""
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from votecert import bounds, numkern as nk, votes
from votecert.bounds import BoundSpec, SearchConfig
from votecert.votes import PredictionMatrix, WeightPosterior

from conftest import random_matrix


SPEC = BoundSpec(m=2000, delta=0.05)


def uniform_theta(d):
    return np.full(d, 1.0 / d)


class TestDirichletMargin:
    def test_clips_at_one_for_full_loss(self):
        r = bounds.dirichlet_margin_from_loss(1.0, uniform_theta(10), 50.0, 0.1, SPEC)
        assert r.value == 1.0

    def test_tiny_K_is_vacuous(self):
        r = bounds.dirichlet_margin_from_loss(0.0, uniform_theta(10), 1e-9, 0.01, SPEC)
        assert r.value == 1.0

    def test_component_recomputation_figure_config(self):
        """d=100, m=2000, delta=0.5, uniform weights, zero loss at gamma=0.2:
        the value must reassemble from independently computed pieces."""
        d, gamma, K = 100, 0.2, 300.0
        spec = BoundSpec(m=2000, delta=0.5)
        theta = uniform_theta(d)
        r = bounds.dirichlet_margin_from_loss(0.0, theta, K, gamma, spec)
        eps = math.exp(-(K + 1) * gamma**2)
        dkl = nk.dirichlet_kl(K * theta, np.ones(d))
        comp = (dkl + math.log(2 * math.sqrt(2000) / 0.5)) / 2000
        want = min(1.0, nk.kl_inv(min(1.0, 0.0 + eps), comp) + eps)
        assert r.value == pytest.approx(want, abs=1e-12)
        assert bounds.reconstruct_value("dirichlet_margin", r) == pytest.approx(
            r.value, abs=1e-9
        )

    def test_zero_kl_configuration(self):
        """With the all-ones prior and K = d (uniform weights), alpha equals
        the prior and the complexity reduces to ln(2 sqrt(m)/delta)/m."""
        d, gamma = 300, 0.15
        theta = uniform_theta(d)
        l_g = 0.12
        r = bounds.dirichlet_margin_from_loss(l_g, theta, float(d), gamma, SPEC)
        eps = math.exp(-(d + 1) * gamma**2)
        want = nk.kl_inv(l_g + eps, SPEC.log_confidence() / SPEC.m) + eps
        assert want < 1.0
        assert r.value == pytest.approx(want, abs=1e-12)
        assert r.complexity_term == pytest.approx(
            SPEC.log_confidence() / SPEC.m, abs=1e-12
        )

    def test_zero_component_floored_and_flagged(self):
        theta = np.zeros(6)
        theta[0] = 1.0
        r = bounds.dirichlet_margin_from_loss(0.1, theta, 5.0, 0.1, SPEC)
        assert "theta_floored" in r.flags
        assert 0.0 <= r.value <= 1.0


class TestStochasticMargin:
    def test_full_loss_clips(self):
        r = bounds.stochastic_margin_from_loss(1.0, uniform_theta(8), 10.0, 0.1, SPEC)
        assert r.value == 1.0

    def test_limit_structure_large_K(self):
        """Binary case, all margins above gamma: the empirical term vanishes
        and the value collapses to kl_inv(0, c) + eps."""
        P = PredictionMatrix(np.full((40, 6), 1), np.full(40, 1), 2)
        wp = WeightPosterior(uniform_theta(6), 50000.0)
        spec = BoundSpec(m=40, delta=0.05)
        loss = votes.expected_margin_loss_beta(P, wp.alpha, 0.1)
        r = bounds.stochastic_margin_from_loss(loss, wp.theta, wp.K, 0.1, spec)
        eps = math.exp(-4 * 50001 * 0.01)
        want = nk.kl_inv(0.0, r.complexity_term) + eps
        assert r.value == pytest.approx(want, abs=1e-10)

    def test_monte_carlo_cross_check(self):
        """The closed-form empirical term cannot sit below a Monte Carlo
        estimate of the stochastic margin loss by more than 3 stderr."""
        from votecert import oracle

        P = random_matrix(seed=3, m=30, d=8, accuracy=0.65)
        theta = np.random.default_rng(0).dirichlet(np.ones(8))
        K, gamma = 20.0, 0.05
        spec = BoundSpec(m=30, delta=0.05)
        loss = votes.expected_margin_loss_beta(P, K * theta, gamma)
        r = bounds.stochastic_margin_from_loss(loss, theta, K, gamma, spec)
        rep = oracle.verify_beta_sharpness(P, K * theta, gamma, 200_000, seed=11)
        assert r.empirical_term >= rep.estimate - 3 * rep.stderr


class TestGZ:
    def test_margin_precondition(self):
        with pytest.raises(bounds.InapplicableMarginError):
            bounds.gz_from_loss(0.1, 100, math.sqrt(2 / 100), SPEC)

    def test_small_margin_rejected(self):
        with pytest.raises(bounds.InapplicableMarginError):
            bounds.gz_from_loss(0.1, 100, 0.1, SPEC)

    def test_too_few_voters_rejected(self):
        with pytest.raises(bounds.InapplicableMarginError):
            bounds.gz_from_loss(0.1, 2, 0.3, SPEC)

    def test_full_loss_clips(self):
        assert bounds.gz_from_loss(1.0, 100, 0.3, SPEC).value == 1.0

    def test_formula_recomputation(self):
        d, m, delta, l_g, gamma = 100, 10000, 0.5, 0.1, 0.3
        spec = BoundSpec(m=m, delta=delta)
        r = bounds.gz_from_loss(l_g, d, gamma, spec)
        comp = (
            2 * math.log(2 * d) / gamma**2 * math.log(2 * m * m / math.log(d))
            + math.log(d * m / delta)
        ) / m
        want = min(1.0, nk.kl_inv(l_g, comp) + math.log(d) / m)
        assert r.value == pytest.approx(want, abs=1e-12)
        assert abs(nk.small_kl(l_g, nk.kl_inv(l_g, comp)) - comp) <= 1e-9


class TestBGFamily:
    def test_bgplus_full_loss_clips(self):
        assert bounds.bgplus_from_loss(1.0, 50, 0.2, SPEC).value == 1.0

    def test_bgplus_replication_boundary(self):
        """The replication count T steps across integers as m moves, and the
        value jumps with it."""
        gamma = 0.3
        # find m where ceil(2 ln(m)/gamma^2) changes
        prev_T = None
        jump_at = None
        for m in range(1000, 1200):
            T = math.ceil(2 * math.log(m) / gamma**2)
            if prev_T is not None and T != prev_T:
                jump_at = m
                break
            prev_T = T
        assert jump_at is not None
        lo = bounds.bgplus_from_loss(0.1, 50, gamma, BoundSpec(m=jump_at - 1, delta=0.05))
        hi = bounds.bgplus_from_loss(0.1, 50, gamma, BoundSpec(m=jump_at, delta=0.05))
        assert lo.T_star != hi.T_star

    def test_bg_zero_loss_tail(self):
        d, gamma = 50, 0.2
        r = bounds.bg_original_from_loss(0.0, d, gamma, SPEC)
        C = 2 * math.log(2 / 0.05) + 4.75 / gamma**2 * math.log(d) * math.log(2000)
        assert r.value == pytest.approx(
            min(1.0, (C + math.sqrt(C) + 2) / 2000), abs=1e-12
        )

    def test_bg_vacuous_for_tiny_margin(self):
        assert bounds.bg_original_from_loss(0.0, 50, 0.001, SPEC).value == 1.0

    def test_bgplusplus_single_T(self):
        r = bounds.bgplusplus_from_loss(0.1, uniform_theta(10), 0.2, SPEC, T_max=1)
        assert r.T_star == 1
        eps = math.exp(-0.5 * 0.04)
        comp = (1 * 0.0 + math.log(2000 / 0.05)) / 2000
        assert r.value == pytest.approx(
            min(1.0, nk.kl_inv(min(1.0, 0.1 + eps), comp) + eps), abs=1e-12
        )

    def test_bgplusplus_uniform_collapses_complexity(self):
        """Uniform weights zero out the per-replication complexity charge."""
        r = bounds.bgplusplus_from_loss(0.05, uniform_theta(30), 0.15, SPEC)
        T = r.T_star
        eps = math.exp(-0.5 * T * 0.15**2)
        want = nk.kl_inv(min(1.0, 0.05 + eps), math.log(2000 / 0.05) / 2000) + eps
        assert r.value == pytest.approx(min(1.0, want), abs=1e-12)

    def test_T_search_matches_full_scan_small_range(self):
        spec = BoundSpec(m=200, delta=0.1)
        theta = np.random.default_rng(2).dirichlet(np.ones(12))
        gamma = 0.3
        T_max = 400
        r = bounds.bgplusplus_from_loss(0.2, theta, gamma, spec, T_max=T_max)
        kl_unif = nk.categorical_kl_uniform(theta)
        best = min(
            min(1.0, nk.kl_inv(min(1.0, 0.2 + math.exp(-0.5 * T * gamma**2)),
                               (T * kl_unif + math.log(200 / 0.1)) / 200)
                + math.exp(-0.5 * T * gamma**2))
            for T in range(1, T_max + 1)
        )
        assert r.value == pytest.approx(best, abs=1e-12)

    def test_ordering_bg_bgplus_bgplusplus(self):
        """bg >= bgplus >= bgplusplus on a randomised configuration grid."""
        rng = np.random.default_rng(20)
        for _ in range(500):
            d = int(rng.integers(3, 300))
            m = int(rng.integers(100, 20000))
            delta = float(rng.uniform(0.01, 0.5))
            gamma = float(rng.uniform(0.01, 0.49))
            l_g = float(rng.uniform(0.0, 0.5))
            theta = rng.dirichlet(np.ones(d))
            spec = BoundSpec(m=m, delta=delta)
            v_bg = bounds.bg_original_from_loss(l_g, d, gamma, spec).value
            v_p = bounds.bgplus_from_loss(l_g, d, gamma, spec).value
            v_pp = bounds.bgplusplus_from_loss(l_g, theta, gamma, spec).value
            assert v_bg >= v_p - 1e-12
            assert v_p >= v_pp - 1e-12


class TestBaselines:
    def test_fo_factor_two_saturation(self):
        P = random_matrix(seed=21, m=50, d=6, accuracy=0.3)
        theta = uniform_theta(6)
        if votes.gibbs_loss(P, theta) >= 0.5:
            assert bounds.fo_bound(P, theta, BoundSpec(m=50, delta=0.05)).value == 1.0

    def test_fo_one_hot_complexity(self):
        P = random_matrix(seed=22, m=50, d=6)
        theta = np.zeros(6)
        theta[1] = 1.0
        r = bounds.fo_bound(P, theta, BoundSpec(m=50, delta=0.05))
        want_c = (math.log(6) + math.log(2 * math.sqrt(50) / 0.05)) / 50
        assert r.complexity_term == pytest.approx(want_c, abs=1e-12)

    def test_fo_recomputation(self):
        P = random_matrix(seed=23, m=80, d=8, accuracy=0.75)
        theta = np.random.default_rng(1).dirichlet(np.ones(8))
        spec = BoundSpec(m=80, delta=0.05)
        r = bounds.fo_bound(P, theta, spec)
        u = votes.gibbs_loss(P, theta)
        c = (nk.categorical_kl_uniform(theta) + spec.log_confidence()) / 80
        assert r.value == pytest.approx(min(1.0, 2 * nk.kl_inv(u, c)), abs=1e-12)

    def test_so_all_correct(self):
        P = PredictionMatrix(np.full((30, 4), 1), np.full(30, 1), 2)
        spec = BoundSpec(m=30, delta=0.05)
        r = bounds.so_bound(P, uniform_theta(4), spec)
        c = spec.log_confidence() / 30
        assert r.value == pytest.approx(min(1.0, 4 * (1 - math.exp(-c))), abs=1e-10)

    def test_so_recomputation(self):
        P = random_matrix(seed=24, m=80, d=8, accuracy=0.75)
        theta = np.random.default_rng(2).dirichlet(np.ones(8))
        spec = BoundSpec(m=80, delta=0.05)
        r = bounds.so_bound(P, theta, spec)
        u = votes.tandem_loss(P, theta)
        c = (2 * nk.categorical_kl_uniform(theta) + spec.log_confidence()) / 80
        assert r.value == pytest.approx(min(1.0, 4 * nk.kl_inv(u, c)), abs=1e-12)

    def test_bin_uniform_complexity_vanishes(self):
        P = random_matrix(seed=25, m=60, d=9, accuracy=0.8)
        spec = BoundSpec(m=60, delta=0.05)
        r = bounds.bin_bound(P, uniform_theta(9), spec)
        assert r.complexity_term == pytest.approx(spec.log_confidence() / 60, abs=1e-12)
        u = votes.binomial_loss(P, uniform_theta(9), 100)
        assert r.value == pytest.approx(
            min(1.0, 2 * nk.kl_inv(u, r.complexity_term)), abs=1e-12
        )

    def test_f2_irreducible_factor(self):
        P = random_matrix(seed=26, m=60, d=7, accuracy=0.8)
        wp = WeightPosterior(uniform_theta(7), 30.0)
        spec = BoundSpec(m=60, delta=0.05)
        r = bounds.f2_from_loss(
            votes.expected_margin_loss_beta(P, wp.alpha, 0.0), wp.theta, wp.K, spec
        )
        assert r.value >= min(1.0, 2 * r.empirical_term) - 1e-12

    def test_f2_full_loss_clips(self):
        r = bounds.f2_from_loss(0.6, uniform_theta(5), 5.0, SPEC)
        assert r.value == 1.0


class TestMonotonicityInSpec:
    def test_value_non_increasing_in_delta_and_m(self):
        """At fixed empirical terms every kl-family bound shrinks when the
        sample grows or the confidence requirement loosens."""
        theta = uniform_theta(15)
        for make in (
            lambda s: bounds.dirichlet_margin_from_loss(0.1, theta, 60.0, 0.1, s).value,
            lambda s: bounds.gz_from_loss(0.1, 15, 0.4, s).value,
            lambda s: bounds.bgplus_from_loss(0.1, 15, 0.3, s).value,
            lambda s: bounds.bgplusplus_from_loss(0.1, theta, 0.3, s).value,
            lambda s: bounds.bg_original_from_loss(0.1, 15, 0.3, s).value,
        ):
            deltas = [0.01, 0.05, 0.2, 0.5]
            vals = [make(BoundSpec(m=5000, delta=dlt)) for dlt in deltas]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
            ms = [500, 2000, 10000, 50000]
            vals = [make(BoundSpec(m=m, delta=0.05)) for m in ms]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestCertify:
    def test_constant_profile_returns_first_grid_point(self):
        # every voter errs on every row: margin loss is 1 at every gamma
        P = PredictionMatrix(np.full((20, 4), 2), np.full(20, 1), 2)
        wp = WeightPosterior.uniform(4)
        spec = BoundSpec(m=20, delta=0.05)
        cfg = SearchConfig(n_gamma=50)
        r = bounds.certify(P, wp, spec, "bgplus", cfg)
        assert r.value == 1.0
        assert "vacuous" in r.flags
        assert r.gamma_star == pytest.approx(float(cfg.gamma_grid()[0]))

    @pytest.mark.parametrize("bound_id", bounds.BOUND_IDS)
    def test_all_wrong_matrix_is_flagged_vacuous(self, bound_id):
        P = PredictionMatrix(np.full((20, 4), 2), np.full(20, 1), 2)
        spec = BoundSpec(m=20, delta=0.05)
        r = bounds.certify(P, WeightPosterior.uniform(4), spec, bound_id,
                           SearchConfig(n_gamma=10))
        assert r.value == 1.0
        assert "vacuous" in r.flags

    def test_beats_coarse_exhaustive_grid(self, toy_matrix):
        wp = WeightPosterior.uniform(toy_matrix.num_voters)
        spec = BoundSpec(m=toy_matrix.num_examples, delta=0.05)
        cfg = SearchConfig()
        r = bounds.certify(toy_matrix, wp, spec, "dirichlet_margin", cfg)
        theta = wp.theta
        spec_union = replace(spec, delta=spec.delta / cfg.n_gamma)
        srt = np.sort(votes.margins(toy_matrix, theta))
        best = 1.0
        for g in cfg.gamma_grid()[::37]:
            l_g = float(np.searchsorted(srt, g, side="right")) / toy_matrix.num_examples
            for K in np.logspace(0.0, 16.0 * math.log10(2.0), 40):
                val = bounds.dirichlet_margin_from_loss(
                    l_g, theta, float(K), float(g), spec_union
                ).value
                best = min(best, val)
        assert r.value <= best + 1e-9

    def test_singleton_grid_equals_direct_evaluation(self, toy_matrix):
        wp = WeightPosterior(uniform_theta(toy_matrix.num_voters), 12.0)
        spec = BoundSpec(m=toy_matrix.num_examples, delta=0.05)
        cfg = SearchConfig(n_gamma=1, gamma_min=0.1, gamma_max=0.1, k_span=1.0)
        l_g = votes.empirical_margin_loss(toy_matrix, wp, 0.1)
        expected = votes.expected_margin_loss_beta(toy_matrix, wp.alpha, 0.1)
        for bid, direct in (
            ("dirichlet_margin",
             lambda: bounds.dirichlet_margin_from_loss(l_g, wp.theta, wp.K, 0.1, spec)),
            ("stochastic_margin",
             lambda: bounds.stochastic_margin_from_loss(expected, wp.theta, wp.K, 0.1, spec)),
            ("bgplus",
             lambda: bounds.bgplus_from_loss(l_g, toy_matrix.num_voters, 0.1, spec)),
        ):
            got = bounds.certify(toy_matrix, wp, spec, bid, cfg)
            assert got.value == pytest.approx(direct().value, abs=1e-12)

    def test_union_correction_divides_delta_by_grid_size(self, toy_matrix):
        """Fixed-margin bounds are searched at delta / n_gamma."""
        wp = WeightPosterior.uniform(toy_matrix.num_voters)
        spec = BoundSpec(m=toy_matrix.num_examples, delta=0.05)
        cfg = SearchConfig(n_gamma=2, gamma_min=0.2, gamma_max=0.3, k_span=1.0)
        got = bounds.certify(toy_matrix, wp, spec, "bgplus", cfg)
        spec_half = replace(spec, delta=0.025)
        manual = min(
            (bounds.bgplus_from_loss(
                votes.empirical_margin_loss(toy_matrix, wp, float(g)),
                toy_matrix.num_voters, float(g), spec_half)
             for g in cfg.gamma_grid()),
            key=lambda r: r.value,
        )
        assert got.value == pytest.approx(manual.value, abs=1e-12)

    def test_gz_keeps_full_delta(self):
        """The simultaneous-margin bound takes no union correction."""
        P = random_matrix(seed=29, m=60, d=50, accuracy=0.8)
        wp = WeightPosterior.uniform(50)
        spec = BoundSpec(m=60, delta=0.05)
        cfg = SearchConfig(n_gamma=2, gamma_min=0.3, gamma_max=0.4)
        got = bounds.certify(P, wp, spec, "gz", cfg)
        manual = min(
            (bounds.gz_from_loss(
                votes.empirical_margin_loss(P, wp, float(g)), P.num_voters, float(g), spec)
             for g in cfg.gamma_grid()),
            key=lambda r: r.value,
        )
        assert got.value == pytest.approx(manual.value, abs=1e-12)

    def test_gz_skips_inapplicable_margins(self):
        P = random_matrix(seed=30, m=40, d=4)  # sqrt(2/4) = 0.707 > 1/2
        wp = WeightPosterior.uniform(4)
        r = bounds.certify(P, wp, BoundSpec(m=40, delta=0.05), "gz")
        assert r.value == 1.0
        assert "inapplicable_margin" in r.flags

    def test_deterministic(self, toy_matrix):
        wp = WeightPosterior.uniform(toy_matrix.num_voters)
        spec = BoundSpec(m=toy_matrix.num_examples, delta=0.05)
        cfg = SearchConfig(n_gamma=100)
        a = bounds.certify(toy_matrix, wp, spec, "dirichlet_margin", cfg)
        b = bounds.certify(toy_matrix, wp, spec, "dirichlet_margin", cfg)
        assert a == b

    def test_unknown_bound_id(self, toy_matrix):
        with pytest.raises(ValueError):
            bounds.certify(
                toy_matrix,
                WeightPosterior.uniform(toy_matrix.num_voters),
                BoundSpec(m=toy_matrix.num_examples, delta=0.05),
                "nope",
            )

    def test_all_results_reconstruct(self, toy_matrix):
        wp = WeightPosterior.uniform(toy_matrix.num_voters)
        spec = BoundSpec(m=toy_matrix.num_examples, delta=0.05)
        cfg = SearchConfig(n_gamma=40)
        for bid in bounds.BOUND_IDS:
            r = bounds.certify(toy_matrix, wp, spec, bid, cfg)
            if "vacuous" not in r.flags:
                assert bounds.reconstruct_value(bid, r) == pytest.approx(
                    r.value, abs=1e-9
                )


class TestSoundnessSmoke:
    def test_certified_values_dominate_heldout_error(self):
        """Across 20 seeded trials at delta = 0.05, each bound's certificate
        exceeds the held-out majority-vote error in at least 19."""
        cfg = SearchConfig(n_gamma=60)
        wins = {bid: 0 for bid in bounds.BOUND_IDS}
        trials = 20
        for seed in range(trials):
            P_all = random_matrix(seed=seed, m=260, d=10, accuracy=0.72)
            rows = np.arange(260)
            held = rows[:60]
            fit = rows[60:]
            P_fit = P_all.subset(fit)
            P_held = P_all.subset(held)
            wp = WeightPosterior.uniform(10)
            spec = BoundSpec(m=P_fit.num_examples, delta=0.05)
            test_err = votes.majority_vote_error(P_held, wp.theta)
            for bid in bounds.BOUND_IDS:
                r = bounds.certify(P_fit, wp, spec, bid, cfg)
                if r.value >= test_err:
                    wins[bid] += 1
        for bid, count in wins.items():
            assert count >= trials - 1, f"{bid} failed soundness smoke test"


def scalar_golden(f, K_init, cfg):
    """Reference golden-section search over ln K for one lane: the best
    (x, f(x)) over every evaluation, bracket ends included, keeping the
    earliest evaluation on ties; stops once the bracket is no wider than
    cfg.k_rel_tol or after cfg.k_max_iter steps."""
    lo, hi = math.log(K_init), math.log(K_init * cfg.k_span)
    best = [lo, f(lo)]

    def see(x):
        fx = f(x)
        if fx < best[1]:
            best[:] = [x, fx]
        return fx

    if cfg.k_span > 1.0:
        see(hi)
        a, b = lo, hi
        x1 = b - bounds._INV_PHI * (b - a)
        x2 = a + bounds._INV_PHI * (b - a)
        f1, f2 = see(x1), see(x2)
        for _ in range(cfg.k_max_iter):
            if b - a <= cfg.k_rel_tol:
                break
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - bounds._INV_PHI * (b - a)
                f1 = see(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + bounds._INV_PHI * (b - a)
                f2 = see(x2)
    return best


def lane_profile(x, a, b, c, e, cap):
    """A lane's value: a parabola plus a kink, clipped at cap (so flat
    stretches and ties occur).  Only exactly rounded operations, so a lane
    evaluates to the same bits on numpy arrays and on Python floats."""
    d = x - c
    return np.minimum(cap, a * d * d + b * abs(x - e))


lane_params = st.tuples(
    st.floats(0.0, 10.0), st.floats(-1.0, 1.0), st.floats(-20.0, 20.0),
    st.floats(-20.0, 20.0), st.floats(0.0, 50.0),
)


class TestLockstepSearch:
    @settings(max_examples=150, deadline=None)
    @given(
        lanes=st.lists(lane_params, min_size=1, max_size=8),
        K_init=st.floats(1e-3, 1e3),
        k_span=st.floats(1.0, 2.0**20),
        k_rel_tol=st.floats(1e-6, 2.0),
        k_max_iter=st.integers(0, 60),
    )
    def test_every_lane_matches_scalar_search(self, lanes, K_init, k_span, k_rel_tol, k_max_iter):
        cfg = SearchConfig(k_span=k_span, k_rel_tol=k_rel_tol, k_max_iter=k_max_iter)
        params = [np.array(column) for column in zip(*lanes)]
        x, values = bounds._search_log_K(
            lambda pts: lane_profile(pts, *params), len(lanes), K_init, cfg
        )
        for i, lane in enumerate(lanes):
            want_x, want_value = scalar_golden(
                lambda pt: float(lane_profile(pt, *lane)), K_init, cfg
            )
            assert (x[i], values[i]) == (want_x, want_value)

    def test_best_K_lanes_equal_one_lane_calls(self):
        rng = np.random.default_rng(5)
        theta = rng.dirichlet(np.ones(30))
        spec = BoundSpec(m=500, delta=0.1)
        gammas = np.linspace(0.01, 0.49, 17)
        losses = rng.uniform(0.0, 0.3, gammas.size)
        cfg = SearchConfig()
        lanes = bounds.dirichlet_margin_best_K(losses, theta, gammas, spec, 2.0, cfg)
        singles = [
            bounds.dirichlet_margin_best_K(loss, theta, g, spec, 2.0, cfg)[0]
            for loss, g in zip(losses, gammas)
        ]
        assert lanes == singles


def exhaustive_int_min(f, t_max):
    """(T, f(T)) of the smallest value over {1..t_max}, smallest T on ties."""
    values = [f(T) for T in range(1, t_max + 1)]
    best = min(range(t_max), key=lambda i: values[i])
    return best + 1, values[best]


# One lane of the T search: (t_max, a, b, 2 * centre, forced count).  Its
# profile a (2T - centre)^2 + b |2T - centre| is integer-valued and
# unimodal, with a tie between two neighbours when the centre is odd.
int_lanes = st.tuples(
    st.integers(1, 4096), st.integers(0, 5), st.integers(0, 5),
    st.integers(-20, 8212), st.integers(-3, 4200),
).filter(lambda lane: lane[1] + lane[2] > 0)


class TestLockstepTSearch:
    @settings(max_examples=200, deadline=None)
    @given(lanes=st.lists(int_lanes, min_size=1, max_size=6))
    def test_matches_exhaustive_scan(self, lanes):
        t_max, a, b, centre2, forced = (np.array(col) for col in zip(*lanes))

        def profile(rows, T):
            d = 2 * T - centre2[rows]
            return (a[rows] * d * d + b[rows] * np.abs(d)).astype(float)

        got_t, got_value = bounds._minimize_over_int(profile, t_max, forced)
        for i, lane in enumerate(lanes):
            want = exhaustive_int_min(
                lambda T: float(profile(np.array([i]), np.array([T]))[0]), lane[0])
            assert (got_t[i], got_value[i]) == want

    def test_forced_count_reaches_a_valley_between_ladder_points(self):
        """A profile clipped flat at 1 except for a valley strictly between
        the ladder points 1024 and 2048 (as bgplusplus is clipped where its
        penalty is large): only a forced count inside the valley leads the
        search into it."""
        def profile(rows, T):
            return np.minimum(1.0, 0.5 + ((T - 1500) / 400.0) ** 2)

        t, value = bounds._minimize_over_int(profile, np.array([4096, 4096]), np.array([1400, 0]))
        assert (t[0], value[0]) == (1500, 0.5)
        assert (t[1], value[1]) == (1, 1.0)


class TestGridFormulas:
    """The grid evaluator's one call over every margin equals one call per
    margin, lane by lane."""

    @pytest.mark.parametrize("formula", [
        lambda l, g, th, spec: bounds.gz_from_loss(l, th.size, g, spec),
        lambda l, g, th, spec: bounds.bgplus_from_loss(l, th.size, g, spec),
        lambda l, g, th, spec: bounds.bg_original_from_loss(l, th.size, g, spec),
        lambda l, g, th, spec: bounds.bgplusplus_from_loss(l, th, g, spec),
    ], ids=["gz", "bgplus", "bg", "bgplusplus"])
    def test_lanes_equal_one_lane_calls(self, formula):
        rng = np.random.default_rng(8)
        theta = rng.dirichlet(np.ones(400))
        spec = BoundSpec(m=700, delta=0.05)
        # bgplusplus: the first margins search T in ranges of up to 8192 by
        # ladder and trisection, the last ones scan their whole range
        gammas = np.concatenate([np.geomspace(0.08, 0.3, 5), np.linspace(0.36, 0.49, 4)])
        losses = rng.uniform(0.0, 0.4, gammas.size)
        lanes = formula(losses, gammas, theta, spec)
        for i, (loss, g) in enumerate(zip(losses, gammas)):
            assert bounds._lane(lanes, i) == formula(float(loss), float(g), theta, spec)


REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "certify_reference.json")


class TestCertifyReference:
    """certify for every bound id against outputs recorded from the earlier
    search (a scalar golden-section over K per margin for stochastic_margin
    and f2, a Python loop for the grid losses, and a bisection kl inverse):
    binary and 3-class matrices, uniform and Dirichlet-drawn weights,
    n_gamma in {1, 10, 50}.  The value and its components match to 1e-12;
    the knobs (gamma_star, K_star, T_star) and the flags match exactly,
    except in the tied cases named in TIES."""

    # Optima whose value is flat to 1e-12 across neighbouring knobs, so the
    # last-bit rounding of the kl inverse picks among them: bgplusplus at
    # n_gamma=1 on the 3-class uniform matrix (recorded T_star 4008508235;
    # this code finds 4008508233, with both values within 1e-12).
    TIES = {("multiclass", "uniform", 1, "bgplusplus")}

    def test_matches_recorded_outputs(self):
        with open(REFERENCE) as fh:
            recorded = json.load(fh)
        cases = {}
        for name, spec_in in recorded["inputs"].items():
            table = np.array([[int(ch) for ch in row] for row in spec_in["rows"]])
            P = PredictionMatrix(table[:, :-1], table[:, -1], spec_in["classes"])
            for weights, theta in spec_in["weights"].items():
                cases[name, weights] = (P, WeightPosterior(np.array(theta), 1.0))
        terms = ("value", "empirical_term", "complexity_term", "derandomisation_term")
        knobs = ("gamma_star", "K_star", "T_star")
        mismatches = []
        for want in recorded["results"]:
            P, wp = cases[want["matrix"], want["weights"]]
            spec = BoundSpec(m=P.num_examples, delta=0.05)
            got = bounds.certify(P, wp, spec, want["bound"], SearchConfig(n_gamma=want["n_gamma"]))
            case = (want["matrix"], want["weights"], want["n_gamma"], want["bound"])
            if case in self.TIES:
                # Both candidates, evaluated by the same code, are within 1e-12.
                at_recorded = bounds.reconstruct_value(want["bound"], bounds.BoundResult(
                    **{f: want[f] for f in terms + knobs}))
                if not abs(at_recorded - got.value) <= 1e-12:
                    mismatches.append((case, "tie", at_recorded, got.value))
            else:
                for field in knobs:
                    if getattr(got, field) != want[field]:
                        mismatches.append((case, field, getattr(got, field), want[field]))
                if list(got.flags) != want["flags"]:
                    mismatches.append((case, "flags", got.flags, want["flags"]))
                for field in terms:
                    # == first: infinite complexity terms match exactly
                    if not (getattr(got, field) == want[field]
                            or abs(getattr(got, field) - want[field]) <= 1e-12):
                        mismatches.append((case, field, getattr(got, field), want[field]))
            rebuilt = bounds.reconstruct_value(want["bound"], got)
            if not abs(rebuilt - got.value) <= 1e-9:
                mismatches.append((case, "reconstruct", rebuilt, got.value))
        assert mismatches == []
        assert len(recorded["results"]) == 2 * 2 * 3 * len(bounds.BOUND_IDS)
