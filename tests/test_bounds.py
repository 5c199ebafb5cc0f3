"""Certificate formula tests: closed forms, orderings, and the search."""
import json
import math
import os
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from votecert import bounds, numkern as nk, votes
from votecert.bounds import BoundSpec, SearchConfig
from votecert.votes import PredictionMatrix, WeightPosterior

from conftest import (
    dirichlet_from_loss, mpmath_dirichlet_kl, random_matrix, reference_mismatches, small_kl,
)


SPEC = BoundSpec(m=2000, delta=0.05)


def uniform_theta(d):
    return np.full(d, 1.0 / d)


def margin_from_loss(l_gamma, theta, K, gamma, spec):
    return dirichlet_from_loss(bounds._margin_formula, l_gamma, theta, K, spec, gamma)


def stochastic_from_loss(expected_loss, theta, K, gamma, spec):
    return dirichlet_from_loss(bounds._stochastic_formula, expected_loss, theta, K, spec, gamma)


def f2_from_loss(expected_loss, theta, K, spec):
    """The f2 formula: the stochastic one at a NaN margin; f2 reports no margin."""
    return replace(dirichlet_from_loss(bounds._stochastic_formula, expected_loss, theta, K, spec,
                                       math.nan), gamma_star=None)


def gibbs(P, theta, spec, bound_id):
    """A Gibbs baseline's certificate at weights theta."""
    return bounds.certify(P, WeightPosterior(theta, 1.0), spec, bound_id)


class TestDirichletMargin:
    def test_clips_at_one_for_full_loss(self):
        r = margin_from_loss(1.0, uniform_theta(10), 50.0, 0.1, SPEC)
        assert r.value == 1.0

    def test_tiny_K_is_vacuous(self):
        r = margin_from_loss(0.0, uniform_theta(10), 1e-9, 0.01, SPEC)
        assert r.value == 1.0

    def test_component_recomputation_figure_config(self):
        """d=100, m=2000, delta=0.5, uniform weights, zero loss at gamma=0.2:
        the value must reassemble from independently computed pieces."""
        d, gamma, K = 100, 0.2, 300.0
        spec = BoundSpec(m=2000, delta=0.5)
        theta = uniform_theta(d)
        r = margin_from_loss(0.0, theta, K, gamma, spec)
        eps = math.exp(-(K + 1) * gamma**2)
        dkl = nk.dirichlet_kl(K * theta, np.ones(d))
        comp = (dkl + math.log(2 * math.sqrt(2000) / 0.5)) / 2000
        want = min(1.0, nk.kl_inv(min(1.0, 0.0 + eps), comp) + eps)
        assert r.value == pytest.approx(want, abs=1e-12)
        assert bounds.reconstruct_value("dirichlet_margin", r) == r.value

    def test_zero_kl_configuration(self):
        """With the all-ones prior and K = d (uniform weights), alpha equals
        the prior and the complexity reduces to ln(2 sqrt(m)/delta)/m."""
        d, gamma = 300, 0.15
        theta = uniform_theta(d)
        l_g = 0.12
        r = margin_from_loss(l_g, theta, float(d), gamma, SPEC)
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
        r = margin_from_loss(0.1, theta, 5.0, 0.1, SPEC)
        assert "theta_floored" in r.flags
        assert 0.0 <= r.value <= 1.0

    @pytest.mark.parametrize("bound_id", ["dirichlet_margin", "f2"])
    @pytest.mark.parametrize("low, floored", [(5e-13, True), (2e-12, False)])
    def test_floor_sits_at_1e_12(self, bound_id, low, floored):
        """certify floors, and flags, a weight below 1e-12 and no weight
        above it: 5e-13 carries ``theta_floored`` and 2e-12 does not."""
        P = random_matrix(seed=3, m=60, d=5, accuracy=0.7)
        theta = np.array([low, 0.3, 0.3, 0.2, 0.2 - low])
        r = bounds.certify(P, WeightPosterior(theta, 5.0), BoundSpec(m=60, delta=0.05),
                           bound_id, SearchConfig(n_gamma=20))
        assert ("theta_floored" in r.flags) == floored


class TestStochasticMargin:
    def test_full_loss_clips(self):
        r = stochastic_from_loss(1.0, uniform_theta(8), 10.0, 0.1, SPEC)
        assert r.value == 1.0

    def test_limit_structure_large_K(self):
        """Binary case, all margins above gamma: the empirical term vanishes
        and the value collapses to kl_inv(0, c) + eps."""
        P = PredictionMatrix(np.full((40, 6), 1), np.full(40, 1), 2)
        wp = WeightPosterior(uniform_theta(6), 50000.0)
        spec = BoundSpec(m=40, delta=0.05)
        loss = votes.expected_margin_loss_beta(P, wp.K * wp.theta, 0.1)
        r = stochastic_from_loss(loss, wp.theta, wp.K, 0.1, spec)
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
        r = stochastic_from_loss(loss, theta, K, gamma, spec)
        rep = oracle.verify_beta_sharpness(P, K * theta, gamma, 200_000, seed=11)
        assert r.empirical_term >= rep.estimate - 3 * rep.stderr


class TestGZ:
    def test_margin_precondition(self):
        with pytest.raises(ValueError, match="does not hold"):
            bounds.margin_bound("gz", 0.1, uniform_theta(100)[None], math.sqrt(2 / 100), SPEC)[0]

    def test_small_margin_rejected(self):
        with pytest.raises(ValueError, match="does not hold"):
            bounds.margin_bound("gz", 0.1, uniform_theta(100)[None], 0.1, SPEC)[0]

    def test_too_few_voters_rejected(self):
        with pytest.raises(ValueError, match="does not hold"):
            bounds.margin_bound("gz", 0.1, uniform_theta(2)[None], 0.3, SPEC)[0]

    def test_full_loss_clips(self):
        assert bounds.margin_bound("gz", 1.0, uniform_theta(100)[None], 0.3, SPEC)[0].value == 1.0

    def test_one_example_is_vacuous(self):
        """At m = 1 and d = 100, ln(2 m^2 / ln d) < 0 and the complexity is
        clamped at 0; the tail ln(d) / m alone exceeds 1."""
        r = bounds.margin_bound("gz", 0.0, uniform_theta(100)[None], 0.15,
                                BoundSpec(m=1, delta=0.05))[0]
        assert (r.value, r.complexity_term) == (1.0, 0.0)
        assert bounds.reconstruct_value("gz", r) == r.value

    def test_formula_recomputation(self):
        d, m, delta, l_g, gamma = 100, 10000, 0.5, 0.1, 0.3
        spec = BoundSpec(m=m, delta=delta)
        r = bounds.margin_bound("gz", l_g, uniform_theta(d)[None], gamma, spec)[0]
        comp = (
            2 * math.log(2 * d) / gamma**2 * math.log(2 * m * m / math.log(d))
            + math.log(d * m / delta)
        ) / m
        want = min(1.0, nk.kl_inv(l_g, comp) + math.log(d) / m)
        assert r.value == pytest.approx(want, abs=1e-12)
        assert abs(small_kl(l_g, nk.kl_inv(l_g, comp)) - comp) <= 1e-9


class TestBGFamily:
    def test_bgplus_full_loss_clips(self):
        r = bounds.margin_bound("bgplus", 1.0, uniform_theta(50)[None], 0.2, SPEC)[0]
        assert r.value == 1.0

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
        lo, hi = (bounds.margin_bound("bgplus", 0.1, uniform_theta(50)[None], gamma,
                                      BoundSpec(m=m, delta=0.05))[0]
                  for m in (jump_at - 1, jump_at))
        assert lo.T_star != hi.T_star

    def test_bg_zero_loss_tail(self):
        d, gamma = 50, 0.2
        r = bounds.margin_bound("bg", 0.0, uniform_theta(d)[None], gamma, SPEC)[0]
        C = 2 * math.log(2 / 0.05) + 4.75 / gamma**2 * math.log(d) * math.log(2000)
        assert r.value == pytest.approx(
            min(1.0, (C + math.sqrt(C) + 2) / 2000), abs=1e-12
        )

    def test_bg_vacuous_for_tiny_margin(self):
        assert bounds.margin_bound("bg", 0.0, uniform_theta(50)[None], 0.001, SPEC)[0].value == 1.0

    def test_bgplusplus_single_T(self):
        """The reported value is the formula at the reported T_star."""
        theta = np.random.default_rng(3).dirichlet(np.ones(10))
        r = bounds.margin_bound("bgplusplus", 0.1, theta[None], 0.2, SPEC)[0]
        T = r.T_star
        eps = math.exp(-0.5 * T * 0.04)
        comp = (T * nk.categorical_kl_uniform(theta) + math.log(2000 / 0.05)) / 2000
        assert r.value == pytest.approx(
            min(1.0, nk.kl_inv(min(1.0, 0.1 + eps), comp) + eps), abs=1e-12
        )

    def test_bgplusplus_uniform_collapses_complexity(self):
        """Uniform weights zero out the per-replication complexity charge:
        the value is the formula without it, and on 6 or 7 voters it equals
        the 2-voter value, also at margins whose T runs to 1e10 and past."""
        r = bounds.margin_bound("bgplusplus", 0.05, uniform_theta(30)[None], 0.15, SPEC)[0]
        T = r.T_star
        eps = math.exp(-0.5 * T * 0.15**2)
        want = nk.kl_inv(min(1.0, 0.05 + eps), math.log(2000 / 0.05) / 2000) + eps
        assert r.value == pytest.approx(min(1.0, want), abs=1e-12)
        spec = BoundSpec(100, 0.05)
        for gamma in (1e-4, 1e-8, 1e-9):
            two = bounds.margin_bound("bgplusplus", 0.1, np.full((1, 2), 0.5), gamma, spec)[0].value
            for d in (6, 7):
                got = bounds.margin_bound("bgplusplus", 0.1, np.full((1, d), 1 / d), gamma,
                                          spec)[0]
                assert got.value == pytest.approx(two, abs=1e-12)

    @staticmethod
    def bgplusplus_and_scan(loss, theta, gamma):
        """bgplusplus at (loss, gamma) for m = 200, delta = 0.1, and its
        clipped value at every count of its range {1..4 T_bgplus}."""
        spec = BoundSpec(m=200, delta=0.1)
        T_max = 4 * math.ceil(2 * math.log(200) / gamma**2)
        kl_unif = nk.categorical_kl_uniform(theta)
        values = [
            min(1.0, nk.kl_inv(min(1.0, loss + math.exp(-0.5 * T * gamma**2)),
                               (T * kl_unif + math.log(200 / 0.1)) / 200)
                + math.exp(-0.5 * T * gamma**2))
            for T in range(1, T_max + 1)
        ]
        return bounds.margin_bound("bgplusplus", loss, theta[None], gamma, spec)[0], values

    def test_T_search_matches_full_scan_small_range(self):
        """The T search over {1..4 T_bgplus} (680 counts) finds the
        minimum of a scan of every count in the range."""
        r, values = self.bgplusplus_and_scan(0.2, np.random.default_rng(2).dirichlet(np.ones(12)),
                                             0.25)
        assert r.value == pytest.approx(min(values), abs=1e-12)

    def test_T_search_matches_full_scan_short_range(self):
        """As above on a range of 348 counts, which the T search once
        scanned whole."""
        r, values = self.bgplusplus_and_scan(0.2, np.random.default_rng(2).dirichlet(np.ones(12)),
                                             0.35)
        assert len(values) == 348
        assert r.value == pytest.approx(min(values), abs=1e-12)

    def test_T_search_reaches_the_top_of_its_range(self):
        """Uniform weights and no loss: the value falls up to the range's
        top, and the search reports the top."""
        r, values = self.bgplusplus_and_scan(0.0, uniform_theta(12), 0.25)
        assert r.value == pytest.approx(min(values), abs=1e-12)
        assert values.index(min(values)) + 1 == r.T_star == len(values)

    def test_counts_past_int64_stay_whole(self):
        """Far below the grid's 1e-4 floor, bgplus's count passes 2^63 (near
        gamma = 1e-9 at m = 100) and bgplusplus's range four times sooner.
        Two uniform voters have a categorical KL of exactly 0, so bgplusplus
        falls to the top of its range, where its penalty is about m^-4 at
        every margin: the value stays the gamma = 1e-4 one.  bgplus stays
        vacuous, without a wrapped count."""
        spec = BoundSpec(m=100, delta=0.05)
        gammas = (1e-4, 1e-6, 1e-8, 1e-9, 1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plusplus = [bounds.margin_bound("bgplusplus", 0.1, uniform_theta(2)[None], g, spec)[0]
                        for g in gammas]
            plus = [bounds.margin_bound("bgplus", 0.1, uniform_theta(d)[None], g, spec)[0]
                    for d in (2, 6) for g in gammas]
        for r, gamma in zip(plusplus, gammas):
            assert r.value == pytest.approx(plusplus[0].value, abs=1e-12)
            top = 4 * math.ceil(2 * math.log(100) / gamma**2)
            assert r.T_star == pytest.approx(top, rel=1e-9)
        assert [r.value for r in plus] == [1.0] * len(plus)
        assert [r.T_star for r in plus[-5:]] == [math.ceil(2 * math.log(100) / g**2)
                                                 for g in gammas]

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
            v_bg, v_p, v_pp = (bounds.margin_bound(bid, l_g, theta[None], gamma, spec)[0].value
                               for bid in ("bg", "bgplus", "bgplusplus"))
            assert v_bg >= v_p - 1e-12
            assert v_p >= v_pp - 1e-12


class TestBaselines:
    def test_fo_factor_two_saturation(self):
        P = random_matrix(seed=21, m=50, d=6, accuracy=0.3)
        theta = uniform_theta(6)
        if votes.gibbs_loss(P, theta) >= 0.5:
            assert gibbs(P, theta, BoundSpec(m=50, delta=0.05), "fo").value == 1.0

    def test_fo_one_hot_complexity(self):
        P = random_matrix(seed=22, m=50, d=6)
        theta = np.zeros(6)
        theta[1] = 1.0
        r = gibbs(P, theta, BoundSpec(m=50, delta=0.05), "fo")
        want_c = (math.log(6) + math.log(2 * math.sqrt(50) / 0.05)) / 50
        assert r.complexity_term == pytest.approx(want_c, abs=1e-12)

    def test_fo_recomputation(self):
        P = random_matrix(seed=23, m=80, d=8, accuracy=0.75)
        theta = np.random.default_rng(1).dirichlet(np.ones(8))
        spec = BoundSpec(m=80, delta=0.05)
        r = gibbs(P, theta, spec, "fo")
        u = votes.gibbs_loss(P, theta)
        c = (nk.categorical_kl_uniform(theta) + spec.log_confidence()) / 80
        assert r.value == pytest.approx(min(1.0, 2 * nk.kl_inv(u, c)), abs=1e-12)

    def test_so_all_correct(self):
        P = PredictionMatrix(np.full((30, 4), 1), np.full(30, 1), 2)
        spec = BoundSpec(m=30, delta=0.05)
        r = gibbs(P, uniform_theta(4), spec, "so")
        c = spec.log_confidence() / 30
        assert r.value == pytest.approx(min(1.0, 4 * (1 - math.exp(-c))), abs=1e-10)

    def test_so_recomputation(self):
        P = random_matrix(seed=24, m=80, d=8, accuracy=0.75)
        theta = np.random.default_rng(2).dirichlet(np.ones(8))
        spec = BoundSpec(m=80, delta=0.05)
        r = gibbs(P, theta, spec, "so")
        u = votes.tandem_loss(P, theta)
        c = (2 * nk.categorical_kl_uniform(theta) + spec.log_confidence()) / 80
        assert r.value == pytest.approx(min(1.0, 4 * nk.kl_inv(u, c)), abs=1e-12)

    def test_bin_uniform_complexity_vanishes(self):
        P = random_matrix(seed=25, m=60, d=9, accuracy=0.8)
        spec = BoundSpec(m=60, delta=0.05)
        r = gibbs(P, uniform_theta(9), spec, "bin")
        assert r.complexity_term == pytest.approx(spec.log_confidence() / 60, abs=1e-12)
        u = votes.binomial_loss(P, uniform_theta(9), 100)
        assert r.value == pytest.approx(
            min(1.0, 2 * nk.kl_inv(u, r.complexity_term)), abs=1e-12
        )

    def test_f2_irreducible_factor(self):
        P = random_matrix(seed=26, m=60, d=7, accuracy=0.8)
        wp = WeightPosterior(uniform_theta(7), 30.0)
        spec = BoundSpec(m=60, delta=0.05)
        r = f2_from_loss(
            votes.expected_margin_loss_beta(P, wp.K * wp.theta, 0.0), wp.theta, wp.K, spec
        )
        assert r.value >= min(1.0, 2 * r.empirical_term) - 1e-12

    def test_f2_full_loss_clips(self):
        r = f2_from_loss(0.6, uniform_theta(5), 5.0, SPEC)
        assert r.value == 1.0


class TestMonotonicityInSpec:
    def test_value_non_increasing_in_delta_and_m(self):
        """At fixed empirical terms every kl-family bound shrinks when the
        sample grows or the confidence requirement loosens."""
        theta = uniform_theta(15)
        for make in (
            lambda s: margin_from_loss(0.1, theta, 60.0, 0.1, s).value,
            lambda s: bounds.margin_bound("gz", 0.1, theta[None], 0.4, s)[0].value,
            lambda s: bounds.margin_bound("bgplus", 0.1, theta[None], 0.3, s)[0].value,
            lambda s: bounds.margin_bound("bgplusplus", 0.1, theta[None], 0.3, s)[0].value,
            lambda s: bounds.margin_bound("bg", 0.1, theta[None], 0.3, s)[0].value,
        ):
            deltas = [0.01, 0.05, 0.2, 0.5]
            vals = [make(BoundSpec(m=5000, delta=dlt)) for dlt in deltas]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
            ms = [500, 2000, 10000, 50000]
            vals = [make(BoundSpec(m=m, delta=0.05)) for m in ms]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def grid_and_span(monkeypatch, gamma_min, gamma_max, k_span):
    """Set the margin grid's range and the K search's span for one test."""
    monkeypatch.setattr(bounds, "_GAMMA_MIN", gamma_min)
    monkeypatch.setattr(bounds, "_GAMMA_MAX", gamma_max)
    monkeypatch.setattr(bounds, "_K_SPAN", k_span)


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
                val = margin_from_loss(
                    l_g, theta, float(K), float(g), spec_union
                ).value
                best = min(best, val)
        assert r.value <= best + 1e-9

    def test_singleton_grid_equals_direct_evaluation(self, toy_matrix, monkeypatch):
        wp = WeightPosterior(uniform_theta(toy_matrix.num_voters), 12.0)
        spec = BoundSpec(m=toy_matrix.num_examples, delta=0.05)
        grid_and_span(monkeypatch, 0.1, 0.1, 1.0)
        cfg = SearchConfig(n_gamma=1)
        l_g = votes.empirical_margin_loss(toy_matrix, wp.theta, 0.1)
        expected = votes.expected_margin_loss_beta(toy_matrix, wp.K * wp.theta, 0.1)
        for bid, direct in (
            ("dirichlet_margin",
             lambda: margin_from_loss(l_g, wp.theta, wp.K, 0.1, spec)),
            ("stochastic_margin",
             lambda: stochastic_from_loss(expected, wp.theta, wp.K, 0.1, spec)),
            ("bgplus",
             lambda: bounds.margin_bound("bgplus", l_g, wp.theta[None], 0.1, spec)[0]),
        ):
            got = bounds.certify(toy_matrix, wp, spec, bid, cfg)
            assert got.value == pytest.approx(direct().value, abs=1e-12)

    def test_union_correction_divides_delta_by_grid_size(self, toy_matrix, monkeypatch):
        """Fixed-margin bounds are searched at delta / n_gamma."""
        wp = WeightPosterior.uniform(toy_matrix.num_voters)
        spec = BoundSpec(m=toy_matrix.num_examples, delta=0.05)
        grid_and_span(monkeypatch, 0.2, 0.3, 1.0)
        cfg = SearchConfig(n_gamma=2)
        got = bounds.certify(toy_matrix, wp, spec, "bgplus", cfg)
        spec_half = replace(spec, delta=0.025)
        manual = min(
            (bounds.margin_bound("bgplus",
                                 votes.empirical_margin_loss(toy_matrix, wp.theta, float(g)),
                                 wp.theta[None], float(g), spec_half)[0]
             for g in cfg.gamma_grid()),
            key=lambda r: r.value,
        )
        assert got.value == pytest.approx(manual.value, abs=1e-12)

    def test_gz_keeps_full_delta(self, monkeypatch):
        """The simultaneous-margin bound takes no union correction."""
        P = random_matrix(seed=29, m=60, d=50, accuracy=0.8)
        wp = WeightPosterior.uniform(50)
        spec = BoundSpec(m=60, delta=0.05)
        grid_and_span(monkeypatch, 0.3, 0.4, bounds._K_SPAN)
        cfg = SearchConfig(n_gamma=2)
        got = bounds.certify(P, wp, spec, "gz", cfg)
        manual = min(
            (bounds.margin_bound("gz", votes.empirical_margin_loss(P, wp.theta, float(g)),
                                 wp.theta[None], float(g), spec)[0]
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

    def test_margin_bound_rejects_a_bound_off_the_grid(self):
        for bid in ("stochastic_margin", "fo", "f2", "nope"):
            with pytest.raises(ValueError):
                bounds.margin_bound(bid, 0.1, uniform_theta(5)[None], 0.2, SPEC)[0]

    def test_margin_bound_rejects_lanes_outside_its_domain(self):
        """For every margin-grid bound, a margin outside (0, 1/2) or a
        margin loss outside [0, 1], NaN included, on any lane, is a
        ValueError; the valid lanes alone certify."""
        theta = uniform_theta(100)
        for bound_id in ("dirichlet_margin", "gz", "bgplus", "bg", "bgplusplus"):
            bounds.margin_bound(bound_id, np.array([0.1, 0.0, 1.0]), theta[None], 0.3, SPEC)[0]
            for gamma in (0.0, -0.1, 0.5, 0.7, math.inf, math.nan):
                with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1/2\)"):
                    bounds.margin_bound(bound_id, 0.1, theta[None], np.array([0.3, gamma]), SPEC)[0]
            for loss in (-0.1, 1.1, math.inf, math.nan):
                with pytest.raises(ValueError, match=r"margin loss in \[0, 1\]"):
                    bounds.margin_bound(bound_id, np.array([0.1, loss]), theta[None], 0.3, SPEC)[0]

    def test_margin_bound_takes_no_lanes(self):
        """Every margin-grid bound returns empty lane arrays for no lanes."""
        for bound_id in ("dirichlet_margin", "gz", "bgplus", "bg", "bgplusplus"):
            r = bounds.margin_bound(bound_id, np.zeros(0), uniform_theta(100)[None], np.zeros(0),
                                    SPEC)[0]
            assert r.value.shape == r.gamma_star.shape == (0,)

    def test_n_gamma_must_be_a_positive_integer(self):
        for n_gamma in (2.5, 3.0, "3", 0, -1, True):
            with pytest.raises(ValueError, match="integer >= 1"):
                SearchConfig(n_gamma=n_gamma)
        assert SearchConfig(n_gamma=np.int64(3)).gamma_grid().size == 3

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
            assert bounds.reconstruct_value(bid, r) == r.value

    @pytest.mark.parametrize("classes", [2, 3])
    def test_every_certificate_reconstructs_exactly(self, classes):
        """reconstruct_value rebuilds every certified value bit for bit,
        vacuous ones included: binary and 3-class matrices, uniform,
        Dirichlet(5) and Dirichlet(0.3) weights, K_init from 1e-3 to 1e12,
        grids of 1, 10 and 50 margins, every bound id."""
        m, d = 80, 9
        P = random_matrix(seed=classes, m=m, d=d, c=classes, accuracy=0.65)
        rng = np.random.default_rng(classes)
        spec = BoundSpec(m=m, delta=0.05)
        mismatches, count = [], 0
        for weights in (uniform_theta(d), rng.dirichlet(np.full(d, 5.0)),
                        rng.dirichlet(np.full(d, 0.3))):
            for K in (1e-3, 1.0, 30.0, 1e12):
                for n_gamma in (1, 10, 50):
                    [results] = bounds.certify_all(P, [WeightPosterior(weights, K)], spec,
                                                   [bounds.BOUND_IDS], SearchConfig(n_gamma))
                    for bid, r in results.items():
                        count += 1
                        if bounds.reconstruct_value(bid, r) != r.value:
                            mismatches.append((K, n_gamma, bid, r))
        assert mismatches == [] and count == 3 * 4 * 3 * len(bounds.BOUND_IDS)


class TestCertifyAll:
    """One certify_all pass over every bound id equals one certify call per
    id, and shares the margins and the Dirichlet KLs between the ids."""

    @pytest.mark.parametrize("weights", ["uniform", "dirichlet", "zeros"])
    @pytest.mark.parametrize("classes", [2, 3])
    def test_equals_per_id_certify(self, classes, weights):
        d = 12
        P = random_matrix(seed=40 + classes, m=150, d=d, c=classes, accuracy=0.65)
        theta = (uniform_theta(d) if weights == "uniform"
                 else np.random.default_rng(classes).dirichlet(np.full(d, 5.0)))
        if weights == "zeros":
            theta[[1, 4, 7]] = 0.0
        wp = WeightPosterior(theta, 1.0)
        spec = BoundSpec(m=P.num_examples, delta=0.05)
        cfg = SearchConfig(n_gamma=20)
        [got] = bounds.certify_all(P, [wp], spec, [bounds.BOUND_IDS + ("fo", "gz")], cfg)
        assert tuple(got) == bounds.BOUND_IDS
        for bid in bounds.BOUND_IDS:
            assert got[bid] == bounds.certify(P, wp, spec, bid, cfg)
        assert ("theta_floored" in got["f2"].flags) == (weights == "zeros")

    def test_one_sort_and_distinct_K_rows_per_call(self, monkeypatch):
        """Over every bound id of a Dirichlet(5) posterior at n_gamma=100:
        one votes.margins call, one KL closure, and no K row sent twice in
        one kernel call."""
        sorts, kernels, sent = [], [], []
        margins, kernel = votes.margins, nk._dirichlet_kl_to

        def spy_margins(*args):
            sorts.append(1)
            return margins(*args)

        def spy_kernel(beta):
            kernels.append(1)
            kl = kernel(beta)

            def spied(alpha):
                sent.append([row.tobytes() for row in alpha.reshape(-1, alpha.shape[-1])])
                return kl(alpha)

            return spied

        monkeypatch.setattr(votes, "margins", spy_margins)
        monkeypatch.setattr(nk, "_dirichlet_kl_to", spy_kernel)
        d = 27
        P = random_matrix(seed=6, m=300, d=d, c=3, accuracy=0.6)
        wp = WeightPosterior(np.random.default_rng(6).dirichlet(np.full(d, 5.0)), 1.0)
        bounds.certify_all(P, [wp], BoundSpec(m=300, delta=0.05), [bounds.BOUND_IDS],
                           SearchConfig(n_gamma=100))
        assert len(sorts) == 1 and len(kernels) == 1
        assert all(len(rows) == len(set(rows)) for rows in sent) and sum(map(len, sent)) > 0

    def test_gibbs_ids_skip_the_shared_work(self, monkeypatch):
        """fo, so and bin sort no margins, find no distinct masses and build
        no KL closure."""
        spy = []
        monkeypatch.setattr(votes, "margins", lambda *a: spy.append("margins"))
        monkeypatch.setattr(bounds, "_dirichlet_kl_of", lambda *a: spy.append("kl"))
        monkeypatch.setattr(np, "unique", lambda *a, **k: spy.append("unique"))
        P = random_matrix(seed=2, m=60, d=6)
        bounds.certify_all(P, [WeightPosterior.uniform(6)], BoundSpec(m=60, delta=0.05),
                           [("fo", "so", "bin")])
        assert spy == []


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


def scalar_search(f, lo, hi, rel_tol, max_iter):
    """Reference search for one lane over ln t in [ln lo, ln hi], in Python
    floats: the top of the range, then the rungs ln(hi / 2^j) above its
    bottom and the bottom, from the bottom up, then Brent's method in the
    best rung's bracket, with scipy's ``fminbound`` steps and its tolerance
    fixed at rel_tol / 4, unless the best rung ties the next one up.  Returns
    the best (x, f(x)) over every evaluation, folded rung by rung (the top
    last), then step by step, keeping the first on ties."""
    points = [hi]
    while points[-1] / 2.0 > lo:
        points.append(points[-1] / 2.0)
    if lo < hi:
        points.append(lo)
    rungs = [math.log(t) for t in reversed(points)]
    top = f(rungs[-1])
    vals = [f(x) for x in rungs[:-1]] + [top]
    last = len(rungs) - 1
    j = min(range(last + 1), key=lambda i: (vals[i], i))
    best = [rungs[j], vals[j]]
    (a, fa), (b, fb) = [(rungs[i], vals[i]) for i in (max(j - 1, 0), min(j + 1, last))]
    x, fx = best
    if j < last and fb == fx:
        a = b = x
    if 0 < j < last:
        (w, fw), (v, fv) = ((a, fa), (b, fb)) if fa <= fb else ((b, fb), (a, fa))
    else:
        w, fw = (a, fa) if j == last else (b, fb)
        v, fv = w, fw
    e = rat = b - a
    tol1 = rel_tol / 4.0
    tol2 = 2.0 * tol1
    for _ in range(max_iter):
        xm = 0.5 * (a + b)
        if not abs(x - xm) > tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                rat = p / q
                if (x + rat - a) < tol2 or (b - (x + rat)) < tol2:
                    rat = tol1 if xm >= x else -tol1
        if golden:
            e = a - x if x >= xm else b - x
            rat = bounds._GOLDEN * e
        u = x + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = f(u)
        if fu < best[1]:
            best = [u, fu]
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (a, u) if u >= x else (u, b)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
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
        """The K searches' shared range and default tolerance."""
        params = [np.array(column) for column in zip(*lanes)]
        with patch.multiple(bounds, _K_SPAN=k_span, _K_REL_TOL=k_rel_tol, _K_MAX_ITER=k_max_iter):
            x, values = bounds._search_log(
                lambda rows, pts: lane_profile(pts, *(p[rows] for p in params)),
                *bounds._K_range(np.full(len(lanes), K_init)))
        for i, lane in enumerate(lanes):
            want_x, want_value = scalar_search(
                lambda pt: float(lane_profile(pt, *lane)), K_init, K_init * k_span, k_rel_tol,
                k_max_iter)
            assert (x[i], values[i]) == (want_x, want_value)

    @settings(max_examples=100, deadline=None)
    @given(
        lanes=st.lists(st.tuples(lane_params, st.floats(1e-3, 1e3), st.floats(1.0, 2.0**40),
                                 st.floats(1e-9, 2.0)), min_size=1, max_size=8),
        max_iter=st.integers(0, 60),
    )
    def test_per_lane_ranges_and_tolerances(self, lanes, max_iter):
        """Lanes of their own ranges and tolerances, as the T search sends
        them, each as the scalar search on its own range and tolerance."""
        params, lo, span, tol = zip(*lanes)
        params = [np.array(column) for column in zip(*params)]
        hi = np.array(lo) * np.array(span)
        with patch.object(bounds, "_K_MAX_ITER", max_iter):
            x, values = bounds._search_log(
                lambda rows, pts: lane_profile(pts, *(p[rows] for p in params)), np.array(lo),
                hi, tol=np.array(tol))
        for i, (lane, lane_lo, _, lane_tol) in enumerate(lanes):
            want = scalar_search(lambda pt: float(lane_profile(pt, *lane)), lane_lo, hi[i],
                                 lane_tol, max_iter)
            assert (x[i], values[i]) == tuple(want)

    @pytest.mark.parametrize("bound_id", ["dirichlet_margin", "f2"])
    def test_reported_complexity_at_large_K_init(self, bound_id):
        """At K_init = 1e12 the search reaches K where the textbook Dirichlet
        KL cancels to nothing: the reported complexity term must be the true
        (KL(K_star theta || 1) + ln(2 sqrt(m)/delta)) / m."""
        P = random_matrix(seed=0, m=60, d=6, accuracy=0.75)
        theta = np.random.default_rng(1).dirichlet(np.ones(6))
        spec = BoundSpec(m=60, delta=0.05)
        cfg = SearchConfig(n_gamma=5)
        r = bounds.certify(P, WeightPosterior(theta, 1e12), spec, bound_id, cfg)
        if bound_id == "dirichlet_margin":
            spec = replace(spec, delta=spec.delta / cfg.n_gamma)
        kl = mpmath_dirichlet_kl(r.K_star * theta, np.ones(6))
        assert r.complexity_term == pytest.approx(
            (kl + spec.log_confidence()) / spec.m, rel=0.0, abs=1e-9)

    def test_best_K_lanes_equal_one_lane_calls(self):
        rng = np.random.default_rng(5)
        theta = rng.dirichlet(np.ones(30))
        spec = BoundSpec(m=500, delta=0.1)
        gammas = np.linspace(0.01, 0.49, 17)
        losses = rng.uniform(0.0, 0.3, gammas.size)
        lanes = bounds.margin_bound("dirichlet_margin", losses, theta[None], gammas, spec)[0]
        singles = [
            bounds.margin_bound("dirichlet_margin", loss, theta[None], g, spec)[0]
            for loss, g in zip(losses, gammas)
        ]
        assert [bounds._lane(lanes, i) for i in range(gammas.size)] == singles

    @pytest.mark.parametrize("bound_id", ["dirichlet_margin", "stochastic_margin", "f2"])
    def test_K_above_limit_is_rejected(self, bound_id):
        """Past K_init = 1e300 the top of the search range, K_init * 2**16,
        overflows: certify raises instead of searching on NaN.  A K_init of
        0, below 0 or NaN has no ln K to start from; WeightPosterior refuses
        it, and the search raises the same error for it."""
        P = random_matrix(seed=0, m=60, d=6, accuracy=0.75)
        wp = WeightPosterior(uniform_theta(6), 1e305)
        with pytest.raises(ValueError, match=r"must lie in \(0, 1e300\]"):
            bounds.certify(P, wp, BoundSpec(m=60, delta=0.05), bound_id, SearchConfig(n_gamma=5))
        for K in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=r"must lie in \(0, 1e300\]"):
                bounds._K_range(K)

    def test_K_limit_is_inclusive(self):
        """K_init = 1e300 certifies, the next float up does not; 0, below 0
        and NaN are refused by the K range itself."""
        P = random_matrix(seed=0, m=60, d=6, accuracy=0.75)
        spec, cfg = BoundSpec(m=60, delta=0.05), SearchConfig(n_gamma=5)
        r = bounds.certify(P, WeightPosterior(uniform_theta(6), 1e300), spec, "dirichlet_margin",
                           cfg)
        assert 0.0 <= r.value <= 1.0
        wp = WeightPosterior(uniform_theta(6), np.nextafter(1e300, 2e300))
        with pytest.raises(ValueError, match=r"must lie in \(0, 1e300\]"):
            bounds.certify(P, wp, spec, "dirichlet_margin", cfg)
        for K in (np.nextafter(1e300, 2e300), 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=r"must lie in \(0, 1e300\]"):
                bounds._K_range(K)


SEARCH_LOG = bounds._search_log


@st.composite
def weak_voter_cases(draw):
    """(P, wp, spec) for a K search: a binary or 3-class matrix of weak
    voters, uniform or Dirichlet(1) weights, K_init = 1."""
    seed = draw(st.integers(0, 2**32 - 1))
    c, m, d = draw(st.sampled_from([2, 3])), draw(st.integers(20, 60)), draw(st.integers(3, 30))
    rng = np.random.default_rng(seed)
    P = random_matrix(seed, m, d, c, accuracy=float(rng.uniform(0.5, 0.8)))
    theta = uniform_theta(d) if draw(st.booleans()) else rng.dirichlet(np.ones(d))
    return P, WeightPosterior(theta, 1.0), BoundSpec(m=m, delta=0.05)


def searches_of(P, wp, spec, bound_id, cfg):
    """(values_at, lo, hi, (x, values)) of each search a certify runs."""
    searches = []

    def spy(values_at, lo, hi, floor=None, tol=None, rows=None):
        got = SEARCH_LOG(values_at, lo, hi, floor, tol, rows)
        searches.append((values_at, lo, hi, got))
        return got

    with patch.object(bounds, "_search_log", spy):
        bounds.certify(P, wp, spec, bound_id, cfg)
    return searches


class TestSearchAgainstScan:
    """The K search finds, on every lane, the minimum of an exhaustive scan
    of its range."""

    @settings(max_examples=30, deadline=None)
    @given(case=weak_voter_cases(),
           bound_id=st.sampled_from(["dirichlet_margin", "stochastic_margin", "f2"]))
    def test_every_lane_reaches_the_scanned_minimum(self, case, bound_id):
        """Every lane's certificate, its searched value clipped at 1, is
        within 1e-8 of the clipped smallest of 2,001 evenly spaced ln K in
        the range; a lane that the stochastic floor dropped has no scanned
        value at or below the smallest value found."""
        [(values_at, lo, hi, (_, values))] = searches_of(*case, bound_id, SearchConfig(6))
        n = lo.size
        assert (lo == case[1].K).all() and (hi == case[1].K * bounds._K_SPAN).all()
        x = np.linspace(math.log(lo[0]), math.log(hi[0]), 2001)
        scan = values_at(np.repeat(np.arange(n), x.size), np.tile(x, n)).reshape(n, -1).min(axis=1)
        kept = np.isfinite(values)
        assert (np.minimum(1.0, values[kept]) <= np.minimum(1.0, scan[kept]) + 1e-8).all()
        assert (scan[~kept] > values.min()).all()

    def test_calls_against_golden_section(self):
        """On the bench certify workload's shapes (383 x 108 binary and
        1000 x 60 3-class, Dirichlet(5) weights, n_gamma=10) the three K
        searches together make at most 60% of the value calls of the
        golden-section search they replace, which made 24 each: the top,
        the bottom, two interior points and 20 steps from a bracket of
        16 ln 2 down to 1e-3."""
        for seed, (m, d, c) in enumerate([(383, 108, 2), (1000, 60, 3)]):
            P = random_matrix(seed, m, d, c, accuracy=0.7)
            wp = WeightPosterior(np.random.default_rng(seed).dirichlet(np.full(d, 5.0)), 1.0)
            calls = 0
            for bound_id in ("dirichlet_margin", "stochastic_margin", "f2"):
                counted = []

                def spy(values_at, lo, hi, floor=None, tol=None, rows=None):
                    def count(lanes, x):
                        counted.append(1)
                        return values_at(lanes, x)

                    return SEARCH_LOG(count, lo, hi, floor, tol, rows)

                with patch.object(bounds, "_search_log", spy):
                    bounds.certify(P, wp, BoundSpec(m=m, delta=0.05), bound_id, SearchConfig(10))
                calls += len(counted)
            assert calls <= 0.6 * 3 * 24


class TestDirichletKLMemo:
    """The searches' (K, row) -> KL closure sends the kernel one row per
    distinct (row, K) pair of each call and gathers the values back to the
    call's lanes."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 120),
        seed=st.integers(0, 2**32 - 1),
        pool=st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=6, unique=True),
        calls=st.lists(st.lists(st.integers(0, 17), min_size=0, max_size=12), min_size=1,
                       max_size=6),
        scalar=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_equals_dirichlet_kl_on_every_lane(self, d, seed, pool, calls, scalar):
        """On a stack of three weight rows, every lane equals the kernel's
        value at its own row and K."""
        thetas = np.random.default_rng(seed).dirichlet(np.ones(d), size=3)
        ones = np.ones(d)
        want = {(r, K): nk.dirichlet_kl(K * thetas[r], ones) for r in range(3) for K in pool}
        calls = [[(i % 3, pool[i // 3 % len(pool)]) for i in picks] for picks in calls]
        # The same calls in order and reversed, each order on its own closure,
        # with a call of one lane sent as a 0-d K and row where ``scalar`` says so.
        for order in (calls, calls[::-1]):
            kl_of = bounds._dirichlet_kl_of(thetas)
            for picks, as_scalar in zip(order, scalar):
                if as_scalar and len(picks) == 1:
                    (r, K), = picks
                    got = kl_of(np.float64(K), r)
                    assert got.shape == () and got == want[r, K]
                else:
                    rows = np.array([r for r, _ in picks], dtype=int)
                    got = kl_of(np.array([K for _, K in picks], dtype=float), rows)
                    assert got.shape == (len(picks),)
                    assert got.tolist() == [want[pick] for pick in picks]

    def test_each_call_sends_each_K_once(self, monkeypatch):
        """A dirichlet_margin certify at n_gamma=100, and margin_bound on a
        stack of three rows, send the kernel, on each call, one row per
        distinct (row, K) pair of the call's lanes, though its lanes repeat
        them."""
        asked, rows = [], []
        closure, kernel = bounds._dirichlet_kl_of, nk._dirichlet_kl_to

        def spy_closure(thetas):
            kl_of = closure(thetas)

            def spied(K, row):
                K, row = np.broadcast_arrays(K, row)
                asked.append(list(zip(row.ravel().tolist(), K.ravel().tolist())))
                return kl_of(K, row)

            return spied

        def spy_kernel(beta):
            kl = kernel(beta)

            def spied(a):
                rows.append(a.size // a.shape[-1])
                return kl(a)

            return spied

        monkeypatch.setattr(bounds, "_dirichlet_kl_of", spy_closure)
        monkeypatch.setattr(nk, "_dirichlet_kl_to", spy_kernel)
        P = random_matrix(seed=3, m=300, d=40, accuracy=0.6)
        rng = np.random.default_rng(3)
        wp = WeightPosterior(rng.dirichlet(np.ones(40)), 1.0)
        bounds.certify(P, wp, BoundSpec(m=300, delta=0.05), "dirichlet_margin",
                       SearchConfig(n_gamma=100))
        certify_calls = len(asked)
        bounds.margin_bound("dirichlet_margin", 0.1, rng.dirichlet(np.ones(40), size=3),
                            np.linspace(0.05, 0.45, 9), BoundSpec(m=300, delta=0.05))
        assert certify_calls < len(asked)
        assert {r for call in asked[certify_calls:] for r, _ in call} == {0, 1, 2}
        assert rows == [len(set(pairs)) for pairs in asked]
        assert sum(rows) < sum(map(len, asked))


def every_row_beta_losses(a_c, a_w):
    """A stand-in for ``bounds._beta_losses`` on a stack of one that
    ignores the weight rows and the distinct masses it is given and runs the
    CDF on every example of (a_c, a_w), as the search did before examples
    were collapsed: the reference for the searches' Beta-CDF loss."""

    def losses(K, gammas, rows, masses):
        out = np.empty(K.size)
        step = max(1, bounds._BETA_LANES // a_c.size)
        for s in range(0, K.size, step):
            k = K[s:s + step, None]
            terms = votes.beta_margin_loss_terms(k * a_c, k * a_w, gammas[s:s + step, None])
            out[s:s + step] = terms.mean(axis=1)
        return out

    return losses


class TestBetaDistinctMasses:
    """The Beta-CDF searches (stochastic_margin, f2) run the CDF once per
    distinct row mass (a_c, a_w) and return what running it on every row
    returns."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.sampled_from([2, 3]),
        base=st.integers(2, 8),
        d=st.integers(2, 6),
        copies=st.integers(1, 12),
        weights=st.sampled_from(["uniform", "dirichlet", "zeros"]),
        n_gamma=st.sampled_from([1, 10]),
        bound_id=st.sampled_from(["stochastic_margin", "f2"]),
    )
    def test_equals_every_row_search(self, seed, c, base, d, copies, weights, n_gamma,
                                     bound_id):
        rng = np.random.default_rng(seed)
        labels = rng.integers(1, c + 1, size=base)
        preds = rng.integers(1, c + 1, size=(base, d))
        # One row every voter gets right (a_w = 0), one every voter gets wrong
        # (a_c = 0).
        preds[0] = labels[0]
        preds[1] = labels[1] % c + 1
        order = rng.permutation(base * copies)
        P = PredictionMatrix(np.tile(preds, (copies, 1))[order], np.tile(labels, copies)[order], c)
        theta = uniform_theta(d) if weights == "uniform" else rng.dirichlet(np.ones(d))
        if weights == "zeros":
            theta[rng.permutation(d)[:d // 2]] = 0.0
        wp = WeightPosterior(theta, float(rng.choice([1.0, 40.0])))
        spec = BoundSpec(m=P.num_examples, delta=0.05)
        cfg = SearchConfig(n_gamma=n_gamma)
        got = bounds.certify(P, wp, spec, bound_id, cfg)
        th = bounds._Posterior(wp.theta[None]).floored[0]
        with patch.object(bounds, "_beta_losses",
                          every_row_beta_losses(P.correct_mass(th), P.wrong_mass(th))):
            want = bounds.certify(P, wp, spec, bound_id, cfg)
        assert repr(got) == repr(want)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lanes_per_chunk=st.integers(1, 4),
        size=st.integers(1, 30),
        shared_K=st.integers(1, 30),
    )
    def test_lane_loss_ignores_the_other_lanes(self, seed, lanes_per_chunk, size, shared_K):
        """Each lane's loss is the same in a call of any of the lanes,
        chunked at any size, as in the call of all of them, in a call of its
        own and in a call on its weight row's stack of one, bit for bit; the
        lanes share at most ``shared_K`` distinct K, as the rungs of the K
        search's ladder do, and come from three weight rows, one of them
        uniform (few distinct masses)."""
        rng = np.random.default_rng(seed)
        m, d = int(rng.integers(10, 41)), int(rng.integers(2, 9))
        P, gammas = random_matrix(seed, m, d), SearchConfig(30).gamma_grid()
        thetas = np.stack([rng.dirichlet(np.ones(d)), uniform_theta(d), rng.dirichlet(np.ones(d))])
        post = bounds._Posterior(thetas, 1.0, P, gammas)
        K = np.exp(rng.uniform(math.log(0.01), math.log(0.01 * 2.0**16), shared_K))[
            rng.integers(0, shared_K, 30)]
        row = rng.integers(0, 3, 30)
        sub = np.sort(rng.permutation(30)[:size])
        want = bounds._beta_losses(K, gammas, row, post.masses)[sub]
        width = max(cols.shape[1] for cols, *_ in post.masses)
        with patch.object(bounds, "_BETA_LANES", lanes_per_chunk * width):
            got = bounds._beta_losses(K[sub], gammas[sub], row[sub], post.masses)
        alone = [bounds._beta_losses(K[i:i + 1], gammas[i:i + 1], row[i:i + 1], post.masses)[0]
                 for i in sub]
        own = [bounds._beta_losses(K[i:i + 1], gammas[i:i + 1], np.zeros(1, dtype=int),
                                   bounds._Posterior(thetas[row[i]][None], 1.0, P).masses)[0]
               for i in sub]
        assert got.tolist() == want.tolist() == alone == own

    def test_cdf_lanes_per_step(self, monkeypatch):
        """A uniform-weight stochastic_margin certify at the default grid sends
        the CDF at most (d + 1) lanes per searched point at each step, where
        every-row evaluation sends one per row."""
        m, d = 766, 27
        steps = []
        beta_losses, cdf = bounds._beta_losses, nk.reg_inc_beta

        def spy_losses(K, gammas, *args):
            steps.append([np.unique(gammas).size, K.size, 0])
            return beta_losses(K, gammas, *args)

        def spy_cdf(z, a, b, log_beta=None):
            steps[-1][2] += np.size(z)
            return cdf(z, a, b, log_beta=log_beta)

        monkeypatch.setattr(bounds, "_beta_losses", spy_losses)
        monkeypatch.setattr(nk, "reg_inc_beta", spy_cdf)
        P = random_matrix(seed=0, m=m, d=d, accuracy=0.6)
        bounds.certify(P, WeightPosterior(uniform_theta(d), 1.0), BoundSpec(m=m, delta=0.05),
                       "stochastic_margin")
        assert max(step[0] for step in steps) == SearchConfig().n_gamma
        assert all(lanes <= (d + 1) * n for _, n, lanes in steps)


@st.composite
def stochastic_cases(draw):
    """(P, wp, spec, cfg) for a stochastic_margin certify: a binary or
    3-class matrix, uniform, Dirichlet or zero-holding weights, n_gamma in
    {1, 10, 100} and K_init in {1e-2, 1, 40, 1e4}; with ``vacuous`` every
    voter errs on every row, so every margin's value is 1."""
    seed = draw(st.integers(0, 2**32 - 1))
    c, m, d = draw(st.sampled_from([2, 3])), draw(st.integers(4, 40)), draw(st.integers(2, 8))
    weights = draw(st.sampled_from(["uniform", "dirichlet", "zeros"]))
    n_gamma = draw(st.sampled_from([1, 10, 100]))
    K_init = draw(st.sampled_from([1e-2, 1.0, 40.0, 1e4]))
    rng = np.random.default_rng(seed)
    P = random_matrix(seed, m, d, c, accuracy=float(rng.uniform(0.5, 0.95)))
    vacuous = draw(st.booleans())
    if vacuous:
        P = PredictionMatrix(np.tile(P.labels[:, None] % c + 1, (1, d)), P.labels, c)
    theta = uniform_theta(d) if weights == "uniform" else rng.dirichlet(np.ones(d))
    if weights == "zeros":
        theta[rng.permutation(d)[:d // 2]] = 0.0
    return P, WeightPosterior(theta, K_init), BoundSpec(m=m, delta=0.05), SearchConfig(n_gamma)


def search_without_floor(values_at, lo, hi, floor=None, tol=None, rows=None):
    """``bounds._search_log`` with the floor left out."""
    return SEARCH_LOG(values_at, lo, hi, tol=tol)


class TestStochasticFloor:
    """The stochastic_margin K search drops the margins that
    ``bounds._stochastic_floor`` shows cannot reach the smallest value
    found, and finds what the search without the floor finds."""

    @settings(max_examples=25, deadline=None)
    @given(case=stochastic_cases())
    def test_floor_is_below_every_value_up_to_the_top(self, case):
        """On every lane, the clipped value at every point of a dense ln K
        grid is at least the floor at that point and at every point above."""
        P, wp, spec, cfg = case
        post = bounds._Posterior(wp.theta[None], wp.K, P, cfg.gamma_grid())
        union = replace(spec, delta=spec.delta / cfg.n_gamma)
        x = np.linspace(math.log(wp.K), math.log(wp.K * bounds._K_SPAN), 193)
        K, g = (arr.ravel() for arr in np.meshgrid(np.exp(x), post.gammas))
        u = bounds._beta_losses(K, g, np.zeros(K.size, dtype=int), post.masses)
        values = np.minimum(1.0, bounds._stochastic_formula(u, K, g, post.kl_of(K, 0), union)[0])
        lowest = np.minimum.accumulate(values.reshape(cfg.n_gamma, x.size), axis=1)
        floors = bounds._stochastic_floor(x, post.gammas[:, None], union)
        assert (lowest >= floors).all()

    @settings(max_examples=25, deadline=None)
    @given(case=stochastic_cases())
    def test_certificate_equals_search_without_floor(self, case):
        P, wp, spec, cfg = case
        got = bounds.certify(P, wp, spec, "stochastic_margin", cfg)
        with patch.object(bounds, "_search_log", search_without_floor):
            want = bounds.certify(P, wp, spec, "stochastic_margin", cfg)
        assert repr(got) == repr(want)

    @settings(max_examples=25, deadline=None)
    @given(case=stochastic_cases())
    # Here the floor keeps 4 of the 10 margins after the top's call, and the
    # search's last calls hold 2.
    @example(case=(random_matrix(507, 30, 3, accuracy=0.7239834195936858),
                   WeightPosterior(np.array([0.018373442219029427, 0.14280972626364885,
                                             0.8388168315173218]), 0.01),
                   BoundSpec(m=30, delta=0.05), SearchConfig(10)))
    # Here the floor leaves the winning margin's 14 lowest rungs out of the
    # ladder.
    @example(case=(random_matrix(299, 21, 7, 3, accuracy=0.8203948935413525),
                   WeightPosterior(uniform_theta(7), 0.01), BoundSpec(m=21, delta=0.05),
                   SearchConfig(10)))
    def test_incumbent_lanes_are_never_dropped(self, case):
        """Every lane that reaches the smallest value without the floor is
        evaluated with it at the same points in the same order, but for a
        bottom run of ladder rungs, each below a rung whose floor exceeds
        the lane's top value; it ends with the same point and value.  Every
        other lane ends as it would or at +inf."""
        searches = []

        def spied(values_at, calls):
            def spy(lanes, x):
                calls.append((lanes.tolist(), x.tolist()))
                return values_at(lanes, x)

            return spy

        def both(values_at, lo, hi, floor=None, tol=None, rows=None):
            with_floor, without = [], []
            got = SEARCH_LOG(spied(values_at, with_floor), lo, hi, floor, tol, rows)
            want = SEARCH_LOG(spied(values_at, without), lo, hi, tol=tol)
            searches.append((values_at, floor, with_floor, without, got, want))
            return got

        def points_of(lane, calls):
            """The lane's points in each call up to its last: the search
            without the floor may go on for lanes that the floor drops."""
            points = [[x for i, x in zip(*call) if i == lane] for call in calls]
            while points and not points[-1]:
                points.pop()
            return points

        P, wp, spec, cfg = case
        with patch.object(bounds, "_search_log", both):
            bounds.certify(P, wp, spec, "stochastic_margin", cfg)
        [(values_at, floor, with_floor, without, (got_x, got_v), (want_x, want_v))] = searches
        for i in np.flatnonzero(want_v == want_v.min()):
            [[top]], [ladder, *steps] = points_of(i, with_floor[:1]), points_of(i, with_floor[1:])
            want_ladder, *want_steps = points_of(i, without)
            assert want_ladder[0] == top and steps == want_steps
            rungs = want_ladder[1:] + [top]
            skipped = len(rungs) - 1 - len(ladder)
            assert ladder == rungs[skipped:-1]
            top_value = values_at(np.array([i]), np.array([top]))
            lane = np.full(skipped, i)
            assert (floor(lane, np.array(rungs[1:skipped + 1])) > top_value).all()
        kept = np.isfinite(got_v)
        assert (got_x[kept] == want_x[kept]).all() and (got_v[kept] == want_v[kept]).all()
        assert (want_v[~kept] > want_v.min()).all()

    def test_floor_skips_ladder_rungs(self):
        """On a 300 x 20 matrix with Dirichlet(5) weights at n_gamma=50, the
        stochastic_margin search sends 513 points to the value function
        (755 when the floor drops whole margins only, 1,201 without it), and
        its certificate is that of the search without the floor."""
        P = random_matrix(0, 300, 20)
        wp = WeightPosterior(np.random.default_rng(0).dirichlet(np.full(20, 5.0)), 1.0)
        spec, cfg = BoundSpec(m=300, delta=0.05), SearchConfig(50)
        results, points = [], []
        for search in (SEARCH_LOG, search_without_floor):
            sent = []

            def counted(values_at, lo, hi, floor=None, tol=None, rows=None):
                def count(lanes, x):
                    sent.append(lanes.size)
                    return values_at(lanes, x)

                return search(count, lo, hi, floor, tol, rows)

            with patch.object(bounds, "_search_log", counted):
                results.append(repr(bounds.certify(P, wp, spec, "stochastic_margin", cfg)))
            points.append(sum(sent))
        assert points == [513, 1201]
        assert results[0] == results[1]


def int_profile(a, b, centre2, T):
    """a (2T - centre2)^2 + b |2T - centre2|: integer-valued and unimodal on
    the counts, with a tie between two neighbours when centre2 is odd."""
    d = 2 * T - centre2
    return (a * d * d + b * np.abs(d)).astype(float)


def int_profile_min(t_max, a, b, centre2):
    """(T, value) of int_profile's smallest value over {1..t_max}, the
    smallest T on ties: by an exhaustive scan up to 2**16 counts, and above
    by its closed form, the nearest count at or below centre2 / 2 in range
    (the profile is strictly convex in |2T - centre2| away from its tie)."""
    if t_max <= 2**16:
        values = int_profile(a, b, centre2, np.arange(1, t_max + 1))
        best = int(values.argmin())
        return best + 1, float(values[best])
    T = min(max(centre2 // 2, 1), t_max)
    return T, float(int_profile(a, b, centre2, np.array(T)))


@st.composite
def int_lanes(draw):
    """One lane of the T search: (t_max, a, b, centre2), its minimum
    anywhere from below the range to above it."""
    t_max = draw(st.integers(1, 2**23))
    a, b = draw(st.integers(0, 5).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(1 if a == 0 else 0, 5))))
    return t_max, a, b, draw(st.integers(-20, 2 * t_max + 20))


class TestLockstepTSearch:
    @settings(max_examples=200, deadline=None)
    @given(lanes=st.lists(int_lanes(), min_size=1, max_size=6))
    def test_matches_exhaustive_scan(self, lanes):
        t_max, a, b, centre2 = (np.array(col) for col in zip(*lanes))
        got_t, got_value = bounds._search_counts(
            lambda rows, T: int_profile(a[rows], b[rows], centre2[rows], T), t_max)
        for i, lane in enumerate(lanes):
            assert (got_t[i], got_value[i]) == int_profile_min(*lane)

    def test_reaches_a_valley_around_the_quarter_top(self):
        """A profile flat at 1 except for a valley strictly between the
        rungs 700 and 2800 of the range {1..5600} (as bgplusplus is flat
        where its penalty is large): its rung top / 4 = 1400, where bgplus
        puts its count, leads the search into it.  The range {1..4096} has
        no rung in the valley, and the search stays at the flat value."""
        def profile(rows, T):
            return np.minimum(1.0, 0.5 + ((T - 1500) / 400.0) ** 2)

        t, value = bounds._search_counts(profile, np.array([5600, 4096]))
        assert (t[0], value[0]) == (1500, 0.5)
        assert (t[1], value[1]) == (1, 1.0)

    def test_stops_short_of_its_step_limit_past_1e15_counts(self):
        """Past ~1e15 counts the tolerance ``_T_SCAN`` / top lies below the
        float spacing of ln T, where no step that short moves.  On a profile
        that falls to the top of {1..2^70} and is flat there to the last bit
        (as bgplusplus is on two uniform voters), the search stops at a few
        spacings instead of stepping on to ``_K_MAX_ITER``."""
        top, calls = 2.0**70, []

        def falling(rows, T):
            calls.append(rows.size)
            return 0.25 + 1e-8 * np.exp(-18.0 * T / top)

        t, value = bounds._search_counts(falling, np.array([top]))
        assert t[0] == pytest.approx(top, rel=1e-12)
        assert value[0] == pytest.approx(0.25, abs=1e-15)
        assert len(calls) < bounds._K_MAX_ITER / 2


class TestGridFormulas:
    """The margin-grid bounds' one call over every margin, and the Dirichlet
    formulas' one call over every lane, equal one call per lane."""

    @pytest.mark.parametrize("bound_id", [
        "gz", "bgplus", "bg", "bgplusplus", "dirichlet_margin", "stochastic_margin", "f2"])
    def test_lanes_equal_one_lane_calls(self, bound_id):
        rng = np.random.default_rng(8)
        theta = rng.dirichlet(np.ones(400))
        spec = BoundSpec(m=700, delta=0.05)
        # bgplusplus: T ranges of 220 to 8,192 counts
        gammas = np.concatenate([np.geomspace(0.08, 0.3, 5), np.linspace(0.36, 0.49, 4)])
        losses = rng.uniform(0.0, 0.4, gammas.size)
        # the Dirichlet formulas at a given K: from the floored-weight regime
        # up to values clipped at 1, and one lane whose KL is not finite
        Ks = np.array([1e-310, 1e-3, 1.0, 40.0, 400.0, 3e3, 1e5, 1e9, 1e14])

        def formula(loss, K, g):
            if bound_id == "stochastic_margin":
                return stochastic_from_loss(loss, theta, K, g, spec)
            if bound_id == "f2":
                return f2_from_loss(loss, theta, K, spec)
            # a margin-grid bound; dirichlet_margin searches K from 1
            return bounds.margin_bound(bound_id, loss, theta[None], g, spec)[0]

        lanes = formula(losses, Ks, gammas)
        for i, lane in enumerate(zip(losses, Ks, gammas)):
            assert bounds._lane(lanes, i) == formula(*map(float, lane))


def result_bits(r):
    """Every field of a BoundResult as (shape, bytes), None as None, and its flags."""
    return [None if x is None else (np.shape(x), np.asarray(x, dtype=float).tobytes())
            for x in (r.value, r.gamma_star, r.K_star, r.T_star, r.empirical_term,
                      r.complexity_term, r.derandomisation_term)] + [r.flags]


class TestWeightStacks:
    """margin_bound on an (R, d) stack of weight vectors: one formula call,
    and one search, over every row's lanes; each row's result is that of its
    stack of one, bit for bit."""

    @staticmethod
    def stack(d):
        """Four rows: Dirichlet(1) weights, uniform weights (bgplusplus's
        complexity vanishes), and two rows with zero weights, floored each
        by its own sum: Dirichlet(1) with every fourth weight zero, and
        Dirichlet(0.2) with every fifth."""
        rng = np.random.default_rng(12)
        sparse = rng.dirichlet(np.ones(d))
        sparse[::4] = 0.0
        sparser = rng.dirichlet(np.full(d, 0.2))
        sparser[::5] = 0.0
        return np.stack([rng.dirichlet(np.ones(d)), uniform_theta(d), sparse / sparse.sum(),
                         sparser / sparser.sum()])

    @pytest.mark.parametrize("bound_id", ["dirichlet_margin", "gz", "bgplus", "bg", "bgplusplus"])
    def test_rows_equal_stacks_of_one(self, bound_id):
        d, spec = 100, BoundSpec(m=2000, delta=0.5)
        thetas = self.stack(d)
        gammas = np.linspace(0.005, 0.495, 12)
        # gz does not hold below sqrt(2 / d): those margins are left out, as
        # compare leaves them out, and a stack with them is rejected.
        ok = bounds.margin_applies(bound_id, gammas, d)
        assert ok.all() != (bound_id == "gz")
        if not ok.all():
            with pytest.raises(ValueError, match="does not hold"):
                bounds.margin_bound(bound_id, 0.1, thetas, gammas, spec)
        losses = np.linspace(0.0, 0.3, gammas.size)[ok]
        rows = bounds.margin_bound(bound_id, losses, thetas, gammas[ok], spec)
        scalar = bounds.margin_bound(bound_id, 0.1, thetas, 0.3, spec)
        assert len(rows) == len(scalar) == len(thetas)
        for theta, got, got_scalar in zip(thetas, rows, scalar):
            assert result_bits(got) == result_bits(
                bounds.margin_bound(bound_id, losses, theta[None], gammas[ok], spec)[0])
            assert got_scalar == bounds.margin_bound(bound_id, 0.1, theta[None], 0.3, spec)[0]
        assert [r.flags for r in rows] == [(), ()] + [("theta_floored",)] * 2
        # The rows' searches end at different knobs.
        knob = {"dirichlet_margin": "K_star", "bgplusplus": "T_star"}.get(bound_id)
        if knob:
            assert len({tuple(getattr(r, knob)) for r in rows}) > 1

    @pytest.mark.parametrize("bound_id", ["dirichlet_margin", "gz", "bgplus", "bg", "bgplusplus"])
    def test_rows_must_be_probability_vectors(self, bound_id):
        """Every row is checked as nk._simplex_array checks a vector, for
        every bound id; nothing is renormalised."""
        spec = BoundSpec(m=1000, delta=0.05)
        good = uniform_theta(3)
        for bad, match in (([2.0, 3.0, 5.0], "sum to 1"),
                           ([math.nan, 0.5, 0.5], "non-negative and finite"),
                           ([0.7, 0.7, -0.4], "non-negative and finite"),
                           ([math.inf, 0.5, 0.5], "non-negative and finite")):
            for thetas in ([bad], [good, bad]):
                with pytest.raises(ValueError, match=match):
                    bounds.margin_bound(bound_id, 0.1, np.array(thetas), 0.4, spec)
        for thetas in (good, np.zeros((0, 3)), [[1.0]]):
            with pytest.raises(ValueError, match="theta"):
                bounds.margin_bound(bound_id, 0.1, np.array(thetas), 0.4, spec)


class TestPosteriorStacks:
    """certify_all on a stack of posteriors: one search per searched bound
    over every row's lanes; each row's results are those of its stack of
    one, bit for bit."""

    @staticmethod
    def stack(d):
        """Posteriors (weights, K) of six kinds: Dirichlet(1) at K = 1, a
        row that asks for no bound, uniform at K = 30, Dirichlet(5) at K =
        50, Dirichlet(1) with every fourth weight zero (floored), and 0.94
        of the weight on a voter that is always wrong (vacuous)."""
        rng = np.random.default_rng(5)
        sparse = rng.dirichlet(np.ones(d))
        sparse[::4] = 0.0
        wrong = np.full(d, 0.06 / (d - 1))
        wrong[0] = 0.94
        return [WeightPosterior(rng.dirichlet(np.ones(d)), 1.0),
                WeightPosterior(rng.dirichlet(np.ones(d)), 5.0),
                WeightPosterior(uniform_theta(d), 30.0),
                WeightPosterior(rng.dirichlet(np.full(d, 5.0)), 50.0),
                WeightPosterior(sparse / sparse.sum(), 1.0),
                WeightPosterior(wrong, 1.0)]

    @pytest.mark.parametrize("bound_id", bounds.BOUND_IDS)
    def test_rows_equal_stacks_of_one(self, bound_id):
        d, m = 12, 200
        P = random_matrix(seed=8, m=m, d=d, accuracy=0.7)
        P = PredictionMatrix(np.column_stack([P.labels % 2 + 1, P.preds[:, 1:]]), P.labels, 2)
        spec, cfg = BoundSpec(m=m, delta=0.05), SearchConfig(n_gamma=20)
        wps = self.stack(d)
        ids = [(bound_id,)] * len(wps)
        ids[1] = ()
        searches = []

        def spy(*args, **kwargs):
            searches.append(1)
            return SEARCH_LOG(*args, **kwargs)

        with patch.object(bounds, "_search_log", spy):
            got = bounds.certify_all(P, wps, spec, ids, cfg)
        searched = bound_id in ("dirichlet_margin", "stochastic_margin", "f2", "bgplusplus")
        assert len(searches) == searched and got[1] == {}
        for wp, want_ids, results in zip(wps, ids, got):
            assert tuple(results) == want_ids
            if want_ids:
                assert result_bits(results[bound_id]) == result_bits(
                    bounds.certify(P, wp, spec, bound_id, cfg))
        rows = [results[bound_id] for results in got if results]
        assert "vacuous" in rows[-1].flags
        assert [r.flags.count("theta_floored") for r in rows] == (
            [0, 0, 0, 1, 0] if bounds._BOUNDS[bound_id].floored else [0] * 5)
        # The rows' searches end at different knobs.
        knob = {"bgplusplus": "T_star"}.get(bound_id, "K_star")
        if searched:
            assert len({getattr(r, knob) for r in rows}) > 1

    def test_floor_drop_is_per_row(self):
        """stochastic_margin's search drops a lane against the smallest value
        of its own row only.  Next to a posterior certified at 0.175, one
        certified at 0.445 keeps its best lane, although that lane's floor
        lies above 0.175: against the smallest value of every row, the
        search drops it and certifies 0.473."""
        d, m = 8, 120
        P = random_matrix(seed=7, m=m, d=d, accuracy=0.75)
        spec, cfg = BoundSpec(m=m, delta=0.05), SearchConfig(n_gamma=10)
        high = WeightPosterior(np.random.default_rng(7).dirichlet(np.ones(d)), 1e-3)
        low = WeightPosterior(uniform_theta(d), 30.0)
        alone = [bounds.certify(P, wp, spec, "stochastic_margin", cfg) for wp in (high, low)]
        union = replace(spec, delta=spec.delta / cfg.n_gamma)
        top = math.log(high.K * bounds._K_SPAN)
        assert bounds._stochastic_floor(top, alone[0].gamma_star, union) > alone[1].value
        ids = [("stochastic_margin",)] * 2
        got = bounds.certify_all(P, [high, low], spec, ids, cfg)
        assert [r["stochastic_margin"] for r in got] == alone

        def one_row(values_at, lo, hi, floor=None, tol=None, rows=None):
            return SEARCH_LOG(values_at, lo, hi, floor, tol)

        with patch.object(bounds, "_search_log", one_row):
            shared = bounds.certify_all(P, [high, low], spec, ids, cfg)
        assert shared[0]["stochastic_margin"].value > alone[0].value
        assert shared[1]["stochastic_margin"] == alone[1]

    def test_rejects_a_stack_without_one_id_list_per_row(self):
        P = random_matrix(seed=2, m=60, d=6)
        spec, wp = BoundSpec(m=60, delta=0.05), WeightPosterior.uniform(6)
        for posteriors, ids in (([], []), ([wp], []), ([wp, wp], [("fo",)])):
            with pytest.raises(ValueError, match="one list of bound ids each"):
                bounds.certify_all(P, posteriors, spec, ids)


REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "certify_reference.json")


class TestCertifyReference:
    """certify for every bound id against outputs recorded from earlier code
    (a Python loop for the grid losses and a bisection kl inverse; the
    K-searched dirichlet_margin, stochastic_margin and f2 re-recorded from
    the ladder and Brent K search): binary and 3-class matrices, uniform and
    Dirichlet-drawn weights, n_gamma in {1, 10, 50}.  The value and its components match to 1e-12;
    the knobs (gamma_star, K_star, T_star) and the flags match exactly."""

    def test_matches_recorded_outputs(self):
        with open(REFERENCE) as fh:
            recorded = json.load(fh)
        cases = {}
        for name, spec_in in recorded["inputs"].items():
            table = np.array([[int(ch) for ch in row] for row in spec_in["rows"]])
            P = PredictionMatrix(table[:, :-1], table[:, -1], spec_in["classes"])
            for weights, theta in spec_in["weights"].items():
                cases[name, weights] = (P, WeightPosterior(np.array(theta), 1.0))
        mismatches = []
        for want in recorded["results"]:
            P, wp = cases[want["matrix"], want["weights"]]
            spec = BoundSpec(m=P.num_examples, delta=0.05)
            got = bounds.certify(P, wp, spec, want["bound"], SearchConfig(n_gamma=want["n_gamma"]))
            case = (want["matrix"], want["weights"], want["n_gamma"], want["bound"])
            mismatches += reference_mismatches(case, vars(got), want)
            rebuilt = bounds.reconstruct_value(want["bound"], got)
            if rebuilt != got.value:
                mismatches.append((case, "reconstruct", rebuilt, got.value))
        assert mismatches == []
        assert len(recorded["results"]) == 2 * 2 * 3 * len(bounds.BOUND_IDS)


BETA_DRAWN_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    "beta_drawn_reference.json")


@pytest.fixture(scope="module")
def drawn_beta_certify():
    """The recorded n_gamma=200 certificates of the drawn-weight case, and
    stochastic_margin and f2 certified there now, each with the number of
    distinct margins in each of its ``_beta_losses`` calls."""
    with open(BETA_DRAWN_REFERENCE) as fh:
        recorded = json.load(fh)
    P = random_matrix(seed=0, m=766, d=27, accuracy=0.6)
    wp = WeightPosterior(np.array(recorded["theta"]), 1.0)
    beta_losses = bounds._beta_losses
    got, lanes = {}, {}
    for bound_id in ("stochastic_margin", "f2"):
        sizes = lanes[bound_id] = []

        def spy(K, gammas, *args):
            sizes.append(np.unique(gammas).size)
            return beta_losses(K, gammas, *args)

        with patch.object(bounds, "_beta_losses", spy):
            got[bound_id] = bounds.certify(P, wp, BoundSpec(m=766, delta=0.05), bound_id,
                                           SearchConfig(n_gamma=200))
    return ([w for w in recorded["results"] if (w["weights"], w["n_gamma"]) == ("drawn", 200)],
            got, lanes)


class TestBetaDrawnReference:
    """stochastic_margin and f2 with Dirichlet(5)-drawn weights, every row
    mass distinct, on the 766 x 27 matrix at n_gamma=200.  The file also
    holds the n_gamma=1000 certificates, with these weights and with uniform
    weights, that CI compares the CLI's results.csv against."""

    def test_matches_recorded_outputs(self, drawn_beta_certify):
        """The recorded certificates, by TestCertifyReference's rule."""
        wants, got, _ = drawn_beta_certify
        mismatches = []
        for want in wants:
            mismatches += reference_mismatches(want["bound"], vars(got[want["bound"]]), want)
        assert mismatches == []
        assert sorted(w["bound"] for w in wants) == ["f2", "stochastic_margin"]

    def test_search_drops_margin_lanes(self, drawn_beta_certify):
        """The stochastic_margin search's calls hold at least 35% fewer
        distinct margins than n_gamma on average (every call held all 200
        before the search dropped any); its last call is the winner's
        one-lane evaluation."""
        *search, final = drawn_beta_certify[2]["stochastic_margin"]
        assert (search[0], final) == (200, 1)
        assert sum(search) <= 0.65 * 200 * len(search)
