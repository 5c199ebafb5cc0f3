"""Monte Carlo oracle machinery: sampling, batteries, verdict logic."""
import math

import numpy as np
import pytest

from votecert import numkern as nk, oracle, votes
from votecert.oracle import McReport
from votecert.votes import PredictionMatrix

from conftest import random_matrix


class TestSampleDirichlet:
    def test_rows_are_simplex_points(self):
        s = oracle.sample_dirichlet(np.array([0.7, 2.0, 3.3]), 5000, seed=0)
        assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-12
        assert s.min() >= 0.0

    def test_uniform_marginal_ks(self):
        """Dirichlet(1,1) first coordinate is Uniform(0,1); the KS statistic
        stays below the 1% critical value at n = 1e5."""
        s = oracle.sample_dirichlet(np.array([1.0, 1.0]), 100_000, seed=1)
        stat = oracle.ks_statistic(s[:, 0], lambda z: z)
        assert stat <= 1.628 / math.sqrt(100_000)

    def test_empirical_mean_within_five_stderr(self):
        alpha = np.array([2.0, 3.0, 5.0])
        n = 1_000_000
        s = oracle.sample_dirichlet(alpha, n, seed=2)
        mean = alpha / alpha.sum()
        var = mean * (1 - mean) / (alpha.sum() + 1)
        err = np.abs(s.mean(axis=0) - mean)
        assert np.all(err <= 5 * np.sqrt(var / n))

    def test_seeded_reproducibility(self):
        a = oracle.sample_dirichlet(np.array([1.5, 2.5]), 1000, seed=3)
        b = oracle.sample_dirichlet(np.array([1.5, 2.5]), 1000, seed=3)
        np.testing.assert_array_equal(a, b)
        c = oracle.sample_dirichlet(np.array([1.5, 2.5]), 1000, seed=3, stream=1)
        assert not np.array_equal(a, c)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            oracle.sample_dirichlet(np.array([1.0, -1.0]), 10, seed=0)


class TestAggregation:
    def test_trivial_partition_is_identity(self):
        rep = oracle.verify_aggregation(np.array([1.0, 1.0]), [[0], [1]],
                                        50_000, seed=4)
        assert rep.verdict

    def test_block_against_closed_form_cdf(self):
        """Blocks {0} and {1,2} of Dirichlet(1,1,1): the second block sums to
        a Beta(2,1) variable with CDF z^2."""
        s = oracle.sample_dirichlet(np.ones(3), 100_000, seed=5)
        sums = s[:, 1] + s[:, 2]
        stat = oracle.ks_statistic(sums, lambda z: np.clip(z, 0, 1) ** 2)
        assert stat <= 1.628 / math.sqrt(100_000)
        rep = oracle.verify_aggregation(np.ones(3), [[0], [1, 2]], 100_000, seed=5)
        assert rep.verdict

    def test_mixed_parameter_blocks(self):
        rep = oracle.verify_aggregation(np.array([0.5, 2.0, 3.5]), [[0, 1], [2]],
                                        100_000, seed=6)
        assert rep.verdict
        assert rep.direction == "statistic"

    def test_partition_must_cover(self):
        with pytest.raises(ValueError):
            oracle.verify_aggregation(np.ones(3), [[0], [1]], 100, seed=0)


class TestMarchalArbel:
    def test_exact_uniform_marginal_case(self):
        """d=2, alpha=(1,1), u=(1,-1)/sqrt(2): the projection tail has the
        closed form 1/2 - t/sqrt(2), well below exp(-6 t^2)."""
        u = np.array([1.0, -1.0]) / math.sqrt(2.0)
        t = 0.3
        rep = oracle.verify_marchal_arbel(np.array([1.0, 1.0]), u, t,
                                          200_000, seed=7)
        exact = 0.5 - t / math.sqrt(2.0)
        assert rep.estimate == pytest.approx(exact, abs=5 * rep.stderr + 1e-4)
        assert rep.claim_bound == pytest.approx(math.exp(-2.0 * 3.0 * t * t))
        assert rep.verdict

    def test_large_t_both_sides_vanish(self):
        u = np.array([1.0, 0.0])
        rep = oracle.verify_marchal_arbel(np.array([5.0, 5.0]), u, 0.45,
                                          50_000, seed=8)
        assert rep.estimate <= 1e-3
        assert rep.verdict

    def test_unit_vector_required(self):
        with pytest.raises(ValueError):
            oracle.verify_marchal_arbel(np.ones(2), np.array([1.0, 1.0]), 0.1,
                                        100, seed=0)

    def test_small_battery_passes(self):
        reports = oracle.marchal_arbel_battery(seed=1, n=20_000, n_configs=8)
        assert len(reports) == 8
        assert all(r.verdict for r in reports)


class TestDerandomisation:
    def test_huge_K_matches_deterministic_losses(self):
        """At K = 1e6 the sampled weights concentrate at theta, so the MC
        estimate nails the deterministic margin loss and penalty slack
        dominates both inequalities."""
        P = random_matrix(seed=9, m=25, d=6, accuracy=0.7)
        theta = np.random.default_rng(0).dirichlet(np.ones(6))
        lower, upper = oracle.verify_derandomisation(P, theta, 1e6, 0.05,
                                                     20_000, seed=10)
        want = votes.empirical_margin_loss(P, theta, 0.05)
        assert lower.estimate == pytest.approx(want, abs=3 * lower.stderr + 1e-3)
        assert lower.verdict and upper.verdict

    def test_saturated_margin_is_trivial(self):
        P = random_matrix(seed=11, m=20, d=5)
        theta = np.full(5, 0.2)
        lower, upper = oracle.verify_derandomisation(P, theta, 10.0, 0.5,
                                                     5_000, seed=12)
        assert lower.estimate == 1.0
        assert lower.verdict and upper.verdict

    def test_one_sample_rejected(self):
        """One sample has no standard error (ddof=1 gives NaN)."""
        P = random_matrix(seed=11, m=20, d=5)
        with pytest.raises(ValueError):
            oracle.verify_derandomisation(P, np.full(5, 0.2), 10.0, 0.1, 1, seed=12)
        lower, upper = oracle.verify_derandomisation(P, np.full(5, 0.2), 10.0, 0.1, 2, seed=12)
        assert math.isfinite(lower.stderr) and math.isfinite(upper.stderr)

    def test_small_battery_passes(self):
        reports = oracle.derandomisation_battery(seed=2, n=20_000, n_configs=6)
        assert len(reports) == 12
        assert all(r.verdict for r in reports)


class TestBetaSharpness:
    def test_unanimous_matrix_both_sides_vanish(self):
        P = PredictionMatrix(np.full((15, 4), 2), np.full(15, 2), 2)
        rep = oracle.verify_beta_sharpness(P, np.full(4, 25.0), 0.05,
                                           20_000, seed=13)
        assert rep.estimate == 0.0
        assert rep.claim_bound == 0.0
        assert rep.verdict

    def test_one_sample_rejected(self):
        P = random_matrix(seed=14, m=20, d=7, accuracy=0.65)
        with pytest.raises(ValueError):
            oracle.verify_beta_sharpness(P, np.ones(7), 0.1, 1, seed=15)
        assert math.isfinite(oracle.verify_beta_sharpness(P, np.ones(7), 0.1, 2, seed=15).stderr)

    def test_binary_equality_two_sided(self):
        P = random_matrix(seed=14, m=20, d=7, accuracy=0.65)
        rep = oracle.verify_beta_sharpness(P, np.ones(7), 0.1, 200_000, seed=15)
        assert rep.direction == "two_sided"
        assert rep.verdict

    def test_multiclass_is_one_sided(self):
        P = random_matrix(seed=16, m=20, d=6, c=3, accuracy=0.6)
        rep = oracle.verify_beta_sharpness(P, np.ones(6), 0.1, 50_000, seed=17)
        assert rep.direction == "mc_lower"
        assert rep.verdict
        # the closed form really is an upper bound here, usually strict
        assert rep.claim_bound >= rep.estimate - 3 * rep.stderr


class TestMcReport:
    def test_direction_semantics(self):
        assert McReport.build("x", 0.5, 0.01, 100, 0.52, "mc_upper").verdict
        assert not McReport.build("x", 0.5, 0.01, 100, 0.6, "mc_upper").verdict
        assert McReport.build("x", 0.5, 0.01, 100, 0.48, "mc_lower").verdict
        assert not McReport.build("x", 0.5, 0.01, 100, 0.4, "mc_lower").verdict
        assert McReport.build("x", 0.5, 0.01, 100, 0.52, "two_sided").verdict
        assert not McReport.build("x", 0.5, 0.01, 100, 0.55, "two_sided").verdict

    def test_negative_stderr_rejected(self):
        with pytest.raises(ValueError):
            McReport.build("x", 0.5, -0.1, 10, 0.5, "mc_upper")

    @pytest.mark.parametrize("stderr", [math.nan, math.inf])
    def test_non_finite_stderr_rejected(self, stderr):
        """A NaN stderr (the ddof=1 deviation of one sample) would reject
        every claim; it is an error, not a verdict."""
        with pytest.raises(ValueError):
            McReport.build("x", 0.0, stderr, 1, -0.92, "mc_upper")

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            McReport.build("x", 0.5, 0.1, 10, 0.5, "sideways")
