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

    def test_small_battery_passes(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MARCHAL_ARBEL_CONFIGS", 8)
        reports = oracle.marchal_arbel_battery(seed=1, n=20_000)
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

    def test_small_battery_passes(self, monkeypatch):
        monkeypatch.setattr(oracle, "_DERANDOMISATION_CONFIGS", 6)
        reports = oracle.derandomisation_battery(seed=2, n=20_000)
        assert len(reports) == 12
        assert all(r.verdict for r in reports)


def row_by_row_margins(preds, labels, c, weights):
    """Reference margins, one row at a time: class sums by bincount, the
    runner-up by max."""
    out = np.empty(preds.shape[0])
    for i, (row, y) in enumerate(zip(preds, labels)):
        sums = np.bincount(row, weights=weights, minlength=c + 1)[1:]
        true_w = sums[y - 1]
        sums[y - 1] = -np.inf
        out[i] = 0.5 * (true_w - sums.max())
    return np.clip(out, -0.5, 0.5)


def row_by_row_losses(preds, labels, c, samples, gamma):
    """Reference per-sample margin losses, one row at a time: an (n, d) @
    (d, c) product per row, the runner-up by max."""
    totals = np.zeros(samples.shape[0])
    for row, y in zip(preds, labels):
        mass = samples @ (row[:, None] == np.arange(1, c + 1)).astype(float)
        true_w = mass[:, y - 1].copy()
        mass[:, y - 1] = -np.inf
        totals += np.clip(0.5 * (true_w - mass.max(axis=1)), -0.5, 0.5) <= gamma
    return totals / preds.shape[0]


def dyadic_weights(rng, shape):
    """Weights in {0, 1, 2, 3} / 16: every class sum is exact in any order,
    so margins land exactly on 0 and 0.25."""
    return rng.integers(0, 4, size=shape) / 16.0


class TestMarginLosses:
    """The oracle's chunked losses and direct margins against one-row-at-a-
    time references, exactly."""

    CHUNK = oracle._LOSS_CHUNK

    @pytest.mark.parametrize("c", [2, 3, 5])
    @pytest.mark.parametrize("n", [7, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    def test_chunked_losses_with_margins_at_gamma(self, c, n, gamma):
        P = random_matrix(seed=20 + c, m=9, d=6, c=c, accuracy=0.5)
        samples = dyadic_weights(np.random.default_rng(n), (n, 6))
        want = row_by_row_losses(P.preds, P.labels, c, samples, gamma)
        # some margins sit exactly on gamma, so "<=" is what is tested
        assert not np.array_equal(
            want, row_by_row_losses(P.preds, P.labels, c, samples, np.nextafter(gamma, -1)))
        got = oracle._per_sample_margin_losses(P.preds, P.labels, c, samples, gamma)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("c", [2, 3, 5])
    @pytest.mark.parametrize("n", [7, CHUNK, CHUNK + 1])
    def test_chunked_losses_on_dirichlet_samples(self, c, n):
        """The chunked product may round a class sum differently from the
        reference's per-row product in the last bit; that moves a loss only
        for a margin within an ulp of gamma, which continuous samples do
        not produce."""
        P = random_matrix(seed=30 + c, m=12, d=20, c=c, accuracy=0.6)
        samples = oracle.sample_dirichlet(np.full(20, 0.8), n, seed=n)
        want = row_by_row_losses(P.preds, P.labels, c, samples, 0.1)
        got = oracle._per_sample_margin_losses(P.preds, P.labels, c, samples, 0.1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_direct_margins(self, c):
        """Exact on dyadic weights (ties included) and on
        Dirichlet weights, whose class sums match bincount's to the bit."""
        P = random_matrix(seed=40 + c, m=50, d=6, c=c, accuracy=0.5)
        rng = np.random.default_rng(c)
        for weights in (dyadic_weights(rng, 6), rng.dirichlet(np.ones(6))):
            want = row_by_row_margins(P.preds, P.labels, c, weights)
            got = oracle._margins_direct(P.preds, P.labels, c, weights)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [14, 20, 100])
    def test_equal_weights_tie_exactly(self, d):
        """Uniform weights on rows split evenly between two classes: every
        margin is exactly 0, whatever the voters' order, so L_0 is 1.  A
        BLAS product can sum the two classes in different orders and break
        these ties by an ulp."""
        rng = np.random.default_rng(d)
        preds = np.stack([rng.permutation(np.repeat([1, 2], d // 2)) for _ in range(60)])
        labels = rng.integers(1, 3, size=60)
        weights = np.full(d, 1.0 / d)
        assert np.array_equal(oracle._margins_direct(preds, labels, 2, weights), np.zeros(60))
        assert oracle._margin_loss_direct(preds, labels, 2, weights, 0.0) == 1.0


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
