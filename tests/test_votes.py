"""Prediction-matrix and loss-functional tests."""
import math
import tracemalloc

import numpy as np
import pytest

from votecert import numkern as nk
from votecert import votes
from votecert.votes import PredictionMatrix, WeightPosterior

from conftest import random_matrix


def brute_force_margin(preds_row, label, num_classes, theta):
    sums = [0.0] * (num_classes + 1)
    for pred, w in zip(preds_row, theta):
        sums[pred] += w
    true_w = sums[label]
    rival = max(s for k, s in enumerate(sums[1:], start=1) if k != label)
    return 0.5 * (true_w - rival)


class TestConstruction:
    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            PredictionMatrix([[0, 1]], [1], 2)
        with pytest.raises(ValueError):
            PredictionMatrix([[1, 3]], [1], 2)
        with pytest.raises(ValueError):
            PredictionMatrix([[1, 2]], [1, 2], 2)

    def test_needs_two_voters(self):
        with pytest.raises(ValueError):
            PredictionMatrix([[1]], [1], 2)

    def test_posterior_normalises(self):
        wp = WeightPosterior(np.array([2.0, 2.0, 4.0]), 3.0)
        assert wp.theta.sum() == pytest.approx(1.0, abs=1e-12)
        assert (wp.K * wp.theta).sum() == pytest.approx(3.0, abs=1e-12)

    def test_posterior_rejects_bad(self):
        with pytest.raises(ValueError):
            WeightPosterior(np.array([0.5, -0.5]), 1.0)
        with pytest.raises(ValueError):
            WeightPosterior(np.array([0.5, 0.5]), 0.0)


class TestMargin:
    def test_unanimous_correct(self):
        P = PredictionMatrix(np.full((3, 4), 2), np.full(3, 2), 2)
        wp = WeightPosterior.uniform(4)
        np.testing.assert_allclose(votes.margins(P, wp.theta), np.full(3, 0.5))

    def test_binary_mass_formula(self):
        """For binary labels the margin is (correct mass) - 1/2 exactly."""
        P = random_matrix(seed=0, m=60, d=8)
        rng = np.random.default_rng(1)
        theta = rng.dirichlet(np.ones(8))
        wp = WeightPosterior(theta, 1.0)
        w = P.correct_mass(wp.theta)
        np.testing.assert_allclose(votes.margins(P, wp.theta), w - 0.5, rtol=0, atol=1e-12)

    def test_three_class_distinct_predictions(self):
        P = PredictionMatrix(np.array([[1, 2, 3]]), np.array([1]), 3)
        wp = WeightPosterior(np.array([0.5, 0.3, 0.2]), 1.0)
        assert votes.margins(P, wp.theta)[0] == pytest.approx(0.1, abs=1e-12)

    def test_matches_brute_force(self):
        P = random_matrix(seed=5, m=40, d=6, c=3, accuracy=0.5)
        rng = np.random.default_rng(2)
        theta = rng.dirichlet(np.ones(6))
        wp = WeightPosterior(theta, 1.0)
        vec = votes.margins(P, wp.theta)
        for row in range(P.num_examples):
            want = brute_force_margin(P.preds[row], P.labels[row], 3, wp.theta)
            assert vec[row] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("m,d,c", [(1, 9, 2), (40, 6, 3), (200, 50, 2), (383, 108, 2),
                                       (100, 60, 3), (30, 200, 4)])
    def test_class_weights_summed_in_voter_order(self, m, d, c):
        """The class table equals a loop that adds each voter's weight to
        its class, voter by voter, bit for bit."""
        P = random_matrix(seed=m + d, m=m, d=d, c=c, accuracy=0.5)
        theta = np.random.default_rng(d).dirichlet(np.ones(d))
        want = np.zeros((m, c))
        for j in range(d):
            want[np.arange(m), P.preds[:, j] - 1] += theta[j]
        np.testing.assert_array_equal(P.class_weight_table(theta), want)

    def test_range_invariant(self):
        P = random_matrix(seed=9, m=100, d=12, c=4, accuracy=0.4)
        theta = np.random.default_rng(3).dirichlet(np.ones(12))
        m = votes.margins(P, theta)
        assert np.all(m >= -0.5 - 1e-12) and np.all(m <= 0.5 + 1e-12)


class TestEmpiricalMarginLoss:
    def test_saturates_at_half(self):
        P = random_matrix(seed=4, m=50, d=6)
        wp = WeightPosterior.uniform(6)
        assert votes.empirical_margin_loss(P, wp.theta, 0.5) == 1.0

    def test_unanimous_correct_zero(self):
        P = PredictionMatrix(np.full((5, 4), 1), np.full(5, 1), 2)
        assert votes.empirical_margin_loss(P, WeightPosterior.uniform(4).theta, 0.1) == 0.0

    def test_crafted_matrix_fraction(self):
        # margins under uniform theta: row1 two of three correct (+1/6),
        # row2 one of three (-1/6), row3 all (-1/2), row4 all correct (+1/2)
        preds = np.array([[1, 1, 2], [1, 2, 2], [2, 2, 2], [1, 1, 1]])
        labels = np.array([1, 1, 1, 1])
        P = PredictionMatrix(preds, labels, 2)
        wp = WeightPosterior.uniform(3)
        want_margins = np.array([1 / 6, -1 / 6, -1 / 2, 1 / 2])
        np.testing.assert_allclose(votes.margins(P, wp.theta), want_margins, atol=1e-12)
        assert votes.empirical_margin_loss(P, wp.theta, 0.0) == 0.5
        assert votes.empirical_margin_loss(P, wp.theta, 0.2) == 0.75

    def test_monotone_in_gamma(self):
        P = random_matrix(seed=8, m=80, d=10, accuracy=0.6)
        wp = WeightPosterior.uniform(10)
        grid = np.linspace(0.0, 0.5, 26)
        vals = [votes.empirical_margin_loss(P, wp.theta, float(g)) for g in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0

    def test_ties_count_as_errors(self):
        preds = np.array([[1, 2], [1, 2]])
        labels = np.array([1, 2])
        P = PredictionMatrix(preds, labels, 2)
        assert votes.empirical_margin_loss(P, WeightPosterior.uniform(2).theta, 0.0) == 1.0

    @pytest.mark.parametrize("d", [14, 50, 100])
    def test_ties_exact_under_uniform_weights(self, d):
        """Every row splits its d uniform weights evenly between two classes,
        each row in its own voter order: every margin is exactly 0, so the
        loss at 0 is 1 and the vote picks the smaller class on every row."""
        rng = np.random.default_rng(d)
        preds = np.array([rng.permutation(np.repeat([1, 2], d // 2)) for _ in range(200)])
        P = PredictionMatrix(preds, rng.integers(1, 3, size=200), 2)
        theta = np.full(d, 1.0 / d)
        assert votes.empirical_margin_loss(P, theta, 0.0) == 1.0
        np.testing.assert_array_equal(votes._majority_predict(P, theta), 1)

    def test_lanewise_in_gamma(self):
        """An array of margins gives the one-margin values lane by lane, each
        the fraction of rows with margin <= gamma, margins hit exactly
        included; one negative lane is rejected."""
        P = random_matrix(seed=9, m=120, d=10, accuracy=0.6)
        theta = np.random.default_rng(9).dirichlet(np.ones(10))
        m = votes.margins(P, theta)
        gammas = np.concatenate([np.linspace(0.0, 0.5, 26), np.unique(m[m >= 0.0])])
        got = votes.empirical_margin_loss(P, theta, gammas)
        assert got.shape == gammas.shape
        for g, value in zip(gammas, got):
            assert value == votes.empirical_margin_loss(P, theta, float(g)) == np.mean(m <= g)
        with pytest.raises(ValueError):
            votes.empirical_margin_loss(P, theta, np.array([0.1, -0.1]))


class TestGibbsAndTandem:
    def test_all_correct(self):
        P = PredictionMatrix(np.full((5, 3), 2), np.full(5, 2), 2)
        theta = np.full(3, 1 / 3)
        assert votes.gibbs_loss(P, theta) == 0.0
        assert votes.tandem_loss(P, theta) == 0.0

    def test_one_hot_reduces_to_voter_error(self):
        P = random_matrix(seed=6, m=50, d=5)
        errs = P.voter_error_rates()
        for j in range(5):
            one_hot = np.zeros(5)
            one_hot[j] = 1.0
            assert votes.gibbs_loss(P, one_hot) == pytest.approx(errs[j])
            assert votes.tandem_loss(P, one_hot) == pytest.approx(errs[j])

    def test_gibbs_is_weighted_column_errors(self):
        P = random_matrix(seed=7, m=30, d=4, accuracy=0.6)
        theta = np.array([0.4, 0.3, 0.2, 0.1])
        want = sum(
            theta[j] * np.mean(P.preds[:, j] != P.labels) for j in range(4)
        )
        assert votes.gibbs_loss(P, theta) == pytest.approx(want, abs=1e-12)

    def test_two_voter_tandem_expansion(self):
        preds = np.array([[1, 2], [2, 2], [2, 1], [1, 1]])
        labels = np.array([1, 1, 1, 1])
        P = PredictionMatrix(preds, labels, 2)
        e1 = np.mean(preds[:, 0] != labels)
        e2 = np.mean(preds[:, 1] != labels)
        e12 = np.mean((preds[:, 0] != labels) & (preds[:, 1] != labels))
        theta = np.array([0.3, 0.7])
        want = theta[0] ** 2 * e1 + 2 * theta[0] * theta[1] * e12 + theta[1] ** 2 * e2
        assert votes.tandem_loss(P, theta) == pytest.approx(want, abs=1e-12)

    def test_tandem_below_gibbs(self):
        for seed in range(5):
            P = random_matrix(seed=seed, m=60, d=7, accuracy=0.6)
            theta = np.random.default_rng(seed).dirichlet(np.ones(7))
            assert votes.tandem_loss(P, theta) <= votes.gibbs_loss(P, theta) + 1e-12


class TestBinomialLoss:
    def test_all_correct(self):
        P = PredictionMatrix(np.full((5, 3), 1), np.full(5, 1), 2)
        assert votes.binomial_loss(P, np.full(3, 1 / 3), 100) == 0.0

    def test_all_wrong(self):
        P = PredictionMatrix(np.full((5, 3), 2), np.full(5, 1), 2)
        assert votes.binomial_loss(P, np.full(3, 1 / 3), 100) == 1.0

    def test_against_exact_summation(self):
        from fractions import Fraction

        P = random_matrix(seed=10, m=12, d=5, accuracy=0.6)
        theta = np.full(5, 0.2)
        p_err = P.wrong_mass(theta)
        total = 0.0
        for p in p_err:
            frac = Fraction(p).limit_denominator(10**9)
            acc = Fraction(0)
            for k in range(50, 101):
                acc += math.comb(100, k) * frac**k * (1 - frac) ** (100 - k)
            total += float(acc)
        assert votes.binomial_loss(P, theta, 100) == pytest.approx(
            total / 12, abs=1e-9
        )


class TestExpectedBetaLoss:
    def test_saturates_near_half_margin(self):
        # unanimous rows are excluded: their Beta is degenerate and pinned
        P = random_matrix(seed=12, m=40, d=6)
        preds = P.preds.copy()
        preds[:, 0] = 3 - P.labels  # voter 0 always errs
        P = PredictionMatrix(preds, P.labels, 2)
        alpha = np.full(6, 2.0)
        assert votes.expected_margin_loss_beta(P, alpha, 0.499999) > 0.999

    def test_balanced_masses_give_half(self):
        preds = np.array([[1, 2], [2, 1]])
        labels = np.array([1, 1])
        P = PredictionMatrix(preds, labels, 2)
        assert votes.expected_margin_loss_beta(P, np.array([3.0, 3.0]), 0.0) == (
            pytest.approx(0.5, abs=1e-12)
        )

    def test_degenerate_rows(self):
        preds = np.array([[2, 2], [1, 1]])  # row 1 all wrong, row 2 all right
        labels = np.array([1, 1])
        P = PredictionMatrix(preds, labels, 2)
        assert votes.expected_margin_loss_beta(P, np.array([1.0, 1.0]), 0.1) == (
            pytest.approx(0.5)  # (1 + 0) / 2
        )

    def test_per_lane_gamma_with_degenerate_rows(self):
        """A (lanes, rows) stack of masses with one margin per lane: every
        lane equals a scalar-gamma call, and the degenerate rows (no correct
        mass, no erring mass) keep their fixed terms, with partials +0.0 and
        whatever ln B is passed for them; a NaN or infinite mass raises, and
        so does a margin outside [-1/2, 1/2] or NaN, even when every row is
        degenerate."""
        a_correct = np.array([0.0, 0.3, 0.5, 1.0, 0.7])
        a_wrong = np.array([1.0, 0.7, 0.5, 0.0, 0.3])
        K = np.array([[0.5], [3.0], [40.0]])
        gammas = np.array([[0.0], [0.05], [0.3]])
        got = votes.beta_margin_loss_terms(K * a_correct, K * a_wrong, gammas)
        assert got.shape == (3, 5)
        for i in range(3):
            want = votes.beta_margin_loss_terms(
                K[i, 0] * a_correct, K[i, 0] * a_wrong, float(gammas[i, 0])
            )
            assert np.array_equal(got[i], want)
        assert np.all(got[:, 0] == 1.0) and np.all(got[:, 3] == 0.0)
        assert len(set(got[:, 2])) == 3  # each lane used its own margin

        # With partials: the same terms, and +0.0 partials on degenerate rows.
        regular = [1, 2, 4]
        terms, d_c, d_w = votes.beta_margin_loss_terms(K * a_correct, K * a_wrong, gammas,
                                                       grad=True)
        assert np.array_equal(terms.view(np.int64), got.view(np.int64))
        for d in (d_c, d_w):
            assert not np.signbit(d[:, [0, 3]]).any() and np.all(d[:, [0, 3]] == 0.0)
            assert np.all(d[:, regular] != 0.0)

        # ln B on the degenerate rows is never used: any value there leaves
        # every term unchanged.
        log_beta = np.empty((3, 5))
        log_beta[:, regular] = nk._log_beta(
            (K * a_correct[regular]).ravel(), (K * a_wrong[regular]).ravel()).reshape(3, 3)
        log_beta[:, 0] = [-1e300, 7.5, math.nan]
        log_beta[:, 3] = [1e300, -2.0, 0.0]
        with_log_beta = votes.beta_margin_loss_terms(
            K * a_correct, K * a_wrong, gammas, log_beta=log_beta)
        assert np.array_equal(with_log_beta.view(np.int64), got.view(np.int64))

        # A mass that is NaN or infinite is no degenerate row: the kernel rejects it.
        for bad in (math.nan, math.inf):
            for masses in ((np.array([bad, 0.5]), np.array([0.5, 0.5])),
                           (np.array([0.5, 0.5]), np.array([bad, 0.5]))):
                with pytest.raises(ValueError):
                    votes.beta_margin_loss_terms(*masses, 0.1)
                with pytest.raises(ValueError):
                    votes.beta_margin_loss_terms(*masses, 0.1, grad=True)

        # The margin is checked on every lane, not only where a row reaches
        # the Beta CDF; the ends of [-1/2, 1/2] are margins like any other.
        degenerate = np.array([0.0, 1.0]), np.array([0.0, 0.0])
        for edge in (-0.5, 0.5):
            assert np.array_equal(votes.beta_margin_loss_terms(*degenerate, edge), [1.0, 0.0])
        for margin in (0.7, -0.7, math.nan, np.array([[0.1], [0.7], [0.1]])):
            for masses in (degenerate, (K * a_correct, K * a_wrong)):
                for grad in (False, True):
                    with pytest.raises(ValueError, match="gamma"):
                        votes.beta_margin_loss_terms(*masses, margin, grad=grad)

    @pytest.mark.parametrize("n", [8192, 16384])
    def test_footprint(self, n):
        """The traced peak of one call on n lanes, a few of them degenerate
        rows, is at most 31 float64 per lane beside the Lentz loop's three
        numerator blocks of ``nk._BETACF_BLOCK_SIZE`` elements.  Sending the
        degenerate rows to the kernel as boundary lanes, with no gather,
        peaks at 25.2 and 28.5 per lane at 8,192 and 16,384 lanes; masking
        them out and gathering the rest peaked at 34.4 and 37.7."""
        rng = np.random.default_rng(n)
        a_c, a_w = np.exp(rng.uniform(math.log(0.5), math.log(1e4), (2, n)))
        a_c[::n // 4] = 0.0
        a_w[5::n // 4] = 0.0
        gamma = rng.uniform(0.0, 0.5, n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            votes.beta_margin_loss_terms(a_c, a_w, gamma)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (31 * n + 3 * nk._BETACF_BLOCK_SIZE)

    def test_monotone_in_gamma(self):
        P = random_matrix(seed=14, m=60, d=8, accuracy=0.6)
        alpha = np.full(8, 1.5)
        grid = np.linspace(0.0, 0.45, 12)
        vals = [votes.expected_margin_loss_beta(P, alpha, float(g)) for g in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_concentration_limit(self):
        """As K grows, rows with margin strictly above (below) gamma contribute
        0 (1); checked at K = 2^20 on a binary instance."""
        P = random_matrix(seed=15, m=50, d=9, accuracy=0.7)
        theta = np.random.default_rng(4).dirichlet(np.ones(9))
        gamma = 0.07
        margins = votes.margins(P, theta)
        keep = np.abs(margins - gamma) > 0.01
        want = float(np.mean(margins[keep] <= gamma))
        K = 2.0**20
        sub = PredictionMatrix(P.preds[keep], P.labels[keep], 2)
        got = votes.expected_margin_loss_beta(sub, K * theta, gamma)
        assert got == pytest.approx(want, abs=1e-6)

    def test_derandomisation_sandwich(self):
        """L_0(theta) <= beta loss + eps and beta loss <= L_{2 gamma} + eps
        with eps = exp(-4 (K+1) gamma^2), over a (K, gamma) grid."""
        for seed in range(4):
            P = random_matrix(seed=seed, m=70, d=10, accuracy=0.65)
            theta = np.random.default_rng(seed).dirichlet(np.ones(10))
            l0 = votes.empirical_margin_loss(P, theta, 0.0)
            for K in (5.0, 50.0, 500.0, 2.0**20):
                for gamma in (0.02, 0.05, 0.1, 0.2):
                    eps = math.exp(-4.0 * (K + 1.0) * gamma**2)
                    mid = votes.expected_margin_loss_beta(P, K * theta, gamma)
                    l2g = votes.empirical_margin_loss(P, theta, 2.0 * gamma)
                    assert l0 <= mid + eps + 1e-12
                    assert mid <= l2g + eps + 1e-12


class TestMajorityPredict:
    def test_argmax_with_smallest_index_ties(self):
        preds = np.array([[1, 2], [2, 3]])
        labels = np.array([1, 3])
        P = PredictionMatrix(preds, labels, 3)
        out = votes._majority_predict(P, np.array([0.5, 0.5]))
        np.testing.assert_array_equal(out, [1, 2])  # ties resolve downward

    def test_error_rate(self):
        P = random_matrix(seed=16, m=40, d=7, accuracy=0.8)
        theta = np.full(7, 1 / 7)
        err = votes.majority_vote_error(P, theta)
        preds = votes._majority_predict(P, theta)
        assert err == pytest.approx(np.mean(preds != P.labels))

    def test_subset_matches_parent(self):
        P = random_matrix(seed=17, m=30, d=5)
        rows = np.array([3, 7, 8, 20])
        sub = P.subset(rows)
        np.testing.assert_array_equal(sub.preds, P.preds[rows])
        np.testing.assert_array_equal(sub.labels, P.labels[rows])
