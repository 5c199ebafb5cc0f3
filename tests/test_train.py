"""Optimiser mechanics, objective gradients, and the training protocol."""
import functools
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from votecert import bounds, numkern as nk, train, votes
from votecert.bounds import BoundSpec, SearchConfig
from votecert.train import AdamState, TrainConfig, adam_step
from votecert.votes import PredictionMatrix, WeightPosterior

from conftest import random_matrix

FAST_SEARCH = SearchConfig(n_gamma=60)
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "train_reference.json")


def reference_adam(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent loop-based Adam for cross-checking trajectories."""
    theta = np.zeros_like(grads[0])
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        state = AdamState.init(np.array([1.0, -2.0]))
        for _ in range(10):
            state = adam_step(state, np.zeros(2), lr=0.1)
        np.testing.assert_array_equal(state.params, [1.0, -2.0])

    def test_first_step_is_sign_scaled(self):
        g = np.array([3.0, -0.25])
        state = adam_step(AdamState.init(np.zeros(2)), g, lr=0.1)
        want = -0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(state.params, want, rtol=1e-10)

    def test_ten_step_quadratic_matches_reference(self):
        """Trajectory on f(x) = x'x/2 agrees with an independent rollout."""
        lr = 0.05
        state = AdamState.init(np.array([1.0, -3.0, 0.5]))
        ref_grads = []
        ref_params = np.array([1.0, -3.0, 0.5])
        ref_m = np.zeros(3)
        ref_v = np.zeros(3)
        for t in range(1, 11):
            g = state.params.copy()  # gradient of the quadratic
            ref_grads.append(g)
            state = adam_step(state, g, lr)
            ref_m = 0.9 * ref_m + 0.1 * g
            ref_v = 0.999 * ref_v + 0.001 * g * g
            ref_params = ref_params - lr * (ref_m / (1 - 0.9**t)) / (
                np.sqrt(ref_v / (1 - 0.999**t)) + 1e-8
            )
        np.testing.assert_allclose(state.params, ref_params, rtol=1e-12)

    def test_constant_gradient_matches_reference_helper(self):
        grads = [np.array([2.0, -1.0])] * 7
        got = AdamState.init(np.zeros(2))
        for g in grads:
            got = adam_step(got, g, lr=0.01)
        np.testing.assert_allclose(got.params, reference_adam(grads, 0.01), rtol=1e-12)


class TestObjectiveGradients:
    def _fd_check(self, fn, omega, rel_tol=1e-4):
        """``fn`` is an objective over a one-run stack; omega is that run's (d,)."""
        grad = fn(omega[None])[1][0]
        checked = 0
        for i in range(omega.size):
            h = 1e-6 * max(1.0, abs(omega[i]))
            up = omega.copy()
            up[i] += h
            down = omega.copy()
            down[i] -= h
            fd = (fn(up[None])[0][0] - fn(down[None])[0][0]) / (2 * h)
            if abs(fd) > 1e-8:
                assert grad[i] == pytest.approx(fd, rel=rel_tol)
                checked += 1
        return checked

    def test_margin_penalty_gradient_is_analytic(self):
        """The concentration-penalty part of the gradient equals
        -4 gamma^2 exp(-4 (sum alpha + 1) gamma^2) per unit alpha."""
        P = PredictionMatrix(np.full((10, 4), 1), np.full(10, 1), 2)  # all correct
        spec = BoundSpec(m=10, delta=0.05)
        omega = np.full(4, 0.3)
        gamma = 0.1
        grad = train.objective(P, omega[None], None, np.array([gamma]), spec)[1][0]
        alpha = train._alpha_from(omega)
        # all-correct rows freeze the empirical term, kl_inv(0, c) has no
        # alpha-dependence through u; remaining signal is penalty + complexity
        eps_term = -4 * gamma**2 * math.exp(-4 * (alpha.sum() + 1) * gamma**2)
        sig = 1 / (1 + math.exp(-0.3))
        c = (nk.dirichlet_kl(alpha, np.ones(4)) + spec.log_confidence()) / spec.m
        dc = bounds._dirichlet_complexity_grad(alpha[None], spec)[0]
        _, _, dv_dc = nk.kl_inv_with_grad(1e-12, c)  # u clipped off 0
        want = (dv_dc * dc + eps_term) * sig
        np.testing.assert_allclose(grad, want, rtol=1e-10)

    def test_objective_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        P = random_matrix(seed=1, m=50, d=10, accuracy=0.7)
        spec = BoundSpec(m=50, delta=0.05)
        checked = 0
        for trial in range(4):
            omega = rng.normal(-2.5, 0.6, 10)
            gamma = float(rng.uniform(0.02, 0.15))
            checked += self._fd_check(
                lambda w: train.objective(P, w, None, np.array([gamma]), spec), omega
            )
        assert checked >= 20

    def test_objective_at_prior_point(self):
        """alpha == prior kills the KL but its gradient survives through the
        trigamma structure; the finite-difference check must still pass."""
        P = random_matrix(seed=2, m=40, d=6, accuracy=0.7)
        spec = BoundSpec(m=40, delta=0.05)
        omega = np.full(6, train._inv_softplus(1.0 - train._ALPHA_SHIFT))
        assert self._fd_check(
            lambda w: train.objective(P, w, None, np.array([0.05]), spec), omega
        ) >= 3

    def test_fo_objective_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        P = random_matrix(seed=4, m=50, d=8, accuracy=0.65)
        spec = BoundSpec(m=50, delta=0.05)
        checked = 0
        for _ in range(3):
            omega = rng.normal(0.0, 0.5, 8)
            checked += self._fd_check(
                lambda w: train.fo_objective(P, w, None, spec), omega
            )
        assert checked >= 20

    def test_f2_objective_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        P = random_matrix(seed=6, m=50, d=8, accuracy=0.65)
        spec = BoundSpec(m=50, delta=0.05)
        checked = 0
        for _ in range(3):
            omega = rng.normal(-2.0, 0.5, 8)
            checked += self._fd_check(
                lambda w: train.objective(P, w, None, None, spec), omega
            )
        assert checked >= 20

    def test_batch_must_be_non_empty(self):
        P = random_matrix(seed=7, m=20, d=4)
        with pytest.raises(ValueError):
            train.objective(P, np.zeros((1, 4)), np.zeros((1, 0), dtype=int),
                            np.array([0.05]), BoundSpec(m=20, delta=0.05))

    def test_full_batch_objective_decreases_over_first_epoch(self):
        P = random_matrix(seed=8, m=80, d=8, accuracy=0.8)
        spec = BoundSpec(m=80, delta=0.05)
        omega = train._uniform_omega(8, 2.0)[None]
        state = AdamState.init(omega)
        margin = np.array([0.05])
        v0, g = train.objective(P, state.params, None, margin, spec)
        for _ in range(8):
            _, g = train.objective(P, state.params, None, margin, spec)
            state = adam_step(state, g, lr=0.1)
        v1, _ = train.objective(P, state.params, None, margin, spec)
        assert v1[0] < v0[0]


class TestObjectiveIsTheCertificate:
    """The objectives evaluate the certificate formulas of ``bounds``: their
    values are the shared formulas' unclipped values, their gradients the
    formulas' partials pulled back to omega, and below 1 the Dirichlet
    objective is the certificate certify reports at theta = alpha / alpha_0
    and K = alpha_0."""

    CASES = st.tuples(
        st.integers(0, 2**32 - 1), st.integers(100, 300), st.integers(5, 39),
        st.sampled_from([2, 3]),
        st.one_of(st.none(), st.floats(0.005, 0.3)),
    )

    @staticmethod
    def _draw(case, centre):
        seed, m, d, classes, gamma = case
        rng = np.random.default_rng(seed)
        P = random_matrix(seed, m, d, classes, accuracy=float(rng.uniform(0.4, 0.9)))
        omega = rng.normal(centre, 1.0, d)
        return P, omega, gamma, BoundSpec(m=m, delta=0.05)

    @settings(max_examples=40, deadline=None)
    @given(CASES)
    def test_dirichlet_objective(self, case):
        P, omega, gamma, spec = self._draw(case, -1.0)
        alpha = train._alpha_from(omega)
        K = alpha.sum()
        corr = P.correct_mask
        g = 0.0 if gamma is None else gamma
        terms, d_c, d_w = votes.beta_margin_loss_terms(
            (corr @ alpha)[None], ((~corr) @ alpha)[None], np.array([[g]]), grad=True)
        u = np.clip(terms.mean(axis=1), 1e-12, 1.0 - 1e-12)
        kl = nk.dirichlet_kl(alpha[None], np.ones(alpha.size))

        def formula(kl, grad=False):
            if gamma is None:
                return bounds._f2_formula(u, kl, spec, grad)
            return bounds._stochastic_formula(u, np.array([K]), np.array([g]), kl, spec, grad)

        margin = None if gamma is None else np.array([gamma])
        value, grad = (out[0] for out in train.objective(P, omega[None], None, margin, spec))
        value_only = train.objective(P, omega[None], None, margin, spec, grad=False)
        assert value_only[0] == formula(kl)[0][0]

        theta = alpha / K
        kl_cert = bounds._dirichlet_kl_of(theta[None])(np.array([K]), 0)
        certificate = min(1.0, formula(kl_cert)[0][0])
        if certificate < 1.0:
            assert value == pytest.approx(certificate, rel=4 * np.finfo(float).eps, abs=0.0)

        _, _, _, _, dv_du, dv_dc, deps_dK = formula(kl, True)
        dE = (d_c[0] @ corr + d_w[0] @ ~corr) / P.num_examples
        dc = bounds._dirichlet_complexity_grad(alpha[None], spec)[0]
        want = (dv_du * dE + dv_dc * dc + deps_dK) / (1.0 + np.exp(-omega))
        np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-15 * np.abs(want).max())

    @settings(max_examples=40, deadline=None)
    @given(CASES)
    def test_fo_objective(self, case):
        P, omega, _, spec = self._draw(case, 0.0)
        theta = np.exp(omega - omega.max())
        theta /= theta.sum()
        err = (~P.correct_mask).mean(axis=0)
        u = np.clip(err @ theta, 1e-12, 1.0 - 1e-12)
        kl = nk.categorical_kl_uniform(theta)

        value, grad = (out[0] for out in train.fo_objective(P, omega[None], None, spec))
        assert train.fo_objective(P, omega[None], None, spec, grad=False)[0] == bounds._gibbs(
            np.array([u]), np.array([kl]), 1, 2.0, spec)[0][0]

        certificate = bounds.certify(P, WeightPosterior(theta, 1.0), spec, "fo").value
        if certificate < 1.0:
            assert value == pytest.approx(certificate, rel=1e-12, abs=0.0)

        _, _, dv_du, dv_dc = bounds._gibbs(u, kl, 1, 2.0, spec, True)
        grad_theta = dv_du * err + dv_dc * (np.log(theta) + 1.0) / spec.m
        want = theta * (grad_theta - theta @ grad_theta)  # the softmax pullback
        np.testing.assert_allclose(grad, want, rtol=1e-10, atol=1e-13 * np.abs(want).max())


def separable_matrix(seed: int, m: int = 400, d: int = 9) -> PredictionMatrix:
    """One perfect voter among slightly-worse-than-coin-flip noise voters."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, 3, m)
    preds = np.where(rng.random((m, d)) < 0.45, labels[:, None], 3 - labels[:, None])
    preds[:, 3] = labels
    return PredictionMatrix(preds, labels, 2)


class TestTrainPosterior:
    def test_zero_epochs_returns_uniform_init(self):
        P = random_matrix(seed=9, m=40, d=6)
        cfg = TrainConfig(seed=0, gamma_candidates=(0.05,), max_epochs=0)
        spec = BoundSpec(m=40, delta=0.05)
        res = train.train_posterior(P, cfg, spec, search_cfg=FAST_SEARCH)
        np.testing.assert_allclose(res.posterior.theta, np.full(6, 1 / 6), atol=1e-12)
        assert res.posterior.K == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_concentrates_on_perfect_voter(self, seed):
        P = separable_matrix(seed=seed)
        cfg = TrainConfig(seed=seed, gamma_candidates=(0.3,), max_epochs=80)
        spec = BoundSpec(m=P.num_examples, delta=0.05)
        res = train.train_posterior(P, cfg, spec, search_cfg=FAST_SEARCH)
        assert res.posterior.theta[3] > 0.9

    def test_plateau_stops_after_patience_epochs(self, monkeypatch):
        """A flat bound trajectory (forced by a vanishing learning rate)
        trips early stopping after exactly `patience` stalled epochs; the
        log keeps the initial evaluation row, so it has patience + 1 rows."""
        P = random_matrix(seed=20, m=30, d=4)
        monkeypatch.setattr(train, "_LEARNING_RATE", 1e-300)
        monkeypatch.setattr(train, "_EARLY_STOP_PATIENCE", 3)
        monkeypatch.setattr(train, "_LR_REDUCE_PATIENCE", 100)
        monkeypatch.setattr(train, "_MIN_LR", 0.0)
        cfg = TrainConfig(seed=0, gamma_candidates=(0.05,), max_epochs=50)
        spec = BoundSpec(m=30, delta=0.05)
        res = train.train_posterior(P, cfg, spec, search_cfg=FAST_SEARCH)
        assert len(res.runs[0].history) == 3 + 1
        bound_trace = [rec.bound for rec in res.runs[0].history]
        assert len(set(bound_trace)) == 1

    def test_deterministic(self):
        P = random_matrix(seed=10, m=60, d=6, accuracy=0.7)
        cfg = TrainConfig(seed=4, gamma_candidates=(0.02, 0.05), max_epochs=10)
        spec = BoundSpec(m=60, delta=0.05)
        a = train.train_posterior(P, cfg, spec, search_cfg=FAST_SEARCH)
        b = train.train_posterior(P, cfg, spec, search_cfg=FAST_SEARCH)
        np.testing.assert_array_equal(a.posterior.theta, b.posterior.theta)
        assert a.posterior.K == b.posterior.K
        assert a.certificate == b.certificate
        assert a.history == b.history

    def test_alpha_stays_positive(self):
        P = random_matrix(seed=11, m=60, d=5, accuracy=0.6)
        cfg = TrainConfig(seed=1, gamma_candidates=(0.05,), max_epochs=15)
        spec = BoundSpec(m=60, delta=0.05)
        res = train.train_posterior(P, cfg, spec, search_cfg=FAST_SEARCH)
        assert res.posterior.theta.min() > 0.0
        assert res.posterior.K > 0.0

    def test_certificate_comes_from_union_corrected_search(self):
        """The reported certificate is a fresh certify() at
        delta / #candidates, never the minibatch surrogate."""
        P = random_matrix(seed=12, m=60, d=6, accuracy=0.75)
        cfg = TrainConfig(seed=2, gamma_candidates=(0.02, 0.05, 0.1), max_epochs=5)
        spec = BoundSpec(m=60, delta=0.05)
        res = train.train_posterior(P, cfg, spec, search_cfg=FAST_SEARCH)
        spec_sel = replace(spec, delta=spec.delta / 3)
        again = bounds.certify(P, res.posterior, spec_sel, "dirichlet_margin",
                               FAST_SEARCH)
        assert res.certificate == again

    def test_fo_objective_trains(self):
        P = separable_matrix(seed=3)
        cfg = TrainConfig(seed=3, max_epochs=40, batch_size=50)
        spec = BoundSpec(m=P.num_examples, delta=0.05)
        res = train.train_posterior(P, cfg, spec, "fo", search_cfg=FAST_SEARCH)
        assert res.posterior.K == 1.0
        # mass accumulates on the perfect voter for the Gibbs objective too
        assert res.posterior.theta[3] == res.posterior.theta.max()

    def test_unknown_objective_rejected(self):
        P = random_matrix(seed=13, m=30, d=4)
        with pytest.raises(ValueError):
            train.train_posterior(P, TrainConfig(), BoundSpec(m=30, delta=0.05),
                                  "nope")


class TestUnconstrainedParams:
    def test_uniform_omega_round_trip(self):
        omega = train._uniform_omega(12, 2.0)
        alpha = train._alpha_from(omega)
        np.testing.assert_allclose(alpha, np.full(12, 2.0 / 12.0), rtol=1e-12)

    def test_alpha_positive_everywhere(self):
        omega = np.array([-40.0, -1.0, 0.0, 25.0])
        alpha = train._alpha_from(omega)
        assert alpha.min() > 0.0
        # theta and K recoverable
        theta = alpha / alpha.sum()
        assert theta.sum() == pytest.approx(1.0, abs=1e-12)


class TestTrainReference:
    """train_posterior for every objective kind against trajectories
    recorded from the earlier code (separate f2 objective, per-kind
    dispatch, a bisection kl inverse): binary and 3-class matrices, two
    margin candidates, a learning rate high enough to trip the plateau
    schedule; the selection certificates were re-recorded when the K search
    changed.  The structure of every run matches exactly (epochs, learning
    rates, gammas, failed flags, history lengths) and every other float to
    1e-9 relative, which covers the last-bit rounding of the kl inverse
    carried through twelve epochs of Adam."""

    def test_matches_recorded_trajectories(self, monkeypatch):
        with open(REFERENCE) as fh:
            recorded = json.load(fh)
        conf = recorded["config"]
        monkeypatch.setattr(train, "_LEARNING_RATE", conf["learning_rate"])
        cfg = TrainConfig(
            seed=conf["seed"], gamma_candidates=tuple(conf["gamma_candidates"]),
            max_epochs=conf["max_epochs"], batch_size=conf["batch_size"],
        )
        search = SearchConfig(n_gamma=recorded["n_gamma"])
        close = functools.partial(pytest.approx, rel=1e-9, abs=0.0)
        for want in recorded["results"]:
            P = random_matrix(**recorded["matrices"][want["matrix"]])
            spec = BoundSpec(m=P.num_examples, delta=recorded["delta"])
            got = train.train_posterior(P, cfg, spec, want["objective"], search)
            case = (want["matrix"], want["objective"])
            assert len(got.runs) == len(want["runs"]), case
            for run, want_run in zip(got.runs, want["runs"]):
                assert (run.gamma, run.failed, len(run.history)) == (
                    want_run["gamma"], want_run["failed"], len(want_run["history"])), case
                assert run.best_bound == close(want_run["best_bound"]), case
                for rec, (gamma, epoch, objective, bound, K, lr) in zip(
                        run.history, want_run["history"]):
                    assert (rec.gamma, rec.epoch, rec.lr) == (gamma, epoch, lr), case
                    assert (rec.objective, rec.bound, rec.K) == close((objective, bound, K)), case
            assert list(got.posterior.theta) == close(want["theta"]), case
            assert got.posterior.K == close(want["K"]), case
            assert got.certificate.value == close(want["certificate"]), case
        assert {w["objective"] for w in recorded["results"]} == set(train.OBJECTIVES)


class TestStackedObjective:
    """An objective call over (R, d) parameters, with per-run rows and
    margins, is R calls over one-run stacks: every row equal bit for bit."""

    RUNS, D = 3, 7

    def _case(self, kind, batched):
        rng = np.random.default_rng(21)
        P = random_matrix(seed=22, m=90, d=self.D, accuracy=0.7)
        spec = BoundSpec(m=90, delta=0.05)
        centre = 0.0 if kind == "fo" else -1.5
        omega = rng.normal(centre, 0.7, (self.RUNS, self.D))
        rows = (np.stack([rng.permutation(90)[:40] for _ in range(self.RUNS)])
                if batched else None)
        margins = np.array([0.02, 0.07, 0.15]) if kind == "stochastic_margin" else None

        def call(w, r, g, grad=True):
            if kind == "fo":
                return train.fo_objective(P, w, r, spec, grad=grad)
            return train.objective(P, w, r, g, spec, grad=grad)

        def one_run(r):
            """Run r's parameters, rows and margin as a one-run stack."""
            pick = slice(r, r + 1)
            return (omega[pick], None if rows is None else rows[pick],
                    None if margins is None else margins[pick])

        return omega, rows, margins, call, one_run

    @pytest.mark.parametrize("kind", ["stochastic_margin", "f2", "fo"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_rows_equal_one_run_calls(self, kind, batched):
        omega, rows, margins, call, one_run = self._case(kind, batched)
        vals, grads = call(omega, rows, margins)
        assert vals.shape == (self.RUNS,) and grads.shape == (self.RUNS, self.D)
        for r in range(self.RUNS):
            one_val, one_grad = call(*one_run(r))
            assert one_val.shape == (1,) and one_grad.shape == (1, self.D)
            assert vals[r] == one_val[0]
            np.testing.assert_array_equal(grads[r], one_grad[0])

    @pytest.mark.parametrize("kind", ["stochastic_margin", "f2", "fo"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_value_path_equals_gradient_path(self, kind, batched):
        omega, rows, margins, call, one_run = self._case(kind, batched)
        np.testing.assert_array_equal(call(omega, rows, margins, grad=False),
                                      call(omega, rows, margins)[0])
        for r in range(self.RUNS):
            assert call(*one_run(r), grad=False)[0] == call(*one_run(r))[0][0]


class TestLockstepRuns:
    def test_runs_independent_of_a_run_that_leaves(self, monkeypatch):
        """Replacing the first margin by one whose run stops at another epoch
        leaves the other runs' trajectories unchanged bit for bit."""
        P = random_matrix(seed=31, m=90, d=6, accuracy=0.7)
        spec = BoundSpec(m=90, delta=0.05)
        monkeypatch.setattr(train, "_LEARNING_RATE", 0.5)
        monkeypatch.setattr(train, "_EARLY_STOP_PATIENCE", 4)
        cfg = TrainConfig(seed=5, gamma_candidates=(0.01, 0.03, 0.08), max_epochs=25,
                          batch_size=40)
        first = train.train_posterior(P, cfg, spec, search_cfg=FAST_SEARCH)
        cfg = replace(cfg, gamma_candidates=(0.3, 0.03, 0.08))
        second = train.train_posterior(P, cfg, spec, search_cfg=FAST_SEARCH)
        stops = [len(res.runs[0].history) for res in (first, second)]
        assert stops[0] != stops[1]
        # The other runs outlive both early stops, so they kept stepping
        # after the stacked arrays lost a row.
        assert min(len(res.runs[i].history) for res in (first, second)
                   for i in (1, 2)) > max(stops)
        for a, b in zip(first.runs[1:], second.runs[1:]):
            assert a.history == b.history
            assert a.best_bound == b.best_bound
            np.testing.assert_array_equal(a.posterior.theta, b.posterior.theta)
            assert a.posterior.K == b.posterior.K

    @pytest.mark.parametrize("kind", ["stochastic_margin", "f2"])
    def test_module_wrappers_see_every_step(self, kind, monkeypatch):
        """Wrappers set on ``train.objective`` and ``train.adam_step`` (as the
        benchmark tracer installs them) see every minibatch step: one
        gradient call and one Adam step per batch, each over every active run."""
        seen = {"grad": [], "value": 0, "adam": []}
        objective, step = train.objective, train.adam_step

        def counting_objective(P, omega, rows, gamma, spec, grad=True):
            if grad:
                seen["grad"].append(np.shape(omega)[0])
            else:
                seen["value"] += 1
            return objective(P, omega, rows, gamma, spec, grad)

        def counting_step(state, gradient, *args, **kwargs):
            seen["adam"].append(state.params.shape[0])
            return step(state, gradient, *args, **kwargs)

        monkeypatch.setattr(train, "objective", counting_objective)
        monkeypatch.setattr(train, "adam_step", counting_step)
        monkeypatch.setattr(train, "_EARLY_STOP_PATIENCE", 2)
        P = random_matrix(seed=32, m=90, d=5, accuracy=0.7)
        cfg = TrainConfig(seed=1, gamma_candidates=(0.02, 0.05, 0.3), max_epochs=6,
                          batch_size=40)
        res = train.train_posterior(P, cfg, BoundSpec(m=90, delta=0.05), kind, FAST_SEARCH)
        steps = math.ceil(90 / 40)
        epochs = [len(run.history) - 1 for run in res.runs]
        assert seen["grad"] == seen["adam"]
        assert sum(seen["adam"]) == steps * sum(epochs)
        assert len(seen["adam"]) == steps * max(epochs)
        assert seen["value"] == 1 + max(epochs)

    def test_diverged_run_leaves_the_stack(self, monkeypatch):
        """A run whose minibatch objective turns non-finite fails with the
        history it had; the other runs train on as if it were not there."""
        P = random_matrix(seed=33, m=90, d=5, accuracy=0.7)
        spec = BoundSpec(m=90, delta=0.05)
        cfg = TrainConfig(seed=2, gamma_candidates=(0.02, 0.05, 0.1), max_epochs=5,
                          batch_size=40)
        clean = train.train_posterior(P, cfg, spec, search_cfg=FAST_SEARCH)
        objective, calls = train.objective, []

        def poisoned(P, omega, rows, gamma, spec, grad=True):
            out = objective(P, omega, rows, gamma, spec, grad)
            if grad:
                calls.append(None)
                if len(calls) == 8:  # the second step of epoch 3
                    out[0][np.flatnonzero(gamma == 0.05)] = math.nan
            return out

        monkeypatch.setattr(train, "objective", poisoned)
        hit = train.train_posterior(P, cfg, spec, search_cfg=FAST_SEARCH)
        assert hit.runs[1].failed and hit.runs[1].posterior is None
        assert hit.runs[1].history == clean.runs[1].history[:3]
        for i in (0, 2):
            assert hit.runs[i].history == clean.runs[i].history
            np.testing.assert_array_equal(hit.runs[i].posterior.theta,
                                          clean.runs[i].posterior.theta)
