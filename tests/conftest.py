"""Shared fixtures: small prediction matrices and the desk-scale board data."""
from __future__ import annotations

import csv

import mpmath
import numpy as np
import pytest

from votecert import bounds, numkern as nk
from votecert.votes import PredictionMatrix


def random_matrix(seed: int, m: int, d: int, c: int = 2,
                  accuracy: float = 0.7) -> PredictionMatrix:
    """Random voters that agree with the label with the given probability."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, c + 1, size=m)
    preds = rng.integers(1, c + 1, size=(m, d))
    agree = rng.random((m, d)) < accuracy
    preds[agree] = np.broadcast_to(labels[:, None], (m, d))[agree]
    return PredictionMatrix(preds, labels, c)


def export_predictions(P: PredictionMatrix, path) -> None:
    """Write P as the prediction CSV that ``voters.ingest_predictions``
    reads (header ``label,v1,...,vd``); the round trip is exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"] + [f"v{j+1}" for j in range(P.num_voters)])
        for y, row in zip(P.labels, P.preds):
            writer.writerow([int(y)] + [int(v) for v in row])


def dirichlet_from_loss(formula, loss, theta, K, spec, gamma):
    """The BoundResult of a Dirichlet formula of ``bounds`` (``_margin_formula``
    or ``_stochastic_formula``, whose NaN margin is an f2 lane) on the
    caller's lanes of loss, K and gamma, theta floored as certify floors it."""
    loss, K, gamma = bounds._lanes(loss, K, gamma)
    post = bounds._Posterior(np.asarray(theta)[None])
    terms = formula(loss, K, gamma, post.kl_of(K, 0), spec)
    return bounds._result(*terms, gamma, K).with_flags(post.flags[0])


# The rule a certificate meets against a recorded one: the value and its
# components to 1e-12 (infinite terms exactly), the knobs and flags exactly.
REFERENCE_TERMS = ("value", "empirical_term", "complexity_term", "derandomisation_term")
REFERENCE_KNOBS = ("gamma_star", "K_star", "T_star")


def reference_mismatches(case, got: dict, want: dict) -> list:
    """(case, field, got, want) for each field of ``got`` (a certificate's
    fields by name, as ``vars(BoundResult)`` or ``results_csv_certificates``
    gives them) that breaks the reference rule against the recorded ``want``."""
    out = []
    for field in REFERENCE_KNOBS:
        if field in got and got[field] != want[field]:
            out.append((case, field, got[field], want[field]))
    if "flags" in got and list(got["flags"]) != want["flags"]:
        out.append((case, "flags", got["flags"], want["flags"]))
    for field in REFERENCE_TERMS:
        # == first: infinite complexity terms match exactly
        if field in got and not (got[field] == want[field]
                                 or abs(got[field] - want[field]) <= 1e-12):
            out.append((case, field, got[field], want[field]))
    return out


def results_csv_certificates(path) -> dict:
    """bound id -> the certificate fields a CLI ``results.csv`` holds (value,
    knobs, flags), typed as in a BoundResult."""

    def number(text, kind=float):
        return kind(text) if text else None

    with open(path) as fh:
        return {row["bound"]: {
            "value": float(row["value"]),
            "gamma_star": number(row["gamma_star"]),
            "K_star": number(row["K_star"]),
            "T_star": number(row["T_star"], int),
            "flags": row["flags"].split("|") if row["flags"] else [],
        } for row in csv.DictReader(fh)}


def small_kl(q, p):
    """Bernoulli kl(q, p) with 0 ln 0 := 0 and kl(q, q) = 0, lanewise: the
    kernel's own kl (the one ``kl_inv`` inverts, checked against mpmath in
    test_numkern), for round-trip checks of the inverse.  +inf where p is
    on the boundary and q differs."""
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(q == p, 0.0, nk._kl(q, p))
    return float(out) if out.ndim == 0 else out


def mpmath_dirichlet_kl(alpha, beta) -> float:
    """KL(Dirichlet(alpha) || Dirichlet(beta)) in 60-digit arithmetic, by the
    textbook ln(B(beta)/B(alpha)) + sum_i (alpha_i - beta_i)(psi(alpha_i) -
    psi(alpha_0)), whose cancellation 60 digits absorb for alpha_0 <= 1e20."""
    mp = mpmath.mp.clone()
    mp.dps = 60
    a = [mp.mpf(float(x)) for x in alpha]
    b = [mp.mpf(float(x)) for x in beta]
    a0, b0 = mp.fsum(a), mp.fsum(b)
    return float(
        mp.loggamma(a0) - mp.fsum(mp.loggamma(x) for x in a)
        - mp.loggamma(b0) + mp.fsum(mp.loggamma(x) for x in b)
        + mp.fsum((x - y) * (mp.digamma(x) - mp.digamma(a0)) for x, y in zip(a, b))
    )


def make_board_arrays(n: int = 958, seed: int = 7):
    """Board-game style task: 9 ternary cells, positive iff player x holds
    at least 5 of them.  The concept is exactly expressible by a weighted
    vote over per-cell threshold stumps, so margins are learnable."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(["b", "o", "x"], size=(n, 9))
    wins = (cells == "x").sum(axis=1) >= 5
    return cells, wins


def write_board_csv(path, n: int = 958, seed: int = 7) -> None:
    cells, wins = make_board_arrays(n, seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"c{i}" for i in range(9)] + ["label"])
        for row, win in zip(cells, wins):
            writer.writerow(list(row) + ["positive" if win else "negative"])


@pytest.fixture(scope="session")
def board_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "boards.csv"
    write_board_csv(path)
    return str(path)


@pytest.fixture
def toy_matrix() -> PredictionMatrix:
    return random_matrix(seed=42, m=200, d=20)
