"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines as they complete.
"""
import csv
import math
import os
import time
from collections import defaultdict

import numpy as np
import pytest
from scipy import integrate

from votecert import bounds, cli, numkern as nk, oracle, train, votes
from votecert.bounds import BoundSpec
from votecert.votes import PredictionMatrix

from conftest import export_predictions, random_matrix, small_kl, write_board_csv


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_kernel_roundtrip():
    """kl(u, kl_inv(u, c)) recovers c to 1e-9 across a 99 x 40 grid in <1s."""
    t0 = time.perf_counter()
    ok = True
    for u in np.arange(0.01, 1.0, 0.01):
        for c in np.logspace(-6, math.log10(5.0), 40):
            v = nk.kl_inv(float(u), float(c))
            if v < 1.0 and abs(small_kl(float(u), v) - c) > 1e-9:
                ok = False
    elapsed = time.perf_counter() - t0
    _verdict(1, f"kernel round-trip on 99x40 grid in {elapsed:.2f}s", ok and elapsed < 1.0)


def _beta_cdf_quad(z: float, a: float, b: float) -> float:
    """Adaptive-quadrature Beta CDF, symmetric reduction plus mode hints."""
    if z <= 0.0:
        return 0.0
    if z >= 1.0:
        return 1.0
    if z > 0.5:
        return 1.0 - _beta_cdf_quad(1.0 - z, b, a)
    norm = math.exp(-(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    if a < 2.0:
        val, _ = integrate.quad(
            lambda t: norm * (1.0 - t) ** (b - 1.0),
            0.0, z, weight="alg", wvar=(a - 1.0, 0.0), limit=200,
        )
    else:
        mode = (a - 1.0) / (a + b - 2.0) if a + b > 2.0 else 0.5
        pts = [mode] if 0.0 < mode < z else None
        val, _ = integrate.quad(
            lambda t: norm * math.exp((a - 1.0) * math.log(t)
                                      + (b - 1.0) * math.log1p(-t)),
            0.0, z, points=pts, limit=200,
        )
    return val


def test_criterion_02_incomplete_beta_vs_quadrature():
    """500 randomised (z, a, b) with a, b in [0.05, 500]: quadrature within
    1e-8 and the reflection identity within 1e-10."""
    rng = np.random.default_rng(2024)
    worst_quad = 0.0
    worst_sym = 0.0
    for _ in range(500):
        z = float(rng.uniform(0.001, 0.999))
        a = math.exp(rng.uniform(math.log(0.05), math.log(500.0)))
        b = math.exp(rng.uniform(math.log(0.05), math.log(500.0)))
        got = nk.reg_inc_beta(z, a, b)
        worst_quad = max(worst_quad, abs(got - _beta_cdf_quad(z, a, b)))
        worst_sym = max(
            worst_sym, abs(got + nk.reg_inc_beta(1.0 - z, b, a) - 1.0)
        )
    _verdict(
        2,
        f"incomplete beta vs quadrature (worst {worst_quad:.2e}) and "
        f"symmetry (worst {worst_sym:.2e})",
        worst_quad <= 1e-8 and worst_sym <= 1e-10,
    )


def _beta_kl_quad(a1, a2, b1, b2) -> float:
    ln_Ba = math.lgamma(a1) + math.lgamma(a2) - math.lgamma(a1 + a2)
    ln_Bb = math.lgamma(b1) + math.lgamma(b2) - math.lgamma(b1 + b2)
    norm = math.exp(-ln_Ba)
    log_x, _ = integrate.quad(
        lambda t: norm, 0.0, 1.0, weight="alg-loga", wvar=(a1 - 1.0, a2 - 1.0)
    )
    log_1mx, _ = integrate.quad(
        lambda t: norm, 0.0, 1.0, weight="alg-logb", wvar=(a1 - 1.0, a2 - 1.0)
    )
    return (ln_Bb - ln_Ba) + (a1 - b1) * log_x + (a2 - b2) * log_1mx


def test_criterion_03_dirichlet_kl_vs_quadrature():
    """d=2 Dirichlet KL against quadrature on 100 random pairs (1e-6) and
    non-negativity on 1000 random pairs."""
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.3, 20.0, size=2)
        b = rng.uniform(0.3, 20.0, size=2)
        got = nk.dirichlet_kl(a, b)
        worst = max(worst, abs(got - _beta_kl_quad(a[0], a[1], b[0], b[1])))
    non_negative = True
    for _ in range(1000):
        d = int(rng.integers(2, 10))
        a = rng.uniform(0.2, 40.0, size=d)
        b = rng.uniform(0.2, 40.0, size=d)
        if nk.dirichlet_kl(a, b) < -1e-10:
            non_negative = False
    _verdict(
        3, f"dirichlet KL vs quadrature (worst {worst:.2e}) and non-negativity",
        worst <= 1e-6 and non_negative,
    )


def test_criterion_04_gradient_suite():
    """Analytic gradients of the training objective, the kl inverse, and the
    incomplete beta match central finite differences to 1e-4 relative at 20+
    random points each, away from singularities."""
    rng = np.random.default_rng(44)
    ok = True

    checked = 0
    P = random_matrix(seed=4, m=50, d=10, accuracy=0.7)
    spec = BoundSpec(m=50, delta=0.05)
    for _ in range(4):
        omega = rng.normal(-2.5, 0.6, 10)
        gamma = float(rng.uniform(0.02, 0.15))
        margin = np.array([gamma])
        grad = train.objective(P, omega[None], None, margin, spec)[1][0]
        for i in range(10):
            h = 1e-6 * max(1.0, abs(omega[i]))
            up, down = omega.copy(), omega.copy()
            up[i] += h
            down[i] -= h
            fd = (
                train.objective(P, up[None], None, margin, spec)[0][0]
                - train.objective(P, down[None], None, margin, spec)[0][0]
            ) / (2 * h)
            if abs(fd) > 1e-8:
                checked += 1
                if abs(grad[i] - fd) > 1e-4 * abs(fd):
                    ok = False
    objective_points = checked

    checked = 0
    for _ in range(25):
        u = float(rng.uniform(0.05, 0.8))
        c = float(rng.uniform(0.01, 1.0))
        _, dv_du, dv_dc = nk.kl_inv_with_grad(u, c)
        h = 1e-7
        fd_u = (nk.kl_inv(u + h, c) - nk.kl_inv(u - h, c)) / (2 * h)
        fd_c = (nk.kl_inv(u, c + h) - nk.kl_inv(u, c - h)) / (2 * h)
        checked += 1
        if abs(dv_du - fd_u) > 1e-4 * abs(fd_u) or abs(dv_dc - fd_c) > 1e-4 * abs(fd_c):
            ok = False
    kl_points = checked

    checked = 0
    for _ in range(25):
        z = float(rng.uniform(0.15, 0.85))
        a = float(rng.uniform(0.5, 50.0))
        b = float(rng.uniform(0.5, 50.0))
        _, d_a, d_b = nk.reg_inc_beta_with_grad(z, a, b)
        ha, hb = 1e-6 * max(1.0, a), 1e-6 * max(1.0, b)
        fd_a = (nk.reg_inc_beta(z, a + ha, b) - nk.reg_inc_beta(z, a - ha, b)) / (2 * ha)
        fd_b = (nk.reg_inc_beta(z, a, b + hb) - nk.reg_inc_beta(z, a, b - hb)) / (2 * hb)
        for got, fd in ((d_a, fd_a), (d_b, fd_b)):
            if abs(fd) > 1e-8:
                checked += 1
                if abs(got - fd) > 1e-4 * abs(fd):
                    ok = False
    beta_points = checked

    enough = objective_points >= 20 and kl_points >= 20 and beta_points >= 20
    _verdict(
        4,
        f"gradients vs finite differences ({objective_points}/{kl_points}/"
        f"{beta_points} points)",
        ok and enough,
    )


def test_criterion_05_derandomisation_battery():
    """30 randomised de-randomisation configs at n = 1e5 all satisfy both
    one-sided 3-stderr inequalities, in under two minutes."""
    t0 = time.perf_counter()
    reports = oracle.derandomisation_battery(seed=0, n=100_000)
    elapsed = time.perf_counter() - t0
    failures = [r.label for r in reports if not r.verdict]
    _verdict(
        5,
        f"de-randomisation battery, 30 configs in {elapsed:.0f}s "
        f"({len(failures)} failures)",
        not failures and elapsed < 120.0,
    )


def test_criterion_06_binary_sharpness():
    """10 binary configs at n = 1e6: the Beta-CDF closed form matches Monte
    Carlo two-sided at 3 stderr, pinning the (correct, erring) argument
    order of the Beta CDF."""
    reports = oracle.sharpness_battery(seed=0, n=1_000_000)
    failures = [r.label for r in reports if not r.verdict]
    _verdict(6, f"binary sharpness, 10 configs ({len(failures)} failures)",
             not failures)


def test_criterion_07_marchal_arbel_battery():
    """50 randomised sub-Gaussian tail configs pass one-sided."""
    reports = oracle.marchal_arbel_battery(seed=0, n=100_000)
    failures = [r.label for r in reports if not r.verdict]
    _verdict(7, f"tail-bound battery, 50 configs ({len(failures)} failures)",
             not failures)


def test_criterion_08_bg_family_ordering():
    """bg >= bgplus >= bgplusplus pointwise over 500 randomised
    configurations, tolerance 1e-12."""
    rng = np.random.default_rng(88)
    ok = True
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
        if v_bg < v_p - 1e-12 or v_p < v_pp - 1e-12:
            ok = False
    _verdict(8, "bg >= bgplus >= bgplusplus on 500-point grid", ok)


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    rc = cli.main(["compare", "--out", str(out)])
    assert rc == 0
    panels = {}
    for path in sorted(out.glob("compare_*.csv")):
        with open(path) as fh:
            panels[path.name] = list(csv.DictReader(fh))
    return panels


def test_criterion_09_compare_figure_structure(compare_run):
    """The margin-comparison sweep at d=100, delta=0.5 shows the expected
    structure: categorical-family and gz curves non-increasing in the margin,
    and some weight draw of the Dirichlet margin bound dips below all of
    them somewhere."""
    decreasing_ok = True
    below_ok = False
    bgpp_cols = ("bgplusplus_1", "bgplusplus_2", "bgplusplus_3")
    for rows in compare_run.values():
        for col in ("bg", "bgplus", "gz") + bgpp_cols:
            vals = [float(r[col]) for r in rows if r[col] != ""]
            if any(b > a + 1e-12 for a, b in zip(vals, vals[1:])):
                decreasing_ok = False
        for r in rows:
            baselines = [float(r[c]) for c in ("bg", "bgplus") + bgpp_cols]
            if r["gz"] != "":
                baselines.append(float(r["gz"]))
            ours = [float(r[c]) for c in ("ours_1", "ours_2", "ours_3")]
            if min(ours) < min(baselines):
                below_ok = True
    _verdict(
        9,
        "comparison curves decrease in margin; a Dirichlet-margin draw dips "
        "below all categorical curves",
        decreasing_ok and below_ok,
    )


@pytest.fixture(scope="module")
def desk_experiment(tmp_path_factory, board_csv):
    """The end-to-end desk-scale run: stumps, 5 seeds, delta = 0.05."""
    out = tmp_path_factory.mktemp("desk")
    t0 = time.perf_counter()
    rc = cli.main([
        "experiment", "--dataset", board_csv, "--voter-mode", "stumps",
        "--seeds", "0,1,2,3,4", "--objectives", "stochastic_margin",
        "--delta", "0.05", "--out", str(out),
    ])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    with open(out / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    return rows, elapsed


def test_criterion_10_desk_scale_experiment(desk_experiment):
    """Desk-scale run: finishes under five minutes; the Dirichlet margin
    certificate never exceeds gz or bgplus; certificates dominate held-out
    error on at least 4 of 5 seeds; training beats the uniform weights."""
    rows, elapsed = desk_experiment
    by = {(r["seed"], r["posterior"], r["bound"]): r for r in rows}
    seeds = sorted({r["seed"] for r in rows})
    posteriors = sorted({r["posterior"] for r in rows})

    time_ok = elapsed < 300.0

    dominance_ok = True
    for seed in seeds:
        for pname in posteriors:
            dm = float(by[(seed, pname, "dirichlet_margin")]["value"])
            for other in ("gz", "bgplus"):
                if dm > float(by[(seed, pname, other)]["value"]) + 1e-12:
                    dominance_ok = False

    coverage = defaultdict(int)
    for r in rows:
        if float(r["value"]) >= float(r["test_error"]):
            coverage[(r["posterior"], r["bound"])] += 1
    coverage_ok = all(count >= 4 for count in coverage.values())

    trained_ok = True
    for seed in seeds:
        trained = float(by[(seed, "stochastic_margin", "dirichlet_margin")]["value"])
        uniform = float(by[(seed, "uniform", "dirichlet_margin")]["value"])
        if trained > uniform + 1e-12:
            trained_ok = False

    _verdict(
        10,
        f"desk-scale experiment in {elapsed:.0f}s; margin-bound dominance, "
        f"held-out coverage, trained <= uniform",
        time_ok and dominance_ok and coverage_ok and trained_ok,
    )


def test_criterion_11_certificate_beats_objectives(tmp_path_factory, board_csv):
    """Strong-voter run on the same data, optimising the fo and f2
    objectives: on every seed the Dirichlet margin certificate of the
    trained weights is at most the objective's own certificate."""
    out = tmp_path_factory.mktemp("figtwo")
    rc = cli.main([
        "experiment", "--dataset", board_csv, "--voter-mode", "rf",
        "--seeds", "0,1,2,3,4", "--objectives", "fo,f2",
        "--delta", "0.05", "--out", str(out),
    ])
    assert rc == 0
    with open(out / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    by = {(r["seed"], r["posterior"], r["bound"]): float(r["value"]) for r in rows}
    ok = True
    for seed in sorted({r["seed"] for r in rows}):
        for objective in ("fo", "f2"):
            ours = by[(seed, objective, "dirichlet_margin")]
            own = by[(seed, objective, objective)]
            if ours > own + 1e-12:
                ok = False
    _verdict(11, "Dirichlet margin certificate <= each objective's own "
                 "certificate on every seed", ok)


def test_criterion_12_manifest_determinism(tmp_path_factory):
    """Re-running a manifest reproduces every result file bit-exactly."""
    base = tmp_path_factory.mktemp("determinism")
    preds_path = base / "preds.csv"
    export_predictions(random_matrix(seed=5, m=120, d=8), preds_path)

    first = base / "run1"
    rc = cli.main([
        "experiment", "--dataset", str(preds_path), "--voter-mode", "ingest",
        "--seeds", "0,1", "--objectives", "fo", "--max-epochs", "2",
        "--n-gamma", "60", "--out", str(first),
    ])
    assert rc == 0
    second = base / "run2"
    rc = cli.main([
        "--manifest", str(first / "manifest.json"),
        "experiment", "--out", str(second),
    ])
    assert rc == 0
    ok = True
    for name in ("results.csv", "summary.csv", "training_log.csv", "posteriors.csv"):
        if (first / name).read_bytes() != (second / name).read_bytes():
            ok = False
    _verdict(12, "manifest re-run reproduces result files bit-exactly", ok)
