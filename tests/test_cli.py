"""Command surface: outputs, determinism, exit codes, manifest round trips."""
import csv
import json
import os

import numpy as np
import pytest

from votecert import cli, oracle, voters

from conftest import random_matrix, write_board_csv


def write_predictions(path, seed=0, m=80, d=6, accuracy=0.75):
    P = random_matrix(seed=seed, m=m, d=d, accuracy=accuracy)
    voters.export_predictions(P, path)
    return P


def read_results(out_dir):
    with open(os.path.join(out_dir, "results.csv")) as fh:
        return list(csv.DictReader(fh))


class TestCertifyCommand:
    def test_uniform_certificates_in_range(self, tmp_path):
        preds = tmp_path / "preds.csv"
        write_predictions(preds)
        out = tmp_path / "out"
        rc = cli.main([
            "certify", "--predictions", str(preds), "--out", str(out),
            "--n-gamma", "50",
        ])
        assert rc == 0
        rows = read_results(out)
        assert {r["bound"] for r in rows} == set(cli.DEFAULT_BOUNDS)
        for r in rows:
            assert 0.0 <= float(r["value"]) <= 1.0

    def test_rerun_is_bit_identical(self, tmp_path):
        preds = tmp_path / "preds.csv"
        write_predictions(preds)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["certify", "--predictions", str(preds), "--n-gamma", "40"]
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    def test_missing_predictions_is_usage_error(self, tmp_path):
        assert cli.main(["certify", "--out", str(tmp_path / "x")]) == 2

    def test_bad_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,v1,v2\n1,0,2\n")
        rc = cli.main(["certify", "--predictions", str(bad), "--out",
                       str(tmp_path / "o")])
        assert rc == 3

    def test_explicit_theta_and_bounds_subset(self, tmp_path):
        preds = tmp_path / "preds.csv"
        P = write_predictions(preds)
        theta_file = tmp_path / "theta.txt"
        theta_file.write_text("\n".join(["0.5"] + ["0.1"] * (P.num_voters - 1)))
        out = tmp_path / "out"
        rc = cli.main([
            "certify", "--predictions", str(preds), "--theta", str(theta_file),
            "--k", "8.0", "--bounds", "fo,f2", "--out", str(out),
            "--n-gamma", "30",
        ])
        assert rc == 0
        rows = read_results(out)
        assert [r["bound"] for r in rows] == ["fo", "f2"]

    def test_subnormal_k_gives_vacuous_dirichlet_rows(self, tmp_path):
        """At K = 1e-310 the Dirichlet KL is not finite, which makes every
        Dirichlet certificate vacuous rather than an error."""
        preds = tmp_path / "preds.csv"
        write_predictions(preds)
        out = tmp_path / "out"
        dirichlet = ["dirichlet_margin", "stochastic_margin", "f2"]
        rc = cli.main([
            "certify", "--predictions", str(preds), "--k", "1e-310",
            "--bounds", ",".join(dirichlet), "--out", str(out), "--n-gamma", "5",
        ])
        assert rc == 0
        rows = read_results(out)
        assert [r["bound"] for r in rows] == dirichlet
        for r in rows:
            assert float(r["value"]) == 1.0
            assert "vacuous" in r["flags"].split("|")


@pytest.mark.parametrize("argv, code", [
    (["certify", "--bounds", "fo,foo"], 2),
    (["certify", "--k", "-1"], 2),
    (["certify", "--delta", "2"], 2),
    (["certify", "--n-gamma", "0"], 2),
    (["certify", "--theta", "{bad_theta}"], 3),
    (["verify", "--samples", "0"], 2),
    (["--manifest", "{bad_manifest}", "certify"], 2),
    (["train", "--gamma-candidates", "abc"], 2),
    (["train", "--gamma-candidates", "0.7"], 2),
    (["train", "--max-epochs", "-1"], 2),
    (["train", "--batch-size", "0"], 2),
    (["train", "--seeds", "x"], 2),
    (["experiment", "--objectives", "foo"], 2),
    (["--manifest", "{broken_manifest}", "compare"], 3),
    (["--manifest", "{list_manifest}", "compare"], 3),
    (["compare", "--points", "-2"], 2),
    (["compare", "--points", "0"], 2),
    (["verify", "--seed", "-1"], 2),
    (["compare", "--seed", "-1"], 2),
])
def test_bad_input_exit_code(tmp_path, capsys, argv, code):
    """Bad flag or manifest values are usage errors (2) and a malformed
    weights or manifest file is a data error (3): each reported in one line,
    without a traceback.  Each command otherwise gets the inputs it needs to
    run."""
    preds = tmp_path / "preds.csv"
    write_predictions(preds)
    bad_theta = tmp_path / "theta.txt"
    bad_theta.write_text("0.5\nnot-a-weight\n")
    bad_manifest = tmp_path / "manifest.json"
    bad_manifest.write_text(json.dumps({"delta": 2}))
    broken_manifest = tmp_path / "broken.json"
    broken_manifest.write_text("{bad")
    list_manifest = tmp_path / "list.json"
    list_manifest.write_text("[1, 2]")
    argv = [arg.format(bad_theta=bad_theta, bad_manifest=bad_manifest,
                       broken_manifest=broken_manifest, list_manifest=list_manifest)
            for arg in argv]
    inputs = {
        "certify": ["--predictions", str(preds)],
        "train": ["--predictions", str(preds)],
        "experiment": ["--dataset", str(preds), "--voter-mode", "ingest"],
    }
    for command, flags in inputs.items():
        if command in argv:
            argv += flags
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


class TestTrainCommand:
    def test_zero_epochs_certifies_uniform(self, tmp_path):
        preds = tmp_path / "preds.csv"
        write_predictions(preds)
        out = tmp_path / "out"
        rc = cli.main([
            "train", "--predictions", str(preds), "--max-epochs", "0",
            "--gamma-candidates", "0.05", "--out", str(out), "--n-gamma", "40",
        ])
        assert rc == 0
        with open(out / "posteriors.csv") as fh:
            post = list(csv.DictReader(fh))[0]
        weights = [float(x) for x in post["theta"].split(";")]
        np.testing.assert_allclose(weights, np.full(6, 1 / 6), atol=1e-12)

    def test_training_log_schema(self, tmp_path):
        preds = tmp_path / "preds.csv"
        write_predictions(preds)
        out = tmp_path / "out"
        cli.main([
            "train", "--predictions", str(preds), "--max-epochs", "2",
            "--gamma-candidates", "0.05,0.1", "--out", str(out),
            "--n-gamma", "40",
        ])
        with open(out / "training_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"seed", "objective", "gamma", "epoch",
                                "batch_objective", "bound", "K", "lr"}
        assert {r["gamma"] for r in rows} == {"0.05", "0.1"}

    def test_multi_seed_summary(self, tmp_path):
        preds = tmp_path / "preds.csv"
        write_predictions(preds)
        out = tmp_path / "out"
        rc = cli.main([
            "train", "--predictions", str(preds), "--max-epochs", "1",
            "--gamma-candidates", "0.05", "--seeds", "0,1,2",
            "--out", str(out), "--n-gamma", "30",
        ])
        assert rc == 0
        rows = read_results(out)
        assert {r["seed"] for r in rows} == {"0", "1", "2"}
        with open(out / "summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert all(s["trials"] == "3" for s in summary)


class TestExperimentCommand:
    def test_ingest_mode_smoke(self, tmp_path):
        preds = tmp_path / "preds.csv"
        write_predictions(preds, m=120)
        out = tmp_path / "out"
        rc = cli.main([
            "experiment", "--dataset", str(preds), "--voter-mode", "ingest",
            "--seeds", "0", "--objectives", "fo", "--max-epochs", "1",
            "--out", str(out), "--n-gamma", "30",
        ])
        assert rc == 0
        rows = read_results(out)
        assert {r["posterior"] for r in rows} == {"uniform", "fo"}
        for r in rows:
            assert 0.0 <= float(r["test_error"]) <= 1.0

    def test_strong_mode_halves_bound_sample(self, tmp_path, board_csv):
        out = tmp_path / "out"
        rc = cli.main([
            "experiment", "--dataset", board_csv, "--voter-mode", "rf",
            "--seeds", "0", "--objectives", "fo", "--max-epochs", "1",
            "--out", str(out), "--n-gamma", "30",
        ])
        assert rc == 0
        rows = read_results(out)
        # n=958: test 192, train 766, bound half 383
        assert all(r["m_bound"] == "383" for r in rows)

    def test_weak_mode_uses_whole_train_set(self, tmp_path, board_csv):
        out = tmp_path / "out"
        rc = cli.main([
            "experiment", "--dataset", board_csv, "--voter-mode", "stumps",
            "--seeds", "0", "--objectives", "fo", "--max-epochs", "0",
            "--out", str(out), "--n-gamma", "30",
        ])
        assert rc == 0
        rows = read_results(out)
        assert all(r["m_bound"] == "766" for r in rows)

    def test_manifest_rerun_reproduces_results(self, tmp_path):
        preds = tmp_path / "preds.csv"
        write_predictions(preds, m=100)
        out_a = tmp_path / "a"
        rc = cli.main([
            "experiment", "--dataset", str(preds), "--voter-mode", "ingest",
            "--seeds", "0,1", "--objectives", "fo", "--max-epochs", "1",
            "--out", str(out_a), "--n-gamma", "30",
        ])
        assert rc == 0
        out_b = tmp_path / "b"
        rc = cli.main([
            "--manifest", str(out_a / "manifest.json"),
            "experiment", "--out", str(out_b),
        ])
        assert rc == 0
        for name in ("results.csv", "summary.csv", "training_log.csv",
                     "posteriors.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_explicit_flag_overrides_manifest_value(self, tmp_path):
        """A manifest value passes the flag's checks only when no explicit
        flag replaces it: here the explicit --delta wins over a bad one, and
        an abbreviated explicit flag wins too."""
        preds = tmp_path / "preds.csv"
        write_predictions(preds)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "certify", "predictions": str(preds), "delta": 2,
            "bounds": ["fo", "f2"], "n_gamma": 20,
        }))
        out = tmp_path / "out"
        rc = cli.main(["--manifest", str(manifest), "certify", "--delta", "0.1",
                       "--n-gam", "15", "--out", str(out)])
        assert rc == 0
        assert [r["bound"] for r in read_results(out)] == ["fo", "f2"]
        with open(out / "manifest.json") as fh:
            rerun = json.load(fh)
        assert (rerun["delta"], rerun["n_gamma"]) == (0.1, 15)


class TestVerifyCommand:
    def test_small_battery_passes(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main([
            "verify", "--battery", "aggregation", "--samples", "20000",
            "--out", str(out),
        ])
        assert rc == 0
        with open(out / "mcreports.json") as fh:
            reports = json.load(fh)
        assert all(r["verdict"] for r in reports)

    def test_forced_failure_exits_nonzero(self, tmp_path, monkeypatch):
        failing = oracle.McReport.build("forced", 0.5, 0.01, 5000, 0.1, "mc_lower")
        assert not failing.verdict
        monkeypatch.setitem(cli._BATTERIES, "marchal_arbel", lambda args: [failing])
        out = tmp_path / "out"
        rc = cli.main([
            "verify", "--battery", "marchal_arbel", "--samples", "5000",
            "--out", str(out),
        ])
        assert rc == 4

    def test_report_schema_stable(self, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            cli.main(["verify", "--battery", "aggregation", "--samples", "5000",
                      "--out", str(out)])
            with open(out / "mcreports.csv") as fh:
                outs.append(fh.readline().strip())
        assert outs[0] == outs[1]
        assert outs[0] == "label,estimate,stderr,n_samples,claim_bound,direction,verdict"


@pytest.fixture(scope="module")
def compare_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    rc = cli.main(["compare", "--points", "25", "--out", str(out)])
    assert rc == 0
    return out


class TestCompareCommand:
    def test_emits_one_csv_per_panel(self, compare_dir):
        names = sorted(p.name for p in compare_dir.glob("compare_*.csv"))
        assert names == [
            "compare_m10000_loss00.csv",
            "compare_m10000_loss10.csv",
            "compare_m2000_loss00.csv",
            "compare_m2000_loss10.csv",
        ]

    def test_bg_dominates_bgplus_pointwise(self, compare_dir):
        for path in compare_dir.glob("compare_*.csv"):
            with open(path) as fh:
                for row in csv.DictReader(fh):
                    assert float(row["bg"]) >= float(row["bgplus"]) - 1e-12

    def test_gz_rows_absent_below_margin_floor(self, compare_dir):
        floor = (2.0 / 100) ** 0.5
        with open(compare_dir / "compare_m2000_loss00.csv") as fh:
            for row in csv.DictReader(fh):
                if float(row["gamma"]) <= floor:
                    assert row["gz"] == ""
                else:
                    assert row["gz"] != ""

    def test_margin_error_column_constant(self, compare_dir):
        with open(compare_dir / "compare_m2000_loss10.csv") as fh:
            values = {row["margin_error"] for row in csv.DictReader(fh)}
        assert values == {"0.1"}
