"""Command surface: outputs, determinism, exit codes, manifest round trips."""
import argparse
import csv
import json
import math
import os
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from votecert import cli, data, oracle

from conftest import (
    export_predictions, random_matrix, results_csv_certificates, write_board_csv,
)

VERIFY_REFERENCE = pathlib.Path(__file__).parent / "verify_reference.json"
COMPARE_REFERENCE = pathlib.Path(__file__).parent / "compare_reference"


def write_predictions(path, seed=0, m=80, d=6, accuracy=0.75):
    P = random_matrix(seed=seed, m=m, d=d, accuracy=accuracy)
    export_predictions(P, path)
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
        assert not (tmp_path / "x").exists()

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

    def test_one_row_gz_is_vacuous(self, tmp_path):
        """One row and 100 voters: gz's ln(2 m^2 / ln d) is negative there,
        and its tail ln(d) / m alone exceeds 1.  The default run exits 0 with
        a vacuous gz row, and its other rows are those of a run without gz."""
        preds = tmp_path / "preds.csv"
        write_predictions(preds, m=1, d=100)
        others = ",".join(b for b in cli.DEFAULT_BOUNDS if b != "gz")
        for name, extra in (("all", []), ("others", ["--bounds", others])):
            args = ["certify", "--predictions", str(preds), "--out", str(tmp_path / name)]
            assert cli.main(args + extra) == 0
        gz = results_csv_certificates(tmp_path / "all" / "results.csv")["gz"]
        assert (gz["value"], gz["flags"]) == (1.0, ["vacuous"])
        lines = (tmp_path / "all" / "results.csv").read_text().splitlines()
        assert [ln for ln in lines if ",gz," not in ln] == (
            (tmp_path / "others" / "results.csv").read_text().splitlines())

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


class TestOutOfRangeInputs:
    """Input files holding numbers far outside the usual range: each run
    exits 0 with the results of an in-range twin, or exits 3."""

    @pytest.mark.parametrize("index", [1_000_000, 99999999999999999999])
    def test_class_index_counts_only_by_order(self, tmp_path, index):
        """A binary 41 x 3 file with one vote for class ``index``: only the
        order of the class indices matters, so results.csv is that of the
        twin with 3 there (the file name is part of it, so both share
        one), and the run stays small (at 1,000,000 the one-hot masks once
        took 773 MB)."""
        P = random_matrix(seed=4, m=41, d=3, accuracy=0.6)
        outputs = []
        for vote in (index, 3):
            preds = tmp_path / str(vote) / "preds.csv"
            preds.parent.mkdir()
            export_predictions(P, preds)
            lines = preds.read_text().splitlines()
            label, v1, v2, v3 = lines[6].split(",")
            lines[6] = ",".join([label, v1, str(vote), v3])
            preds.write_text("\n".join(lines) + "\n")
            tracemalloc.start()
            try:
                assert cli.main(["certify", "--predictions", str(preds), "--n-gamma", "50",
                                 "--out", str(tmp_path / f"out{vote}")]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20
            outputs.append((tmp_path / f"out{vote}" / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_theta_whose_sum_overflows(self, tmp_path):
        """Three weights of 1e308 certify as three weights of 1.0."""
        preds = tmp_path / "preds.csv"
        write_predictions(preds, d=3)
        outputs = []
        for weight in ("1e308", "1.0"):
            theta = tmp_path / f"theta{weight}.txt"
            theta.write_text(f"{weight}\n" * 3)
            out = tmp_path / f"out{weight}"
            assert cli.main(["certify", "--predictions", str(preds), "--theta", str(theta),
                             "--n-gamma", "20", "--out", str(out)]) == 0
            outputs.append((out / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_is_data_error(self, tmp_path, capsys, value):
        dataset = tmp_path / "data.csv"
        dataset.write_text("f1,f2,label\n" + "".join(
            f"{value if i == 3 else i},{2 * i},{i % 2}\n" for i in range(12)))
        assert cli.main(["experiment", "--dataset", str(dataset), "--seeds", "0",
                         "--out", str(tmp_path / "out")]) == 3
        assert "features must be finite" in capsys.readouterr().err

    def test_feature_near_the_float_limit(self, tmp_path):
        """A feature of +-1e308, whose train statistics overflow, runs as
        its twin scaled by 2^-1024, with no RuntimeWarning."""
        outputs = []
        for name, value in (("huge", 1e308), ("twin", math.ldexp(1e308, -1024))):
            dataset = tmp_path / name / "data.csv"
            dataset.parent.mkdir()
            dataset.write_text("f1,f2,label\n" + "".join(
                f"{value if i % 3 else -value!r},{i},{i % 2}\n" for i in range(20)))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert cli.main(["experiment", "--dataset", str(dataset), "--seeds", "0",
                                 "--max-epochs", "2", "--out", str(tmp_path / f"out{name}")]) == 0
            outputs.append((tmp_path / f"out{name}" / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_far_test_row(self, tmp_path):
        """A feature that is 0 on every row but test row 6 (seed 0), where
        it is 1e300: the train std is floored at 1e-12, so that row's
        standardised value overflows and is clipped.  The run exits 0 with
        no RuntimeWarning and the results of its twin with 1.0 there."""
        assert 6 in data.split_indices(20, 0, strong_voters=False).test_idx
        outputs = []
        for name, value in (("far", 1e300), ("twin", 1.0)):
            dataset = tmp_path / name / "data.csv"
            dataset.parent.mkdir()
            dataset.write_text("f1,label\n" + "".join(
                f"{value if i == 6 else 0.0!r},{i % 2}\n" for i in range(20)))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert cli.main(["experiment", "--dataset", str(dataset), "--seeds", "0",
                                 "--max-epochs", "2", "--out", str(tmp_path / f"out{name}")]) == 0
            outputs.append((tmp_path / f"out{name}" / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("fmt", ["csv", "libsvm"])
    def test_stump_voters_need_a_feature(self, tmp_path, capsys, fmt):
        """A dataset of labels alone: stump voters exit 3, and the forest,
        whose trees are then single leaves, exits 0."""
        dataset = tmp_path / f"data.{fmt}"
        header = "label\n" if fmt == "csv" else ""
        dataset.write_text(header + "".join(f"{i % 2}\n" for i in range(12)))
        argv = ["experiment", "--dataset", str(dataset), "--format", fmt, "--seeds", "0",
                "--max-epochs", "2"]
        assert cli.main(argv + ["--out", str(tmp_path / "stumps")]) == 3
        assert "stump voters need at least one feature column" in capsys.readouterr().err
        assert cli.main(argv + ["--voter-mode", "rf", "--out", str(tmp_path / "rf")]) == 0


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
    (["compare", "--delta", "0.1"], 2),
    (["compare", "--n-gamma", "5"], 2),
    (["verify", "--delta", "0.1"], 2),
    (["verify", "--n-gamma", "5"], 2),
    (["verify", "--samples", "1"], 2),
    (["verify", "--sharpness-samples", "1"], 2),
    (["certify", "--k", "1e305"], 2),
    (["certify", "--bounds", "gz,gz,fo"], 2),
    (["experiment", "--objectives", "fo,stochastic_margin,fo"], 2),
    (["train", "--seeds", "0,0"], 2),
    (["experiment", "--seeds", "1,01"], 2),
    (["train", "--gamma-candidates", "0.05,0.1,0.050"], 2),
])
def test_bad_input_exit_code(tmp_path, capsys, argv, code):
    """Bad flag or manifest values, a repeated entry of a list flag among
    them, are usage errors (2) and a malformed weights or manifest file is
    a data error (3): each reported in one line, without a traceback, and no
    manifest is written.  Each command otherwise gets the inputs it needs to
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
    assert not (tmp_path / "out" / "manifest.json").exists()


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
        assert (out / "manifest.json").exists() and (out / "timing.json").exists()

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

    def test_reproduces_recorded_reports(self, tmp_path):
        """Every battery at 2,000 samples, seed 0, against mcreports.json
        recorded from the row-by-row oracle: the Philox streams, the sample
        counts and the loss arithmetic stay, byte for byte."""
        out = tmp_path / "out"
        rc = cli.main(["verify", "--samples", "2000", "--sharpness-samples", "2000",
                       "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert (out / "mcreports.json").read_bytes() == VERIFY_REFERENCE.read_bytes()


RUN_FILES = ("results.csv", "summary.csv", "training_log.csv", "posteriors.csv")
COMPARE_FILES = tuple(
    f"compare_m{m}_loss{loss}.csv" for m in (2000, 10000) for loss in ("00", "10")
)

# Small runs of every command, with flags away from their defaults, and the
# result files each writes.
ROUND_TRIPS = {
    "certify": (["--n-gamma", "20", "--k", "4.0", "--delta", "0.1",
                 "--bounds", "fo,dirichlet_margin"], ("results.csv",)),
    "train": (["--max-epochs", "1", "--gamma-candidates", "0.05", "--seeds", "0,1",
               "--n-gamma", "20"], RUN_FILES),
    "experiment": (["--voter-mode", "ingest", "--seeds", "0,1", "--objectives", "fo",
                    "--max-epochs", "1", "--n-gamma", "30"], RUN_FILES),
    "verify": (["--battery", "aggregation", "--samples", "2000", "--seed", "3"],
               ("mcreports.json", "mcreports.csv")),
    "compare": (["--points", "5", "--seed", "2"], COMPARE_FILES),
}


def command_inputs(command, tmp_path):
    """The input flag a command needs, pointing at a fresh prediction file."""
    preds = tmp_path / "preds.csv"
    write_predictions(preds, m=100)
    flag = {"certify": "--predictions", "train": "--predictions", "experiment": "--dataset"}
    return [flag[command], str(preds)] if command in flag else []


def subcommand_dests(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions}


def same_files(a, b, names):
    return all((a / name).read_bytes() == (b / name).read_bytes() for name in names)


@pytest.mark.parametrize("command", ROUND_TRIPS)
def test_manifest_rerun_reproduces_results(tmp_path, command):
    """The manifest holds every flag the command parsed, and nothing else but
    the command and the tool version; re-running it reproduces the result
    files bit-exactly and records the same manifest."""
    flags, files = ROUND_TRIPS[command]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main([command, *flags, *command_inputs(command, tmp_path),
                     "--out", str(out_a)]) == 0
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert set(manifest) == subcommand_dests(command) - {"help", "out"} | {
        "command", "tool_version"}
    assert cli.main(["--manifest", str(out_a / "manifest.json"), command,
                     "--out", str(out_b)]) == 0
    assert same_files(out_a, out_b, files)
    assert json.loads((out_b / "manifest.json").read_text()) == manifest
    assert set(json.loads((out_b / "timing.json").read_text())) == {"seconds"}


# Manifests in the format of earlier versions, which recorded the output
# directory, lists for bounds and seeds, and compare's fixed panels and its
# unused delta and n_gamma; each with the flags that make the same run.
OLD_MANIFESTS = {
    "compare": ({"delta": 0.01, "n_gamma": 7, "output_dir": "run5", "points": 5, "seed": 2,
                 "panels": [[2000, 0.0], [2000, 0.1], [10000, 0.0], [10000, 0.1]],
                 "files": list(COMPARE_FILES)},
                ["--points", "5", "--seed", "2"], COMPARE_FILES),
    "certify": ({"delta": 0.1, "n_gamma": 20, "output_dir": "run1", "theta": None, "k": 4.0,
                 "bounds": ["fo", "dirichlet_margin"]},
                ROUND_TRIPS["certify"][0], ("results.csv",)),
    "train": ({"delta": 0.05, "n_gamma": 20, "output_dir": "run2", "seeds": [0, 1],
               "objective": "stochastic_margin", "gamma_candidates": "0.05",
               "max_epochs": 1, "batch_size": 100},
              ROUND_TRIPS["train"][0], RUN_FILES),
}


@pytest.mark.parametrize("command", OLD_MANIFESTS)
def test_old_manifest_reruns(tmp_path, command):
    """An earlier version's manifest still runs: its lists become
    comma-separated flags and keys that are no flag are skipped."""
    stored, flags, files = OLD_MANIFESTS[command]
    inputs = command_inputs(command, tmp_path)
    stored = {"command": command, "tool_version": "0.1.0", **stored}
    if inputs:
        stored[inputs[0].lstrip("-")] = inputs[1]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(stored))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main([command, *flags, *inputs, "--out", str(out_a)]) == 0
    assert cli.main(["--manifest", str(manifest), command, "--out", str(out_b)]) == 0
    assert same_files(out_a, out_b, files)
    assert (json.loads((out_b / "manifest.json").read_text())
            == json.loads((out_a / "manifest.json").read_text()))


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

    def test_reproduces_recorded_csvs(self, tmp_path):
        """``compare --points 99 --seed 0`` against the four CSVs recorded
        from the per-bound formula functions and re-recorded when the K
        search changed, byte for byte."""
        out = tmp_path / "out"
        assert cli.main(["compare", "--points", "99", "--seed", "0", "--out", str(out)]) == 0
        for name in COMPARE_FILES:
            assert (out / name).read_bytes() == (COMPARE_REFERENCE / name).read_bytes(), name
