"""The four benchmark workloads: desk, certify, compare and verify.

Each workload makes its inputs from the run seed when it is built (the
set-up), then runs one *pass* at a time.  A pass is a fixed list of timed
operations on distinct inputs.  ``check`` then inspects the pass's outputs
(outside any tracing) and run.py compares the pass's fingerprint with
the first pass's, so a run only reports times for outputs it has checked.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import inputs

# The seed whose outputs are recorded in reference.json (see
# make_reference.py); any other seed is checked against invariants only.
DEFAULT_SEED = 0

# Every certificate the library defines, listed here so that the workload
# cannot shrink when the library's own list changes.
BOUND_IDS = (
    "dirichlet_margin",
    "stochastic_margin",
    "gz",
    "bgplus",
    "bg",
    "bgplusplus",
    "fo",
    "so",
    "bin",
    "f2",
)

# Sizes per workload.  "full" is what the benchmark measures; "toy" only
# exercises the code paths (see smoke.py).  "inputs" is the number of
# distinct inputs a pass runs over (for certify: matrices per class count).
SIZES = {
    "desk": {
        "full": {"inputs": 2, "rows": 958, "max_epochs": 4, "n_gamma": 100},
        "toy": {"inputs": 1, "rows": 160, "max_epochs": 1, "n_gamma": 10},
    },
    "certify": {
        "full": {"inputs": 2, "binary": (383, 108), "multiclass": (1000, 60), "n_gamma": 10},
        "toy": {"inputs": 1, "binary": (60, 12), "multiclass": (80, 8), "n_gamma": 4},
    },
    "compare": {
        "full": {"inputs": 2, "points": 3},
        "toy": {"inputs": 1, "points": 2},
    },
    "verify": {
        "full": {"inputs": 8, "samples": 1_250, "sharpness_samples": 6_250},
        "toy": {"inputs": 1, "samples": 400, "sharpness_samples": 400},
    },
}

# Concentration of the drawn voting weights in certify: Dirichlet(5, ..., 5)
# weights are clearly non-uniform, yet their certificates vary little from
# draw to draw.
WEIGHT_CONCENTRATION = 5.0

_REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Certificate values may move by this much (absolute) before a reference
# check fails: room for a more accurate kernel or a search that lands on a
# neighbouring optimum, far below what a wrong formula or a lost union
# correction moves them (1e-3 and more).
VALUE_TOL = 1e-6
# The desk certificate comes out of training, which a kernel change may
# steer onto a slightly different posterior.
DESK_VALUE_TOL = 2e-3


@dataclass
class PassResult:
    """What one pass produced: per-operation seconds, failures, a digest of
    the deterministic outputs, and the flagship certificate value."""

    # Per operation: (start, end) on the perf_counter clock.
    op_spans: list = field(default_factory=list)
    # Per operation: the CLI exit code, or the certify result (None if it raised).
    outputs: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    failed_ops: set = field(default_factory=set)
    fingerprint: str = ""
    cert_value: float = math.nan
    # What reference.json records for this workload.
    recorded: dict = field(default_factory=dict)
    # Facts reported with the run but not checked.
    notes: dict = field(default_factory=dict)

    @property
    def op_seconds(self) -> list:
        return [end - start for start, end in self.op_spans]

    def fail(self, op, message: str) -> None:
        self.failed_ops.add(op)
        self.failures.append(message)


def load_reference() -> dict:
    with open(_REFERENCE_PATH) as fh:
        return json.load(fh)


def write_reference(data: dict) -> None:
    with open(_REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class _CliWorkload:
    """A workload whose operations are ``votecert`` CLI commands, one per
    input, each writing to its own output directory."""

    name = ""
    result_files: tuple = ()
    # How strongly the workload slows in a slow phase of a shared machine,
    # as a power of how strongly the speed probe slows (see calibrate.py).
    speed_sensitivity = 1.0

    def __init__(self, work_dir: str, seed: int, size: str, reference):
        self.params = SIZES[self.name][size]
        self.reference = reference
        self.calls = []
        for k in range(self.params["inputs"]):
            out_dir = os.path.join(work_dir, f"out{k}")
            os.makedirs(out_dir, exist_ok=True)
            self.calls.append((self.make_call(k, work_dir, seed) + ["--out", out_dir], out_dir))

    @property
    def ops_per_pass(self) -> int:
        return len(self.calls)

    def make_call(self, k: int, work_dir: str, seed: int) -> list:
        """Make input k and return the CLI arguments that use it."""
        raise NotImplementedError

    def check_call(self, k: int, rc: int, out_dir: str, result: PassResult):
        """Check call k's outputs; return (certificate value, recorded data)."""
        raise NotImplementedError

    def run_pass(self, votecert) -> PassResult:
        result = PassResult()
        for k, (argv, out_dir) in enumerate(self.calls):
            # Never check a previous pass's files.
            for fname in self.result_files:
                if os.path.exists(os.path.join(out_dir, fname)):
                    os.remove(os.path.join(out_dir, fname))
            t0 = time.perf_counter()
            try:
                rc = votecert.cli.main(argv)
            except Exception as exc:  # a raising command is a failed operation
                rc = None
                result.fail(k, f"{self.name}[{k}]: raised {exc!r}")
            result.op_spans.append((t0, time.perf_counter()))
            result.outputs.append(rc)
        return result

    def check(self, votecert, result: PassResult) -> None:
        digest = hashlib.sha256()
        certs, recorded = [], []
        for k, ((_, out_dir), rc) in enumerate(zip(self.calls, result.outputs)):
            if rc is None:
                continue
            try:
                cert, data = self.check_call(k, rc, out_dir, result)
                for fname in self.result_files:
                    with open(os.path.join(out_dir, fname), "rb") as fh:
                        digest.update(fh.read())
            except (OSError, KeyError, ValueError) as exc:
                result.fail(k, f"{self.name}[{k}]: outputs fail their check: {exc!r}")
                continue
            certs.append(cert)
            recorded.append(data)
        if not result.failures:
            result.cert_value = float(np.mean(certs))
            result.recorded = {"calls": recorded}
            result.fingerprint = digest.hexdigest()

    def reference_for(self, k: int):
        return None if self.reference is None else self.reference["calls"][k]


class Desk(_CliWorkload):
    """The paper's pipeline on board data: split, stump voters, train the
    stochastic-margin, fo and f2 objectives, certify every posterior.  One
    operation is one experiment on one generated board CSV."""

    name = "desk"
    result_files = ("results.csv", "summary.csv", "training_log.csv", "posteriors.csv")

    def make_call(self, k, work_dir, seed):
        dataset = os.path.join(work_dir, f"boards{k}.csv")
        inputs.write_board_csv(
            dataset, self.params["rows"], inputs.derive_seed(seed, f"desk.board{k}")
        )
        return [
            "experiment",
            "--dataset", dataset,
            "--seeds", str(inputs.derive_seed(seed, f"desk.trial{k}")),
            "--objectives", "stochastic_margin,fo,f2",
            "--max-epochs", str(self.params["max_epochs"]),
            "--n-gamma", str(self.params["n_gamma"]),
        ]

    def check_call(self, k, rc, out_dir, result):
        tag = f"desk[{k}]"
        if rc != 0:
            raise ValueError(f"exit code {rc}")
        rows = _read_csv(os.path.join(out_dir, "results.csv"))
        value = {(r["posterior"], r["bound"]): float(r["value"]) for r in rows}
        for key, v in value.items():
            if not 0.0 <= v <= 1.0:
                result.fail(k, f"{tag}: {key} value {v} outside [0, 1]")
        cert = value[("stochastic_margin", "dirichlet_margin")]
        for other in ("gz", "bgplus"):
            if cert > value[("stochastic_margin", other)]:
                result.fail(k, f"{tag}: trained dirichlet_margin {cert} above {other}")
        if cert > value[("uniform", "dirichlet_margin")]:
            result.fail(k, f"{tag}: trained dirichlet_margin {cert} above the uniform posterior's")
        ref = self.reference_for(k)
        if ref is not None and abs(cert - ref["cert_value"]) > DESK_VALUE_TOL:
            result.fail(k, f"{tag}: cert_value {cert} differs from reference {ref['cert_value']}")
        return cert, {"cert_value": cert}


class Compare(_CliWorkload):
    """The bound-comparison sweep: formula-level bounds over a margin grid,
    with the Dirichlet margin bound's K search called one lane at a time.
    One operation is one sweep with its own weight draws."""

    name = "compare"
    result_files = tuple(
        f"compare_m{m}_loss{loss}.csv" for m in (2000, 10000) for loss in ("00", "10")
    )
    _monotone = ("bg", "bgplus", "gz", "bgplusplus_1", "bgplusplus_2", "bgplusplus_3")
    _ours = ("ours_1", "ours_2", "ours_3")

    def make_call(self, k, work_dir, seed):
        return ["compare", "--points", str(self.params["points"]),
                "--seed", str(inputs.derive_seed(seed, f"compare.weights{k}"))]

    def check_call(self, k, rc, out_dir, result):
        tag = f"compare[{k}]"
        if rc != 0:
            raise ValueError(f"exit code {rc}")
        ours = {}
        for fname in self.result_files:
            rows = _read_csv(os.path.join(out_dir, fname))
            if len(rows) != self.params["points"]:
                result.fail(k, f"{tag}: {fname} has {len(rows)} rows")
            for col in self._monotone:
                vals = [float(r[col]) for r in rows if r[col] != ""]
                if any(not 0.0 <= v <= 1.0 for v in vals):
                    result.fail(k, f"{tag}: {fname} {col} outside [0, 1]")
                if any(b > a for a, b in zip(vals, vals[1:])):
                    result.fail(k, f"{tag}: {fname} {col} increases with gamma")
            ours[fname] = [float(r[c]) for r in rows for c in self._ours]
        flat = [v for vals in ours.values() for v in vals]
        if any(not 0.0 <= v <= 1.0 for v in flat):
            result.fail(k, f"{tag}: an ours_* value lies outside [0, 1]")
        ref = self.reference_for(k)
        if ref is not None:
            for fname, vals in ours.items():
                if not np.allclose(vals, ref["ours"][fname], rtol=0.0, atol=VALUE_TOL):
                    result.fail(k, f"{tag}: {fname} ours_* differ from the reference")
        return float(np.mean(flat)), {"ours": ours}


class Verify(_CliWorkload):
    """The Monte Carlo oracle batteries at reduced sample counts.  One
    operation is every battery at one battery seed."""

    name = "verify"
    result_files = ("mcreports.json",)
    # Most of verify is numpy sampling on arrays of 10^4 to 10^5 elements,
    # which a shared core slows less than the probe's interpreter-bound mix:
    # over 10 runs its wall time grew as the probe speed to the power -0.8,
    # against -1.2 to -1.6 for the other workloads.
    speed_sensitivity = 0.7
    # Every battery at the CLI's defaults: 4 aggregation, 50 Marchal-Arbel,
    # 2 x 30 de-randomisation and 10 sharpness reports.
    _num_reports = 124

    def make_call(self, k, work_dir, seed):
        return [
            "verify",
            "--samples", str(self.params["samples"]),
            "--sharpness-samples", str(self.params["sharpness_samples"]),
            "--seed", str(inputs.derive_seed(seed, f"verify.battery{k}")),
        ]

    def check_call(self, k, rc, out_dir, result):
        tag = f"verify[{k}]"
        with open(os.path.join(out_dir, "mcreports.json")) as fh:
            reports = json.load(fh)
        if len(reports) != self._num_reports:
            result.fail(k, f"{tag}: {len(reports)} reports, expected {self._num_reports}")
        rejected = [r["label"] for r in reports if not r["verdict"]]
        # Exit code 4 is the CLI's documented answer to a rejected claim.
        if rc != (4 if rejected else 0):
            result.fail(k, f"{tag}: exit code {rc} with {len(rejected)} rejected claims")
        for r in reports:
            if not all(math.isfinite(r[key]) for key in ("estimate", "stderr", "claim_bound")):
                result.fail(k, f"{tag}: non-finite report {r['label']}")
            elif r["verdict"] != _three_stderr_rule(r):
                result.fail(k, f"{tag}: verdict of {r['label']} disagrees with its rule")
        result.notes.setdefault("rejected_claims", []).extend(rejected)
        labels = [r["label"] for r in reports]
        ref = self.reference_for(k)
        if ref is not None:
            if labels != ref["labels"]:
                result.fail(k, f"{tag}: report labels differ from the reference")
            if rejected != ref["rejected"]:
                result.fail(k, f"{tag}: rejected {rejected}, reference {ref['rejected']}")
        # The de-randomised margin bound L_2gamma(theta) + eps that the
        # upper-side de-randomisation claims state.
        upper = [r["claim_bound"] for r in reports
                 if r["label"].startswith("derandomisation_upper")]
        return float(np.mean(upper)), {"labels": labels, "rejected": rejected}


def _three_stderr_rule(r: dict) -> bool:
    """The oracle's verdict rule, restated independently of the library."""
    est, se, claim = r["estimate"], r["stderr"], r["claim_bound"]
    return {
        "mc_upper": claim <= est + 3.0 * se,
        "mc_lower": est - 3.0 * se <= claim,
        "two_sided": abs(est - claim) <= 3.0 * se,
        "statistic": est <= claim,
    }[r["direction"]]


class Certify:
    """``bounds.certify`` for every bound id on (matrix, weights) pairs:
    binary and 3-class voter matrices, each with uniform and with drawn
    weights.  One operation is one certify call."""

    name = "certify"
    speed_sensitivity = 1.0

    def __init__(self, work_dir: str, seed: int, size: str, reference, votecert):
        params = SIZES["certify"][size]
        self.reference = reference
        self.cfg = votecert.bounds.SearchConfig(n_gamma=params["n_gamma"])
        self.pairs = []
        for shape, classes in (("binary", 2), ("multiclass", 3)):
            m, d = params[shape]
            spec = votecert.bounds.BoundSpec(m=m, delta=0.05)
            for k in range(params["inputs"]):
                preds, labels = inputs.voter_matrix(
                    inputs.derive_seed(seed, f"certify.{shape}{k}"), m, d, classes
                )
                P = votecert.votes.PredictionMatrix(preds, labels, classes)
                drawn = inputs.simplex_weights(
                    inputs.derive_seed(seed, f"certify.{shape}{k}.weights"), d,
                    WEIGHT_CONCENTRATION,
                )
                for weights, theta in (("uniform", np.full(d, 1.0 / d)), ("drawn", drawn)):
                    wp = votecert.votes.WeightPosterior(theta, 1.0)
                    self.pairs.append((f"{shape}{k}.{weights}", P, wp, spec))

    @property
    def ops_per_pass(self) -> int:
        return len(self.pairs) * len(BOUND_IDS)

    def _keys(self):
        return [(f"{pair}.{bid}", bid) for pair, *_ in self.pairs for bid in BOUND_IDS]

    def run_pass(self, votecert) -> PassResult:
        certify = votecert.bounds.certify
        result = PassResult()
        for pair, P, wp, spec in self.pairs:
            for bid in BOUND_IDS:
                t0 = time.perf_counter()
                try:
                    r = certify(P, wp, spec, bid, self.cfg)
                except Exception as exc:  # a raising call is a failed operation
                    r = None
                    result.fail(f"{pair}.{bid}", f"certify {pair}.{bid}: raised {exc!r}")
                result.op_spans.append((t0, time.perf_counter()))
                result.outputs.append(r)
        return result

    def check(self, votecert, result: PassResult) -> None:
        outputs = {key: (bid, r) for (key, bid), r in zip(self._keys(), result.outputs)
                   if r is not None}
        result.fingerprint = hashlib.sha256(repr(sorted(
            (key, r.value, r.gamma_star, r.K_star, r.T_star) for key, (_, r) in outputs.items()
        )).encode()).hexdigest()
        result.recorded = {"values": {key: r.value for key, (_, r) in outputs.items()}}
        margins = [r.value for bid, r in outputs.values() if bid == "dirichlet_margin"]
        if len(margins) == len(self.pairs):
            result.cert_value = float(np.mean(margins))
        ref = None if self.reference is None else self.reference["values"]
        for key, (bid, r) in outputs.items():
            if not 0.0 <= r.value <= 1.0:
                result.fail(key, f"certify {key}: value {r.value} outside [0, 1]")
            rebuilt = votecert.bounds.reconstruct_value(bid, r)
            if not abs(rebuilt - r.value) <= 1e-9:
                result.fail(key, f"certify {key}: reconstructs to {rebuilt}, not {r.value}")
            if ref is not None and abs(r.value - ref[key]) > VALUE_TOL:
                result.fail(key, f"certify {key}: value {r.value} differs from reference {ref[key]}")


WORKLOADS = ("desk", "certify", "compare", "verify")


def build(name: str, work_dir: str, seed: int, size: str, votecert, check_reference=True):
    """Make a workload's inputs (the set-up) and return the workload.

    At the default seed and full size the outputs are also held to
    reference.json, unless ``check_reference`` is false.
    """
    reference = None
    if check_reference and seed == DEFAULT_SEED and size == "full":
        reference = load_reference()[name]
    if name == "certify":
        return Certify(work_dir, seed, size, reference, votecert)
    cls = {"desk": Desk, "compare": Compare, "verify": Verify}[name]
    return cls(work_dir, seed, size, reference)
