"""Run one votecert benchmark workload and print its metrics.

    python3 bench/run.py --workload desk --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout this file sits in.
A run first times the set-up (a fresh interpreter importing the library and
making the workload's inputs) several times, makes the inputs itself, runs
one warm-up pass, then repeats passes for ``--seconds`` seconds.  Every
pass's outputs are checked.  With ``--trace 0`` the passes run untraced,
under a speed probe (calibrate.py), and the end-to-end metrics are printed
in reference seconds; with ``--trace 1`` untraced and traced passes
alternate, without the probe, and the per-layer metrics are printed.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""
from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools to one thread before numpy loads.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# The tail latency is the highest percentile with at least this many calls
# beyond it.
TAIL_BEYOND = 10


def import_votecert():
    """Import the library from this checkout's src/, never from elsewhere."""
    package_dir = os.path.join(SRC, "votecert")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        sys.exit(f"error: no votecert package under {SRC}")
    sys.path.insert(0, SRC)
    import votecert
    import votecert.cli  # noqa: F401  (loads every module the workloads use)

    if os.path.dirname(os.path.abspath(votecert.__file__)) != package_dir:
        sys.exit(f"error: votecert was imported from {votecert.__file__}")
    return votecert


def measure_setup(args, work_dir: str) -> tuple:
    """Set-up times from process start to ready, each in a fresh interpreter
    that imports the library and makes this run's inputs, then exits.

    Returns the reference seconds and the wall seconds of each.  The child
    runs its own speed probe and reports the probes' share of its time and
    their mean speed; the wall time outside the probes is scaled by that
    speed to the power calibrate.SETUP_SENSITIVITY.
    """
    reference, wall = [], []
    for i in range(SETUP_REPEATS):
        target = os.path.join(work_dir, f"setup{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--setup-only", target]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        wall.append(seconds)
        reference.append((seconds - probe["probe_s"])
                         * probe["speed"] ** calibrate.SETUP_SENSITIVITY)
        shutil.rmtree(target, ignore_errors=True)
    return reference, wall


def tail(values: list) -> float:
    """The highest percentile with at least TAIL_BEYOND values beyond it; the
    largest value when there are too few."""
    ordered = sorted(values)
    return ordered[-(TAIL_BEYOND + 1)] if len(ordered) > TAIL_BEYOND else ordered[-1]


class Run:
    """One run's bookkeeping: ops attempted, failures, and the first pass,
    whose outputs every later pass must reproduce."""

    def __init__(self, workload, votecert):
        self.workload = workload
        self.votecert = votecert
        self.attempted = 0
        self.failures: list = []
        self.failed_ops = 0
        self.first = None

    def run_pass(self, label: str, tracer=None):
        gc.collect()
        if tracer is None:
            result = self.workload.run_pass(self.votecert)
        else:
            tracer.reset()
            tracer.install(self.votecert)
            try:
                result = self.workload.run_pass(self.votecert)
            finally:
                tracer.uninstall()
        self.workload.check(self.votecert, result)
        self.attempted += self.workload.ops_per_pass
        if self.first is None:
            self.first = result
        elif not result.failures and result.fingerprint != self.first.fingerprint:
            result.fail("fingerprint", "outputs differ from the first pass")
        self.failed_ops += min(len(result.failed_ops), self.workload.ops_per_pass)
        self.failures.extend(f"{label}: {msg}" for msg in result.failures)
        return result


def call_medians(passes: list) -> list:
    """Each operation of a pass is a fixed call; its latency is its median
    over the passes (each pass given as its list of operation times)."""
    return [statistics.median(times) for times in zip(*passes)]


def untraced_metrics(run: Run, passes: list, setup_samples: list) -> dict:
    calls = call_medians(passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": (sum(calls), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_frac": ((run.attempted - run.failed_ops) / run.attempted, "ratio"),
        "cert_value": (run.first.cert_value, "ratio"),
        "op_p50_ms": (1e3 * statistics.median(calls), "ms"),
        "op_tail_ms": (1e3 * tail(calls), "ms"),
    }
    # A failed check leaves a value undefined (NaN); report it as null.
    return {k: {"value": v if math.isfinite(v) else None, "unit": u}
            for k, (v, u) in values.items()}


def traced_metrics(run: Run, untraced: list, traced: list) -> dict:
    first = traced[0][1]
    for _, metrics in traced[1:]:
        moved = [k for k, v in first.items() if tracing.is_exact(k) and metrics[k] != v]
        if moved:
            run.failures.append(f"traced counts differ between passes: {moved}")
            run.failed_ops += 1
    out = {}
    for name in tracing.PER_LAYER_NAMES:
        if name == "trace.overhead_s":
            value = (statistics.median(wall for wall, _ in traced)
                     - sum(call_medians([p.op_seconds for p in untraced])))
        elif tracing.is_exact(name):
            value = first[name]
        else:
            value = statistics.median(m[name] for _, m in traced)
        out[name] = {"value": value, "unit": tracing.unit_of(name)}
    return out


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "src_lines": src_lines,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy sizes only exercise the code paths")
    p.add_argument("--setup-only", default=None, metavar="DIR",
                   help="make the inputs in DIR and exit (used to time set-up)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_only:
        with calibrate.SpeedProbe(calibrate.SETUP_INTERVAL_S) as probe:
            votecert = import_votecert()
            os.makedirs(args.setup_only, exist_ok=True)
            workloads.build(args.workload, args.setup_only, args.seed, args.size, votecert)
        print(json.dumps({"probe_s": probe.probe_seconds(), "speed": probe.mean_speed()}))
        return 0
    votecert = import_votecert()

    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return measure(args, votecert, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measured_passes(run: Run, seconds: float, tracer) -> tuple:
    """The warm-up pass, then passes until ``seconds`` are used up."""
    run.run_pass("warm-up")
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        result = run.run_pass("untraced")
        untraced.append(result)
        pass_s = sum(result.op_seconds)
        if tracer is not None:
            result = run.run_pass("traced", tracer)
            wall = sum(result.op_seconds)
            traced.append((wall, tracing.pass_metrics(tracer, wall)))
            pass_s += wall
        enough = len(untraced) >= (MIN_TRACED_PASSES if tracer else MIN_PASSES)
        if enough and time.perf_counter() + pass_s > deadline:
            return untraced, traced


def measure(args, votecert, work_dir: str) -> int:
    setup_samples, setup_wall = measure_setup(args, work_dir)
    workload = workloads.build(args.workload, work_dir, args.seed, args.size, votecert)
    run = Run(workload, votecert)

    if args.trace:
        tracer = tracing.Tracer()
        untraced, traced = measured_passes(run, args.seconds, tracer)
        metrics = traced_metrics(run, untraced, traced)
        speed = None
    else:
        with calibrate.SpeedProbe() as probe:
            untraced, traced = measured_passes(run, args.seconds, None)
        reference = [[probe.reference_seconds(t0, t1, workload.speed_sensitivity)
                      for t0, t1 in p.op_spans] for p in untraced]
        metrics = untraced_metrics(run, reference, setup_samples)
        speed = probe.mean_speed()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "passes": len(untraced) + len(traced),
        "calls_per_pass": workload.ops_per_pass,
        "pass_wall_seconds": [sum(p.op_seconds) for p in untraced],
        "probe_mean_speed": speed,
        "setup_reference_seconds": setup_samples,
        "setup_wall_seconds": setup_wall,
        "failures": run.failures,
        **run.first.notes,
        **machine_info(),
    }
    summary = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed_ops,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w") as fh:
        json.dump({"info": info, "result": summary}, fh, indent=1)
    if args.trace:
        tracer.write_spans(os.path.join(OUT_DIR, f"{stem}-spans.csv.gz"))
    for msg in run.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
