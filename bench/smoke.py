"""Fast smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at toy size, untraced and traced, through the same
command the benchmark uses, and checks that each run is correct and emits
exactly the metric names BENCHMARK.json lists.  Takes about a minute.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.1", "--trace", str(trace), "--size", "toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_once(workload, trace)
            found = []
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                found.append(f"{workload} trace={trace}: missing {missing}, extra {extra}"
                             " (or units differ)")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                found.append(f"{workload} trace={trace}: {result}")
            print(f"{workload} trace={trace}: {'FAIL' if found else 'ok'}", flush=True)
            problems.extend(found)
    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
