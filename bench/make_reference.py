"""Record bench/reference.json: the default seed's outputs at full size.

    python3 bench/make_reference.py

Run it only on a library whose outputs are trusted; the benchmark then
holds every default-seed run to these values (see workloads.py for the
tolerances).
"""
from __future__ import annotations

import tempfile

import run  # pins the BLAS threads before numpy loads
import workloads


def main() -> int:
    votecert = run.import_votecert()
    recorded = {}
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.ROOT) as work_dir:
            workload = workloads.build(name, work_dir, workloads.DEFAULT_SEED, "full",
                                       votecert, check_reference=False)
            result = workload.run_pass(votecert)
            workload.check(votecert, result)
        if result.failures:
            raise SystemExit(f"{name}: {result.failures}")
        recorded[name] = result.recorded
        print(f"{name}: recorded", flush=True)
    workloads.write_reference(recorded)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
