"""Run every workload once untraced and once traced, each in its own process.

    PYTHONPATH=src python -m benchmarks.e2e --seed S --out DIR

Every run lasts ``run_seconds`` from ``BENCHMARK.json``. A child process per run keeps peak memory and warm state from leaking
between workloads. Each child is ``run.py``; its records land in ``DIR``
(``<workload>.seed<S>.trace<0|1>.json`` plus ``trace-<workload>.jsonl``)
and its metric lines are echoed here. Exit status is non-zero when any run
fails or any correctness check does.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

from benchmarks.e2e.bench import ROOT, load_spec


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True,
                        help="directory for the run records and traces")
    args = parser.parse_args(argv)
    failures = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
                 "--out", args.out],
                capture_output=True, text=True, timeout=900)
            lines = done.stdout.splitlines()
            print("\n".join(line for line in lines
                            if not line.startswith("{")), flush=True)
            if done.returncode:
                failures.append(f"{name} trace={trace}")
                print(done.stderr or (lines[-1] if lines else ""),
                      file=sys.stderr)
    if failures:
        print("failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    print(f"all runs correct; records in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
