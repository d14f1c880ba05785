#!/usr/bin/env python3
"""Run every workload in BENCHMARK.json, untraced and then traced, and
print each run's summary.

    python3 perfbench/report.py [--seed N] [--seconds S]

The untraced summary gives the end-to-end metrics with units, sample
counts and fail_frac. The traced summary gives the per-layer metrics and
trace.overhead_frac. The exit code is non-zero if any run failed or
reported an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    status = 0
    for w in (entry["name"] for entry in bench["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                sys.stderr.write(f"{w} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
