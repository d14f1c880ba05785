#!/usr/bin/env python3
"""Run the benchmark on two source trees in alternating pairs.

    python3 scripts/paired_bench.py PARENT CHANGE --seeds 301-310 \
        [--claim map-3d-96:pass_s] [--traced map-3d-96:7] [--what TEXT] [--out BENCH_N.json]

PARENT and CHANGE are checkouts (fresh exports, so that no run finds
another's bytecode).  There is one pair per seed: pair k runs
``perfbench/run.py --trace 0`` at the k-th seed on one side for every
workload, then on the other; odd pairs start with
the parent, even pairs with the change.  The workloads, the run length,
the metrics, their better direction and their bounds come from CHANGE's
``BENCHMARK.json``.

The result has the layout of the ``BENCH_*.json`` files: every run under
``pairs``; per workload and metric the parent's and the change's
quartiles, the pairs the change wins, the median change as a fraction of
the parent's median and whether it stays within the metric's bound
("unresolved" when the parent's q3 - q1 is wider than the bound, as a
fraction of its median, and not every change run beats every parent run:
such a spread cannot tell a move within the bound from one beyond it); and,
with ``--claim``, the claim rule: the change wins at least 9 of 10 pairs
(the same share of any other count) and its median beats the parent's by
more than the parent's q3 - q1.  ``--traced WORKLOAD:SEED`` adds one
``--trace 1`` run per side with its per-layer metrics.  The file is
rewritten after every pair, so an interrupted run keeps what it measured.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"paired_bench: {' '.join(cmd[1:])} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(attempted=result["attempted"], failed=result["failed"], correct=result["correct"])
    return row


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def _summary(pairs: list[dict], workload: str, metric: dict) -> dict:
    name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
    parent = [p["workloads"][workload]["parent"][name] for p in pairs]
    change = [p["workloads"][workload]["change"][name] for p in pairs]
    qp, qc = _quartiles(parent), _quartiles(change)
    frac = qc["median"] / qp["median"] - 1.0 if qp["median"] else 0.0
    spread = qp["q3"] - qp["q1"]
    if max(sign * c for c in change) < min(sign * p for p in parent):
        within = True  # every change run beats every parent run
    elif spread > metric["bound"] * abs(qp["median"]):
        within = "unresolved"
    else:
        within = bool(sign * frac <= metric["bound"])
    return {
        "parent": qp,
        "change": qc,
        "pairs": len(pairs),
        "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "ties": sum(c == p for p, c in zip(parent, change)),
        "median_change_frac": frac,
        "bound": metric["bound"],
        "parent_quartile_spread": spread,
        "within_bound": within,
    }


def _claim(summary: dict, workload: str, name: str, better: str) -> dict:
    s = summary[workload][name]
    gain = (s["parent"]["median"] - s["change"]["median"]) * (1.0 if better == "lower" else -1.0)
    need = math.ceil(0.9 * s["pairs"])
    return {
        "workload": workload,
        "metric": name,
        "rule": f"change wins >= {need} of {s['pairs']} pairs and the median difference exceeds the parent's q3 - q1",
        "change_wins": s["change_wins"],
        "pairs": s["pairs"],
        "median_difference": gain,
        "parent_quartile_spread": s["parent_quartile_spread"],
        "median_change_frac": s["median_change_frac"],
        "met": s["change_wins"] >= need and gain > s["parent_quartile_spread"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", type=_seeds, required=True, help="one pair per seed: 301-310 or 1,5,9")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--traced", action="append", default=[], help="WORKLOAD:SEED for one --trace 1 run per side")
    ap.add_argument("--what", default="", help="what the change is, recorded in the result")
    ap.add_argument("--out", help="result file (default: stdout)")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    trees = {"parent": args.parent, "change": args.change}
    result = {
        "what": args.what,
        "parent": os.path.basename(os.path.abspath(args.parent)),
        "change": os.path.basename(os.path.abspath(args.change)),
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0, "
                   "run from the root of each tree",
        "machine": f"{os.cpu_count()} CPUs ({platform.machine()}), Python {platform.python_version()}, "
                   f"numpy {metadata.version('numpy')}, "
                   f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}",
        "seeds": f"{args.seeds}, one per pair; odd pairs ran the parent first, even pairs the change first; "
                 f"within a side the order was {', '.join(workloads)}",
        "pairs": [],
    }

    def write():
        text = json.dumps(result, indent=1) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)

    for k, seed in enumerate(args.seeds, 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        runs = {w: {} for w in workloads}
        for side in order:
            for w in workloads:
                runs[w][side] = _run(trees[side], w, seed, seconds, 0)
                print(f"pair {k} seed {seed} {side} {w}: pass_s {runs[w][side]['pass_s']:.4f}", file=sys.stderr)
        result["pairs"].append({"pair": k, "seed": seed, "first": order[0], "workloads": runs})
        result["summary"] = {w: {m["name"]: _summary(result["pairs"], w, m) for m in metrics} for w in workloads}
        if args.claim:
            w, name = args.claim.split(":")
            better = next(m["better"] for m in metrics if m["name"] == name)
            result["claim"] = _claim(result["summary"], w, name, better)
        if args.out:
            write()
    for spec in args.traced:
        w, seed = spec.split(":")
        result.setdefault("traced", {})[f"{w} seed {seed}"] = {
            side: _run(trees[side], w, int(seed), seconds, 1) for side in ("parent", "change")
        }
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
