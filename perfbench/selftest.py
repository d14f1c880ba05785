#!/usr/bin/env python3
"""Quick self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload once at tiny resolutions (``--quick``), untraced and
traced, and asserts three things:

* every metric named in BENCHMARK.json is emitted, with its unit;
* in every traced pass, spans nest inside their parents, siblings do not
  overlap, and spans of distlab functions cover at least 90 % of the
  pass's wall time, so the wrappers see the benchmark's own calls;
* an injected wrong verdict raises fail_frac and makes the run incorrect.

Exits non-zero with a message at the first failed assertion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
MIN_COVERAGE = 0.9  # share of a traced pass that the distlab spans must cover


def run(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--quick", *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def check_metrics(label: str, result: dict, declared: list[dict]) -> None:
    got = result["metrics"]
    names = {m["name"] for m in declared}
    if set(got) != names:
        raise AssertionError(f"{label}: missing {sorted(names - set(got))}, extra {sorted(set(got) - names)}")
    for m in declared:
        if got[m["name"]]["unit"] != m["unit"]:
            raise AssertionError(f"{label}: {m['name']} has unit {got[m['name']]['unit']!r}, not {m['unit']!r}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        raise AssertionError(f"{label}: attempted/failed are not whole numbers with attempted >= 1")


def check_spans(label: str, path: str) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    spans = doc["spans"]
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    for i, s in enumerate(spans):
        kids = sorted(children.get(i, []), key=lambda k: spans[k]["start"])
        for k in kids:
            if not (s["start"] <= spans[k]["start"] <= spans[k]["end"] <= s["end"]):
                raise AssertionError(f"{label}: span {spans[k]['name']} leaves its parent {s['name']}")
        for a, b in zip(kids, kids[1:]):
            if spans[a]["end"] > spans[b]["start"]:
                raise AssertionError(f"{label}: sibling spans {spans[a]['name']} and {spans[b]['name']} overlap")
    if not doc["passes"]:
        raise AssertionError(f"{label}: no traced pass recorded")
    for p in doc["passes"]:
        # the benchmark calls distlab through the wrapped module bindings, so
        # spans of distlab functions must cover almost all of each pass
        covered = sum(spans[k]["end"] - spans[k]["start"] for k in children.get(p["root"], []))
        if covered < MIN_COVERAGE * p["wall_s"]:
            raise AssertionError(
                f"{label}: distlab spans cover {covered:.6f} s of a {p['wall_s']:.6f} s traced pass"
            )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in (entry["name"] for entry in bench["workloads"]):
        plain, _ = run(w, 0)
        check_metrics(f"{w} trace 0", plain, bench["end_to_end"])
        traced, _ = run(w, 1)
        check_metrics(f"{w} trace 1", traced, bench["per_layer"])
        check_spans(f"{w} trace 1", os.path.join(ROOT, ".perfbench_out", f"spans-{w}-seed{SEED}.json"))
        injected, _ = run(w, 0, "--inject-miss")
        base = plain["failed"] / plain["attempted"]
        raised = injected["failed"] / injected["attempted"]
        if not (raised > base and not injected["correct"]):
            raise AssertionError(f"{w}: injected wrong verdict left fail_frac at {raised} (base {base})")
        print(f"ok  {w}: metrics and units, spans, injected miss (fail_frac {base:.4f} -> {raised:.4f})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
