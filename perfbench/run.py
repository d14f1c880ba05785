#!/usr/bin/env python3
"""distlab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports distlab from the
checkout's ``src/`` and nothing else.  Each run is a closed loop: one
client, operations in sequence, passes back to back for ``--seconds``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it wraps the public functions of every layer and reports per-layer self
times, call counts and byte counts.  Every operation's output is checked
against the package's promises; misses count as failures and never stop
the run.  The last line of stdout is the result object.

``--quick`` runs at tiny resolutions (used by ``perfbench/selftest.py``);
``--inject-miss`` plants one wrong verdict per pass to prove the checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

# numpy here links a multi-threaded OpenBLAS: pin this process and every
# child to one thread before numpy is first imported
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("cli-2d-256", "map-3d-96", "scalar-2d-1024")

SETUP_REPEATS = 5  # fresh-process set-ups per run; setup_s is their median
IMPORT_REPEATS = 5  # fresh interpreters per side for cli.import_s
MIN_PASSES = 3

END_TO_END_UNITS = {
    "pass_s": "s",
    "pass_tail_s": "s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}


# spans and counters only the set-up produces: their metrics come from the
# one traced set-up; every other per-layer metric is a median over passes
SETUP_KEYS = {
    "gallery.sample_map",
    "gallery.sample_analytic_k",
    "gallery.sample_analytic_sigma",
    "fields.sample",
    "fieldio.write_field",
    "fieldio.bytes_written",
}


def _layer_metrics() -> list[tuple[str, str, str, str]]:
    """(metric, unit, kind, key) for every per-layer metric; ``kind`` is
    self (span self seconds), calls (span count), counter or special."""
    out = [
        ("cli.import_s", "s", "special", "import"),
        ("cli.main.self_s", "s", "self", "cli.main"),
        ("cli.report_bytes", "B", "counter", "cli.report_bytes"),
        ("fieldio.read_field.self_s", "s", "self", "fieldio.read_field"),
        ("fieldio.read_field.calls", "count", "calls", "fieldio.read_field"),
        ("fieldio.write_field.self_s", "s", "self", "fieldio.write_field"),
        ("fieldio.bytes_read", "B", "counter", "fieldio.bytes_read"),
        ("fieldio.bytes_written", "B", "counter", "fieldio.bytes_written"),
    ]
    for span in ("gallery.sample_map", "gallery.sample_analytic_k", "gallery.sample_analytic_sigma", "fields.sample"):
        out.append((f"{span}.self_s", "s", "self", span))
    for span in (
        "fields.differential",
        "fields.op_norm",
        "fields.jacobian",
        "fields.grad_norm",
        "fields.interpolate",
        "distortion.verify_distortion",
        "distortion.residual_defect",
        "distortion.pointwise_distortion",
        "distribution.upper_distribution",
    ):
        out += [(f"{span}.self_s", "s", "self", span), (f"{span}.calls", "count", "calls", span)]
    for span in (
        "distribution.neg_power_integral",
        "distribution.pos_power_integral",
        "distribution.verify_level_bounds",
        "distribution.cavalieri_residual",
        "staircase.staircase_approx",
        "staircase.max_gap_deviation",
        "sobolev.superlevel_check",
        "sobolev.sharp_sobolev_check",
        "sobolev.band_bound_check",
        "monotonicity.sup_bound_chain",
        "monotonicity.ball_extrema",
        "monotonicity.modulus_curve",
        "monotonicity.fit_defect_law",
        "monotonicity.dyadic_osc_integral",
    ):
        out.append((f"{span}.self_s", "s", "self", span))
    out.append(("trace.overhead_frac", "1", "special", "overhead"))
    return out


LAYER_METRICS = _layer_metrics()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def reference_loop() -> float:
    """A fixed numpy workload timed before and after the passes: not a
    metric, but it shows drift of the whole machine within a run."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal(1 << 18)
    t0 = time.perf_counter()
    for _ in range(48):
        np.sort(a)
        float(np.sqrt(np.abs(a)).sum())
        float(a @ a)
    return time.perf_counter() - t0


# ------------------------------------------------------------------ passes


def run_pass(ops, inject: bool, tracer=None) -> list[tuple[list, str | None]]:
    """Run every operation once, in order; a miss or an exception is
    recorded against its operation and never stops the pass."""
    out = []
    for op in ops:
        try:
            result = op.call()
            if inject and op.tamper is not None:
                result = op.tamper(result)
            if tracer is not None and hasattr(result, "stdout"):
                tracer.count("cli.report_bytes", len(result.stdout.encode()))
            out.append((op.check(result), op.report(result)))
        except Exception as exc:  # a failing operation is counted, not fatal
            out.append(([("raised", f"{type(exc).__name__}: {exc}")], None))
    return out


class Ledger:
    """Failure accounting over the timed passes of one run."""

    def __init__(self, workload: str, ops, reference):
        from workloads import KNOWN_MISSES

        self.known_keys = {(op, key) for w, op, key in KNOWN_MISSES if w == workload}
        self.ops = ops
        self.reference = [report for _, report in reference]
        self.attempted = 0
        self.failed = 0
        self.known: dict[str, int] = {}
        self.unknown: dict[str, int] = {}

    def add(self, results) -> None:
        for op, ref, (misses, report) in zip(self.ops, self.reference, results):
            self.attempted += 1
            if report is None or report != ref:
                misses = misses + [("report_bytes", "differ from the first pass")]
            if misses:
                self.failed += 1
            for key, detail in misses:
                bucket = self.known if (op.name, key) in self.known_keys else self.unknown
                label = f"{op.name}: {key} ({detail})"
                bucket[label] = bucket.get(label, 0) + 1

    @property
    def correct(self) -> bool:
        return not self.unknown

    def lines(self) -> list[str]:
        frac = self.failed / self.attempted
        out = [f"  fail_frac     {frac:.6f} 1   ({self.failed} failed / {self.attempted} attempted operations)"]
        for label, n in self.known.items():
            out.append(f"  known miss    {label} x{n}")
        for label, n in self.unknown.items():
            out.append(f"  MISS          {label} x{n}")
        return out


def timed_loop(run_one, seconds: float, min_passes: int) -> list[float]:
    """Closed loop: passes back to back until the next one would end past
    the deadline (judged by half the median pass so far)."""
    times = []
    start = time.perf_counter()
    while True:
        times.append(run_one())
        elapsed = time.perf_counter() - start
        if len(times) >= min_passes and elapsed + 0.5 * statistics.median(times) >= seconds:
            return times


# ------------------------------------------------------------------- runs


def _probe_setup(args) -> float:
    """Wall time of one fresh-process set-up of the workload."""
    from workloads import child_env, run_child

    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    if args.quick:
        argv.append("--quick")
    t0 = time.perf_counter()
    code, _, err, _ = run_child(argv, args.workdir, child_env(SRC))
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up probe failed ({code}): {err.decode()[-2000:]}")
    return elapsed


def _measure_import(args, repeats: int) -> float:
    """Median fresh-interpreter time of ``import distlab.cli`` net of a
    bare interpreter, alternating the two."""
    from workloads import child_env, run_child

    env = child_env(SRC)
    bare, full = [], []
    for _ in range(repeats):
        for argv, acc in (([sys.executable, "-c", "pass"], bare), ([sys.executable, "-c", "import distlab.cli"], full)):
            t0 = time.perf_counter()
            code, _, err, _ = run_child(argv, args.workdir, env)
            acc.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"import probe failed: {err.decode()[-2000:]}")
    return statistics.median(full) - statistics.median(bare)


def run_untraced(w, args, out: list[str]):
    from spans import resolve_targets

    _, missing = resolve_targets()
    if missing:
        raise SystemExit(f"perfbench: traced functions missing from distlab: {', '.join(missing)}")

    repeats = 1 if args.quick else SETUP_REPEATS
    _measure_import(args, 1)  # warms the byte-code and file caches, untimed
    if w.name == "cli-2d-256":
        # set-up is the two gallery exports, each a fresh distlab process
        setups = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            w.build()
            setups.append(time.perf_counter() - t0)
    else:
        setups = [_probe_setup(args) for _ in range(repeats)]
        w.build()
    ops = w.ops()

    ref_before = reference_loop()
    gc.collect()
    if w.name == "cli-2d-256":
        w.maxrss_kb = 0  # from here on, the peak RSS of the pass children only
    reference = run_pass(ops, args.inject_miss)  # warm-up, discarded
    ledger = Ledger(w.name, ops, reference)

    def one():
        t0 = time.perf_counter()
        results = run_pass(ops, args.inject_miss)
        elapsed = time.perf_counter() - t0
        ledger.add(results)
        return elapsed

    times = timed_loop(one, args.seconds, 1 if args.quick else MIN_PASSES)
    ref_after = reference_loop()

    if w.name == "cli-2d-256":
        peak_mb = w.maxrss_kb / 1024.0
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = statistics.median(times)
    # the highest percentile with ten passes beyond it is a tail only from
    # about 100 passes on; a run holds 4 to 12, so the tail is the slowest
    tail_s = max(times)
    cells = sum(op.cells for op in ops)
    metrics = {
        "pass_s": pass_s,
        "pass_tail_s": tail_s,
        "cells_per_s": cells / pass_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
        "ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }

    q = _quartiles(times)
    sq = _quartiles(setups)
    out.append(f"  pass_s        {pass_s:.6f} s   quartiles {q[0]:.6f} {q[1]:.6f} {q[2]:.6f}  (n={len(times)} passes)")
    out.append(f"  pass_tail_s   {tail_s:.6f} s   the slowest of {len(times)} passes")
    out.append(f"  cells_per_s   {cells / pass_s:.1f} 1/s   ({cells} masked input cells per pass)")
    out.append(f"  setup_s       {metrics['setup_s']:.6f} s   quartiles {sq[0]:.6f} {sq[1]:.6f} {sq[2]:.6f}  (n={len(setups)} fresh set-ups)")
    out.append(f"  peak_rss_mb   {peak_mb:.3f} MB" + ("   (max over pass child processes)" if w.name == "cli-2d-256" else ""))
    out.append(f"  ok_frac       {metrics['ok_frac']:.6f} 1")
    out += ledger.lines()
    out.append(f"  reference loop (diagnostic): {ref_before:.6f} s before, {ref_after:.6f} s after")
    return metrics, ledger


def run_traced(w, args, out: list[str]):
    from spans import Tracer

    tracer = Tracer()
    if tracer.missing:
        out.append(f"  absent (function missing from distlab): {', '.join(tracer.missing)}")
    if w.name == "cli-2d-256":
        w.inprocess = True

    tracer.install()
    setup_root = tracer.open("setup")
    w.build()
    tracer.close(setup_root)
    tracer.uninstall()
    ops = w.ops()
    import_s = _measure_import(args, 1 if args.quick else IMPORT_REPEATS)

    gc.collect()
    reference = run_pass(ops, args.inject_miss)  # warm-up, discarded
    ledger = Ledger(w.name, ops, reference)
    plain, traced, roots = [], [], []

    def one():
        # an untraced and a traced pass back to back: the overhead ratio
        # compares neighbours, so drift of the machine cancels
        t0 = time.perf_counter()
        ledger.add(run_pass(ops, args.inject_miss))
        plain.append(time.perf_counter() - t0)
        tracer.install()
        t0 = time.perf_counter()
        root = tracer.open("pass")
        results = run_pass(ops, args.inject_miss, tracer)
        tracer.close(root)
        wall = time.perf_counter() - t0
        tracer.uninstall()
        ledger.add(results)
        traced.append(wall)
        roots.append((root, wall))
        return plain[-1] + wall

    timed_loop(one, args.seconds, 1 if args.quick else 2)

    setup_self = tracer.self_times(setup_root)
    setup_counts = tracer.counters(setup_root)
    per_pass = [tracer.self_times(r) for r, _ in roots]
    per_pass_counts = [tracer.counters(r) for r, _ in roots]
    absent = set(tracer.missing)
    metrics = {}
    for name, unit, kind, key in LAYER_METRICS:
        if kind == "special":
            value = import_s if key == "import" else statistics.median(traced) / statistics.median(plain) - 1.0
        elif key in absent:
            continue
        elif kind == "counter" and key in SETUP_KEYS:
            value = setup_counts.get(key, 0.0)
        elif kind == "counter":
            value = statistics.median(c.get(key, 0.0) for c in per_pass_counts)
        else:
            i = 0 if kind == "self" else 1
            if key in SETUP_KEYS:
                value = setup_self.get(key, [0.0, 0])[i]
            else:
                value = statistics.median(p.get(key, [0.0, 0])[i] for p in per_pass)
        metrics[name] = value
        out.append(f"  {name:<38} {value:.6g} {unit}" + ("   (set-up)" if key in SETUP_KEYS else ""))
    out.append(f"  ({len(roots)} traced and {len(plain)} untraced passes; set-up traced once)")
    out += ledger.lines()

    spans_path = os.path.join(ROOT, ".perfbench_out", f"spans-{w.name}-seed{args.seed}.json")
    tracer.dump(spans_path, {"setup_root": setup_root, "passes": [{"root": r, "wall_s": wall} for r, wall in roots]})
    out.append(f"  spans written to {os.path.relpath(spans_path, ROOT)}")
    return metrics, ledger


# -------------------------------------------------------------------- main


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true", help="tiny resolutions, one pass (self-test)")
    ap.add_argument("--inject-miss", action="store_true", help="plant a wrong verdict (self-test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "distlab", "__init__.py")):
        sys.stderr.write(f"perfbench: no distlab sources under {SRC}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, SRC)
    import distlab

    if os.path.dirname(os.path.abspath(distlab.__file__)) != os.path.join(SRC, "distlab"):
        sys.stderr.write(f"perfbench: imported distlab from {distlab.__file__}, not from {SRC}\n")
        return 2
    from workloads import WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, args.quick, None, SRC).build()
        return 0

    work_root = os.path.join(ROOT, ".perfbench_work")
    args.workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(args.workdir, exist_ok=True)
    try:
        w = WORKLOADS[args.workload](args.seed, args.quick, args.workdir, SRC)
        out = [f"workload {args.workload} seed {args.seed} trace {args.trace}"
               + (" quick" if args.quick else "") + (" inject-miss" if args.inject_miss else "")]
        runner = run_traced if args.trace else run_untraced
        metrics, ledger = runner(w, args, out)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)

    units = END_TO_END_UNITS if not args.trace else {m: u for m, u, _, _ in LAYER_METRICS}
    print("\n".join(out))
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
