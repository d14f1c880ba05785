"""The three benchmark workloads: seeded inputs, one pass of operations,
and the checks each operation's result must pass.

A workload builds its inputs once (``build``), then runs ``ops()`` in
sequence as one pass.  Every operation carries its masked input cell
count, a check against the package's promises and a deterministic report
whose bytes must not change from pass to pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

# the benchmark calls distlab through module attributes, so the traced run's
# wrappers (installed on the module bindings) see every call
from distlab import cli, distortion, distribution, fields, gallery, monotonicity, sobolev, staircase
from distlab.distortion import DistortionData
from distlab.fields import Ball, ScalarField

import checks

# (workload, operation, check) misses that are known defects of the package
# at the commit that defined the benchmark; they count as failures but do
# not make the run incorrect.  The sup-norm chain's superlevel step exceeds
# its 2% tolerance on the bump-perturbed identity at 96^3 (lhs/rhs ~1.09).
KNOWN_MISSES = {("map-3d-96", "sup_bound_chain[bump]", "a_superlevel")}


@dataclass
class Op:
    name: str
    cells: int
    call: Callable[[], object]
    check: Callable[[object], list]
    report: Callable[[object], str]
    # turns a correct result into one carrying a wrong verdict (self-test)
    tamper: Callable[[object], object] | None = None


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


# ------------------------------------------------------------------ CLI


@dataclass
class CliResult:
    code: int
    stdout: str
    files: str  # contents of side-output files the command wrote


def run_child(argv: list[str], cwd: str, env: dict) -> tuple[int, bytes, bytes, int]:
    """Run one process to completion; returns (exit code, stdout, stderr,
    its own peak RSS in KiB) from wait4 on that child alone."""
    out_path = os.path.join(cwd, ".child.out")
    err_path = os.path.join(cwd, ".child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as out, open(err_path, "rb") as err:
        return proc.returncode, out.read(), err.read(), int(usage.ru_maxrss)


def child_env(src: str) -> dict:
    """This process's environment (thread limits included) with the
    checkout's sources first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def _masked_count(path: str) -> int:
    with open(path) as fh:
        doc = json.load(fh)
    arr = doc["values"] if "values" in doc else doc["components"][0]
    return sum(v is not None for v in arr)


class CliWorkload:
    """README CLI pipelines at 256^2, one fresh ``distlab`` process per
    command (in-process through ``distlab.cli.main`` when traced)."""

    name = "cli-2d-256"

    def __init__(self, seed: int, quick: bool, workdir: str, src: str):
        rng = random.Random(seed)
        self.res = 48 if quick else 256
        self.workdir = workdir
        self.env = child_env(src)
        self.inprocess = False
        self.maxrss_kb = 0
        # the seed moves the curve grid and the sweep centre; the cost of
        # every command is independent of both
        self.tgrid = ",".join(repr(round(rng.uniform(lo, lo + 0.2), 6)) for lo in (0.1, 0.4, 0.7))
        self.center = ",".join(repr(round(rng.uniform(-0.05, 0.05), 6)) for _ in range(2))

    def _run(self, argv: list[str], outputs=()) -> CliResult:
        if self.inprocess:
            buf, err = io.StringIO(), io.StringIO()
            prev = os.getcwd()
            os.chdir(self.workdir)
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                    code = cli.main(list(argv))
            finally:
                os.chdir(prev)
            stdout = buf.getvalue()
        else:
            code, out, _, rss = run_child([sys.executable, "-m", "distlab.cli", *argv], self.workdir, self.env)
            stdout = out.decode()
            self.maxrss_kb = max(self.maxrss_kb, rss)
        files = ""
        for name in outputs:
            with open(os.path.join(self.workdir, name)) as fh:
                files += fh.read()
        return CliResult(code, stdout, files)

    def build(self) -> None:
        """The field writes: radial_log with its K and Sigma, and the cone."""
        r = str(self.res)
        for argv in (
            ["gallery", "--export", "radial_log", "--resolution", r, "--with-data", "--out", "rl.json"],
            ["gallery", "--export", "cone", "--resolution", r, "--out", "cone.json"],
        ):
            res = self._run(argv)
            if res.code != 0:
                raise RuntimeError(f"set-up command failed ({res.code}): distlab {' '.join(argv)}")

    def ops(self) -> list[Op]:
        rl, cone = (_masked_count(os.path.join(self.workdir, f)) for f in ("rl.json", "cone.json"))

        def op(name, argv, cells, check, outputs=(), tamper=None):
            return Op(
                name,
                cells,
                lambda: self._run(argv, outputs),
                lambda res: _cli_check(res, check),
                lambda res: f"{res.code}\n{res.stdout}{res.files}",
                tamper,
            )

        return [
            op("gallery --list", ["gallery", "--list"], 0, lambda d: [] if d["examples"] else [("list", "empty")]),
            op(
                "analyze rl --kfield --sigmafield",
                ["analyze", "rl.json", "--kfield", "rl.k.json", "--sigmafield", "rl.sigma.json",
                 "--p", "4", "--q", "4", "--rel-tol", "0.03"],
                rl,
                lambda d: checks.zero_violations("analytic_data", d["violation_count"]),
            ),
            op(
                "analyze rl (minimal defect)",
                ["analyze", "rl.json", "--p", "4", "--q", "4", "--rel-tol", "0.03"],
                rl,
                lambda d: checks.zero_violations("minimal_defect", d["violation_count"]),
            ),
            op(
                "sobolev cone --check superlevel",
                ["sobolev", "cone.json", "--check", "superlevel"],
                cone,
                _sobolev_doc,
                tamper=_flip_cli_holds,
            ),
            op("sobolev cone", ["sobolev", "cone.json"], cone, _sobolev_doc),
            op(
                "distribution cone --tgrid --curves-out",
                ["distribution", "cone.json", "--tgrid", self.tgrid, "--curves-out", "curves.csv"],
                cone,
                _distribution_doc,
                outputs=("curves.csv",),
            ),
            op(
                "staircase cone --format csv",
                ["staircase", "cone.json", "--gamma", "0.5", "--epsilon", "0.4", "--format", "csv"],
                cone,
                None,
            ),
            op(
                "monotonicity cone (sweep)",
                ["monotonicity", "cone.json", f"--center={self.center}", "--radii", "0.1,0.2,0.3,0.4"],
                cone,
                _sweep_doc,
            ),
            op(
                "monotonicity rl --chain",
                ["monotonicity", "rl.json", "--chain", "--center", "0,0", "--chain-ball", "0.3",
                 "--p", "4", "--q", "4"],
                rl,
                lambda d: checks.chain_ledger(d, nontrivial=False),
            ),
            op(
                "modulus --example radial_log",
                ["modulus", "--example", "radial_log", "--center", "0,0",
                 "--radii", "1e-6,1e-5,1e-4,1e-3,1e-2"],
                0,
                lambda d: checks.modulus_curve([(c["r"], c["omega"]) for c in d["curve"]], exact_dim=2),
            ),
            op(
                "modulus rl",
                ["modulus", "rl.json", "--center", "0,0", "--radii", "0.01,0.02,0.05,0.1,0.2"],
                rl,
                lambda d: checks.modulus_curve([(c["r"], c["omega"]) for c in d["curve"]]),
            ),
        ]


def _cli_check(res: CliResult, check) -> list:
    if res.code != 0:
        return [("exit_code", f"exit code {res.code}")]
    if check is None:
        return _staircase_csv(res.stdout)
    return check(json.loads(res.stdout))


def _flip_cli_holds(res: CliResult) -> CliResult:
    return dataclasses.replace(res, stdout=res.stdout.replace('"holds": true', '"holds": false', 1))


def _sobolev_doc(doc: dict) -> list:
    misses = []
    for c in doc["checks"]:
        misses += checks.sobolev_report(c)
    return misses


def _distribution_doc(doc: dict) -> list:
    cav = doc["cavalieri"]
    misses = checks.cavalieri(cav["integral"], cav["area_upper"], cav["area_lower"], cav["holds"])
    for b in doc["level_bounds"]:
        misses += checks.level_bound(b["a"], b["lower_set_measure"], b["upper_set_measure"], b["holds"])
    for kind, key in (("neg", "neg_power_integrals"), ("pos", "pos_power_integrals")):
        for entry in doc[key]:
            for which in ("upper", "lower"):
                misses += checks.power_integral(f"{kind}_{which}", entry[which], checks.POWER_RELATIONS[kind, which])
    return misses


def _staircase_csv(text: str) -> list:
    """The gap verdict is the exit code; the rows must be a staircase."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    ts = [float(r[1]) for r in rows]
    fs = [float(r[2]) for r in rows]
    if len(rows) < 2 or any(b <= a for a, b in zip(ts, ts[1:])) or any(b < a for a, b in zip(fs, fs[1:])):
        return [("staircase", "breakpoints not increasing or values not monotone")]
    return []


def _sweep_doc(doc: dict) -> list:
    misses = checks.finite_nonnegative("awm_defect", [d["defect"] for d in doc["defects"]])
    misses += checks.finite_nonnegative("osc_integral", [doc["osc_integral"]["value"]])
    return misses


# ------------------------------------------------------------ 3-D maps


def _bump_evaluator(center, amplitude, radius=0.5):
    c = np.asarray(center, dtype=float)

    def bump(p):
        r2 = ((p - c) ** 2).sum(axis=-1) / radius**2
        out = np.zeros(len(p))
        inside = r2 < 1.0
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    return bump


class MapWorkload:
    """Library pipeline on 3-D maps at 96^3: the README analyze step on the
    radial-log map and the estimate chain on a bump-perturbed identity."""

    name = "map-3d-96"

    def __init__(self, seed: int, quick: bool, workdir: str, src: str):
        rng = random.Random(seed)
        self.res = 32 if quick else 96
        self.bump_center = tuple(rng.uniform(-0.08, 0.08) for _ in range(3))
        self.bump_amplitude = rng.uniform(0.85, 1.15)
        self.radii = [0.02, 0.05, 0.1, 0.2, 0.3]

    def build(self) -> None:
        rl = gallery.make_example("radial_log", dim=3)
        self.rl_map = gallery.sample_map(rl, self.res)
        K = gallery.sample_analytic_k(rl, self.rl_map.grid, clamped=True)
        S = gallery.sample_analytic_sigma(rl, self.rl_map.grid)
        self.rl_data = DistortionData(K, S, 4.0, 4.0)
        comps = self.rl_map.components
        self.rl_evaluator = lambda pts: np.stack([fields.interpolate(c, pts) for c in comps], axis=-1)

        # the chain-replay construction lifted to 3-D: identity plus a bump
        # on the first coordinate, chain ball of radius 0.75, K = 2
        ident = gallery.sample_map(gallery.make_example("identity", dim=3), self.res)
        grid = ident.grid
        bump = fields.sample(grid, _bump_evaluator(self.bump_center, self.bump_amplitude))
        x0 = ident.component(0)
        self.bump_map = ident.with_component(0, ScalarField(grid, x0.data + bump.data))
        self.ball = Ball((0.0, 0.0, 0.0), 0.75)
        self.sub = self.bump_map.restrict(self.ball)
        self.K2 = ScalarField.from_values(
            self.sub.grid, np.full(self.sub.grid.cell_count, 2.0), nonnegative=True
        )

    def ops(self) -> list[Op]:
        rl_cells = self.rl_map.grid.cell_count
        sub_cells = self.sub.grid.cell_count
        box_cells = self.bump_map.grid.cell_count
        state = {}

        def residual():
            state["S2"] = distortion.residual_defect(self.sub, self.K2)
            state["data2"] = DistortionData(self.K2, state["S2"], 4.0, 4.0)
            return state["S2"]

        def extrema():
            state["ext"] = monotonicity.ball_extrema(self.bump_map.component(0), self.ball)
            return state["ext"]

        def extrema_check(e):
            misses = []
            if not (e.boundary_min <= e.boundary_max and e.interior_min <= e.interior_max):
                misses.append(("ball_extrema", f"extrema out of order: {e!r}"))
            if not e.interior_max > e.boundary_max:
                misses.append(("ball_extrema", "no interior excess: the chain would be trivial"))
            return misses

        return [
            Op(
                "verify_distortion[radial_log]",
                rl_cells,
                lambda: distortion.verify_distortion(self.rl_map, self.rl_data, rel_tol=3e-2),
                lambda rep: checks.zero_violations("analytic_data", rep.violation_count)
                + ([] if rep.checked_cells == rl_cells else [("cells", f"checked {rep.checked_cells}")]),
                lambda rep: _dumps(rep.as_dict()),
                lambda rep: dataclasses.replace(rep, violation_count=rep.violation_count + 1),
            ),
            Op(
                "residual_defect[bump]",
                sub_cells,
                residual,
                lambda S: checks.finite_nonnegative("residual_defect", [S.min(), S.max()]),
                lambda S: _dumps([S.min(), S.max(), float(S.values.sum())]),
            ),
            Op(
                "verify_distortion[bump]",
                sub_cells,
                lambda: distortion.verify_distortion(self.sub, state["data2"]),
                lambda rep: checks.zero_violations("minimal_defect", rep.violation_count),
                lambda rep: _dumps(rep.as_dict()),
            ),
            Op(
                "ball_extrema[bump]",
                box_cells,
                extrema,
                extrema_check,
                lambda e: _dumps(dataclasses.asdict(e)),
            ),
            Op(
                "sup_bound_chain[bump]",
                sub_cells,
                lambda: monotonicity.sup_bound_chain(self.sub, state["data2"], 0, state["ext"].boundary_max, "above"),
                lambda led: checks.chain_ledger(led.as_dict(), nontrivial=True),
                lambda led: _dumps(led.as_dict()),
            ),
            Op(
                "modulus_curve[radial_log]",
                rl_cells,
                lambda: monotonicity.modulus_curve(self.rl_evaluator, (0.0, 0.0, 0.0), self.radii, 64),
                checks.modulus_curve,
                _dumps,
            ),
        ]


# ------------------------------------------------------- 2-D scalar field


def _stretched_cone(center, axes, angle):
    """1 - |A (p - c)| cut at 0: an off-centre cone with elliptic level sets."""
    c = np.asarray(center, dtype=float)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    scale = 1.0 / np.asarray(axes, dtype=float)

    def ev(p):
        q = ((p - c) @ rot.T) * scale
        return np.maximum(0.0, 1.0 - np.sqrt((q**2).sum(axis=-1)))

    return ev


class ScalarWorkload:
    """Library pipeline on a tie-free nonnegative 1024^2 field: every check
    of ``distlab distribution``, the Sobolev checks, the staircase and the
    almost-weak-monotonicity sweep."""

    name = "scalar-2d-1024"

    # support area pi * AXIS_PRODUCT is fixed, so the number of distinct
    # levels (and with it the cost) barely depends on the seed
    AXIS_PRODUCT = 0.729

    def __init__(self, seed: int, quick: bool, workdir: str, src: str):
        rng = random.Random(seed)
        self.res = 128 if quick else 1024
        self.center = (rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04))
        a = rng.uniform(0.86, 0.90)
        self.axes = (a, self.AXIS_PRODUCT / a)
        self.angle = rng.uniform(0.0, math.pi)
        self.radii = [0.1, 0.2, 0.3, 0.4]

    def build(self) -> None:
        # the cone example supplies the unit-ball grid the field lives on
        grid = gallery.sample_map(gallery.make_example("cone"), self.res).grid
        raw = fields.sample(grid, _stretched_cone(self.center, self.axes, self.angle))
        self.field = ScalarField(grid, raw.data, nonnegative=True)

    def ops(self) -> list[Op]:
        f = self.field
        cells = f.grid.cell_count
        state = {}

        def dist():
            state["dist"] = distribution.upper_distribution(f)
            return state["dist"]

        def level_bounds():
            total = state["dist"].total
            return distribution.verify_level_bounds(f, [0.0, total / 4, total / 2, 3 * total / 4, total])

        def level_check(reports):
            misses = []
            for b in reports:
                misses += checks.level_bound(b.a, b.lower_set_measure, b.upper_set_measure, b.holds)
            return misses

        def inverse():
            state["F"] = staircase.inverse_distribution_fn(f, 0.5)
            return state["F"]

        def stair():
            state["stair"] = staircase.staircase_approx(state["F"], 0.4, 64)
            return state["stair"]

        def stair_check(res):
            t = list(res.breakpoints)
            ok = len(t) >= 2 and all(b > a for a, b in zip(t, t[1:]))
            return [] if ok else [("staircase", "breakpoints not increasing")]

        def power(kind, x, which):
            fn = f"{kind}_power_integral"
            return Op(
                f"{fn}[{x},{which}]",
                cells,
                lambda: getattr(distribution, fn)(f, x, which),
                lambda r: checks.power_integral(f"{kind}_{which}", r.as_dict(), checks.POWER_RELATIONS[kind, which]),
                lambda r: _dumps(r.as_dict()),
            )

        def inequality(fn, *args, tamper=None):
            return Op(
                fn,
                cells,
                lambda: getattr(sobolev, fn)(f, *args),
                lambda r: checks.sobolev_report(r.as_dict()),
                lambda r: _dumps(r.as_dict()),
                tamper,
            )

        ops = [
            Op(
                "upper_distribution",
                cells,
                dist,
                lambda d: [] if d.total_count == cells else [("total", f"{d.total_count} of {cells} cells")],
                lambda d: _dumps([d.total, len(d.levels)]),
            ),
            Op(
                "cavalieri_residual",
                cells,
                lambda: distribution.cavalieri_residual(f),
                lambda r: checks.cavalieri(*r),
                _dumps,
            ),
            Op(
                "verify_level_bounds",
                cells,
                level_bounds,
                level_check,
                lambda reps: _dumps([dataclasses.asdict(b) for b in reps]),
            ),
        ]
        for gamma in (0.25, 0.5, 0.75):
            ops += [power("neg", gamma, w) for w in ("upper", "lower")]
        for r in (0.5, 1.0, 2.0):
            ops += [power("pos", r, w) for w in ("upper", "lower")]
        ops += [
            inequality("sharp_sobolev_check"),
            inequality(
                "superlevel_check",
                tamper=lambda rep: dataclasses.replace(rep, holds=not rep.holds),
            ),
            inequality("band_bound_check", 0.25, 0.5),
            Op("inverse_distribution_fn", cells, inverse, lambda F: [], lambda F: _dumps(F(0.5))),
            Op("staircase_approx", 0, stair, stair_check, lambda s: _dumps([s.s, s.case, list(map(float, s.breakpoints))])),
            Op(
                "max_gap_deviation",
                0,
                lambda: staircase.max_gap_deviation(state["F"], state["stair"]),
                lambda dev: checks.gap_property(dev, 0.4),
                _dumps,
            ),
        ]
        for r in self.radii:
            ops.append(
                Op(
                    f"awm_defect[{r}]",
                    cells,
                    lambda r=r: monotonicity.awm_defect(f, Ball(self.center, r)),
                    lambda d: checks.finite_nonnegative("awm_defect", [d]),
                    _dumps,
                )
            )
        ops += [
            Op(
                "fit_defect_law",
                cells,
                lambda: monotonicity.fit_defect_law(f, self.center, self.radii),
                lambda fit: checks.finite_nonnegative("defect_fit", [fit.C, fit.residual])
                + ([] if math.isfinite(fit.alpha) else [("defect_fit", "alpha not finite")]),
                lambda fit: _dumps(fit.as_dict()),
            ),
            Op(
                "dyadic_osc_integral",
                cells,
                lambda: monotonicity.dyadic_osc_integral(f, self.center, max(self.radii), 6),
                lambda v: checks.finite_nonnegative("osc_integral", [v]),
                _dumps,
            ),
        ]
        return ops


WORKLOADS = {w.name: w for w in (CliWorkload, MapWorkload, ScalarWorkload)}
