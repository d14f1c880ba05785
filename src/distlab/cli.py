"""Command-line front end: field I/O, subcommand dispatch, report emission.

Exit codes: 0 on success, 1 on usage or I/O errors, 2 when a
claimed-always inequality is violated (distribution laws, staircase gap
property, Sobolev checks at their pinned tolerance, or a failing estimate
chain).  Reports are deterministic: identical invocations produce
byte-identical documents (fixed key order, no timestamps).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .distortion import (
    DistortionData,
    residual_defect,
    verify_distortion,
    violations_csv,
)
from .distribution import (
    _REL_SLACK,
    cavalieri_residual,
    curves_csv,
    distribution_csv,
    neg_power_integral,
    pos_power_integral,
    upper_distribution,
    verify_level_bounds,
)
from .fieldio import _check_writable, read_field, write_field
from .fields import Ball, Grid, ScalarField, VectorMap, _check_radius, _check_samples, _same_lattice, interpolate
from .gallery import (
    list_examples,
    make_example,
    sample_analytic_k,
    sample_analytic_sigma,
    sample_map,
)
from .monotonicity import (
    _SUPPORT_STEPS,
    _chain_gamma,
    _check_levels,
    awm_defect,
    ball_extrema,
    dyadic_osc_integral,
    fit_defect_law,
    log_power_fit,
    modulus_curve,
    sup_bound_chain,
)
from .sobolev import band_bound_check, sharp_sobolev_check, superlevel_check
from .staircase import (
    _check_gamma,
    _check_ladder,
    inverse_distribution_fn,
    max_gap_deviation,
    staircase_approx,
    staircase_csv,
)

__all__ = ["CommandPlan", "UsageError", "parse_command", "execute", "main"]


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class CommandPlan:
    subcommand: str
    options: dict
    out: str | None = None
    fmt: str = "json"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _number(text: str) -> float:
    """A finite number (``type=float`` would also take nan and inf)."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _nonnegative(text: str) -> float:
    """A finite number >= 0."""
    if (x := _number(text)) < 0:
        raise argparse.ArgumentTypeError(f"not a number >= 0: {text!r}")
    return x


def _floats(text: str) -> list[float]:
    try:
        vals = [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated list of numbers, got {text!r}") from exc
    if not all(map(math.isfinite, vals)):
        raise UsageError(f"expected finite numbers, got {text!r}")
    return vals


def _exponent(text: str) -> float:
    try:
        p = float(text)
    except ValueError:
        p = math.nan  # rejected below, as a nan that float() reads is
    if math.isnan(p):
        raise UsageError(f"expected a number or 'inf', got {text!r}")
    return p


def _params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise UsageError(f"parameters look like key=value, got {item!r}")
        key, val = item.split("=", 1)
        if key.strip() in out:
            raise UsageError(f"parameter {key.strip()!r} is given more than once")
        try:
            out[key.strip()] = float(val)
        except ValueError as exc:
            raise UsageError(f"parameter {key!r} needs a numeric value") from exc
        if not math.isfinite(out[key.strip()]):
            raise UsageError(f"parameter {key!r} needs a finite value, got {val!r}")
    return out


def _build_parser() -> _Parser:
    parser = _Parser(prog="distlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"distlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand")

    def common(p):
        p.add_argument("--out", default=None, help="write the report here (default stdout)")

    g = sub.add_parser("gallery", help="list or export catalog examples")
    g.add_argument("--list", action="store_true")
    g.add_argument("--export", metavar="NAME")
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--params", type=str, default="")
    g.add_argument("--resolution", type=int, default=128)
    g.add_argument("--with-data", action="store_true", help="also export analytic K and Sigma fields")
    common(g)

    a = sub.add_parser("analyze", help="cellwise distortion-inequality report for a map")
    a.add_argument("map", help="map field file (components)")
    a.add_argument("--p", type=_exponent, default=math.inf)
    a.add_argument("--q", type=_exponent, default=math.inf)
    a.add_argument("--kfield", default=None, help="scalar field file with K (default: K = 1)")
    a.add_argument("--sigmafield", default=None, help="scalar field file with Sigma (default: minimal defect)")
    a.add_argument("--y0", type=_floats, default=None, help="target point for a value-of-finite-distortion check")
    a.add_argument("--rel-tol", type=_nonnegative, default=None)
    a.add_argument("--violations-out", default=None)
    common(a)

    s = sub.add_parser("sobolev", help="sharp, superlevel and band inequality checks")
    s.add_argument("field", help="scalar field file")
    s.add_argument("--check", choices=("sharp", "superlevel", "band", "all"), default="all")
    s.add_argument("--band", type=_floats, default=None, metavar="A,B")
    common(s)

    d = sub.add_parser("distribution", help="distribution-function laws and exports")
    d.add_argument("field", help="scalar field file (nonnegative)")
    d.add_argument("--gammas", type=_floats, default=[0.25, 0.5, 0.75])
    d.add_argument("--powers", type=_floats, default=[0.5, 1.0, 2.0])
    d.add_argument("--avalues", type=_floats, default=None)
    d.add_argument("--tgrid", type=_floats, default=None)
    d.add_argument("--curves-out", default=None)
    d.add_argument("--levels-out", default=None, help="write the (level, mass) CSV here")
    common(d)

    t = sub.add_parser("staircase", help="staircase of the inverse distribution power")
    t.add_argument("field", help="scalar field file (nonnegative)")
    t.add_argument("--gamma", type=_number, required=True)
    t.add_argument("--epsilon", type=_number, required=True)
    t.add_argument("--max-steps", type=int, default=64)
    t.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    common(t)

    m = sub.add_parser("monotonicity", help="defect sweep, oscillation integral, estimate chain")
    m.add_argument("field", help="scalar field file (sweep) or map file (--chain)")
    m.add_argument("--center", type=_floats, default=None)
    m.add_argument("--radii", type=_floats, default=None)
    m.add_argument("--samples", type=int, default=None)
    m.add_argument("--osc-levels", type=int, default=None)
    m.add_argument("--osc-R", type=_number, default=None)
    m.add_argument("--chain", action="store_true")
    m.add_argument("--chain-ball", type=_number, default=None, help="radius of the chain ball around --center")
    m.add_argument("--component", type=int, default=None)
    m.add_argument("--level", type=_number, default=None, help="truncation level (default: sphere-trace extremum)")
    m.add_argument("--mode", choices=("above", "below"), default=None)
    m.add_argument("--p", type=_exponent, default=None)
    m.add_argument("--q", type=_exponent, default=None)
    m.add_argument("--gamma", type=_number, default=None)
    m.add_argument("--kfield", default=None)
    m.add_argument("--sigmafield", default=None)
    m.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json", help="csv needs --chain")
    common(m)

    o = sub.add_parser("modulus", help="local modulus of continuity and log-power fit")
    o.add_argument("field", nargs="?", default=None, help="map file (interpolated evaluator)")
    o.add_argument("--example", default=None, help="use an analytic catalog evaluator instead")
    o.add_argument("--dim", type=int, default=2)
    o.add_argument("--params", type=str, default="")
    o.add_argument("--center", type=_floats, default=None)
    o.add_argument("--radii", type=_floats, required=True)
    o.add_argument("--samples", type=int, default=64)
    common(o)

    return parser


# by --chain: the monotonicity options of the other mode, and why they are refused
_OTHER_MODE = {
    False: (("chain_ball", "component", "level", "mode", "p", "q", "gamma", "kfield", "sigmafield"),
            "needs --chain; the defect sweep does not use it"),
    True: (("radii", "osc_levels", "osc_R"), "acts only in the defect sweep; --chain does not use it"),
}
_MODE_DEFAULTS = {"component": 0, "mode": "above", "p": 4.0, "q": 4.0, "osc_levels": 6}


def parse_command(argv: list[str]) -> CommandPlan:
    """Validate argv into a plan; raises UsageError on bad input."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand is None:
        raise UsageError("a subcommand is required (see --help)")
    opts = vars(ns).copy()
    sub = opts.pop("subcommand")
    out = opts.pop("out", None)
    fmt = opts.pop("fmt", "json")
    if sub == "gallery" and opts["export"] is not None and out is None:
        raise UsageError("gallery --export needs --out PATH")
    if sub == "modulus" and (opts["field"] is None) == (opts["example"] is None):
        raise UsageError("modulus needs exactly one of a map file or --example NAME")
    if sub == "monotonicity" and fmt == "csv" and not opts["chain"]:
        raise UsageError("--format csv needs --chain; the defect sweep prints JSON only")
    if sub == "monotonicity":
        keys, why = _OTHER_MODE[opts["chain"]]
        if given := [key for key in keys if opts[key] is not None]:
            raise UsageError(f"--{given[0].replace('_', '-')} {why}")
        opts.update({key: v for key, v in _MODE_DEFAULTS.items() if opts[key] is None})
    if sub == "monotonicity" and opts["chain"] and opts["chain_ball"] is None:
        raise UsageError("--chain needs --chain-ball R")
    if sub == "monotonicity" and not opts["chain"] and opts["radii"] is None:
        raise UsageError("the defect sweep needs --radii a,b,c")
    try:  # the library's own checks of the values that need no file
        if sub in ("analyze", "monotonicity"):
            DistortionData.check_exponents(opts["p"], opts["q"])
        if sub == "monotonicity":  # the other mode's options are at their (valid) defaults
            _chain_gamma(opts["p"], opts["q"], opts["gamma"])
            _check_levels(opts["osc_levels"])
        if sub in ("monotonicity", "modulus") and opts["samples"] is not None:
            _check_samples(opts["samples"])
        if sub == "staircase":
            _check_gamma(opts["gamma"])
            _check_ladder(opts["epsilon"], opts["max_steps"])
        if sub in ("monotonicity", "modulus"):
            for radius in [*(opts["radii"] or ()), opts.get("osc_R"), opts.get("chain_ball")]:
                if radius is not None:
                    _check_radius(radius)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if sub == "sobolev":
        band = opts["check"] == "band" or (opts["check"] == "all" and opts["band"] is not None)
        if band and (opts["band"] is None or len(opts["band"]) != 2):
            raise UsageError("band check needs --band A,B")
        opts["band"] = opts["band"] if band else None  # None: no band check
    if sub == "distribution":
        if bad := [gamma for gamma in opts["gammas"] if not 0 < gamma < 1]:
            raise UsageError(f"--gammas entries must lie in (0, 1), got {bad[0]}")
        if bad := [r for r in opts["powers"] if r <= 0]:
            raise UsageError(f"--powers entries must be positive, got {bad[0]}")
    return CommandPlan(sub, opts, out, fmt)


def _provenance(grid=None, **extra) -> dict:
    geometry = {} if grid is None else {"resolution": list(grid.shape), "spacing": grid.spacing}
    return {"version": __version__, **geometry, **extra}


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _read(path, kind: type, nonnegative: bool = False) -> ScalarField | VectorMap:
    """The field file at ``path``, which must hold a ``kind`` (ScalarField or
    VectorMap) and, with ``nonnegative``, no negative value."""
    obj = read_field(path)
    if not isinstance(obj, kind):
        kinds = {ScalarField: "a scalar field", VectorMap: "a map"}
        payload = "values" if kind is ScalarField else "components"
        raise ValueError(f"{path}: expected {kinds[kind]} ({payload}), found {kinds[type(obj)]}")
    if nonnegative and (neg := obj.values < 0).any():
        pos = int(np.argmax(neg))
        cell = tuple(int(c) for c in np.argwhere(obj.grid.mask)[pos])
        raise ValueError(f"{path}: negative value {obj.values[pos]!r} at cell {cell}; "
                         "distribution functions need a nonnegative field")
    return obj


# ------------------------------------------------------------------ handlers


def _cmd_gallery(plan: CommandPlan) -> tuple[dict | None, int]:
    opts = plan.options
    if opts["export"] is None:
        return {"examples": list_examples(), "provenance": _provenance()}, 0
    ex = make_example(opts["export"], dim=opts["dim"], **_params(opts["params"]))
    if opts["with_data"] and (ex.analytic_k is None or ex.analytic_sigma is None):
        raise ValueError(f"example {ex.name!r} carries no analytic distortion data")
    sampled = sample_map(ex, opts["resolution"])
    files = [(plan.out, sampled)]
    if opts["with_data"]:
        base = plan.out[: -len(".json")] if plan.out.endswith(".json") else plan.out
        files += [(base + ".k.json", sample_analytic_k(ex, sampled.grid)),
                  (base + ".sigma.json", sample_analytic_sigma(ex, sampled.grid))]
    for _, obj in files:  # every file is made and checked before any is written
        _check_writable(obj)
    for path, obj in files:
        write_field(obj, path)
    sys.stdout.write(json.dumps({"written": [path for path, _ in files]}, sort_keys=True) + "\n")
    return None, 0


def _read_companion(path: str | None, grid: Grid) -> np.ndarray | None:
    """Values of a --kfield/--sigmafield file on the map's cells (None without one)."""
    if path is None:
        return None
    field = _read(path, ScalarField)
    if not _same_lattice(field.grid, grid):
        theirs, mine = ((list(g.shape), list(g.origin), g.spacing) for g in (field.grid, grid))
        raise ValueError(f"{path}: grid (shape, origin, spacing) {theirs} is not the map's {mine}")
    missing = int((grid.mask & ~field.grid.mask).sum())
    if missing:
        raise ValueError(f"{path}: no value at {missing} of the map's {grid.cell_count} cells")
    return field.data[grid.mask]


def _distortion_data(opts: dict, vm: VectorMap, cells: Grid) -> DistortionData:
    """K from --kfield (default 1) and Sigma from --sigmafield (default: the
    minimal defect for K), read at ``cells``, the map's cells on the map
    file's lattice; both files are checked before any derivative work."""
    grid = vm.grid
    kvals = _read_companion(opts["kfield"], cells)
    svals = _read_companion(opts["sigmafield"], cells)
    K = ScalarField.from_values(grid, np.ones(grid.cell_count) if kvals is None else kvals, nonnegative=True)
    if svals is None:
        S = residual_defect(vm, K)
    else:
        S = ScalarField.from_values(grid, svals, nonnegative=True, allow_infinite=True)
    return DistortionData(K, S, opts["p"], opts["q"])


def _cmd_analyze(plan: CommandPlan) -> tuple[dict, int]:
    opts = plan.options
    vm = _read(opts["map"], VectorMap)
    grid = vm.grid
    if opts["y0"] is not None and len(opts["y0"]) != grid.dim:
        raise UsageError(f"--y0 needs {grid.dim} coordinates, got {len(opts['y0'])}")
    data = _distortion_data(opts, vm, grid)
    rep = verify_distortion(vm, data, y0=opts["y0"], rel_tol=opts["rel_tol"])
    if opts["violations_out"]:
        _write(opts["violations_out"], violations_csv(rep))
    doc = rep.as_dict()
    doc["admissible"] = data.admissible
    doc["k_source"] = opts["kfield"] or "default: K = 1"
    doc["sigma_source"] = opts["sigmafield"] or "default: minimal defect for the given K"
    doc["provenance"] = _provenance(grid)
    return doc, 0


def _cmd_sobolev(plan: CommandPlan) -> tuple[dict, int]:
    opts = plan.options
    which = opts["check"]
    field = _read(opts["field"], ScalarField, nonnegative=opts["band"] is not None or which in ("superlevel", "all"))
    # the band check runs first, so that a band it rejects costs no other check
    band = [] if opts["band"] is None else [band_bound_check(field, *opts["band"])]
    reports = []
    if which in ("sharp", "all"):
        reports.append(sharp_sobolev_check(field))
    if which in ("superlevel", "all"):
        reports.append(superlevel_check(field))
    reports += band
    doc = {
        "checks": [r.as_dict() for r in reports],
        "all_hold": all(r.holds for r in reports),
        "provenance": _provenance(field.grid),
    }
    return doc, 0 if doc["all_hold"] else 2


def _cmd_distribution(plan: CommandPlan) -> tuple[dict, int]:
    opts = plan.options
    field = _read(opts["field"], ScalarField, nonnegative=True)
    dist = upper_distribution(field)
    total = dist.total

    integral, area_up, area_lo = cavalieri_residual(field)
    scale = max(abs(integral), 1e-30)
    cavalieri_ok = abs(area_up - integral) <= _REL_SLACK * scale and abs(area_lo - integral) <= _REL_SLACK * scale

    avals = opts["avalues"]
    if avals is None:
        avals = [0.0, total / 4, total / 2, 3 * total / 4, total]
    bounds = verify_level_bounds(field, avals)

    def integrals(fn, key: str, exponents: list[float]) -> list[dict]:
        return [{key: e, **{w: fn(field, e, w).as_dict() for w in ("upper", "lower")}} for e in exponents]

    neg = integrals(neg_power_integral, "gamma", opts["gammas"])
    pos = integrals(pos_power_integral, "r", opts["powers"])

    all_hold = (
        cavalieri_ok
        and all(b.holds for b in bounds)
        and all(e["upper"]["holds"] and e["lower"]["holds"] for e in neg + pos)
    )

    if opts["levels_out"]:
        _write(opts["levels_out"], distribution_csv(dist))

    doc = {
        "total_measure": total,
        "cavalieri": {
            "integral": integral,
            "area_upper": area_up,
            "area_lower": area_lo,
            "holds": cavalieri_ok,
        },
        "level_bounds": [
            {"a": b.a, "lower_set_measure": b.lower_set_measure, "upper_set_measure": b.upper_set_measure,
             "holds": b.holds}
            for b in bounds
        ],
        "neg_power_integrals": neg,
        "pos_power_integrals": pos,
        "all_hold": all_hold,
        "provenance": _provenance(field.grid),
    }
    if opts["tgrid"] is not None:
        curves = curves_csv(dist, opts["tgrid"])
        if opts["curves_out"]:
            _write(opts["curves_out"], curves)
        else:
            doc["curves_csv"] = curves
    return doc, 0 if all_hold else 2


def _cmd_staircase(plan: CommandPlan) -> tuple[dict | str, int]:
    opts = plan.options
    field = _read(opts["field"], ScalarField, nonnegative=True)
    F = inverse_distribution_fn(field, opts["gamma"])
    result = staircase_approx(F, opts["epsilon"], opts["max_steps"])
    deviation = max_gap_deviation(F, result)
    code = 0 if deviation <= opts["epsilon"] * (1 + _REL_SLACK) else 2
    if plan.fmt == "csv":
        return staircase_csv(F, result), code
    doc = {
        "s": result.s,
        "case": result.case,
        "epsilon": result.epsilon,
        "breakpoints": [float(t) for t in result.breakpoints],
        "values": [float(F(t)) for t in result.breakpoints],
        "max_gap_deviation": deviation,
        "gap_property_holds": code == 0,
        "provenance": _provenance(field.grid, gamma=opts["gamma"]),
    }
    return doc, code


def _center(opts: dict, default: list[float]) -> tuple[float, ...]:
    """``--center``, or ``default``; it must have as many coordinates as ``default``."""
    center = default if opts["center"] is None else opts["center"]
    if len(center) != len(default):
        raise UsageError(f"--center needs {len(default)} coordinates, got {len(center)}")
    return tuple(center)


def _cmd_monotonicity(plan: CommandPlan) -> tuple[dict | str, int]:
    opts = plan.options
    obj = _read(opts["field"], VectorMap if opts["chain"] else ScalarField)
    grid = obj.grid
    center = _center(opts, [grid.origin[a] + grid.shape[a] * grid.spacing / 2 for a in range(grid.dim)])

    if opts["chain"]:
        ball = Ball(center, opts["chain_ball"])
        comp = obj.component(opts["component"])
        ext = ball_extrema(comp, ball, opts["samples"])
        level = opts["level"]
        if level is None:
            level = ext.boundary_max if opts["mode"] == "above" else ext.boundary_min
        cells = grid.with_mask(grid.ball_mask(ball))
        sub = obj.restrict(cells.mask)
        data = _distortion_data(opts, sub, cells)
        ledger = sup_bound_chain(
            sub, data, opts["component"], level, opts["mode"], gamma=opts["gamma"]
        )
        doc = ledger.as_dict()
        doc["ball"] = {"center": list(center), "radius": opts["chain_ball"]}
        doc["provenance"] = _provenance(grid)
        # without compact support the steps that assume it are not claimed
        excused = _SUPPORT_STEPS if ledger.support_warning else ()
        code = 2 if any(not c.holds and c.name not in excused for c in ledger.checks) else 0
        return (ledger.csv() if plan.fmt == "csv" else doc), code

    radii = sorted(opts["radii"])
    defects = [
        {"r": r, "defect": awm_defect(obj, Ball(center, r), opts["samples"])} for r in radii
    ]
    fit = fit_defect_law(obj, center, radii, opts["samples"])
    osc_R = opts["osc_R"] if opts["osc_R"] is not None else max(radii)
    osc = dyadic_osc_integral(obj, center, osc_R, opts["osc_levels"])
    doc = {
        "center": list(center),
        "defects": defects,
        "defect_fit": fit.as_dict(),
        "osc_integral": {"R": osc_R, "levels": opts["osc_levels"], "value": osc},
        "provenance": _provenance(grid),
    }
    return doc, 0


def _cmd_modulus(plan: CommandPlan) -> tuple[dict, int]:
    opts = plan.options
    if opts["example"] is not None:
        ex = make_example(opts["example"], dim=opts["dim"], **_params(opts["params"]))
        if ex.is_scalar:
            raise ValueError("modulus needs a map example")
        evaluator, dim, grid = ex.evaluator, ex.dim, None
    else:
        vm = _read(opts["field"], VectorMap)
        grid, dim = vm.grid, vm.grid.dim

        def evaluator(pts, comps=vm.components):
            return np.stack([interpolate(c, pts) for c in comps], axis=-1)

    center = _center(opts, [0.0] * dim)
    curve = modulus_curve(evaluator, center, opts["radii"], opts["samples"])
    try:
        fit = log_power_fit(curve).as_dict()
    except ValueError as exc:
        fit = {"error": str(exc)}
    doc = {
        "center": list(center),
        "curve": [{"r": r, "omega": w} for r, w in curve],
        "log_power_fit": fit,
        "provenance": _provenance(grid, samples=opts["samples"]),
    }
    return doc, 0


_HANDLERS = {
    "gallery": _cmd_gallery,
    "analyze": _cmd_analyze,
    "sobolev": _cmd_sobolev,
    "distribution": _cmd_distribution,
    "staircase": _cmd_staircase,
    "monotonicity": _cmd_monotonicity,
    "modulus": _cmd_modulus,
}


def execute(plan: CommandPlan) -> int:
    """Run a validated plan and write its report (a dict as JSON, a str as
    is) to ``plan.out`` or stdout; returns the process exit code."""
    try:
        report, code = _HANDLERS[plan.subcommand](plan)
        if report is None:  # gallery --export: --out named the map file
            return code
        text = report if isinstance(report, str) else json.dumps(report, sort_keys=True, indent=2) + "\n"
        if plan.out:
            _write(plan.out, text)
        else:
            sys.stdout.write(text)
    except (UsageError, OSError, ValueError) as exc:
        sys.stderr.write(f"distlab: {exc}\n")
        return 1
    return code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        plan = parse_command(argv)
    except UsageError as exc:
        sys.stderr.write(f"distlab: {exc}\n")
        return 1
    return execute(plan)


if __name__ == "__main__":
    sys.exit(main())
