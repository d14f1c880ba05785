#!/usr/bin/env python3
"""Hash every README CLI report, side files included, for one source tree.

    python3 scripts/report_digest.py SRC

SRC is a checkout (or its ``src/`` directory).  The script exports the
README fields at 256^2 with ``python -m distlab.cli`` from SRC into a
temporary directory, runs the README commands there (plus side-file
outputs, the chain's CSV form, the ``--y0``, ``--band`` and ``--level``
options, an off-centre sweep with radii down to 0.005, an off-centre
chain, and the exit-1 paths for a file of the wrong kind, a missing
``--chain-ball``, an example without data, a ``--component`` outside the
map, a non-finite or negative number, and a ``--center`` or ``--y0`` of
the wrong length, an unknown ``--params`` name, an option that is wrong on
its own with a missing file, and ``cone.json`` with a geometry key of the
wrong JSON type, and a ``--params`` key given twice, each ``monotonicity`` mode
given an option of the other, option values the library rejects (``--osc-levels``,
``--samples``, ``--epsilon``, ``--max-steps``), and a K file and a field file
whose finite values overflow an L^p norm; plus ``sobolev rl.k.json``,
whose support warning exits 2; plus ``radial_log`` exported at 48^3, two
sampling slabs, and its ``--y0`` check with the violation rows of several
derivative blocks; plus every other catalog example exported at 32^2 and,
where it exists in 3-D, at 32^3, with ``--with-data`` where it carries
data), and prints one ``exit sha256 command`` line per command
and per side file; the hash covers stdout and stderr.  It then hashes the file that
``write_field(read_field(...))`` writes for ``rl.json`` and ``cone.json``,
and runs one pass of the ``map-3d-96`` and
``scalar-2d-1024`` benchmark workloads at seed 5, at ``--quick`` and at
full size, in a child process that imports this checkout's
``perfbench/workloads.py`` (read-only: no bytecode is written) with SRC
first on the path.  It prints one ``sha256 name`` line per operation
report; after each ``map-3d-96`` ``verify_distortion`` report it also hashes
the masked rows ``differential(vm).entries``, the masked values of
``residual_defect(vm, K)``, ``pointwise_distortion(vm)`` and
``jacobian_parts(vm)`` for that check's map and K, the indices of the
quotient's defined cells among the map's cells, and the values of
``zero_integral_check(vm, 0)`` and of ``weighted_zero_integral_check`` with
the analytic weight F(t) = t; after each ``scalar-2d-1024`` pass it hashes the masked values of
``grad_norm`` of the workload's field and its ``verify_level_bounds`` reports
at 33 evenly spaced a in [0, total] and at the mu_plus and mu_minus values of
eight of its levels, where the strict and weak comparisons differ.  None of
these depends on the box the map or field lives on.
Run it on two trees and diff the outputs: equal lines mean byte-identical
reports.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
RES = "256"
RL_DATA = ["--kfield", "rl.k.json", "--sigmafield", "rl.sigma.json", "--p", "4", "--q", "4"]
CHAIN = ["monotonicity", "rl.json", "--chain", "--center", "0,0", "--chain-ball", "0.3", "--p", "4", "--q", "4"]

# (argv, side files the command writes)
COMMANDS = [
    (["gallery", "--list"], []),
    (["gallery", "--export", "radial_log", "--resolution", RES, "--with-data", "--out", "rl.json"],
     ["rl.json", "rl.k.json", "rl.sigma.json"]),
    (["gallery", "--export", "cone", "--resolution", RES, "--out", "cone.json"], ["cone.json"]),
    (["analyze", "rl.json", *RL_DATA, "--rel-tol", "0.03"], []),
    (["analyze", "rl.json", *RL_DATA, "--violations-out", "violations.csv"], ["violations.csv"]),
    (["analyze", "rl.json", "--p", "4", "--q", "4", "--y0", "0,0"], []),
    (["sobolev", "cone.json", "--check", "superlevel"], []),
    (["sobolev", "cone.json", "--band", "0.2,0.6"], []),
    (["distribution", "cone.json", "--tgrid", "0.25,0.5,0.75", "--curves-out", "curves.csv",
      "--levels-out", "levels.csv"], ["curves.csv", "levels.csv"]),
    (["staircase", "cone.json", "--gamma", "0.5", "--epsilon", "0.4", "--format", "csv"], []),
    (["staircase", "cone.json", "--gamma", "0.5", "--epsilon", "0.4"], []),
    (["monotonicity", "cone.json", "--center", "0,0", "--radii", "0.1,0.2,0.3,0.4"], []),
    (["monotonicity", "cone.json", "--center", "0.1,-0.05", "--radii", "0.005,0.01,0.02,0.05,0.1,0.2"], []),
    (CHAIN, []),
    (CHAIN + ["--format", "csv"], []),
    (CHAIN + ["--level", "0"], []),
    (CHAIN + ["--level", "0", "--kfield", "rl.k.json", "--format", "csv"], []),
    (["monotonicity", "rl.json", "--chain", "--center", "0.1,-0.05", "--chain-ball", "0.25", "--p", "4", "--q", "4"], []),
    (["modulus", "--example", "radial_log", "--center", "0,0", "--radii", "1e-6,1e-5,1e-4,1e-3,1e-2"], []),
    (["modulus", "rl.json", "--center", "0,0", "--radii", "0.01,0.02,0.05,0.1,0.2"], []),
    # exit-1 paths: a file of the other kind, a missing option, an example without data
    (["analyze", "cone.json"], []),
    (["modulus", "cone.json", "--radii", "0.1,0.2"], []),
    (["monotonicity", "cone.json", "--chain", "--chain-ball", "0.3"], []),
    (["sobolev", "rl.json"], []),
    (["distribution", "rl.json"], []),
    (["staircase", "rl.json", "--gamma", "0.5", "--epsilon", "0.4"], []),
    (["monotonicity", "rl.json", "--radii", "0.1,0.2"], []),
    (["analyze", "rl.json", "--kfield", "rl.json"], []),
    (["monotonicity", "rl.json", "--chain"], []),
    (["gallery", "--export", "cone", "--resolution", "16", "--with-data", "--out", "c16.json"], ["c16.json"]),
    # exit-1 paths: a component outside the map, non-finite or negative numbers, a --center or --y0 of the wrong length
    (CHAIN + ["--component", "5"], []),
    (CHAIN + ["--component", "-1"], []),
    (["analyze", "rl.json", *RL_DATA, "--rel-tol", "nan"], []),
    (["analyze", "rl.json", "--p", "4", "--q", "4", "--rel-tol", "-1"], []),
    (["analyze", "rl.json", "--p", "4", "--q", "4", "--y0", "nan,0"], []),
    (["analyze", "rl.json", "--p", "nan", "--q", "4"], []),
    (["staircase", "cone.json", "--gamma", "0.5", "--epsilon", "nan"], []),
    (["monotonicity", "rl.json", "--chain", "--center", "0,0", "--chain-ball", "nan"], []),
    (["monotonicity", "cone.json", "--center", "nan,0", "--radii", "0.1,0.2"], []),
    (["monotonicity", "cone.json", "--center", "0,0,0", "--radii", "0.1,0.2"], []),
    (["monotonicity", "rl.json", "--chain", "--center", "0,0,0", "--chain-ball", "0.3"], []),
    (["analyze", "rl.json", "--p", "4", "--q", "4", "--y0", "1,2,3"], []),
    # a field visibly nonzero on its mask boundary: support_warning, exit 2
    (["sobolev", "rl.k.json"], []),
    # exit-1 paths: an unknown --params name
    (["gallery", "--export", "winding", "--params", "K=3", "--out", "w.json"], ["w.json"]),
    (["modulus", "--example", "radial_power", "--params", "alpha=3", "--radii", "0.1,0.2,0.3"], []),
    # exit-1 paths: options wrong on their own, named before the (missing) file is read
    (["monotonicity", "missing.json", "--chain", "--center", "0,0"], []),
    (["monotonicity", "missing.json", "--center", "0,0"], []),
    (["sobolev", "missing.json", "--check", "band"], []),
    (["distribution", "missing.json", "--gammas", "0.5,1.5"], []),
    (["distribution", "missing.json", "--powers", "1,-2"], []),
    # exit-1 path: a --params key given twice
    (["modulus", "--example", "winding", "--params", "k=2,k=3", "--radii", "0.1,0.2"], []),
    # exit-1 paths: each monotonicity mode given an option of the other
    (["monotonicity", "cone.json", "--radii", "0.1,0.2", "--p", "0.5", "--gamma", "7", "--kfield", "nothere.json",
      "--level", "3", "--chain-ball", "2", "--component", "9", "--mode", "below"], []),
    (CHAIN + ["--radii", "0.1,0.2"], []),
    (CHAIN + ["--osc-levels", "6"], []),
    (CHAIN + ["--osc-R", "0.2"], []),
    # exit-1 paths: option values the library rejects, named before the file is read
    (["monotonicity", "cone.json", "--center", "0,0", "--radii", "0.1,0.2", "--osc-levels", "1"], []),
    (["monotonicity", "cone.json", "--center", "0,0", "--radii", "0.1,0.2", "--samples", "7"], []),
    (CHAIN + ["--samples", "7"], []),
    (["modulus", "rl.json", "--center", "0,0", "--radii", "0.01,0.02", "--samples", "4"], []),
    (["staircase", "cone.json", "--gamma", "0.5", "--epsilon", "0"], []),
    (["staircase", "cone.json", "--gamma", "0.5", "--epsilon", "0.4", "--max-steps", "0"], []),
    # a 3-D export sampled in two slabs, and its violations spread over several derivative blocks
    (["gallery", "--export", "radial_log", "--dim", "3", "--resolution", "48", "--with-data", "--out", "rl3.json"],
     ["rl3.json", "rl3.k.json", "rl3.sigma.json"]),
    (["analyze", "rl3.json", "--kfield", "rl3.k.json", "--sigmafield", "rl3.sigma.json", "--p", "4", "--q", "4",
      "--y0", "0.05,0,0", "--violations-out", "violations3.csv"], ["violations3.csv"]),
]

# every other catalog example at 32^2 and, where it exists in 3-D, at 32^3, with its data where it carries any
for name, data, dims in [("identity", True, (2, 3)), ("linear", True, (2, 3)), ("smooth_bump", False, (2, 3)),
                         ("winding", True, (2,)), ("radial_power", True, (2, 3)), ("x_over_norm", True, (2, 3))]:
    for dim in dims:
        base = f"{name}{dim}"
        COMMANDS.append(
            (["gallery", "--export", name, "--dim", str(dim), "--resolution", "32", *(["--with-data"] if data else []),
              "--out", f"{base}.json"], [f"{base}.json", *([f"{base}.k.json", f"{base}.sigma.json"] if data else [])])
        )

# exit-1 paths: cone.json with one geometry key of the wrong JSON type
GEOMETRY = [("shape", [256.7, 256.2]), ("dim", 2.9), ("shape", ["256", "256"]), ("spacing", "0.0078125")]

# exit-1 paths: a copy of a field file with every value set to a finite number whose L^p norm overflows
SCALED = [
    ("rl.k.json", 1e100, ["analyze", "rl.json", "--kfield", "{file}", "--sigmafield", "rl.sigma.json", "--p", "4",
                          "--q", "4"]),
    ("cone.json", 1e300, ["sobolev", "{file}", "--check", "sharp"]),
]


# the field-file round trip, then one pass of each library workload at seed 5; argv[1] is SRC
LIBRARY = """
import hashlib, math, sys, warnings
import numpy as np
from distlab.distortion import (
    jacobian_parts, pointwise_distortion, residual_defect, weighted_zero_integral_check, zero_integral_check,
)
from distlab.staircase import MonotoneFn
from distlab.fieldio import read_field, write_field
from distlab.distribution import upper_distribution, verify_level_bounds
from distlab.fields import differential, grad_norm
from workloads import WORKLOADS

IDENTITY = MonotoneFn("analytic", math.inf, fn=lambda t: t)

def sha(data):
    return hashlib.sha256(data).hexdigest()

for name in ("rl.json", "cone.json"):
    write_field(read_field(name), "round_trip.json")
    with open("round_trip.json", "rb") as fh:
        print(sha(fh.read()), "read_field -> write_field", name, flush=True)

for name in ("map-3d-96", "scalar-2d-1024"):
    for quick in (True, False):
        tag = name + (" --quick" if quick else "")
        w = WORKLOADS[name](5, quick, ".", sys.argv[1])
        w.build()
        checked = {}  # the map and K of each verify_distortion operation
        if name == "map-3d-96":
            checked = {
                "verify_distortion[radial_log]": (w.rl_map, w.rl_data.K),
                "verify_distortion[bump]": (w.sub, w.K2),
            }
        for op in w.ops():
            res = op.call()
            print(sha(op.report(res).encode()), tag, op.name, flush=True)
            if op.name in checked:
                vm, K = checked[op.name]
                pk = pointwise_distortion(vm)
                with warnings.catch_warnings():  # the laws' support warning is not a report
                    warnings.simplefilter("ignore")
                    integrals = [zero_integral_check(vm, 0), *weighted_zero_integral_check(vm, 0, IDENTITY)]
                arrays = {
                    "differential.entries": differential(vm).entries,
                    "residual_Sigma.values": residual_defect(vm, K).values,
                    "pointwise_K.values": pk.values,
                    "pointwise_K.defined": np.flatnonzero(pk.grid.mask[vm.grid.mask]),
                    "jacobian_parts.values": np.stack([part.values for part in jacobian_parts(vm)]),
                    "zero_integral_checks": np.array(integrals),
                }
                for label, arr in arrays.items():
                    print(sha(arr.tobytes()), tag, f"{op.name} [{label}]", flush=True)
        if name == "scalar-2d-1024":
            print(sha(grad_norm(w.field).values.tobytes()), tag, "[grad_norm.values]", flush=True)
            dist = upper_distribution(w.field)
            levels = dist.levels[np.linspace(0, len(dist.levels) - 1, 8).astype(int)]
            a_values = [*np.linspace(0.0, dist.total, 33), *dist.mu_plus(levels), *dist.mu_minus(levels)]
            reports = [(r.a, r.lower_set_measure, r.lower_holds, r.upper_set_measure, r.upper_holds)
                       for r in verify_level_bounds(w.field, a_values)]
            print(sha(repr(reports).encode()), tag, "[verify_level_bounds]", flush=True)
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 1
    src = os.path.abspath(argv[0])
    if not os.path.isdir(os.path.join(src, "distlab")):
        src = os.path.join(src, "src")
    if not os.path.isfile(os.path.join(src, "distlab", "cli.py")):
        sys.stderr.write(f"report_digest: no distlab package under {argv[0]}\n")
        return 1
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as work:
        for args, side in COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "distlab.cli", *args], cwd=work, env=env, capture_output=True
            )
            shown = "distlab " + " ".join(args)
            print(proc.returncode, _sha(proc.stdout + proc.stderr), shown, flush=True)
            for name in side:
                path = pathlib.Path(work, name)
                digest = _sha(path.read_bytes()) if path.exists() else "missing"
                print(proc.returncode, digest, f"{shown} [{name}]", flush=True)
        for i, (key, value) in enumerate(GEOMETRY):
            doc = json.loads(pathlib.Path(work, "cone.json").read_text())
            pathlib.Path(work, f"geometry{i}.json").write_text(json.dumps({**doc, key: value}))
            argv = [sys.executable, "-m", "distlab.cli", "sobolev", f"geometry{i}.json"]
            proc = subprocess.run(argv, cwd=work, env=env, capture_output=True)
            shown = f"distlab sobolev geometry{i}.json (cone.json with {key} {json.dumps(value)})"
            print(proc.returncode, _sha(proc.stdout + proc.stderr), shown, flush=True)
        for i, (name, value, args) in enumerate(SCALED):
            doc = json.loads(pathlib.Path(work, name).read_text())
            doc["values"] = [None if v is None else value for v in doc["values"]]
            pathlib.Path(work, f"scaled{i}.json").write_text(json.dumps(doc))
            args = [a.format(file=f"scaled{i}.json") for a in args]
            proc = subprocess.run([sys.executable, "-m", "distlab.cli", *args], cwd=work, env=env, capture_output=True)
            shown = f"distlab {' '.join(args)} (scaled{i}.json: {name} with every value {value!r})"
            print(proc.returncode, _sha(proc.stdout + proc.stderr), shown, flush=True)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(PERFBENCH)]), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-c", LIBRARY, src], cwd=work, env=env, text=True, capture_output=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
