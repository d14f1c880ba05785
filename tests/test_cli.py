import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from distlab import cli, fields, monotonicity
from distlab.cli import CommandPlan, UsageError, execute, main, parse_command
from distlab.fieldio import read_field, write_field
from distlab.fields import Ball, Box, ScalarField, build_grid, sample
from distlab.gallery import list_examples


def run(argv, capsys=None):
    code = main(argv)
    return code


def cone_file(tmp_path, res=64):
    g = build_grid(Ball((0.0, 0.0), 1.0), res)
    f = sample(g, lambda p: 1.0 - np.sqrt((p**2).sum(axis=-1)))
    path = tmp_path / "cone.json"
    write_field(f, path)
    return str(path)


# ------------------------------------------------------------------- parsing


def test_parse_gallery_list_default():
    plan = parse_command(["gallery", "--list"])
    assert plan.subcommand == "gallery"
    assert plan.options["list"]


def test_parse_sobolev_plan():
    plan = parse_command(["sobolev", "field.json", "--check", "superlevel"])
    assert plan.subcommand == "sobolev"
    assert plan.options["field"] == "field.json"
    assert plan.options["check"] == "superlevel"


def test_parse_errors():
    with pytest.raises(UsageError):
        parse_command([])
    with pytest.raises(UsageError):
        parse_command(["frobnicate"])
    with pytest.raises(UsageError):
        parse_command(["gallery", "--export", "cone"])  # missing --out
    with pytest.raises(UsageError):
        parse_command(["modulus", "--radii", "0.1"])  # neither file nor example
    with pytest.raises(UsageError):
        parse_command(["analyze", "m.json", "--p", "four"])


def test_main_usage_error_exit_code():
    assert main(["distortion"]) == 1  # unknown subcommand


# ------------------------------------------------------------------- gallery


def test_gallery_list_deterministic(capsys):
    assert main(["gallery", "--list"]) == 0
    first = capsys.readouterr().out
    assert main(["gallery", "--list"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    names = [e["name"] for e in doc["examples"]]
    assert "radial_log" in names and "x_over_norm" in names


def test_gallery_export_and_reload(tmp_path, capsys):
    out = tmp_path / "winding.json"
    code = main(
        ["gallery", "--export", "winding", "--params", "k=2", "--resolution", "32", "--out", str(out)]
    )
    assert code == 0
    vm = read_field(out)
    assert vm.grid.shape == (32, 32)


# ----------------------------------------------------- analyze round trip


def test_gallery_export_then_analyze(tmp_path, capsys):
    out = tmp_path / "radial_log.json"
    code = main(
        [
            "gallery", "--export", "radial_log", "--resolution", "128",
            "--with-data", "--out", str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    code = main(
        [
            "analyze", str(out),
            "--kfield", str(tmp_path / "radial_log.k.json"),
            "--sigmafield", str(tmp_path / "radial_log.sigma.json"),
            "--p", "4", "--q", "4", "--rel-tol", "0.03",
            "--violations-out", str(tmp_path / "viol.csv"),
            "--out", str(report_path),
        ]
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["admissible"] is True
    # violations, if any, sit within two spacings of the declared singular
    # point at the origin
    viol = (tmp_path / "viol.csv").read_text().splitlines()[1:]
    vm = read_field(out)
    centers = vm.grid.masked_centers
    for line in viol:
        idx = int(line.split(",")[0])
        assert np.linalg.norm(centers[idx]) <= 2 * vm.grid.spacing


def test_analyze_default_data_is_self_consistent(tmp_path, capsys):
    out = tmp_path / "w.json"
    main(["gallery", "--export", "winding", "--params", "k=3", "--resolution", "48", "--out", str(out)])
    capsys.readouterr()
    code = main(["analyze", str(out), "--p", "4", "--q", "4"])
    captured = capsys.readouterr().out
    assert code == 0
    doc = json.loads(captured)
    assert doc["violation_count"] == 0  # minimal defect closes the inequality
    assert doc["sigma_source"].startswith("default")


def _export_radial_log(tmp_path, capsys, res=64):
    out = tmp_path / "rl.json"
    code = main(
        ["gallery", "--export", "radial_log", "--resolution", str(res), "--with-data", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    return out


def _field_on(tmp_path, name, domain, res, value):
    g = build_grid(domain, res)
    path = tmp_path / name
    write_field(ScalarField.from_values(g, np.full(g.cell_count, value)), path)
    return str(path)


def _refuse_derivatives(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("derivative work started before the companion grid check")

    monkeypatch.setattr(fields, "_derivative_blocks", refuse)


@pytest.mark.parametrize("flag", ["--kfield", "--sigmafield"])
@pytest.mark.parametrize(
    "domain,res",
    [(Ball((0.0, 0.0), 5.0), 64), (Ball((0.1, 0.0), 0.6), 64), (Ball((0.0, 0.0), 0.6), 32)],
    ids=["spacing", "origin", "shape"],
)
def test_companion_field_on_another_grid_rejected(tmp_path, capsys, monkeypatch, flag, domain, res):
    out = _export_radial_log(tmp_path, capsys)
    other = _field_on(tmp_path, "other.json", domain, res, 2.0)
    _refuse_derivatives(monkeypatch)
    analyze = ["analyze", str(out), flag, other]
    chain = ["monotonicity", str(out), "--chain", "--center", "0,0", "--chain-ball", "0.3", flag, other]
    errors = []
    for argv in (analyze, chain):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert other in captured.err
        assert "grid" in captured.err
        errors.append(captured.err)
    # the chain checks the file against the map file's lattice, not its cropped ball
    assert errors[1] == errors[0] and "[64, 64]" in errors[0]


@pytest.mark.parametrize("flag", ["--kfield", "--sigmafield"])
def test_companion_field_missing_map_cells_rejected(tmp_path, capsys, monkeypatch, flag):
    # same lattice, but the file's ball mask leaves out the corners of the map's box
    g = build_grid(Box((-0.6, -0.6), (0.6, 0.6)), 32)
    out = tmp_path / "box.json"
    write_field(sample(g, lambda p: p), out)
    other = _field_on(tmp_path, "ball.json", Ball((0.0, 0.0), 0.6), 32, 2.0)
    _refuse_derivatives(monkeypatch)
    assert main(["analyze", str(out), flag, other]) == 1
    err = capsys.readouterr().err
    assert other in err and "cells" in err


def test_chain_companion_fields_are_nan_off_the_sub_mask(tmp_path, capsys):
    out = _export_radial_log(tmp_path, capsys, res=32)
    sigma = read_field(tmp_path / "rl.sigma.json")
    vm = read_field(out)
    cells = vm.grid.with_mask(vm.grid.ball_mask(Ball((0.0, 0.0), 0.3)))  # on the file's lattice
    sub = vm.restrict(cells.mask)
    opts = {"kfield": None, "sigmafield": str(tmp_path / "rl.sigma.json"), "p": 4.0, "q": 4.0}
    data = cli._distortion_data(opts, sub, cells)
    off = ~sub.grid.mask
    assert off.any() and (sigma.grid.mask[vm.grid.crop(cells.mask)[1]] & off).any()
    assert np.isnan(data.K.data[off]).all()
    assert np.isnan(data.Sigma.data[off]).all()
    assert np.array_equal(data.Sigma.values, sigma.data[cells.mask])


def test_companion_field_on_the_map_grid_accepted(tmp_path, capsys):
    out = _export_radial_log(tmp_path, capsys, res=32)
    same = _field_on(tmp_path, "k2.json", Ball((0.0, 0.0), 0.6), 32, 2.0)  # radial_log's domain
    assert main(["analyze", str(out), "--kfield", same]) == 0
    assert json.loads(capsys.readouterr().out)["k_source"] == same


# ------------------------------------------------------------------- sobolev


def test_sobolev_superlevel_cone(tmp_path, capsys):
    path = cone_file(tmp_path, 256)
    code = main(["sobolev", path, "--check", "superlevel"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    (rep,) = doc["checks"]
    assert rep["holds"]
    assert rep["ratio"] == pytest.approx(1.0, abs=0.02)


def test_sobolev_band_requires_band_flag(tmp_path, capsys):
    path = cone_file(tmp_path)
    assert main(["sobolev", path, "--check", "band"]) == 1


def test_sobolev_all_checks(tmp_path, capsys):
    path = cone_file(tmp_path, 128)
    code = main(["sobolev", path, "--check", "all", "--band", "0.25,0.75"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(doc["checks"]) == 3
    assert doc["all_hold"]


# -------------------------------------------------------------- distribution


def test_distribution_report_and_exit_codes(tmp_path, capsys):
    path = cone_file(tmp_path, 64)
    curves = tmp_path / "curves.csv"
    levels = tmp_path / "levels.csv"
    code = main(
        [
            "distribution", path,
            "--tgrid", "0.25,0.5,0.75",
            "--curves-out", str(curves),
            "--levels-out", str(levels),
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["all_hold"]
    assert doc["cavalieri"]["holds"]
    assert levels.read_text().splitlines()[0] == "level,mass"
    rows = curves.read_text().splitlines()
    assert rows[0] == "t,mu_plus,mu_minus"
    assert len(rows) == 4


def test_distribution_negative_value_diagnostic(tmp_path, capsys):
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 4)
    vals = np.ones(g.cell_count)
    vals[5] = -2.0
    write_field(ScalarField.from_values(g, vals), tmp_path / "bad.json")
    code = main(["distribution", str(tmp_path / "bad.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "negative value" in err
    assert "(1, 1)" in err  # first offending cell named


# ------------------------------------------------------------------ staircase


def test_staircase_csv_and_json(tmp_path, capsys):
    path = cone_file(tmp_path, 32)
    code = main(["staircase", path, "--gamma", "0.5", "--epsilon", "0.4", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "i,t,F"
    code = main(["staircase", path, "--gamma", "0.5", "--epsilon", "0.4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["gap_property_holds"]
    assert doc["case"] in ("hit", "interior")
    assert doc["s"] == pytest.approx(read_field(path).values.max())


# --------------------------------------------------------------- monotonicity


def test_monotonicity_sweep(tmp_path, capsys):
    path = cone_file(tmp_path, 128)
    code = main(
        ["monotonicity", path, "--center", "0,0", "--radii", "0.1,0.2,0.3,0.4"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["defect_fit"]["alpha"] == pytest.approx(1.0, rel=0.15)
    assert doc["osc_integral"]["value"] > 0


def test_monotonicity_chain_on_exported_map(tmp_path, capsys):
    out = tmp_path / "rl.json"
    main(["gallery", "--export", "radial_log", "--resolution", "128", "--out", str(out)])
    capsys.readouterr()
    code = main(
        [
            "monotonicity", str(out), "--chain",
            "--center", "0,0", "--chain-ball", "0.3",
            "--p", "4", "--q", "4",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["holds_all"] is True


def test_chain_without_compact_support_does_not_exit_2(tmp_path, capsys):
    # level 0 leaves radial_log's truncation nonzero on the chain ball's
    # boundary: only the superlevel step, which assumes compact support,
    # misses, and the report says so without a failing exit code
    out = _export_radial_log(tmp_path, capsys, res=128)
    chain = ["monotonicity", str(out), "--chain", "--center", "0,0", "--chain-ball", "0.3",
             "--p", "4", "--q", "4", "--level", "0"]
    assert main(chain) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["support_warning"] is True
    assert doc["holds_all"] is False
    failed = [k for k, v in doc.items() if k.startswith("check_") and not v["holds"]]
    assert failed == ["check_a_superlevel"]
    assert main(chain + ["--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r.split(",")[0] for r in rows if r.endswith(",False")] == ["a_superlevel"]


@pytest.mark.parametrize("support_warning", [False, True])
@pytest.mark.parametrize("step", monotonicity._CHAIN_NAMES)
def test_chain_exit_code_per_failed_step(tmp_path, capsys, monkeypatch, step, support_warning):
    # only the steps that assume compact support are excused by the warning
    def one_miss(*args, **kwargs):
        checks = tuple(monotonicity.ChainCheck(n, 1.0, 0.5, n != step) for n in monotonicity._CHAIN_NAMES)
        return monotonicity.ChainLedger({}, checks, trivial=False, support_warning=support_warning)

    out = _export_radial_log(tmp_path, capsys, res=32)
    monkeypatch.setattr("distlab.cli.sup_bound_chain", one_miss)
    code = main(["monotonicity", str(out), "--chain", "--center", "0,0", "--chain-ball", "0.3"])
    assert json.loads(capsys.readouterr().out)["holds_all"] is False
    excused = support_warning and step in ("a_superlevel", "c_energy_bound", "d_final_bound")
    assert code == (0 if excused else 2)


# ------------------------------------------------------------------- modulus


def test_modulus_example_radial_log(capsys):
    radii = ",".join(str(10.0**-k) for k in range(2, 7))
    code = main(
        ["modulus", "--example", "radial_log", "--center", "0,0", "--radii", radii]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert 0.45 <= doc["log_power_fit"]["beta"] <= 0.55


def test_modulus_from_map_file(tmp_path, capsys):
    g = build_grid(Box((-1.0, -1.0), (1.0, 1.0)), 64)
    vm = sample(g, lambda p: p)
    write_field(vm, tmp_path / "ident.json")
    code = main(
        ["modulus", str(tmp_path / "ident.json"), "--center", "0,0", "--radii", "0.1,0.2,0.4"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    for entry in doc["curve"]:
        assert entry["omega"] == pytest.approx(entry["r"], rel=1e-9)


def test_sobolev_violation_exits_2(tmp_path, capsys):
    # a single unresolved spike violates the superlevel inequality on the
    # grid: sup = 1 but the gradient mass is only O(h)
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 32)
    vals = np.zeros(g.cell_count)
    vals[g.cell_count // 2] = 1.0
    write_field(ScalarField.from_values(g, vals), tmp_path / "spike.json")
    code = main(["sobolev", str(tmp_path / "spike.json"), "--check", "superlevel"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert not doc["all_hold"]


# ----------------------------------------------------------------- error paths


def _scalar_and_map(tmp_path, capsys):
    return cone_file(tmp_path, 16), str(_export_radial_log(tmp_path, capsys, res=16))


def _fails_with(argv, capsys, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"distlab: {message}\n"


@pytest.mark.parametrize("command", ["analyze", "modulus"])
def test_scalar_file_where_a_map_is_expected(tmp_path, capsys, command):
    cone, _ = _scalar_and_map(tmp_path, capsys)
    argv = [command, cone] + (["--radii", "0.1,0.2"] if command == "modulus" else [])
    _fails_with(argv, capsys, f"{cone}: expected a map (components), found a scalar field")


def test_scalar_file_where_the_chain_expects_a_map(tmp_path, capsys):
    cone, _ = _scalar_and_map(tmp_path, capsys)
    _fails_with(["monotonicity", cone, "--chain", "--chain-ball", "0.3"], capsys,
                f"{cone}: expected a map (components), found a scalar field")


@pytest.mark.parametrize(
    "argv",
    [
        ["sobolev", "{map}"],
        ["distribution", "{map}"],
        ["staircase", "{map}", "--gamma", "0.5", "--epsilon", "0.4"],
        ["analyze", "{map}", "--kfield", "{map}"],
    ],
    ids=["sobolev", "distribution", "staircase", "kfield"],
)
def test_map_file_where_a_scalar_is_expected(tmp_path, capsys, argv):
    _, rl = _scalar_and_map(tmp_path, capsys)
    _fails_with([a.format(map=rl) for a in argv], capsys,
                f"{rl}: expected a scalar field (values), found a map")


def test_map_file_where_the_sweep_expects_a_scalar(tmp_path, capsys):
    _, rl = _scalar_and_map(tmp_path, capsys)
    _fails_with(["monotonicity", rl, "--radii", "0.1,0.2"], capsys,
                f"{rl}: expected a scalar field (values), found a map")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--example", "radial_log", "--dim", "2", "--center", "0,0,0"], "--center needs 2 coordinates, got 3"),
        (["--example", "radial_log", "--dim", "2", "--center", "0"], "--center needs 2 coordinates, got 1"),
        (["--example", "radial_log", "--dim", "3", "--center", "0,0"], "--center needs 3 coordinates, got 2"),
        (["{map}", "--center", "0,0,0"], "--center needs 2 coordinates, got 3"),
    ],
    ids=["example-3-for-2", "example-1-for-2", "example-2-for-3", "map-3-for-2"],
)
def test_modulus_center_of_the_wrong_dimension(tmp_path, capsys, argv, message):
    _, rl = _scalar_and_map(tmp_path, capsys)
    argv = ["modulus", *(a.format(map=rl) for a in argv), "--radii", "0.01,0.1,0.2"]
    _fails_with(argv, capsys, message)


@pytest.mark.parametrize(
    "argv",
    [
        ["{cone}", "--center", "0,0,0", "--radii", "0.1,0.2"],
        ["{cone}", "--center", "0", "--radii", "0.1,0.2"],
        ["{map}", "--chain", "--center", "0,0,0", "--chain-ball", "0.3"],
        ["{map}", "--chain", "--center", "0", "--chain-ball", "0.3"],
    ],
    ids=["sweep-3-for-2", "sweep-1-for-2", "chain-3-for-2", "chain-1-for-2"],
)
def test_monotonicity_center_of_the_wrong_dimension(tmp_path, capsys, argv):
    cone, rl = _scalar_and_map(tmp_path, capsys)
    argv = ["monotonicity", *(a.format(cone=cone, map=rl) for a in argv)]
    got = len(argv[argv.index("--center") + 1].split(","))
    _fails_with(argv, capsys, f"--center needs 2 coordinates, got {got}")


@pytest.mark.parametrize("component", ["2", "5", "-1", "-3"])
def test_chain_component_outside_the_map(tmp_path, capsys, component):
    _, rl = _scalar_and_map(tmp_path, capsys)
    argv = ["monotonicity", rl, "--chain", "--center", "0,0", "--chain-ball", "0.3", "--component", component]
    _fails_with(argv, capsys, f"component {component} is not a coordinate of the 2-D map (0 to 1)")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "{map}", "--kfield", "{k}", "--sigmafield", "{sigma}", "--p", "4", "--q", "4", "--rel-tol", "nan"],
         "argument --rel-tol: not a finite number: 'nan'"),
        (["analyze", "{map}", "--rel-tol", "inf"], "argument --rel-tol: not a finite number: 'inf'"),
        (["analyze", "{map}", "--rel-tol", "-1"], "argument --rel-tol: not a number >= 0: '-1'"),
        (["analyze", "{map}", "--p", "4", "--q", "4", "--y0", "nan,0"], "expected finite numbers, got 'nan,0'"),
        (["analyze", "{map}", "--y0", "0,-inf"], "expected finite numbers, got '0,-inf'"),
        (["analyze", "{map}", "--p", "nan", "--q", "4"], "expected a number or 'inf', got 'nan'"),
        (["staircase", "{cone}", "--gamma", "0.5", "--epsilon", "nan"], "argument --epsilon: not a finite number: 'nan'"),
        (["staircase", "{cone}", "--gamma", "nan", "--epsilon", "0.4"], "argument --gamma: not a finite number: 'nan'"),
        (["monotonicity", "{map}", "--chain", "--center", "0,0", "--chain-ball", "nan"],
         "argument --chain-ball: not a finite number: 'nan'"),
        (["monotonicity", "{map}", "--chain", "--center", "0,0", "--chain-ball", "0.3", "--level", "inf"],
         "argument --level: not a finite number: 'inf'"),
        (["monotonicity", "{cone}", "--center", "nan,0", "--radii", "0.1,0.2"], "expected finite numbers, got 'nan,0'"),
        (["monotonicity", "{cone}", "--center", "0,0", "--radii", "0.1,0.2", "--osc-R", "nan"],
         "argument --osc-R: not a finite number: 'nan'"),
        (["distribution", "{cone}", "--avalues", "0,nan"], "expected finite numbers, got '0,nan'"),
        (["modulus", "--example", "winding", "--params", "k=nan", "--radii", "0.1,0.2"],
         "parameter 'k' needs a finite value, got 'nan'"),
        (["modulus", "--example", "radial_power", "--params", "a=inf", "--radii", "0.1,0.2"],
         "parameter 'a' needs a finite value, got 'inf'"),
    ],
    ids=["rel-tol-nan", "rel-tol-inf", "rel-tol-negative", "y0-nan", "y0-inf", "p-nan", "epsilon-nan",
         "gamma-nan", "chain-ball-nan", "level-inf", "center-nan", "osc-R-nan", "avalues-nan", "params-nan",
         "params-inf"],
)
def test_non_finite_numbers_are_rejected(tmp_path, capsys, argv, message):
    cone, rl = _scalar_and_map(tmp_path, capsys)
    names = {"cone": cone, "map": rl, "k": rl[: -len(".json")] + ".k.json", "sigma": rl[: -len(".json")] + ".sigma.json"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning before the message
        _fails_with([a.format(**names) for a in argv], capsys, message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--rel-tol", "-1"], "argument --rel-tol: not a number >= 0: '-1'"),
        (["--p", "4", "--q", "4", "--rel-tol", "-0.5"], "argument --rel-tol: not a number >= 0: '-0.5'"),
        (["--y0", "1,2,3"], "--y0 needs 2 coordinates, got 3"),
        (["--y0", "1"], "--y0 needs 2 coordinates, got 1"),
        (["--kfield", "{k}", "--p", "4", "--q", "4", "--y0", "0,0,0"], "--y0 needs 2 coordinates, got 3"),
    ],
    ids=["rel-tol-negative", "rel-tol-negative-with-exponents", "y0-3-for-2", "y0-1-for-2", "y0-with-kfield"],
)
def test_analyze_options_rejected_before_derivative_work(tmp_path, capsys, monkeypatch, argv, message):
    # the message names the option, and no derivative of the map is taken first
    _, rl = _scalar_and_map(tmp_path, capsys)
    _refuse_derivatives(monkeypatch)
    k = rl[: -len(".json")] + ".k.json"
    _fails_with(["analyze", rl, *(a.format(k=k) for a in argv)], capsys, message)


CHAIN_16 = ["--chain", "--center", "0,0", "--chain-ball", "0.3"]


@pytest.mark.parametrize(
    "argv, expensive, message",
    [
        (["analyze", "{map}", "--p", "0.5"], ["residual_defect"], "exponents must lie in [1, inf]"),
        (["analyze", "{map}", "--q", "0.5", "--kfield", "{k}"], ["residual_defect"], "exponents must lie in [1, inf]"),
        (
            ["monotonicity", "{map}", *CHAIN_16, "--p", "0.5"],
            ["ball_extrema", "residual_defect"],
            "exponents must lie in [1, inf]",
        ),
        (
            ["monotonicity", "{map}", *CHAIN_16, "--p", "2", "--q", "2"],
            ["ball_extrema", "residual_defect"],
            "inadmissible exponents: need 1/p + 1/q < 1",
        ),
        (
            ["monotonicity", "{map}", *CHAIN_16, "--p", "4", "--q", "4", "--gamma", "0.9"],
            ["ball_extrema", "residual_defect"],
            "gamma must lie in (0.25, 0.75)",
        ),
        (["sobolev", "{cone}", "--band", "0.5,0.25"], ["sharp_sobolev_check", "superlevel_check"], "need 0 <= a < b"),
        (
            ["sobolev", "{cone}", "--band", "0.25,2"],
            ["sharp_sobolev_check", "superlevel_check"],
            "b must lie below the field maximum (mu_plus(b) = 0 otherwise)",
        ),
    ],
    ids=["analyze-p", "analyze-q-with-kfield", "chain-p", "chain-inadmissible", "chain-gamma", "band-reversed",
         "band-above-max"],
)
def test_invalid_input_rejected_before_expensive_work(tmp_path, capsys, monkeypatch, argv, expensive, message):
    cone, rl = _scalar_and_map(tmp_path, capsys)
    names = {"cone": cone, "map": rl, "k": rl[: -len(".json")] + ".k.json"}

    def refuse(*args, **kwargs):
        raise AssertionError("expensive work ran before the input was rejected")

    for name in expensive:
        monkeypatch.setattr(cli, name, refuse)
    _fails_with([a.format(**names) for a in argv], capsys, message)


@pytest.mark.parametrize(
    "center, radius, message",
    [
        ("0,0", "0.001", "ball contains no cell centers at this resolution"),
        ("0.55,0", "0.1", "interpolation point outside the sampled box"),
    ],
    ids=["empty", "outside"],
)
def test_chain_ball_rejected_before_the_minimal_defect(tmp_path, capsys, monkeypatch, center, radius, message):
    # the exponent check moved ahead of the ball: the ball's own messages stay
    _, rl = _scalar_and_map(tmp_path, capsys)
    monkeypatch.setattr(cli, "residual_defect", lambda *a, **k: pytest.fail("minimal defect before the ball check"))
    _fails_with(["monotonicity", rl, "--chain", "--center", center, "--chain-ball", radius], capsys, message)


def test_exponents_still_take_inf(tmp_path, capsys):
    _, rl = _scalar_and_map(tmp_path, capsys)
    assert main(["analyze", rl, "--p", "inf", "--q", "inf"]) == 0
    assert json.loads(capsys.readouterr().out)["p"] == math.inf


def test_chain_without_a_ball(tmp_path, capsys):
    _, rl = _scalar_and_map(tmp_path, capsys)
    _fails_with(["monotonicity", rl, "--chain"], capsys, "--chain needs --chain-ball R")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gallery", "--export", "winding", "--params", "K=3", "--out", "{out}"],
         "example 'winding' has no parameter 'K'; its parameters: k"),
        (["modulus", "--example", "radial_power", "--params", "alpha=3", "--radii", "0.1,0.2,0.3"],
         "example 'radial_power' has no parameter 'alpha'; its parameters: a"),
        (["modulus", "--example", "radial_log", "--params", "a=2", "--radii", "0.1,0.2"],
         "example 'radial_log' has no parameter 'a'; its parameters: none"),
    ],
    ids=["gallery-winding-K", "modulus-radial_power-alpha", "modulus-radial_log-a"],
)
def test_unknown_params_rejected(tmp_path, capsys, argv, message):
    out = tmp_path / "w.json"
    _fails_with([a.format(out=out) for a in argv], capsys, message)
    assert not out.exists()


def test_repeated_params_key_rejected(capsys):
    _fails_with(["modulus", "--example", "winding", "--params", "k=2,k=3", "--radii", "0.1,0.2"], capsys,
                "parameter 'k' is given more than once")


# the default of every parameter that gallery --list shows
LISTED_DEFAULTS = {("winding", "k"): "2", ("radial_power", "a"): "2"}


def test_every_listed_param_exports_at_its_default(tmp_path, capsys):
    listed = [(e["name"], key) for e in list_examples() for key in e["params"]]
    assert listed
    for name, key in listed:
        out = tmp_path / f"{name}.json"
        argv = ["gallery", "--export", name, "--params", f"{key}={LISTED_DEFAULTS[name, key]}", "--resolution", "8",
                "--out", str(out)]
        assert main(argv) == 0, capsys.readouterr().err
        assert out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("shape", [16.7, 16.2], "geometry key 'shape': 16.7 is not an integer"),
        ("dim", 2.9, "geometry key 'dim': 2.9 is not an integer"),
        ("shape", ["16", "16"], "geometry key 'shape': '16' is not an integer"),
        ("spacing", "0.125", "geometry key 'spacing': '0.125' is not a finite number"),
    ],
    ids=["shape-fraction", "dim-fraction", "shape-strings", "spacing-string"],
)
def test_field_geometry_of_the_wrong_type_rejected(tmp_path, capsys, key, value, message):
    path = cone_file(tmp_path, 16)
    with open(path) as fh:
        doc = json.load(fh)
    doc[key] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)
    _fails_with(["sobolev", path], capsys, message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["monotonicity", "{missing}", "--chain", "--center", "0,0"], "--chain needs --chain-ball R"),
        (["monotonicity", "{missing}", "--center", "0,0"], "the defect sweep needs --radii a,b,c"),
        (["sobolev", "{missing}", "--check", "band"], "band check needs --band A,B"),
        (["sobolev", "{missing}", "--band", "0.2,0.4,0.6"], "band check needs --band A,B"),
        (["distribution", "{missing}", "--gammas", "0.5,1.5"], "--gammas entries must lie in (0, 1), got 1.5"),
        (["distribution", "{missing}", "--powers", "1,-2", "--gammas", "0"], "--gammas entries must lie in (0, 1), got 0.0"),
        (["distribution", "{missing}", "--powers", "1,-2"], "--powers entries must be positive, got -2.0"),
        (["analyze", "{missing}", "--q", "0.5"], "exponents must lie in [1, inf]"),
        (["monotonicity", "{missing}", "--chain", "--chain-ball", "0.3", "--p=-inf"], "exponents must lie in [1, inf]"),
        (["monotonicity", "{missing}", "--radii", "0.1,0.2", "--osc-levels", "1"], "need at least 2 dyadic levels"),
        (["monotonicity", "{missing}", "--radii", "0.1,0.2", "--samples", "7"], "need at least 8 sphere samples"),
        (["monotonicity", "{missing}", "--chain", "--chain-ball", "0.3", "--samples", "0"],
         "need at least 8 sphere samples"),
        (["modulus", "{missing}", "--radii", "0.1,0.2", "--samples", "4"], "need at least 8 sphere samples"),
        (["staircase", "{missing}", "--gamma", "0.5", "--epsilon", "0"], "epsilon must be positive"),
        (["staircase", "{missing}", "--gamma", "0.5", "--epsilon", "-1", "--max-steps", "0"], "epsilon must be positive"),
        (["staircase", "{missing}", "--gamma", "0.5", "--epsilon", "0.4", "--max-steps", "0"],
         "max_steps must be at least 1"),
        (["staircase", "{missing}", "--gamma", "-1", "--epsilon", "0.4"], "gamma must be positive"),
        (["staircase", "{missing}", "--gamma", "0", "--epsilon", "0.4"], "gamma must be positive"),
        (["monotonicity", "{missing}", "--center", "0,0", "--radii=-0.1,0.2"], "ball radius must be positive"),
        (["monotonicity", "{missing}", "--radii", "0.1,0.2", "--osc-R", "-1"], "ball radius must be positive"),
        (["monotonicity", "{missing}", "--radii", "0.1,0.2", "--osc-R", "0"], "ball radius must be positive"),
        (["monotonicity", "{missing}", "--chain", "--center", "0,0", "--chain-ball", "-0.3"],
         "ball radius must be positive"),
        (["modulus", "{missing}", "--radii=-1,0.1"], "ball radius must be positive"),
        (["modulus", "--example", "radial_log", "--radii", "0.1,0"], "ball radius must be positive"),
    ],
    ids=["chain-ball", "radii", "band-missing", "band-three", "gammas", "gammas-first", "powers", "analyze-q", "chain-p",
         "osc-levels", "sweep-samples", "chain-samples", "modulus-samples", "epsilon", "epsilon-first", "max-steps",
         "gamma-negative", "gamma-zero", "sweep-radius", "osc-R-negative", "osc-R-zero", "chain-ball-negative",
         "modulus-radius", "modulus-example-radius"],
)
def test_option_checks_come_before_the_file(tmp_path, capsys, argv, message):
    # the options alone are wrong: the message names the option, not the
    # missing file, and nothing is read
    _fails_with([a.format(missing=tmp_path / "missing.json") for a in argv], capsys, message)


CHAIN_ONLY = [
    ["--chain-ball", "2"],
    ["--component", "0"],
    ["--level", "3"],
    ["--mode", "above"],
    ["--p", "4"],
    ["--q", "0.5"],
    ["--gamma", "7"],
    ["--kfield", "nothere.json"],
    ["--sigmafield", "nothere.json"],
]


@pytest.mark.parametrize("option", CHAIN_ONLY, ids=[o[0] for o in CHAIN_ONLY])
def test_the_sweep_rejects_chain_options(tmp_path, capsys, option):
    # the sweep used to accept and ignore them, even at their defaults
    argv = ["monotonicity", str(tmp_path / "missing.json"), "--radii", "0.1,0.2", *option]
    _fails_with(argv, capsys, f"{option[0]} needs --chain; the defect sweep does not use it")


def test_the_sweep_names_the_first_chain_option(tmp_path, capsys):
    argv = ["monotonicity", cone_file(tmp_path, 16), "--radii", "0.1,0.2", "--p", "0.5", "--gamma", "7", "--kfield",
            "nothere.json", "--level", "3", "--chain-ball", "2", "--component", "9", "--mode", "below"]
    _fails_with(argv, capsys, "--chain-ball needs --chain; the defect sweep does not use it")


SWEEP_ONLY = [["--radii", "0.1,0.2"], ["--osc-levels", "6"], ["--osc-R", "0.2"]]


@pytest.mark.parametrize("option", SWEEP_ONLY, ids=[o[0] for o in SWEEP_ONLY])
def test_the_chain_rejects_sweep_options(tmp_path, capsys, option):
    argv = ["monotonicity", str(tmp_path / "missing.json"), *CHAIN_16, *option]
    _fails_with(argv, capsys, f"{option[0]} acts only in the defect sweep; --chain does not use it")


def test_each_mode_keeps_its_defaults(tmp_path, capsys):
    cone, rl = _scalar_and_map(tmp_path, capsys)
    reports = []
    for argv in (
        ["monotonicity", rl, *CHAIN_16],
        ["monotonicity", rl, *CHAIN_16, "--p", "4", "--q", "4", "--component", "0", "--mode", "above"],
        ["monotonicity", cone, "--center", "0,0", "--radii", "0.1,0.2,0.3"],
        ["monotonicity", cone, "--center", "0,0", "--radii", "0.1,0.2,0.3", "--osc-levels", "6"],
    ):
        assert main(argv) in (0, 2)
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and json.loads(reports[0])["p"] == 4.0
    assert reports[2] == reports[3] and json.loads(reports[2])["osc_integral"]["levels"] == 6


# ---------------------------------------------------------------- Lp overflow


def test_k_norm_overflow_exits_1(tmp_path, capsys):
    # K = 1e100 is finite, K^4 is not: the report used to carry "K_norm_p": Infinity and exit 0
    out = _export_radial_log(tmp_path, capsys, res=32)
    big = _field_on(tmp_path, "big.k.json", Ball((0.0, 0.0), 0.6), 32, 1e100)  # radial_log's domain
    argv = ["analyze", str(out), "--kfield", big, "--sigmafield", str(tmp_path / "rl.sigma.json"), "--p", "4",
            "--q", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _fails_with(argv, capsys, "field values must be finite on the mask")


def test_sharp_sobolev_overflow_exits_1(tmp_path, capsys):
    # the sharp check used to report lhs Infinity and exit 2
    big = _field_on(tmp_path, "big.json", Ball((0.0, 0.0), 1.0), 16, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _fails_with(["sobolev", big, "--check", "sharp"], capsys, "field values must be finite on the mask")


def test_band_options_ignored_by_other_checks(tmp_path, capsys):
    assert main(["sobolev", cone_file(tmp_path, 16), "--check", "sharp", "--band", "1,2,3"]) == 0


def test_gallery_with_data_for_an_example_without_data(tmp_path, capsys):
    argv = ["gallery", "--export", "cone", "--resolution", "16", "--with-data", "--out", str(tmp_path / "c.json")]
    _fails_with(argv, capsys, "example 'cone' carries no analytic distortion data")


@pytest.mark.parametrize(
    "argv",
    [
        ["gallery", "--list"],
        ["analyze", "{map}"],
        ["sobolev", "{cone}"],
        ["distribution", "{cone}"],
        ["modulus", "--example", "radial_log", "--radii", "0.1,0.01,0.001"],
        ["monotonicity", "{cone}", "--radii", "0.1,0.2"],
    ],
    ids=["gallery", "analyze", "sobolev", "distribution", "modulus", "sweep"],
)
def test_format_csv_rejected_where_it_does_not_act(tmp_path, capsys, argv):
    # these commands only print JSON; --format is accepted only by
    # staircase and monotonicity --chain
    cone, rl = _scalar_and_map(tmp_path, capsys)
    assert main([a.format(cone=cone, map=rl) for a in argv] + ["--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format" in captured.err


def test_chain_csv_rows_are_the_json_checks(tmp_path, capsys):
    rl = str(_export_radial_log(tmp_path, capsys, res=64))
    for level in ([], ["--level", "0"], ["--level", "10"]):  # boundary max, no support, empty
        chain = ["monotonicity", rl, "--chain", "--center", "0,0", "--chain-ball", "0.3", *level]
        code = main(chain)
        doc = json.loads(capsys.readouterr().out)
        assert main(chain + ["--format", "csv"]) == code
        rows = [f"{n},{doc[f'check_{n}']['lhs']!r},{doc[f'check_{n}']['rhs']!r},{doc[f'check_{n}']['holds']}"
                for n in monotonicity._CHAIN_NAMES]
        assert capsys.readouterr().out == "\n".join(["name,lhs,rhs,holds", *rows]) + "\n"


# ---------------------------------------------------------------- determinism


def test_identical_plans_byte_identical_reports(tmp_path):
    path = cone_file(tmp_path, 64)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        plan = CommandPlan(
            "sobolev",
            {"field": path, "check": "superlevel", "band": None},
            str(out),
            "json",
        )
        assert execute(plan) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_osc_radius_rejected_before_the_sweep(tmp_path, capsys, monkeypatch):
    # a negative --osc-R used to fail only after every defect and the fit
    monkeypatch.setattr(cli, "awm_defect", lambda *a, **k: pytest.fail("defect sweep before the --osc-R check"))
    argv = ["monotonicity", cone_file(tmp_path, 16), "--radii", "0.1,0.2", "--osc-R", "-1"]
    _fails_with(argv, capsys, "ball radius must be positive")


# ------------------------------------------------------------ no half an export


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gallery", "--export", "cone", "--resolution", "16", "--with-data"],
         "example 'cone' carries no analytic distortion data"),
        (["gallery", "--export", "radial_log", "--resolution", "33", "--with-data"],
         "field values must be finite on the mask"),
        (["gallery", "--export", "x_over_norm", "--resolution", "33", "--with-data"],
         "values: inf is not a finite number at cell (16, 16)"),
        (["gallery", "--export", "x_over_norm", "--dim", "3", "--resolution", "33", "--with-data"],
         "values: inf is not a finite number at cell (16, 16, 16)"),
    ],
    ids=["cone-without-data", "radial_log-K-at-the-centre", "x_over_norm-sigma-inf", "x_over_norm-3d-sigma-inf"],
)
def test_a_failed_export_writes_no_file(tmp_path, capsys, argv, message):
    # the map used to be written before K or Sigma failed, and an infinite
    # Sigma was written as Infinity, which the reader then refuses
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _fails_with([*argv, "--out", str(tmp_path / "x.json")], capsys, message)
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_every_exported_file_reads_back(tmp_path, capsys):
    # what the gallery writes, the reader takes
    for name, dim in [("x_over_norm", 2), ("radial_log", 2), ("winding", 2), ("radial_power", 3)]:
        out = tmp_path / f"{name}{dim}.json"
        argv = ["gallery", "--export", name, "--dim", str(dim), "--resolution", "16", "--with-data", "--out", str(out)]
        assert main(argv) == 0, capsys.readouterr().err
        written = json.loads(capsys.readouterr().out)["written"]
        assert written == [str(out), str(out)[: -len(".json")] + ".k.json", str(out)[: -len(".json")] + ".sigma.json"]
        for path in written:
            read_field(path)


# ------------------------------------------------------ no non-finite report


def test_a_tolerance_that_overflows_exits_1(tmp_path, capsys):
    # the report used to carry "max_excess": -Infinity after an overflow warning, and exit 0
    rl = str(_export_radial_log(tmp_path, capsys, res=16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _fails_with(["analyze", rl, "--rel-tol", "1e308"], capsys,
                    "the cell tolerance rel_tol * (1 + |Df|^n + |K J|) overflows at rel_tol = 1e+308")


def _child_cli(argv, cwd, timeout=30):
    """``python -m distlab.cli argv`` in a child process, so that a command
    that never finishes fails the test instead of hanging it."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    try:
        return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "distlab.cli", *argv], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"distlab {' '.join(argv)} still running after {timeout} s")


def test_staircase_of_huge_piece_values_finishes(tmp_path):
    # at gamma = 50 the pieces reach about 1e120 and the ladder used to spin forever
    assert _child_cli(["gallery", "--export", "cone", "--resolution", "32", "--out", "cone.json"], tmp_path).returncode == 0
    proc = _child_cli(["staircase", "cone.json", "--gamma", "50", "--epsilon", "0.4"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["gap_property_holds"] and doc["max_gap_deviation"] <= 0.4
    assert len(doc["breakpoints"]) == 65 and doc["case"] == "hit"
    proc = _child_cli(["staircase", "cone.json", "--gamma", "400", "--epsilon", "0.4"], tmp_path)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("distlab: gamma = 400.0 is too large for this field")


# ------------------------------------------------------------ paths no test ran


def test_bare_gallery_lists_the_examples(capsys):
    assert main(["gallery"]) == 0
    bare = capsys.readouterr().out
    assert main(["gallery", "--list"]) == 0
    assert bare == capsys.readouterr().out
    assert [e["name"] for e in json.loads(bare)["examples"]] == [e["name"] for e in list_examples()]


def test_chain_with_an_explicit_gamma(tmp_path, capsys):
    _, rl = _scalar_and_map(tmp_path, capsys)
    assert main(["monotonicity", rl, *CHAIN_16, "--gamma", "0.5"]) in (0, 2)
    assert json.loads(capsys.readouterr().out)["gamma"] == 0.5


def test_distribution_curves_embedded_without_curves_out(tmp_path, capsys):
    path = cone_file(tmp_path, 16)
    argv = ["distribution", path, "--tgrid", "0.25,0.5"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main([*argv, "--curves-out", str(tmp_path / "curves.csv")]) == 0
    assert "curves_csv" not in json.loads(capsys.readouterr().out)
    assert doc["curves_csv"] == (tmp_path / "curves.csv").read_text()
    assert doc["curves_csv"].count("\n") == 3


def test_modulus_reports_a_fit_that_fails(capsys):
    assert main(["modulus", "--example", "radial_log", "--radii", "0.1,0.2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["log_power_fit"] == {"error": "need at least 3 usable points with r < 1 and omega > 0"}
    assert [row["r"] for row in doc["curve"]] == [0.1, 0.2]


def test_modulus_of_a_scalar_example(capsys):
    _fails_with(["modulus", "--example", "cone", "--radii", "0.1,0.2"], capsys, "modulus needs a map example")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["modulus", "--example", "winding", "--params", "k", "--radii", "0.1"],
         "parameters look like key=value, got 'k'"),
        (["modulus", "--example", "winding", "--params", "k=x", "--radii", "0.1"],
         "parameter 'k' needs a numeric value"),
        (["gallery", "--export", "winding", "--params", "k=inf", "--out", "w.json"],
         "parameter 'k' needs a finite value, got 'inf'"),
        (["modulus", "--example", "winding", "--radii", "0.1,x"],
         "expected a comma-separated list of numbers, got '0.1,x'"),
        (["monotonicity", "{missing}", "--radii", "0.1,0.2", "--osc-R", "x"], "argument --osc-R: invalid float value: 'x'"),
    ],
    ids=["params-no-value", "params-not-numeric", "params-not-finite", "radii-not-numeric", "osc-R-not-numeric"],
)
def test_malformed_option_values(tmp_path, capsys, argv, message):
    _fails_with([a.format(missing=tmp_path / "missing.json") for a in argv], capsys, message)
