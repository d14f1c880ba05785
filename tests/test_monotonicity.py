import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distlab import fields, monotonicity
from distlab.distortion import DistortionData, residual_defect
from distlab.fields import Ball, Box, ScalarField, build_grid, sample
from distlab.gallery import make_example, sample_analytic_k, sample_map
from distlab.monotonicity import (
    _CHAIN_NAMES,
    awm_defect,
    ball_extrema,
    dyadic_osc_integral,
    essosc_profile,
    fit_defect_law,
    log_power_fit,
    modulus_curve,
    sup_bound_chain,
)

UNIT_DISK = Ball((0.0, 0.0), 1.0)
CENTERED = Box((-1.0, -1.0), (1.0, 1.0))
ORIGIN = (0.0, 0.0)


def cone_field(res):
    g = build_grid(UNIT_DISK, res)
    return sample(g, lambda p: 1.0 - np.sqrt((p**2).sum(axis=-1)))


def bump_perturbed_identity(p):
    r2 = (p**2).sum(axis=-1) / 0.25
    b = np.zeros(len(p))
    inside = r2 < 1.0
    b[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return np.stack([p[..., 0] + b, p[..., 1]], axis=-1)


# -------------------------------------------------------------- ball extrema


def test_ball_extrema_affine():
    g = build_grid(CENTERED, 128)
    f = sample(g, lambda p: p[..., 0])
    ex = ball_extrema(f, Ball(ORIGIN, 0.5), 256)
    assert ex.boundary_max == pytest.approx(0.5, abs=1e-3)
    assert ex.boundary_min == pytest.approx(-0.5, abs=1e-3)
    assert ex.interior_max == pytest.approx(0.5, abs=g.spacing)
    assert ex.interior_min == pytest.approx(-0.5, abs=g.spacing)


def test_ball_extrema_cone():
    f = cone_field(128)
    ex = ball_extrema(f, Ball(ORIGIN, 0.4), 256)
    assert ex.boundary_max == pytest.approx(0.6, abs=2e-3)
    assert ex.boundary_min == pytest.approx(0.6, abs=2e-3)
    assert ex.interior_max == pytest.approx(1.0, abs=f.grid.spacing)


def test_ball_extrema_constant():
    g = build_grid(CENTERED, 32)
    f = ScalarField.from_values(g, np.full(g.cell_count, 2.0))
    ex = ball_extrema(f, Ball(ORIGIN, 0.5), 64)
    assert ex.boundary_max == ex.boundary_min == ex.interior_max == ex.interior_min == 2.0


def test_ball_extrema_empty_ball():
    g = build_grid(CENTERED, 8)
    f = ScalarField.from_values(g, np.zeros(g.cell_count))
    # no cell center lies within 0.01 of the origin at this resolution
    with pytest.raises(ValueError):
        ball_extrema(f, Ball(ORIGIN, 0.01), 16)


# ---------------------------------------------------------------- awm defect


def test_awm_defect_cone_grows_linearly():
    f = cone_field(256)
    h = f.grid.spacing
    for r in (0.2, 0.4):
        d = awm_defect(f, Ball(ORIGIN, r))
        assert d == pytest.approx(r, abs=2 * h)


def test_awm_defect_affine_and_constant():
    g = build_grid(CENTERED, 64)
    aff = sample(g, lambda p: p[..., 0])
    assert awm_defect(aff, Ball(ORIGIN, 0.5)) <= 1e-9
    const = ScalarField.from_values(g, np.full(g.cell_count, 3.0))
    assert awm_defect(const, Ball(ORIGIN, 0.5)) == 0.0


@given(shift=st.floats(-5, 5), scale=st.floats(0.1, 4))
@settings(max_examples=20, deadline=None)
def test_awm_defect_shift_invariant_scale_linear(shift, scale):
    f = cone_field(64)
    g = f.grid
    ball = Ball(ORIGIN, 0.35)
    base = awm_defect(f, ball)
    shifted = ScalarField(g, np.where(g.mask, f.data + shift, np.nan))
    assert awm_defect(shifted, ball) == pytest.approx(base, abs=1e-9)
    scaled = ScalarField(g, np.where(g.mask, scale * f.data, np.nan))
    assert awm_defect(scaled, ball) == pytest.approx(scale * base, rel=1e-9)


# ----------------------------------------------------------------- defect fit


def test_fit_defect_law_cone():
    f = cone_field(512)
    radii = [0.05 * k for k in range(1, 9)]
    fit = fit_defect_law(f, ORIGIN, radii)
    assert not fit.monotone
    assert fit.alpha == pytest.approx(1.0, rel=0.05)
    assert fit.C == pytest.approx(1.0, rel=0.1)


def test_fit_defect_law_monotone_marker():
    g = build_grid(CENTERED, 64)
    aff = sample(g, lambda p: p[..., 0] + 0.3 * p[..., 1])
    fit = fit_defect_law(aff, ORIGIN, [0.1, 0.2, 0.3, 0.4])
    assert fit.monotone
    assert fit.C == 0.0 and fit.alpha == 0.0


def test_fit_defect_law_scaling_equivariance():
    f = cone_field(256)
    g = f.grid
    radii = [0.1, 0.2, 0.3, 0.4]
    base = fit_defect_law(f, ORIGIN, radii)
    c = 2.5
    scaled = ScalarField(g, np.where(g.mask, c * f.data, np.nan))
    fit = fit_defect_law(scaled, ORIGIN, radii)
    assert fit.alpha == pytest.approx(base.alpha, rel=1e-9)
    assert fit.C == pytest.approx(c * base.C, rel=1e-9)


# ------------------------------------------------------------------- essosc


def test_essosc_profile_affine():
    g = build_grid(CENTERED, 256)
    f = sample(g, lambda p: p[..., 0])
    prof = essosc_profile(f, ORIGIN, [0.1, 0.2, 0.4])
    for r, osc in prof:
        assert osc == pytest.approx(2 * r, abs=2 * g.spacing)


def test_essosc_profile_constant_and_cone():
    g = build_grid(CENTERED, 64)
    const = ScalarField.from_values(g, np.full(g.cell_count, 1.0))
    assert all(osc == 0.0 for _, osc in essosc_profile(const, ORIGIN, [0.1, 0.3]))
    f = cone_field(256)
    for r, osc in essosc_profile(f, ORIGIN, [0.2, 0.4]):
        assert osc == pytest.approx(r, abs=2 * f.grid.spacing)


@given(seed=st.integers(0, 200))
@settings(max_examples=20, deadline=None)
def test_essosc_nondecreasing(seed):
    rng = np.random.default_rng(seed)
    g = build_grid(CENTERED, 24)
    f = ScalarField.from_values(g, rng.uniform(0, 5, g.cell_count))
    prof = essosc_profile(f, ORIGIN, np.linspace(0.05, 0.9, 12))
    oscs = [osc for _, osc in prof]
    assert all(a <= b + 1e-15 for a, b in zip(oscs, oscs[1:]))


# ----------------------------------------------------------- dyadic integral


def test_dyadic_integral_constant_zero():
    g = build_grid(CENTERED, 32)
    const = ScalarField.from_values(g, np.full(g.cell_count, 7.0))
    assert dyadic_osc_integral(const, ORIGIN, 0.5, 5) == 0.0


def test_dyadic_integral_affine_geometric_series():
    # essosc(r) = 2r for f = x_1, so the sum is the geometric series
    # sum_j (2 R 2^-j)^2 log 2
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 512)
    f = sample(g, lambda p: p[..., 0])
    R, levels = 0.25, 10
    series = 4 * R**2 * math.log(2.0) * (1 - 4.0**-levels) / (1 - 0.25)
    val = dyadic_osc_integral(f, (0.5, 0.5), R, levels)
    assert val == pytest.approx(series, rel=0.05)


def test_dyadic_integral_divergence_proxy():
    # x/|x| keeps essosc ~ 2 at every radius: increments are flat, partial
    # sums grow linearly; the cone's increments decay geometrically
    ex = make_example("x_over_norm")
    g = build_grid(UNIT_DISK, 512)
    f1 = sample_map(ex, g).component(0)
    radii = [0.5 * 2.0**-j for j in range(6)]
    incs = [osc**2 * math.log(2.0) for _, osc in essosc_profile(f1, ORIGIN, radii)]
    ratios = [b / a for a, b in zip(incs, incs[1:])]
    assert all(0.9 <= r <= 1.1 for r in ratios)

    cone = cone_field(512)
    cincs = [osc**2 * math.log(2.0) for _, osc in essosc_profile(cone, ORIGIN, radii)]
    cincs = cincs[::-1]  # largest radius first = dyadic level order
    assert all(b < 0.5 * a for a, b in zip(cincs, cincs[1:]))
    assert cincs[-1] < 0.05 * cincs[0]


def test_dyadic_integral_cauchy_tail():
    f = cone_field(256)
    vals = [dyadic_osc_integral(f, ORIGIN, 0.5, lv) for lv in (4, 6, 8, 10)]
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    assert all(g >= 0 for g in gaps)
    assert gaps[-1] < 0.1 * max(gaps[0], 1e-30)


def test_dyadic_integral_validation():
    f = cone_field(64)
    with pytest.raises(ValueError):
        dyadic_osc_integral(f, ORIGIN, 0.5, 1)


# -------------------------------------------------------------- sup bound chain


def chain_setup(res=384):
    g = build_grid(CENTERED, res)
    vm = sample(g, bump_perturbed_identity)
    ball = Ball(ORIGIN, 0.75)
    ext = ball_extrema(vm.component(0), ball, samples=720)
    vms = vm.restrict(g.ball_mask(ball))
    K = ScalarField.from_values(vms.grid, np.full(vms.grid.cell_count, 2.0), nonnegative=True)
    data = DistortionData(K, residual_defect(vms, K), 3.0, 4.0)
    return vms, data, ext


def test_chain_empty_truncation_trivial():
    vms, data, ext = chain_setup(res=128)
    led = sup_bound_chain(vms, data, 0, ext.interior_max + 1.0, "above")
    assert led.trivial and led.holds_all
    assert led.entries["sup_phi_n"] == 0.0
    assert led.entries["final_bound"] == 0.0


def test_chain_empty_truncation_ledger_is_all_zero():
    # every computed quantity and every check of the empty truncation reads
    # +0.0, in the same key order as a nondegenerate ledger
    vms, data, ext = chain_setup(res=128)
    led = sup_bound_chain(vms, data, 0, ext.interior_max + 1.0, "above")
    full = sup_bound_chain(vms, data, 0, ext.boundary_max, "above")
    assert list(led.as_dict()) == list(full.as_dict())
    computed = list(led.entries)[list(led.entries).index("component") + 1 :]
    assert len(computed) == 12
    assert json.dumps([led.entries[k] for k in computed]) == json.dumps([0.0] * 12)
    assert led.csv() == "name,lhs,rhs,holds\n" + "".join(f"{n},0.0,0.0,True\n" for n in _CHAIN_NAMES)
    assert led.support_warning is False
    assert all(type(c.holds) is bool for c in led.checks + full.checks)


def test_chain_nondegenerate_bump_map():
    vms, data, ext = chain_setup()
    led = sup_bound_chain(vms, data, 0, ext.boundary_max, "above")
    assert not led.trivial
    assert not led.support_warning
    assert led.holds_all
    e = led.entries
    assert abs(e["jacobian_residual"]) <= 0.01 * e["energy"]
    assert e["final_bound"] >= e["sup_phi_n"]
    assert e["sup_phi"] == pytest.approx(ext.interior_max - ext.boundary_max, rel=1e-9)


def test_chain_superlevel_step_holds_on_3d_bump():
    # identity on [-1,1]^3 plus a bump on the first coordinate, K = 2 on the
    # ball of radius 0.75; the bump's centre and amplitude are arbitrary
    c, amp = np.array([0.0197, 0.0387, 0.0472]), 1.1327

    def bumped(p):
        r2 = ((p - c) ** 2).sum(axis=-1) / 0.25
        b = np.zeros(len(p))
        inside = r2 < 1.0
        b[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return np.stack([p[..., 0] + b, p[..., 1], p[..., 2]], axis=-1)

    g = build_grid(Box((-1.0,) * 3, (1.0,) * 3), 48)
    vm = sample(g, bumped)
    ball = Ball((0.0, 0.0, 0.0), 0.75)
    ext = ball_extrema(vm.component(0), ball)
    vms = vm.restrict(ball)
    K = ScalarField.from_values(vms.grid, np.full(vms.grid.cell_count, 2.0), nonnegative=True)
    data = DistortionData(K, residual_defect(vms, K), 4.0, 4.0)
    led = sup_bound_chain(vms, data, 0, ext.boundary_max, "above")
    assert not led.trivial
    a = led.check("a_superlevel")
    assert a.holds, a.lhs / a.rhs
    assert led.holds_all


def test_chain_takes_one_derivative_pass(monkeypatch):
    # |grad phi| and J_g both come from D f by the chain rule
    passes = []

    def counted(grid, comps, _fn=fields._derivative_blocks, **kw):
        passes.append(len(comps))
        return _fn(grid, comps, **kw)

    vms, data, ext = chain_setup(res=128)
    monkeypatch.setattr(fields, "_derivative_blocks", counted)
    for mode in ("above", "below"):
        passes.clear()
        led = sup_bound_chain(vms, data, 0, ext.boundary_max, mode)
        assert not led.trivial
        assert passes == [2]


def _span_case(name):
    """(map, component, level, mode, which ends of the flat box range the
    support's span must reach): supports at the box's first and last planes,
    beside a slot that makes the mask non-convex along axis 1 or along
    axis 0, and on a 3-D ball."""
    dim = 3 if name == "3d-ball" else 2
    grid = build_grid(Ball((0.0,) * 3, 1.0) if dim == 3 else CENTERED, 14 if dim == 3 else 24)
    c = grid.centers
    if name == "slot-along-0":  # rows x0 > -0.3 are split along axis 1
        grid = grid.with_mask(~((c[..., 0] > -0.3) & (np.abs(c[..., 1]) < 0.15)))
    elif name == "slot-across-0":  # a gap along axis 0 just before the support's first plane
        grid = grid.with_mask(~((np.abs(c[..., 0] - 0.3) < 0.1) & (c[..., 1] > -0.3)))
    vm = sample(grid, lambda p: p + 0.2 * np.sin(2.0 * p[:, ::-1]))
    comp, mode, q, ends = {
        "first-plane": (0, "below", 0.15, (True, False)),
        "last-plane": (0, "above", 0.85, (False, True)),
        "slot-along-0": (0, "above", 0.8, (False, True)),
        "slot-across-0": (0, "above", 0.75, (False, True)),
        "3d-ball": (0, "above", 0.8, (False, True)),
    }[name]
    return vm, comp, float(np.quantile(vm.component(comp).values, q)), mode, ends


@pytest.mark.parametrize("name", ["first-plane", "last-plane", "slot-along-0", "slot-across-0", "3d-ball"])
def test_chain_on_the_support_span_equals_the_full_derivative_ledger(monkeypatch, name):
    vm, i, level, mode, ends = _span_case(name)
    K = ScalarField.from_values(vm.grid, np.full(vm.grid.cell_count, 2.0), nonnegative=True)
    data = DistortionData(K, residual_defect(vm, K), 4.0, 4.0)
    spans = []

    def whole(*args, span=None, _fn=fields._cellwise):  # the derivative on every cell, as before the span
        spans.append(span)
        return _fn(*args)

    monkeypatch.setattr(monotonicity, "_cellwise", whole)
    ref = sup_bound_chain(vm, data, i, level, mode)
    monkeypatch.undo()
    assert not ref.trivial
    n = vm.grid.mask.size
    start, stop = spans[0]
    assert (start == 0, stop == n) == ends and stop - start < n  # a strict part of the box
    stride = math.prod(vm.grid.shape[1:])
    for block in (1, 7, stride - 1, stride + 1, fields._BLOCK):
        monkeypatch.setattr(fields, "_BLOCK", block)
        led = sup_bound_chain(vm, data, i, level, mode)
        assert json.dumps(led.as_dict(), sort_keys=True) == json.dumps(ref.as_dict(), sort_keys=True), block


def test_chain_gallery_maps_trivial_and_true():
    for name, kw in (("winding", {"k": 2}), ("radial_log", {})):
        ex = make_example(name, **kw)
        g = build_grid(ex.default_domain, 256)
        vm = sample_map(ex, g)
        ball = Ball(ORIGIN, 0.5 * ex.default_domain.radius)
        ext = ball_extrema(vm.component(0), ball, samples=720)
        vms = vm.restrict(g.ball_mask(ball))
        K = sample_analytic_k(ex, vms.grid, clamped=True)
        data = DistortionData(K, residual_defect(vms, K), 4.0, 4.0)
        led = sup_bound_chain(vms, data, 0, ext.boundary_max, "above")
        assert led.holds_all
        assert led.trivial  # weakly monotone coordinates: empty truncation


def test_chain_validation():
    vms, data, ext = chain_setup(res=128)
    bad_pq = DistortionData(data.K, data.Sigma, 2.0, 2.0)
    with pytest.raises(ValueError):
        sup_bound_chain(vms, bad_pq, 0, ext.boundary_max, "above")
    low_k = DistortionData(
        ScalarField.from_values(vms.grid, np.full(vms.grid.cell_count, 0.5), nonnegative=True),
        data.Sigma, 3.0, 4.0,
    )
    with pytest.raises(ValueError):
        sup_bound_chain(vms, low_k, 0, ext.boundary_max, "above")
    with pytest.raises(ValueError):
        sup_bound_chain(vms, data, 0, ext.boundary_max, "above", gamma=0.99)
    for i in (2, -1):
        with pytest.raises(ValueError, match=f"component {i} is not a coordinate of the 2-D map"):
            sup_bound_chain(vms, data, i, ext.boundary_max, "above")


def test_chain_ledger_export():
    vms, data, ext = chain_setup(res=128)
    led = sup_bound_chain(vms, data, 0, ext.interior_max + 1.0, "above")
    d = led.as_dict()
    assert d["holds_all"] is True
    assert "check_a_superlevel" in d
    csv = led.csv()
    assert csv.splitlines()[0] == "name,lhs,rhs,holds"


# ------------------------------------------------------------------- modulus


def test_modulus_identity_and_constant():
    curve = modulus_curve(lambda p: p, ORIGIN, [0.1, 0.2, 0.5], samples=32)
    for r, w in curve:
        assert w == pytest.approx(r, rel=1e-12)
    flat = modulus_curve(lambda p: np.zeros_like(p), ORIGIN, [0.1, 0.2], samples=16)
    assert all(w == 0.0 for _, w in flat)


def test_modulus_per_point_evaluator_matches_vectorized_twin():
    radii = [0.05, 0.1, 0.3]
    per_point = modulus_curve(lambda p: (math.hypot(*p), p[1]), (0.2, -0.1), radii, samples=32)
    twin = modulus_curve(
        lambda p: np.stack([np.hypot(p[:, 0], p[:, 1]), p[:, 1]], axis=-1), (0.2, -0.1), radii, samples=32
    )
    assert [r for r, _ in per_point] == radii
    np.testing.assert_allclose([w for _, w in per_point], [w for _, w in twin], rtol=1e-14)


def test_modulus_evaluator_error_propagates_after_one_call():
    calls = []

    def broken(p):
        calls.append(np.shape(p))
        raise ValueError("broken evaluator")

    with pytest.raises(ValueError, match="broken evaluator"):
        modulus_curve(broken, ORIGIN, [0.1], samples=16)
    assert calls == [(1, 2)]


def test_modulus_nonfinite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        modulus_curve(lambda p: np.where(np.abs(p[:, 0]) > 0.05, np.inf, 0.0), ORIGIN, [0.1], samples=16)


def test_modulus_radial_log_curve():
    ex = make_example("radial_log")
    radii = np.logspace(-6, -2, 9)
    curve = modulus_curve(ex.evaluator, ORIGIN, radii, samples=64)
    for r, w in curve:
        assert w == pytest.approx(math.log(1.0 / r) ** -0.5, rel=1e-9)
    ws = [w for _, w in curve]
    assert all(a <= b for a, b in zip(ws, ws[1:]))


def test_log_power_fit_recovers_generators():
    rs = np.logspace(-5, -2, 8)
    exact = [(r, math.log(1 / r) ** -0.5) for r in rs]
    fit = log_power_fit(exact)
    assert fit.beta == pytest.approx(0.5, abs=1e-10)
    assert fit.C == pytest.approx(1.0, abs=1e-10)
    assert fit.residual < 1e-10

    double = [(r, 2.0 * math.log(1 / r) ** (-1.0 / 3.0)) for r in rs]
    fit = log_power_fit(double)
    assert fit.beta == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert fit.C == pytest.approx(2.0, abs=1e-10)


def test_log_power_fit_radial_log_band():
    ex = make_example("radial_log")
    radii = np.logspace(-6, -2, 9)
    curve = modulus_curve(ex.evaluator, ORIGIN, radii, samples=64)
    fit = log_power_fit(curve)
    assert 0.45 <= fit.beta <= 0.55


def test_modulus_exponent_3d():
    ex = make_example("radial_log", dim=3)
    radii = np.logspace(-6, -2, 9)
    curve = modulus_curve(ex.evaluator, (0.0, 0.0, 0.0), radii, samples=128)
    fit = log_power_fit(curve)
    assert fit.beta == pytest.approx(1.0 / 3.0, abs=0.02)


def test_log_power_fit_needs_points():
    with pytest.raises(ValueError):
        log_power_fit([(0.1, 0.5), (0.01, 0.4)])
    with pytest.raises(ValueError):
        log_power_fit([(0.1, 0.0), (0.01, 0.0), (0.001, 0.0)])
