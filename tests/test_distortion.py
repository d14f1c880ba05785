import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distlab import distortion, fields
from distlab.fields import Ball, Box, ScalarField, build_grid, sample
from distlab.distortion import (
    DistortionData,
    _derivative_powers,
    jacobian_parts,
    lebesgue_norm,
    normalize_low_distortion,
    pointwise_distortion,
    residual_defect,
    verify_distortion,
    violations_csv,
    weighted_zero_integral_check,
    zero_integral_check,
)
from distlab.monotonicity import sup_bound_chain
from distlab.staircase import MonotoneFn, inverse_distribution_fn
from distlab.gallery import make_example, sample_analytic_k, sample_analytic_sigma, sample_map

CENTERED = Box((-1.0, -1.0), (1.0, 1.0))
UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))


def const_field(grid, c, **kw):
    return ScalarField.from_values(grid, np.full(grid.cell_count, float(c)), **kw)


@pytest.mark.parametrize(
    "other",
    [Box((-5.0, -5.0), (5.0, 5.0)), Box((0.5, 0.0), (1.5, 1.0)), Box((0.0, 0.0), (2.0, 2.0))],
    ids=["spacing-and-origin", "origin", "spacing"],
)
def test_distortion_data_rejects_sigma_on_another_grid(other):
    # same shape, different lattice: K and Sigma would be paired cell by cell
    g = build_grid(UNIT_SQUARE, 8)
    h = build_grid(other, 8)
    with pytest.raises(ValueError, match="same grid"):
        DistortionData(const_field(g, 1.0), const_field(h, 0.0))
    DistortionData(const_field(g, 1.0), const_field(build_grid(UNIT_SQUARE, 8), 0.0))


def _left_half(g):
    return g.centers[..., 0] < 0.5


def _left_half_map():
    g = build_grid(UNIT_SQUARE, 32)
    vm = sample(g, lambda p: np.stack([p[..., 0] + 0.1 * p[..., 1] ** 2, p[..., 1]], axis=-1))
    return g, vm.restrict(_left_half(g))


def _data_on(grid):
    return DistortionData(const_field(grid, 2.0, nonnegative=True), const_field(grid, 0.0), 4.0, 4.0)


@pytest.mark.parametrize(
    "check",
    [
        lambda vm, d: verify_distortion(vm, d),
        lambda vm, d: residual_defect(vm, d.K),
        lambda vm, d: sup_bound_chain(vm, d, 0, 0.2, "above"),
    ],
    ids=["verify_distortion", "residual_defect", "sup_bound_chain"],
)
@pytest.mark.parametrize("where", ["right-half", "full-box", "other-lattice", "uncropped"])
def test_distortion_data_on_another_grid_rejected(check, where, monkeypatch):
    g, vm = _left_half_map()
    shifted = build_grid(Box((0.5, 0.0), (1.5, 1.0)), 32)
    other = {
        "right-half": g.with_mask(g.centers[..., 0] > 0.5),  # same cell count
        "full-box": g,
        "other-lattice": shifted.crop(_left_half(g))[0],  # same shape, offset and mask
        "uncropped": g.with_mask(_left_half(g)),  # the same cells on the full box
    }[where]
    derivatives = []
    monkeypatch.setattr(fields, "_derivative_blocks", lambda *a: derivatives.append(a))
    with pytest.raises(ValueError, match="map's grid"):
        check(vm, _data_on(other))
    assert derivatives == []  # rejected before any derivative work


def test_distortion_data_on_an_equal_grid_accepted():
    g, vm = _left_half_map()
    twin = g.crop(_left_half(g))[0]  # equal, not the same object
    data = _data_on(twin)
    assert verify_distortion(vm, data).checked_cells == vm.grid.cell_count
    assert residual_defect(vm, data.K).grid is vm.grid
    assert sup_bound_chain(vm, data, 0, 10.0, "above").trivial


def bump(pts, center=(0.5, 0.5), radius=0.4):
    d2 = ((pts - np.asarray(center)) ** 2).sum(axis=-1) / radius**2
    out = np.zeros(len(pts))
    inside = d2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - d2[inside]))
    return out


def bump_times_x2(pts):
    return np.stack([bump(pts), pts[..., 1]], axis=-1)


# ------------------------------------------------------------ jacobian parts


def test_jacobian_parts_identity_and_reflection():
    g = build_grid(CENTERED, 16)
    ident = sample(g, lambda p: p)
    jp, jm = jacobian_parts(ident)
    assert np.allclose(jp.values, 1.0, atol=1e-12)
    assert np.allclose(jm.values, 0.0)

    refl = sample(g, lambda p: p[..., ::-1])
    jp, jm = jacobian_parts(refl)
    assert np.allclose(jp.values, 0.0)
    assert np.allclose(jm.values, 1.0, atol=1e-12)


def test_jacobian_parts_folding_map():
    g = build_grid(CENTERED, 32)
    fold = sample(g, lambda p: np.stack([np.abs(p[..., 0]), p[..., 1]], axis=-1))
    jp, jm = jacobian_parts(fold)
    x1 = g.masked_centers[:, 0]
    assert np.all(jm.values[x1 < 0] > 0)
    assert np.all(jm.values[x1 > 0] == 0)


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_jacobian_parts_reconstruction(seed):
    rng = np.random.default_rng(seed)
    g = build_grid(CENTERED, 8)
    A = rng.normal(size=(2, 2))
    vm = sample(g, lambda p: p @ A.T)
    jp, jm = jacobian_parts(vm)
    assert np.allclose(jp.values - jm.values, np.linalg.det(A), atol=1e-10)
    assert np.all(jp.values >= 0) and np.all(jm.values >= 0)


# ------------------------------------------------------ pointwise distortion


def test_pointwise_distortion_identity():
    g = build_grid(CENTERED, 16)
    pk = pointwise_distortion(sample(g, lambda p: p))
    assert np.allclose(pk.values, 1.0, atol=1e-9)


def test_pointwise_distortion_winding():
    ex = make_example("winding", k=3)
    vm = sample_map(ex, 256)
    pk = pointwise_distortion(vm)
    r = np.sqrt((pk.grid.masked_centers**2).sum(axis=1))
    ring = (r >= 0.1) & (r <= 0.9)
    assert np.allclose(pk.values[ring], 3.0, rtol=0.03)


def test_pointwise_distortion_radial_log():
    ex = make_example("radial_log")
    vm = sample_map(ex, 256)
    pk = pointwise_distortion(vm)
    r = np.sqrt((pk.grid.masked_centers**2).sum(axis=1))
    for r0 in (0.1, 0.3):
        near = np.abs(r - r0) < 0.01
        target = 2 * np.log(1.0 / r[near])
        assert np.allclose(pk.values[near], target, rtol=0.03)


def test_pointwise_distortion_undefined_for_reversing_map():
    g = build_grid(CENTERED, 8)
    refl = sample(g, lambda p: p[..., ::-1])  # J = -1 everywhere
    with pytest.raises(ValueError):
        pointwise_distortion(refl)


def test_pointwise_distortion_at_least_one():
    rng = np.random.default_rng(11)
    g = build_grid(CENTERED, 24)
    vm = sample(g, lambda p: p + 0.05 * np.sin(3 * p[..., ::-1]))
    pk = pointwise_distortion(vm)
    assert np.all(pk.values >= 1.0 - 1e-9)


# ------------------------------------------------------------ residual defect


def test_residual_defect_identity_zero():
    g = build_grid(CENTERED, 16)
    ident = sample(g, lambda p: p)
    sigma = residual_defect(ident, const_field(g, 1.0))
    assert np.allclose(sigma.values, 0.0, atol=1e-9)


def test_residual_defect_x_over_norm():
    ex = make_example("x_over_norm")
    g = build_grid(ex.default_domain, 256)
    vm = sample_map(ex, g)
    sigma = residual_defect(vm, const_field(g, 1.0))
    r = np.sqrt((g.masked_centers**2).sum(axis=1))
    ring = (r > 0.2) & (r < 0.8)
    assert np.allclose(sigma.values[ring], r[ring] ** -2.0, rtol=0.05)


def test_residual_defect_winding_quasiregular():
    ex = make_example("winding", k=2)
    g = build_grid(ex.default_domain, 128)
    vm = sample_map(ex, g)
    sigma = residual_defect(vm, const_field(g, 2.0))
    r = np.sqrt((g.masked_centers**2).sum(axis=1))
    away = r > 0.1
    scale = 4.0  # |Df|^2 ~ k^2
    assert np.all(sigma.values[away] <= 0.02 * scale)


def test_residual_defect_requires_k_at_least_one():
    g = build_grid(CENTERED, 8)
    ident = sample(g, lambda p: p)
    with pytest.raises(ValueError):
        residual_defect(ident, const_field(g, 0.5))


@given(seed=st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_residual_then_verify_is_exact(seed):
    rng = np.random.default_rng(seed)
    g = build_grid(CENTERED, 10)
    A = rng.normal(size=(2, 2))
    vm = sample(g, lambda p: p @ A.T + 0.1 * np.sin(p))
    K = const_field(g, 1.0 + rng.uniform(0, 3))
    sigma = residual_defect(vm, K)
    rep = verify_distortion(vm, DistortionData(K, sigma, 4.0, 4.0))
    assert rep.zero_violations
    assert rep.max_excess <= 0


def test_one_derivative_pass_per_call(monkeypatch):
    # residual_defect and verify_distortion each take D, |Df|^n and J_f
    # from a single derivative pass and, on this one-block grid, one
    # evaluation of each closed form on its masked entries
    calls = {}
    for module, name in ((fields, "_derivative_blocks"), (distortion, "_smax"), (distortion, "_det")):

        def counted(*args, _fn=getattr(module, name), _name=name, **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kw)

        monkeypatch.setattr(module, name, counted)
    g = build_grid(CENTERED, 16)
    vm = sample(g, lambda p: p @ np.array([[2.0, 0.5], [0.1, 1.0]]).T)
    K = const_field(g, 2.0)
    data = DistortionData(K, const_field(g, 0.0), 4.0, 4.0)
    for call in (lambda: residual_defect(vm, K), lambda: verify_distortion(vm, data)):
        calls.clear()
        call()
        assert calls == {"_derivative_blocks": 1, "_smax": 1, "_det": 1}


def _full_verify(vm, data, y0=None, rel_tol=None):
    """The verdict on whole masked arrays, as verify_distortion took it before
    it decided each derivative block in turn: the reference for the block loop."""
    n = vm.grid.dim
    dn, J = _derivative_powers(vm)
    K, Sigma = data.K.values, data.Sigma.values
    if y0 is not None:
        dist_n = ((np.stack([c.values for c in vm.components], axis=1) - np.asarray(y0)) ** 2).sum(axis=1) ** (n / 2.0)
        with np.errstate(invalid="ignore"):
            defect = np.where(np.isposinf(Sigma), np.inf, dist_n * Sigma)
    else:
        defect = Sigma
    rhs = K * J + defect
    resid = dn - rhs
    tol = 1e-9 * (1.0 + dn) if rel_tol is None else rel_tol * (1.0 + dn + np.abs(K * J))
    excess = resid - tol
    violated = excess > 0
    idx = np.nonzero(violated)[0]
    usable = np.isfinite(Sigma) & (K > 0)
    hvol = vm.grid.cell_volume
    return {
        "violation_indices": idx,
        "violation_lhs": dn[idx],
        "violation_rhs": rhs[idx],
        "violation_count": int(violated.sum()),
        "max_violation": float(resid.max()),
        "max_excess": float(excess.max()),
        "K_norm_p": float(((np.abs(K) ** data.p).sum() * hvol)) ** (1.0 / data.p),
        "Sigma_over_K_norm_q": float(((Sigma[usable] / K[usable]) ** data.q).sum() * hvol) ** (1.0 / data.q),
        "infinite_sigma_cells": int((~np.isfinite(Sigma)).sum()),
    }


def _full_residual(vm, K):
    dn, J = _derivative_powers(vm)
    return np.maximum(dn - K.values * J, 0.0)


def _violating_case(dim):
    """A nonlinear map on a ball cut by the box (blocks with no masked cell
    too), K in [1, 3], and Sigma a random share of the minimal defect, so
    that about half the cells violate; Sigma is +inf on every 11th cell."""
    grid = build_grid(Box((-1.0,) * dim, (1.0,) * dim), 24 if dim == 2 else 10)
    grid = grid.crop(grid.ball_mask(Ball((0.3, -0.2, 0.1)[:dim], 1.2)))[0]
    vm = sample(grid, lambda p: p + 0.3 * np.sin(3.0 * p[:, ::-1]))
    rng = np.random.default_rng(dim)
    K = ScalarField.from_values(grid, rng.uniform(1.0, 3.0, grid.cell_count), nonnegative=True)
    share = np.where(rng.uniform(size=grid.cell_count) < 0.3, 0.0, rng.uniform(0.5, 1.5, grid.cell_count))
    sigma = _full_residual(vm, K) * share
    sigma[::11] = np.inf
    return vm, DistortionData(K, ScalarField.from_values(grid, sigma, nonnegative=True, allow_infinite=True), 3.0, 4.0)


@pytest.mark.parametrize("rel_tol", [None, 3e-2])
@pytest.mark.parametrize("y0", [False, True], ids=["no-y0", "y0"])
@pytest.mark.parametrize("dim", [2, 3])
def test_block_verdicts_equal_the_whole_array_verdict(monkeypatch, dim, y0, rel_tol):
    vm, data = _violating_case(dim)
    point = (0.05, -0.1, 0.2)[:dim] if y0 else None
    ref = _full_verify(vm, data, point, rel_tol)
    ref_sigma = _full_residual(vm, data.K)
    stride = math.prod(vm.grid.shape[1:])
    assert ref["violation_count"] > 20 and np.ptp(ref["violation_indices"]) > 2 * stride  # over several blocks
    assert ref["infinite_sigma_cells"] > 0
    for block in (1, 7, stride - 1, stride + 1, fields._BLOCK):
        monkeypatch.setattr(fields, "_BLOCK", block)
        rep = verify_distortion(vm, data, y0=point, rel_tol=rel_tol)
        for key, want in ref.items():
            got = getattr(rep, key)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), (block, key)
            else:
                assert type(got) is type(want) and got == want, (block, key, got, want)
        if not y0 and rel_tol is None:  # the residual reads neither
            assert np.array_equal(residual_defect(vm, data.K).values, ref_sigma)


# --------------------------------------------------------- verify_distortion


def test_verify_identity_conformal():
    g = build_grid(CENTERED, 16)
    ident = sample(g, lambda p: p)
    data = DistortionData(const_field(g, 1.0), const_field(g, 0.0), 2.0, 2.0)
    rep = verify_distortion(ident, data)
    assert rep.zero_violations
    assert rep.K_norm_p == pytest.approx(g.measure ** 0.5)


@given(theta=st.floats(0.0, 2.0 * math.pi), scale=st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_verify_rotated_conformal_map_has_no_false_violations(theta, scale):
    # |Df|^2 = J exactly for a scaled rotation; the 2-D operator norm must
    # not lose it to cancellation on such near-conformal cells
    g = build_grid(CENTERED, 64)
    c, s = math.cos(theta), math.sin(theta)
    A = scale * np.array([[c, -s], [s, c]])
    vm = sample(g, lambda p: p @ A.T)
    rep = verify_distortion(vm, DistortionData(const_field(g, 1.0), const_field(g, 0.0), 4.0, 4.0))
    assert rep.zero_violations


def test_verify_radial_log_norm_and_violations():
    ex = make_example("radial_log")
    g = build_grid(Ball((0.0, 0.0), 1.0), 256)
    K = sample_analytic_k(ex, g)
    assert lebesgue_norm(K, 2.0) == pytest.approx(math.sqrt(2 * math.pi), rel=0.02)


def test_verify_x_over_norm_without_defect_fails_everywhere():
    ex = make_example("x_over_norm")
    g = build_grid(ex.default_domain, 64)
    vm = sample_map(ex, g)
    data = DistortionData(const_field(g, 10.0), const_field(g, 0.0), 4.0, 4.0)
    rep = verify_distortion(vm, data)
    assert rep.violation_count > 0.9 * g.cell_count


def test_verify_infinite_sigma_never_violates():
    ex = make_example("x_over_norm")
    g = build_grid(ex.default_domain, 32)
    vm = sample_map(ex, g)
    inf_sigma = ScalarField.from_values(
        g, np.full(g.cell_count, np.inf), nonnegative=True, allow_infinite=True
    )
    data = DistortionData(const_field(g, 1.0), inf_sigma, 4.0, 4.0)
    rep = verify_distortion(vm, data)
    assert rep.zero_violations
    assert rep.infinite_sigma_cells == g.cell_count


def test_verify_quasiregular_value_weighting():
    # x/|x| carries the exact defect |x|^-2; with y0 = 0 the weight |f|^2
    # is identically 1, so the value-of-finite-distortion check agrees
    # with the plain one (both at the finite-difference tolerance)
    ex = make_example("x_over_norm")
    g = build_grid(ex.default_domain, 256)
    vm = sample_map(ex, g)
    sigma = sample_analytic_sigma(ex, g)
    data = DistortionData(const_field(g, 1.0), sigma, 4.0, 4.0)
    plain = verify_distortion(vm, data, rel_tol=0.03)
    assert plain.zero_violations
    rep = verify_distortion(vm, data, y0=(0.0, 0.0), rel_tol=0.03)
    assert rep.zero_violations


def test_verify_y0_at_infinite_sigma_cell_stays_finite():
    # y0 = f at a cell with Sigma = +inf makes |f - y0|^n * Sigma = 0 * inf
    # there; the defect is +inf at such a cell whatever the distance
    g = build_grid(CENTERED, 16)
    vm = sample(g, lambda p: p * np.array([2.0, 1.0]))  # |Df|^2 = 4 > K J = 2
    sigma = np.zeros(g.cell_count)
    sigma[0] = np.inf
    Sigma = ScalarField.from_values(g, sigma, nonnegative=True, allow_infinite=True)
    data = DistortionData(const_field(g, 1.0), Sigma, 4.0, 4.0)
    plain = verify_distortion(vm, data)
    rep = verify_distortion(vm, data, y0=[c.values[0] for c in vm.components])
    assert math.isfinite(rep.max_violation) and math.isfinite(rep.max_excess)
    assert rep.violation_count == plain.violation_count == g.cell_count - 1
    assert rep.as_dict() == plain.as_dict()


NORM_CHECKS = {
    "lebesgue_norm": lambda vm, d: lebesgue_norm(d.K, d.p),
    "verify_distortion": verify_distortion,
    "sup_bound_chain": lambda vm, d: sup_bound_chain(vm, d, 0, 0.2, "above"),
}


@pytest.mark.parametrize(
    "check, k, sigma",
    [
        ("lebesgue_norm", 1e100, 0.0),
        ("verify_distortion", 1e100, 0.0),
        ("verify_distortion", 1.0, 1e100),
        ("sup_bound_chain", 1e100, 0.0),
        ("sup_bound_chain", 1.0, 1e100),
    ],
    ids=["lebesgue_norm-K", "verify-K", "verify-quotient", "chain-K", "chain-quotient"],
)
def test_lp_norm_overflow_raises_the_masked_field_error(check, k, sigma):
    # finite K and Sigma / K whose 4th powers overflow: the norms used to read inf after a warning
    g = build_grid(CENTERED, 8)
    vm = sample(g, lambda p: p)
    data = DistortionData(const_field(g, k), const_field(g, sigma), 4.0, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^field values must be finite on the mask$"):
            NORM_CHECKS[check](vm, data)


@pytest.mark.parametrize("q", [4.0, math.inf])
def test_quotient_overflow_raises_the_masked_field_error(q):
    # Sigma / K = 1e310 overflows: at q = inf the norm used to read inf after a warning
    g = build_grid(CENTERED, 8)
    vm = sample(g, lambda p: p)
    data = DistortionData(const_field(g, 1e-300), const_field(g, 1e10), 4.0, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^field values must be finite on the mask$"):
            verify_distortion(vm, data)


def test_verify_rejects_a_tolerance_that_overflows():
    # rel_tol * (1 + |Df|^n + |K J|) = 3e308: every excess read -inf after a warning
    g = build_grid(CENTERED, 8)
    vm = sample(g, lambda p: p)
    data = DistortionData(const_field(g, 1.0), const_field(g, 0.0), 4.0, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"overflows at rel_tol = 1e\+308$"):
            verify_distortion(vm, data, rel_tol=1e308)
    assert verify_distortion(vm, data, rel_tol=1e307).max_excess < 0  # 3e307 is finite


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1.0])
def test_verify_rejects_a_tolerance_that_is_negative_or_not_finite(rel_tol):
    # a NaN tolerance used to report no violation and tol_rel NaN; -1 counted every cell
    g = build_grid(CENTERED, 8)
    vm = sample(g, lambda p: p)
    data = DistortionData(const_field(g, 1.0), const_field(g, 0.0), 4.0, 4.0)
    with pytest.raises(ValueError, match=f"rel_tol must be a finite number >= 0, got {rel_tol}"):
        verify_distortion(vm, data, rel_tol=rel_tol)


@pytest.mark.parametrize("y0", [(math.nan, 0.0), (0.0, math.inf)])
def test_verify_rejects_a_non_finite_target_point(y0):
    g = build_grid(CENTERED, 8)
    vm = sample(g, lambda p: p)
    data = DistortionData(const_field(g, 1.0), const_field(g, 0.0), 4.0, 4.0)
    with pytest.raises(ValueError, match="y0 must be a finite point"):
        verify_distortion(vm, data, y0=y0)


@pytest.mark.parametrize("p, q", [(math.nan, 4.0), (4.0, math.nan)])
def test_distortion_data_rejects_nan_exponents(p, q):
    g = build_grid(CENTERED, 8)
    with pytest.raises(ValueError, match=r"exponents must lie in \[1, inf\]"):
        DistortionData(const_field(g, 1.0), const_field(g, 0.0), p, q)


@pytest.mark.parametrize("i", [2, -1])
def test_zero_integral_laws_reject_a_component_outside_the_map(i):
    g = build_grid(CENTERED, 8)
    vm = sample(g, lambda p: p)
    with pytest.raises(ValueError, match=f"component {i} is not a coordinate of the 2-D map"):
        zero_integral_check(vm, i)
    with pytest.raises(ValueError, match=f"component {i} is not a coordinate of the 2-D map"):
        weighted_zero_integral_check(vm, i, MonotoneFn.analytic(lambda t: t, math.inf))


def test_critical_holder_exponent_reported():
    g = build_grid(CENTERED, 8)
    ident = sample(g, lambda p: p)
    data = DistortionData(const_field(g, 2.0), const_field(g, 0.0), math.inf, 4.0)
    rep = verify_distortion(ident, data)
    assert rep.critical_holder_exponent == pytest.approx(0.5)  # min(1/2, 3/4)


def test_violations_csv_shape():
    ex = make_example("x_over_norm")
    g = build_grid(ex.default_domain, 16)
    vm = sample_map(ex, g)
    data = DistortionData(const_field(g, 1.0), const_field(g, 0.0), 4.0, 4.0)
    rep = verify_distortion(vm, data)
    csv = violations_csv(rep)
    assert csv.splitlines()[0] == "cell_index,lhs,rhs"
    assert len(csv.splitlines()) == rep.violation_count + 1


# ------------------------------------------------------------- zero integral


def test_zero_integral_bump_pair():
    g = build_grid(UNIT_SQUARE, 256)
    vm = sample(g, bump_times_x2)
    val = zero_integral_check(vm, 0)
    assert abs(val) <= 1e-3


def test_zero_integral_trivial_map():
    g = build_grid(UNIT_SQUARE, 32)
    vm = sample(g, lambda p: np.stack([np.zeros(len(p)), p[..., 1]], axis=-1))
    val = zero_integral_check(vm, 0)
    assert val == 0.0


def test_zero_integral_warns_without_support():
    g = build_grid(UNIT_SQUARE, 32)
    ident = sample(g, lambda p: p)
    with pytest.warns(UserWarning):
        zero_integral_check(ident, 0)


def test_support_warnings_point_at_the_caller():
    ident = sample(build_grid(UNIT_SQUARE, 16), lambda p: p)
    one = MonotoneFn.step(np.array([]), [1.0])
    for call, law in (
        (lambda: zero_integral_check(ident, 1), "the zero-integral law"),
        (lambda: weighted_zero_integral_check(ident, 1, one), "the weighted zero-integral law"),
    ):
        with pytest.warns(UserWarning, match=f"component 1 .*; {law} does not apply") as rec:
            call()
        assert [w.filename for w in rec] == [__file__]


def test_weighted_zero_integral_constant_weight():
    g = build_grid(UNIT_SQUARE, 64)
    vm = sample(g, bump_times_x2)
    plain = zero_integral_check(vm, 0)
    one = MonotoneFn.step(np.array([]), [1.0])
    val, pos, neg = weighted_zero_integral_check(vm, 0, one)
    assert val == pytest.approx(plain, abs=1e-15)
    assert val == pytest.approx(pos - neg, abs=1e-12)


def test_weighted_zero_integral_linear_weight():
    g = build_grid(UNIT_SQUARE, 256)
    vm = sample(g, bump_times_x2)
    F = MonotoneFn.analytic(lambda t: t, math.inf)
    val, pos, neg = weighted_zero_integral_check(vm, 0, F)
    assert abs(val) <= 1e-3  # scale(F) on [0, 1] is 1
    assert pos > 0 and neg > 0


def test_weighted_zero_integral_staircase_weight():
    # weight by the inverse distribution power of the bump component: the
    # two sign parts must nearly cancel
    g = build_grid(UNIT_SQUARE, 256)
    vm = sample(g, bump_times_x2)
    F = inverse_distribution_fn(vm.component(0), 0.5)
    # F is +inf above the max of |f_1|; cap it just below
    top = vm.component(0).max() * (1 - 1e-12)
    capped = MonotoneFn.analytic(lambda t, F=F: F(min(t, top)), 1e12)
    val, pos, neg = weighted_zero_integral_check(vm, 0, capped)
    assert pos == pytest.approx(neg, rel=0.01)


def test_weighted_zero_integral_rejects_infinite_weight():
    g = build_grid(UNIT_SQUARE, 32)
    vm = sample(g, bump_times_x2)
    # a weight that is +inf at attained values of |f_1|
    half = vm.component(0).max() / 2
    F = MonotoneFn.step([half], [1.0, math.inf])
    with pytest.raises(ValueError):
        weighted_zero_integral_check(vm, 0, F)


# ------------------------------------------------------------- normalization


def test_normalize_low_distortion_values():
    g = build_grid(CENTERED, 8)
    data = DistortionData(const_field(g, 0.25), const_field(g, 1.0), 4.0, 4.0)
    out = normalize_low_distortion(data)
    assert np.allclose(out.K.values, 1.0)
    assert np.allclose(out.Sigma.values, 4.0)
    zero = DistortionData(const_field(g, 0.0), const_field(g, 0.0), 4.0, 4.0)
    assert np.allclose(normalize_low_distortion(zero).K.values, 1.0)
    one = DistortionData(const_field(g, 1.0), const_field(g, 0.0), 4.0, 4.0)
    assert np.allclose(normalize_low_distortion(one).K.values, 2.0)


@given(seed=st.integers(0, 400))
@settings(max_examples=30, deadline=None)
def test_normalize_low_distortion_implication(seed):
    # if (K, Sigma) has zero violations then so does (max(1,2K), 4 Sigma)
    rng = np.random.default_rng(seed)
    g = build_grid(CENTERED, 8)
    A = rng.normal(size=(2, 2))
    vm = sample(g, lambda p: p @ A.T)
    K = const_field(g, rng.uniform(0, 2))
    sigma_needed = np.maximum(
        0.0,
        np.full(g.cell_count, np.linalg.svd(A, compute_uv=False)[0] ** 2)
        - K.values * np.linalg.det(A),
    )
    Sigma = ScalarField.from_values(g, sigma_needed * 1.001 + 1e-12, nonnegative=True)
    data = DistortionData(K, Sigma, 4.0, 4.0)
    assert verify_distortion(vm, data).zero_violations
    assert verify_distortion(vm, normalize_low_distortion(data)).zero_violations


def test_admissibility_flag():
    g = build_grid(CENTERED, 8)
    k1 = const_field(g, 1.0)
    s0 = const_field(g, 0.0)
    assert DistortionData(k1, s0, 4.0, 4.0).admissible
    assert DistortionData(k1, s0, math.inf, 2.0).admissible
    assert not DistortionData(k1, s0, 2.0, 2.0).admissible
    assert not DistortionData(k1, s0, 1.0, math.inf).admissible
