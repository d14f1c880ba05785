import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distlab import fields
from distlab.fields import (
    Ball,
    Box,
    Grid,
    MatrixField,
    ScalarField,
    VectorMap,
    build_grid,
    differential,
    gradient,
    grad_norm,
    integrate,
    interpolate,
    jacobian,
    op_norm,
    sample,
    sphere_points,
    sphere_trace,
    truncate,
)
from distlab.gallery import Example, make_example, sample_analytic_k, sample_analytic_sigma, sample_map
from distlab.monotonicity import ball_extrema


UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))
CENTERED = Box((-1.0, -1.0), (1.0, 1.0))
UNIT_DISK = Ball((0.0, 0.0), 1.0)


def cone(pts):
    return 1.0 - np.sqrt((pts**2).sum(axis=-1))


# ---------------------------------------------------------------- build_grid


def test_unit_square_4x4_measure():
    g = build_grid(UNIT_SQUARE, 4)
    assert g.cell_count == 16
    assert g.cell_volume == pytest.approx(1.0 / 16)
    assert g.measure == pytest.approx(1.0)


def test_disk_area_counting_oracle():
    g = build_grid(UNIT_DISK, 64)
    # independent oracle: explicit center-in-ball counting loop
    count = 0
    h = 2.0 / 64
    for i in range(64):
        for j in range(64):
            x = -1.0 + (i + 0.5) * h
            y = -1.0 + (j + 0.5) * h
            if x * x + y * y < 1.0:
                count += 1
    assert g.cell_count == count
    assert abs(g.measure - math.pi) <= 0.02 * math.pi


def test_degenerate_resolution_rejected():
    with pytest.raises(ValueError):
        build_grid(UNIT_SQUARE, 1)


def test_nonuniform_spacing_rejected():
    with pytest.raises(ValueError):
        build_grid(Box((0.0, 0.0), (2.0, 1.0)), 4)
    g = build_grid(Box((0.0, 0.0), (2.0, 1.0)), (8, 4))
    assert g.spacing == pytest.approx(0.25)


def test_grid_3d_ball():
    g = build_grid(Ball((0.0, 0.0, 0.0), 1.0), 24)
    assert g.dim == 3
    assert abs(g.measure - 4 * math.pi / 3) <= 0.05 * 4 * math.pi / 3


# -------------------------------------------------------------------- sample


def test_sample_zero_and_identity():
    g = build_grid(UNIT_SQUARE, 8)
    z = sample(g, lambda p: np.zeros(len(p)))
    assert np.all(z.values == 0.0)
    ident = sample(g, lambda p: p)
    for i in range(2):
        assert np.allclose(ident.component(i).values, g.masked_centers[:, i])


def test_sample_cone_max_at_center_cell():
    g = build_grid(UNIT_DISK, 64)
    f = sample(g, cone)
    h = g.spacing
    assert f.max() == pytest.approx(1.0 - h / math.sqrt(2.0), abs=1e-12)


def test_sample_nonfinite_rejected():
    g = build_grid(UNIT_SQUARE, 4)

    def bad(p):
        return np.full(len(p), np.inf)

    with pytest.raises(ValueError):
        sample(g, bad)
    with pytest.raises(ValueError, match="non-finite"):
        sample(g, lambda p: math.inf * math.hypot(*p))  # per point


def test_sample_per_point_evaluators_match_vectorized_twins():
    g = build_grid(UNIT_DISK, 24)
    # math.hypot raises TypeError on the whole array; np.sum of it returns a
    # scalar, not (m,): both are called again point by point
    r = sample(g, lambda p: math.hypot(*p))
    s = sample(g, lambda p: float(np.sum(p)))
    vm = sample(g, lambda p: (math.hypot(*p), p[1]))
    r_vec = sample(g, lambda p: np.hypot(p[:, 0], p[:, 1]))
    np.testing.assert_allclose(r.values, r_vec.values, rtol=1e-15)
    np.testing.assert_allclose(vm.component(0).values, r_vec.values, rtol=1e-15)
    np.testing.assert_array_equal(vm.component(1).values, g.masked_centers[:, 1])
    np.testing.assert_allclose(s.values, g.masked_centers.sum(axis=1), rtol=1e-15, atol=1e-15)


def test_sample_evaluator_error_propagates_after_one_call():
    g = build_grid(UNIT_SQUARE, 8)
    calls = []

    def broken(p):
        calls.append(np.shape(p))
        raise ValueError("broken evaluator")

    with pytest.raises(ValueError, match="broken evaluator"):
        sample(g, broken)
    assert calls == [(g.cell_count, 2)]


# ------------------------------------------------------------- slab sampling

SLAB_GRIDS = {
    "2d-ball": (Ball((0.1, -0.2), 0.9), 29),
    "2d-box": (CENTERED, 29),
    "3d-ball": (Ball((0.1, -0.2, 0.05), 0.9), 13),
    "3d-box": (Box((-1.0,) * 3, (1.0,) * 3), 13),
}


def _slab_sizes(grid):
    """_SLAB values: one plane, less than one (still one plane), a count that
    is no multiple of the plane, and more than the whole box."""
    plane = grid.mask[0].size
    return {"plane": plane, "half-plane": plane // 2, "uneven": 2 * plane + 3, "beyond": 2 * grid.mask.size}


def _slab_example(dim):
    """An example whose K and Sigma vary per cell; Sigma is +inf on a half plane."""
    return Example(
        "slabs",
        dim,
        False,
        lambda p: p,
        lambda p: 1.0 + p[:, 0] ** 2 + np.exp(p[:, -1]),
        lambda p: np.where(p[:, 0] > 0.3, np.inf, np.sin(5.0 * p[:, 1]) ** 2),
        {"domain": Box((-1.0,) * dim, (1.0,) * dim)},
    )


def _scalar_ev(p):
    return np.sin(3.0 * p[:, 0]) * np.exp(p[:, -1]) + p[:, 1] ** 3


def _vector_ev(p):
    return p * p[:, ::-1] + np.cos(p)


@pytest.mark.parametrize("slab", ["plane", "half-plane", "uneven", "beyond"])
@pytest.mark.parametrize("where", list(SLAB_GRIDS))
def test_slab_sampling_matches_the_masked_centers(monkeypatch, where, slab):
    grid = build_grid(*SLAB_GRIDS[where])
    monkeypatch.setattr(fields, "_SLAB", _slab_sizes(grid)[slab])
    centers = grid.masked_centers
    off = ~grid.mask
    f = sample(grid, _scalar_ev)
    assert np.array_equal(f.values, _scalar_ev(centers)) and np.isnan(f.data[off]).all()
    vm = sample(grid, _vector_ev)
    for c, ref in zip(vm.components, _vector_ev(centers).T):
        assert np.array_equal(c.values, ref) and np.isnan(c.data[off]).all()
    ex = _slab_example(grid.dim)
    k = ex.analytic_k(centers)
    assert np.array_equal(sample_analytic_k(ex, grid).values, k)
    assert np.array_equal(sample_analytic_k(ex, grid, clamped=True).values, np.maximum(k, 1.0))
    sigma = sample_analytic_sigma(ex, grid)
    assert np.array_equal(sigma.values, ex.analytic_sigma(centers)) and np.isinf(sigma.values).any()
    assert np.isnan(sigma.data[off]).all()


@pytest.mark.parametrize("slab", ["plane", "half-plane", "uneven", "beyond"])
def test_slab_sampling_falls_back_per_point_in_each_slab(monkeypatch, slab):
    grid = build_grid(*SLAB_GRIDS["2d-ball"])
    sizes = _slab_sizes(grid)
    monkeypatch.setattr(fields, "_SLAB", sizes[slab])
    calls = []

    def hypot(p):  # math.hypot raises TypeError on the whole array
        calls.append(np.shape(p))
        return math.hypot(*p)

    r = sample(grid, hypot)
    assert np.array_equal(r.values, [math.hypot(*c) for c in grid.masked_centers])
    step = max(1, sizes[slab] // grid.mask[0].size)
    slabs = [grid.mask[p0 : p0 + step].sum() for p0 in range(0, grid.shape[0], step)]
    arrays = [shape for shape in calls if len(shape) == 2]
    assert arrays == [(m, 2) for m in slabs if m]  # one array call per slab, then its points
    assert len(calls) == len(arrays) + grid.cell_count


def test_slab_sampling_rejects_an_output_shape_that_changes(monkeypatch):
    grid = build_grid(*SLAB_GRIDS["3d-box"])
    monkeypatch.setattr(fields, "_SLAB", grid.mask[0].size)
    calls = []

    def fickle(p):
        calls.append(len(p))
        return p[:, 0] if len(calls) == 1 else p

    with pytest.raises(ValueError, match="shape"):
        sample(grid, fickle)
    assert len(calls) == 2


def test_slab_sampling_holds_one_slab_beside_the_boxes():
    # the 64^3 identity: three output boxes, and the centers and output of
    # one 65,536-cell slab, never the (cells, 3) centers of the whole box
    grid = build_grid(Box((-1.0,) * 3, (1.0,) * 3), 64)
    ex = make_example("identity", dim=3)
    boxes = 3 * 8 * grid.mask.size
    slab = 2 * 8 * 3 * fields._SLAB
    tracemalloc.start()
    try:
        vm = sample_map(ex, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(vm.component(2).values, grid.masked_centers[:, 2])
    assert peak < boxes + 1.2 * slab, f"peak {peak / (boxes + slab):.3f} x (boxes + one slab)"


# ------------------------------------------------------------------ gradient


def test_gradient_affine_exact():
    g = build_grid(UNIT_DISK, 32)
    f = sample(g, lambda p: p[..., 0])
    grad = gradient(f)
    assert np.allclose(grad.component(0).values, 1.0, atol=1e-12)
    assert np.allclose(grad.component(1).values, 0.0, atol=1e-12)


def test_gradient_constant_zero():
    g = build_grid(UNIT_SQUARE, 6)
    f = sample(g, lambda p: np.full(len(p), 3.7))
    grad = gradient(f)
    assert all(np.allclose(c.values, 0.0) for c in grad.components)


def test_gradient_parabola_central_stencil():
    # resolution 5 puts a cell center exactly at x1 = 0.5; the central
    # difference of x1**2 there is exactly 1.0
    g = build_grid(UNIT_SQUARE, 5)
    f = sample(g, lambda p: p[..., 0] ** 2)
    grad = gradient(f)
    centers = g.masked_centers
    at_half = np.isclose(centers[:, 0], 0.5) & np.isclose(centers[:, 1], 0.5)
    val = grad.component(0).values[at_half]
    assert val == pytest.approx(1.0, abs=1e-12)


def test_gradient_isolated_cell_rejected():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = True
    mask[3, 3] = True
    g = Grid(2, (4, 4), (0.0, 0.0), 0.25, mask)
    f = ScalarField.from_values(g, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        gradient(f)


# ------------------------------------------------- differential and matrices


def test_differential_identity_and_linear():
    g = build_grid(CENTERED, 16)
    ident = sample(g, lambda p: p)
    D = differential(ident)
    assert np.allclose(D.entries, np.eye(2)[..., None], atol=1e-12)

    A = np.array([[2.0, 1.0], [0.5, -3.0]])
    lin = sample(g, lambda p: p @ A.T)
    D = differential(lin)
    assert np.allclose(D.entries, A[..., None], atol=1e-12)


def test_matrix_field_checks_its_entries():
    g = build_grid(UNIT_DISK, 8)
    assert MatrixField(g, np.zeros((2, 2, g.cell_count))).entries.shape == (2, 2, g.cell_count)
    for shape in [(2, 2, g.cell_count + 1), (3, 3, g.cell_count), g.shape + (2, 2), (g.cell_count, 2, 2)]:
        with pytest.raises(ValueError, match=r"matrix entries shape must be \(dim, dim, masked cell count\)"):
            MatrixField(g, np.zeros(shape))
    for value in (np.nan, np.inf, -np.inf):
        entries = np.zeros((2, 2, g.cell_count))
        entries[1, 0, g.cell_count // 2] = value
        with pytest.raises(ValueError, match="matrix entries must be finite on the mask"):
            MatrixField(g, entries)


def test_vector_map_from_values_checks_the_value_shape():
    g = build_grid(UNIT_DISK, 8)
    vals = np.arange(2.0 * g.cell_count).reshape(g.cell_count, 2)
    assert np.array_equal(np.stack([c.values for c in VectorMap.from_values(g, vals).components], axis=1), vals)
    for shape in [(g.cell_count,), (2,), (g.cell_count + 1, 2), (2, g.cell_count)]:
        with pytest.raises(ValueError, match=r"values must be \(masked cell count, dim\)"):
            VectorMap.from_values(g, np.zeros(shape))


@pytest.mark.parametrize("i", [2, 5, -1])
def test_component_index_outside_the_map(i):
    vm = sample(build_grid(UNIT_DISK, 8), lambda p: p)
    message = f"component {i} is not a coordinate of the 2-D map \\(0 to 1\\)"
    with pytest.raises(ValueError, match=message):
        vm.component(i)
    with pytest.raises(ValueError, match=message):
        vm.with_component(i, vm.component(0))


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_ball_radius_must_be_positive(radius):
    with pytest.raises(ValueError, match="ball radius must be positive"):
        Ball((0.0, 0.0), radius)


@pytest.mark.parametrize("lo", [(0.0, 1.0), (math.nan, 0.0)])
def test_box_must_not_be_degenerate(lo):
    with pytest.raises(ValueError, match="degenerate box"):
        Box(lo, (1.0, 1.0))


def test_winding_singular_values():
    # z -> r e^{2 i theta} has singular values {2, 1} away from the origin
    def winding(p):
        r = np.sqrt((p**2).sum(axis=-1))
        th = np.arctan2(p[..., 1], p[..., 0])
        return np.stack([r * np.cos(2 * th), r * np.sin(2 * th)], axis=-1)

    g = build_grid(UNIT_DISK, 256)
    D = differential(sample(g, winding))
    smax = op_norm(D)
    rr = np.sqrt((g.masked_centers**2).sum(axis=-1))
    ring = (rr > 0.3) & (rr < 0.7)
    assert np.allclose(smax.values[ring], 2.0, rtol=0.02)
    # second singular value via det / smax
    det = jacobian(D)
    smin = np.abs(det.values[ring]) / smax.values[ring]
    assert np.allclose(smin, 1.0, rtol=0.02)


def test_op_norm_jacobian_closed_forms():
    g = build_grid(UNIT_SQUARE, 4)
    diag = sample(g, lambda p: np.stack([2 * p[..., 0], 3 * p[..., 1]], axis=-1))
    D = differential(diag)
    assert np.allclose(op_norm(D).values, 3.0, atol=1e-12)
    assert np.allclose(jacobian(D).values, 6.0, atol=1e-12)

    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rotm = sample(g, lambda p: p @ rot.T)
    D = differential(rotm)
    assert np.allclose(op_norm(D).values, 1.0, atol=1e-12)
    assert np.allclose(jacobian(D).values, 1.0, atol=1e-12)


def test_op_norm_3d_matches_svd_oracle():
    rng = np.random.default_rng(7)
    g = build_grid(Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 4)
    A = rng.normal(size=(3, 3))
    lin = sample(g, lambda p: p @ A.T)
    D = differential(lin)
    expected = np.linalg.svd(A, compute_uv=False)[0]
    assert np.allclose(op_norm(D).values, expected, rtol=1e-10)
    assert np.allclose(jacobian(D).values, np.linalg.det(A), rtol=1e-10)


# ----------------------------------------------------------------- integrate


def test_integrate_constant_and_affine():
    g = build_grid(UNIT_SQUARE, 16)
    one = sample(g, lambda p: np.ones(len(p)))
    assert integrate(one) == pytest.approx(1.0, abs=1e-12)
    x1 = sample(g, lambda p: p[..., 0])
    assert integrate(x1) == pytest.approx(0.5, abs=1e-12)


def test_integrate_cone_on_disk():
    g = build_grid(UNIT_DISK, 256)
    f = sample(g, cone)
    assert integrate(f) == pytest.approx(math.pi / 3, rel=0.01)


# ------------------------------------------------------------------ truncate


def test_truncate_cone_above():
    g = build_grid(UNIT_DISK, 128)
    f = sample(g, cone)
    t = truncate(f, 0.5, "above")
    assert t.nonnegative
    assert t.max() == pytest.approx(0.5, abs=g.spacing)
    support = t.values > 0
    area = support.sum() * g.cell_volume
    assert area == pytest.approx(math.pi * 0.25, rel=0.05)


def test_truncate_degenerate_levels():
    g = build_grid(UNIT_SQUARE, 8)
    f = sample(g, lambda p: p[..., 0])
    assert np.all(truncate(f, 2.0, "above").values == 0.0)
    assert np.all(truncate(f, -1.0, "below").values == 0.0)


@given(level=st.floats(-2, 2))
@settings(max_examples=30, deadline=None)
def test_truncate_partition_property(level):
    g = build_grid(UNIT_SQUARE, 6)
    rng = np.random.default_rng(42)
    f = ScalarField.from_values(g, rng.uniform(-2, 2, g.cell_count))
    above = truncate(f, level, "above")
    rebuilt = above.values + np.minimum(f.values, level)
    assert np.allclose(rebuilt, f.values, atol=1e-12)


# -------------------------------------------------------------- sphere_trace


def test_sphere_trace_affine_exact():
    g = build_grid(CENTERED, 64)
    f = sample(g, lambda p: p[..., 0])
    vals = sphere_trace(f, Ball((0.0, 0.0), 0.5), 256)
    theta = 2 * np.pi * np.arange(256) / 256
    assert np.allclose(vals, 0.5 * np.cos(theta), atol=1e-12)
    assert vals.max() == pytest.approx(0.5, abs=1e-12)


def test_sphere_trace_cone_radial():
    g = build_grid(UNIT_DISK, 128)
    f = sample(g, cone)
    for r in (0.3, 0.6):
        vals = sphere_trace(f, Ball((0.0, 0.0), r), 128)
        assert np.allclose(vals, 1.0 - r, atol=2e-3)


def test_sphere_trace_3d_affine_exact():
    g = build_grid(Box((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)), 24)
    f = sample(g, lambda p: p[..., 2])
    vals = sphere_trace(f, Ball((0.0, 0.0, 0.0), 0.5), 512)
    # trilinear interpolation is exact on affine fields; the Fibonacci
    # lattice reaches the poles only in the sample limit
    assert vals.max() <= 0.5 + 1e-12
    assert vals.max() == pytest.approx(0.5, abs=0.01)
    assert vals.min() == pytest.approx(-0.5, abs=0.01)


def test_sphere_trace_outside_domain_rejected():
    g = build_grid(UNIT_DISK, 64)
    f = sample(g, cone)
    with pytest.raises(ValueError):
        sphere_trace(f, Ball((0.8, 0.0), 0.5), 64)
    with pytest.raises(ValueError):
        sphere_trace(f, Ball((0.0, 0.0), 1.2), 64)


def test_sphere_trace_within_adjacent_cell_range():
    g = build_grid(UNIT_DISK, 64)
    rng = np.random.default_rng(3)
    f = ScalarField.from_values(g, rng.uniform(0, 5, g.cell_count))
    vals = sphere_trace(f, Ball((0.0, 0.0), 0.5), 64)
    assert vals.min() >= f.min() - 1e-12
    assert vals.max() <= f.max() + 1e-12


# ---------------------------------------------------------------- invariants


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_integrate_monotone(seed):
    g = build_grid(UNIT_SQUARE, 5)
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, g.cell_count)
    b = a + rng.uniform(0, 1, g.cell_count)
    fa = ScalarField.from_values(g, a)
    fb = ScalarField.from_values(g, b)
    assert integrate(fa) <= integrate(fb)


@given(seed=st.integers(0, 10_000), c=st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_integrate_linear(seed, c):
    g = build_grid(UNIT_SQUARE, 5)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, g.cell_count)
    b = rng.uniform(-1, 1, g.cell_count)
    combo = ScalarField.from_values(g, a + c * b)
    fa, fb = ScalarField.from_values(g, a), ScalarField.from_values(g, b)
    assert integrate(combo) == pytest.approx(integrate(fa) + c * integrate(fb), abs=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_op_norm_dominates_det_root(seed):
    g = build_grid(UNIT_SQUARE, 4)
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(2, 2))
    D = differential(sample(g, lambda p: p @ A.T))
    lhs = op_norm(D).values
    rhs = np.abs(jacobian(D).values) ** 0.5
    assert np.all(lhs >= rhs - 1e-9)


def test_grad_norm_matches_components():
    g = build_grid(UNIT_SQUARE, 8)
    f = sample(g, lambda p: p[..., 0] + 2 * p[..., 1])
    gn = grad_norm(f)
    assert np.allclose(gn.values, math.sqrt(5.0), atol=1e-12)


# ----------------------------------------------------------------- ball_mask


def _ref_ball_mask(grid, ball):
    """The full-box formula ``Grid.ball_mask`` used before it was windowed."""
    d2 = ((grid.centers - np.asarray(ball.center)) ** 2).sum(axis=-1)
    return grid.mask & (d2 < ball.radius**2)


@st.composite
def grids_and_balls(draw):
    """2-D/3-D square and oblong box grids, ball-domain grids and masked
    sub-grids, with balls centred on lattice points (cell centres or
    corners) of radius k*h, or anywhere, partly outside the box or small
    enough to hold no cell centre."""
    dim = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["box", "oblong", "ball", "sub"]))
    n = draw(st.integers(2, 24 if dim == 2 else 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "oblong":
        grid = build_grid(Box((-1.0,) * dim, (2.0,) + (1.0,) * (dim - 1)), (3 * n,) + (2 * n,) * (dim - 1))
    elif kind == "ball":
        grid = build_grid(Ball(tuple(rng.uniform(-0.5, 0.5, dim)), rng.uniform(0.5, 2.0)), n + 2)
    else:
        grid = build_grid(Box((-1.0,) * dim, (1.0,) * dim), n)
    if kind == "sub":
        sub = grid.mask & (rng.uniform(size=grid.shape) < 0.6)
        sub.flat[rng.integers(sub.size)] = True
        grid = grid.with_mask(sub)
    h = grid.spacing
    if draw(st.booleans()):  # lattice centre and radius k*h: ties at d2 == r**2
        half = draw(st.integers(0, 1)) / 2.0
        idx = [draw(st.integers(-3, grid.shape[a] + 3)) for a in range(dim)]
        center = tuple(grid.origin[a] + (idx[a] + half) * h for a in range(dim))
        radius = draw(st.sampled_from([0.3, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0])) * h
    else:
        center = tuple(rng.uniform(-1.5, 1.5, dim))
        radius = float(draw(st.sampled_from([0.2, 1.0, 4.0, 20.0]))) * h * rng.uniform(0.5, 1.5)
    return grid, Ball(center, radius)


@given(case=grids_and_balls())
@settings(max_examples=300, deadline=None)
def test_ball_mask_matches_full_box_formula(case):
    grid, ball = case
    got = grid.ball_mask(ball)
    assert got.shape == grid.shape and got.dtype == bool
    assert np.array_equal(got, _ref_ball_mask(grid, ball))


def test_ball_mask_excludes_ties():
    # dyadic spacing: the cells 3h along an axis from a cell centre sit at
    # d2 == r**2 exactly, and the ball is open
    g = build_grid(CENTERED, 16)
    h = g.spacing
    center = tuple(g.centers[8, 8])
    mask = g.ball_mask(Ball(center, 3 * h))
    d2 = ((g.centers - np.asarray(center)) ** 2).sum(axis=-1)
    assert (d2 == (3 * h) ** 2).sum() == 4
    assert not mask[d2 == (3 * h) ** 2].any()
    assert not mask[11, 8] and mask[10, 8]
    assert np.array_equal(mask, _ref_ball_mask(g, Ball(center, 3 * h)))


def test_ball_mask_partly_outside_box():
    g = build_grid(Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), 10)
    ball = Ball((0.0, 0.5, 1.05), 0.45)
    mask = g.ball_mask(ball)
    assert 0 < mask.sum() * g.cell_volume < 0.5 * 4 / 3 * np.pi * 0.45**3  # under half the ball
    assert np.array_equal(mask, _ref_ball_mask(g, ball))


def test_ball_mask_rejects_other_dimension():
    for grid, ball in [
        (build_grid(CENTERED, 8), Ball((0.0, 0.0, 0.0), 0.5)),
        (build_grid(Box((-1.0,) * 3, (1.0,) * 3), 4), Ball((0.0, 0.0), 0.5)),
    ]:
        with pytest.raises(ValueError, match="ball dimension does not match the grid"):
            grid.ball_mask(ball)


def test_ball_without_cell_centers():
    g = build_grid(CENTERED, 16)
    f = sample(g, cone)
    h = g.spacing
    for ball in (Ball((0.0, 0.0), 0.3 * h), Ball((3.0, 0.0), 0.5)):
        mask = g.ball_mask(ball)
        assert mask.shape == g.shape and not mask.any()
        assert np.array_equal(mask, _ref_ball_mask(g, ball))
    # the corner (0, 0) is 0.707h from the nearest cell centres
    with pytest.raises(ValueError, match="ball contains no cell centers at this resolution"):
        ball_extrema(f, Ball((0.0, 0.0), 0.3 * h), 64)


# ------------------------------------------------------------------ restrict

CUBE = Box((-1.0,) * 3, (1.0,) * 3)


def test_restrict_crops_to_the_ball_box():
    # |x| < 0.75 keeps the cells 12..83 of 96 on each axis, plus one cell per side
    g = build_grid(CUBE, 96)
    sub = sample(g, lambda p: p[..., 0]).restrict(Ball((0.0, 0.0, 0.0), 0.75))
    assert sub.grid.shape == (74, 74, 74)
    assert sub.grid.offset == (11, 11, 11)
    assert all(type(n) is int for n in sub.grid.shape + sub.grid.offset)
    assert sub.grid.cell_count == int(g.ball_mask(Ball((0.0, 0.0, 0.0), 0.75)).sum())
    assert sub.grid.domain is None


def test_crop_window_clipped_at_the_box_faces():
    g = build_grid(CENTERED, 32)
    ball = Ball((0.8, -0.55), 0.5)  # leaves the box at x = 1 and y = -1
    mask = g.ball_mask(ball)
    rows, cols = np.nonzero(mask)
    assert rows.max() == 31 and cols.min() == 0
    sub, window = g.crop(ball)
    assert window == (slice(int(rows.min()) - 1, 32), slice(0, int(cols.max()) + 2))
    assert sub.shape == mask[window].shape and np.array_equal(sub.mask, mask[window])
    assert sub.offset == (window[0].start, 0)
    # a crop of a crop keeps counting from the first lattice
    inner, inner_window = sub.crop(sub.ball_mask(Ball((0.9, -0.6), 0.2)))
    assert inner.offset == tuple(o + w.start for o, w in zip(sub.offset, inner_window))
    assert np.array_equal(inner.masked_centers, g.centers[g.ball_mask(Ball((0.9, -0.6), 0.2)) & mask])


def test_restricted_grid_keeps_the_parent_centres_bit_for_bit():
    # spacing 0.05 and an off-centre ball: a moved origin would shift centres by an ulp
    g = build_grid(CUBE, 40)
    f = sample(g, lambda p: p[..., 0] * p[..., 1] + np.sin(3.0 * p[..., 2]))
    ball = Ball((0.11, -0.07, 0.05), 0.6)
    r = f.restrict(ball)
    sub, window = g.crop(ball)
    full = g.with_mask(g.ball_mask(ball))  # the same cells on the full box
    assert np.array_equal(r.grid.centers, g.centers[window])
    assert np.array_equal(r.grid.masked_centers, full.masked_centers)
    assert np.array_equal(r.values, f.data[full.mask])
    small = Ball((0.2, 0.03, -0.1), 0.28)
    assert np.array_equal(r.grid.ball_mask(small), full.ball_mask(small)[window])
    f_full = ScalarField.from_values(full, f.data[full.mask])
    assert np.array_equal(sphere_trace(r, small, 300), sphere_trace(f_full, small, 300))
    pts = sphere_points(Ball(small.center, 0.21), 200)
    assert np.array_equal(interpolate(r, pts), interpolate(f_full, pts))


# ------------------------------------------------------------- vector maps


def test_map_components_are_the_stored_fields():
    g = build_grid(UNIT_DISK, 16)
    vm = sample(g, lambda p: p)
    assert all(vm.component(i) is vm.components[i] for i in range(2))
    x = ScalarField.from_values(g, np.ones(g.cell_count))
    swapped = vm.with_component(1, x)
    assert swapped.component(1) is x and swapped.component(0) is vm.component(0)  # shared, not copied
    assert vm.component(1) is not x


def test_map_components_must_live_on_the_map_grid():
    g = build_grid(UNIT_DISK, 16)
    x, y = sample(g, lambda p: p).components
    for comps in [(x,), (x, y, x)]:
        with pytest.raises(ValueError, match="a map on a 2-D grid needs 2 components"):
            VectorMap(g, comps)
    other_lattice = sample(build_grid(Ball((0.0, 0.0), 2.0), 16), lambda p: p[..., 0])
    half = g.with_mask(g.mask & (g.centers[..., 0] < 0))
    other_mask = ScalarField.from_values(half, np.zeros(half.cell_count))
    for comp in (other_lattice, other_mask):
        with pytest.raises(ValueError, match="map components must live on the map's grid"):
            VectorMap(g, (x, comp))
    twin = build_grid(UNIT_DISK, 16)  # an equal grid, not the same object
    assert VectorMap(g, (x, ScalarField.from_values(twin, y.values))).component(1).grid is twin
    vals = y.values.copy()
    may_be_infinite = ScalarField.from_values(g, vals, allow_infinite=True)
    assert VectorMap(g, (x, may_be_infinite)).component(1) is may_be_infinite
    vals[3] = np.inf
    with pytest.raises(ValueError, match="map values must be finite on the mask"):
        VectorMap(g, (x, ScalarField.from_values(g, vals, allow_infinite=True)))


@pytest.mark.parametrize("where", [Ball((0.1, 0.0, -0.1), 0.8), Ball((0.9, 0.9, 0.9), 0.3)], ids=["inside", "corner"])
def test_restricted_map_components_are_the_restricted_fields(where):
    g = build_grid(CUBE, 24)
    vm = sample(g, lambda p: np.stack([p[..., 0] * p[..., 1], np.sin(p[..., 2]), p[..., 0] - p[..., 2]], axis=-1))
    sub = vm.restrict(where)
    for c, r in zip(vm.components, sub.components, strict=True):
        alone = c.restrict(where)
        assert r.grid is sub.grid and alone.grid.offset == sub.grid.offset
        assert np.array_equal(alone.grid.mask, sub.grid.mask)
        assert np.array_equal(r.data, alone.data, equal_nan=True)


def test_map_component_and_restrict_copy_no_boxes():
    g = build_grid(CUBE, 40)
    vm = sample(g, lambda p: p)
    ball = Ball((0.1, 0.0, -0.1), 0.8)
    tracemalloc.start()
    try:
        for i in range(3):
            vm.component(i)
        component_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        sub = vm.restrict(ball)
        restrict_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert component_peak < 1024
    # three cropped boxes, the crop's boolean masks (up to 3 bytes a cell of the
    # parent box) and one masked gather (values and finiteness) at a time
    bound = 3 * 8 * sub.grid.mask.size + 3 * g.mask.size + 9 * sub.grid.cell_count
    assert restrict_peak <= bound, f"restrict peak {restrict_peak / bound:.2f} x bound"


def test_crop_keeps_only_the_cropped_mask():
    # the sub-grid owns a contiguous copy of its window of the mask, so it does
    # not keep the parent box's mask alive, and the subset check runs on the
    # window: restrict builds no full-box mask but the ball's own
    g = build_grid(CUBE, 40)
    vm = sample(g, lambda p: p)
    ball = Ball((0.1, -0.05, 0.0), 0.5)
    sub = vm.restrict(ball)
    assert sub.grid.mask.base is None and sub.grid.mask.flags["C_CONTIGUOUS"]
    tracemalloc.start()
    try:
        vm.restrict(ball)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # three cropped boxes, the ball's full-box mask, the cropped mask and one
    # temporary on the window
    window = sub.grid.mask.size
    bound = 1.05 * (3 * 8 * window + g.mask.size + 2 * window)
    assert peak <= bound, f"restrict peak {peak / bound:.2f} x bound"


def test_crop_rejects_an_empty_or_foreign_mask():
    g = build_grid(UNIT_DISK, 16)
    with pytest.raises(ValueError, match="empty domain mask"):
        g.crop(np.zeros(g.shape, dtype=bool))
    with pytest.raises(ValueError, match="new mask must be a subset of the current mask"):
        g.crop(~g.mask)


@pytest.mark.parametrize("dim", [1, 4])
def test_sphere_points_need_a_2d_or_3d_ball(dim):
    with pytest.raises(ValueError, match="sphere points need a 2-D or 3-D ball"):
        sphere_points(Ball((0.0,) * dim, 1.0), 16)


def test_interpolation_outside_the_cropped_box():
    # a point inside the parent box but outside the cropped one reads as
    # outside the sampled box; the parent box reports the masked domain
    g = build_grid(CENTERED, 32)
    f = sample(g, cone)
    r = f.restrict(Ball((0.0, 0.0), 0.4))
    f_full = ScalarField.from_values(g.with_mask(g.ball_mask(Ball((0.0, 0.0), 0.4))), r.values)
    with pytest.raises(ValueError, match="stencil leaves the masked domain"):
        interpolate(r, [[0.39, 0.0]])  # the stencil reaches the padding cell
    with pytest.raises(ValueError, match="stencil leaves the masked domain"):
        interpolate(f_full, [[0.8, 0.0]])
    with pytest.raises(ValueError, match="interpolation point outside the sampled box"):
        interpolate(r, [[0.8, 0.0]])
