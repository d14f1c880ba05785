"""Exactness of the planar difference-derivative kernel and its consumers.

The references below are the earlier per-entry kernel (boolean stencil
scatter per derivative, ``np.stack`` into an interleaved ``shape + (d, d)``
array) and the earlier full-box closed forms of ``op_norm``, ``jacobian``,
the distortion quotient and the minimal defect.  The planar kernel and the
masked-cell closed forms must reproduce them bit for bit, NaN included,
through every consumer: gradient, grad_norm, differential, op_norm,
jacobian, jacobian_parts, pointwise_distortion, residual_defect and
verify_distortion.  ``grad_norm`` is also checked against its earlier
form, the norm of a gradient ``VectorMap``.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distlab import fields, monotonicity
from distlab.fields import (
    Ball,
    Box,
    Grid,
    ScalarField,
    VectorMap,
    boundary_support_ok,
    build_grid,
    differential,
    grad_norm,
    gradient,
    jacobian,
    op_norm,
    sample,
)
from distlab.distortion import (
    DistortionData,
    _derivative_powers,
    jacobian_parts,
    pointwise_distortion,
    residual_defect,
    verify_distortion,
)


# ------------------------------------------------------------ reference


def _ref_shift(arr, axis, by):
    out = np.zeros_like(arr)
    src = [slice(None)] * arr.ndim
    dst = [slice(None)] * arr.ndim
    if by > 0:
        src[axis] = slice(0, arr.shape[axis] - by)
        dst[axis] = slice(by, None)
    else:
        src[axis] = slice(-by, None)
        dst[axis] = slice(0, arr.shape[axis] + by)
    out[tuple(dst)] = arr[tuple(src)]
    return out


def _ref_axis_derivative(grid, data, axis):
    h = grid.spacing
    mask = grid.mask
    filled = np.where(mask, data, 0.0)
    lo_val = _ref_shift(filled, axis, +1)
    hi_val = _ref_shift(filled, axis, -1)
    has_lo = _ref_shift(mask, axis, +1)
    has_hi = _ref_shift(mask, axis, -1)

    both = mask & has_lo & has_hi
    only_hi = mask & ~has_lo & has_hi
    only_lo = mask & has_lo & ~has_hi
    isolated = mask & ~has_lo & ~has_hi
    if isolated.any():
        raise ValueError(f"isolated masked cell along axis {axis}: no neighbor for differences")

    out = np.full(grid.shape, np.nan)
    out[both] = (hi_val[both] - lo_val[both]) / (2 * h)
    out[only_hi] = (hi_val[only_hi] - filled[only_hi]) / h
    out[only_lo] = (filled[only_lo] - lo_val[only_lo]) / h
    return out


def _ref_one_sided(mask, axis):
    """Masked cells with no masked neighbour below, and with none above."""
    return mask & ~_ref_shift(mask, axis, +1), mask & ~_ref_shift(mask, axis, -1)


def _ref_boundary_adjacent(mask):
    """The earlier full-box boolean of masked cells missing a masked
    neighbour along some axis."""
    edge = np.zeros(mask.shape, dtype=bool)
    for a in range(mask.ndim):
        edge |= np.logical_or(*_ref_one_sided(mask, a))
    return edge


def _ref_gradient(grid, data):
    comps = [_ref_axis_derivative(grid, data, a) for a in range(grid.dim)]
    return np.stack(comps, axis=-1)


def _ref_grad_norm(grid, data):
    """``grad_norm`` as it was: through a gradient ``VectorMap``, which
    rejects non-finite derivatives on the mask."""
    g = _map(grid, _ref_gradient(grid, data))
    with np.errstate(over="ignore"):  # as in the package: an overflow is rejected as non-finite
        return np.where(grid.mask, np.sqrt(sum(c.data**2 for c in g.components)), np.nan)


def _ref_differential(vm):
    grid = vm.grid
    d = grid.dim
    rows = []
    for i in range(d):
        comps = [_ref_axis_derivative(grid, vm.components[i].data, a) for a in range(d)]
        rows.append(np.stack(comps, axis=-1))
    return np.stack(rows, axis=-2)


def _ref_sym3_eig_max(a11, a22, a33, a12, a13, a23):
    p1 = a12**2 + a13**2 + a23**2
    q = (a11 + a22 + a33) / 3.0
    p2 = (a11 - q) ** 2 + (a22 - q) ** 2 + (a33 - q) ** 2 + 2.0 * p1
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    safe = np.where(p > 0, p, 1.0)
    b11, b22, b33 = (a11 - q) / safe, (a22 - q) / safe, (a33 - q) / safe
    b12, b13, b23 = a12 / safe, a13 / safe, a23 / safe
    detb = (
        b11 * (b22 * b33 - b23**2)
        - b12 * (b12 * b33 - b23 * b13)
        + b13 * (b12 * b23 - b22 * b13)
    )
    r = np.clip(detb / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    lam = q + 2.0 * p * np.cos(phi)
    return np.where(p2 > 0, lam, q)


def _ref_op_norm(grid, m):
    """``op_norm`` as it was: the closed forms over the full box."""
    if grid.dim == 2:
        a, b = m[..., 0, 0], m[..., 0, 1]
        c, d = m[..., 1, 0], m[..., 1, 1]
        smax = 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c))
    else:
        def g(i, j):
            return m[..., 0, i] * m[..., 0, j] + m[..., 1, i] * m[..., 1, j] + m[..., 2, i] * m[..., 2, j]

        lam = _ref_sym3_eig_max(g(0, 0), g(1, 1), g(2, 2), g(0, 1), g(0, 2), g(1, 2))
        smax = np.sqrt(np.maximum(lam, 0.0))
    return np.where(grid.mask, smax, np.nan)


def _ref_jacobian(grid, m):
    if grid.dim == 2:
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    else:
        det = (
            m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
        )
    return np.where(grid.mask, det, np.nan)


def _ref_quotient(grid, dn, J):
    """(sub-mask, data) of the pointwise distortion, or None where undefined."""
    defined = grid.mask & (J > 1e-12 * dn) & (dn > 0)
    if not defined.any():
        return None
    with np.errstate(invalid="ignore", divide="ignore"):
        return defined, np.where(defined, dn / J, np.nan)


def _ref_residual(grid, dn, J, K):
    return np.where(grid.mask, np.maximum(dn - K * J, 0.0), np.nan)


# ---------------------------------------------------------------- inputs


@st.composite
def masked_maps(draw, uncropped=False):
    """Random maps on 2-D/3-D box, ball and restricted masks, and on
    non-cubic boxes (some with an axis of exactly 2 cells, where no cell has
    both neighbours along it); off-mask entries are NaN, +inf or arbitrary
    finite values, and the components are views of a C-ordered,
    Fortran-ordered or strided box, or C-contiguous planes.  With ``uncropped``, a pair: the map and, for a restricted one,
    the same cells and values on the full box (else None)."""
    dim = draw(st.sampled_from([2, 3]))
    res = draw(st.integers(4, 20 if dim == 2 else 9))
    kind = draw(st.sampled_from(["box", "ball", "restrict", "slab"]))
    seed = draw(st.integers(0, 2**32 - 1))
    off = draw(st.sampled_from(["nan", "inf", "finite"]))
    layout = draw(st.sampled_from(["C", "F", "strided", "planes"]))
    rng = np.random.default_rng(seed)
    if kind == "ball":
        grid = build_grid(Ball((0.0,) * dim, 1.0), res)
    elif kind == "slab":
        shape = [draw(st.integers(2, 12 if dim == 2 else 7)) for _ in range(dim)]
        if draw(st.booleans()):
            shape[draw(st.integers(0, dim - 1))] = 2
        grid = build_grid(Box((0.0,) * dim, tuple(0.25 * n for n in shape)), shape)
    else:
        grid = build_grid(Box((-1.0,) * dim, (1.0,) * dim), res)
    data = rng.normal(size=grid.shape + (dim,)) * rng.uniform(0.1, 10.0)
    vm = _map(grid, data)
    twin = None
    fill = {"nan": np.nan, "inf": np.inf, "finite": 3.5}[off]
    if kind == "restrict":
        # an off-centre ball cut by the box: one-sided cells at the box
        # faces and at the curved boundary, on both sides of each axis
        center = tuple(rng.uniform(-0.6, 0.6, dim))
        full = grid.with_mask(grid.ball_mask(Ball(center, rng.uniform(0.5, 1.2))))
        twin = _map(full, np.where(full.mask[..., None], data, fill))
        vm = vm.restrict(full.mask)
    data = np.where(vm.grid.mask[..., None], np.stack([c.data for c in vm.components], axis=-1), fill)
    if layout == "F":
        data = np.asfortranarray(data)
    elif layout == "strided":
        data = np.repeat(data, 2, axis=-1)[..., ::2]
    elif layout == "planes":
        data = np.moveaxis(np.moveaxis(data, -1, 0).copy(), 0, -1)
    vm = _map(vm.grid, data)
    return (vm, twin) if uncropped else vm


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True)


def _map(grid, box):
    """The map whose components are the views ``box[..., i]`` of a ``shape + (dim,)`` box."""
    return VectorMap(grid, tuple(ScalarField(grid, box[..., i]) for i in range(grid.dim)))


# ------------------------------------------------------------------ tests


@given(case=masked_maps(uncropped=True))
@settings(max_examples=80, deadline=None)
def test_planar_kernel_matches_reference(case):
    vm, twin = case
    grid = vm.grid
    try:
        ref_D = _ref_differential(vm)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            differential(vm)
        return
    D = differential(vm)
    ref_rows = np.moveaxis(ref_D[grid.mask], 0, -1)
    assert D.entries.shape == ref_rows.shape
    assert _same(D.entries, ref_rows)
    assert _same(op_norm(D).data, _ref_op_norm(grid, ref_D))
    assert _same(jacobian(D).data, _ref_jacobian(grid, ref_D))

    contiguous = [ScalarField(grid, np.ascontiguousarray(c.data)) for c in vm.components]
    for f in (*vm.components, *contiguous):
        ref_g = _ref_gradient(grid, f.data)
        assert _same(np.stack([c.data for c in gradient(f).components], axis=-1), ref_g)
        assert _same(grad_norm(f).data, _ref_grad_norm(grid, f.data))

    if twin is not None:  # the cropped box gives the full box's masked values
        assert grid.shape == twin.grid.crop(twin.grid.mask)[0].shape
        D_full = differential(twin)
        assert np.array_equal(D.entries, D_full.entries)
        assert np.array_equal(op_norm(D).values, op_norm(D_full).values)
        assert np.array_equal(jacobian(D).values, jacobian(D_full).values)
        for f, f_full in zip(vm.components, twin.components):
            assert np.array_equal(grad_norm(f).values, grad_norm(f_full).values)


@given(vm=masked_maps(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_distortion_consumers_match_full_box_reference(vm, seed):
    grid = vm.grid
    try:
        ref_D = _ref_differential(vm)
    except ValueError:
        return  # an isolated cell; covered above
    dn = _ref_op_norm(grid, ref_D) ** grid.dim
    J = _ref_jacobian(grid, ref_D)
    rng = np.random.default_rng(seed)
    K = ScalarField.from_values(grid, 1.0 + rng.exponential(size=grid.cell_count), nonnegative=True)
    Sigma = ScalarField.from_values(grid, rng.exponential(size=grid.cell_count), nonnegative=True)

    jplus, jminus = jacobian_parts(vm)
    assert _same(jplus.data, np.where(grid.mask, np.maximum(J, 0.0), np.nan))
    assert _same(jminus.data, np.where(grid.mask, np.maximum(-J, 0.0), np.nan))
    ref_residual = _ref_residual(grid, dn, J, K.data)
    assert _same(residual_defect(vm, K).data, ref_residual)

    resid = (dn - (K.data * J + Sigma.data))[grid.mask]
    report = verify_distortion(vm, DistortionData(K, Sigma, 4.0, 4.0))
    assert report.max_violation == resid.max()
    assert report.violation_count == int((resid > 1e-9 * (1.0 + dn[grid.mask])).sum())

    ref_q = _ref_quotient(grid, dn, J)
    if ref_q is None:
        with pytest.raises(ValueError, match="nowhere positive"):
            pointwise_distortion(vm)
        return
    pk = pointwise_distortion(vm)
    assert np.array_equal(pk.grid.mask, ref_q[0])
    assert _same(pk.data, ref_q[1])


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fn", [op_norm, jacobian])
def test_closed_forms_allocate_on_the_mask_only(fn):
    # a ball holding about 3 % of a 48^3 box: the derivative and the closed
    # forms must not build full-box temporaries, only arrays on the ball's
    # cropped box and the returned field's array
    grid = build_grid(Box((-1.0,) * 3, (1.0,) * 3), 48)
    vm = _map(grid, np.random.default_rng(3).normal(size=grid.shape + (3,)))
    sub = vm.restrict(Ball((0.0, 0.0, 0.0), 0.385))
    assert 0.025 < sub.grid.cell_count / grid.mask.size < 0.035
    box_bytes = grid.mask.size * 8
    peak = _traced_peak(lambda: fn(differential(sub)))
    assert peak < 2 * box_bytes, f"peak {peak / box_bytes:.1f} full-box arrays"


def test_closed_forms_run_after_the_box_planes_are_freed():
    # a ball map fills about half its box; the closed forms' temporaries on
    # its cells must not coexist with the derivative's box planes, so the
    # whole residual_defect peaks no higher than differential alone
    grid = build_grid(Ball((0.0, 0.0, 0.0), 1.0), 32)
    data = np.random.default_rng(5).normal(size=grid.shape + (3,))
    vm = _map(grid, np.where(grid.mask[..., None], data, np.nan))
    K = ScalarField.from_values(grid, np.full(grid.cell_count, 2.0), nonnegative=True)
    base = _traced_peak(lambda: differential(vm))
    peak = _traced_peak(lambda: residual_defect(vm, K))
    assert peak <= 1.05 * base, f"residual_defect peak {peak / base:.3f} x differential's"


def test_differential_frees_the_component_copies_before_the_gather():
    # the strided components are copied flat for the stencils; next to them
    # and the masked rows, differential holds only the stencils and two
    # derivative blocks (the buffer and one gathered block), never box planes
    grid = build_grid(Ball((0.0, 0.0, 0.0), 1.0), 32)
    vm = _map(grid, np.random.default_rng(7).normal(size=grid.shape + (3,)))
    assert not vm.component(0).data.flags["C_CONTIGUOUS"]
    rows, copies = 9 * 8 * grid.cell_count, 3 * 8 * grid.mask.size
    block = min(fields._BLOCK, grid.mask.size)
    blocks = 2 * 9 * 8 * block + 8 * block  # and the gather's indices
    stencils = sum(8 * (lo.size + hi.size) for _, lo, hi in build_grid(grid.domain, 32).stencils) + 2 * grid.mask.size
    bound = rows + copies + blocks + stencils
    peak = _traced_peak(lambda: differential(vm))
    assert peak <= 1.05 * bound, f"peak {peak / bound:.3f} x (masked rows + copies + two blocks + stencils)"


def test_residual_defect_never_holds_the_masked_rows():
    # the closed forms take each block of the derivative as it comes: the
    # whole residual_defect peaks below the size of the masked rows alone
    # (at 64^3 the rows are 9.9 MB; the fixed blocks and their closed-form
    # temporaries are about 3 MB, so a coarser grid would not tell them apart)
    vm = sample(build_grid(Ball((0.0, 0.0, 0.0), 1.0), 64), lambda p: p + 0.3 * np.sin(3.0 * p[..., ::-1]))
    K = ScalarField.from_values(vm.grid, np.full(vm.grid.cell_count, 2.0), nonnegative=True)
    rows = differential(vm).entries.nbytes
    peak = _traced_peak(lambda: residual_defect(vm, K))
    assert peak < rows, f"residual_defect peak {peak / rows:.3f} x the masked rows"


def _block_case(dim, layout):
    """A map on an off-centre ball cut by the box (one-sided cells at the box
    faces and the curved boundary, on both sides of each axis), NaN off the
    mask, with C-contiguous, Fortran-ordered or strided components."""
    grid = build_grid(Box((-1.0,) * dim, (1.0,) * dim), 12 if dim == 2 else 10)
    sub = grid.crop(grid.ball_mask(Ball((0.4, -0.3, 0.2)[:dim], 0.9)))[0]
    rng = np.random.default_rng(dim)
    data = np.where(sub.mask[..., None], rng.normal(size=sub.shape + (dim,)), np.nan)
    if layout == "C":
        data = np.moveaxis(np.moveaxis(data, -1, 0).copy(), 0, -1)
    elif layout == "F":
        data = np.asfortranarray(data)
    return _map(sub, data)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("dim", [2, 3])
def test_block_loop_matches_reference_at_every_block_size(monkeypatch, dim, layout):
    vm = _block_case(dim, layout)
    grid = vm.grid
    mask = grid.mask
    ref_D = _ref_differential(vm)
    ref_rows = np.moveaxis(ref_D[mask], 0, -1)
    J = _ref_jacobian(grid, ref_D)[mask]
    dn = (_ref_op_norm(grid, ref_D) ** dim)[mask]
    gn = np.sqrt(sum(ref_D[..., 0, j] ** 2 for j in range(dim)))[mask]
    K = ScalarField.from_values(grid, np.full(grid.cell_count, 2.0), nonnegative=True)
    data = DistortionData(K, residual_defect(vm, K), 4.0, 4.0)
    level = float(np.median(vm.component(0).values))

    chain = []

    def recording(*args, _fn=fields._cellwise, **kw):
        chain.append(_fn(*args, **kw))
        return chain[-1]

    monkeypatch.setattr(monotonicity, "_cellwise", recording)
    stride = math.prod(grid.shape[1:])
    first = int(np.flatnonzero(mask)[0])  # a block edge inside the first masked row
    for block in (1, 7, stride - 1, stride + 1, first + 2):
        monkeypatch.setattr(fields, "_BLOCK", block)
        assert np.array_equal(differential(vm).entries, ref_rows)
        for c in vm.components:
            assert _same(grad_norm(c).data, _ref_grad_norm(grid, c.data))
        powers = _derivative_powers(vm)
        assert np.array_equal(powers[0], dn) and np.array_equal(powers[1], J)
        jplus, jminus = jacobian_parts(vm)
        assert np.array_equal(jplus.values, np.maximum(J, 0.0))
        assert np.array_equal(jminus.values, np.maximum(-J, 0.0))
        chain.clear()
        assert not monotonicity.sup_bound_chain(vm, data, 0, level, "above").trivial
        assert len(chain) == 1
        assert np.array_equal(chain[0][0], gn) and np.array_equal(chain[0][1], J)


def _huge_map(dim, scale, noise):
    grid = build_grid(Box((-1.0,) * dim, (1.0,) * dim), 6)
    rng = np.random.default_rng(dim)
    return _map(grid, scale * (grid.centers + noise * rng.normal(size=grid.shape + (dim,))))


def _huge_cell_field():
    grid = build_grid(Box((-1.0, -1.0), (1.0, 1.0)), 8)
    data = np.zeros(grid.shape)
    data[3, 4] = 1e200
    return ScalarField(grid, data)


@pytest.mark.parametrize(
    "call",
    [
        lambda: op_norm(differential(_huge_map(3, 1e120, 0.0))),
        lambda: op_norm(differential(_huge_map(3, 1e200, 1.0))),
        lambda: jacobian(differential(_huge_map(3, 1e120, 0.0))),
        lambda: jacobian(differential(_huge_map(2, 1e200, 1.0))),
        lambda: grad_norm(_huge_cell_field()),
    ],
    ids=["op_norm-3d-linear", "op_norm-3d-noisy", "jacobian-3d-linear", "jacobian-2d-noisy", "grad_norm-2d"],
)
def test_overflow_raises_only_the_documented_error(call):
    # finite input whose squares or products overflow (and then give
    # inf - inf): the contract is the ValueError, with no RuntimeWarning
    # first, which would be raised instead under the "error" filter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite on the mask"):
            call()


def _noise_map():
    grid = build_grid(Box((-1.0, -1.0), (1.0, 1.0)), 6)
    return _map(grid, 1e160 * np.random.default_rng(0).standard_normal(grid.shape + (2,)))


def _unit_data(grid):
    return DistortionData(*(ScalarField.from_values(grid, np.full(grid.cell_count, c)) for c in (1.0, 0.0)))


def _antipodal_map():
    # finite values +-1.7e308 two cells apart in both components; h = 2, so
    # only the central difference overflows, in the subtraction
    grid = build_grid(Box((-6.0, -6.0), (6.0, 6.0)), 6)
    data = np.zeros(grid.shape + (2,))
    data[1, 3], data[3, 3] = 1.7e308, -1.7e308
    return _map(grid, data)


@pytest.mark.parametrize(
    "call",
    [
        lambda vm: residual_defect(vm, _unit_data(vm.grid).K),
        lambda vm: verify_distortion(vm, _unit_data(vm.grid)),
        pointwise_distortion,
    ],
    ids=["residual_defect", "verify_distortion", "pointwise_distortion"],
)
def test_distortion_power_overflow_raises_only_the_documented_error(call):
    # |Df| is finite on the 1e160 noise map, but |Df|^n overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite on the mask"):
            call(_noise_map())


@pytest.mark.parametrize(
    "call", [lambda vm: grad_norm(vm.component(0)), differential], ids=["grad_norm", "differential"]
)
def test_difference_overflow_raises_only_the_documented_error(call):
    # the difference of the +-1.7e308 values itself overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite on the mask"):
            call(_antipodal_map())


def test_pointwise_distortion_keeps_no_cell_with_overflowing_power():
    # on x > 0 the map is diag(1e200, 1e-200): J = 1 but |Df|^2 overflows, so
    # those cells must not silently drop out of the quotient's sub-mask
    grid = build_grid(Box((-1.0, -1.0), (1.0, 1.0)), 8)
    x, y = grid.centers[..., 0], grid.centers[..., 1]
    right = x > 0
    vm = _map(grid, np.stack([np.where(right, 1e200 * x, x), np.where(right, 1e-200 * y, y)], axis=-1))
    with pytest.raises(ValueError, match="finite on the mask"):
        pointwise_distortion(vm)


@given(vm=masked_maps(), cell=st.integers(0, 2**32 - 1), value=st.sampled_from([np.inf, 1e200]))
@settings(max_examples=40, deadline=None)
def test_grad_norm_rejects_nonfinite_like_reference(vm, cell, value):
    # a defect field may carry +inf; a huge finite value overflows the squares
    grid = vm.grid
    data = vm.component(0).data.copy()
    data[tuple(np.argwhere(grid.mask)[cell % grid.cell_count])] = value
    f = ScalarField(grid, data, allow_infinite=True)
    try:
        ref = _ref_grad_norm(grid, data)
    except ValueError:  # a non-finite derivative, or an isolated cell
        with pytest.raises(ValueError, match="finite on the mask|isolated masked cell"):
            grad_norm(f)
        return
    with pytest.raises(ValueError, match="finite on the mask"):
        ScalarField(grid, ref)  # finite derivatives whose squares overflow
    with pytest.raises(ValueError, match="finite on the mask"):
        grad_norm(f)


@pytest.mark.parametrize("dim", [2, 3])
def test_differential_entries_are_contiguous_planes(dim):
    grid = build_grid(Ball((0.0,) * dim, 1.0), 12)
    vm = _map(grid, np.random.default_rng(dim).normal(size=grid.shape + (dim,)))
    D = differential(vm)
    assert D.entries.shape == (dim, dim, grid.cell_count)
    for i in range(dim):
        for j in range(dim):
            assert D.entries[i, j].flags["C_CONTIGUOUS"]


def test_isolated_cell_message_unchanged():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = mask[1, 2] = True  # neighbours along axis 1, alone along axis 0
    g = Grid(2, (4, 4), (0.0, 0.0), 0.25, mask)
    f = ScalarField.from_values(g, np.array([1.0, 2.0]))
    msg = "isolated masked cell along axis 0: no neighbor for differences"
    with pytest.raises(ValueError, match=msg):
        gradient(f)
    vm = VectorMap(g, (f, f))
    with pytest.raises(ValueError, match=msg):
        differential(vm)
    with pytest.raises(ValueError, match=msg):
        _ref_differential(vm)


@given(case=masked_maps(uncropped=True))
@settings(max_examples=60, deadline=None)
def test_stencils_are_the_one_sided_cells(case):
    # built box and ball grids, slabs with a 2-cell axis, and an off-centre
    # ball both on its full box and cropped
    vm, twin = case
    for grid in (vm.grid,) if twin is None else (vm.grid, twin.grid):
        assert len(grid.stencils) == grid.dim
        for a, (stride, no_lo, no_hi) in enumerate(grid.stencils):
            ref_lo, ref_hi = _ref_one_sided(grid.mask, a)
            assert stride == math.prod(grid.shape[a + 1 :])
            assert np.array_equal(no_lo, np.flatnonzero(ref_lo))
            assert np.array_equal(no_hi, np.flatnonzero(ref_hi))
        assert np.array_equal(grid.masked_centers, grid.centers[grid.mask])


@given(
    dim=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.2, 0.5, 0.9, 1.0]),
    edge_scale=st.sampled_from([0.0, 1e-12, 1.0]),
    hot=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_boundary_support_ok_matches_full_box_rule(dim, seed, density, edge_scale, hot):
    # random masks, isolated cells included: the one-sided cells give the
    # earlier full-box verdict, and no derivative check raises on the way;
    # ``hot`` makes a single boundary cell large
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(2, 12 if dim == 2 else 7, size=dim))
    mask = rng.random(shape) < density
    mask.flat[rng.integers(mask.size)] = True
    edge = _ref_boundary_adjacent(mask)
    values = rng.normal(size=shape) * np.where(edge, edge_scale, 1.0)
    if hot:
        values[tuple(rng.choice(np.argwhere(edge)))] = 1.0
    vmax = np.abs(values[mask]).max()
    expected = vmax == 0.0 or not (np.abs(values[edge]) >= 1e-9 * vmax).any()
    field = ScalarField(Grid(dim, shape, (0.0,) * dim, 0.25, mask), np.where(mask, values, np.nan))
    assert boundary_support_ok(field) == expected


def test_grid_keeps_no_box_sized_cache():
    # a sampled grid keeps only its mask at box size: no full-box centres and
    # no full-box boundary set, only the one-sided cell indices
    grid = build_grid(Ball((0.0, 0.0), 1.0), 64)
    field = sample(grid, lambda p: 1.0 - (p**2).sum(axis=-1))
    grad_norm(field)
    boundary_support_ok(field)

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, tuple):
            for item in obj:
                yield from arrays(item)

    kept = [x for v in vars(grid).values() for x in arrays(v)]
    assert [x.shape for x in kept if x.size >= grid.mask.size and x is not grid.mask] == []
    assert "stencils" in vars(grid)
