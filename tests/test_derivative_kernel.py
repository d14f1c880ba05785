"""Exactness of the planar difference-derivative kernel.

The reference below is the earlier per-entry kernel (boolean stencil
scatter per derivative, ``np.stack`` into an interleaved ``shape + (d, d)``
array).  The planar kernel must reproduce it bit for bit, NaN included,
through every consumer: gradient, grad_norm, differential, op_norm and
jacobian.  ``grad_norm`` is also checked against its earlier form, the
norm of a gradient ``VectorMap``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distlab.fields import (
    Ball,
    Box,
    Grid,
    MatrixField,
    ScalarField,
    VectorMap,
    build_grid,
    differential,
    grad_norm,
    gradient,
    jacobian,
    op_norm,
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


def _ref_gradient(grid, data):
    comps = [_ref_axis_derivative(grid, data, a) for a in range(grid.dim)]
    return np.stack(comps, axis=-1)


def _ref_grad_norm(grid, data):
    """``grad_norm`` as it was: through a gradient ``VectorMap``, which
    rejects non-finite derivatives on the mask."""
    g = VectorMap(grid, _ref_gradient(grid, data))
    return np.where(grid.mask, np.sqrt((g.data**2).sum(axis=-1)), np.nan)


def _ref_differential(vm):
    grid = vm.grid
    d = grid.dim
    rows = []
    for i in range(d):
        comps = [_ref_axis_derivative(grid, vm.data[..., i], a) for a in range(d)]
        rows.append(np.stack(comps, axis=-1))
    return np.stack(rows, axis=-2)


# ---------------------------------------------------------------- inputs


@st.composite
def masked_maps(draw):
    """Random maps on 2-D/3-D box, ball and restricted masks; off-mask
    entries are NaN, +inf or arbitrary finite values."""
    dim = draw(st.sampled_from([2, 3]))
    res = draw(st.integers(4, 20 if dim == 2 else 9))
    kind = draw(st.sampled_from(["box", "ball", "restrict"]))
    seed = draw(st.integers(0, 2**32 - 1))
    off = draw(st.sampled_from(["nan", "inf", "finite"]))
    rng = np.random.default_rng(seed)
    if kind == "ball":
        grid = build_grid(Ball((0.0,) * dim, 1.0), res)
    else:
        grid = build_grid(Box((-1.0,) * dim, (1.0,) * dim), res)
    data = rng.normal(size=grid.shape + (dim,)) * rng.uniform(0.1, 10.0)
    vm = VectorMap(grid, data)
    if kind == "restrict":
        # an off-centre ball cut by the box: one-sided cells at the box
        # faces and at the curved boundary, on both sides of each axis
        center = tuple(rng.uniform(-0.6, 0.6, dim))
        vm = vm.restrict(Ball(center, rng.uniform(0.5, 1.2)))
    fill = {"nan": np.nan, "inf": np.inf, "finite": 3.5}[off]
    data = np.where(vm.grid.mask[..., None], vm.data, fill)
    return VectorMap(vm.grid, data)


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True)


# ------------------------------------------------------------------ tests


@given(vm=masked_maps())
@settings(max_examples=80, deadline=None)
def test_planar_kernel_matches_reference(vm):
    grid = vm.grid
    try:
        ref_D = _ref_differential(vm)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            differential(vm)
        return
    D = differential(vm)
    assert D.data.shape == ref_D.shape
    assert _same(D.data, ref_D)
    ref_mf = MatrixField(grid, ref_D)
    assert _same(op_norm(D).data, op_norm(ref_mf).data)
    assert _same(jacobian(D).data, jacobian(ref_mf).data)

    for f in vm.components:
        ref_g = _ref_gradient(grid, f.data)
        assert _same(gradient(f).data, ref_g)
        assert _same(grad_norm(f).data, _ref_grad_norm(grid, f.data))


@given(vm=masked_maps(), cell=st.integers(0, 2**32 - 1), value=st.sampled_from([np.inf, 1e200]))
@settings(max_examples=40, deadline=None)
def test_grad_norm_rejects_nonfinite_like_reference(vm, cell, value):
    # a defect field may carry +inf; a huge finite value overflows the squares
    grid = vm.grid
    data = vm.data[..., 0].copy()
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
    vm = VectorMap(grid, np.random.default_rng(dim).normal(size=grid.shape + (dim,)))
    D = differential(vm)
    assert D.data.shape == grid.shape + (dim, dim)
    for i in range(dim):
        for j in range(dim):
            assert D.data[..., i, j].flags["C_CONTIGUOUS"]


def test_isolated_cell_message_unchanged():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = mask[1, 2] = True  # neighbours along axis 1, alone along axis 0
    g = Grid(2, (4, 4), (0.0, 0.0), 0.25, mask)
    f = ScalarField.from_values(g, np.array([1.0, 2.0]))
    msg = "isolated masked cell along axis 0: no neighbor for differences"
    with pytest.raises(ValueError, match=msg):
        gradient(f)
    vm = VectorMap(g, np.stack([f.data, f.data], axis=-1))
    with pytest.raises(ValueError, match=msg):
        differential(vm)
    with pytest.raises(ValueError, match=msg):
        _ref_differential(vm)
