"""Discretization substrate: grids, sampled fields, derivative surrogates.

Everything downstream works on cell-centered uniform lattices in dimension
2 or 3 with a boolean domain mask (box or ball domains).  Sampled scalar
fields and vector maps stand in for Sobolev functions and mappings; weak
derivatives are replaced by central differences (one-sided at the mask
boundary), integrals by the midpoint rule, and restrictions to spheres by
multilinear interpolation at fixed quadrature points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Box",
    "Ball",
    "Grid",
    "ScalarField",
    "VectorMap",
    "MatrixField",
    "build_grid",
    "sample",
    "gradient",
    "differential",
    "grad_norm",
    "op_norm",
    "jacobian",
    "integrate",
    "truncate",
    "sphere_trace",
    "interpolate",
    "sphere_points",
    "boundary_support_ok",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box domain [lo_1, hi_1] x ... x [lo_n, hi_n]."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box lo/hi dimension mismatch")
        if not all(l < h for l, h in zip(self.lo, self.hi)):
            raise ValueError("degenerate box")


@dataclass(frozen=True)
class Ball:
    """Euclidean ball; also used for sphere traces and ball extrema."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        _check_radius(self.radius)

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True, eq=False)
class Grid:
    """Cell-centered uniform lattice with a domain mask.

    ``shape`` counts cells per axis, ``spacing`` is the common cell width h,
    and ``mask`` marks the cells whose center lies inside the domain.  The
    domain measure is exactly (masked cell count) * h**dim.  ``domain``
    records the box/ball descriptor when the grid was built from one
    (needed to serialize fields); mask-restricted grids carry None.
    ``offset`` is the index of the first cell in the lattice that ``origin``
    anchors: zeros for a built grid, the window start for a cropped one.
    """

    dim: int
    shape: tuple[int, ...]
    origin: tuple[float, ...]
    spacing: float
    mask: np.ndarray
    domain: "Box | Ball | None" = None
    offset: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.offset is None:
            object.__setattr__(self, "offset", (0,) * self.dim)
        if not len(self.shape) == len(self.origin) == len(self.offset) == self.dim:
            raise ValueError("shape/origin/offset do not match dim")
        if any(n < 2 for n in self.shape):
            raise ValueError("need at least 2 cells per axis")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        if self.mask.shape != self.shape or self.mask.dtype != bool:
            raise ValueError("mask must be a boolean array of the grid shape")
        if not self.mask.any():
            raise ValueError("empty domain mask")

    @cached_property
    def cell_count(self) -> int:
        return int(self.mask.sum())

    @property
    def measure(self) -> float:
        return self.cell_count * self.cell_volume

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def centers(self) -> np.ndarray:
        """Cell centers over the full box, shape ``shape + (dim,)``."""
        return np.stack(np.meshgrid(*map(self._axis_coords, range(self.dim)), indexing="ij"), axis=-1)

    def _axis_coords(self, a: int) -> np.ndarray:
        """Cell-center coordinates along axis ``a``, bit for bit those of the uncropped lattice."""
        return self.origin[a] + (np.arange(self.shape[a]) + self.offset[a] + 0.5) * self.spacing

    @property
    def masked_centers(self) -> np.ndarray:
        """Centers of masked cells, shape ``(cell_count, dim)`` (the values of ``centers[mask]``, without the box)."""
        return self._plane_centers(0, self.shape[0])

    def _plane_centers(self, p0: int, p1: int) -> np.ndarray:
        """Centers of the masked cells in planes ``p0:p1`` of axis 0, gathered one axis at a time."""
        keep = self.mask[p0:p1]
        out = np.empty((np.count_nonzero(keep), self.dim))
        for a in range(self.dim):
            coords = self._axis_coords(a)[p0:p1] if a == 0 else self._axis_coords(a)
            out[:, a] = np.broadcast_to(coords.reshape((-1,) + (1,) * (self.dim - 1 - a)), keep.shape)[keep]
        return out

    @cached_property
    def stencils(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """Per axis ``(stride, no_lo, no_hi)``: the flat stride and the sorted flat
        indices of the masked cells with no masked neighbor below and with none
        above, where differences are one-sided; together, the boundary-adjacent cells."""
        out = []
        for a in range(self.dim):
            lo, hi = (slice(None),) * a + (slice(1, None),), (slice(None),) * a + (slice(None, -1),)
            no_lo, no_hi = self.mask.copy(), self.mask.copy()
            no_lo[lo] &= ~self.mask[hi]
            no_hi[hi] &= ~self.mask[lo]
            out.append((math.prod(self.shape[a + 1 :]), np.flatnonzero(no_lo), np.flatnonzero(no_hi)))
        return tuple(out)

    def with_mask(self, new_mask: np.ndarray) -> "Grid":
        """Same lattice restricted to a sub-mask (drops the domain tag)."""
        new_mask = np.asarray(new_mask, dtype=bool)
        if not (new_mask & ~self.mask).sum() == 0:
            raise ValueError("new mask must be a subset of the current mask")
        return Grid(self.dim, self.shape, self.origin, self.spacing, new_mask, offset=self.offset)

    def crop(self, where: Ball | np.ndarray) -> tuple["Grid", tuple[slice, ...]]:
        """Sub-grid of a sub-domain (ball or sub-mask) on its bounding box plus
        one cell, clipped to this box, and that window into this box."""
        mask = np.asarray(self.ball_mask(where) if isinstance(where, Ball) else where, dtype=bool)
        others = [tuple(b for b in range(self.dim) if b != a) for a in range(self.dim)]
        idx = [np.flatnonzero(mask.any(axis=axes)) for axes in others]
        if not idx[0].size:
            raise ValueError("empty domain mask")
        window = tuple(slice(max(int(i[0]) - 1, 0), min(int(i[-1]) + 2, n)) for i, n in zip(idx, self.shape))
        shape = tuple(s.stop - s.start for s in window)
        offset = tuple(o + s.start for o, s in zip(self.offset, window))
        sub = mask[window].copy()  # holds every masked cell; a view would keep this box's mask alive
        if (sub & ~self.mask[window]).any():
            raise ValueError("new mask must be a subset of the current mask")
        return Grid(self.dim, shape, self.origin, self.spacing, sub, offset=offset), window

    def ball_mask(self, ball: Ball) -> np.ndarray:
        """Masked cells whose center lies in the open ball.  d2 adds nonnegative
        axis terms in axis order, so only the window where each is < r**2 is summed."""
        if ball.dim != self.dim:
            raise ValueError("ball dimension does not match the grid")
        r2, window, d2 = ball.radius**2, [], 0.0
        for a in range(self.dim):
            t = (self._axis_coords(a) - ball.center[a]) ** 2
            idx = np.flatnonzero(t < r2)  # contiguous: t falls, then rises
            window.append(slice(idx[0], idx[-1] + 1) if idx.size else slice(0))
            d2 = d2 + t[window[-1]].reshape((-1,) + (1,) * (self.dim - 1 - a))
        out = np.zeros(self.shape, dtype=bool)
        out[tuple(window)] = self.mask[tuple(window)] & (d2 < r2)
        return out


def _same_lattice(a: Grid, b: Grid) -> bool:
    """Same shape, offset, origin and spacing (to 1e-12, as in the field
    file format); the masks may differ."""
    pairs = [(a.spacing, b.spacing), *zip(a.origin, b.origin)]
    same = a.shape == b.shape and a.offset == b.offset
    return same and all(abs(x - y) <= 1e-12 * max(1.0, abs(y)) for x, y in pairs)


def _lives_on(field: "ScalarField", grid: Grid) -> bool:
    """The field's grid is ``grid``, or has the same lattice and mask."""
    return field.grid is grid or (_same_lattice(field.grid, grid) and np.array_equal(field.grid.mask, grid.mask))


def build_grid(domain: Box | Ball, resolution: int | Sequence[int]) -> Grid:
    """Lay a cell-centered lattice over a box or ball domain.

    ``resolution`` gives cells per axis (a single int applies to every
    axis).  The spacing must come out uniform across axes, which for boxes
    requires the resolution to match the aspect ratio.
    """
    if isinstance(domain, Ball):
        dim = domain.dim
        lo = tuple(c - domain.radius for c in domain.center)
        hi = tuple(c + domain.radius for c in domain.center)
    else:
        dim = len(domain.lo)
        lo, hi = domain.lo, domain.hi
    if dim not in (2, 3):
        raise ValueError("only dimensions 2 and 3 are supported")

    if isinstance(resolution, int):
        res = (resolution,) * dim
    else:
        res = tuple(int(r) for r in resolution)
        if len(res) != dim:
            raise ValueError("resolution length does not match dimension")
    if any(r < 2 for r in res):
        raise ValueError("resolution must be at least 2 cells per axis")

    spacings = [(hi[a] - lo[a]) / res[a] for a in range(dim)]
    h = spacings[0]
    if any(abs(s - h) > 1e-12 * h for s in spacings[1:]):
        raise ValueError("non-uniform spacing; pick a resolution matching the box aspect")

    grid = Grid(dim, res, tuple(lo), float(h), np.ones(res, dtype=bool), domain=domain)
    if isinstance(domain, Ball):
        mask = grid.ball_mask(Ball(domain.center, domain.radius))
        if not mask.any():
            raise ValueError("ball domain contains no cell centers at this resolution")
        grid = Grid(dim, res, tuple(lo), float(h), mask, domain=domain)
    return grid


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real values sampled at the masked cell centers of a grid.

    ``data`` is a full-box array; entries off the mask are NaN and never
    read; :meth:`from_values` builds one from the masked values.
    ``nonnegative`` has the constructor reject negative values; the
    distribution functions check their input themselves.
    """

    grid: Grid
    data: np.ndarray
    nonnegative: bool = False
    allow_infinite: bool = False  # only defect fields may carry +inf

    def __post_init__(self):
        if self.data.shape != self.grid.shape:
            raise ValueError("data shape does not match grid shape")
        vals = self.data[self.grid.mask]
        if self.allow_infinite:
            if np.isnan(vals).any() or (vals == -np.inf).any():
                raise ValueError("field values must not be NaN or -inf")
        else:
            _finite(vals)
        if self.nonnegative and (vals < 0).any():
            raise ValueError("field declared nonnegative but has negative values")

    @property
    def values(self) -> np.ndarray:
        """Masked values as a flat array (row-major cell order)."""
        return self.data[self.grid.mask]

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray, **kw) -> "ScalarField":
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.cell_count,):
            raise ValueError("value count must equal masked cell count")
        data = np.full(grid.shape, np.nan)
        data[grid.mask] = values
        return cls(grid, data, **kw)

    def restrict(self, where: Ball | np.ndarray) -> "ScalarField":
        """Field restricted to a sub-domain (ball or boolean mask), on the grid :meth:`Grid.crop` cuts."""
        return self._cropped(*self.grid.crop(where))

    def _cropped(self, sub: Grid, window: tuple[slice, ...]) -> "ScalarField":
        """This field on ``sub``, the grid that :meth:`Grid.crop` cut with ``window``."""
        return replace(self, grid=sub, data=np.where(sub.mask, self.data[window], np.nan))

    def max(self) -> float:
        return float(self.values.max())

    def min(self) -> float:
        return float(self.values.min())


@dataclass(frozen=True, eq=False)
class VectorMap:
    """A sampled map into R^dim: one scalar field per coordinate, each on the
    map's grid.  The components are the stored fields, not copies."""

    grid: Grid
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        if len(self.components) != self.grid.dim:
            raise ValueError(f"a map on a {self.grid.dim}-D grid needs {self.grid.dim} components")
        for c in self.components:
            if not _lives_on(c, self.grid):
                raise ValueError("map components must live on the map's grid (lattice and mask must match)")
            if c.allow_infinite and not np.isfinite(c.values).all():
                raise ValueError("map values must be finite on the mask")

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray) -> "VectorMap":
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.cell_count, grid.dim):
            raise ValueError("values must be (masked cell count, dim)")
        return cls(grid, tuple(ScalarField.from_values(grid, v) for v in values.T))

    def component(self, i: int) -> ScalarField:
        d = self.grid.dim
        if not 0 <= i < d:
            raise ValueError(f"component {i} is not a coordinate of the {d}-D map (0 to {d - 1})")
        return self.components[i]

    def with_component(self, i: int, comp: ScalarField) -> "VectorMap":
        """The map with component ``i`` replaced; the other components are shared."""
        self.component(i)  # the same index check
        return VectorMap(self.grid, self.components[:i] + (comp,) + self.components[i + 1 :])

    def restrict(self, where: Ball | np.ndarray) -> "VectorMap":
        sub, window = self.grid.crop(where)
        return VectorMap(sub, tuple(c._cropped(sub, window) for c in self.components))


@dataclass(frozen=True, eq=False)
class MatrixField:
    """A dim x dim matrix per masked cell: ``entries[i, j]`` holds D[i][j] in row-major cell order."""

    grid: Grid
    entries: np.ndarray  # shape (dim, dim, cell_count)

    def __post_init__(self):
        if self.entries.shape != (self.grid.dim, self.grid.dim, self.grid.cell_count):
            raise ValueError("matrix entries shape must be (dim, dim, masked cell count)")
        if not np.isfinite(self.entries).all():
            raise ValueError("matrix entries must be finite on the mask")


def _evaluate(evaluator: Callable, pts: np.ndarray) -> np.ndarray:
    """Values of ``evaluator`` at the rows of an ``(m, dim)`` array, as an
    ``(m,)`` or ``(m, dim)`` array (the contract stated in :func:`sample`)."""
    try:
        out = np.asarray(evaluator(pts), dtype=float)
    except TypeError:  # a per-point callable handed the whole array
        out = None
    if out is None or out.shape not in (pts.shape[:1], pts.shape):
        out = np.asarray([evaluator(p) for p in pts], dtype=float)
    if not np.isfinite(out).all():
        raise ValueError("evaluator produced non-finite values")
    return out


_BLOCK = 16384  # flat box cells per derivative block: its buffers stay in cache
_SLAB = 65536  # box cells per sampling slab: whole planes of axis 0, at least one


def _sampled(grid: Grid, fn: Callable, **kw) -> ScalarField | VectorMap:
    """``fn`` at the masked cell centers, called once per slab (``_SLAB``) that
    holds any, in row-major order; each ``(m,)`` or ``(m, k)`` output goes straight
    into NaN-filled boxes: a ScalarField built with ``kw``, or a VectorMap of k.
    An output shape that changes between slabs raises ValueError."""
    step = max(1, _SLAB // grid.mask[0].size)
    shape, boxes = None, []
    for p0 in range(0, grid.shape[0], step):
        keep = grid.mask[p0 : p0 + step]
        if not (m := np.count_nonzero(keep)):
            continue
        out = np.asarray(fn(grid._plane_centers(p0, p0 + step)), dtype=float)
        if shape is None:
            shape = out.shape[1:]
            boxes = [np.full(grid.shape, np.nan) for _ in range(math.prod(shape))]
        if out.shape != (m,) + shape:
            raise ValueError(f"evaluator returned shape {out.shape} on {m} points, not {(m,) + shape}")
        for box, col in zip(boxes, out.reshape(m, -1).T):
            box[p0 : p0 + step][keep] = col
        del out, col  # freed before the next slab's centers are built
    comps = tuple(ScalarField(grid, box, **kw) for box in boxes)
    return VectorMap(grid, comps) if shape else comps[0]


def sample(grid: Grid, evaluator: Callable) -> ScalarField | VectorMap:
    """Evaluate a point function at every masked cell center.

    The evaluator is called once per slab of whole axis-0 planes (at most
    65,536 box cells, at least one plane), in row-major order, with the
    ``(m, dim)`` array of the slab's masked centers.  Only if that call
    raises TypeError or returns a shape other than ``(m,)`` or ``(m, dim)``
    is it called once per point of the slab instead; any other error
    propagates, and non-finite values raise ValueError.  Scalar output
    yields a ScalarField, length-dim output a VectorMap.
    """
    return _sampled(grid, lambda pts: _evaluate(evaluator, pts))


def _derivative_blocks(grid: Grid, comps: Sequence[np.ndarray], span: tuple[int, int] | None = None):
    """Difference derivative on the masked cells, one block of ``_BLOCK``
    flat box cells at a time: yields ``(j0, j1, m)``, where ``m[i, j]`` holds
    d comps[i] / dx_j on masked cells ``j0:j1`` in row-major cell order.
    ``span`` limits the blocks to a flat box range; the stencils stay the whole grid's.
    Central difference where both neighbors are masked, one-sided at the mask
    boundary; exact on affine inputs either way.  A neighbor is ``s`` flat
    entries away; a central step that wraps a row lands on a cell that is not
    kept or that a one-sided difference overwrites."""
    h, n, stencils = grid.spacing, grid.mask.size, grid.stencils
    for a, (_, fwd, bwd) in enumerate(stencils):
        if np.intersect1d(fwd, bwd, assume_unique=True).size:  # each one-sided cell needs its other neighbor
            raise ValueError(f"isolated masked cell along axis {a}: no neighbor for differences")
    start, stop = span or (0, n)
    flat = [np.ravel(f) for f in comps]  # copies a component that is not C-contiguous
    keep = grid.mask.ravel()
    buf = np.empty((len(comps), grid.dim, min(_BLOCK, stop - start)))  # one block of stencils, reused for every block
    j0 = int(np.count_nonzero(keep[:start]))
    for b0 in range(start, stop, _BLOCK):
        b1 = min(b0 + _BLOCK, stop)
        # off-mask entries are never kept; an overflow is rejected as non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            for a, (s, fwd, bwd) in enumerate(stencils):
                lo, hi = max(b0, s), max(b0, s, min(b1, n - s))  # the cells with both neighbors in the box
                fw, bw = (c[np.searchsorted(c, b0) : np.searchsorted(c, b1)] for c in (fwd, bwd))
                for f, o in zip(flat, buf[:, a]):
                    central = o[lo - b0 : hi - b0]
                    np.subtract(f[lo + s : hi + s], f[lo - s : hi - s], out=central)
                    np.divide(central, 2 * h, out=central)
                    o[fw - b0] = (f[fw + s] - f[fw]) / h
                    o[bw - b0] = (f[bw] - f[bw - s]) / h
        m = np.compress(keep[b0:b1], buf[..., : b1 - b0], axis=2)
        yield j0, j0 + m.shape[2], m
        j0 += m.shape[2]


def _cellwise(grid: Grid, comps: Sequence[np.ndarray], *fns: Callable, span=None) -> list[np.ndarray]:
    """``fn(m)`` for each ``fn`` on the masked cells (zero outside ``span``), taken
    block by block from :func:`_derivative_blocks`; each ``fn`` acts cell by cell
    along the last axis, and its output's last axis runs over the cells in row-major order."""
    outs = []
    for j0, j1, m in _derivative_blocks(grid, comps, span=span):
        for k, fn in enumerate(fns):
            vals = fn(m)
            if k == len(outs):
                outs.append(np.zeros(vals.shape[:-1] + (grid.cell_count,)))
            outs[k][..., j0:j1] = vals
    return outs


def gradient(field: ScalarField) -> VectorMap:
    """Finite-difference gradient (surrogate for the weak gradient)."""
    return VectorMap.from_values(field.grid, _cellwise(field.grid, [field.data], lambda m: m[0])[0].T)


def differential(vm: VectorMap) -> MatrixField:
    """Row-wise finite-difference derivative matrix: D[i][j] = d f_i / d x_j."""
    return MatrixField(vm.grid, _cellwise(vm.grid, [c.data for c in vm.components], lambda m: m)[0])


def grad_norm(field: ScalarField) -> ScalarField:
    """Euclidean norm of the finite-difference gradient."""
    return ScalarField.from_values(field.grid, _grad_norm_values(field), nonnegative=True)


def _grad_norm_values(field: ScalarField) -> np.ndarray:
    """The masked values of :func:`grad_norm`, without its box."""
    with np.errstate(over="ignore"):  # an overflow is rejected as non-finite
        (norm,) = _cellwise(field.grid, [field.data], lambda m: np.sqrt(sum(p * p for p in m[0])))
    return _finite(norm)


def _sym3_eig_max(a11, a22, a33, a12, a13, a23):
    """Largest eigenvalue of symmetric 3x3 matrices, trigonometric closed form;
    the ``del``s keep few temporaries alive at once."""
    q = (a11 + a22 + a33) / 3.0
    p2 = (a11 - q) ** 2 + (a22 - q) ** 2 + (a33 - q) ** 2 + 2.0 * (a12**2 + a13**2 + a23**2)
    p, spread = np.sqrt(np.maximum(p2 / 6.0, 0.0)), p2 > 0
    del p2
    # det((A - q I) / p) / 2, guarded for the scalar-matrix case p == 0
    safe = np.where(p > 0, p, 1.0)
    b11, b22, b33 = (a11 - q) / safe, (a22 - q) / safe, (a33 - q) / safe
    b12, b13, b23 = a12 / safe, a13 / safe, a23 / safe
    del safe
    detb = _det(((b11, b12, b13), (b12, b22, b23), (b13, b23, b33)))
    del b11, b22, b33, b12, b13, b23
    r = np.clip(detb / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    lam = q + 2.0 * p * np.cos(phi)
    return np.where(spread, lam, q)


def _smax(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in the ``(d, d, cells)`` stack ``m``."""
    with np.errstate(over="ignore", invalid="ignore"):
        if len(m) == 2:
            (a, b), (c, d) = m
            # Blinn's factorization ("Consider the lowly 2x2 matrix", 1996);
            # sqrt(q1^2 - 4 det^2) cancels catastrophically on near-conformal cells
            return 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c))
        # Gram matrix M^T M is symmetric: build its six distinct entries
        # (about half the cost of a full einsum) and take the largest
        # eigenvalue via the cubic.
        def g(i, j):
            return m[0][i] * m[0][j] + m[1][i] * m[1][j] + m[2][i] * m[2][j]

        lam = _sym3_eig_max(g(0, 0), g(1, 1), g(2, 2), g(0, 1), g(0, 2), g(1, 2))
        return np.sqrt(np.maximum(lam, 0.0))


def _finite(vals: np.ndarray) -> np.ndarray:
    """``vals`` once checked finite, with the masked-field error otherwise."""
    if not np.isfinite(vals).all():
        raise ValueError("field values must be finite on the mask")
    return vals


def _det(m: np.ndarray) -> np.ndarray:
    """Determinant of each matrix in the ``(d, d, cells)`` stack ``m``,
    checked finite (an overflow raises the masked-field error)."""
    with np.errstate(over="ignore", invalid="ignore"):
        if len(m) == 2:
            return _finite(m[0][0] * m[1][1] - m[0][1] * m[1][0])
        return _finite(
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )


def op_norm(mf: MatrixField) -> ScalarField:
    """Largest singular value per cell (closed forms, no LAPACK calls)."""
    return ScalarField.from_values(mf.grid, _smax(mf.entries), nonnegative=True)


def jacobian(mf: MatrixField) -> ScalarField:
    """Determinant per cell."""
    return ScalarField.from_values(mf.grid, _det(mf.entries))


def integrate(field: ScalarField) -> float:
    """Midpoint rule: h^dim times the sum over masked cells."""
    return float(field.values.sum() * field.grid.cell_volume)


def _lp(vals: np.ndarray, p: float, hvol: float) -> float:
    """L^p norm of nonnegative cell values of mass ``hvol`` by the midpoint rule;
    the essential sup is the max.  ``vals`` is overwritten.  Powers or sums
    that overflow raise the masked-field error."""
    if math.isinf(p):
        return float(vals.max())
    with np.errstate(over="ignore"):
        vals **= p
        total = _finite(vals.sum() * hvol)
    return float(total) ** (1.0 / p)


def truncate(field: ScalarField, level: float, mode: str) -> ScalarField:
    """Nonnegative truncation: ``above`` gives (f - level)^+, ``below`` (level - f)^+."""
    if mode == "above":
        vals = np.maximum(field.values - level, 0.0)
    elif mode == "below":
        vals = np.maximum(level - field.values, 0.0)
    else:
        raise ValueError(f"mode must be 'above' or 'below', got {mode!r}")
    return ScalarField.from_values(field.grid, vals, nonnegative=True)


def interpolate(field: ScalarField, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation at points; every stencil cell must be masked."""
    grid = field.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t = (pts - np.asarray(grid.origin)) / grid.spacing - 0.5
    i0 = np.floor(t).astype(int)
    frac = t - i0
    i0 -= np.asarray(grid.offset)

    if (i0 < 0).any() or any((i0[:, a] + 1 >= grid.shape[a]).any() for a in range(grid.dim)):
        raise ValueError("interpolation point outside the sampled box")

    vals = np.zeros(len(pts))
    for corner in np.ndindex(*(2,) * grid.dim):
        idx = tuple(i0[:, a] + corner[a] for a in range(grid.dim))
        if not grid.mask[idx].all():
            raise ValueError("interpolation stencil leaves the masked domain")
        w = np.ones(len(pts))
        for a in range(grid.dim):
            w = w * (frac[:, a] if corner[a] else 1.0 - frac[:, a])
        vals += w * field.data[idx]
    return vals


def _check_radius(radius: float) -> None:
    if not radius > 0:
        raise ValueError("ball radius must be positive")


def _check_samples(samples: int) -> None:
    """A sphere is sampled at 8 points or more."""
    if samples < 8:
        raise ValueError("need at least 8 sphere samples")


def sphere_points(ball: Ball, samples: int) -> np.ndarray:
    """Deterministic quadrature points on a sphere: uniform angles (dim 2)
    or a Fibonacci lattice (dim 3)."""
    if ball.dim not in (2, 3):
        raise ValueError("sphere points need a 2-D or 3-D ball")
    _check_samples(samples)
    c = np.asarray(ball.center, dtype=float)
    r = ball.radius
    if ball.dim == 2:
        theta = 2.0 * np.pi * np.arange(samples) / samples
        return c + r * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    j = np.arange(samples)
    z = 1.0 - 2.0 * (j + 0.5) / samples
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    golden = np.pi * (3.0 - math.sqrt(5.0))
    theta = golden * j
    return c + r * np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=-1)


def boundary_support_ok(field: ScalarField) -> bool:
    """Grid surrogate for compact support: every boundary-adjacent cell (the
    one-sided cells of :attr:`Grid.stencils`) is below 1e-9 times the max magnitude."""
    vals = np.abs(field.values)
    vmax = float(vals.max(initial=0.0))
    if vmax == 0.0:
        return True
    cells = np.concatenate([c for _, no_lo, no_hi in field.grid.stencils for c in (no_lo, no_hi)])
    edge = np.abs(field.data.ravel()[cells])
    return not bool((edge >= 1e-9 * vmax).any())


def sphere_trace(field: ScalarField, ball: Ball, samples: int) -> np.ndarray:
    """Field values interpolated at quadrature points of the sphere.

    Raises if the sphere's interpolation stencil touches unmasked cells,
    i.e. if the closed ball is not inside the sampled domain.
    """
    if ball.dim != field.grid.dim:
        raise ValueError("ball dimension does not match the grid")
    pts = sphere_points(ball, samples)
    return interpolate(field, pts)
