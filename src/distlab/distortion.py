"""Pointwise verification of the distortion inequality with defect.

A sampled map f satisfies the inequality with data (K, Sigma) when

    |Df|^n <= K * J_f + Sigma          cellwise,

with |Df| the operator norm of the difference derivative and J_f its
determinant.  With a target point y0 the defect term becomes
|f - y0|^n * Sigma, localizing the inequality at one value.  This module
decomposes Jacobians into sign parts, extracts the pointwise distortion
quotient where the Jacobian is positive, computes the minimal defect that
makes the inequality hold, and evaluates the zero-integral laws for
Jacobians whose distinguished coordinate has (approximately) compact
support.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from . import fields
from .fields import (
    ScalarField,
    VectorMap,
    _cellwise,
    _det,
    _finite,
    _lives_on,
    _lp,
    _same_lattice,
    _smax,
    boundary_support_ok,
)
from .staircase import MonotoneFn

__all__ = [
    "DistortionData",
    "DistortionReport",
    "jacobian_parts",
    "pointwise_distortion",
    "residual_defect",
    "verify_distortion",
    "zero_integral_check",
    "weighted_zero_integral_check",
    "normalize_low_distortion",
    "lebesgue_norm",
    "violations_csv",
]

_J_GATE = 1e-12  # J > gate * |Df|^n defines the pointwise quotient
_PT_TOL = 1e-9  # relative float tolerance of the cellwise inequality


@dataclass(frozen=True, eq=False)
class DistortionData:
    """Distortion data (K, Sigma) with integrability exponents (p, q).

    K >= 0 cellwise (>= 1 after :func:`normalize_low_distortion`); Sigma >= 0
    and may carry +inf sentinels.  Exponents live in [1, inf].
    """

    K: ScalarField
    Sigma: ScalarField
    p: float = math.inf
    q: float = math.inf

    def __post_init__(self):
        if not _same_lattice(self.K.grid, self.Sigma.grid):
            raise ValueError("K and Sigma must live on the same grid")
        if (self.K.values < 0).any():
            raise ValueError("K must be nonnegative")
        if (self.Sigma.values < 0).any():
            raise ValueError("Sigma must be nonnegative")
        self.check_exponents(self.p, self.q)

    @staticmethod
    def check_exponents(p: float, q: float) -> None:
        """Integrability exponents live in [1, inf]."""
        if not (p >= 1 and q >= 1):
            raise ValueError("exponents must lie in [1, inf]")

    @property
    def admissible(self) -> bool:
        return _admissible(self.p, self.q)

    @property
    def k_at_least_one(self) -> bool:
        return bool((self.K.values >= 1.0).all())


def _inv(p: float) -> float:
    return 0.0 if math.isinf(p) else 1.0 / p


def _admissible(p: float, q: float) -> bool:
    """The integrability condition 1/p + 1/q < 1 on the exponents of K and Sigma."""
    return _inv(p) + _inv(q) < 1.0


def _require_map_grid(vm: VectorMap, **data: ScalarField) -> None:
    """Distortion data must live on the map's grid: the same lattice and mask."""
    for name, field in data.items():
        if not _lives_on(field, vm.grid):
            raise ValueError(f"{name} does not live on the map's grid (lattice and mask must match)")


def lebesgue_norm(field: ScalarField, p: float) -> float:
    """L^p norm on the sampled measure; the essential sup is the max."""
    return _lp(np.abs(field.values), p, field.grid.cell_volume)


def jacobian_parts(vm: VectorMap) -> tuple[ScalarField, ScalarField]:
    """Positive and negative parts of the Jacobian: J = Jplus - Jminus."""
    J = _jacobian(vm)
    parts = (np.maximum(J, 0.0), np.maximum(-J, 0.0))
    return tuple(ScalarField.from_values(vm.grid, part, nonnegative=True) for part in parts)


def pointwise_distortion(vm: VectorMap) -> ScalarField:
    """|Df|^n / J_f on the cells where the Jacobian is genuinely positive.

    Returns a field on the sub-masked grid {J > 1e-12 |Df|^n}; everywhere
    else the quotient is undefined.
    """
    grid = vm.grid
    dn, J = _derivative_powers(vm)
    defined = (J > _J_GATE * dn) & (dn > 0)
    if not defined.any():
        raise ValueError("Jacobian is nowhere positive; pointwise distortion undefined")
    sub = np.zeros(grid.shape, dtype=bool)
    sub[grid.mask] = defined
    return ScalarField.from_values(grid.with_mask(sub), dn[defined] / J[defined], nonnegative=True)


def _dn(m: np.ndarray) -> np.ndarray:
    """|Df|^n of each matrix in the ``(n, n, cells)`` stack ``m``, checked finite."""
    with np.errstate(over="ignore"):  # an overflow is rejected as non-finite
        return _finite(_smax(m) ** len(m))


def _derivative_powers(vm: VectorMap) -> tuple[np.ndarray, np.ndarray]:
    """|Df|^n and J_f on the masked cells, from one difference derivative
    taken a block of cells at a time."""
    return tuple(_cellwise(vm.grid, [c.data for c in vm.components], _dn, _det))


def _jacobian(vm: VectorMap) -> np.ndarray:
    """J_f on the masked cells, taken a block of cells at a time."""
    return _cellwise(vm.grid, [c.data for c in vm.components], _det)[0]


def residual_defect(vm: VectorMap, K: ScalarField) -> ScalarField:
    """Minimal cellwise defect making the distortion inequality hold:
    Sigma_min = max(0, |Df|^n - K * J_f), decided one derivative block at a time."""
    _require_map_grid(vm, K=K)
    k = K.values
    if (k < 1.0).any():
        raise ValueError("residual defect expects K >= 1 cellwise")
    out = np.empty(vm.grid.cell_count)
    for j0, j1, m in fields._derivative_blocks(vm.grid, [c.data for c in vm.components]):
        np.maximum(_dn(m) - k[j0:j1] * _det(m), 0.0, out=out[j0:j1])
    return ScalarField.from_values(vm.grid, out, nonnegative=True)


@dataclass(frozen=True, eq=False)
class DistortionReport:
    """Outcome of a cellwise distortion verification."""

    violation_count: int
    max_violation: float  # max of |Df|^n - K J - defect (signed)
    max_excess: float  # max of the same minus the cell tolerance
    K_norm_p: float
    Sigma_over_K_norm_q: float
    p: float
    q: float
    infinite_sigma_cells: int
    checked_cells: int
    critical_holder_exponent: float | None
    violation_indices: np.ndarray  # flat indices into the masked cell order
    violation_lhs: np.ndarray
    violation_rhs: np.ndarray
    resolution: tuple[int, ...]
    spacing: float
    tol_rel: float

    @property
    def zero_violations(self) -> bool:
        return self.violation_count == 0

    def as_dict(self) -> dict:
        """Every field but the per-cell violation rows (report keys are sorted when dumped)."""
        rows = ("violation_indices", "violation_lhs", "violation_rhs")
        out = {f.name: getattr(self, f.name) for f in dataclass_fields(self) if f.name not in rows}
        return {**out, "resolution": list(self.resolution)}


def verify_distortion(
    vm: VectorMap,
    data: DistortionData,
    y0=None,
    rel_tol: float | None = None,
) -> DistortionReport:
    """Check |Df|^n <= K J_f + defect cellwise and collect norms.

    With ``y0`` the defect is |f - y0|^n * Sigma (a quasiregular-value /
    value-of-finite-distortion check); without it the defect is Sigma.
    The default cell tolerance 1e-9 * (1 + |Df|^n) only absorbs float
    noise; exact-equality analytic data needs ``rel_tol`` at the level of
    the finite-difference error (the gallery agreement suite uses 3e-2).
    Cells with Sigma = +inf never violate and are excluded from the L^q
    norm, with their count reported.
    """
    grid = vm.grid
    n = grid.dim
    _require_map_grid(vm, K=data.K, Sigma=data.Sigma)
    if rel_tol is not None and not 0 <= rel_tol < math.inf:
        raise ValueError(f"rel_tol must be a finite number >= 0, got {rel_tol}")
    if y0 is not None:
        y0 = np.asarray(y0, dtype=float)
        if y0.shape != (n,):
            raise ValueError("y0 must be a point of the target space")
        if not np.isfinite(y0).all():
            raise ValueError("y0 must be a finite point of the target space")
    K, Sigma = data.K.values, data.Sigma.values
    coords = [c.values for c in vm.components] if y0 is not None else None
    rows, peaks = [], []  # per block: the violation rows, and the maxima of resid and excess
    for j0, j1, m in fields._derivative_blocks(grid, [c.data for c in vm.components]):
        dn, J, k, defect = _dn(m), _det(m), K[j0:j1], Sigma[j0:j1]
        if y0 is not None:
            dist_n = ((np.stack([c[j0:j1] for c in coords], axis=1) - y0) ** 2).sum(axis=1) ** (n / 2.0)
            # +inf wherever Sigma is, also at distance 0 where 0 * inf is NaN
            with np.errstate(invalid="ignore"):
                defect = np.where(np.isposinf(defect), np.inf, dist_n * defect)
        rhs = k * J + defect
        resid = dn - rhs
        tol = _PT_TOL * (1.0 + dn) if rel_tol is None else rel_tol * (1.0 + dn + np.abs(k * J))
        excess = resid - tol
        bad = np.flatnonzero(excess > 0)
        rows.append((bad + j0, dn[bad], rhs[bad]))
        peaks.append((resid.max(initial=-np.inf), excess.max(initial=-np.inf)))
    idx, lhs, rhs = (np.concatenate(r) for r in zip(*rows))
    max_violation, max_excess = np.max(peaks, axis=0)

    finite_sigma = np.isfinite(Sigma)
    usable = finite_sigma & (K > 0)
    quotient = Sigma[usable]
    quotient /= K[usable]
    sk_norm = _lp(quotient, data.q, grid.cell_volume) if usable.any() else 0.0
    k_norm = _lp(np.abs(K), data.p, grid.cell_volume)
    crit = None
    if math.isinf(data.p):
        crit = min(1.0 / k_norm if k_norm > 0 else math.inf, 1.0 - _inv(data.q))

    return DistortionReport(
        violation_count=len(idx),
        max_violation=float(max_violation),
        max_excess=float(max_excess),
        K_norm_p=k_norm,
        Sigma_over_K_norm_q=sk_norm,
        p=data.p,
        q=data.q,
        infinite_sigma_cells=int((~finite_sigma).sum()),
        checked_cells=int(grid.cell_count),
        critical_holder_exponent=crit,
        violation_indices=idx,
        violation_lhs=lhs,
        violation_rhs=rhs,
        resolution=grid.shape,
        spacing=grid.spacing,
        tol_rel=_PT_TOL if rel_tol is None else rel_tol,
    )


def _warn_unless_supported(comp: ScalarField, i: int, law: str) -> None:
    """Warn the caller's caller when coordinate i is visibly nonzero at the mask boundary."""
    if not boundary_support_ok(comp):
        warnings.warn(
            f"component {i} is not approximately compactly supported; "
            f"the {law} law does not apply",
            stacklevel=3,
        )


def zero_integral_check(vm: VectorMap, i: int) -> float:
    """Integral of the Jacobian when coordinate i has compact support.

    The continuum value is exactly zero; the grid value is discretization
    noise.  Emits a warning when coordinate i is visibly nonzero at the
    mask boundary, in which case the law does not apply.
    """
    _warn_unless_supported(vm.component(i), i, "zero-integral")
    return float(_jacobian(vm).sum() * vm.grid.cell_volume)


def weighted_zero_integral_check(
    vm: VectorMap, i: int, F: MonotoneFn
) -> tuple[float, float, float]:
    """Integrals of F(|f_i|) J, F(|f_i|) J^+ and F(|f_i|) J^-.

    In the continuum the signed integral vanishes and the sign parts agree,
    provided one of them is finite; on the grid the difference is
    discretization noise scaled by F.
    """
    comp = vm.component(i)
    _warn_unless_supported(comp, i, "weighted zero-integral")
    weights = F(np.abs(comp.values))
    if not np.isfinite(weights).all():
        raise ValueError("F takes the value +inf on attained values of |f_i|")
    J = _jacobian(vm)
    hvol = vm.grid.cell_volume
    pos = float((weights * np.maximum(J, 0.0)).sum() * hvol)
    neg = float((weights * np.maximum(-J, 0.0)).sum() * hvol)
    value = float((weights * J).sum() * hvol)
    return value, pos, neg


def normalize_low_distortion(data: DistortionData) -> DistortionData:
    """Trade K >= 0 for K >= 1: (K, Sigma) -> (max(1, 2K), 4 Sigma).

    Any map satisfying the inequality with the original data also satisfies
    it with the normalized data.
    """
    K, S = data.K, data.Sigma
    K2 = ScalarField.from_values(K.grid, np.maximum(1.0, 2.0 * K.values), nonnegative=True)
    S4 = ScalarField.from_values(S.grid, 4.0 * S.values, nonnegative=True, allow_infinite=S.allow_infinite)
    return DistortionData(K2, S4, data.p, data.q)


def violations_csv(report: DistortionReport) -> str:
    """Per-cell violation rows (masked-cell index, lhs, rhs)."""
    rows = zip(report.violation_indices, report.violation_lhs, report.violation_rhs)
    return "cell_index,lhs,rhs\n" + "".join(f"{int(i)},{float(l)!r},{float(r)!r}\n" for i, l, r in rows)
