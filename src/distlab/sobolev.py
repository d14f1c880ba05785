"""Three quantitative Sobolev-type checks on sampled fields.

All three share the isoperimetric constant 1/(n * omega_n^(1/n)):

  * the sharp W^{1,1} inequality  ||f||_{n/(n-1)} <= c_n * int |grad f|;
  * the superlevel inequality, bounding the sup norm by the gradient
    integral weighted with a negative power of the superlevel-set measure;
  * the band bound, the single-slab version of the superlevel inequality.

The checks are convergence statements: at the reference resolutions
(256^2 in the plane, 96^3 in space) first-order boundary differences keep
the relative error inside TOL_REL, which is calibrated on the cone, the
equality case of the superlevel inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import _mu_plus_of_cells
from .fields import ScalarField, _grad_norm_values, _lp, boundary_support_ok

__all__ = [
    "TOL_REL",
    "TOL_ABS",
    "holds",
    "InequalityReport",
    "unit_ball_volume",
    "isoperimetric_constant",
    "sharp_sobolev_check",
    "superlevel_check",
    "band_bound_check",
]

TOL_REL = 0.02
TOL_ABS = 1e-9


def holds(lhs, rhs, rel: float = TOL_REL) -> bool:
    """The verdict rule of every checked inequality: lhs <= rhs (1 + rel) + TOL_ABS."""
    return bool(lhs <= rhs * (1 + rel) + TOL_ABS)


@dataclass(frozen=True)
class InequalityReport:
    """One checked inequality lhs <= rhs with provenance."""

    name: str
    lhs: float
    rhs: float
    holds: bool
    ratio: float | None
    support_warning: bool
    resolution: tuple[int, ...]
    spacing: float

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "ratio": self.ratio,
            "support_warning": self.support_warning,
            "resolution": list(self.resolution),
            "spacing": self.spacing,
            "tol_rel": TOL_REL,
            "tol_abs": TOL_ABS,
        }


def unit_ball_volume(n: int) -> float:
    """Lebesgue volume of the n-dimensional unit ball."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def isoperimetric_constant(n: int) -> float:
    """The prefactor 1/(n * omega_n^(1/n)) shared by all three checks."""
    return 1.0 / (n * unit_ball_volume(n) ** (1.0 / n))


def _report(name, field, lhs, rhs) -> InequalityReport:
    ratio = lhs / rhs if rhs > 0 else None
    return InequalityReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        holds=holds(lhs, rhs),
        ratio=ratio,
        support_warning=not boundary_support_ok(field),
        resolution=field.grid.shape,
        spacing=field.grid.spacing,
    )


def sharp_sobolev_check(field: ScalarField) -> InequalityReport:
    """(int |f|^{n/(n-1)})^{(n-1)/n} against c_n * int |grad f|."""
    grid = field.grid
    n = grid.dim
    lhs = _lp(np.abs(field.values), n / (n - 1.0), grid.cell_volume)
    rhs = isoperimetric_constant(n) * float(_grad_norm_values(field).sum() * grid.cell_volume)
    return _report("sharp_sobolev", field, lhs, rhs)


def superlevel_check(field: ScalarField) -> InequalityReport:
    """Max value against the gradient integral weighted by the superlevel
    measure to the power -(n-1)/n.  The weight is finite everywhere: the
    cell itself contributes at least h^n to its own superlevel set."""
    grid = field.grid
    n = grid.dim
    weights = _mu_plus_of_cells(field) ** (-(n - 1.0) / n)  # rejects a negative field
    lhs = field.max()
    rhs = isoperimetric_constant(n) * float((_grad_norm_values(field) * weights).sum()) * grid.cell_volume
    return _report("superlevel_sobolev", field, lhs, rhs)


def band_bound_check(field: ScalarField, a: float, b: float) -> InequalityReport:
    """(b - a) against the gradient integral over the band {a < f < b},
    weighted by mu_plus(b)^{-(n-1)/n}."""
    grid = field.grid
    n = grid.dim
    if (field.values < 0).any():
        raise ValueError("band bound requires a nonnegative field")
    if not 0 <= a < b:
        raise ValueError("need 0 <= a < b")
    if b >= field.max():
        raise ValueError("b must lie below the field maximum (mu_plus(b) = 0 otherwise)")
    vals = field.values
    mu_b = int((vals >= b).sum()) * grid.cell_volume  # mu_plus(b), as the step distribution counts it
    in_band = (vals > a) & (vals < b)
    rhs = (
        isoperimetric_constant(n)
        * float(_grad_norm_values(field)[in_band].sum())
        * grid.cell_volume
        * mu_b ** (-(n - 1.0) / n)
    )
    return _report("band_bound", field, b - a, rhs)
