"""Catalog of analytically solved maps and fields used as oracles.

Each entry carries vectorized evaluators for the map (or scalar field) and,
where meaningful, for the pointwise distortion coefficient and the minimal
defect, plus metadata: expected distortion class, modulus-of-continuity
exponent, declared singular points and a natural domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .fields import Ball, Box, Grid, ScalarField, VectorMap, _sampled, build_grid, sample

__all__ = [
    "Example",
    "make_example",
    "list_examples",
    "sample_map",
    "sample_analytic_k",
    "sample_analytic_sigma",
]


@dataclass(frozen=True, eq=False)
class Example:
    name: str
    dim: int
    is_scalar: bool
    evaluator: Callable[[np.ndarray], np.ndarray]
    analytic_k: Callable[[np.ndarray], np.ndarray] | None
    analytic_sigma: Callable[[np.ndarray], np.ndarray] | None
    metadata: dict = dc_field(default_factory=dict)

    @property
    def default_domain(self) -> Box | Ball:
        return self.metadata["domain"]


def _radii(pts: np.ndarray) -> np.ndarray:
    return np.sqrt((pts**2).sum(axis=-1))


def _unit_rays(pts: np.ndarray) -> np.ndarray:
    r = _radii(pts)
    safe = np.where(r > 0, r, 1.0)
    return pts / safe[..., None]


def make_example(name: str, dim: int = 2, **params) -> Example:
    """Construct a catalog entry; unknown names, unknown params and bad values raise."""
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if name not in _BUILDERS:
        raise ValueError(f"unknown example {name!r}; known: {', '.join(sorted(_BUILDERS))}")
    builder, names = _BUILDERS[name]
    unknown = sorted(set(params) - set(names))
    if unknown:
        listed = ", ".join(map(repr, unknown))
        raise ValueError(f"example {name!r} has no parameter {listed}; its parameters: {', '.join(names) or 'none'}")
    return Example(name=name, dim=dim, **builder(dim, params))


def _identity(dim, params):
    return dict(
        is_scalar=False,
        evaluator=lambda p: p,
        analytic_k=lambda p: np.ones(len(p)),
        analytic_sigma=lambda p: np.zeros(len(p)),
        metadata={
            "distortion_class": "conformal",
            "singular_points": [],
            "domain": Box((-1.0,) * dim, (1.0,) * dim),
        },
    )


def _linear(dim, params):
    A = np.asarray(params.get("A", np.eye(dim)), dtype=float)
    if A.shape != (dim, dim):
        raise ValueError("linear example needs a dim x dim matrix A")
    det = float(np.linalg.det(A))
    opn = float(np.linalg.svd(A, compute_uv=False)[0])
    k_const = opn**dim / det if det > 0 else None
    return dict(
        is_scalar=False,
        evaluator=lambda p: p @ A.T,
        analytic_k=(lambda p: np.full(len(p), k_const)) if k_const is not None else None,
        analytic_sigma=(lambda p: np.zeros(len(p))) if det > 0 else None,
        metadata={
            "distortion_class": "quasiregular" if det > 0 else "orientation_reversing",
            "singular_points": [],
            "domain": Box((-1.0,) * dim, (1.0,) * dim),
            "notes": "A (a dim x dim matrix, default the identity) is library-only: --params cannot set it",
        },
    )


def _cone(dim, params):
    return dict(
        is_scalar=True,
        evaluator=lambda p: 1.0 - _radii(p),
        analytic_k=None,
        analytic_sigma=None,
        metadata={
            "distortion_class": "scalar_field",
            "singular_points": [],
            "domain": Ball((0.0,) * dim, 1.0),
            "notes": "superlevel-equality field; distance to the unit sphere",
        },
    )


def _smooth_bump(dim, params):
    def ev(p):
        r2 = (np.asarray(p) ** 2).sum(axis=-1)
        out = np.zeros(len(p))
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    return dict(
        is_scalar=True,
        evaluator=ev,
        analytic_k=None,
        analytic_sigma=None,
        metadata={
            "distortion_class": "scalar_field",
            "singular_points": [],
            "domain": Ball((0.0,) * dim, 1.0),
        },
    )


def _winding(dim, params):
    k = params.get("k", 2)
    if dim != 2:
        raise ValueError("the winding map is planar")
    if int(k) != k or k < 1:
        raise ValueError("winding needs an integer k >= 1")
    k = int(k)

    def ev(p):
        r = _radii(p)
        th = np.arctan2(p[..., 1], p[..., 0])
        return np.stack([r * np.cos(k * th), r * np.sin(k * th)], axis=-1)

    return dict(
        is_scalar=False,
        evaluator=ev,
        analytic_k=lambda p: np.full(len(p), float(k)),
        analytic_sigma=lambda p: np.zeros(len(p)),
        metadata={
            "distortion_class": "quasiregular",
            "singular_points": [(0.0, 0.0)],
            "domain": Ball((0.0, 0.0), 1.0),
        },
    )


def _radial_power(dim, params):
    a = float(params.get("a", 2.0))
    if a < 1.0:
        raise ValueError("radial_power needs a >= 1")

    def ev(p):
        r = _radii(p)
        return r[..., None] ** (a - 1.0) * p

    k_const = a ** (dim - 1)
    return dict(
        is_scalar=False,
        evaluator=ev,
        analytic_k=lambda p: np.full(len(p), k_const),
        analytic_sigma=lambda p: np.zeros(len(p)),
        metadata={
            "distortion_class": "quasiregular",
            "singular_points": [(0.0,) * dim],
            "domain": Ball((0.0,) * dim, 1.0),
        },
    )


def _radial_log(dim, params):
    n = dim

    def ev(p):
        r = _radii(p)
        if (r >= 1.0).any():
            raise ValueError("radial_log lives inside the open unit ball")
        with np.errstate(divide="ignore"):
            rho = np.where(r > 0, np.log(np.where(r > 0, 1.0 / r, 2.0)) ** (-1.0 / n), 0.0)
        return rho[..., None] * _unit_rays(p)

    def k_raw(p):
        r = _radii(p)
        with np.errstate(divide="ignore"):
            return np.where(r > 0, n * np.log(np.where(r > 0, 1.0 / r, 2.0)), np.inf)

    return dict(
        is_scalar=False,
        evaluator=ev,
        analytic_k=k_raw,
        analytic_sigma=lambda p: np.zeros(len(p)),
        metadata={
            "distortion_class": "finite_distortion",
            "modulus_exponent": 1.0 / n,
            "singular_points": [(0.0,) * dim],
            # inside radius e^(-1/n) the tangential stretch dominates and
            # n log(1/r) is the exact distortion quotient (and is >= 1);
            # outside it the radial stretch takes over and the quotient
            # grows like (n log(1/r))^(1-n), so the catalog data is only
            # valid on this smaller ball
            "domain": Ball((0.0,) * dim, 0.6),
            "clamp_radius": math.exp(-1.0 / n),
            "notes": "sharp modulus of continuity log^(-1/n)(1/r); on grids "
            "reaching past the clamp radius use max(1, K) for K >= 1 data",
        },
    )


def _x_over_norm(dim, params):
    def ev(p):
        return _unit_rays(p)

    def sigma(p):
        r = _radii(p)
        with np.errstate(divide="ignore"):
            return np.where(r > 0, r ** (-float(dim)), np.inf)

    return dict(
        is_scalar=False,
        evaluator=ev,
        analytic_k=lambda p: np.ones(len(p)),
        analytic_sigma=sigma,
        metadata={
            "distortion_class": "defect_only",
            "singular_points": [(0.0,) * dim],
            "domain": Ball((0.0,) * dim, 1.0),
            "notes": "discontinuous; zero Jacobian; defect |x|^-n is the "
            "non-integrable borderline for every q >= 1",
        },
    )


# each example's builder (its Example fields but name and dim) and the parameter names it accepts
_BUILDERS = {
    "identity": (_identity, ()),
    "linear": (_linear, ("A",)),
    "cone": (_cone, ()),
    "smooth_bump": (_smooth_bump, ()),
    "winding": (_winding, ("k",)),
    "radial_power": (_radial_power, ("a",)),
    "radial_log": (_radial_log, ()),
    "x_over_norm": (_x_over_norm, ()),
}


def list_examples() -> list[dict]:
    """Deterministic catalog listing; ``params`` names what ``--params`` can set."""
    out = []
    for name, (_, params) in _BUILDERS.items():
        ex = make_example(name, dim=2)
        out.append(
            {
                "name": name,
                "kind": "scalar" if ex.is_scalar else "map",
                "distortion_class": ex.metadata.get("distortion_class"),
                "singular_points": [list(s) for s in ex.metadata.get("singular_points", [])],
                "params": sorted(set(params) - {"A"}),  # linear's matrix: --params only makes numbers
                "notes": ex.metadata.get("notes", ""),
            }
        )
    return out


def sample_map(ex: Example, grid_or_resolution) -> VectorMap | ScalarField:
    """Sample the example on its default domain (int resolution) or a grid."""
    grid = _resolve_grid(ex, grid_or_resolution)
    return sample(grid, ex.evaluator)


def sample_analytic_k(ex: Example, grid_or_resolution, clamped: bool = False) -> ScalarField:
    """Sampled pointwise distortion coefficient; ``clamped`` applies
    max(1, K) for data that must satisfy the K >= 1 convention."""
    if ex.analytic_k is None:
        raise ValueError(f"example {ex.name!r} has no analytic distortion coefficient")
    fn = (lambda p: np.maximum(ex.analytic_k(p), 1.0)) if clamped else ex.analytic_k
    return _sampled(_resolve_grid(ex, grid_or_resolution), fn, nonnegative=True)


def sample_analytic_sigma(ex: Example, grid_or_resolution) -> ScalarField:
    if ex.analytic_sigma is None:
        raise ValueError(f"example {ex.name!r} has no analytic defect")
    return _sampled(_resolve_grid(ex, grid_or_resolution), ex.analytic_sigma, nonnegative=True, allow_infinite=True)


def _resolve_grid(ex: Example, grid_or_resolution) -> Grid:
    if isinstance(grid_or_resolution, Grid):
        return grid_or_resolution
    return build_grid(ex.default_domain, int(grid_or_resolution))
