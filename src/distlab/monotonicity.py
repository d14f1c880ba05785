"""Almost-weak-monotonicity defects, oscillation diagnostics, the sup-norm
estimate chain with explicit constants, and modulus-of-continuity fitting.

The defect of a field on a ball is how far its interior extrema escape the
boundary extrema; monotone fields have defect zero, and a power-law fit
defect ~ C r^alpha quantifies the almost-weak-monotonicity class.  The
estimate chain replays, on the grid, the derivation that bounds the sup
norm of a compactly supported truncation of a coordinate function by the
distortion data: superlevel Sobolev step, three-exponent Hoelder split,
energy bound through the weighted Jacobian identity, and the assembled
explicit constant.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .distribution import _mu_plus_of_cells
from .distortion import DistortionData, _admissible, _inv, _require_map_grid, lebesgue_norm
from .fields import (
    Ball,
    ScalarField,
    VectorMap,
    _cellwise,
    _det,
    _evaluate,
    _lp,
    boundary_support_ok,
    sphere_points,
    sphere_trace,
    truncate,
)
from .sobolev import TOL_ABS, TOL_REL, holds, unit_ball_volume

__all__ = [
    "BallExtrema",
    "DefectFit",
    "ModulusFit",
    "ChainCheck",
    "ChainLedger",
    "ball_extrema",
    "awm_defect",
    "fit_defect_law",
    "essosc_profile",
    "dyadic_osc_integral",
    "sup_bound_chain",
    "modulus_curve",
    "log_power_fit",
]

_EXACT_REL = 1e-9  # discrete-Hoelder / sampled-measure checks
_DEFECT_FLOOR = 1e-9  # relative cutoff below which a defect counts as zero


# ----------------------------------------------------------- ball diagnostics


@dataclass(frozen=True)
class BallExtrema:
    radius: float
    boundary_max: float
    boundary_min: float
    interior_max: float
    interior_min: float


def _auto_samples(grid, radius: float) -> int:
    if grid.dim == 2:
        return max(64, int(math.ceil(2 * math.pi * radius / grid.spacing)))
    est = int(math.ceil(4 * math.pi * (radius / grid.spacing) ** 2))
    return max(256, min(est, 4096))


def ball_extrema(field: ScalarField, ball: Ball, samples: int | None = None) -> BallExtrema:
    """Sphere-trace extrema versus cell extrema over the open ball."""
    if samples is None:
        samples = _auto_samples(field.grid, ball.radius)
    trace = sphere_trace(field, ball, samples)
    inside = field.grid.ball_mask(ball)
    if not inside.any():
        raise ValueError("ball contains no cell centers at this resolution")
    interior = field.data[inside]
    return BallExtrema(
        radius=ball.radius,
        boundary_max=float(trace.max()),
        boundary_min=float(trace.min()),
        interior_max=float(interior.max()),
        interior_min=float(interior.min()),
    )


def awm_defect(field: ScalarField, ball: Ball, samples: int | None = None) -> float:
    """How far the interior extrema escape the boundary extrema (>= 0)."""
    ex = ball_extrema(field, ball, samples)
    return max(ex.interior_max - ex.boundary_max, ex.boundary_min - ex.interior_min, 0.0)


@dataclass(frozen=True)
class DefectFit:
    C: float
    alpha: float
    radii_used: tuple[float, ...]
    residual: float
    monotone: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def fit_defect_law(field: ScalarField, center, radii, samples: int | None = None) -> DefectFit:
    """Least-squares power law defect ~ C r^alpha in log-log coordinates.

    Radii whose defect is below 1e-9 of the field scale are excluded; with
    fewer than three usable radii the field counts as monotone at this
    resolution and a zero-defect marker is returned.
    """
    center = tuple(float(c) for c in center)
    scale = float(np.abs(field.values).max(initial=0.0))
    pairs = []
    for r in sorted(float(r) for r in radii):
        d = awm_defect(field, Ball(center, r), samples)
        if d > _DEFECT_FLOOR * max(scale, 1.0):
            pairs.append((r, d))
    if len(pairs) < 3:
        return DefectFit(C=0.0, alpha=0.0, radii_used=(), residual=0.0, monotone=True)
    rs = np.array([p[0] for p in pairs])
    ds = np.array([p[1] for p in pairs])
    slope, intercept, resid = _linfit(np.log(rs), np.log(ds))
    return DefectFit(
        C=float(math.exp(intercept)),
        alpha=float(slope),
        radii_used=tuple(rs.tolist()),
        residual=resid,
    )


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), float(intercept), resid


def essosc_profile(field: ScalarField, center, radii) -> list[tuple[float, float]]:
    """Essential oscillation (max - min over cells) of nested open balls;
    non-decreasing in the radius.  Balls holding no cell center report 0."""
    center = tuple(float(c) for c in center)
    out = []
    for r in sorted(float(r) for r in radii):
        inside = field.grid.ball_mask(Ball(center, r))
        if inside.any():
            vals = field.data[inside]
            osc = float(vals.max() - vals.min())
        else:
            osc = 0.0
        out.append((r, osc))
    return out


def _check_levels(levels: int) -> None:
    """The dyadic sum needs at least two radii."""
    if levels < 2:
        raise ValueError("need at least 2 dyadic levels")


def dyadic_osc_integral(field: ScalarField, center, R: float, levels: int) -> float:
    """log-dyadic sum of essosc(R 2^-j)^n, the discrete form of the
    oscillation integral int_0^R essosc(r)^n dr/r.

    Fields whose oscillation does not decay make the partial sums grow
    linearly in ``levels``; decaying oscillation gives a Cauchy tail.
    """
    _check_levels(levels)
    n = field.grid.dim
    radii = [R * 2.0**-j for j in range(levels)]
    profile = essosc_profile(field, center, radii)
    return float(sum(osc**n for _, osc in profile) * math.log(2.0))


# ------------------------------------------------------------ estimate chain


@dataclass(frozen=True)
class ChainCheck:
    name: str
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True, eq=False)
class ChainLedger:
    """Named quantities and checked inequalities of the sup-norm chain."""

    entries: dict
    checks: tuple[ChainCheck, ...]
    trivial: bool
    support_warning: bool

    @property
    def holds_all(self) -> bool:
        return all(c.holds for c in self.checks)

    def check(self, name: str) -> ChainCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        out = dict(self.entries)
        out["trivial"] = self.trivial
        out["support_warning"] = self.support_warning
        out["holds_all"] = self.holds_all
        for c in self.checks:
            out[f"check_{c.name}"] = {"lhs": c.lhs, "rhs": c.rhs, "holds": c.holds}
        return out

    def csv(self) -> str:
        return "name,lhs,rhs,holds\n" + "".join(f"{c.name},{c.lhs!r},{c.rhs!r},{c.holds}\n" for c in self.checks)


_CHAIN_NAMES = (
    "a_superlevel",
    "b_holder_split",
    "c_energy_bound",
    "p1_measure_bound",
    "p2_measure_bound",
    "d_final_bound",
    "negative_part",
)
_SUPPORT_STEPS = ("a_superlevel", "c_energy_bound", "d_final_bound")  # claimed only under compact support


def _chain_gamma(p: float, q: float, gamma: float | None) -> float:
    """``gamma`` checked to lie in (1/p, 1 - 1/q), by default its midpoint; needs 1/p + 1/q < 1."""
    lo, hi = _inv(p), 1.0 - _inv(q)
    if not _admissible(p, q):
        raise ValueError("inadmissible exponents: need 1/p + 1/q < 1")
    if gamma is None:
        return 0.5 * (lo + hi)
    if not lo < gamma < hi:
        raise ValueError(f"gamma must lie in ({lo}, {hi})")
    return gamma


def sup_bound_chain(
    vm: VectorMap,
    data: DistortionData,
    i: int,
    level: float,
    mode: str,
    gamma: float | None = None,
) -> ChainLedger:
    """Replay the sup-norm estimate for phi = (f_i - level)^+ (mode "above")
    or (level - f_i)^+ (mode "below") on the map's domain.

    Every inequality of the derivation is checked numerically: the
    superlevel Sobolev step, the three-exponent Hoelder split with
    exponents (n, np, np/((n-1)p-1)), the energy bound via the weighted
    Jacobian residual, the two sampled-measure integral bounds, the bound
    on the negative Jacobian part, and the final assembled estimate with
    an explicit constant.  An empty truncation yields the trivial ledger.
    """
    p, q = data.p, data.q
    gamma = _chain_gamma(p, q, gamma)
    if not data.k_at_least_one:
        raise ValueError("the chain needs K >= 1 cellwise")
    grid = vm.grid
    _require_map_grid(vm, K=data.K, Sigma=data.Sigma)
    n = grid.dim

    K = data.K.values
    Sigma = data.Sigma.values
    if not np.isfinite(Sigma).all():
        raise ValueError("the chain needs a finite defect field")

    m = grid.measure
    omega = unit_ball_volume(n)
    e1 = (n - 1.0) - _inv(p)
    e2 = 1.0 - _inv(q)
    gamma1p = (n - 1.0 - gamma) / e1
    gamma2p = gamma / e2
    k_norm = lebesgue_norm(data.K, p)
    sk_norm = _lp(Sigma / K, q, grid.cell_volume)
    c_final = (1.0 / (n**n * omega)) * (1.0 / (1.0 - gamma2p)) ** e2 * (
        1.0 / (1.0 - gamma1p)
    ) ** e1

    entries = {
        "dim": n,
        "measure": m,
        "omega_n": omega,
        "p": p,
        "q": q,
        "gamma": gamma,
        "gamma1p": gamma1p,
        "gamma2p": gamma2p,
        "k_norm": k_norm,
        "sigma_over_k_norm": sk_norm,
        "c_final": c_final,
        "level": float(level),
        "mode": mode,
        "component": i,
    }

    phi = truncate(vm.component(i), level, mode)
    sup_phi = phi.max()
    trivial = sup_phi == 0.0
    if trivial:  # every computed quantity of the empty truncation reads 0
        G = energy = rho = p1 = p2 = p1_bound = p2_bound = final_bound = neg_max = 0.0
    else:
        # chain rule, for both modes: D phi = +-D f_i on {phi > 0} and 0 elsewhere.
        # So |grad phi| is the norm of row i of D f there, and g = f with f_i
        # replaced by +-phi (the sign of f_i - level) has J_g = J_f there: one
        # derivative of f, and no difference taken across the kink of phi
        # taken on the support's flat box range plus one stride each side, with the whole grid's stencils
        cells, s = np.flatnonzero(phi.data > 0), grid.stencils[0][0]
        span = (max(int(cells[0]) - s, 0), min(int(cells[-1]) + 1 + s, grid.mask.size))
        comps = [c.data for c in vm.components]
        vals = _cellwise(grid, comps, lambda D: np.sqrt((D[i] ** 2).sum(axis=0)), _det, span=span)
        support = phi.values > 0
        gn, Jg = (np.where(support, v, 0.0) for v in vals)

        hvol = grid.cell_volume
        mu_of = _mu_plus_of_cells(phi)

        G = float((gn * mu_of ** (-(n - 1.0) / n)).sum() * hvol)
        energy = float((gn**n / (K * mu_of**gamma)).sum() * hvol)
        rho = float((Jg * mu_of**-gamma).sum() * hvol)
        p1 = float((mu_of**-gamma1p).sum() * hvol)
        p2 = float((mu_of**-gamma2p).sum() * hvol)
        p1_bound = m ** (1.0 - gamma1p) / (1.0 - gamma1p)
        p2_bound = m ** (1.0 - gamma2p) / (1.0 - gamma2p)
        final_bound = c_final * k_norm * sk_norm * m ** (1.0 - _inv(p) - _inv(q))

        # negative-part bound K Jg^- <= Sigma, implied cellwise wherever the
        # distortion inequality for g itself passes
        cell_tol = TOL_REL * (1.0 + gn**n + np.abs(K * Jg)) + TOL_ABS
        g_passes = gn**n <= K * Jg + Sigma + cell_tol
        neg_excess = K * np.maximum(-Jg, 0.0) - Sigma - cell_tol
        neg_max = float(np.maximum(neg_excess[g_passes], -np.inf).max(initial=-np.inf))

    sup_phi_n = sup_phi**n
    superlevel_n = G**n / (n**n * omega)
    sigma_holder = sk_norm * p2**e2
    entries.update(
        sup_phi=sup_phi,
        sup_phi_n=sup_phi_n,
        grad_weight_integral=G,
        superlevel_bound_n=superlevel_n,
        energy=energy,
        jacobian_residual=rho,
        sigma_holder_term=sigma_holder,
        p1_integral=p1,
        p2_integral=p2,
        p1_integral_bound=p1_bound,
        p2_integral_bound=p2_bound,
        final_bound=final_bound,
    )

    def check(name, lhs, rhs, rel=TOL_REL):
        return ChainCheck(name, lhs, rhs, holds(lhs, rhs, rel))

    checks = (
        check("a_superlevel", sup_phi_n, superlevel_n),
        check("b_holder_split", G**n, energy * k_norm * p1**e1, _EXACT_REL),
        check("c_energy_bound", energy, rho + sigma_holder),
        check("p1_measure_bound", p1, p1_bound, _EXACT_REL),
        check("p2_measure_bound", p2, p2_bound, _EXACT_REL),
        check("d_final_bound", sup_phi_n, final_bound),
        ChainCheck("negative_part", neg_max, 0.0, neg_max <= 0.0),
    )
    support_warning = not trivial and not boundary_support_ok(phi)
    return ChainLedger(entries, checks, trivial=trivial, support_warning=support_warning)


# --------------------------------------------------------- modulus machinery


def modulus_curve(evaluator, x0, radii, samples: int = 64) -> list[tuple[float, float]]:
    """Estimated local modulus of continuity sup_{|x-x0|<=r} |f(x)-f(x0)|.

    Concentric spheres are sampled at deterministic quadrature points; the
    running maximum over all smaller spheres makes the curve non-decreasing.
    """
    x0 = np.asarray(x0, dtype=float)
    f0 = _evaluate(evaluator, x0[None, :])[0]
    out = []
    best = 0.0
    for r in sorted(float(r) for r in radii):
        pts = sphere_points(Ball(tuple(x0), r), samples)
        vals = _evaluate(evaluator, pts)
        dev = np.sqrt(((vals - f0) ** 2).sum(axis=-1)) if vals.ndim == 2 else np.abs(vals - f0)
        best = max(best, float(dev.max()))
        out.append((r, best))
    return out


@dataclass(frozen=True)
class ModulusFit:
    C: float
    beta: float
    r_range: tuple[float, float]
    residual: float

    def as_dict(self) -> dict:
        return {
            "C": self.C,
            "beta": self.beta,
            "r_min": self.r_range[0],
            "r_max": self.r_range[1],
            "residual": self.residual,
        }


def log_power_fit(curve) -> ModulusFit:
    """Fit omega(r) ~ C log(1/r)^(-beta) by least squares of log omega
    against log log(1/r); exact generator curves are recovered to float
    precision."""
    rs = np.array([r for r, w in curve], dtype=float)
    ws = np.array([w for r, w in curve], dtype=float)
    usable = (rs < 1.0) & (ws > 0.0)
    if usable.sum() < 3:
        raise ValueError("need at least 3 usable points with r < 1 and omega > 0")
    x = np.log(np.log(1.0 / rs[usable]))
    y = np.log(ws[usable])
    slope, intercept, resid = _linfit(x, y)
    return ModulusFit(
        C=float(math.exp(intercept)),
        beta=float(-slope),
        r_range=(float(rs[usable].min()), float(rs[usable].max())),
        residual=resid,
    )
