"""Exact distribution functions of sampled fields and their integral laws.

A sampled nonnegative field induces an atomic measure: each masked cell
carries mass h^dim.  Its two distribution functions

    mu_plus(t)  = measure of {value >= t}   (non-increasing, left-continuous)
    mu_minus(t) = measure of {value >  t}   (non-increasing, right-continuous)

are exact step functions of the sorted sample levels, so the layer-cake
identity, the level-set bounds and the power-integral orderings all hold at
machine precision on the grid.  All measures are computed as a single
product (integer cell count) * h^dim, which keeps the comparisons in the
level-set bounds monotone under floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .fields import ScalarField, integrate

__all__ = [
    "StepDistribution",
    "upper_distribution",
    "cavalieri_residual",
    "verify_level_bounds",
    "LevelBoundReport",
    "neg_power_integral",
    "pos_power_integral",
    "PowerIntegralResult",
    "distribution_csv",
    "curves_csv",
]


@dataclass(frozen=True, eq=False)
class StepDistribution:
    """Levels with their masses; evaluates both distribution functions.

    ``levels`` are the strictly increasing distinct sample values,
    ``counts`` the number of cells at each level, ``cell_volume`` the atom
    mass h^dim.
    """

    levels: np.ndarray
    counts: np.ndarray
    cell_volume: float

    def __post_init__(self):
        if len(self.levels) != len(self.counts) or len(self.levels) == 0:
            raise ValueError("levels/counts mismatch")
        if not np.all(np.diff(self.levels) > 0):
            raise ValueError("levels must be strictly increasing")
        if not np.all(self.counts > 0):
            raise ValueError("masses must be positive")

    @cached_property
    def _tail_counts(self) -> np.ndarray:
        # _tail_counts[k] = number of cells with level index >= k
        return np.concatenate([np.cumsum(self.counts[::-1])[::-1], [0]])

    @property
    def masses(self) -> np.ndarray:
        return self.counts * self.cell_volume

    @property
    def total_count(self) -> int:
        return int(self._tail_counts[0])

    @property
    def total(self) -> float:
        return self.total_count * self.cell_volume

    def mu_plus(self, t) -> np.ndarray | float:
        """Measure of the weak superlevel set {value >= t}."""
        return self._mu(t, "left")

    def mu_minus(self, t) -> np.ndarray | float:
        """Measure of the strict superlevel set {value > t}."""
        return self._mu(t, "right")

    def _mu(self, t, side: str) -> np.ndarray | float:
        out = self._tail_counts[np.searchsorted(self.levels, t, side=side)] * self.cell_volume
        return float(out) if np.isscalar(t) else out

    def _level_mu(self) -> tuple[np.ndarray, np.ndarray]:
        """mu_plus and mu_minus at each level, i.e. on every cell of it."""
        tails = self._tail_counts * self.cell_volume
        return tails[:-1], tails[1:]


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in the sorted field values ``s``, then
    ``len(s)``; a negative minimum ``s[0]`` rejects the field."""
    if s[0] < 0:
        raise ValueError("distribution functions require a nonnegative field")
    return np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1], [True])))


def upper_distribution(field: ScalarField) -> StepDistribution:
    """Levels and counts of a nonnegative sampled field (those of ``np.unique``)."""
    s = field.values
    s.sort()
    starts = _run_starts(s)
    return StepDistribution(s[starts[:-1]], np.diff(starts), field.grid.cell_volume)


def _mu_plus_of_cells(field: ScalarField) -> np.ndarray:
    """``mu_plus`` of every masked value, in cell order, from one sort of the
    nonzero values: a zero cell has all N cells at or above it, and a nonzero
    cell in the run that starts at sorted index k has M - k of the M nonzero ones."""
    vals = field.values
    hvol = field.grid.cell_volume
    out = np.full(len(vals), len(vals) * hvol)
    nz = np.flatnonzero(vals)
    if len(nz):
        nz = nz[np.argsort(vals[nz])]  # in value order; a negative value is nonzero and rejected next
        starts = _run_starts(vals[nz])
        out[nz] = (len(nz) - np.repeat(starts[:-1], np.diff(starts))) * hvol
    return out


def cavalieri_residual(field: ScalarField) -> tuple[float, float, float]:
    """Layer-cake identity: the field integral against the areas under both
    distribution-function curves.  The three numbers agree to float
    round-off because the identity is exact for atomic measures."""
    dist = upper_distribution(field)
    total_int = integrate(field)
    # area under mu_plus via its step segments (Abel summation)
    tails, _ = dist._level_mu()
    area_upper = float((np.diff(dist.levels, prepend=0.0) * tails).sum())
    # area under mu_minus via the per-level layer cake
    area_lower = float((dist.masses * dist.levels).sum())
    return total_int, area_upper, area_lower


@dataclass(frozen=True)
class LevelBoundReport:
    a: float
    lower_set_measure: float
    lower_holds: bool  # measure{mu_minus o f <= a} >= a
    upper_set_measure: float
    upper_holds: bool  # measure{mu_plus o f < a} <= a

    @property
    def holds(self) -> bool:
        return self.lower_holds and self.upper_holds


def verify_level_bounds(field: ScalarField, a_values) -> list[LevelBoundReport]:
    """Check the two level-set bounds of the sampled measure for each a.

    Both inequalities are measure-theoretic facts, so they must hold for
    every field and every a in [0, total]; a violation indicates a bug.
    """
    dist = upper_distribution(field)
    hvol = dist.cell_volume
    # both measures fall with the level: the levels that pass are a suffix, found in the negated measures
    neg_plus, neg_minus = (-mu for mu in dist._level_mu())
    reports = []
    for a in np.atleast_1d(np.asarray(a_values, dtype=float)):
        if a < 0 or a > dist.total:
            raise ValueError(f"a = {a} outside [0, {dist.total}]")
        lower_meas = int(dist._tail_counts[np.searchsorted(neg_minus, -a, "left")]) * hvol  # mu_minus <= a
        upper_meas = int(dist._tail_counts[np.searchsorted(neg_plus, -a, "right")]) * hvol  # mu_plus < a
        reports.append(
            LevelBoundReport(
                a=float(a),
                lower_set_measure=lower_meas,
                lower_holds=bool(lower_meas >= a),
                upper_set_measure=upper_meas,
                upper_holds=bool(upper_meas <= a),
            )
        )
    return reports


@dataclass(frozen=True)
class PowerIntegralResult:
    value: float
    bound: float
    relation: str  # "<=" means value <= bound is the claimed ordering
    holds: bool
    trimmed_value: float | None = None  # lower version with the top level removed

    def as_dict(self) -> dict:
        return asdict(self)


_REL_SLACK = 1e-12  # float headroom on the exact sampled-measure orderings


def neg_power_integral(field: ScalarField, gamma: float, which: str) -> PowerIntegralResult:
    """Integral of (mu o f)^(-gamma) against the sampled measure.

    The upper version is bounded above by total^(1-gamma)/(1-gamma); the
    lower version is bounded below by it, and on a grid it is always +inf
    because the top level has empty strict superlevel set.  The trimmed
    diagnostic excludes the top level.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if which == "upper" and gamma >= 1:
        raise ValueError("upper version needs gamma < 1 for a finite bound")
    return _power_integral(field, -gamma, which)


def pos_power_integral(field: ScalarField, r: float, which: str) -> PowerIntegralResult:
    """Integral of (mu o f)^r; the ordering of the bounds is reversed
    relative to the negative-power case."""
    if not r > 0:
        raise ValueError("r must be positive")
    return _power_integral(field, r, which)


def _power_integral(field: ScalarField, s: float, which: str) -> PowerIntegralResult:
    """Integral of (mu o f)^s, with mu_plus ("upper") or mu_minus ("lower"),
    against total^(1+s)/(1+s).  The upper version lies below the bound for
    s < 0 and above it for s > 0; the lower version the other way round."""
    if which not in ("upper", "lower"):
        raise ValueError("which must be 'upper' or 'lower'")
    dist = upper_distribution(field)
    bound = dist.total ** (1.0 + s) / (1.0 + s) if s > -1 else math.inf
    mu = dist._level_mu()[which == "lower"]
    if s < 0 and which == "lower":
        # mu_minus is 0 exactly at the top level, so the value is +inf >= bound
        trimmed = float((dist.counts[:-1] * mu[:-1] ** s).sum() * dist.cell_volume)
        return PowerIntegralResult(math.inf, bound, ">=", True, trimmed_value=trimmed)
    value = float((dist.counts * mu**s).sum() * dist.cell_volume)
    if (s < 0) == (which == "upper"):
        return PowerIntegralResult(value, bound, "<=", bool(value <= bound * (1 + _REL_SLACK)))
    return PowerIntegralResult(value, bound, ">=", bool(value >= bound * (1 - _REL_SLACK)))


def distribution_csv(dist: StepDistribution) -> str:
    """Two-column CSV of the step representation."""
    return "level,mass\n" + "".join(f"{float(lv)!r},{float(ms)!r}\n" for lv, ms in zip(dist.levels, dist.masses))


def curves_csv(dist: StepDistribution, ts) -> str:
    """Evaluated curves (t, mu_plus, mu_minus) on a user-supplied t-grid."""
    ts = np.asarray(ts, dtype=float)
    rows = zip(ts, dist.mu_plus(ts), dist.mu_minus(ts))
    return "t,mu_plus,mu_minus\n" + "".join(f"{float(t)!r},{float(u)!r},{float(l)!r}\n" for t, u, l in rows)
