"""Uniform staircase approximation of left-continuous non-decreasing functions.

Given such an F on [0, inf] and eps > 0, the construction emits an
increasing sequence t_0 = 0 < t_1 < ... inside [0, s), where
s = sup{t : F(t) < F(inf)}, such that F varies by at most eps over every
gap (t_{i-1}, t_i].  The thresholds are the level suprema

    t'_i = sup{t in [0, s] : F(t) <= F(0) + i*eps},

with repeats skipped; if some t'_k equals s ("hit" case) the tail is filled
with a canonical increasing sequence tending to s.  Step functions are
scanned exactly; analytic ones use bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distribution import upper_distribution
from .fields import ScalarField

__all__ = [
    "MonotoneFn",
    "StaircaseResult",
    "staircase_approx",
    "inverse_distribution_fn",
    "max_gap_deviation",
    "staircase_csv",
]

_BISECT_REL = 1e-12
_HUGE = 1e30


@dataclass(frozen=True, eq=False)
class MonotoneFn:
    """A non-decreasing left-continuous function on [0, inf].

    ``kind`` is "step" (exact jump data: ``jumps`` strictly increasing,
    ``piece_values`` of length len(jumps)+1, value j held on the interval
    (jumps[j-1], jumps[j]], value 0 on [0, jumps[0]]) or "analytic"
    (a callable).
    """

    kind: str
    value_at_infinity: float
    jumps: np.ndarray | None = None
    piece_values: np.ndarray | None = None
    fn: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.kind == "step":
            if self.jumps is None or self.piece_values is None:
                raise ValueError("step function needs jumps and piece_values")
            if len(self.piece_values) != len(self.jumps) + 1:
                raise ValueError("need len(jumps)+1 piece values")
            if len(self.jumps) and not np.all(np.diff(self.jumps) > 0):
                raise ValueError("jumps must be strictly increasing")
            finite = self.piece_values[np.isfinite(self.piece_values)]
            if len(finite) and not np.all(np.diff(finite) >= 0):
                raise ValueError("piece values must be non-decreasing")
            if self.value_at_infinity < self.piece_values[-1]:
                raise ValueError("value at infinity below the final piece")
        elif self.kind == "analytic":
            if self.fn is None:
                raise ValueError("analytic function needs a callable")
        else:
            raise ValueError("kind must be 'step' or 'analytic'")

    @classmethod
    def step(cls, jumps, piece_values, value_at_infinity=None) -> "MonotoneFn":
        jumps = np.asarray(jumps, dtype=float)
        piece_values = np.asarray(piece_values, dtype=float)
        if value_at_infinity is None:
            value_at_infinity = float(piece_values[-1])
        return cls("step", float(value_at_infinity), jumps=jumps, piece_values=piece_values)

    @classmethod
    def analytic(cls, fn, value_at_infinity) -> "MonotoneFn":
        return cls("analytic", float(value_at_infinity), fn=fn)

    def __call__(self, t):
        if self.kind == "step":
            idx = np.searchsorted(self.jumps, t, side="left")
            out = self.piece_values[idx]
            return float(out) if np.isscalar(t) else out
        if np.isscalar(t):
            return float(self.fn(t))
        return np.asarray([self.fn(x) for x in np.asarray(t)], dtype=float)

    # -- internal geometry ------------------------------------------------

    def _sup_of_strict_sublevel(self) -> float:
        """s = sup{t : F(t) < F(inf)}, with sup of the empty set read as 0."""
        if self.kind == "step":
            below = int((self.piece_values < self.value_at_infinity).sum())
            if below == 0:
                return 0.0
            if below == len(self.piece_values):
                return math.inf
            return float(self.jumps[below - 1])
        finf = self.value_at_infinity
        if math.isinf(finf):
            return math.inf  # a finite s cannot be certified numerically
        return self._analytic_sup(lambda v: v < finf, math.inf)

    def _sup_below(self, thr: float, s: float) -> float:
        """sup{t in [0, s] : F(t) <= thr}; the set is non-empty since
        thr >= F(0)."""
        if self.kind == "step":
            p = int(np.searchsorted(self.piece_values, thr, side="right")) - 1
            if p < 0:
                raise ValueError("threshold below F(0); F not monotone as declared")
            raw = math.inf if p == len(self.jumps) else float(self.jumps[p])
            return min(raw, s)
        if math.isfinite(s) and self.fn(s) <= thr:
            return s
        return self._analytic_sup(lambda v: v <= thr, s)

    def _analytic_sup(self, passes: Callable[[float], bool], s: float) -> float:
        """sup{t in [0, s] : passes(F(t))} for a test that F passes on an
        initial segment and, when s is finite, fails at s: doubling from
        min(s, 1), then bisection on [0, hi] (which may end at s itself)."""
        hi = min(s, 1.0)
        prev = self.fn(hi)
        while passes(prev):
            hi = min(2.0 * hi, s)
            if hi > _HUGE:
                return s  # F passes all the way out
            cur = self.fn(hi)
            if cur < prev - 1e-12 * max(1.0, abs(prev)):
                raise ValueError("probe violation: F is not monotone")
            prev = cur
        lo = 0.0
        while hi - lo > _BISECT_REL * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if passes(self.fn(mid)):
                lo = mid
            else:
                hi = mid
        return lo


@dataclass(frozen=True, eq=False)
class StaircaseResult:
    """Breakpoints t_0 = 0 < t_1 < ... < s plus the termination case."""

    breakpoints: np.ndarray
    s: float
    case: str  # "interior" | "hit" | "empty"
    epsilon: float


def _check_ladder(epsilon: float, max_steps: int) -> None:
    """The rung height must be positive and the ladder at least one step long."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")


def staircase_approx(F: MonotoneFn, epsilon: float, max_steps: int) -> StaircaseResult:
    """Emit up to ``max_steps`` breakpoints after t_0 = 0.

    The prefix is deterministic: raising ``max_steps`` only appends.
    """
    _check_ladder(epsilon, max_steps)
    f0 = F(0.0)
    if math.isinf(f0):
        raise ValueError("F(0) must be finite")

    s = F._sup_of_strict_sublevel()
    if s <= 0.0:
        return StaircaseResult(np.array([]), 0.0, "empty", epsilon)

    pts = [0.0]
    prev_val = f0
    case = "interior"
    i = 0
    stalls = 0
    while len(pts) - 1 < max_steps:
        i += 1
        thr = f0 + i * epsilon
        t = F._sup_below(thr, s)
        if t >= s:
            case = "hit"
            break
        if t > pts[-1]:
            val = F(t)
            if val > thr or val < prev_val - 1e-12 * max(1.0, abs(prev_val)):
                raise ValueError("probe violation: F is not monotone/left-continuous")
            prev_val = val
            pts.append(t)
        elif F.kind == "step":
            # jump taller than eps: fast-forward the ladder to the next
            # piece value instead of stepping one eps at a time
            nxt = F.piece_values[np.searchsorted(F.piece_values, thr, side="right")]
            if math.isfinite(nxt):
                i = max(i, math.ceil((nxt - f0) / epsilon) - 1)
        else:
            stalls += 1
            if stalls > 1_000_000:
                raise ValueError("staircase ladder stalled; epsilon too small for this F")

    if case == "hit":
        base = pts[-1]
        j = 1
        while len(pts) - 1 < max_steps:
            if math.isinf(s):
                u = base + 2.0 ** (j - 1)
            else:
                u = base + (s - base) * (1.0 - 2.0**-j)
            if u > pts[-1] and u < s:
                pts.append(u)
            j += 1
            if j > 60 and not math.isinf(s):
                break  # filler has converged to s within float resolution

    return StaircaseResult(np.asarray(pts), float(s), case, float(epsilon))


def inverse_distribution_fn(field: ScalarField, gamma: float) -> MonotoneFn:
    """The step function mu_plus^(-gamma) of a sampled field, exact; its
    staircase has s equal to the field maximum."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    dist = upper_distribution(field)
    if field.max() <= 0:
        raise ValueError("field is identically zero")
    tails, _ = dist._level_mu()
    pieces = np.concatenate([tails**-gamma, [math.inf]])
    return MonotoneFn.step(dist.levels, pieces, value_at_infinity=math.inf)


def max_gap_deviation(F: MonotoneFn, result: StaircaseResult) -> float:
    """Largest |F(t_i) - F(t)| over probed t in each gap (t_{i-1}, t_i].

    For step functions the probe set (every jump inside the gap plus the
    right endpoint) is exhaustive, so the returned deviation is exact;
    analytic ones are probed at eight evenly spaced points per gap.
    """
    pts = result.breakpoints
    if F.kind == "step":
        # gap i holds the jumps jumps[b[i-1]:b[i]], and F at a jump is its
        # own piece value; the right endpoint adds 0 (or inf - inf, skipped)
        b = np.searchsorted(F.jumps, pts, side="right")
        if len(b) < 2:
            return 0.0
        ref = np.repeat(F(pts[1:]), np.diff(b))
        with np.errstate(invalid="ignore"):
            dev = np.abs(ref - F.piece_values[b[0] : b[-1]])
        return float(np.max(dev[~np.isnan(dev)], initial=0.0))
    worst = 0.0
    for i in range(1, len(pts)):
        lo, hi = pts[i - 1], pts[i]
        cands = [hi, *(lo + (hi - lo) * np.linspace(0, 1, 9)[1:])]
        ref = F(hi)
        for t in cands:
            dev = abs(ref - F(t))
            if dev > worst:
                worst = float(dev)
    return worst


def staircase_csv(F: MonotoneFn, result: StaircaseResult) -> str:
    """CSV rows (i, t_i, F(t_i))."""
    return "i,t,F\n" + "".join(f"{i},{float(t)!r},{float(F(t))!r}\n" for i, t in enumerate(result.breakpoints))
