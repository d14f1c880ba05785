"""Output checks: each compares a result against the package's promises.

A check returns a list of misses, each a (key, detail) pair; an empty list
means the result kept every promise.  Verdicts are recomputed from the
reported numbers with the package's documented tolerances, and the
verdict the package itself reports must agree with the recomputed one.
"""

from __future__ import annotations

import math

# pinned tolerances documented in the README: inequality checks carry a
# relative 0.02 plus 1e-9 absolute; exact sampled-measure laws only float slack
TOL_REL = 0.02
TOL_ABS = 1e-9
EXACT_REL = 1e-9
MEASURE_SLACK = 1e-12

# the sup-norm chain: relative tolerance per step; None marks "lhs <= 0"
CHAIN_RULES = {
    "a_superlevel": TOL_REL,
    "b_holder_split": EXACT_REL,
    "c_energy_bound": TOL_REL,
    "p1_measure_bound": EXACT_REL,
    "p2_measure_bound": EXACT_REL,
    "d_final_bound": TOL_REL,
    "negative_part": None,
}


def _ratio(lhs, rhs) -> str:
    return f"lhs/rhs={lhs / rhs:.4f}" if rhs else f"lhs={lhs!r} rhs={rhs!r}"


def inequality(key: str, lhs: float, rhs: float, rel: float, reported=None) -> list:
    """lhs <= rhs (1 + rel) + 1e-9, and the reported verdict must agree."""
    holds = lhs <= rhs * (1.0 + rel) + TOL_ABS
    misses = [] if holds else [(key, _ratio(lhs, rhs))]
    if reported is not None and bool(reported) != holds:
        misses.append((key, f"reported holds={reported} but recomputed {holds}"))
    return misses


def sobolev_report(doc: dict) -> list:
    return inequality(doc["check"], doc["lhs"], doc["rhs"], TOL_REL, doc["holds"])


def chain_ledger(doc: dict, nontrivial: bool) -> list:
    misses = []
    if nontrivial and doc["trivial"]:
        misses.append(("trivial", "the chain ledger is trivial"))
    for name, rel in CHAIN_RULES.items():
        c = doc[f"check_{name}"]
        if rel is None:
            holds = c["lhs"] <= 0.0
            if not holds:
                misses.append((name, f"lhs={c['lhs']!r} > 0"))
            if bool(c["holds"]) != holds:
                misses.append((name, f"reported holds={c['holds']} but recomputed {holds}"))
        else:
            misses += inequality(name, c["lhs"], c["rhs"], rel, c["holds"])
    return misses


def power_integral(key: str, doc: dict, relation: str) -> list:
    """Sampled-measure ordering of a power integral against its bound."""
    value, bound = doc["value"], doc["bound"]
    if relation == "<=":
        holds = value <= bound * (1 + MEASURE_SLACK)
    else:
        holds = value >= bound * (1 - MEASURE_SLACK)
    misses = [] if holds else [(key, f"value={value!r} {relation} bound={bound!r} fails")]
    if doc.get("relation") != relation:
        misses.append((key, f"relation {doc.get('relation')!r}, expected {relation!r}"))
    if bool(doc["holds"]) != holds:
        misses.append((key, f"reported holds={doc['holds']} but recomputed {holds}"))
    return misses


# (kind, which) -> the ordering the sampled measure guarantees
POWER_RELATIONS = {
    ("neg", "upper"): "<=",
    ("neg", "lower"): ">=",
    ("pos", "upper"): ">=",
    ("pos", "lower"): "<=",
}


def cavalieri(integral: float, area_upper: float, area_lower: float, reported=None) -> list:
    scale = max(abs(integral), 1e-30)
    holds = abs(area_upper - integral) <= 1e-12 * scale and abs(area_lower - integral) <= 1e-12 * scale
    misses = [] if holds else [("cavalieri", f"integral={integral!r} areas={area_upper!r},{area_lower!r}")]
    if reported is not None and bool(reported) != holds:
        misses.append(("cavalieri", f"reported holds={reported} but recomputed {holds}"))
    return misses


def level_bound(a: float, lower_measure: float, upper_measure: float, reported=None) -> list:
    holds = lower_measure >= a and upper_measure <= a
    misses = [] if holds else [("level_bounds", f"a={a!r}: {lower_measure!r}, {upper_measure!r}")]
    if reported is not None and bool(reported) != holds:
        misses.append(("level_bounds", f"reported holds={reported} but recomputed {holds}"))
    return misses


def gap_property(deviation: float, epsilon: float) -> list:
    if deviation <= epsilon * (1 + MEASURE_SLACK):
        return []
    return [("gap_property", f"deviation={deviation!r} > epsilon={epsilon!r}")]


def zero_violations(key: str, violation_count: int) -> list:
    return [] if violation_count == 0 else [(key, f"{violation_count} violations")]


def finite_nonnegative(key: str, values) -> list:
    bad = [v for v in values if not (math.isfinite(v) and v >= 0.0)]
    return [(key, f"not finite and >= 0: {bad[:3]!r}")] if bad else []


def modulus_curve(curve, exact_dim: int | None = None) -> list:
    """omega is positive, finite and non-decreasing in r; with ``exact_dim``
    it must equal the radial-log modulus log(1/r)^(-1/n) to float precision."""
    omegas = [w for _, w in curve]
    misses = finite_nonnegative("modulus", omegas)
    if any(b < a for a, b in zip(omegas, omegas[1:])) or not omegas or omegas[0] <= 0:
        misses.append(("modulus", f"omega not positive and non-decreasing: {omegas!r}"))
    if exact_dim is not None:
        for r, w in curve:
            sharp = math.log(1.0 / r) ** (-1.0 / exact_dim)
            if abs(w - sharp) > 1e-12 * sharp:
                misses.append(("modulus", f"omega({r!r})={w!r}, sharp law gives {sharp!r}"))
    return misses
