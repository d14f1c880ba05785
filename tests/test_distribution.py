import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
import hypothesis.extra.numpy as hnp

from distlab.fields import Ball, Box, ScalarField, build_grid, sample
from distlab.distribution import (
    cavalieri_residual,
    curves_csv,
    distribution_csv,
    neg_power_integral,
    pos_power_integral,
    upper_distribution,
    verify_level_bounds,
)

UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))
UNIT_DISK = Ball((0.0, 0.0), 1.0)


def cone(pts):
    return 1.0 - np.sqrt((pts**2).sum(axis=-1))


def random_field(grid, seed, quantized=False):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0, 10, grid.cell_count)
    if quantized:
        vals = np.round(vals)  # force ties
    return ScalarField.from_values(grid, vals)


# --------------------------------------------------------------- step basics


def test_constant_field_distribution():
    g = build_grid(UNIT_SQUARE, 8)
    c = 2.5
    f = ScalarField.from_values(g, np.full(g.cell_count, c))
    up = upper_distribution(f)
    m = g.measure
    assert up.mu_plus(0.0) == pytest.approx(m)
    assert up.mu_plus(c) == pytest.approx(m)
    assert up.mu_plus(c + 1e-9) == 0.0
    assert up.mu_minus(c) == 0.0
    assert up.total == pytest.approx(m)


def test_negative_values_rejected():
    g = build_grid(UNIT_SQUARE, 4)
    f = ScalarField.from_values(g, np.linspace(-1, 1, g.cell_count))
    with pytest.raises(ValueError):
        upper_distribution(f)


def test_cone_superlevel_areas():
    g = build_grid(UNIT_DISK, 256)
    f = sample(g, cone)
    up = upper_distribution(f)
    for t in (0.25, 0.5, 0.75):
        exact = math.pi * (1 - t) ** 2
        assert abs(up.mu_plus(t) - exact) <= 0.02 * exact


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_distributions_agree_off_levels(seed):
    # mu_plus and mu_minus differ only at the sampled levels
    g = build_grid(UNIT_SQUARE, 6)
    f = random_field(g, seed, quantized=True)
    up = upper_distribution(f)
    off = np.setdiff1d(np.linspace(0.05, 10.05, 23), up.levels)
    assert np.array_equal(up.mu_plus(off), up.mu_minus(off))


@given(seed=st.integers(0, 500), quantized=st.booleans())
@settings(max_examples=40, deadline=None)
def test_mu_minus_below_mu_plus(seed, quantized):
    g = build_grid(UNIT_SQUARE, 6)
    f = random_field(g, seed, quantized)
    up = upper_distribution(f)
    ts = np.concatenate([f.values, [0.0, 5.0, 20.0]])
    mp = up.mu_plus(ts)
    mm = up.mu_minus(ts)
    assert np.all(mm <= mp)
    order = np.argsort(ts)
    assert np.all(np.diff(mp[order]) <= 0)
    assert np.all(np.diff(mm[order]) <= 0)


# ------------------------------------------------------------------ Cavalieri


def test_cavalieri_constant():
    g = build_grid(UNIT_SQUARE, 16)
    f = ScalarField.from_values(g, np.ones(g.cell_count))
    i, au, al = cavalieri_residual(f)
    assert i == pytest.approx(1.0, abs=1e-12)
    assert au == pytest.approx(1.0, abs=1e-12)
    assert al == pytest.approx(1.0, abs=1e-12)


def test_cavalieri_zero():
    g = build_grid(UNIT_SQUARE, 4)
    f = ScalarField.from_values(g, np.zeros(g.cell_count))
    assert cavalieri_residual(f) == (0.0, 0.0, 0.0)


def test_cavalieri_cone():
    g = build_grid(UNIT_DISK, 256)
    f = sample(g, cone)
    i, au, al = cavalieri_residual(f)
    assert i == pytest.approx(math.pi / 3, rel=0.01)
    assert au == pytest.approx(i, rel=1e-12)
    assert al == pytest.approx(i, rel=1e-12)


@given(seed=st.integers(0, 500), quantized=st.booleans())
@settings(max_examples=40, deadline=None)
def test_cavalieri_exact_property(seed, quantized):
    g = build_grid(UNIT_SQUARE, 7)
    f = random_field(g, seed, quantized)
    i, au, al = cavalieri_residual(f)
    scale = max(abs(i), 1e-30)
    assert abs(au - i) <= 1e-12 * scale
    assert abs(al - i) <= 1e-12 * scale


# --------------------------------------------------------------- level bounds


def brute_level_bound_measures(values, hvol, a):
    """Independent O(m^2) oracle with explicit comparison loops."""
    n_lower = 0
    n_upper = 0
    for v in values:
        mu_minus = sum(1 for w in values if w > v) * hvol
        mu_plus = sum(1 for w in values if w >= v) * hvol
        if mu_minus <= a:
            n_lower += 1
        if mu_plus < a:
            n_upper += 1
    return n_lower * hvol, n_upper * hvol


def test_level_bounds_endpoints():
    g = build_grid(UNIT_SQUARE, 8)
    f = random_field(g, 1)
    total = g.measure
    r0, r1 = verify_level_bounds(f, [0.0, total])
    assert r0.holds and r1.holds
    assert r0.upper_set_measure == 0.0
    assert r1.lower_set_measure == pytest.approx(total)


def test_level_bounds_match_brute_force():
    g = build_grid(UNIT_SQUARE, 8)
    f = random_field(g, 2, quantized=True)
    a = g.measure / 2
    (rep,) = verify_level_bounds(f, [a])
    lo, up = brute_level_bound_measures(f.values, g.cell_volume, a)
    assert rep.lower_set_measure == lo
    assert rep.upper_set_measure == up
    assert rep.holds


def test_level_bounds_out_of_range():
    g = build_grid(UNIT_SQUARE, 4)
    f = random_field(g, 3)
    with pytest.raises(ValueError):
        verify_level_bounds(f, [g.measure * 2])


@given(
    vals=hnp.arrays(np.float64, 25, elements=st.floats(0, 100)),
    frac=st.floats(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_level_bounds_never_violated(vals, frac):
    g = build_grid(UNIT_SQUARE, 5)
    f = ScalarField.from_values(g, vals)
    a = frac * g.measure
    (rep,) = verify_level_bounds(f, [a])
    assert rep.holds


# ------------------------------------------------------------ power integrals


def test_neg_power_constant_field():
    g = build_grid(UNIT_SQUARE, 8)
    f = ScalarField.from_values(g, np.full(g.cell_count, 3.0))
    res = neg_power_integral(f, 0.5, "upper")
    m = g.measure
    assert res.value == pytest.approx(math.sqrt(m))
    assert res.bound == pytest.approx(2 * math.sqrt(m))
    assert res.holds


def test_neg_power_lower_is_infinite():
    g = build_grid(UNIT_SQUARE, 8)
    f = random_field(g, 4)
    res = neg_power_integral(f, 1.0, "lower")
    assert res.value == math.inf
    assert res.holds
    assert res.trimmed_value is not None and math.isfinite(res.trimmed_value)


def test_neg_power_cone_equality_case():
    # exact continuum value of the upper integral for the cone at gamma=1/2
    # is 2*sqrt(pi); the grid value approaches it from below
    target = 2 * math.sqrt(math.pi)
    values = []
    for res in (128, 256):
        g = build_grid(UNIT_DISK, res)
        f = sample(g, cone)
        out = neg_power_integral(f, 0.5, "upper")
        assert out.holds
        values.append(out.value)
    assert values[0] < values[1] < target
    assert values[1] == pytest.approx(target, rel=0.03)


def test_neg_power_invalid_args():
    g = build_grid(UNIT_SQUARE, 4)
    f = random_field(g, 5)
    with pytest.raises(ValueError):
        neg_power_integral(f, -0.5, "upper")
    with pytest.raises(ValueError):
        neg_power_integral(f, 1.5, "upper")
    with pytest.raises(ValueError, match="gamma must be positive"):
        neg_power_integral(f, math.nan, "upper")
    with pytest.raises(ValueError, match="r must be positive"):
        pos_power_integral(f, math.nan, "upper")
    # gamma >= 1 is refused only for the upper version, so "middle" still
    # gets the message about which
    for integral, exponent in ((neg_power_integral, 0.5), (neg_power_integral, 1.5), (pos_power_integral, 2.0)):
        with pytest.raises(ValueError, match="which must be 'upper' or 'lower'"):
            integral(f, exponent, "middle")


def test_pos_power_constant_field():
    g = build_grid(UNIT_SQUARE, 8)
    f = ScalarField.from_values(g, np.full(g.cell_count, 2.0))
    m = g.measure
    up = pos_power_integral(f, 1.0, "upper")
    assert up.value == pytest.approx(m * m)
    assert up.bound == pytest.approx(m * m / 2)
    assert up.holds
    lo = pos_power_integral(f, 1.0, "lower")
    assert lo.value == 0.0
    assert lo.holds


def brute_pos_power_upper(values, hvol, r):
    total = 0.0
    for v in values:
        mu = sum(1 for w in values if w >= v) * hvol
        total += mu**r
    return total * hvol


def test_pos_power_cone_vs_brute_force():
    g = build_grid(UNIT_DISK, 64)
    f = sample(g, cone)
    res = pos_power_integral(f, 1.0, "upper")
    oracle = brute_pos_power_upper(f.values, g.cell_volume, 1.0)
    assert res.value == pytest.approx(oracle, rel=1e-12)
    # continuum value of the integral is pi^2/2
    assert res.value == pytest.approx(math.pi**2 / 2, rel=0.03)


@given(seed=st.integers(0, 300), quantized=st.booleans(), gamma=st.sampled_from([0.25, 0.5, 0.75]))
@settings(max_examples=40, deadline=None)
def test_neg_power_ordering_property(seed, quantized, gamma):
    g = build_grid(UNIT_SQUARE, 6)
    f = random_field(g, seed, quantized)
    up = neg_power_integral(f, gamma, "upper")
    lo = neg_power_integral(f, gamma, "lower")
    assert up.holds and lo.holds
    assert up.value <= up.bound * (1 + 1e-12)
    assert lo.value >= lo.bound


@given(seed=st.integers(0, 300), quantized=st.booleans(), r=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=40, deadline=None)
def test_pos_power_ordering_property(seed, quantized, r):
    g = build_grid(UNIT_SQUARE, 6)
    f = random_field(g, seed, quantized)
    up = pos_power_integral(f, r, "upper")
    lo = pos_power_integral(f, r, "lower")
    assert up.holds and lo.holds
    assert lo.value <= lo.bound * (1 + 1e-12)
    assert up.value >= up.bound * (1 - 1e-12)


def exactness_fields():
    """A tie-free cone on the unit disk and two quantized random fields."""
    g = build_grid(UNIT_DISK, 64)
    cone_field = sample(g, cone)
    square = build_grid(UNIT_SQUARE, 40)
    return [cone_field, random_field(square, 11, quantized=True), random_field(square, 12, quantized=True)]


def per_cell_power_integral(field, x, which):
    """(value, trimmed) summed cell by cell from mu_plus/mu_minus(field.values)."""
    dist = upper_distribution(field)
    hvol = dist.cell_volume
    mu = dist.mu_plus(field.values) if which == "upper" else dist.mu_minus(field.values)
    keep = mu > 0.0
    value = float((mu**x).sum() * hvol) if keep.all() or x > 0 else math.inf
    return value, float((mu[keep] ** x).sum() * hvol)


def _close(a, b):
    return a == b or abs(a - b) <= 1e-13 * abs(b)


def _holds(value, bound, relation):
    return value <= bound * (1 + 1e-12) if relation == "<=" else value >= bound * (1 - 1e-12)


@pytest.mark.parametrize("field", exactness_fields(), ids=["tie-free", "quantized-11", "quantized-12"])
def test_power_integrals_match_per_cell_sums(field):
    for gamma in (0.25, 0.5, 0.75, 1.0, 1.5):
        for which in ("upper", "lower") if gamma < 1 else ("lower",):
            res = neg_power_integral(field, gamma, which)
            value, trimmed = per_cell_power_integral(field, -gamma, which)
            assert _close(res.value, value)
            assert res.holds == _holds(value, res.bound, res.relation)
            if which == "lower":
                assert res.value == math.inf
                assert _close(res.trimmed_value, trimmed)
    for r in (0.5, 1.0, 2.0):
        for which in ("upper", "lower"):
            res = pos_power_integral(field, r, which)
            value, _ = per_cell_power_integral(field, r, which)
            assert _close(res.value, value)
            assert res.holds == _holds(value, res.bound, res.relation)


@pytest.mark.parametrize("field", exactness_fields(), ids=["tie-free", "quantized-11", "quantized-12"])
def test_level_bound_measures_equal_per_cell_counts(field):
    dist = upper_distribution(field)
    hvol = dist.cell_volume
    vals = field.values
    mu_minus, mu_plus = dist.mu_minus(vals), dist.mu_plus(vals)
    total = dist.total
    # a at the quarters and exactly at attained measures, where < and <= differ
    a_values = [0.0, total / 4, total / 2, 3 * total / 4, total, *mu_plus[::97], *mu_minus[::89]]
    for rep in verify_level_bounds(field, a_values):
        assert rep.lower_set_measure == int((mu_minus <= rep.a).sum()) * hvol
        assert rep.upper_set_measure == int((mu_plus < rep.a).sum()) * hvol
        assert rep.holds


# --------------------------------------------------------------------- export


def test_csv_exports_round_numbers():
    g = build_grid(UNIT_SQUARE, 4)
    f = ScalarField.from_values(g, np.repeat([1.0, 2.0], g.cell_count // 2))
    dist = upper_distribution(f)
    csv = distribution_csv(dist)
    assert csv.splitlines()[0] == "level,mass"
    assert len(csv.splitlines()) == 3
    curves = curves_csv(dist, [0.5, 1.0, 1.5, 2.0, 2.5])
    rows = [line.split(",") for line in curves.splitlines()[1:]]
    assert float(rows[1][1]) == pytest.approx(g.measure)  # mu_plus(1.0)
    assert float(rows[3][1]) == pytest.approx(g.measure / 2)  # mu_plus(2.0)
    assert float(rows[3][2]) == 0.0  # mu_minus(2.0)


def test_lower_distribution_kind():
    g = build_grid(UNIT_SQUARE, 4)
    f = ScalarField.from_values(g, np.full(g.cell_count, 1.0))
    dist = upper_distribution(f)
    assert dist.mu_minus(1.0) == 0.0
    assert dist.mu_plus(1.0) == pytest.approx(g.measure)
