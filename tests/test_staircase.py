import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distlab.fields import Ball, Box, ScalarField, build_grid, sample
from distlab.staircase import (
    MonotoneFn,
    StaircaseResult,
    inverse_distribution_fn,
    max_gap_deviation,
    staircase_approx,
    staircase_csv,
)

UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))
UNIT_DISK = Ball((0.0, 0.0), 1.0)


def cone(pts):
    return 1.0 - np.sqrt((pts**2).sum(axis=-1))


def random_step_fn(rng, n_max=25):
    n = rng.integers(1, n_max)
    jumps = np.sort(rng.uniform(0.1, 10.0, n))
    jumps = np.unique(jumps)
    incr = rng.uniform(0, 2.0, len(jumps) + 1)
    incr[rng.random(len(incr)) < 0.3] = 0.0  # ties
    pieces = np.cumsum(incr)
    return MonotoneFn.step(jumps, pieces)


# ----------------------------------------------------------------- analytic


def test_linear_fn_interior_case():
    F = MonotoneFn.analytic(lambda t: t, math.inf)
    res = staircase_approx(F, 1.0, 10)
    assert res.case == "interior"
    assert math.isinf(res.s)
    assert np.allclose(res.breakpoints, np.arange(11), atol=1e-9)


def test_two_level_step_hit_case():
    F = MonotoneFn.step([1.0], [0.0, 2.0])
    res = staircase_approx(F, 0.5, 8)
    assert res.s == 1.0
    assert res.case == "hit"
    assert res.breakpoints[0] == 0.0
    expected_fill = 1.0 - 2.0 ** -np.arange(1, 9)
    assert np.allclose(res.breakpoints[1:], expected_fill)
    assert max_gap_deviation(F, res) == 0.0


def test_constant_fn_empty_result():
    F = MonotoneFn.step(np.array([]), [5.0])
    res = staircase_approx(F, 0.1, 10)
    assert res.case == "empty"
    assert res.s == 0.0
    assert len(res.breakpoints) == 0


def test_infinite_f0_rejected():
    F = MonotoneFn.analytic(lambda t: math.inf, math.inf)
    with pytest.raises(ValueError):
        staircase_approx(F, 1.0, 5)


def test_epsilon_validation():
    F = MonotoneFn.analytic(lambda t: t, math.inf)
    with pytest.raises(ValueError):
        staircase_approx(F, 0.0, 5)
    with pytest.raises(ValueError):
        staircase_approx(F, -1.0, 5)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        staircase_approx(F, math.nan, 5)


def test_non_monotone_probe_rejected():
    F = MonotoneFn.analytic(lambda t: math.sin(3 * t) + 0.2 * t, math.inf)
    with pytest.raises(ValueError):
        staircase_approx(F, 0.25, 40)


def test_analytic_ladder_bisects_below_a_finite_s():
    # F(s) lies above every threshold below F(inf), so a doubling that
    # reaches s must bisect there instead of reporting the hit early
    square = MonotoneFn.analytic(lambda t: min(t * t, 9.0), 9.0)
    res = staircase_approx(square, 1.0, 4)
    assert res.case == "interior"
    assert np.allclose(res.breakpoints, [0.0, 1.0, math.sqrt(2), math.sqrt(3), 2.0], atol=1e-9)
    ramp = MonotoneFn.analytic(lambda t: min(t, 2.0), 2.0)
    for F, eps in ((square, 1.0), (ramp, 0.5)):
        res = staircase_approx(F, eps, 64)
        assert res.case == "hit"
        assert max_gap_deviation(F, res) <= eps


def test_analytic_s_bisected_for_a_finite_value_at_infinity():
    assert MonotoneFn.analytic(lambda t: min(t * t, 9.0), 9.0)._sup_of_strict_sublevel() == pytest.approx(3.0)
    assert MonotoneFn.analytic(lambda t: min(t, 0.25), 0.25)._sup_of_strict_sublevel() == pytest.approx(0.25)
    assert MonotoneFn.analytic(lambda t: 1.0, 1.0)._sup_of_strict_sublevel() == 0.0
    assert MonotoneFn.analytic(lambda t: min(t, 2.0), 3.0)._sup_of_strict_sublevel() == math.inf


def test_analytic_gap_deviation_probes_eight_points_per_gap():
    # F(t) = t on unit gaps: the nearest probe below the right end is 1/8 in
    F = MonotoneFn.analytic(lambda t: t, math.inf)
    res = staircase_approx(F, 1.0, 5)
    assert max_gap_deviation(F, res) == pytest.approx(0.875)


def test_hit_filler_doubles_out_when_s_is_infinite():
    # F is flat at 1 from t = 1 on but F(inf) = inf, so s = inf and the
    # filler steps out by 1, 2, 4, ... from the last rung
    F = MonotoneFn.analytic(lambda t: min(t, 1.0), math.inf)
    res = staircase_approx(F, 0.5, 6)
    assert res.case == "hit"
    assert math.isinf(res.s)
    assert np.allclose(res.breakpoints, [0.0, 0.5, 1.5, 2.5, 4.5, 8.5, 16.5], atol=1e-9)
    assert max_gap_deviation(F, res) <= 0.5


def test_tall_jump_fast_forward():
    # a jump 1000x the epsilon must not stall the ladder
    F = MonotoneFn.step([1.0, 2.0], [0.0, 1000.0, 1001.0])
    res = staircase_approx(F, 1.0, 6)
    assert res.s == 2.0
    assert 1.0 in res.breakpoints.tolist()
    assert max_gap_deviation(F, res) <= 1.0


# --------------------------------------------------------------- step suites


@given(seed=st.integers(0, 2000), eps_exp=st.integers(-2, 1))
@settings(max_examples=60, deadline=None)
def test_gap_property_random_step_functions(seed, eps_exp):
    rng = np.random.default_rng(seed)
    F = random_step_fn(rng)
    span = float(F.piece_values[-1] - F.piece_values[0]) + 0.1
    eps = span * 10.0**eps_exp
    res = staircase_approx(F, eps, 64)
    if res.case == "empty":
        assert F.piece_values[0] == F.value_at_infinity
        return
    assert np.all(np.diff(res.breakpoints) > 0)
    assert np.all(res.breakpoints < res.s)
    assert max_gap_deviation(F, res) <= eps


@given(seed=st.integers(0, 2000))
@settings(max_examples=40, deadline=None)
def test_prefix_determinism(seed):
    rng = np.random.default_rng(seed)
    F = random_step_fn(rng)
    eps = 0.5
    short = staircase_approx(F, eps, 8)
    long = staircase_approx(F, eps, 16)
    k = len(short.breakpoints)
    assert np.array_equal(short.breakpoints, long.breakpoints[:k])


def reference_max_gap_deviation(F, result):
    """The per-jump scan that max_gap_deviation ran on step functions before
    it became one array expression; kept as the exact reference."""
    pts = result.breakpoints
    worst = 0.0
    for i in range(1, len(pts)):
        lo, hi = pts[i - 1], pts[i]
        cands = [hi]
        inside = F.jumps[(F.jumps > lo) & (F.jumps <= hi)]
        cands.extend(inside.tolist())
        ref = F(hi)
        for t in cands:
            dev = abs(ref - F(t))
            if dev > worst:
                worst = float(dev)
    return worst


@st.composite
def step_functions(draw):
    """Step functions with ties, jumps taller than any epsilon used below,
    jumps at t = 0 and, optionally, +inf final pieces (more than one makes
    inf - inf inside a gap)."""
    jumps = sorted(set(draw(st.lists(st.floats(0.0, 10.0), max_size=30))))
    rises = st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0, 7.5]) | st.floats(0.0, 3.0)
    pieces = np.cumsum(draw(st.lists(rises, min_size=len(jumps) + 1, max_size=len(jumps) + 1)))
    n_inf = draw(st.integers(0, min(3, len(jumps))))
    if n_inf:
        pieces[-n_inf:] = math.inf
        return MonotoneFn.step(jumps, pieces, value_at_infinity=math.inf)
    return MonotoneFn.step(jumps, pieces)


@given(F=step_functions(), eps=st.sampled_from([0.01, 0.1, 0.5, 2.0]), steps=st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_gap_deviation_matches_per_jump_scan_on_staircases(F, eps, steps):
    res = staircase_approx(F, eps, steps)
    assert max_gap_deviation(F, res) == reference_max_gap_deviation(F, res)


@given(F=step_functions(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_gap_deviation_matches_per_jump_scan_on_any_breakpoints(F, data):
    # breakpoints on and between the jumps, and past the last one, where an
    # inf final piece makes inf - inf at the right endpoint
    on_jumps = st.sampled_from(list(F.jumps) or [1.0])
    picks = data.draw(st.lists(on_jumps | st.floats(0.0, 12.0), max_size=20))
    pts = np.unique([0.0, *picks])
    res = StaircaseResult(pts, float(pts[-1]), "interior", 1.0)
    assert max_gap_deviation(F, res) == reference_max_gap_deviation(F, res)


@pytest.mark.parametrize("quantized", [False, True], ids=["tie-free", "quantized"])
def test_gap_deviation_exact_on_sampled_fields(quantized):
    g = build_grid(UNIT_DISK, 64)
    vals = sample(g, cone).values
    if quantized:
        vals = np.round(vals * 16) / 16
    F = inverse_distribution_fn(ScalarField.from_values(g, vals), 0.5)
    for eps in (0.01, 0.4):
        res = staircase_approx(F, eps, 64)
        assert max_gap_deviation(F, res) == reference_max_gap_deviation(F, res)


# ----------------------------------------------- inverse distribution version


def test_inverse_distribution_constant_field():
    g = build_grid(UNIT_SQUARE, 8)
    c = 1.75
    f = ScalarField.from_values(g, np.full(g.cell_count, c))
    res = staircase_approx(inverse_distribution_fn(f, 0.5), 0.3, 12)
    assert res.s == pytest.approx(c)
    assert res.case == "hit"
    F = inverse_distribution_fn(f, 0.5)
    assert F(c) == pytest.approx(g.measure**-0.5)
    assert max_gap_deviation(F, res) == 0.0


def test_inverse_distribution_cone():
    g = build_grid(UNIT_DISK, 64)
    f = sample(g, cone)
    gamma = 0.5  # (n-1)/n in the plane
    res = staircase_approx(inverse_distribution_fn(f, gamma), 0.5, 200)
    assert res.s == pytest.approx(f.max())
    assert np.all(np.diff(res.breakpoints) > 0)
    assert res.breakpoints[-1] < f.max()
    assert res.breakpoints[-1] > 0.8 * f.max()
    F = inverse_distribution_fn(f, gamma)
    assert max_gap_deviation(F, res) <= 0.5


def test_inverse_distribution_validation():
    g = build_grid(UNIT_SQUARE, 4)
    f = ScalarField.from_values(g, np.zeros(g.cell_count))
    with pytest.raises(ValueError):
        staircase_approx(inverse_distribution_fn(f, 0.5), 0.1, 5)
    f2 = ScalarField.from_values(g, np.ones(g.cell_count))
    with pytest.raises(ValueError):
        staircase_approx(inverse_distribution_fn(f2, 0.0), 0.1, 5)
    with pytest.raises(ValueError, match="gamma must be positive"):
        inverse_distribution_fn(f2, math.nan)


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_inverse_distribution_gap_property(seed):
    rng = np.random.default_rng(seed)
    g = build_grid(UNIT_SQUARE, 6)
    vals = rng.uniform(0, 5, g.cell_count)
    if seed % 2:
        vals = np.round(vals)
        vals[0] = 1.0  # keep a positive maximum
    f = ScalarField.from_values(g, vals)
    F = inverse_distribution_fn(f, 0.5)
    eps = (g.measure**-0.5) * 2  # a few ladder rungs
    res = staircase_approx(F, eps, 300)
    assert res.s == pytest.approx(f.max())
    assert max_gap_deviation(F, res) <= eps


# --------------------------------------------------------------------- export


def test_staircase_csv():
    F = MonotoneFn.step([1.0], [0.0, 2.0])
    res = staircase_approx(F, 0.5, 3)
    csv = staircase_csv(F, res)
    lines = csv.strip().splitlines()
    assert lines[0] == "i,t,F"
    assert lines[1] == "0,0.0,0.0"
    assert len(lines) == len(res.breakpoints) + 1
