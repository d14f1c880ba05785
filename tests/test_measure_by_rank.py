"""Bit-exactness of the measure layer that works from one sort of the field.

``distribution._mu_plus_of_cells`` gives each masked cell mu_plus of its own
value from the run starts of one argsort; it must equal, bit for bit, the
per-cell search ``upper_distribution(f).mu_plus(f.values)``, also on a chain
truncation that is zero on most of its mask and on a field with no nonzero cell.  The levels and
counts of ``upper_distribution`` must be those of ``np.unique``, and
``verify_level_bounds`` (a search among the level measures) must reproduce
the earlier boolean-mask sums over the levels.  ``fields._grad_norm_values``
must give the masked values of ``grad_norm`` and its overflow error.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distlab.distribution import _mu_plus_of_cells, upper_distribution, verify_level_bounds
from distlab.fields import Ball, Box, ScalarField, _grad_norm_values, build_grid, grad_norm, sample, truncate
from distlab.sobolev import band_bound_check, superlevel_check

NEGATIVE = "distribution functions require a nonnegative field"


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


@st.composite
def tied_fields(draw):
    """Nonnegative fields on 2-D/3-D boxes and balls whose values come from a
    few levels (heavy ties, -0.0 beside 0.0) or are drawn freely."""
    dim = draw(st.sampled_from([2, 3]))
    res = draw(st.integers(2, 16 if dim == 2 else 7))
    domain = draw(st.sampled_from([Box((0.0,) * dim, (1.0,) * dim), Ball((0.0,) * dim, 1.0)]))
    grid = build_grid(domain, res)
    pool = draw(
        st.sampled_from(
            [
                [0.0, -0.0],
                [0.0, -0.0, 1.0, 2.5],
                [3.0, 3.0 + 2**-51, 7.25],
                [5e-324, 1e-300, 1.0, 1e300],
            ]
        )
    )
    free = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.uniform(0.0, 10.0, grid.cell_count) if free else rng.choice(pool, grid.cell_count)
    return ScalarField.from_values(grid, vals)


def stretched_cone(res=256):
    """1 - |A p| cut at 0 on the unit disk: elliptic level sets, few ties."""
    rot = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
    scale = 1.0 / np.array([0.88, 0.729 / 0.88])
    c = np.array([0.013, -0.021])
    return sample(
        build_grid(Ball((0.0, 0.0), 1.0), res),
        lambda p: np.maximum(0.0, 1.0 - np.sqrt(((((p - c) @ rot.T) * scale) ** 2).sum(axis=-1))),
    )


def chain_truncation(res=40):
    """(f - level)^+ of a 3-D bump on a ball, as the estimate chain truncates a
    coordinate: the support is a small share of the mask, every other cell 0."""
    f = sample(build_grid(Ball((0.0,) * 3, 1.0), res), lambda p: np.exp(-((p - 0.05) ** 2).sum(axis=-1) / 0.02))
    return truncate(f, 0.03, "above")


def fixed_fields():
    g2, g3 = build_grid(Ball((0.0, 0.0), 1.0), 24), build_grid(Box((0.0,) * 3, (1.0,) * 3), 6)
    b3 = build_grid(Ball((0.0,) * 3, 1.0), 12)
    signed_zeros = np.where(np.arange(g2.cell_count) % 3 == 0, -0.0, 0.0)
    return {
        "chain-truncation": chain_truncation(),
        "no-nonzero-3d": ScalarField.from_values(b3, np.full(b3.cell_count, -0.0)),
        "constant": ScalarField.from_values(g3, np.full(g3.cell_count, 2.5)),
        "all-zero": ScalarField.from_values(g2, np.zeros(g2.cell_count)),
        "signed-zeros": ScalarField.from_values(g2, signed_zeros),
        "signed-zeros-and-one": ScalarField.from_values(g2, np.where(np.arange(g2.cell_count) % 5, signed_zeros, 1.0)),
        "stretched-cone-256": stretched_cone(),
    }


FIXED = fixed_fields()


def check_rank_measures(f):
    assert same_bits(_mu_plus_of_cells(f), upper_distribution(f).mu_plus(f.values))
    dist = upper_distribution(f)
    levels, counts = np.unique(f.values, return_counts=True)
    assert same_bits(dist.levels, levels)
    assert same_bits(dist.counts, counts)


@given(f=tied_fields())
@settings(max_examples=120, deadline=None)
def test_rank_measures_equal_the_search_and_np_unique(f):
    check_rank_measures(f)


@pytest.mark.parametrize("name", FIXED)
def test_rank_measures_on_fixed_fields(name):
    check_rank_measures(FIXED[name])


def test_chain_truncation_is_mostly_zero():
    vals = FIXED["chain-truncation"].values
    assert 0 < np.count_nonzero(vals) < 0.05 * len(vals)


def test_stretched_cone_is_nearly_tie_free():
    f = FIXED["stretched-cone-256"]
    levels = upper_distribution(f).levels
    assert len(levels) > 0.7 * f.grid.cell_count


# ---------------------------------------------------------------- level bounds


def reference_level_bounds(field, a_values):
    """The earlier loop: boolean masks over the levels, summed per a."""
    dist = upper_distribution(field)
    hvol = dist.cell_volume
    mu_plus, mu_minus = dist._level_mu()
    out = []
    for a in np.atleast_1d(np.asarray(a_values, dtype=float)):
        lower_meas = int(dist.counts[mu_minus <= a].sum()) * hvol
        upper_meas = int(dist.counts[mu_plus < a].sum()) * hvol
        out.append((float(a), lower_meas, bool(lower_meas >= a), upper_meas, bool(upper_meas <= a)))
    return out


def check_level_bounds(f):
    dist = upper_distribution(f)
    total = dist.total
    mu_plus, mu_minus = dist._level_mu()
    # a exactly at attained measures, where the side of each search matters
    a_values = [*(total * k / 8 for k in range(9)), *mu_plus, *mu_minus[mu_minus <= total]]
    got = [
        (r.a, r.lower_set_measure, r.lower_holds, r.upper_set_measure, r.upper_holds)
        for r in verify_level_bounds(f, a_values)
    ]
    want = reference_level_bounds(f, a_values)
    assert [tuple(map(type, g)) for g in got] == [tuple(map(type, w)) for w in want]
    assert got == want


@given(f=tied_fields())
@settings(max_examples=80, deadline=None)
def test_level_bounds_equal_the_mask_sums(f):
    check_level_bounds(f)


@pytest.mark.parametrize("name", [n for n in FIXED if n != "stretched-cone-256"])
def test_level_bounds_on_fixed_fields(name):
    check_level_bounds(FIXED[name])


def test_level_bounds_on_the_stretched_cone():
    f = FIXED["stretched-cone-256"]
    dist = upper_distribution(f)
    mu_plus, mu_minus = dist._level_mu()
    a_values = [0.0, dist.total / 3, dist.total, *mu_plus[::101], *mu_minus[::103]]
    got = [(r.a, r.lower_set_measure, r.lower_holds, r.upper_set_measure, r.upper_holds)
           for r in verify_level_bounds(f, a_values)]
    assert got == reference_level_bounds(f, a_values)


# --------------------------------------------------------------- gradient norm


@given(f=tied_fields())
@settings(max_examples=60, deadline=None)
def test_grad_norm_values_are_the_masked_grad_norm(f):
    try:
        want = grad_norm(f).values
    except ValueError as exc:  # the 1e300 levels overflow the squares
        with pytest.raises(ValueError, match=f"^{exc}$"):
            _grad_norm_values(f)
    else:
        assert same_bits(_grad_norm_values(f), want)


def test_grad_norm_values_on_the_stretched_cone():
    f = FIXED["stretched-cone-256"]
    assert same_bits(_grad_norm_values(f), grad_norm(f).values)


def test_grad_norm_overflow_raises_the_masked_field_error():
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 8)
    f = ScalarField.from_values(g, np.where(np.arange(g.cell_count) % 2, 1e300, -1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (_grad_norm_values, grad_norm):
            with pytest.raises(ValueError, match="^field values must be finite on the mask$"):
                fn(f)


# --------------------------------------------------------------- negative field


def test_negative_field_rejected_with_the_same_message():
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 8)
    f = ScalarField.from_values(g, np.linspace(-1, 1, g.cell_count))
    tiny = ScalarField.from_values(g, np.where(np.arange(g.cell_count) == 17, -5e-324, 1.0))
    for field in (f, tiny):
        for fn in (superlevel_check, upper_distribution, _mu_plus_of_cells):
            with pytest.raises(ValueError, match=f"^{NEGATIVE}$"):
                fn(field)
    with pytest.raises(ValueError, match="^band bound requires a nonnegative field$"):
        band_bound_check(f, 0.1, 0.2)
