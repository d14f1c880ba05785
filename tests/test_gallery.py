import math

import numpy as np
import pytest

from distlab.distortion import DistortionData, pointwise_distortion, verify_distortion
from distlab.fields import Ball, build_grid
from distlab.gallery import (
    list_examples,
    make_example,
    sample_analytic_k,
    sample_analytic_sigma,
    sample_map,
)

AGREEMENT_RTOL = 3e-2  # finite-difference agreement level at 256^2


def singular_cell_mask(ex, grid):
    """Flat boolean over masked cells: True within two spacings of a declared
    singular point, where finite differences are meaningless."""
    excl = np.zeros(grid.cell_count, dtype=bool)
    for s in ex.metadata.get("singular_points", []):
        d = np.sqrt(((grid.masked_centers - np.asarray(s)) ** 2).sum(axis=1))
        excl |= d <= 2.0 * grid.spacing
    return excl


def test_identity_example():
    ex = make_example("identity")
    pts = np.array([[0.3, -0.2], [0.0, 0.5]])
    assert np.allclose(ex.evaluator(pts), pts)
    assert np.allclose(ex.analytic_k(pts), 1.0)
    assert np.allclose(ex.analytic_sigma(pts), 0.0)


def test_radial_log_analytic_k_value():
    ex = make_example("radial_log")
    val = ex.analytic_k(np.array([[0.1, 0.0]]))
    assert val[0] == pytest.approx(2 * math.log(10.0), rel=1e-12)


def test_radial_power_k_constant():
    ex2 = make_example("radial_power", dim=2, a=3.0)
    pts = np.array([[0.5, 0.1]])
    assert ex2.analytic_k(pts)[0] == pytest.approx(3.0)
    ex3 = make_example("radial_power", dim=3, a=3.0)
    pts3 = np.array([[0.5, 0.1, -0.2]])
    assert ex3.analytic_k(pts3)[0] == pytest.approx(9.0)


def test_unknown_example_and_bad_params():
    with pytest.raises(ValueError):
        make_example("moebius")
    with pytest.raises(ValueError):
        make_example("winding", k=0)
    with pytest.raises(ValueError):
        make_example("winding", dim=3, k=2)
    with pytest.raises(ValueError):
        make_example("radial_power", a=0.5)


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("winding", {"K": 3}, "example 'winding' has no parameter 'K'; its parameters: k"),
        ("radial_power", {"alpha": 3}, "example 'radial_power' has no parameter 'alpha'; its parameters: a"),
        ("cone", {"foo": 1}, "example 'cone' has no parameter 'foo'; its parameters: none"),
        ("linear", {"det": 2.0, "B": 1.0}, "example 'linear' has no parameter 'B', 'det'; its parameters: A"),
    ],
    ids=["winding-K", "radial_power-alpha", "cone-foo", "linear-det-B"],
)
def test_unknown_params_rejected(name, params, message):
    with pytest.raises(ValueError) as exc:
        make_example(name, **params)
    assert str(exc.value) == message


def test_list_examples_shows_the_accepted_params():
    # the names --params can set: linear's matrix A is library-only
    params = {e["name"]: e["params"] for e in list_examples()}
    assert params == {
        "identity": [], "linear": [], "cone": [], "smooth_bump": [], "winding": ["k"],
        "radial_power": ["a"], "radial_log": [], "x_over_norm": [],
    }
    for name, names in params.items():  # each listed name is accepted
        make_example(name, **{key: 2 for key in names})
    notes = next(e["notes"] for e in list_examples() if e["name"] == "linear")
    assert "library-only" in notes
    assert make_example("linear", A=2.0 * np.eye(2)).metadata["distortion_class"] == "quasiregular"


def test_list_examples_deterministic():
    first = list_examples()
    second = list_examples()
    assert first == second
    names = [e["name"] for e in first]
    assert "radial_log" in names
    xon = next(e for e in first if e["name"] == "x_over_norm")
    assert "non-integrable" in xon["notes"]


def test_scalar_examples_sample_to_fields():
    ex = make_example("cone")
    f = sample_map(ex, 64)
    assert f.values.max() <= 1.0
    bump = sample_map(make_example("smooth_bump"), 64)
    assert bump.values.min() >= 0.0


@pytest.mark.parametrize(
    "name,params",
    [
        ("identity", {}),
        ("linear", {"A": [[2.0, 0.5], [0.0, 1.5]]}),
        ("winding", {"k": 2}),
        ("winding", {"k": 3}),
        ("radial_power", {"a": 2.0}),
        ("radial_power", {"a": 3.0}),
        ("radial_log", {}),
        ("x_over_norm", {}),
    ],
)
def test_analytic_data_verifies_outside_singular_set(name, params):
    ex = make_example(name, **params)
    g = build_grid(ex.default_domain, 256)
    vm = sample_map(ex, g)
    data = DistortionData(
        sample_analytic_k(ex, g), sample_analytic_sigma(ex, g), 4.0, 4.0
    )
    rep = verify_distortion(vm, data, rel_tol=AGREEMENT_RTOL)
    excl = singular_cell_mask(ex, g)
    outside = (~excl[rep.violation_indices]).sum() if len(rep.violation_indices) else 0
    assert outside == 0


@pytest.mark.parametrize(
    "name,params,annulus",
    [
        ("winding", {"k": 3}, (0.1, 0.9)),
        ("radial_power", {"a": 2.0}, (0.1, 0.9)),
        ("radial_log", {}, (0.05, 0.55)),
    ],
)
def test_pointwise_distortion_agreement(name, params, annulus):
    ex = make_example(name, **params)
    g = build_grid(ex.default_domain, 256)
    vm = sample_map(ex, g)
    pk = pointwise_distortion(vm)
    r = np.sqrt((pk.grid.masked_centers**2).sum(axis=1))
    ring = (r > annulus[0]) & (r < annulus[1])
    expected = ex.analytic_k(pk.grid.masked_centers[ring])
    assert np.allclose(pk.values[ring], expected, rtol=AGREEMENT_RTOL)


def test_radial_log_clamped_sampling():
    ex = make_example("radial_log")
    g = build_grid(Ball((0.0, 0.0), 0.9), 128)
    raw = sample_analytic_k(ex, g)
    clamped = sample_analytic_k(ex, g, clamped=True)
    assert raw.values.min() < 1.0
    assert clamped.values.min() >= 1.0
    inside = raw.values >= 1.0
    assert np.allclose(clamped.values[inside], raw.values[inside])
    assert ex.metadata["clamp_radius"] == pytest.approx(math.exp(-0.5))


def test_linear_orientation_reversing_has_no_k():
    ex = make_example("linear", A=[[0.0, 1.0], [1.0, 0.0]])
    assert ex.analytic_k is None
    assert ex.metadata["distortion_class"] == "orientation_reversing"
