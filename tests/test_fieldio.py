import json

import numpy as np
import pytest

from distlab import fieldio
from distlab.fields import Ball, Box, ScalarField, build_grid, sample
from distlab.fieldio import (
    FieldFormatError,
    field_document,
    field_from_document,
    read_field,
    write_field,
)


def cone(pts):
    return 1.0 - np.sqrt((pts**2).sum(axis=-1))


def test_scalar_round_trip_bit_exact(tmp_path):
    g = build_grid(Ball((0.0, 0.0), 1.0), 32)
    rng = np.random.default_rng(5)
    f = ScalarField.from_values(g, rng.uniform(-3, 7, g.cell_count))
    path = tmp_path / "f.json"
    write_field(f, path)
    back = read_field(path)
    assert isinstance(back, ScalarField)
    assert np.array_equal(back.values, f.values)
    assert back.grid.shape == g.shape
    assert back.grid.spacing == g.spacing
    # a second write is byte-identical
    path2 = tmp_path / "f2.json"
    write_field(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_map_round_trip(tmp_path):
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 16)
    vm = sample(g, lambda p: np.stack([p[..., 0] ** 2, p[..., 1]], axis=-1))
    path = tmp_path / "m.json"
    write_field(vm, path)
    back = read_field(path)
    assert all(np.array_equal(b.values, c.values) for b, c in zip(back.components, vm.components, strict=True))


def test_null_pattern_enforced():
    g = build_grid(Ball((0.0, 0.0), 1.0), 8)
    f = sample(g, cone)
    doc = field_document(f)
    doc["values"][0] = 1.0  # corner cell is outside the disk
    with pytest.raises(FieldFormatError):
        field_from_document(doc)
    doc2 = field_document(f)
    idx = next(i for i, v in enumerate(doc2["values"]) if v is not None)
    doc2["values"][idx] = None
    with pytest.raises(FieldFormatError):
        field_from_document(doc2)


def test_malformed_documents_rejected(tmp_path):
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 4)
    f = ScalarField.from_values(g, np.zeros(g.cell_count))
    doc = field_document(f)

    bad = dict(doc)
    bad.pop("values")
    with pytest.raises(FieldFormatError):
        field_from_document(bad)

    bad = dict(doc)
    bad["values"] = doc["values"][:-1]
    with pytest.raises(FieldFormatError):
        field_from_document(bad)

    bad = dict(doc)
    bad["domain"] = {"cylinder": {}}
    with pytest.raises(FieldFormatError):
        field_from_document(bad)

    bad = dict(doc)
    bad["values"] = list(doc["values"])
    bad["values"][0] = float("nan")
    with pytest.raises(FieldFormatError):
        json_round = json.loads(json.dumps(bad))  # json turns nan into NaN literal
        field_from_document(bad)

    # geometry of the wrong JSON type: fractions and strings where integers or
    # numbers are due, bools where either is
    for key, value in [
        ("shape", [4.7, 4.2]),
        ("dim", 2.9),
        ("shape", ["4", "4"]),
        ("spacing", "0.25"),
        ("dim", True),
        ("origin", [0.0, False]),
        ("origin", [0.0, float("inf")]),
        ("spacing", float("nan")),
    ]:
        bad = dict(doc, **{key: value})
        with pytest.raises(FieldFormatError, match=f"geometry key '{key}': "):
            field_from_document(bad)
    ball = field_document(sample(build_grid(Ball((0.0, 0.0), 1.0), 4), cone))
    for key, value in [("center", ["0", 0.0]), ("radius", True), ("radius", 10**400)]:
        bad = dict(ball, domain={"ball": dict(ball["domain"]["ball"], **{key: value})})
        with pytest.raises(FieldFormatError, match=f"geometry key '{key}': "):
            field_from_document(bad)

    p = tmp_path / "junk.json"
    p.write_text("not json")
    with pytest.raises(FieldFormatError):
        read_field(p)


@pytest.mark.parametrize(
    "payload",
    [{"values": [0.0]}, {"components": [[0.0], [0.0]]}],
    ids=["values", "components"],
)
def test_payload_length_checked_before_the_grid_is_built(monkeypatch, payload):
    # a tiny document must not be able to request a 10^10-cell grid
    def refuse(*args, **kwargs):
        raise AssertionError("build_grid ran before the payload length check")

    monkeypatch.setattr(fieldio, "build_grid", refuse)
    doc = {
        "dim": 2,
        "shape": [100_000, 100_000],
        "origin": [0.0, 0.0],
        "spacing": 1e-5,
        "domain": "box",
        **payload,
    }
    with pytest.raises(FieldFormatError, match="10000000000 entries"):
        field_from_document(doc)


@pytest.mark.parametrize("bad", ["1.5", True, False, [1.0], {"x": 1.0}])
@pytest.mark.parametrize("key", ["values", "components"])
def test_non_numeric_entries_rejected(bad, key):
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 4)
    f = ScalarField.from_values(g, np.zeros(g.cell_count))
    vm = sample(g, lambda p: p)
    doc = json.loads(json.dumps(field_document(f if key == "values" else vm)))
    entries = doc["values"] if key == "values" else doc["components"][1]
    entries[5] = bad
    with pytest.raises(FieldFormatError, match=r"cell \(1, 1\)"):
        field_from_document(doc)


@pytest.mark.parametrize("where", ["values", "origin", "spacing"])
def test_integer_beyond_float_range_rejected(where):
    # json.loads turns a 400-digit literal into an int that float() cannot hold
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 4)
    doc = field_document(ScalarField.from_values(g, np.zeros(g.cell_count)))
    if where == "spacing":
        doc["spacing"] = "BIG"
    else:
        doc[where][0] = "BIG"
    text = json.dumps(doc).replace('"BIG"', "1" + "0" * 400)
    with pytest.raises(FieldFormatError):
        field_from_document(json.loads(text))


def test_integer_entries_accepted():
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 4)
    doc = field_document(ScalarField.from_values(g, np.zeros(g.cell_count)))
    doc["values"] = [2] * g.cell_count
    back = field_from_document(json.loads(json.dumps(doc)))
    assert np.array_equal(back.values, np.full(g.cell_count, 2.0))


def test_restricted_grid_not_serializable():
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 8)
    f = ScalarField.from_values(g, np.ones(g.cell_count))
    sub = f.restrict(g.ball_mask(Ball((0.5, 0.5), 0.3)))
    with pytest.raises(FieldFormatError):
        field_document(sub)


def test_document_schema_keys():
    g = build_grid(Ball((0.25, 0.0), 0.5), 8)
    f = sample(g, cone)
    doc = field_document(f)
    assert doc["dim"] == 2
    assert doc["shape"] == [8, 8]
    assert doc["domain"] == {"ball": {"center": [0.25, 0.0], "radius": 0.5}}
    assert len(doc["values"]) == 64
    g2 = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 4)
    doc2 = field_document(ScalarField.from_values(g2, np.zeros(g2.cell_count)))
    assert doc2["domain"] == "box"
    assert all(v == 0.0 for v in doc2["values"])


def test_writer_refuses_what_the_reader_refuses(tmp_path):
    # an infinite value (a defect field may hold +inf) used to be written as
    # Infinity, which read_field refuses
    g = build_grid(Box((0.0, 0.0), (1.0, 1.0)), 4)
    vals = np.zeros(g.shape)
    vals[2, 1] = np.inf
    path = tmp_path / "f.json"
    message = "values: inf is not a finite number at cell (2, 1)"
    with pytest.raises(FieldFormatError) as written:
        write_field(ScalarField(g, vals, allow_infinite=True), path)
    assert str(written.value) == message
    assert not path.exists()
    doc = field_document(ScalarField(g, np.zeros(g.shape)))
    doc["values"][2 * 4 + 1] = float("inf")
    with pytest.raises(FieldFormatError) as read:
        field_from_document(doc)
    assert str(read.value) == message
