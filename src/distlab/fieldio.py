"""Text file format for sampled fields and maps.

One JSON document per field: geometry (dim, shape, origin, spacing, domain),
then either ``values`` (scalar) or ``components`` (one array per coordinate),
row-major over the full box with ``null`` at unmasked cells.  Floats pass
through ``repr`` round-tripping, so save/load is bit-exact.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .fields import Ball, Box, Grid, ScalarField, VectorMap, build_grid

__all__ = [
    "FieldFormatError",
    "field_document",
    "field_from_document",
    "write_field",
    "read_field",
]


_FLOAT_MAX = sys.float_info.max


class FieldFormatError(ValueError):
    """Malformed or unserializable field document."""


def _domain_descriptor(grid: Grid):
    dom = grid.domain
    if isinstance(dom, Box):
        return "box"
    if isinstance(dom, Ball):
        return {"ball": {"center": list(dom.center), "radius": dom.radius}}
    raise FieldFormatError(
        "only grids built from a box or ball domain are serializable"
    )


def _array_with_nulls(grid: Grid, data: np.ndarray) -> list:
    return np.where(grid.mask, data, None).reshape(-1).tolist()


def field_document(obj: ScalarField | VectorMap) -> dict:
    grid = obj.grid
    doc = {
        "dim": grid.dim,
        "shape": list(grid.shape),
        "origin": [float(x) for x in grid.origin],
        "spacing": grid.spacing,
        "domain": _domain_descriptor(grid),
    }
    if isinstance(obj, ScalarField):
        doc["values"] = _array_with_nulls(grid, obj.data)
    else:
        doc["components"] = [_array_with_nulls(grid, c.data) for c in obj.components]
    return doc


def _payload(doc: dict, shape: tuple[int, ...]) -> dict:
    """The document's value lists by name, lengths checked before any grid."""
    has_values = "values" in doc
    if has_values == ("components" in doc):
        raise FieldFormatError("document must carry exactly one of 'values' or 'components'")
    if has_values:
        payload = {"values": doc["values"]}
    else:
        comps = doc["components"]
        if not isinstance(comps, list) or len(comps) != len(shape):
            raise FieldFormatError(f"need exactly {len(shape)} components")
        payload = {f"components[{i}]": comp for i, comp in enumerate(comps)}
    n = math.prod(shape)  # integer arithmetic: a tiny document cannot request a huge grid
    for name, arr in payload.items():
        if not isinstance(arr, list) or len(arr) != n:
            raise FieldFormatError(f"{name} must be a row-major list of {n} entries")
    return payload


def _number(value, key: str, integer: bool = False):
    """A JSON integer (``integer``) or finite number; bools, strings and, where
    an integer is due, fractions are rejected naming ``key``."""
    number = not isinstance(value, bool) and isinstance(value, int if integer else (int, float))
    if not (number and (integer or -_FLOAT_MAX <= value <= _FLOAT_MAX)):
        raise FieldFormatError(f"geometry key {key!r}: {value!r} is not {'an integer' if integer else 'a finite number'}")
    return value if integer else float(value)


def _numbers(value, key: str, integer: bool = False) -> tuple:
    if not isinstance(value, list):
        raise FieldFormatError(f"geometry key {key!r}: {value!r} is not a list")
    return tuple(_number(v, key, integer) for v in value)


def _rebuild_grid(doc: dict) -> tuple[Grid, dict]:
    try:
        dim = _number(doc["dim"], "dim", integer=True)
        shape = _numbers(doc["shape"], "shape", integer=True)
        origin = _numbers(doc["origin"], "origin")
        spacing = _number(doc["spacing"], "spacing")
        domain = doc["domain"]
    except KeyError as exc:
        raise FieldFormatError(f"missing or malformed geometry key: {exc}") from exc
    if len(shape) != dim or len(origin) != dim:
        raise FieldFormatError("shape/origin length does not match dim")
    hi = tuple(origin[a] + shape[a] * spacing for a in range(dim))
    if domain == "box":
        dom = Box(origin, hi)
    elif isinstance(domain, dict) and "ball" in domain:
        ball = domain["ball"]
        try:
            dom = Ball(_numbers(ball["center"], "center"), _number(ball["radius"], "radius"))
        except FieldFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FieldFormatError("malformed ball domain") from exc
    else:
        raise FieldFormatError(f"unknown domain descriptor {domain!r}")
    payload = _payload(doc, shape)
    grid = build_grid(dom, shape)
    if grid.shape != shape or abs(grid.spacing - spacing) > 1e-12 * spacing:
        raise FieldFormatError("domain, shape and spacing are inconsistent")
    if any(abs(a - b) > 1e-12 * max(1.0, abs(b)) for a, b in zip(grid.origin, origin)):
        raise FieldFormatError("origin does not match the domain box")
    return grid, payload


def _parse_array(grid: Grid, arr: list, name: str) -> np.ndarray:
    flat_mask = grid.mask.reshape(-1)
    out = np.full(len(arr), np.nan)
    for idx, (v, m) in enumerate(zip(arr, flat_mask)):
        if v is None and not m:
            continue
        # JSON strings and true/false (bool is an int subclass) are not
        # numbers; the exact float test first keeps the common case cheap.
        # The range test also rejects nan, inf and ints float() cannot hold
        number = type(v) is float or isinstance(v, (int, float)) and not isinstance(v, bool)
        if m and number and -_FLOAT_MAX <= v <= _FLOAT_MAX:
            out[idx] = v
            continue
        if v is None:
            problem = "null at masked cell"
        elif not m:
            problem = "value at unmasked cell"
        else:
            problem = f"{v!r} is not a finite number at cell"
        cell = tuple(int(c) for c in np.unravel_index(idx, grid.shape))
        raise FieldFormatError(f"{name}: {problem} {cell}")
    return out.reshape(grid.shape)


def field_from_document(doc: dict) -> ScalarField | VectorMap:
    grid, payload = _rebuild_grid(doc)
    fields = tuple(ScalarField(grid, _parse_array(grid, arr, name)) for name, arr in payload.items())
    return fields[0] if "values" in payload else VectorMap(grid, fields)


def write_field(obj: ScalarField | VectorMap, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(field_document(obj)) + "\n")  # dumps runs the C encoder, dump does not


def read_field(path) -> ScalarField | VectorMap:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FieldFormatError(f"not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise FieldFormatError("top-level document must be an object")
    return field_from_document(doc)
