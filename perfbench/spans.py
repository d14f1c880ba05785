"""Span tracer for the benchmark's traced run.

The tracer wraps public distlab functions from outside the package: each
target function object is replaced at every ``distlab.*`` module binding
that holds it, so a call made inside the package (``distortion`` calling
``fields.differential``) becomes a child span of its caller.  Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, function) pairs traced per layer; the metric names derive from them
TARGETS = (
    ("cli", "main"),
    ("fieldio", "read_field"),
    ("fieldio", "write_field"),
    ("gallery", "sample_map"),
    ("gallery", "sample_analytic_k"),
    ("gallery", "sample_analytic_sigma"),
    ("fields", "sample"),
    ("fields", "differential"),
    ("fields", "op_norm"),
    ("fields", "jacobian"),
    ("fields", "grad_norm"),
    ("fields", "interpolate"),
    ("distortion", "verify_distortion"),
    ("distortion", "residual_defect"),
    ("distortion", "pointwise_distortion"),
    ("distribution", "upper_distribution"),
    ("distribution", "neg_power_integral"),
    ("distribution", "pos_power_integral"),
    ("distribution", "verify_level_bounds"),
    ("distribution", "cavalieri_residual"),
    ("staircase", "staircase_approx"),
    ("staircase", "max_gap_deviation"),
    ("sobolev", "superlevel_check"),
    ("sobolev", "sharp_sobolev_check"),
    ("sobolev", "band_bound_check"),
    ("monotonicity", "sup_bound_chain"),
    ("monotonicity", "ball_extrema"),
    ("monotonicity", "modulus_curve"),
    ("monotonicity", "fit_defect_law"),
    ("monotonicity", "dyadic_osc_integral"),
)


def resolve_targets() -> tuple[dict, list[str]]:
    """Map "module.function" to the function object; also list the missing."""
    found, missing = {}, []
    for mod, fn in TARGETS:
        name = f"{mod}.{fn}"
        obj = getattr(importlib.import_module(f"distlab.{mod}"), fn, None)
        if callable(obj):
            found[name] = obj
        else:
            missing.append(name)
    return found, missing


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# byte counters read off the path argument of the field I/O functions
_BYTE_COUNTERS = {
    "fieldio.read_field": ("fieldio.bytes_read", lambda args, kw: kw.get("path", args[0] if args else None)),
    "fieldio.write_field": (
        "fieldio.bytes_written",
        lambda args, kw: kw.get("path", args[1] if len(args) > 1 else None),
    ),
}


class Tracer:
    """Records spans (name, start, end, parent) and per-root counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: list[tuple[int, str, float]] = []  # (root index, counter, value)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.targets, self.missing = resolve_targets()

    # ------------------------------------------------------------- spans
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span closed out of order")

    def count(self, counter: str, value: float) -> None:
        root = self._stack[0] if self._stack else -1
        self.counts.append((root, counter, float(value)))

    def _wrap(self, name: str, fn):
        counter = _BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if counter is not None:
                    self.count(counter[0], _file_size(counter[1](args, kwargs)))

        return traced

    # ------------------------------------------------------ installation
    def install(self) -> None:
        """Replace every distlab module binding of each target function."""
        if self._patched:
            return
        wrappers = {id(obj): self._wrap(name, obj) for name, obj in self.targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "distlab" or modname.startswith("distlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # ---------------------------------------------------------- analysis
    def self_times(self, root: int) -> dict[str, list[float]]:
        """Per span name under ``root``: [total self seconds, call count].

        Self time is a span's duration minus the time its direct children
        cover; children never overlap in one thread, so the sum of the
        self times of every span under a root equals the root's duration.
        """
        under = self._descendants(root)
        child_time = {i: 0.0 for i in under}
        for i in under:
            parent = self.spans[i][3]
            if parent in child_time:
                child_time[parent] += self.spans[i][2] - self.spans[i][1]
        out: dict[str, list[float]] = {}
        for i in under:
            name, start, end, _ = self.spans[i]
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += (end - start) - child_time[i]
            acc[1] += 1
        return out

    def counters(self, root: int) -> dict[str, float]:
        out: dict[str, float] = {}
        for r, counter, value in self.counts:
            if r == root:
                out[counter] = out.get(counter, 0.0) + value
        return out

    def _descendants(self, root: int) -> list[int]:
        keep = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in keep:
                keep.add(i)
        return sorted(keep)

    def dump(self, path: str, extra: dict) -> None:
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counts": [{"root": r, "counter": c, "value": v} for r, c, v in self.counts],
        }
        doc.update(extra)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)
