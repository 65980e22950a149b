"""Per-layer stage tracing, installed from outside the program.

The tracer replaces chosen public functions of ``kummerlcp`` by timing
wrappers in every loaded ``kummerlcp`` module that binds them (the defining
module, modules that imported the name, and the package namespace), and
puts the originals back on exit.  Importing this module wraps nothing, so
a run that never enters a Tracer leaves the program untouched.

Spans nest: a wrapped call made inside another wrapped call is its child,
and a span's self time is its duration minus the durations of its children.
Counters are computed from the arguments and the return value at the same
boundary; the time they take is charged to no span.

The scalar ``FieldSpec.add/mul/pow`` are deliberately not wrapped: they run
millions of times per op, so their cost shows as their callers' self time.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

_MARK = "_stagetrace_original"

BOTH = ("catalog", "dickson103_n400")


def _poly_counts(args, kwargs, result):
    return {"q_scanned": args[0].field.q}


def _split_counts(args, kwargs, result):
    return {"q_scanned": args[0].field.q, "hits": len(result)}


def _elems(args, kwargs, result):
    return {"elems": int(np.size(result))}


def _bulk_counts(args, kwargs, result):
    cond3 = result[1]
    return {"cells": int(cond3.size), "hits": int(cond3.sum())}


def _basis_counts(args, kwargs, result):
    return {"basis_size": len(result)}


def _matrix_counts(args, kwargs, result):
    return {"cells": int(result.size)}


def _rank_counts(args, kwargs, result):
    rows, cols = np.shape(args[1])
    return {"cells": rows * cols, "rank": int(result),
            "rank_max": min(rows, cols)}


# (layer name, reported metrics, counter, workloads on which calls must be > 0)
LAYERS = [
    ("ffield.make_field", ("self_s",), None, ("dickson103_n400",)),
    ("ffield.poly_analyze", ("self_s", "calls", "q_scanned"), _poly_counts,
     ("dickson103_n400",)),
    ("ffield.nth_roots", ("self_s", "calls"), None, ("dickson103_n400",)),
    ("ffield.add_arr", ("self_s", "elems"), _elems, BOTH),
    ("ffield.sub_arr", ("self_s", "elems"), _elems, BOTH),
    ("ffield.neg_arr", ("self_s", "elems"), _elems, BOTH),
    ("ffield.mul_arr", ("self_s", "elems"), _elems, BOTH),
    ("ffield.pow_arr", ("self_s", "elems"), _elems, BOTH),
    ("curve.census", ("self_s",), None, ("catalog",)),
    ("curve.completely_split_values", ("self_s", "q_scanned", "hit_frac"),
     _split_counts, BOTH),
    ("curve.splitting_type", ("self_s", "calls"), None, ("dickson103_n400",)),
    ("curve.principal_divisor", ("self_s", "calls"), None, ("dickson103_n400",)),
    ("nonspecial.enumerate_nonspecial", ("self_s",), None, ("nonspecial_sweep",)),
    ("nonspecial.bulk_verdicts", ("self_s", "calls", "cells", "hit_frac"),
     _bulk_counts, ("nonspecial_sweep",)),
    ("nonspecial.criterion_check", ("self_s", "calls"), None,
     ("nonspecial_sweep",)),
    ("codes.split_place_list", ("self_s",), None, BOTH),
    ("codes.rr_basis", ("self_s", "basis_size"), _basis_counts, BOTH),
    ("codes.eval_matrix", ("self_s", "cells"), _matrix_counts, BOTH),
    ("codes.build_code", ("self_s",), None, BOTH),
    ("codes.lcp_verify", ("self_s",), None, BOTH),
    ("codes.lcp_build_general", ("self_s",), None, BOTH),
    ("codes.lcp_build_regime", ("self_s",), None, BOTH),
    ("codes.gf_rank", ("self_s", "calls", "cells", "rank_frac"), _rank_counts,
     BOTH),
    ("instances.reproduce", ("self_s",), None, ("catalog",)),
    ("instances.dickson_curve_single", ("self_s",), None, ("catalog",)),
]

_UNITS = {"self_s": "s", "hit_frac": "ratio", "rank_frac": "ratio"}
_HIGHER = ("hit_frac", "rank_frac")


def metric_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{layer}.{m}", _UNITS.get(m, "count"),
            "higher" if m in _HIGHER else "lower")
           for layer, metrics, _, _ in LAYERS for m in metrics]
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


def _target(layer: str):
    """(owner object, attribute) holding the original of a layer's function."""
    mod_name, attr = layer.split(".")
    module = sys.modules[f"kummerlcp.{mod_name}"]
    if attr.endswith("_arr"):
        return module.FieldSpec, attr
    return module, attr


class _Stat:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}


class Tracer:
    """Context manager that wraps every layer in LAYERS while active; each
    entry starts a fresh set of statistics."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._patched = []

    def _wrap(self, layer, fn, count):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = self.stats[layer]
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stat.calls += 1
                stat.self_s += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if count is not None:
                c0 = time.perf_counter()
                for key, val in count(args, kwargs, result).items():
                    stat.counts[key] = stat.counts.get(key, 0) + val
                if stack:
                    stack[-1] += time.perf_counter() - c0
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def __enter__(self):
        self.stats = {layer: _Stat() for layer, _, _, _ in LAYERS}
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "kummerlcp" or name.startswith("kummerlcp.")]
        for layer, _, count, _ in LAYERS:
            owner, attr = _target(layer)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, count)
            holders = [owner] if isinstance(owner, type) else [
                mod for mod in modules if getattr(mod, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._patched.append((holder, attr, original))
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()
        return False

    def snapshot(self) -> dict:
        """Flat {"layer.key": value} of calls, self time and raw counters."""
        out = {}
        for layer, stat in self.stats.items():
            out[f"{layer}.calls"] = stat.calls
            out[f"{layer}.self_s"] = stat.self_s
            for key, val in stat.counts.items():
                out[f"{layer}.{key}"] = val
        return out


def report(passes: list[dict]) -> dict:
    """Per-layer metrics: self times averaged over the passes, counts and
    ratios from the first pass (the passes agree on them exactly)."""
    first = passes[0]
    out = {}
    for layer, metrics, _, _ in LAYERS:
        for m in metrics:
            if m == "self_s":
                val = sum(p[f"{layer}.self_s"] for p in passes) / len(passes)
            elif m == "hit_frac":
                base = first.get(f"{layer}.cells", first.get(f"{layer}.q_scanned", 0))
                val = first.get(f"{layer}.hits", 0) / base if base else 0.0
            elif m == "rank_frac":
                base = first.get(f"{layer}.rank_max", 0)
                val = first.get(f"{layer}.rank", 0) / base if base else 0.0
            else:
                val = first.get(f"{layer}.{m}", 0)
            out[f"{layer}.{m}"] = val
    return out


def coverage_gaps(snap: dict, workload: str) -> list[str]:
    """Layers that should have run on this workload but recorded no call."""
    return [layer for layer, _, _, where in LAYERS
            if workload in where and not snap[f"{layer}.calls"]]


def count_mismatches(a: dict, b: dict) -> list[str]:
    """Counters (every call count and raw count) that differ between two
    passes over the same inputs."""
    keys = sorted(k for k in set(a) | set(b) if not k.endswith(".self_s"))
    return [k for k in keys if a.get(k) != b.get(k)]


def installed_wrappers() -> list[str]:
    """Names of kummerlcp attributes that are currently tracer wrappers."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "kummerlcp" and not name.startswith("kummerlcp."):
            continue
        for holder in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
            for attr, val in list(vars(holder).items()):
                if hasattr(val, _MARK):
                    found.append(f"{name}.{attr}")
    return found
