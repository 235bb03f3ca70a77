"""In-memory span tracing of negbound's public functions, from outside src/.

``Tracer.install`` rebinds each traced function in every ``negbound.*``
module namespace that refers to it, so calls made inside the package (for
example ``origin_d_values`` calling ``negbound.sufficiency.subconfiguration``)
are recorded as well as the benchmark's own calls.  ``uninstall`` restores
the originals.  A span records name, start, end, parent span, operation id
and the input size; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

# Layer (module under src/negbound/) -> public functions recorded as spans.
TRACED = {
    "fileformat": ("parse_configuration", "parse_divisor"),
    "config": ("build_configuration", "subconfiguration", "proximity_matrix",
               "multiplicity_vector", "exceptional_self_intersections",
               "analysis_report"),
    "sufficiency": ("hat_configuration", "d_value", "origin_d_values",
                    "d_value_report"),
    "lattice": ("pairing", "strict_transform_of_exceptional",
                "strict_exceptional_coordinates",
                "divisor_from_strict_coordinates"),
    "bounds": ("cluster_bound_data", "nef_pullback_bounds",
               "epsilon_family_bounds", "polarization_bounds",
               "attached_foliation_degree_bounds", "empirical_nu"),
    "cli": ("main",),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 for none
    op: int          # operation id
    size: int        # points (or lines, or classes) in the first argument
    key: int         # hash of a d_value argument's points, else 0


def _size(arg) -> int:
    if hasattr(arg, "points"):
        return len(arg.points)
    if hasattr(arg, "exceptional"):
        return len(arg.exceptional)
    if isinstance(arg, str):
        return arg.count("\n")
    if isinstance(arg, (list, tuple)):
        return len(arg)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op = -1
        self.active = False      # spans are recorded only while True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        materialize = name == "config.build_configuration"
        keyed = name == "sufficiency.d_value"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if materialize:  # build_configuration takes any iterable of specs
                args = (list(args[0]),) + args[1:]
            size = _size(args[0]) if args else 0
            key = hash(args[0].points) if keyed else 0
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op, size, key)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "negbound" or name.startswith("negbound.")]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"negbound.{layer}")
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.span(f"{layer}.{fname}", original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._restore.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._restore):
            setattr(mod, fname, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": list(Span._fields),
                       "spans": [list(s) for s in self.spans]}, out)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


class LayerStats(NamedTuple):
    self_s: float
    calls: int
    size: int
    cells: int


def aggregate(spans: list[Span], ops: set[int] | None = None) -> dict[str, LayerStats]:
    """Totals per span name, over the spans of ``ops`` (all when None)."""
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0, 0, 0])
    for s, own in zip(spans, self_times(spans)):
        if ops is not None and s.op not in ops:
            continue
        t = totals[s.name]
        t[0] += own
        t[1] += 1
        t[2] += s.size
        t[3] += 2 * s.size * s.size
    return {name: LayerStats(*t) for name, t in totals.items()}


def useful_ratio(spans: list[Span], name: str, ops: set[int]) -> float:
    """Distinct (operation, argument) pairs over calls; 1.0 when never called."""
    keys = [(s.op, s.key) for s in spans if s.name == name and s.op in ops]
    return len(set(keys)) / len(keys) if keys else 1.0


def slope(t_full: float, t_half: float, n_full: int, n_half: int) -> float:
    """Log-log slope between two sizes: time grows as size ** slope."""
    if min(t_full, t_half) <= 0 or n_full == n_half:
        return 0.0
    return math.log(t_full / t_half) / math.log(n_full / n_half)
