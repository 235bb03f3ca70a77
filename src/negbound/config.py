"""Clusters of infinitely near points: validation and proximity combinatorics.

A cluster (configuration) is an ordered list of blowup centers over a base
surface.  Each point past an origin records the points it is proximate to:
exactly one (a free point, proximate to its parent) or two (a satellite,
proximate to its parent and to one of the parent's own proximity targets).
Everything downstream (proximity matrix, multiplicity vector, exceptional
self-intersections) is derived from this data with exact integer arithmetic.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, TypeVar, Union

from .errors import (
    ConfigurationError,
    DuplicateIdError,
    ForwardReferenceError,
    InvalidSatelliteError,
    NormalizationError,
    TooManyProximitiesError,
    UnknownPointError,
    quote,
)
from .surfaces import (ProjectivePlane, SurfaceModel, checked_surface,
                       surface_json_fields)

PointSpec = tuple[int, Sequence[int]]
IntMatrix = tuple[tuple[int, ...], ...]
Scalar = TypeVar("Scalar", int, Fraction)
Rational = Union[int, Fraction]


def _rational(value) -> Rational:
    """An int or Fraction as it is, another ``numbers.Rational`` as a
    Fraction; anything else (float, Decimal, str) raises TypeError."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, numbers.Rational):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class Point:
    """One blowup center, as the ``points`` view of a cluster shows it.

    ``proximities`` lists the ids this point is proximate to, parent first
    (the parent is the proximate point of maximal id).  Origins have none,
    free points one, satellites two.
    """

    id: int
    proximities: tuple[int, ...]
    level: int


@dataclass(frozen=True)
class Configuration:
    """A validated cluster over a surface, stored as its proximity tuples:
    entry ``i`` lists the targets of point ``i + 1``, parent first.

    Valid by construction: build it with :func:`build_configuration` or
    ``parse_configuration``; the bare constructor checks only its surface.
    Subclusters and satellite completions reuse the tuples of a valid one.
    """

    proximities: tuple[tuple[int, ...], ...]
    surface: SurfaceModel = ProjectivePlane()
    # Surface-free values by name, handed on by dataclasses.replace; key
    # "proximities" keeps the tuple they derive from, so its identity cannot
    # be reused, and __post_init__ swaps in a new dict for any other tuple.
    _surface_free: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        checked_surface(self.surface)
        shared = self._surface_free
        if shared is None or shared["proximities"] is not self.proximities:
            object.__setattr__(self, "_surface_free",
                               {"proximities": self.proximities})

    def __reduce__(self):
        # The fields only: cached views and the holder are derived again.
        return Configuration, (self.proximities, self.surface)

    def __len__(self) -> int:
        return len(self.proximities)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """Built on first use; a point's level is its parent's plus one."""
        points: list[Point] = []
        for pid, prox in enumerate(self.proximities, start=1):
            level = points[prox[0] - 1].level + 1 if prox else 0
            points.append(Point(pid, prox, level))
        return tuple(points)

    def _check_id(self, point_id: int) -> None:
        if type(point_id) is not int:  # build_configuration's rule for ids
            raise UnknownPointError(f"point ids are int, not {type(point_id).__name__}")
        if not 1 <= point_id <= len(self.proximities):
            raise UnknownPointError(f"no point with id {quote(point_id)}",
                                   point_id=point_id)

    @cached_property
    def successors(self) -> dict[int, tuple[int, ...]]:
        """For each id, the ids of the points proximate to it (ascending)."""
        succ: list[list[int]] = [[] for _ in self.proximities]
        for pid, prox in enumerate(self.proximities, start=1):
            for target in prox:
                succ[target - 1].append(pid)
        return {pid: tuple(ids) for pid, ids in enumerate(succ, start=1)}

    def _shared(self, name: str, derive):
        values = self._surface_free
        if name not in values:
            values[name] = derive(self)
        return values[name]

    @property
    def origins(self) -> tuple[int, ...]:
        return tuple(pid for pid, prox in enumerate(self.proximities, start=1)
                     if not prox)

    @property
    def ends(self) -> tuple[int, ...]:
        targets = {t for prox in self.proximities for t in prox}
        return tuple(pid for pid in range(1, len(self) + 1) if pid not in targets)


def build_configuration(point_specs: Iterable[PointSpec],
                        surface: SurfaceModel | None = None) -> Configuration:
    """Validate ``(id, proximity ids)`` specs and assemble a Configuration.

    Ids and targets must be ints, the ids 1..n (any input order); proximity
    lists must reference strictly smaller ids, parent (largest target)
    first, and no two satellites may share both targets.

    A valid cluster is admissible: each proximity target of a point is one
    of its ancestors, by induction on the id, as a satellite's second target
    is among its parent's proximities.  Subclusters and completions keep it.
    The rules are also complete (proof sketch): E_p and E_q (p < q) meet
    exactly when p is a target of q and no satellite is proximate to both,
    as a blowup makes the new curve meet the curves through its center and
    parts two that met there; and a center lies on 0, 1 or 2 of the curves.
    """
    if surface is None:
        surface = ProjectivePlane()
    try:
        specs = [(pid, tuple(prox)) for pid, prox in point_specs]
    except (TypeError, ValueError):
        raise ConfigurationError(
            "each point spec must be an (id, proximity ids) pair") from None
    for pid, prox in specs:
        if not all(type(x) is int for x in (pid, *prox)):
            raise ConfigurationError("point ids and proximity targets must be int")
    specs.sort(key=lambda item: item[0])
    if not specs:
        raise ConfigurationError("a configuration must contain at least one point")
    seen: set[int] = set()
    for pid, _ in specs:
        if pid in seen:
            raise DuplicateIdError(f"duplicate point id {quote(pid)}",
                                   point_id=pid)
        seen.add(pid)
    if specs[0][0] != 1 or specs[-1][0] != len(specs):
        missing = sorted(set(range(1, len(specs) + 1)) - seen)
        raise ConfigurationError(f"ids must be exactly 1..{len(specs)} "
                                 f"(missing {quote(missing)})")

    proximities: list[tuple[int, ...]] = []
    satellite_at: dict[tuple[int, ...], int] = {}
    for pid, prox in specs:
        if len(prox) > 2:
            raise TooManyProximitiesError(
                f"point {pid} lists {len(prox)} proximities (at most 2 allowed)",
                point_id=pid)
        for target in prox:
            if not 1 <= target < pid:
                raise ForwardReferenceError(
                    f"point {pid} is proximate to {quote(target)}, "
                    f"which is not a strictly smaller id", point_id=pid)
        if len(prox) == 2:
            parent, second = prox
            if parent == second:
                raise NormalizationError(
                    f"point {pid} lists the same proximity {parent} twice",
                    point_id=pid)
            if parent < second:
                raise NormalizationError(
                    f"point {pid}: parent (largest id) must be listed first, "
                    f"got {prox}", point_id=pid)
            if second not in proximities[parent - 1]:
                raise InvalidSatelliteError(
                    f"point {pid}: second target {second} is not among the "
                    f"proximities of its parent {parent}", point_id=pid)
            # E_parent meets the strict transform of E_second in one point,
            # so at most one satellite is proximate to both.
            if prox in satellite_at:
                raise InvalidSatelliteError(
                    f"points {quote(satellite_at[prox])} and {pid} are both "
                    f"proximate to {parent} and {second}", point_id=pid)
            satellite_at[prox] = pid
        proximities.append(prox)
    return Configuration(tuple(proximities), surface)


def proximity_matrix(c: Configuration) -> tuple[IntMatrix, IntMatrix]:
    """The dense unit lower triangular P (entry (i, j) is -1 iff point i is
    proximate to point j) and its exact, nonnegative integer inverse.

    An n x n oracle for the tests; the package computes with the O(n)
    :func:`proximity_solve` and :func:`proximity_apply` instead.
    """
    n = len(c)
    entries = [[0] * n for _ in range(n)]
    for i, prox in enumerate(c.proximities):
        entries[i][i] = 1
        for target in prox:
            entries[i][target - 1] = -1
    # Row i of the inverse is e_i plus the inverse rows of i's proximity
    # targets; nonnegativity is immediate from this recursion.
    inverse = [[0] * n for _ in range(n)]
    for i, prox in enumerate(c.proximities):
        row = inverse[i]
        row[i] = 1
        for target in prox:
            trow = inverse[target - 1]
            for j in range(target):
                row[j] += trow[j]
    return tuple(map(tuple, entries)), tuple(map(tuple, inverse))


def proximity_solve(c: Configuration, w: Sequence[Scalar]) -> list[Scalar]:
    """P^{-1} w by forward substitution: v_i = w_i + sum of v_t over the
    proximity targets t of point i.  O(n), exact, same scalar type as w."""
    v = _vector(c, w)
    for i, prox in enumerate(c.proximities):
        for target in prox:
            v[i] += v[target - 1]
    return v


def proximity_apply(c: Configuration, v: Sequence[Scalar]) -> list[Scalar]:
    """P v: (P v)_i = v_i - sum of v_t over the proximity targets t of i."""
    v = _vector(c, v)
    return [v[i] - sum(v[t - 1] for t in prox)
            for i, prox in enumerate(c.proximities)]


def _vector(c: Configuration, values: Sequence[Scalar]) -> list[Scalar]:
    v = list(map(_rational, values))
    if len(v) != len(c):
        raise ValueError(f"expected a vector of length {len(c)}, got {len(v)}")
    return v


def multiplicity_vector(c: Configuration) -> tuple[int, ...]:
    """Multiplicities of a generic germ through the cluster: 1 at the ends,
    the sum over proximate successors elsewhere.  Successors have larger
    ids, so one reverse pass sums them; a point still at 0 is an end."""
    values = [0] * len(c)
    for i in reversed(range(len(c))):
        values[i] = values[i] or 1
        for target in c.proximities[i]:
            values[target - 1] += values[i]
    return tuple(values)


def subconfiguration(c: Configuration, point_id: int) -> Configuration:
    """The subcluster at or below ``point_id``, renumbered to 1..k: the
    point and everything infinitely near it (transitive closure of the
    parent relation).  Proximities to removed points are dropped, which can
    only turn a satellite into a free point, so the subcluster of a valid
    cluster is valid and is assembled without re-validation.
    """
    c._check_id(point_id)
    # The cluster is admissible, so a point proximate to q is infinitely near
    # q and the successors of q reach exactly the subtree below q.
    found, stack = {point_id}, [point_id]
    while stack:
        for succ in c.successors[stack.pop()]:
            if succ not in found:
                found.add(succ)
                stack.append(succ)
    kept = sorted(found)
    renumber = {old: new for new, old in enumerate(kept, start=1)}
    return Configuration(
        tuple(tuple(renumber[t] for t in c.proximities[old - 1] if t in renumber)
              for old in kept), c.surface)


class ExceptionalSelfIntersections(NamedTuple):
    values: dict[int, int]
    gamma: int


def exceptional_self_intersections(c: Configuration) -> ExceptionalSelfIntersections:
    """Self-intersection of each strict exceptional transform on the sky,
    E_q^2 = -1 - #{p : p proximate to q}, and gamma = max(-E_q^2); derived
    once per proximities tuple and shared by ``replace(c, surface=...)``."""
    return c._shared("self_intersections", _count_self_intersections)


def _count_self_intersections(c: Configuration) -> ExceptionalSelfIntersections:
    counts = [0] * len(c)
    for prox in c.proximities:
        for target in prox:
            counts[target - 1] += 1
    values = {pid: -1 - k for pid, k in enumerate(counts, start=1)}
    return ExceptionalSelfIntersections(values=values, gamma=1 + max(counts))


def dot_export(c: Configuration) -> str:
    """Render the proximity graph in DOT format.

    Solid edges point from each non-origin to its parent; dashed edges mark
    the extra proximity of a satellite.  Vertices are ranked by level.
    """
    lines = ["digraph cluster {", "  rankdir=BT;", "  node [shape=circle];"]
    by_level: dict[int, list[int]] = {}
    for pt in c.points:
        by_level.setdefault(pt.level, []).append(pt.id)
    for level in sorted(by_level):
        names = " ".join(f'"p{pid}";' for pid in by_level[level])
        lines.append(f"  {{ rank=same; {names} }}")
    for pt in c.points:
        for idx, target in enumerate(pt.proximities):
            style = "" if idx == 0 else " [style=dashed]"
            lines.append(f'  "p{pt.id}" -> "p{target}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def analysis_report(c: Configuration) -> dict:
    """JSON-ready report: per-point data, gamma, origins and ends."""
    esi = exceptional_self_intersections(c)
    report = surface_json_fields(c.surface)
    report["points"] = [
        {"id": pt.id, "level": pt.level,
         "kind": ("origin", "free", "satellite")[len(pt.proximities)],
         "proximities": list(pt.proximities), "e_sq": esi.values[pt.id]}
        for pt in c.points]
    report["gamma"] = esi.gamma
    report["origins"] = list(c.origins)
    report["ends"] = list(c.ends)
    return report
