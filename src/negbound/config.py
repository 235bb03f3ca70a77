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
from fractions import Fraction
from itertools import chain
from typing import Iterable, NamedTuple, Sequence, TypeVar, Union

from .errors import (
    ConfigurationError,
    DuplicateIdError,
    ForwardReferenceError,
    InvalidSatelliteError,
    NormalizationError,
    TooManyProximitiesError,
    UnknownPointError,
    checked_iterable,
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
    """A valid cluster over a surface, stored as its proximity tuples:
    entry ``i`` lists the targets of point ``i + 1``, parent first.  The
    constructor, and so ``replace`` and unpickling, hands tuples that no
    valid cluster handed on to :func:`build_configuration` as the specs
    ``(i + 1, entry i)``, the one path from a caller's data to the rules.
    """

    proximities: tuple[tuple[int, ...], ...]
    surface: SurfaceModel = ProjectivePlane()
    # Surface-free values by name; key "proximities" is their tuple.  A holder
    # for this very tuple came from a valid cluster; any other tuple validates.
    _surface_free: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        checked_surface(self.surface)
        shared = self._surface_free
        if shared is None or shared["proximities"] is not self.proximities:
            valid = build_configuration(_specs(self.proximities), self.surface)
            object.__setattr__(self, "proximities", valid.proximities)
            object.__setattr__(self, "_surface_free", valid._surface_free)

    def __reduce__(self):
        # The fields only: unpickling validates them and derives the rest again.
        return Configuration, (self.proximities, self.surface)

    def __len__(self) -> int:
        return len(self.proximities)

    def _check_id(self, point_id: int) -> None:
        if type(point_id) is not int:  # build_configuration's rule for ids
            raise UnknownPointError(f"point ids are int, not {type(point_id).__name__}")
        if not 1 <= point_id <= len(self.proximities):
            raise UnknownPointError(f"no point with id {quote(point_id)}",
                                   point_id=point_id)

    def _shared(self, name: str, derive):
        """``derive(self)`` from the one store of values derived from the
        proximities: derived on first read and kept under ``name``, shared by
        every ``replace(c, surface=...)`` copy; two threads may derive it at
        once, a benign race, as both store the same value."""
        values = self._surface_free
        if name not in values:
            values[name] = derive(self)
        return values[name]

    @property
    def points(self) -> tuple[Point, ...]:
        """One Point per id; a point's level is its parent's plus one."""
        def derive(c: Configuration) -> tuple[Point, ...]:
            points: list[Point] = []
            for pid, prox in enumerate(c.proximities, start=1):
                level = points[prox[0] - 1].level + 1 if prox else 0
                points.append(Point(pid, prox, level))
            return tuple(points)
        return self._shared("points", derive)

    @property
    def successors(self) -> dict[int, tuple[int, ...]]:
        """For each id, the ids of the points proximate to it (ascending)."""
        def derive(c: Configuration) -> dict[int, tuple[int, ...]]:
            succ: list[list[int]] = [[] for _ in c.proximities]
            for pid, prox in enumerate(c.proximities, start=1):
                for target in prox:
                    succ[target - 1].append(pid)
            return {pid: tuple(ids) for pid, ids in enumerate(succ, start=1)}
        return self._shared("successors", derive)

    @property
    def origins(self) -> tuple[int, ...]:
        """The ids with no proximities, ascending."""
        return self._shared("origins", lambda c: tuple(
            pid for pid, prox in enumerate(c.proximities, start=1) if not prox))

    @property
    def ends(self) -> tuple[int, ...]:
        """The ids no point is proximate to (E^2 = -1), ascending."""
        return self._shared("ends", lambda c: tuple(
            pid for pid, e_sq in exceptional_self_intersections(c).values.items()
            if e_sq == -1))


def checked_cluster(c) -> Configuration:
    """``c`` if it is a Configuration, else TypeError."""
    if not isinstance(c, Configuration):
        raise TypeError(f"expected Configuration, got {type(c).__name__}")
    return c


def _specs(proximities) -> Iterable[PointSpec]:
    """Lazy ``(id, targets)`` specs, so that the validator names a non-sequence."""
    yield from enumerate(proximities, start=1)


def _handed_on(proximities: tuple, surface: SurfaceModel, **known) -> Configuration:
    """Tuples a valid cluster hands on, in a holder with values ``known`` of
    them: not checked again."""
    return Configuration(proximities, surface, {"proximities": proximities, **known})


def build_configuration(point_specs: Iterable[PointSpec],
                        surface: SurfaceModel = ProjectivePlane()) -> Configuration:
    """Validate specs ``(id, proximity ids)`` from a caller into a cluster.

    The constructor, ``replace`` and unpickling run this too.  A malformed
    spec is named first, then a non-int id or target, then the first fault
    :func:`_admitted` finds in the ids 1..n (in any order) or the rules:
    targets are smaller ids, parent (largest) first, and no two satellites
    share both.  A valid cluster is admissible: each target of a point is
    one of its ancestors, by induction on the id, as a satellite's second
    target is among its parent's proximities.  Subclusters and completions
    keep it.  The rules are also complete (proof sketch): E_p and E_q (p < q)
    meet exactly when p is a target of q and no satellite is proximate to
    both, as a blowup makes the new curve meet the curves through its center
    and parts two that met there; and a center lies on 0, 1 or 2 of them.
    """
    ids, proximities = [], []
    try:
        for pid, prox in point_specs:
            ids.append(pid)
            proximities.append(tuple(prox))
    except (TypeError, ValueError):
        raise ConfigurationError(
            "each point spec must be an (id, proximity ids) pair") from None
    if not ids:
        raise ConfigurationError("a configuration must contain at least one point")
    if {*map(type, ids), *map(type, chain.from_iterable(proximities))} != {int}:
        raise ConfigurationError("point ids and proximity targets must be int")
    return _admitted(ids, proximities, surface)


def _admitted(ids: list[int], proximities: list, surface: SurfaceModel) -> Configuration:
    """The cluster whose point ``ids[i]`` has the int targets
    ``proximities[i]``, else the first fault: the smallest duplicate id, else
    the missing ids, then the first point against a rule in id order."""
    n = len(ids)
    if ids != [*range(1, n + 1)]:  # place each point at its id
        given, proximities = proximities, [None] * n
        for pid, prox in zip(ids, given):
            if not 0 < pid <= n or proximities[pid - 1] is not None:
                ordered = sorted(ids)
                if twice := [p for p, q in zip(ordered, ordered[1:]) if p == q]:
                    raise DuplicateIdError(f"duplicate point id {quote(twice[0])}",
                                           point_id=twice[0])
                missing = sorted(set(range(1, n + 1)) - set(ids))
                raise ConfigurationError(
                    f"ids must be exactly 1..{n} (missing {quote(missing)})")
            proximities[pid - 1] = prox
    satellite_at: dict[tuple[int, ...], int] = {}
    for pid, prox in enumerate(proximities, start=1):
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
            # E_parent meets the strict transform of E_second in one
            # point, so at most one satellite is proximate to both.
            if prox in satellite_at:
                raise InvalidSatelliteError(
                    f"points {quote(satellite_at[prox])} and {pid} are both "
                    f"proximate to {parent} and {second}", point_id=pid)
            satellite_at[prox] = pid
    return _handed_on(tuple(proximities), surface)


def proximity_matrix(c: Configuration) -> tuple[IntMatrix, IntMatrix]:
    """The dense unit lower triangular P (entry (i, j) is -1 iff point i is
    proximate to point j) and its exact, nonnegative integer inverse.

    An n x n oracle for the tests; the package computes with the O(n)
    :func:`proximity_solve` and :func:`proximity_apply` instead.
    """
    n = len(checked_cluster(c))
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
    v = _vector(c, w, "w")
    for i, prox in enumerate(c.proximities):
        for target in prox:
            v[i] += v[target - 1]
    return v


def proximity_apply(c: Configuration, v: Sequence[Scalar]) -> list[Scalar]:
    """P v: (P v)_i = v_i - sum of v_t over the proximity targets t of i."""
    v = _vector(c, v, "v")
    return [v[i] - sum(v[t - 1] for t in prox)
            for i, prox in enumerate(c.proximities)]


def _vector(c: Configuration, values: Sequence[Scalar], name: str) -> list[Scalar]:
    v = list(map(_rational, checked_iterable(values, name)))
    if len(v) != len(checked_cluster(c)):
        raise ValueError(f"expected a vector of length {len(c)}, got {len(v)}")
    return v


def multiplicity_vector(c: Configuration) -> tuple[int, ...]:
    """Multiplicities of a generic germ through the cluster: 1 at the ends,
    the sum over proximate successors elsewhere."""
    return tuple(_reverse_pass(checked_cluster(c).proximities, 0)[0])


def _reverse_pass(proximities, satellite: int) -> tuple[list[int], list[int]]:
    """Multiplicities and free ends, descending, in one reverse pass: a point
    still at 0 is an end (successors have larger ids), free with one target,
    and with ``satellite`` 1 its completion satellite adds 1 to that target."""
    values, free_ends = [0] * len(proximities), []
    for i in range(len(proximities) - 1, -1, -1):
        prox = proximities[i]
        if not values[i]:
            values[i] = 1
            if len(prox) == 1:
                free_ends.append(i + 1)
                values[prox[0] - 1] += satellite
        for target in prox:
            values[target - 1] += values[i]
    return values, free_ends


def subconfiguration(c: Configuration, point_id: int) -> Configuration:
    """The subcluster at or below ``point_id``, renumbered to 1..k in id
    order: the point and everything infinitely near it.  One forward pass
    keeps each later point whose parent is kept; proximities to removed
    points are dropped, which can only turn a satellite into a free point,
    so the subcluster of a valid cluster is valid and is assembled without
    re-validation.  The cut at an origin is its component, read from the
    split that one pass makes of every origin and the cluster's store keeps:
    a target of a point is one of its ancestors, so a component keeps all
    its targets.  A cluster whose only origin is point 1 is its own
    subcluster at 1; every other cut is handed on knowing its one origin, 1.
    """
    checked_cluster(c)._check_id(point_id)
    if not c.proximities[point_id - 1]:
        if point_id == 1 and len(c.origins) == 1:
            return c
        return _handed_on(c._shared("components", _split_components)[point_id],
                          c.surface, origins=(1,))
    renumber = {point_id: 1}
    proximities: list[tuple[int, ...]] = [()]
    for old, prox in enumerate(c.proximities[point_id:], start=point_id + 1):
        if prox and prox[0] in renumber:
            renumber[old] = len(proximities) + 1
            proximities.append(tuple(renumber[t] for t in prox if t in renumber))
    return _handed_on(tuple(proximities), c.surface, origins=(1,))


def _split_components(c: Configuration) -> dict[int, IntMatrix]:
    # One forward pass: a point's component is its parent's, and its new id
    # is one more than that component's size so far.  Keyed by origin, the
    # component's proximities renumbered 1..k.
    new_id, part_of = [0], [None]  # by old id, from 1
    parts: dict[int, list[tuple[int, ...]]] = {}
    for pid, prox in enumerate(c.proximities, start=1):
        if not prox:
            part = parts[pid] = [()]
        else:
            part = part_of[prox[0]]
            part.append((new_id[prox[0]],) if len(prox) == 1
                        else (new_id[prox[0]], new_id[prox[1]]))
        part_of.append(part)
        new_id.append(len(part))
    return {origin: tuple(part) for origin, part in parts.items()}


class ExceptionalSelfIntersections(NamedTuple):
    values: dict[int, int]
    gamma: int


def exceptional_self_intersections(c: Configuration) -> ExceptionalSelfIntersections:
    """Self-intersection of each strict exceptional transform on the sky,
    E_q^2 = -1 - #{p : p proximate to q}, and gamma = max(-E_q^2)."""
    return checked_cluster(c)._shared("self_intersections",
                                      _count_self_intersections)


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
    for pt in checked_cluster(c).points:
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
