"""Exact intersection theory on the Picard lattice of a blown-up surface.

Classes are coordinate vectors in the total-transform basis: {L*, E_1*, ...,
E_n*} over the plane, {F*, M*, E_1*, ..., E_n*} over a Hirzebruch surface.
The pairing is L*^2 = 1; F*^2 = 0, M*^2 = delta, F*.M* = 1; E_i*.E_j* =
-delta_ij; base generators orthogonal to every E_i*.  All coefficients are
exact rationals; floats are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, NamedTuple, Sequence

from .config import (
    Configuration,
    Rational,
    _fraction,
    _rational,
    checked_cluster,
    proximity_apply,
    proximity_solve,
)
from .errors import (
    NotHirzebruchError,
    SurfaceMismatchError,
    UnknownChartError,
    checked_iterable,
    quote,
)
from .surfaces import SurfaceModel, checked_surface, is_plane, surface_name

CHARTS = ("U00", "U01", "U10", "U11")  # the affine charts of F_delta


@dataclass(frozen=True, init=False)
class DivisorClass:
    """A divisor class with exact rational coordinates over one denominator
    ``den`` > 0: the numerators of L* (plane) or of F* and M* (Hirzebruch),
    and by increasing index i those of the E_i* with a nonzero coefficient,
    all of gcd 1 with ``den``, so equal classes have equal fields.

    ``base`` and ``exceptional`` are dense views built on demand; the
    multiplicity vector of a curve class a L* - sum(m_i E_i*) is the negated
    exceptional part.
    """

    surface: SurfaceModel
    n: int
    den: int
    base_numerators: tuple[int, ...]
    exceptional_numerators: dict[int, int]

    def __init__(self, surface: SurfaceModel, base: Sequence[Rational],
                 exceptional: Sequence[Rational] = ()) -> None:
        exceptional = tuple(checked_iterable(exceptional, "exceptional"))
        self._store(surface, len(exceptional), tuple(checked_iterable(base, "base")),
                    dict(enumerate(exceptional, start=1)))

    @classmethod
    def _make(cls, surface: SurfaceModel, n: int, base: Sequence[Rational],
              exceptional: Mapping[int, Rational], den: int = 1) -> "DivisorClass":
        """The class with base coordinates ``base[k] / den`` and exceptional
        coordinates ``exceptional[i] / den`` (0 for a missing i)."""
        self = object.__new__(cls)
        self._store(surface, n, base, exceptional, den)
        return self

    def _store(self, surface, n, base, exceptional, den=1) -> None:
        """Reduce the coordinates over ``den``; ints over 1 are kept as given,
        and an int among Fractions needs no ``_rational``."""
        if len(base) != len(checked_surface(surface).generators):
            raise ValueError(
                f"surface {surface_name(surface)} needs "
                f"{len(surface.generators)} base coefficient(s), got {len(base)}")
        nums = (*base, *exceptional.values())
        if den != 1 or not all(type(x) is int for x in nums):
            values = [x if type(x) is int else _rational(x) for x in nums]
            scale = lcm(*[x.denominator for x in values])
            nums = [x.numerator * (scale // x.denominator) for x in values]
            den *= scale
            g = gcd(den, *nums)
            if g != 1:
                den, nums = den // g, [x // g for x in nums]
        k = len(base)
        self.__dict__.update(
            surface=surface, n=n, den=den, base_numerators=tuple(nums[:k]),
            exceptional_numerators={i: x for i, x in
                                    sorted(zip(exceptional, nums[k:])) if x})

    def __hash__(self) -> int:
        return hash((self.surface, self.n, self.den, self.base_numerators,
                     frozenset(self.exceptional_numerators.items())))

    @classmethod
    def from_multiplicities(cls, surface: SurfaceModel,
                            base: Sequence[Rational],
                            multiplicities: Sequence[Rational] = ()) -> "DivisorClass":
        """Build a L* - sum(m_i E_i*) (resp. a F* + b M* - sum(m_i E_i*))."""
        return cls(surface, base, [-_rational(m) for m in checked_iterable(
            multiplicities, "multiplicities")])

    @property
    def base(self) -> tuple[Fraction, ...]:
        return tuple(_fraction(x, self.den) for x in self.base_numerators)

    @property
    def exceptional(self) -> tuple[Fraction, ...]:
        return tuple(_fraction(x, self.den) for x in self._numerator_vector())

    def _numerator_vector(self) -> list[int]:
        """The exceptional numerators over ``den``, zeros included."""
        return [self.exceptional_numerators.get(i, 0)
                for i in range(1, self.n + 1)]

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        _check_lattice(self.surface, self.n, other.surface, other.n)
        s, t = other.den, self.den
        exc = {i: s * x for i, x in self.exceptional_numerators.items()}
        for i, y in other.exceptional_numerators.items():
            exc[i] = exc.get(i, 0) + t * y
        return self._make(self.surface, self.n,
                          [s * x + t * y for x, y in
                           zip(self.base_numerators, other.base_numerators)],
                          exc, s * t)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + -other if isinstance(other, DivisorClass) else NotImplemented

    def __neg__(self) -> "DivisorClass":
        return self * -1

    def __mul__(self, scalar: Rational) -> "DivisorClass":
        s = _rational(scalar)
        return self._make(self.surface, self.n,
                          [s * x for x in self.base_numerators],
                          {i: s * x for i, x in
                           self.exceptional_numerators.items()}, self.den)

    __rmul__ = __mul__

    def __str__(self) -> str:
        terms = list(zip(self.base_numerators, self.surface.generators))
        terms += [(x, f"E{i}") for i, x in self.exceptional_numerators.items()]
        out = ""
        for x, name in terms:
            if x == 0:
                continue
            mag = _fraction(abs(x), self.den)
            lead = "" if mag == 1 else str(mag)
            if not out:
                out = f"{'-' if x < 0 else ''}{lead}{name}"
            else:
                out += f" {'-' if x < 0 else '+'} {lead}{name}"
        return out or "0"


def _check_lattice(surface: SurfaceModel, n: int,
                   other_surface: SurfaceModel, other_n: int) -> None:
    """Raise SurfaceMismatchError unless the two (surface, n) pairs name the
    same lattice."""
    if ((surface is not other_surface and surface != other_surface)
            or n != other_n):
        raise SurfaceMismatchError(
            f"incompatible lattices: ({surface_name(surface)}, n={quote(n)}) "
            f"vs ({surface_name(other_surface)}, n={quote(other_n)})")


def _check_classes(*values: object) -> None:
    """Raise TypeError, naming the types, unless each is a DivisorClass."""
    for value in values:
        if not isinstance(value, DivisorClass):
            names = " and ".join(type(v).__name__ for v in values)
            raise TypeError(f"expected DivisorClass, got {names}")


def _check_pair(x: DivisorClass, y: DivisorClass) -> None:
    """Raise unless ``x`` and ``y`` are classes on one lattice."""
    _check_classes(x, y)
    _check_lattice(x.surface, x.n, y.surface, y.n)


def pairing(x: DivisorClass, y: DivisorClass) -> Fraction:
    """Intersection number of two classes on the same lattice."""
    _check_pair(x, y)
    return _fraction(_pairing_numerator(x, y), x.den * y.den)


def _pairing_numerator(x: DivisorClass, y: DivisorClass) -> int:
    """x.y * x.den * y.den, in integers, for two classes on one lattice
    (unchecked); only the exceptional coordinates nonzero in both classes
    are multiplied."""
    x_base, y_base = x.base_numerators, y.base_numerators
    if len(x_base) == 1:  # the plane
        total = x_base[0] * y_base[0]
    else:
        (xa, xb), (ya, yb) = x_base, y_base
        total = xa * yb + xb * ya + x.surface.delta * xb * yb
    x_exc, y_exc = x.exceptional_numerators, y.exceptional_numerators
    if len(x_exc) > len(y_exc):
        x_exc, y_exc = y_exc, x_exc
    for i, p in x_exc.items():
        q = y_exc.get(i)
        if q is not None:
            total -= p * q
    return total


def _self_pairing_numerator(x: DivisorClass) -> int:
    """x.x * x.den**2 in integers, from one map: the base part, a**2 on the
    plane and (a F + b M)**2 = (2a + delta b) b over F_delta, minus the
    square of each exceptional numerator."""
    base = x.base_numerators
    if len(base) == 1:  # the plane
        total = base[0] * base[0]
    else:
        a, b = base
        total = (2 * a + x.surface.delta * b) * b
    for p in x.exceptional_numerators.values():
        total -= p * p
    return total


def strict_transform_of_exceptional(c: Configuration, point_id: int) -> DivisorClass:
    """The class E_q* - sum over p proximate to q of E_p* on the sky of c,
    stored as built: over denominator 1, its ids ascending, as the points
    proximate to q have larger ids, so it is already reduced."""
    checked_cluster(c)._check_id(point_id)
    cls = object.__new__(DivisorClass)
    surface = c.surface
    cls.__dict__.update(
        surface=surface, n=len(c.proximities), den=1,
        base_numerators=(0,) * len(surface.generators),
        exceptional_numerators={point_id: 1,
                                **dict.fromkeys(c.successors[point_id], -1)})
    return cls


def strict_exceptional_coordinates(c: Configuration,
                                   cls: DivisorClass) -> tuple[Fraction, ...]:
    """Exceptional part of ``cls`` rewritten in the strict-transform basis.

    The strict transforms satisfy E_q = E_q* - sum over p proximate to q of
    E_p*, so total-transform coordinates w convert to strict ones as
    v = P^{-1} w.  The base part is unaffected by the change of basis.
    """
    checked_cluster(c)
    _check_classes(cls)
    _check_lattice(cls.surface, cls.n, c.surface, len(c))
    return tuple(_fraction(v, cls.den)
                 for v in proximity_solve(c, cls._numerator_vector()))


def divisor_from_strict_coordinates(c: Configuration,
                                    base: Sequence[Rational],
                                    coefficients: Sequence[Rational]) -> DivisorClass:
    """Assemble a class from strict-transform exceptional coordinates.

    Inverse of :func:`strict_exceptional_coordinates`: total-transform
    coordinates are w = P v with P the proximity matrix of the cluster.
    """
    v = DivisorClass(checked_cluster(c).surface, base,  # strict basis
                     checked_iterable(coefficients, "coefficients"))
    _check_lattice(v.surface, v.n, c.surface, len(c))
    w = proximity_apply(c, v._numerator_vector())
    return DivisorClass._make(c.surface, len(c), v.base_numerators,
                              dict(enumerate(w, start=1)), v.den)


def special_section_class(surface: SurfaceModel, n: int = 0) -> DivisorClass:
    """The special section M0 = M* - delta F*, of self-intersection -delta."""
    if is_plane(checked_surface(surface)):
        raise NotHirzebruchError("the special section lives on a Hirzebruch surface")
    if type(n) is not int or n < 0:
        raise ValueError("n must be a nonnegative int")
    return DivisorClass._make(surface, n, (-surface.delta, 1), {})


class MultiplicityBoundReport(NamedTuple):
    """Check m_i <= a + b + delta*b for a curve class on a Hirzebruch sky."""

    limit: Fraction
    violations: tuple[tuple[int, Fraction], ...]  # (point id, multiplicity)

    @property
    def passed(self) -> bool:
        return not self.violations


def multiplicity_bound_check(cls: DivisorClass) -> MultiplicityBoundReport:
    _check_classes(cls)
    if is_plane(cls.surface):
        raise NotHirzebruchError("multiplicity bound applies to Hirzebruch classes")
    a, b = cls.base
    limit = a + b + cls.surface.delta * b
    violations = tuple((i, -e) for i, e in
                       enumerate(cls.exceptional, start=1) if -e > limit)
    return MultiplicityBoundReport(limit=limit, violations=violations)


@dataclass(frozen=True)
class Bidegree:
    d1: int
    d2: int


@dataclass(frozen=True)
class BidegreeBounds:
    """Non-corner case: d1 is only bounded, 0 <= d1 <= d1_max; d2 is exact."""

    d1_max: int
    d2: int


def bidegree_of_closure(chart: str, delta: int,
                        deg_x: int = 0, deg_y: int = 0,
                        corner_nonzero: bool = False) -> Bidegree | BidegreeBounds:
    """Bidegree of the closure in F_delta of a curve given in an affine chart
    by a polynomial of degree deg_x in x and deg_y in y: an exact Bidegree
    when ``corner_nonzero`` (x^d and y^d both occur, d = deg_x = deg_y the
    total degree), else BidegreeBounds."""
    name = chart.upper() if isinstance(chart, str) else None
    if name not in CHARTS:
        raise UnknownChartError(
            f"unknown chart {quote(chart)}; expected one of {CHARTS}")
    if any(type(x) is not int or x < 0 for x in (delta, deg_x, deg_y)):
        raise ValueError("delta, deg_x and deg_y must be nonnegative ints")
    if type(corner_nonzero) is not bool:
        raise TypeError(f"corner_nonzero must be a bool, "
                        f"got {type(corner_nonzero).__name__}")
    if not corner_nonzero:
        return BidegreeBounds(d1_max=deg_x, d2=deg_y)
    if deg_x != deg_y:
        raise ValueError("corner_nonzero forces deg_x == deg_y == total degree")
    if name in ("U00", "U10") or delta == 0:
        return Bidegree(d1=deg_x, d2=deg_x)
    return Bidegree(d1=0, d2=deg_x)


class InvariantBoundReport(NamedTuple):
    """Check C^2 >= -K.C for a candidate (foliation canonical class, curve)."""

    self_intersection: Fraction
    lower_bound: Fraction  # -K.C

    @property
    def passed(self) -> bool:
        return self.self_intersection >= self.lower_bound


def invariant_bound_check(k_f: DivisorClass, c: DivisorClass) -> InvariantBoundReport:
    _check_pair(k_f, c)
    return InvariantBoundReport(
        self_intersection=_fraction(_self_pairing_numerator(c), c.den * c.den),
        lower_bound=_fraction(-_pairing_numerator(k_f, c), k_f.den * c.den))
