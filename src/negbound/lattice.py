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
from typing import Mapping, Sequence

from .config import (
    Configuration,
    Rational,
    _rational,
    proximity_apply,
    proximity_solve,
)
from .errors import (
    NotHirzebruchError,
    SurfaceMismatchError,
    UnknownChartError,
    quote,
)
from .surfaces import SurfaceModel, is_plane, surface_name

PLANE_CHARTS = ("UX", "UY", "UZ")
CHARTS = PLANE_CHARTS + ("U00", "U01", "U10", "U11")  # then F_delta's


@dataclass(frozen=True, init=False)
class DivisorClass:
    """A divisor class with exact rational coordinates over one denominator
    ``den`` > 0: the numerators of L* (plane) or of F* and M* (Hirzebruch),
    and by increasing index i those of the E_i* with a nonzero coefficient,
    all of gcd 1 with ``den``, so equal classes have equal fields.

    ``base``, ``exceptional`` and ``multiplicities`` are dense views built on
    demand; the multiplicity vector of a curve class a L* - sum(m_i E_i*) is
    the negated exceptional part.
    """

    surface: SurfaceModel
    n: int
    den: int
    base_numerators: tuple[int, ...]
    exceptional_numerators: dict[int, int]

    def __init__(self, surface: SurfaceModel, base: Sequence[Rational],
                 exceptional: Sequence[Rational] = ()) -> None:
        exceptional = tuple(exceptional)
        self._store(surface, len(exceptional), tuple(base),
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
        if len(base) != len(surface.generators):
            raise ValueError(
                f"surface {surface_name(surface)} needs "
                f"{len(surface.generators)} base coefficient(s), got {len(base)}")
        values = [_rational(x) for x in (*base, *exceptional.values())]
        scale = lcm(*[x.denominator for x in values])
        nums = [x.numerator * (scale // x.denominator) for x in values]
        den *= scale
        g = gcd(den, *nums)
        if g != 1:
            den, nums = den // g, [x // g for x in nums]
        k = len(base)
        vars(self).update(
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
        return cls(surface, base, [-m for m in multiplicities])

    @property
    def base(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.base_numerators)

    @property
    def exceptional(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self._numerator_vector())

    def _numerator_vector(self) -> list[int]:
        """The exceptional numerators over ``den``, zeros included."""
        return [self.exceptional_numerators.get(i, 0)
                for i in range(1, self.n + 1)]

    @property
    def a(self) -> Fraction:
        return Fraction(self.base_numerators[0], self.den)

    @property
    def b(self) -> Fraction:
        if is_plane(self.surface):
            raise NotHirzebruchError("plane classes have a single base coefficient")
        return Fraction(self.base_numerators[1], self.den)

    @property
    def multiplicities(self) -> tuple[Fraction, ...]:
        return tuple(-e for e in self.exceptional)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
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
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return self * -1

    def __mul__(self, scalar: Rational) -> "DivisorClass":
        s = _rational(scalar)
        return self._make(self.surface, self.n,
                          [s * x for x in self.base_numerators],
                          {i: s * x for i, x in
                           self.exceptional_numerators.items()}, self.den)

    __rmul__ = __mul__

    def self_intersection(self) -> Fraction:
        return pairing(self, self)

    def __str__(self) -> str:
        terms = list(zip(self.base_numerators, self.surface.generators))
        terms += [(x, f"E{i}") for i, x in self.exceptional_numerators.items()]
        out = ""
        for x, name in terms:
            if x == 0:
                continue
            mag = Fraction(abs(x), self.den)
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


def pairing(x: DivisorClass, y: DivisorClass) -> Fraction:
    """Intersection number of two classes on the same lattice, in integers
    over the two classes' denominators; only the exceptional coordinates
    nonzero in both classes are multiplied."""
    _check_lattice(x.surface, x.n, y.surface, y.n)
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
    return Fraction(total, x.den * y.den)


def strict_transform_of_exceptional(c: Configuration, point_id: int) -> DivisorClass:
    """The class E_q* - sum over p proximate to q of E_p* on the sky of c."""
    c._check_id(point_id)
    exc = {point_id: 1, **dict.fromkeys(c.successors[point_id], -1)}
    return DivisorClass._make(c.surface, len(c),
                              (0,) * len(c.surface.generators), exc)


def strict_exceptional_coordinates(c: Configuration,
                                   cls: DivisorClass) -> tuple[Fraction, ...]:
    """Exceptional part of ``cls`` rewritten in the strict-transform basis.

    The strict transforms satisfy E_q = E_q* - sum over p proximate to q of
    E_p*, so total-transform coordinates w convert to strict ones as
    v = P^{-1} w.  The base part is unaffected by the change of basis.
    """
    _check_lattice(cls.surface, cls.n, c.surface, len(c))
    return tuple(Fraction(v, cls.den)
                 for v in proximity_solve(c, cls._numerator_vector()))


def divisor_from_strict_coordinates(c: Configuration,
                                    base: Sequence[Rational],
                                    coefficients: Sequence[Rational]) -> DivisorClass:
    """Assemble a class from strict-transform exceptional coordinates.

    Inverse of :func:`strict_exceptional_coordinates`: total-transform
    coordinates are w = P v with P the proximity matrix of the cluster.
    """
    v = DivisorClass(c.surface, base, coefficients)  # in the strict basis
    _check_lattice(v.surface, v.n, c.surface, len(c))
    w = proximity_apply(c, v._numerator_vector())
    return DivisorClass._make(c.surface, len(c), v.base_numerators,
                              dict(enumerate(w, start=1)), v.den)


def special_section_class(surface: SurfaceModel, n: int = 0) -> DivisorClass:
    """The special section M0 = M* - delta F*, of self-intersection -delta."""
    if is_plane(surface):
        raise NotHirzebruchError("the special section lives on a Hirzebruch surface")
    if type(n) is not int or n < 0:
        raise ValueError("n must be a nonnegative int")
    return DivisorClass._make(surface, n, (-surface.delta, 1), {})


@dataclass(frozen=True)
class MultiplicityBoundReport:
    """Check m_i <= a + b + delta*b for a curve class on a Hirzebruch sky."""

    limit: Fraction
    violations: tuple[tuple[int, Fraction], ...]  # (point id, multiplicity)

    @property
    def passed(self) -> bool:
        return not self.violations


def multiplicity_bound_check(cls: DivisorClass) -> MultiplicityBoundReport:
    if is_plane(cls.surface):
        raise NotHirzebruchError("multiplicity bound applies to Hirzebruch classes")
    delta = cls.surface.delta
    limit = cls.a + cls.b + delta * cls.b
    violations = tuple((i, m) for i, m in
                       enumerate(cls.multiplicities, start=1) if m > limit)
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


def bidegree_of_closure(chart: str, delta: int | None = None,
                        deg_x: int = 0, deg_y: int = 0,
                        corner_nonzero: bool = False,
                        deg_total: int | None = None):
    """Degree (plane) or bidegree (Hirzebruch) of the closure of an affine curve.

    The curve is given in the affine chart by a polynomial with the stated
    degrees in x and y; ``corner_nonzero`` asserts that both x^d and y^d occur
    with nonzero coefficient, d the total degree (so deg_x = deg_y = d and
    ``deg_total`` may be omitted).  Plane charts return the single closure
    degree; Hirzebruch charts return an exact Bidegree in the corner case and
    BidegreeBounds otherwise.
    """
    name = chart.upper() if isinstance(chart, str) else None
    if name not in CHARTS:
        raise UnknownChartError(
            f"unknown chart {quote(chart)}; expected one of {CHARTS}")
    ints = [deg_x, deg_y] + [x for x in (delta, deg_total) if x is not None]
    if any(type(x) is not int for x in ints) or deg_x < 0 or deg_y < 0:
        raise ValueError("the degrees and delta must be ints, deg_x and deg_y >= 0")
    if corner_nonzero:
        if deg_x != deg_y:
            raise ValueError(
                "corner_nonzero forces deg_x == deg_y == total degree")
        if deg_total is not None and deg_total != deg_x:
            raise ValueError("deg_total inconsistent with corner_nonzero")
        deg_total = deg_x
    if deg_total is not None and not (max(deg_x, deg_y) <= deg_total
                                      <= deg_x + deg_y):
        raise ValueError("deg_total inconsistent with deg_x, deg_y")

    if name in PLANE_CHARTS:
        if deg_total is None:
            raise ValueError("plane charts need the total degree "
                             "(corner_nonzero or deg_total)")
        return deg_total

    if delta is None or delta < 0:
        raise ValueError("Hirzebruch charts need delta >= 0")
    if corner_nonzero:
        if name in ("U00", "U10") or delta == 0:
            return Bidegree(d1=deg_total, d2=deg_total)
        return Bidegree(d1=0, d2=deg_total)
    return BidegreeBounds(d1_max=deg_x, d2=deg_y)


@dataclass(frozen=True)
class InvariantBoundReport:
    """Check C^2 >= -K.C for a candidate (foliation canonical class, curve)."""

    self_intersection: Fraction
    lower_bound: Fraction  # -K.C

    @property
    def passed(self) -> bool:
        return self.self_intersection >= self.lower_bound


def invariant_bound_check(k_f: DivisorClass, c: DivisorClass) -> InvariantBoundReport:
    return InvariantBoundReport(self_intersection=pairing(c, c),
                                lower_bound=-pairing(k_f, c))
