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
from functools import cached_property
from math import lcm
from typing import Sequence

from .config import (
    Configuration,
    Rational,
    _exact,
    proximity_apply,
    proximity_solve,
)
from .errors import (
    NotHirzebruchError,
    SurfaceMismatchError,
    UnknownChartError,
)
from .surfaces import Hirzebruch, SurfaceModel, is_plane

PLANE_CHARTS = ("UX", "UY", "UZ")
HIRZEBRUCH_CHARTS = ("U00", "U01", "U10", "U11")


@dataclass(frozen=True)
class DivisorClass:
    """A divisor class with exact rational coordinates.

    ``base`` holds the coefficient of L* (plane) or of F* and M* (Hirzebruch);
    ``exceptional`` holds the coefficients of the E_i*.  The multiplicity
    vector of a curve class a L* - sum(m_i E_i*) is the negated exceptional
    part.
    """

    surface: SurfaceModel
    base: tuple[Fraction, ...]
    exceptional: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", tuple(_exact(x) for x in self.base))
        object.__setattr__(self, "exceptional",
                           tuple(_exact(x) for x in self.exceptional))
        expected = len(self.surface.generators)
        if len(self.base) != expected:
            raise ValueError(
                f"surface {self.surface} needs {expected} base coefficient(s), "
                f"got {len(self.base)}")

    @classmethod
    def from_multiplicities(cls, surface: SurfaceModel,
                            base: Sequence[Rational],
                            multiplicities: Sequence[Rational] = ()) -> "DivisorClass":
        """Build a L* - sum(m_i E_i*) (resp. a F* + b M* - sum(m_i E_i*))."""
        return cls(surface, tuple(base),
                   tuple(-_exact(m) for m in multiplicities))

    @property
    def n(self) -> int:
        return len(self.exceptional)

    @property
    def a(self) -> Fraction:
        return self.base[0]

    @property
    def b(self) -> Fraction:
        if is_plane(self.surface):
            raise NotHirzebruchError("plane classes have a single base coefficient")
        return self.base[1]

    @property
    def multiplicities(self) -> tuple[Fraction, ...]:
        return tuple(-e for e in self.exceptional)

    @cached_property
    def _integer_form(self) -> tuple[int, tuple[int, ...], dict[int, int]]:
        """The class over one common denominator D, the lcm of all its
        coordinate denominators: D, the base numerators over D, and the
        nonzero exceptional numerators over D by index."""
        base = [x.as_integer_ratio() for x in self.base]
        exc = [(i, x.as_integer_ratio())
               for i, x in enumerate(self.exceptional) if x]
        den = lcm(*[d for _, d in base], *[d for _, (_, d) in exc])
        return (den, tuple(n * (den // d) for n, d in base),
                {i: n * (den // d) for i, (n, d) in exc})

    def _check_compatible(self, other: "DivisorClass") -> None:
        if self.surface != other.surface or self.n != other.n:
            raise SurfaceMismatchError(
                f"incompatible lattices: ({self.surface}, n={self.n}) vs "
                f"({other.surface}, n={other.n})")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_compatible(other)
        return DivisorClass(self.surface,
                            tuple(x + y for x, y in zip(self.base, other.base)),
                            tuple(x + y for x, y in
                                  zip(self.exceptional, other.exceptional)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.surface, tuple(-x for x in self.base),
                            tuple(-x for x in self.exceptional))

    def __mul__(self, scalar: Rational) -> "DivisorClass":
        s = _exact(scalar)
        return DivisorClass(self.surface, tuple(s * x for x in self.base),
                            tuple(s * x for x in self.exceptional))

    __rmul__ = __mul__

    def self_intersection(self) -> Fraction:
        return pairing(self, self)

    def __str__(self) -> str:
        terms = list(zip(self.base, self.surface.generators))
        terms += [(coeff, f"E{i}") for i, coeff in
                  enumerate(self.exceptional, start=1)]
        out = ""
        for coeff, name in terms:
            if coeff == 0:
                continue
            mag = abs(coeff)
            lead = "" if mag == 1 else str(mag)
            if not out:
                out = f"{'-' if coeff < 0 else ''}{lead}{name}"
            else:
                out += f" {'-' if coeff < 0 else '+'} {lead}{name}"
        return out or "0"


def pairing(x: DivisorClass, y: DivisorClass) -> Fraction:
    """Intersection number of two classes on the same lattice, in integers
    over the two classes' common denominators; only the exceptional
    coordinates nonzero in both classes are multiplied."""
    x._check_compatible(y)
    x_den, x_base, x_exc = x._integer_form
    y_den, y_base, y_exc = y._integer_form
    if is_plane(x.surface):
        total = x_base[0] * y_base[0]
    else:
        (xa, xb), (ya, yb) = x_base, y_base
        total = xa * yb + xb * ya + x.surface.delta * xb * yb
    if len(x_exc) > len(y_exc):
        x_exc, y_exc = y_exc, x_exc
    for i, p in x_exc.items():
        q = y_exc.get(i)
        if q is not None:
            total -= p * q
    return Fraction(total, x_den * y_den)


def strict_transform_of_exceptional(c: Configuration, point_id: int) -> DivisorClass:
    """The class E_q* - sum over p proximate to q of E_p* on the sky of c."""
    c._check_id(point_id)
    exc = [Fraction(0)] * len(c)
    exc[point_id - 1] = Fraction(1)
    for succ in c.successors[point_id]:
        exc[succ - 1] = Fraction(-1)
    base = (Fraction(0),) if is_plane(c.surface) else (Fraction(0), Fraction(0))
    return DivisorClass(c.surface, base, tuple(exc))


def strict_exceptional_coordinates(c: Configuration,
                                   cls: DivisorClass) -> tuple[Fraction, ...]:
    """Exceptional part of ``cls`` rewritten in the strict-transform basis.

    The strict transforms satisfy E_q = E_q* - sum over p proximate to q of
    E_p*, so total-transform coordinates w convert to strict ones as
    v = P^{-1} w.  The base part is unaffected by the change of basis.
    """
    if len(c) != cls.n or c.surface != cls.surface:
        raise SurfaceMismatchError(
            f"class lives on ({cls.surface}, n={cls.n}), cluster has "
            f"({c.surface}, n={len(c)})")
    return tuple(proximity_solve(c, cls.exceptional))


def divisor_from_strict_coordinates(c: Configuration,
                                    base: Sequence[Rational],
                                    coefficients: Sequence[Rational]) -> DivisorClass:
    """Assemble a class from strict-transform exceptional coordinates.

    Inverse of :func:`strict_exceptional_coordinates`: total-transform
    coordinates are w = P v with P the proximity matrix of the cluster.
    """
    v = [_exact(x) for x in coefficients]
    if len(v) != len(c):
        raise SurfaceMismatchError(
            f"expected {len(c)} strict coordinates, got {len(v)}")
    return DivisorClass(c.surface, tuple(base), tuple(proximity_apply(c, v)))


def special_section_class(surface: SurfaceModel, n: int = 0) -> DivisorClass:
    """The special section M0 = M* - delta F*, of self-intersection -delta."""
    if is_plane(surface):
        raise NotHirzebruchError("the special section lives on a Hirzebruch surface")
    return DivisorClass(surface, (Fraction(-surface.delta), Fraction(1)),
                        (Fraction(0),) * n)


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
    name = chart.upper()
    if name not in PLANE_CHARTS and name not in HIRZEBRUCH_CHARTS:
        raise UnknownChartError(
            f"unknown chart {chart!r}; expected one of "
            f"{PLANE_CHARTS + HIRZEBRUCH_CHARTS}")
    if deg_x < 0 or deg_y < 0:
        raise ValueError("degrees must be nonnegative")
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
