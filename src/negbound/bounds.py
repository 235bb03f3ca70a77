"""Explicit lower bounds on C^2/(D.C) for blowups of the plane or F_delta.

All bounds are exact rationals computed from three integers read off the
cluster: n (number of points), d (total minimal degree over the origins) and
gamma (maximal negativity of a strict exceptional transform).  Two counting
conventions for n are supported, ``stated`` (the plain cardinality) and
``example`` (the cardinality of the satellite completions summed over the
origins); reports always record both so callers can see when they diverge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from .config import (Configuration, Rational, _fraction, _rational,
                     checked_cluster, exceptional_self_intersections)
from .errors import NonPositiveEpsilonError, checked_iterable, quote
from .surfaces import SurfaceModel, is_plane, surface_json_fields
from .sufficiency import origin_d_values, total_d

if TYPE_CHECKING:  # the lattice loads only for the curve-list reports
    from .lattice import DivisorClass

N_CONVENTIONS = ("stated", "example")


def _positive_epsilon(epsilon: Rational) -> Fraction:
    value = _rational(epsilon)
    if value.numerator <= 0:  # the sign, with no Fraction compare
        raise NonPositiveEpsilonError(
            f"epsilon must be positive, got {quote(value)}")
    return value if type(value) is Fraction else Fraction(value)


class ClusterData(NamedTuple):
    n_stated: int
    n_example: int
    d: int
    gamma: int


def cluster_bound_data(c: Configuration) -> ClusterData:
    """n (in both conventions), d and gamma of a cluster, derived once per
    proximities tuple and shared by its surface copies."""
    return checked_cluster(c)._shared("bound_data", _bound_data)


def _bound_data(c: Configuration) -> ClusterData:
    return ClusterData(
        n_stated=len(c),
        n_example=sum(dv.hat_size for dv in origin_d_values(c).values()),
        d=total_d(c),
        gamma=exceptional_self_intersections(c).gamma)


def rational_json(value: Fraction) -> int | str:
    return int(value) if value.denominator == 1 else str(value)


class BoundReport(NamedTuple):
    """An evaluated bound: named term values and their minimum."""

    surface: SurfaceModel
    n_stated: int
    n_example: int
    convention: str
    n: int
    d: int
    gamma: int
    epsilon: Fraction | None
    terms: tuple[tuple[str, Fraction], ...]
    bound: Fraction
    case_bounds: tuple[tuple[str, Fraction], ...] | None = None

    @property
    def conventions_disagree(self) -> bool:
        return self.n_stated != self.n_example

    def as_json_dict(self) -> dict:
        data = surface_json_fields(self.surface)
        data.update({
            "n_stated": self.n_stated,
            "n_example": self.n_example,
            "d": self.d,
            "gamma": self.gamma,
            "terms": [{"name": name, "value": rational_json(value)}
                      for name, value in self.terms],
            "bound": rational_json(self.bound),
            "convention": self.convention,
        })
        if self.epsilon is not None:
            data["epsilon"] = rational_json(self.epsilon)
        if self.case_bounds is not None:
            data["cases"] = {name: rational_json(value)
                             for name, value in self.case_bounds}
        return data


def _terms(surface: SurfaceModel, n: int,
           d: int) -> tuple[tuple[str, str, int], ...]:
    """The base terms shared by every bound family, as (name, name in the
    epsilon family, value).  On F_delta the first term is the one that
    bounds curves not invariant under the attached foliation."""
    if is_plane(surface):
        return (("3-2d", "(3-2d)/eps", 3 - 2 * d),
                ("d(1-n)", "d(1-n)/eps", d * (1 - n)))
    delta = surface.delta
    return (("2-2d-delta", "(2-2d-delta)/eps", 2 - 2 * d - delta),
            ("-n-delta", "(-n-delta)/eps", -n - delta),
            ("-(delta+2)dn", "(-delta-2)dn/eps", -(delta + 2) * d * n))


def _bound_report(c: Configuration, n_convention: str,
                  eps: Fraction | None, cases: bool = False) -> BoundReport:
    """The base terms of ``c`` and their minimum; with ``eps``, the epsilon
    family's terms: each divided by ``eps``, and -gamma appended; with
    ``cases``, the first term and the minimum of the rest as case bounds.
    The minima are taken on int keys, each term times the positive
    ``eps.numerator`` (1 without ``eps``), which keep the terms' order; a
    term is its key over ``eps.numerator``."""
    if n_convention not in N_CONVENTIONS:
        raise ValueError(f"n_convention must be one of {N_CONVENTIONS}")
    data = cluster_bound_data(c)
    n = data.n_stated if n_convention == "stated" else data.n_example
    base = _terms(c.surface, n, data.d)
    if eps is None:
        keys = [value for _, _, value in base]
        terms = [(name, Fraction(value)) for name, _, value in base]
    else:
        keys = [value * eps.denominator for _, _, value in base]
        terms = [(name, _fraction(key, eps.numerator))
                 for (_, name, _), key in zip(base, keys)]
        keys.append(-data.gamma * eps.numerator)
        terms.append(("-gamma", Fraction(-data.gamma)))
    least = terms[keys.index(min(keys))][1]
    case_bounds = None
    if cases:
        rest = keys[1:]
        case_bounds = (("non_invariant", terms[0][1]),
                       ("invariant", terms[1 + rest.index(min(rest))][1]))
    return BoundReport(c.surface, data.n_stated, data.n_example, n_convention,
                       n, data.d, data.gamma, eps, tuple(terms), least,
                       case_bounds)


def polarization_bounds(c: Configuration,
                        n_convention: str = "stated") -> BoundReport:
    """Bounds on C^2/(D.C) for the pullback polarization D = L* or F* + M*.

    Case one applies to curves not invariant under the attached foliation,
    case two to invariant ones; ``bound`` is their minimum.
    """
    return _bound_report(c, n_convention, None, cases=True)


def epsilon_family_bounds(c: Configuration, epsilon: Rational,
                          n_convention: str = "stated") -> BoundReport:
    """Bound on nu_D for every nef divisor in the epsilon family of the
    pullback polarization: min of the scaled case terms and -gamma."""
    return _bound_report(c, n_convention, _positive_epsilon(epsilon))


def nef_pullback_bounds(c: Configuration,
                        n_convention: str = "stated") -> BoundReport:
    """Bound on nu_{D*} for the pullback of any nef divisor on the base."""
    return _bound_report(c, n_convention, None)


@dataclass(frozen=True)
class PlaneDegree:
    """Degree of a foliation on the plane (canonical class (r-1) L)."""

    r: int

    def __post_init__(self) -> None:
        if type(self.r) is not int or self.r < 0:
            raise ValueError("the degree of a plane foliation is a nonnegative int")


@dataclass(frozen=True)
class HirzebruchBidegree:
    """Bidegree of a foliation on a Hirzebruch surface (canonical r1 F + r2 M)."""

    r1: int
    r2: int

    def __post_init__(self) -> None:
        if type(self.r1) is not int or type(self.r2) is not int:
            raise ValueError("a foliation bidegree is a pair of ints")


FoliationDegree = Union[PlaneDegree, HirzebruchBidegree]


class FoliationBoundReport(NamedTuple):
    """Negativity bounds determined by a foliation of known (bi)degree.

    ``bound`` (minus the degree sum) covers non-invariant curves for the
    pullback polarization; ``scaled_bound`` divides it by epsilon for the
    epsilon family; ``generic_bound`` is the -1/epsilon bound available for
    any foliation with finitely many negative invariant curves.  When the
    caller supplies the invariant-curve data alpha_hat (and optionally gamma),
    ``combined_bound`` is the resulting minimum for nu_D.
    """

    beta: int
    bound: Fraction
    epsilon: Fraction | None = None
    scaled_bound: Fraction | None = None
    generic_bound: Fraction | None = None
    alpha_hat: Fraction | None = None
    gamma: int | None = None
    combined_bound: Fraction | None = None


def foliation_negativity_bound(degree: FoliationDegree,
                               epsilon: Rational | None = None, *,
                               alpha_hat: Rational | None = None,
                               gamma: int | None = None) -> FoliationBoundReport:
    """Bounds set by a foliation's degree, whose type names the surface."""
    if not isinstance(degree, (PlaneDegree, HirzebruchBidegree)):
        raise TypeError("expected a PlaneDegree or HirzebruchBidegree, "
                        f"got {type(degree).__name__}")
    if gamma is not None and type(gamma) is not int:
        raise ValueError("gamma must be an int")
    plane = isinstance(degree, PlaneDegree)
    beta = degree.r - 1 if plane else degree.r1 + degree.r2  # degree sum
    bound = Fraction(-beta)
    eps = None if epsilon is None else _positive_epsilon(epsilon)
    scaled = None if eps is None else bound / eps
    generic = None if eps is None else Fraction(-1) / eps
    alpha = None if alpha_hat is None else Fraction(_rational(alpha_hat))
    pieces = [-Fraction(x) for x in (alpha, gamma) if x is not None]
    combined = min(bound if eps is None else scaled, *pieces) if pieces else None
    return FoliationBoundReport(beta=beta, bound=bound, epsilon=eps,
                                scaled_bound=scaled, generic_bound=generic,
                                alpha_hat=alpha, gamma=gamma,
                                combined_bound=combined)


class AttachedFoliationReport(NamedTuple):
    """Degree bounds for a foliation attached to the cluster, together with
    the degree data of its rational first integral."""

    surface: SurfaceModel
    d: int
    r_max: int | None = None
    r1_max: int | None = None
    r2_max: int | None = None
    first_integral_degree: int | None = None
    first_integral_d1_max: int | None = None
    first_integral_d2: int | None = None


def attached_foliation_degree_bounds(c: Configuration) -> AttachedFoliationReport:
    """Plane: degree <= 2d - 2, first integral of degree exactly d.
    Hirzebruch: (r1, r2) <= (2d + delta - 2, 2d - 2), first integral of
    bidegree (d1 <= d, d)."""
    d = total_d(c)
    if is_plane(c.surface):
        return AttachedFoliationReport(surface=c.surface, d=d, r_max=2 * d - 2,
                                       first_integral_degree=d)
    delta = c.surface.delta
    return AttachedFoliationReport(surface=c.surface, d=d,
                                   r1_max=2 * d + delta - 2, r2_max=2 * d - 2,
                                   first_integral_d1_max=d,
                                   first_integral_d2=d)


class CurveRatio(NamedTuple):
    index: int
    self_intersection: Fraction
    pairing_with_divisor: Fraction
    qualifies: bool  # C^2 < 0 and D.C > 0
    ratio: Fraction | None


class _Fractions(dict):
    """One Fraction per (numerator, denominator) key, made on first use:
    Fractions are immutable, so reports may share them."""

    def __missing__(self, key: tuple[int, int]) -> Fraction:
        value = self[key] = _fraction(*key)
        return value


class NuReport(NamedTuple):
    """Empirical infimum of C^2/(D.C) over a supplied list of curve classes.

    ``value`` is None when no supplied curve qualifies (the quantity is
    undefined on the list); this is a reporting device over the given list,
    not the true infimum over all negative curves.
    """

    value: Fraction | None
    ratios: tuple[CurveRatio, ...]

    def as_json_dict(self) -> dict:
        return {
            "value": None if self.value is None else rational_json(self.value),
            "curves": [{"index": r.index,
                        "c_sq": rational_json(r.self_intersection),
                        "d_dot_c": rational_json(r.pairing_with_divisor),
                        "qualifies": r.qualifies,
                        "ratio": None if r.ratio is None
                                 else rational_json(r.ratio)}
                       for r in self.ratios],
        }


def empirical_nu(curves: Sequence[DivisorClass],
                 big_nef: DivisorClass) -> NuReport:
    """C^2, D.C and, for a curve with C^2 < 0 < D.C, C^2/(D.C), each taken
    in integers: with s = C.C * den(C)^2 and t = D.C * den(D) * den(C), the
    denominators are positive, so the signs are those of s and t, and the
    ratio is s * den(D) / (t * den(C)), compared with the least so far by
    cross-multiplication.  Only the reported values become Fractions, one
    per distinct key.  A curve of D's type, surface object and n is on D's
    lattice; any other gets the full check."""
    from .lattice import (_check_classes, _check_pair, _pairing_numerator,
                          _self_pairing_numerator)
    _check_classes(big_nef)
    d_type, d_surface, d_n, d_den = (type(big_nef), big_nef.surface,
                                     big_nef.n, big_nef.den)
    made = _Fractions()
    ratios, least, least_key = [], None, None
    for index, curve in enumerate(checked_iterable(curves, "curves"), start=1):
        if (type(curve) is not d_type or curve.surface is not d_surface
                or curve.n != d_n):
            _check_pair(big_nef, curve)
        c_den = curve.den
        s = _self_pairing_numerator(curve)
        t = _pairing_numerator(big_nef, curve)
        qualifies = s < 0 < t
        ratio = None
        if qualifies:
            key = (s * d_den, t * c_den)
            ratio = made[key]
            if least is None or key[0] * least_key[1] < least_key[0] * key[1]:
                least, least_key = ratio, key
        ratios.append(CurveRatio(index, made[s, c_den * c_den],
                                 made[t, d_den * c_den], qualifies, ratio))
    return NuReport(least, tuple(ratios))


class WitnessCheck(NamedTuple):
    index: int
    pairing_with_divisor: Fraction  # D.C
    slack: Fraction                 # (D - eps*G).C
    applicable: bool                # D.C > 0
    ok: bool | None                 # slack >= 0, when applicable


class DeltaMembershipReport(NamedTuple):
    """Necessary checks for D to lie in the epsilon family of G, evaluated
    against the supplied witness curves only (a sufficient-condition tester,
    not a decision procedure)."""

    epsilon: Fraction
    checks: tuple[WitnessCheck, ...]
    violations: tuple[int, ...]
    nef_on_witnesses: bool  # (D - eps*G).C >= 0 for every witness

    @property
    def passed(self) -> bool:
        return not self.violations


def delta_membership_check(d: DivisorClass, g: DivisorClass,
                           epsilon: Rational,
                           witnesses: Sequence[DivisorClass]) -> DeltaMembershipReport:
    from .lattice import _check_classes, _check_pair, _pairing_numerator
    _check_classes(d, g)
    eps = _positive_epsilon(epsilon)
    shifted = d - eps * g
    checks = []
    for index, witness in enumerate(checked_iterable(witnesses, "witnesses"), start=1):
        _check_pair(d, witness)
        # D.C and the slack, each times a positive denominator
        dc = _pairing_numerator(d, witness)
        slack = _pairing_numerator(shifted, witness)
        applicable = dc > 0
        checks.append(WitnessCheck(
            index, _fraction(dc, d.den * witness.den),
            _fraction(slack, shifted.den * witness.den), applicable,
            (slack >= 0) if applicable else None))
    return DeltaMembershipReport(
        epsilon=eps,
        checks=tuple(checks),
        violations=tuple(ch.index for ch in checks if ch.ok is False),
        nef_on_witnesses=all(ch.slack >= 0 for ch in checks))
