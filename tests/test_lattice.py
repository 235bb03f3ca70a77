from __future__ import annotations

import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from negbound import (
    Bidegree,
    BidegreeBounds,
    DivisorClass,
    NotHirzebruchError,
    PlaneDegree,
    SurfaceMismatchError,
    UnknownChartError,
    UnknownPointError,
    bidegree_of_closure,
    build_configuration,
    delta_membership_check,
    divisor_from_strict_coordinates,
    empirical_nu,
    epsilon_family_bounds,
    foliation_negativity_bound,
    invariant_bound_check,
    multiplicity_bound_check,
    pairing,
    parse_divisor,
    proximity_apply,
    proximity_solve,
    special_section_class,
    strict_exceptional_coordinates,
    strict_transform_of_exceptional,
    subconfiguration,
)
from negbound.config import _rational
from negbound.surfaces import Hirzebruch, ProjectivePlane

from conftest import SAMPLE12_SPECS

P2 = ProjectivePlane()


class Half(Fraction):
    """A Fraction subclass: the gate hands it on as a plain Fraction."""


def plane(a, mults=()):
    return DivisorClass.from_multiplicities(P2, (a,), mults)


def ruled(delta, a, b, mults=()):
    return DivisorClass.from_multiplicities(Hirzebruch(delta), (a, b), mults)


class TestPairing:
    def test_line_squared(self):
        assert pairing(plane(1), plane(1)) == 1

    @pytest.mark.parametrize("delta,a,b", [(0, 2, 3), (2, 1, 1), (3, -1, 2)])
    def test_base_square_on_ruled_surface(self, delta, a, b):
        cls = ruled(delta, a, b)
        assert pairing(cls, cls) == 2 * a * b + delta * b * b

    def test_plane_curve_square(self):
        cls = plane(5, (2, 1, 1))
        assert pairing(cls, cls) == 25 - 4 - 1 - 1

    def test_exceptionals_orthonormal_negative(self):
        e1 = DivisorClass(P2, (0,), (1, 0))
        e2 = DivisorClass(P2, (0,), (0, 1))
        assert pairing(e1, e1) == -1
        assert pairing(e1, e2) == 0
        assert pairing(plane(1, (0, 0)), e1) == 0

    def test_surface_mismatch(self):
        with pytest.raises(SurfaceMismatchError):
            pairing(plane(1), ruled(0, 1, 0))
        with pytest.raises(SurfaceMismatchError):
            pairing(plane(1, (1,)), plane(1, (1, 1)))

    @pytest.mark.parametrize("surface, base", [(P2, (1, 2)),
                                               (Hirzebruch(1), (1,))],
                             ids=["p2", "f 1"])
    def test_wrong_number_of_base_coefficients(self, surface, base):
        with pytest.raises(ValueError, match="base coefficient"):
            DivisorClass(surface, base)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            DivisorClass(P2, (1.5,))

    @pytest.mark.parametrize("call", [
        lambda: pairing(plane(1), 3),
        lambda: multiplicity_bound_check(3),
        lambda: strict_exceptional_coordinates(build_configuration([(1, [])]),
                                               3),
        lambda: empirical_nu([], 3),
    ], ids=["pairing", "multiplicity_bound_check", "strict coordinates",
            "empirical_nu"])
    def test_class_arguments_take_only_classes(self, call):
        with pytest.raises(TypeError, match=r"DivisorClass, got .*\bint$"):
            call()

    def test_rational_coefficients(self):
        half = DivisorClass(P2, (Fraction(1, 2),))
        assert pairing(half, half) == Fraction(1, 4)

    @pytest.mark.parametrize("surface, base", [(P2, (0,)),
                                               (Hirzebruch(2), (0, 0))],
                             ids=["p2", "f 2"])
    def test_disjoint_supports_pair_to_a_fraction(self, surface, base):
        x = DivisorClass(surface, base, (1, 0, -2, 0))
        y = DivisorClass(surface, base, (0, 3, 0, 0))
        assert pairing(x, y) == 0 and type(pairing(x, y)) is Fraction

    def test_pairing_changes_no_equality_hash_repr_or_pickle(self):
        x = DivisorClass(Hirzebruch(3), (Fraction(1, 6), 2),
                         (Fraction(-5, 4), 0, 3))
        twin = DivisorClass(x.surface, x.base, x.exceptional)
        before = (hash(x), repr(x))
        assert pairing(x, x) == Fraction(1, 6) * 2 * 2 + 3 * 4 \
            - Fraction(25, 16) - 9
        assert x == twin and (hash(x), repr(x)) == before
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(x, protocol))
            assert copy == x and hash(copy) == before[0]
            assert pairing(copy, twin) == pairing(x, x)

    def test_gate_keeps_ints_and_fractions_and_converts_other_rationals(self):
        for value in (Fraction(3, 4), 3, 10 ** 50):
            assert _rational(value) is value
        for x in (True, Half(1, 2)):
            assert type(_rational(x)) is Fraction and _rational(x) == x
        for bad in (0.5, Decimal("0.1"), "1/2", "nan", None):
            with pytest.raises(TypeError):
                _rational(bad)


class TestArithmetic:
    def test_add_sub_scale(self):
        x = plane(3, (1, 0))
        y = plane(1, (0, 2))
        assert (x + y).base == (Fraction(4),)
        assert x - y == plane(2, (1, -2))
        assert 2 * x == plane(6, (2, 0))

    def test_multiplicities_roundtrip(self):
        cls = plane(3, (2, 0, 1))
        assert cls.exceptional == (-2, 0, -1)
        assert cls == DivisorClass(P2, (3,), (-2, 0, -1))

    def test_str(self):
        assert str(plane(3, (2, 0, 1))) == "3L - 2E1 - E3"
        assert str(ruled(1, 2, 1, (0, 0, 1))) == "2F + M - E3"
        assert str(plane(0)) == "0"


class TestStoredForm:
    """Classes equal in value have one stored form, whatever built them."""

    F1 = Hirzebruch(1)

    def routes(self):
        half = DivisorClass(self.F1, (Fraction(1, 2), 0), (0, Fraction(1, 2)))
        x = DivisorClass(P2, (2,), (1, Fraction(-2, 3), 0))
        zero = DivisorClass(P2, (0,), (0, 0, 0))
        yield parse_divisor("3L - 2E1 - E3", P2, 3), \
            DivisorClass(P2, (3,), (-2, 0, -1))
        yield DivisorClass(P2, (Fraction(3),), (-2, Fraction(0), True - 2)), \
            plane(3, (2, 0, 1))
        # Int coordinates over denominator 1 are stored as given; each route
        # must match its twin built through the reduction.
        yield DivisorClass(P2, (3,), (0, -2, 1)), \
            DivisorClass(P2, (Fraction(3),), (False, Fraction(-2), True))
        sample12 = build_configuration(SAMPLE12_SPECS)
        yield strict_transform_of_exceptional(sample12, 2), \
            DivisorClass(P2, (Fraction(0),), [Fraction(x) for x in
                                              (0, 1, -1, -1, -1, *[0] * 7)])
        yield DivisorClass._make(P2, 3, (8,), {1: -4, 3: 12}, den=4), \
            DivisorClass(P2, (2,), (-1, 0, 3))
        yield plane(1, (1, 0, 0)) + plane(2, (1, 0, 1)), plane(3, (2, 0, 1))
        yield plane(4, (2, 1, 1)) - plane(1, (0, 1, 0)), plane(3, (2, 0, 1))
        yield Fraction(1, 2) * plane(6, (4, 0, 2)), plane(3, (2, 0, 1))
        yield plane(3, (2, 0, 1)) * 0, zero
        yield x - x, zero
        yield -x + x, zero * Fraction(5, 7)
        yield parse_divisor("1/2E1 + 1/2E1", P2, 2), parse_divisor("E1", P2, 2)
        yield half + half, ruled(1, 1, 0, (0, -1))
        yield 2 * half, parse_divisor("F + E2", self.F1, 2)
        yield parse_divisor("1/3F - 2/6M + 4/12E2", self.F1, 2), \
            Fraction(1, 3) * ruled(1, 1, -1, (0, -1))

    def test_equal_fields_hashes_and_pickles(self):
        for x, y in self.routes():
            assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
            assert x.den > 0 and all(type(v) is int for v in
                                     (*x.base_numerators,
                                      *x.exceptional_numerators.values()))
            assert 0 not in x.exceptional_numerators.values()
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copy = pickle.loads(pickle.dumps(x, protocol))
                assert copy == y and hash(copy) == hash(y)

    def test_views_keep_their_values_and_types(self):
        x = DivisorClass(self.F1, (Fraction(1, 2), 2), (0, Fraction(-3, 4), 5))
        assert (x.den, x.base_numerators, x.exceptional_numerators) == \
            (4, (2, 8), {2: -3, 3: 20})
        assert x.base == (Fraction(1, 2), Fraction(2))
        assert x.exceptional == (0, Fraction(-3, 4), 5)
        assert x.n == 3
        for view in (x.base, x.exceptional):
            assert all(type(v) is Fraction for v in view)

    def test_str_of_fractional_and_negative_coefficients(self):
        x = DivisorClass(self.F1, (Fraction(-1, 2), 1), (0, Fraction(3, 4), -1))
        assert str(x) == "-1/2F + M + 3/4E2 - E3"
        assert str(parse_divisor("-E2 + 2/4E1", P2, 2)) == "1/2E1 - E2"


class TestStrictTransforms:
    def test_singleton(self):
        c = build_configuration([(1, [])])
        e = strict_transform_of_exceptional(c, 1)
        assert e.exceptional == (1,)
        assert pairing(e, e) == -1

    def test_heavily_blown_point(self, sample12):
        e = strict_transform_of_exceptional(sample12, 2)
        expected = [0] * 12
        expected[1], expected[2], expected[3], expected[4] = 1, -1, -1, -1
        assert list(e.exceptional) == expected
        assert pairing(e, e) == -4

    def test_once_blown_point(self, sample12):
        e = strict_transform_of_exceptional(sample12, 4)
        assert pairing(e, e) == -2

    def test_nu_over_all_strict_transforms_reads_no_dense_view(self, monkeypatch):
        # A satellite chain k -> k-1 k-2: each E_q* has two successors.
        n = 2000
        c = build_configuration([(1, []), (2, [1])] +
                                [(k, [k - 1, k - 2]) for k in range(3, n + 1)])

        def nu():
            curves = [strict_transform_of_exceptional(c, q)
                      for q in range(1, n + 1)]
            big_nef = parse_divisor(f"{n}L - E1 - 2E2 - 1/2E1999 - 3E{n}",
                                    c.surface, n)
            return empirical_nu(curves, big_nef)

        expected = nu()

        def dense(cls):
            raise AssertionError("dense view read")

        monkeypatch.setattr(DivisorClass, "exceptional", property(dense))
        monkeypatch.setattr(DivisorClass, "base", property(dense))
        assert nu() == expected
        assert expected.value == Fraction(-3, 2)


class TestBasisConversion:
    def test_strict_exceptional_transform_has_unit_coordinates(self, sample12):
        for pid in (1, 2, 5, 8, 12):
            cls = strict_transform_of_exceptional(sample12, pid)
            coords = strict_exceptional_coordinates(sample12, cls)
            assert coords == tuple(1 if i + 1 == pid else 0 for i in range(12))

    def test_roundtrip(self, sample12):
        cls = DivisorClass(P2, (3,), tuple(range(-5, 7)))
        coords = strict_exceptional_coordinates(sample12, cls)
        back = divisor_from_strict_coordinates(sample12, cls.base, coords)
        assert back == cls

    def test_size_mismatch(self, sample12):
        with pytest.raises(SurfaceMismatchError):
            strict_exceptional_coordinates(sample12, plane(1, (1,)))
        with pytest.raises(SurfaceMismatchError):
            divisor_from_strict_coordinates(sample12, (1,), (1, 2))


class TestSpecialSection:
    def test_delta_zero_is_section(self):
        m0 = special_section_class(Hirzebruch(0))
        assert m0.base == (0, 1)
        assert pairing(m0, m0) == 0

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_self_intersection(self, delta):
        m0 = special_section_class(Hirzebruch(delta))
        assert pairing(m0, m0) == -delta

    def test_meets_fiber_once(self):
        m0 = special_section_class(Hirzebruch(3))
        fiber = DivisorClass(Hirzebruch(3), (1, 0))
        assert pairing(m0, fiber) == 1

    def test_plane_rejected(self):
        with pytest.raises(NotHirzebruchError):
            special_section_class(P2)

    @pytest.mark.parametrize("n", [1.5, Fraction(2), True, -1])
    def test_n_is_a_nonnegative_int(self, n):
        with pytest.raises(ValueError):
            special_section_class(Hirzebruch(1), n)


class TestMultiplicityBound:
    def test_fiber_through_point(self):
        report = multiplicity_bound_check(ruled(2, 1, 0, (1,)))
        assert report.passed and report.limit == 1

    def test_violation(self):
        report = multiplicity_bound_check(ruled(0, 0, 1, (2,)))
        assert not report.passed
        assert report.violations == ((1, 2),)

    def test_special_section_through_point(self):
        report = multiplicity_bound_check(ruled(2, -2, 1, (1,)))
        assert report.passed and report.limit == 1

    def test_plane_rejected(self):
        with pytest.raises(NotHirzebruchError):
            multiplicity_bound_check(plane(1))

    def test_zero_multiplicity_violates_a_negative_limit(self):
        report = multiplicity_bound_check(ruled(1, -3, 1, (0, 2, 0)))
        assert report.limit == -1
        assert report.violations == ((1, 0), (2, 2), (3, 0))
        assert all(type(m) is Fraction
                   for m in (report.limit, *dict(report.violations).values()))

    def test_special_section_has_n_zero_exceptional_coordinates(self):
        cls = special_section_class(Hirzebruch(2), 4)
        assert cls.n == 4 and cls.exceptional == (0,) * 4
        report = multiplicity_bound_check(cls)
        assert report.limit == 1 and report.passed


class TestBidegreeOfClosure:
    def test_corner_case_first_charts(self):
        assert bidegree_of_closure("U00", 2, 4, 4, corner_nonzero=True) == \
            Bidegree(4, 4)
        assert bidegree_of_closure("U10", 5, 4, 4, corner_nonzero=True) == \
            Bidegree(4, 4)
        assert bidegree_of_closure("U01", 0, 4, 4, corner_nonzero=True) == \
            Bidegree(4, 4)

    def test_corner_case_other_charts(self):
        assert bidegree_of_closure("U01", 2, 4, 4, corner_nonzero=True) == \
            Bidegree(0, 4)
        assert bidegree_of_closure("U11", 1, 2, 2, corner_nonzero=True) == \
            Bidegree(0, 2)

    def test_non_corner_is_interval(self):
        result = bidegree_of_closure("U01", 2, 3, 2)
        assert result == BidegreeBounds(d1_max=3, d2=2)

    @pytest.mark.parametrize("chart, delta, corner, expected", [
        ("U00", 0, True, Bidegree(3, 3)),
        ("U01", 0, True, Bidegree(3, 3)),
        ("U10", 0, True, Bidegree(3, 3)),
        ("U11", 0, True, Bidegree(3, 3)),
        ("U00", 2, True, Bidegree(3, 3)),
        ("U01", 2, True, Bidegree(0, 3)),
        ("U10", 2, True, Bidegree(3, 3)),
        ("U11", 2, True, Bidegree(0, 3)),
        ("U00", 0, False, BidegreeBounds(3, 2)),
        ("U01", 0, False, BidegreeBounds(3, 2)),
        ("U10", 0, False, BidegreeBounds(3, 2)),
        ("U11", 0, False, BidegreeBounds(3, 2)),
        ("U00", 2, False, BidegreeBounds(3, 2)),
        ("U01", 2, False, BidegreeBounds(3, 2)),
        ("U10", 2, False, BidegreeBounds(3, 2)),
        ("U11", 2, False, BidegreeBounds(3, 2)),
    ])
    def test_every_chart(self, chart, delta, corner, expected):
        assert bidegree_of_closure(chart, delta, 3, 3 if corner else 2,
                                   corner_nonzero=corner) == expected

    def test_unknown_chart(self):
        with pytest.raises(UnknownChartError):
            bidegree_of_closure("U22", 2, 1, 1, corner_nonzero=True)

    @pytest.mark.parametrize("chart", ["UX", "UY", "UZ", "uz"])
    def test_plane_chart_is_unknown(self, chart):
        with pytest.raises(UnknownChartError):
            bidegree_of_closure(chart, None, 3, 3, corner_nonzero=True)

    def test_total_degree_is_not_a_parameter(self):
        with pytest.raises(TypeError, match="deg_total"):
            bidegree_of_closure("U00", 2, 2, 3, deg_total=4)

    @pytest.mark.parametrize("corner", ["False", 0, None])
    def test_corner_nonzero_is_a_bool(self, corner):
        # read by truthiness, "False" asserted the corner (Bidegree(0, 3))
        with pytest.raises(TypeError, match="corner_nonzero must be a bool"):
            bidegree_of_closure("U01", 2, 3, 3, corner)

    def test_inconsistent_inputs(self):
        with pytest.raises(ValueError):
            bidegree_of_closure("U00", 2, 3, 4, corner_nonzero=True)
        with pytest.raises(ValueError):
            bidegree_of_closure("U00", None, 2, 2, corner_nonzero=True)
        with pytest.raises(ValueError):
            bidegree_of_closure("U00", 2, -1, 0)


class TestInvariantBound:
    def test_passes(self):
        report = invariant_bound_check(plane(2), plane(1))
        assert report.passed
        assert report.self_intersection == 1
        assert report.lower_bound == -2

    def test_fails_for_impossible_class(self):
        report = invariant_bound_check(plane(2, (0,)), plane(2, (5,)))
        assert not report.passed
        assert report.self_intersection == -21
        assert report.lower_bound == -4

    def test_degree_one_foliation_checks_nonnegativity(self):
        k = plane(0)
        assert invariant_bound_check(k, plane(1)).lower_bound == 0
        assert invariant_bound_check(k, plane(1)).passed
        e = DivisorClass(P2, (0,), ())
        assert invariant_bound_check(k, e).passed  # 0 >= 0


# Every public entry that takes an exact number, each fed the value x.
GATED = {
    "DivisorClass": lambda c, x: DivisorClass(P2, (x,), (0, x)),
    "mul": lambda c, x: plane(3, (1, 2)) * x,
    "rmul": lambda c, x: x * plane(3, (1, 2)),
    "from_multiplicities":
        lambda c, x: DivisorClass.from_multiplicities(P2, (1,), (x, 2)),
    "epsilon_family_bounds": epsilon_family_bounds,
    "alpha_hat":
        lambda c, x: foliation_negativity_bound(PlaneDegree(2), alpha_hat=x),
    "delta_membership_check":
        lambda c, x: delta_membership_check(plane(3, (1,)), plane(1, (0,)), x,
                                            [plane(1, (0,)), plane(0, (-1,))]),
}


class TestInputGates:
    """One rule per input: exact numbers pass ``config._rational`` and ids
    must be ints, at every public entry."""

    @pytest.mark.parametrize("bad", [0.5, Decimal("0.1"), "1/2", "nan"],
                             ids=repr)
    @pytest.mark.parametrize("name", sorted(GATED))
    def test_only_rationals_pass(self, sample12, name, bad):
        with pytest.raises(TypeError):
            GATED[name](sample12, bad)

    @pytest.mark.parametrize("value", [3, Fraction(3, 4), True, Half(1, 2)],
                             ids=repr)
    @pytest.mark.parametrize("name", sorted(GATED))
    def test_rational_kinds_match_the_fraction(self, sample12, name, value):
        got = GATED[name](sample12, value)
        plain = GATED[name](sample12, Fraction(value))
        assert got == plain and repr(got) == repr(plain)

    @pytest.mark.parametrize("bad", [0.5, 1.5, 2.0, "1", True, None], ids=repr)
    @pytest.mark.parametrize("call", [subconfiguration,
                                      strict_transform_of_exceptional],
                             ids=["subconfiguration", "strict_transform"])
    def test_non_int_ids_are_unknown_points(self, sample12, call, bad):
        with pytest.raises(UnknownPointError, match="point ids are int"):
            call(sample12, bad)

    @pytest.mark.parametrize("bad", [1.5, Decimal("0.1"), "a", None], ids=repr)
    @pytest.mark.parametrize("solve", [proximity_solve, proximity_apply])
    def test_vectors_take_only_rationals(self, sample12, solve, bad):
        with pytest.raises(TypeError) as info:
            solve(sample12, [bad] * len(sample12))
        assert len(str(info.value)) < 300
