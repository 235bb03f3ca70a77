from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from negbound import (
    DivisorClass,
    HirzebruchBidegree,
    NonPositiveEpsilonError,
    PlaneDegree,
    SurfaceMismatchError,
    attached_foliation_degree_bounds,
    build_configuration,
    delta_membership_check,
    empirical_nu,
    epsilon_family_bounds,
    foliation_negativity_bound,
    nef_pullback_bounds,
    polarization_bounds,
    strict_transform_of_exceptional,
)
from negbound.bounds import rational_json
from negbound.surfaces import Hirzebruch, ProjectivePlane

P2 = ProjectivePlane()


def on_surface(c, surface):
    return dataclasses.replace(c, surface=surface)


class TestPolarizationBounds:
    def test_sample12_plane_cases(self, sample12):
        report = polarization_bounds(sample12)
        cases = dict(report.case_bounds)
        assert cases["non_invariant"] == -43
        assert cases["invariant"] == 23 * (1 - 12)
        assert report.bound == -253

    @pytest.mark.parametrize("delta", [0, 1, 4])
    def test_sample12_ruled_cases(self, sample12, delta):
        report = polarization_bounds(on_surface(sample12, Hirzebruch(delta)))
        cases = dict(report.case_bounds)
        assert cases["non_invariant"] == -44 - delta
        assert cases["invariant"] == min(-12 - delta, -(delta + 2) * 23 * 12)

    def test_singleton(self):
        report = polarization_bounds(build_configuration([(1, [])]))
        cases = dict(report.case_bounds)
        assert cases["non_invariant"] == -1  # 3 - 2*2
        assert cases["invariant"] == 0       # 2*(1 - 1)

    @pytest.mark.parametrize("surface, cases", [
        (P2, {"non_invariant": -43, "invariant": -253}),
        (Hirzebruch(2), {"non_invariant": -46, "invariant": -4 * 23 * 12}),
    ], ids=["p2", "f 2"])
    def test_json_cases(self, sample12, surface, cases):
        report = polarization_bounds(on_surface(sample12, surface))
        data = report.as_json_dict()
        assert data["cases"] == {name: rational_json(value)
                                 for name, value in report.case_bounds}
        assert data["cases"] == cases

    def test_records_both_conventions(self, sample12):
        report = polarization_bounds(sample12, "example")
        assert (report.n_stated, report.n_example) == (12, 16)
        assert report.conventions_disagree


class TestEpsilonFamilyBounds:
    def test_sample12_stated(self, sample12):
        report = epsilon_family_bounds(sample12, 1)
        assert [v for _, v in report.terms] == [-43, -253, -4]
        assert report.bound == -253

    def test_sample12_example_convention(self, sample12):
        report = epsilon_family_bounds(sample12, 1, "example")
        assert report.bound == -345

    def test_singleton_half(self):
        report = epsilon_family_bounds(build_configuration([(1, [])]),
                                       Fraction(1, 2))
        assert [v for _, v in report.terms] == [-2, 0, -1]
        assert report.bound == -2

    def test_ruled_terms(self, sample12):
        report = epsilon_family_bounds(on_surface(sample12, Hirzebruch(1)), 2)
        terms = dict(report.terms)
        assert terms["(2-2d-delta)/eps"] == Fraction(-45, 2)
        assert terms["(-n-delta)/eps"] == Fraction(-13, 2)
        assert terms["(-delta-2)dn/eps"] == Fraction(-3 * 23 * 12, 2)
        assert terms["-gamma"] == -4

    def test_nonpositive_epsilon(self, sample12):
        with pytest.raises(NonPositiveEpsilonError):
            epsilon_family_bounds(sample12, 0)
        with pytest.raises(NonPositiveEpsilonError):
            epsilon_family_bounds(sample12, Fraction(-1, 2))

    def test_float_epsilon_rejected(self, sample12):
        with pytest.raises(TypeError):
            epsilon_family_bounds(sample12, 0.5)

    def test_unknown_convention(self, sample12):
        with pytest.raises(ValueError, match="n_convention"):
            epsilon_family_bounds(sample12, 1, "bogus")


class TestNefPullbackBounds:
    def test_sample12_plane(self, sample12):
        report = nef_pullback_bounds(sample12, "example")
        assert [v for _, v in report.terms] == [-43, -345]
        assert report.bound == -345

    @pytest.mark.parametrize("delta", range(6))
    def test_sample12_ruled_example(self, sample12, delta):
        report = nef_pullback_bounds(on_surface(sample12, Hirzebruch(delta)),
                                     "example")
        assert [v for _, v in report.terms] == \
            [-44 - delta, -16 - delta, -368 * (2 + delta)]
        assert report.bound == -368 * (2 + delta)

    @pytest.mark.parametrize("delta", range(4))
    def test_sample12_ruled_stated(self, sample12, delta):
        report = nef_pullback_bounds(on_surface(sample12, Hirzebruch(delta)))
        assert report.bound == -276 * (2 + delta)

    def test_json_shape(self, sample12):
        data = nef_pullback_bounds(sample12, "example").as_json_dict()
        assert data["surface"] == "p2"
        assert data["bound"] == -345
        assert data["convention"] == "example"
        assert {"n_stated", "n_example", "d", "gamma", "terms"} <= set(data)
        assert "epsilon" not in data

    def test_unknown_convention(self, sample12):
        with pytest.raises(ValueError, match="n_convention"):
            nef_pullback_bounds(sample12, "bogus")


class TestFoliationNegativityBound:
    def test_plane_degree_one(self):
        report = foliation_negativity_bound(PlaneDegree(1))
        assert report.beta == 0 and report.bound == 0

    def test_plane_degree_five(self):
        assert foliation_negativity_bound(PlaneDegree(5)).bound == -4

    def test_ruled_bidegree(self):
        report = foliation_negativity_bound(HirzebruchBidegree(3, 2))
        assert report.beta == 5 and report.bound == -5

    def test_epsilon_scaling_and_generic(self):
        report = foliation_negativity_bound(PlaneDegree(5), Fraction(1, 2))
        assert report.scaled_bound == -8
        assert report.generic_bound == -2

    def test_combined_with_invariant_data(self):
        report = foliation_negativity_bound(PlaneDegree(3), 1,
                                            alpha_hat=Fraction(7), gamma=2)
        assert report.combined_bound == -7

    def test_nonpositive_epsilon(self):
        with pytest.raises(NonPositiveEpsilonError):
            foliation_negativity_bound(PlaneDegree(2), 0)

    @pytest.mark.parametrize("degree, surface", [
        (PlaneDegree(2), P2), (HirzebruchBidegree(1, 1), Hirzebruch(0))])
    def test_surface_in_epsilon_position_is_rejected(self, degree, surface):
        # the degree's type names the surface; a call that still passes
        # one hands it to the exact-number gate as epsilon
        with pytest.raises(TypeError, match="int or Fraction"):
            foliation_negativity_bound(degree, surface)

    def test_negative_plane_degree_rejected(self):
        with pytest.raises(ValueError):
            PlaneDegree(-1)

    @pytest.mark.parametrize("make", [
        lambda: PlaneDegree(2.5),
        lambda: PlaneDegree(Fraction(2)),
        lambda: HirzebruchBidegree(1.5, 2),
        lambda: HirzebruchBidegree(1, True),
        lambda: foliation_negativity_bound(PlaneDegree(2), gamma=1.5),
    ], ids=["plane-float", "plane-fraction", "bidegree-float", "bidegree-bool",
            "gamma-float"])
    def test_integer_parameters_take_only_ints(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("epsilon, alpha_hat, gamma, combined", [
        (None, None, None, None),
        (None, Fraction(1, 2), None, -2),
        (None, None, 3, -3),
        (Fraction(1, 2), Fraction(1, 2), None, -4),
        (Fraction(1, 2), 5, 1, -5),
    ])
    def test_combined_bound_is_the_least_piece(self, epsilon, alpha_hat, gamma,
                                               combined):
        # PlaneDegree(3): the bound is -2, or -4 scaled by epsilon = 1/2
        report = foliation_negativity_bound(PlaneDegree(3), epsilon,
                                            alpha_hat=alpha_hat, gamma=gamma)
        assert report.combined_bound == combined
        assert combined is None or type(report.combined_bound) is Fraction


class TestAttachedFoliationDegreeBounds:
    def test_sample12_plane(self, sample12):
        report = attached_foliation_degree_bounds(sample12)
        assert report.r_max == 44
        assert report.first_integral_degree == 23

    def test_singleton(self):
        report = attached_foliation_degree_bounds(build_configuration([(1, [])]))
        assert report.r_max == 2
        assert report.first_integral_degree == 2

    def test_sample12_ruled(self, sample12):
        report = attached_foliation_degree_bounds(
            on_surface(sample12, Hirzebruch(3)))
        assert (report.r1_max, report.r2_max) == (47, 44)
        assert (report.first_integral_d1_max, report.first_integral_d2) == \
            (23, 23)


class TestEmpiricalNu:
    def test_pullback_misses_exceptional(self):
        c = build_configuration([(1, [])])
        line = DivisorClass(P2, (1,), (0,))
        e1 = DivisorClass(P2, (0,), (1,))
        report = empirical_nu([e1], line)
        assert report.value is None
        assert not report.ratios[0].qualifies

    def test_conic_through_five_points(self):
        line = DivisorClass(P2, (1,), (0,) * 5)
        conic = DivisorClass.from_multiplicities(P2, (2,), (1,) * 5)
        report = empirical_nu([conic], line)
        assert report.value == Fraction(-1, 2)

    def test_strict_exceptional_witness(self, sample12):
        curve = strict_transform_of_exceptional(sample12, 2)
        divisor = DivisorClass.from_multiplicities(P2, (3,), (0, 1) + (0,) * 10)
        report = empirical_nu([curve], divisor)
        assert report.value == -4
        assert report.ratios[0].pairing_with_divisor == 1

    def test_surface_mismatch(self):
        with pytest.raises(SurfaceMismatchError):
            empirical_nu([DivisorClass(P2, (1,))],
                         DivisorClass(Hirzebruch(0), (1, 1)))

    @staticmethod
    def _curves_and_divisor(sample12, surface):
        c = on_surface(sample12, surface)
        # Values repeat across the curves, and D has denominator 2.
        curves = [strict_transform_of_exceptional(c, q)
                  for q in (3, 4, 5, 7, 9, 12)]
        curves.append(DivisorClass.from_multiplicities(
            surface, (1, 1), (1, 1) + (0,) * 10))
        divisor = DivisorClass.from_multiplicities(
            surface, (Fraction(5, 2), 2), (1, 1, 2, 3, 2, 1, 3, 1, 2, 1, 1, 3))
        return curves, divisor

    @staticmethod
    def _typed(report):
        """The report's values, each with its type."""
        values = [report.value]
        for r in report.ratios:
            values += [r.self_intersection, r.pairing_with_divisor, r.ratio]
        return [(type(v), v) for v in values]

    def test_curves_on_an_equal_surface_or_of_a_subclass_are_accepted(
            self, sample12):
        class Marked(DivisorClass):
            pass

        def marked(cls):
            return Marked._make(cls.surface, cls.n, cls.base_numerators,
                                cls.exceptional_numerators, cls.den)

        curves, divisor = self._curves_and_divisor(sample12, Hirzebruch(1))
        expected = self._typed(empirical_nu(curves, divisor))
        # the value, then C^2, D.C and the ratio of the first curve
        assert expected[:4] == [(Fraction, Fraction(x))
                                for x in (-2, -1, 2, Fraction(-1, 2))]
        equal = Hirzebruch(1)
        assert equal == divisor.surface and equal is not divisor.surface
        moved = [DivisorClass._make(equal, x.n, x.base_numerators,
                                    x.exceptional_numerators, x.den)
                 for x in curves]
        for later, big_nef in ((curves[:1] + moved[1:], divisor),
                               (curves[:2] + [marked(x) for x in curves[2:]],
                                divisor),
                               (curves, marked(divisor)),
                               ([marked(x) for x in curves], marked(divisor))):
            assert self._typed(empirical_nu(later, big_nef)) == expected

    @pytest.mark.parametrize("bad, error, message", [
        (lambda x: DivisorClass._make(x.surface, 11, x.base_numerators, {}),
         SurfaceMismatchError, "incompatible lattices: (f 1, n=12) vs (f 1, n=11)"),
        (lambda x: DivisorClass._make(Hirzebruch(2), 12, x.base_numerators, {}),
         SurfaceMismatchError, "incompatible lattices: (f 1, n=12) vs (f 2, n=12)"),
        (lambda x: DivisorClass(P2, (1,), (0,) * 12),
         SurfaceMismatchError, "incompatible lattices: (f 1, n=12) vs (p2, n=12)"),
        (lambda x: type("Marked", (DivisorClass,), {})._make(
            x.surface, 13, x.base_numerators, {}),
         SurfaceMismatchError, "incompatible lattices: (f 1, n=12) vs (f 1, n=13)"),
        (lambda x: 3, TypeError, "expected DivisorClass, got DivisorClass and int"),
        (lambda x: x.base, TypeError,
         "expected DivisorClass, got DivisorClass and tuple"),
    ], ids=["n", "delta", "plane", "subclass n", "int", "tuple"])
    def test_a_later_curve_off_the_lattice_raises(self, sample12, bad, error,
                                                  message):
        curves, divisor = self._curves_and_divisor(sample12, Hirzebruch(1))
        for at in (0, 3, len(curves)):
            later = curves[:at] + [bad(curves[0])] + curves[at:]
            with pytest.raises(error) as caught:
                empirical_nu(later, divisor)
            assert str(caught.value) == message


class TestDeltaMembership:
    def test_equal_divisors_epsilon_one(self):
        line = DivisorClass(P2, (1,))
        report = delta_membership_check(line, line, 1, [line])
        assert report.passed
        assert report.nef_on_witnesses
        assert report.checks[0].slack == 0

    def test_violation_reported(self):
        d = DivisorClass(P2, (2,))
        g = DivisorClass(P2, (1,))
        report = delta_membership_check(d, g, 3, [g])
        assert report.violations == (1,)
        assert not report.passed
        assert not report.nef_on_witnesses

    def test_half_of_itself(self):
        d = DivisorClass(Hirzebruch(1), (1, 1))
        report = delta_membership_check(d, d, Fraction(1, 2), [d])
        assert report.passed and report.nef_on_witnesses

    def test_inapplicable_witness_checked_for_nef_only(self):
        d = DivisorClass(P2, (1,), (0,))
        e1 = DivisorClass(P2, (0,), (1,))
        report = delta_membership_check(d, e1, 1, [e1])
        assert report.checks[0].applicable is False
        assert report.checks[0].ok is None
        assert report.passed  # no applicable violation
        assert report.nef_on_witnesses  # (D - eps*E1).E1 = 1 >= 0

    def test_nonpositive_epsilon(self):
        line = DivisorClass(P2, (1,))
        with pytest.raises(NonPositiveEpsilonError):
            delta_membership_check(line, line, Fraction(0), [line])

    @pytest.mark.parametrize("d, g, names", [
        (1, 2, "int and int"),
        (DivisorClass(P2, (1,)), 2, "DivisorClass and int"),
        ("3L", DivisorClass(P2, (1,)), "str and DivisorClass"),
    ])
    def test_classes_are_checked_with_no_witnesses(self, d, g, names):
        with pytest.raises(TypeError) as exc:
            delta_membership_check(d, g, Fraction(1, 2), [])
        assert str(exc.value) == f"expected DivisorClass, got {names}"
