"""The public behaviour of the result records of ``bounds`` and ``lattice``.

Each record is built through the public functions on the shipped sample,
configs/sample12.cfg, and checked for its constructor's parameters, its
``repr``, immutability, hashing, pickling, equality and derived values.
"""

from __future__ import annotations

import inspect
import pickle
from dataclasses import replace
from fractions import Fraction

import pytest

from negbound import (
    PlaneDegree,
    attached_foliation_degree_bounds,
    delta_membership_check,
    empirical_nu,
    epsilon_family_bounds,
    exceptional_self_intersections,
    foliation_negativity_bound,
    invariant_bound_check,
    load_configuration,
    multiplicity_bound_check,
    nef_pullback_bounds,
    parse_divisor,
    polarization_bounds,
    strict_transform_of_exceptional,
)
from negbound.surfaces import Hirzebruch

from conftest import REPO_ROOT

SAMPLE = load_configuration(REPO_ROOT / "configs" / "sample12.cfg")
F2 = replace(SAMPLE, surface=Hirzebruch(2))


def divisor(text, c=SAMPLE):
    return parse_divisor(text, c.surface, len(c))


def curves():
    return [strict_transform_of_exceptional(SAMPLE, 2), divisor("L - E1 - E2"),
            divisor("2L - E1 - E2 - E3 - E6 - E10"), divisor("L")]


def foliation():
    r_max = attached_foliation_degree_bounds(SAMPLE).r_max
    return foliation_negativity_bound(
        PlaneDegree(r_max), Fraction(1, 2), alpha_hat=Fraction(3, 2),
        gamma=exceptional_self_intersections(SAMPLE).gamma)


def delta_membership():
    return delta_membership_check(divisor("3L - E1 - E6"), divisor("L"),
                                  Fraction(1, 2), curves())


# Each record's sample, built anew on each call: (factory, the constructor's
# parameters in order, "=None" marking a default, and the sample's repr).
RECORDS = {
    "BoundReport": (
        lambda: polarization_bounds(SAMPLE, "example"),
        "surface n_stated n_example convention n d gamma epsilon terms bound "
        "case_bounds=None",
        "BoundReport(surface=ProjectivePlane(), n_stated=12, n_example=16, "
        "convention='example', n=16, d=23, gamma=4, epsilon=None, "
        "terms=(('3-2d', Fraction(-43, 1)), ('d(1-n)', Fraction(-345, 1))), "
        "bound=Fraction(-345, 1), case_bounds=(('non_invariant', "
        "Fraction(-43, 1)), ('invariant', Fraction(-345, 1))))"),
    "FoliationBoundReport": (
        foliation,
        "beta bound epsilon=None scaled_bound=None generic_bound=None "
        "alpha_hat=None gamma=None combined_bound=None",
        "FoliationBoundReport(beta=43, bound=Fraction(-43, 1), "
        "epsilon=Fraction(1, 2), scaled_bound=Fraction(-86, 1), "
        "generic_bound=Fraction(-2, 1), alpha_hat=Fraction(3, 2), gamma=4, "
        "combined_bound=Fraction(-86, 1))"),
    "AttachedFoliationReport": (
        lambda: attached_foliation_degree_bounds(F2),
        "surface d r_max=None r1_max=None r2_max=None "
        "first_integral_degree=None first_integral_d1_max=None "
        "first_integral_d2=None",
        "AttachedFoliationReport(surface=Hirzebruch(delta=2), d=23, "
        "r_max=None, r1_max=46, r2_max=44, first_integral_degree=None, "
        "first_integral_d1_max=23, first_integral_d2=23)"),
    "CurveRatio": (
        lambda: empirical_nu(curves(), divisor("3L - E1 - E6")).ratios[1],
        "index self_intersection pairing_with_divisor qualifies ratio",
        "CurveRatio(index=2, self_intersection=Fraction(-1, 1), "
        "pairing_with_divisor=Fraction(2, 1), qualifies=True, "
        "ratio=Fraction(-1, 2))"),
    "NuReport": (
        lambda: empirical_nu(curves()[:2], divisor("3L - E1 - E6")),
        "value ratios",
        "NuReport(value=Fraction(-1, 2), ratios=(CurveRatio(index=1, "
        "self_intersection=Fraction(-4, 1), pairing_with_divisor="
        "Fraction(0, 1), qualifies=False, ratio=None), CurveRatio(index=2, "
        "self_intersection=Fraction(-1, 1), pairing_with_divisor="
        "Fraction(2, 1), qualifies=True, ratio=Fraction(-1, 2))))"),
    "WitnessCheck": (
        lambda: delta_membership().checks[0],
        "index pairing_with_divisor slack applicable ok",
        "WitnessCheck(index=1, pairing_with_divisor=Fraction(0, 1), "
        "slack=Fraction(0, 1), applicable=False, ok=None)"),
    "DeltaMembershipReport": (
        lambda: delta_membership_check(divisor("L"), divisor("3L"),
                                       Fraction(1, 2), curves()[1:2]),
        "epsilon checks violations nef_on_witnesses",
        "DeltaMembershipReport(epsilon=Fraction(1, 2), checks=(WitnessCheck("
        "index=1, pairing_with_divisor=Fraction(1, 1), slack=Fraction(-1, 2), "
        "applicable=True, ok=False),), violations=(1,), "
        "nef_on_witnesses=False)"),
    "MultiplicityBoundReport": (
        lambda: multiplicity_bound_check(divisor("F - 2E1 - E6", F2)),
        "limit violations",
        "MultiplicityBoundReport(limit=Fraction(1, 1), "
        "violations=((1, Fraction(2, 1)),))"),
    "InvariantBoundReport": (
        lambda: invariant_bound_check(divisor("-3L"), curves()[0]),
        "self_intersection lower_bound",
        "InvariantBoundReport(self_intersection=Fraction(-4, 1), "
        "lower_bound=Fraction(0, 1))"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_constructor_parameters(name):
    make, parameters, _ = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    expected = [(p.partition("=")[0], None if "=" in p else inspect.Parameter.empty,
                 inspect.Parameter.POSITIONAL_OR_KEYWORD)
                for p in parameters.split()]
    assert [(p.name, p.default, p.kind) for p in
            inspect.signature(type(record)).parameters.values()] == expected


@pytest.mark.parametrize("name", RECORDS)
def test_repr(name):
    make, _, text = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name][0]()
    for field in inspect.signature(type(record)).parameters:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_equal(name):
    make = RECORDS[name][0]
    first, second = make(), make()
    assert first is not second
    assert first == second and hash(first) == hash(second)


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name):
    record = RECORDS[name][0]()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


@pytest.mark.parametrize("name", RECORDS)
def test_records_that_differ_in_one_field_are_unequal(name):
    record = RECORDS[name][0]()
    cls = type(record)
    values = [getattr(record, f) for f in inspect.signature(cls).parameters]
    assert cls(*values) == record
    for i in range(len(values)):
        changed = cls(*values[:i], object(), *values[i + 1:])
        assert changed != record and record != changed


def test_derived_values():
    plane = RECORDS["BoundReport"][0]()
    assert plane.conventions_disagree is True
    assert plane.as_json_dict() == {
        "surface": "p2", "n_stated": 12, "n_example": 16, "d": 23, "gamma": 4,
        "terms": [{"name": "3-2d", "value": -43},
                  {"name": "d(1-n)", "value": -345}],
        "bound": -345, "convention": "example",
        "cases": {"non_invariant": -43, "invariant": -345}}
    ruled = epsilon_family_bounds(F2, Fraction(1, 2))
    assert ruled.conventions_disagree is True
    assert ruled.as_json_dict() == {
        "surface": "f", "delta": 2, "n_stated": 12, "n_example": 16, "d": 23,
        "gamma": 4,
        "terms": [{"name": "(2-2d-delta)/eps", "value": -92},
                  {"name": "(-n-delta)/eps", "value": -28},
                  {"name": "(-delta-2)dn/eps", "value": -2208},
                  {"name": "-gamma", "value": -4}],
        "bound": -2208, "convention": "stated", "epsilon": "1/2"}
    one_point = replace(SAMPLE, proximities=((),))
    assert nef_pullback_bounds(one_point).conventions_disagree is False

    assert RECORDS["NuReport"][0]().as_json_dict() == {
        "value": "-1/2",
        "curves": [{"index": 1, "c_sq": -4, "d_dot_c": 0, "qualifies": False,
                    "ratio": None},
                   {"index": 2, "c_sq": -1, "d_dot_c": 2, "qualifies": True,
                    "ratio": "-1/2"}]}
    assert empirical_nu(curves()[:1], divisor("L")).as_json_dict() == {
        "value": None,
        "curves": [{"index": 1, "c_sq": -4, "d_dot_c": 0, "qualifies": False,
                    "ratio": None}]}

    assert RECORDS["DeltaMembershipReport"][0]().passed is False
    assert delta_membership().passed is True
    assert RECORDS["MultiplicityBoundReport"][0]().passed is False
    assert multiplicity_bound_check(divisor("M - E1 - E6 - E10", F2)).passed is True
    assert RECORDS["InvariantBoundReport"][0]().passed is False
    assert invariant_bound_check(divisor("L"), divisor("L - E1 - E2")).passed is True
