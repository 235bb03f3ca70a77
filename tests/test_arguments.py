"""A wrong kind of sequence or text argument gets the package's TypeError,
which names the parameter (a sequence) and the type, not the interpreter's
``'int' object is not iterable`` or ``AttributeError``."""

from __future__ import annotations

import pytest

from negbound import (
    Configuration,
    DivisorClass,
    delta_membership_check,
    divisor_from_strict_coordinates,
    empirical_nu,
    parse_configuration,
    parse_curves,
    parse_divisor,
    parse_surface,
    proximity_apply,
    proximity_solve,
)
from negbound.surfaces import ProjectivePlane

P2 = ProjectivePlane()
LINE = DivisorClass(P2, (1,))
CHAIN = Configuration(((), (1,)))

CASES = {
    "empirical_nu": (lambda: empirical_nu(3, LINE), "curves must be iterable, got int"),
    "delta_membership_check": (lambda: delta_membership_check(LINE, LINE, 1, None),
                               "witnesses must be iterable, got NoneType"),
    "proximity_solve": (lambda: proximity_solve(CHAIN, 3), "w must be iterable, got int"),
    "proximity_apply": (lambda: proximity_apply(CHAIN, None),
                        "v must be iterable, got NoneType"),
    "DivisorClass-base": (lambda: DivisorClass(P2, 3), "base must be iterable, got int"),
    "DivisorClass-exceptional": (lambda: DivisorClass(P2, [1], 3),
                                 "exceptional must be iterable, got int"),
    "divisor_from_strict_coordinates-base": (
        lambda: divisor_from_strict_coordinates(CHAIN, 1, [0, 0]),
        "base must be iterable, got int"),
    "divisor_from_strict_coordinates-coefficients": (
        lambda: divisor_from_strict_coordinates(CHAIN, [1], 0),
        "coefficients must be iterable, got int"),
    "parse_divisor": (lambda: parse_divisor(3, P2, 1), "expected str, got int"),
    "parse_surface": (lambda: parse_surface(None), "expected str, got NoneType"),
    "parse_configuration": (lambda: parse_configuration([1]), "expected str, got list"),
    "parse_curves": (lambda: parse_curves(3, P2, 1), "expected str, got int"),
}


@pytest.mark.parametrize("name", CASES)
def test_a_wrong_kind_of_argument_is_named(name):
    call, message = CASES[name]
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


def test_valid_sequences_of_any_kind_are_read_once():
    # The check starts no pass of its own, so a one-shot iterator works.
    assert proximity_solve(CHAIN, iter([1, 0])) == [1, 1]
    assert [r.index for r in empirical_nu(iter([LINE, LINE]), LINE).ratios] == [1, 2]
    assert DivisorClass(P2, iter([2]), iter([-1])) == DivisorClass(P2, (2,), (-1,))
