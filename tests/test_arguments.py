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
    load_configuration,
    load_curves,
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
    "load_configuration": (lambda: load_configuration(3),
                           "path must be a str or os.PathLike, got int"),
    "load_curves": (lambda: load_curves(None, P2, 1),
                    "path must be a str or os.PathLike, got NoneType"),
    "from_multiplicities": (lambda: DivisorClass.from_multiplicities(P2, (1,), 5),
                            "multiplicities must be iterable, got int"),
    "from_multiplicities-entry": (
        lambda: DivisorClass.from_multiplicities(P2, (1,), ["a"]),
        "expected an int or Fraction, got str"),
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


# Each entry that takes a sequence: (the parameter's name, the call with
# ``values`` in its place, and a valid list for it).
SEQUENCES = {
    "empirical_nu": ("curves", lambda values: empirical_nu(values, LINE), [LINE]),
    "delta_membership_check": (
        "witnesses", lambda values: delta_membership_check(LINE, LINE, 1, values),
        [LINE]),
    "proximity_solve": ("w", lambda values: proximity_solve(CHAIN, values), [1, 0]),
    "proximity_apply": ("v", lambda values: proximity_apply(CHAIN, values), [1, 0]),
    "DivisorClass-base": ("base", lambda values: DivisorClass(P2, values), [2]),
    "DivisorClass-exceptional": (
        "exceptional", lambda values: DivisorClass(P2, [1], values), [3, 0]),
    "divisor_from_strict_coordinates-base": (
        "base", lambda values: divisor_from_strict_coordinates(CHAIN, values, [0, 0]),
        [2]),
    "divisor_from_strict_coordinates-coefficients": (
        "coefficients",
        lambda values: divisor_from_strict_coordinates(CHAIN, [1], values), [1, 0]),
    "from_multiplicities": (
        "multiplicities",
        lambda values: DivisorClass.from_multiplicities(P2, [1], values), [1, 0]),
}
UNORDERED = {"dict": dict.fromkeys, "set": set, "frozenset": frozenset,
             "dict_keys": lambda values: dict.fromkeys(values).keys()}


@pytest.mark.parametrize("kind", UNORDERED)
@pytest.mark.parametrize("name", SEQUENCES)
def test_a_mapping_or_set_is_not_read_as_a_sequence(name, kind):
    parameter, call, valid = SEQUENCES[name]
    with pytest.raises(TypeError) as info:
        call(UNORDERED[kind](valid))
    assert str(info.value) == f"{parameter} must be a sequence, got {kind}"


@pytest.mark.parametrize("name", SEQUENCES)
def test_a_list_a_tuple_and_an_iterator_give_the_same_result(name):
    _, call, valid = SEQUENCES[name]
    assert call(tuple(valid)) == call(iter(valid)) == call(valid)
