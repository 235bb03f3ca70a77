"""Rules on the package source that the runtime tests cannot see, and
the short error messages one of them keeps."""

from __future__ import annotations

import ast

import pytest

from negbound import (
    Configuration,
    DivisorClass,
    InvariantError,
    NonPositiveCoefficientError,
    ParseError,
    PlaneDegree,
    SurfaceMismatchError,
    UnknownChartError,
    bidegree_of_closure,
    build_configuration,
    d_value,
    foliation_negativity_bound,
    load_curves,
    pairing,
    parse_curves,
    parse_divisor,
    serialize_configuration,
    strict_exceptional_coordinates,
)
from negbound.sufficiency import DValue
from negbound.surfaces import Hirzebruch, ProjectivePlane
from conftest import REPO_ROOT

SOURCES = sorted((REPO_ROOT / "src" / "negbound").glob("*.py"))


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "config.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so runtime invariants must be
    # explicit checks that raise a NegboundError.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


def _raised_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised_or_a_base():
    # An error type that nothing raises and nothing derives from is dead
    # API: deleting its last raise must delete the class too.
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES]
    errors = next(tree for path, tree in zip(SOURCES, trees)
                  if path.name == "errors.py")
    classes = [node for node in errors.body if isinstance(node, ast.ClassDef)]
    used = set().union(*map(_raised_names, trees))
    used |= {base.id for node in classes for base in node.bases
             if isinstance(base, ast.Name)}
    orphans = [node.name for node in classes if node.name not in used]
    assert classes and orphans == [], f"never raised nor a base: {orphans}"


def _repr_conversions(node: ast.AST) -> list[int]:
    return [value.lineno for value in ast.walk(node)
            if isinstance(value, ast.FormattedValue)
            and value.conversion == ord("r")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_raised_messages_quote_values_without_repr(path):
    # An !r conversion echoes a value whole, and an int past the
    # interpreter's 4300-digit cap cannot be converted at all: raised
    # messages quote values through errors.quote.  __init__.py imports
    # nothing from the package, so that it stays lazy; it cannot use it and
    # is exempt.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    if path.name == "__init__.py":
        imports = [ast.unparse(node) for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert imports == ["from importlib import import_module"]
        return
    lines = [line for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             for line in _repr_conversions(node.exc)]
    assert lines == [], f"!r in raised messages in {path.name} at lines {lines}"


# A raised message may format a name, a constant or ``type(x).__name__``
# as it is; any other expression goes through one of these calls.
QUOTING_CALLS = {"quote", "surface_name", "len"}


def _formats_only_names(value: ast.expr) -> bool:
    if isinstance(value, (ast.Name, ast.Constant)):
        return True
    if isinstance(value, ast.Attribute):
        return value.attr == "__name__"
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in QUOTING_CALLS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_raised_messages_format_values_through_quote(path):
    # An attribute, subscript, call or arithmetic expression formatted into
    # a raised message is a value the raise site did not check: an int past
    # the 4300-digit cap, or a long input, would escape unquoted.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sites = [f"{value.lineno}: {ast.unparse(value.value)}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             for value in ast.walk(node.exc)
             if isinstance(value, ast.FormattedValue)
             and not _formats_only_names(value.value)]
    assert sites == [], f"unquoted values raised in {path.name}: {sites}"


BIG, LONG = 10 ** 5000, "x" * 100000
P2 = ProjectivePlane()


def _curve_file(tmp_path, n):
    path = tmp_path / "curves.txt"
    path.write_text("L\n", encoding="utf-8")
    return load_curves(path, P2, n)


def _flat_cluster(n: int) -> Configuration:
    """A bare, unvalidated single-origin cluster whose points 2..n are all
    proximate to n, so every unloading coefficient past the origin is 0."""
    return Configuration(((),) + ((n,),) * (n - 1))


# Each entry that takes the int rule or quotes a surface, a certificate or a
# chart in its error, fed an int past the 4300-digit cap, 100000 characters,
# or a value that once slipped through (a float, a bool, a negative n).
SHORT_ERRORS = {
    "bidegree deg_x": (ValueError, lambda tmp: bidegree_of_closure(
        "UX", deg_x=LONG, deg_y=1, deg_total=1)),
    "bidegree deg_y": (ValueError, lambda tmp: bidegree_of_closure(
        "UX", deg_x=1, deg_y=-BIG, deg_total=1)),
    "bidegree deg_total": (ValueError, lambda tmp: bidegree_of_closure(
        "UX", deg_x=1, deg_y=1, deg_total=LONG)),
    "bidegree delta": (ValueError, lambda tmp: bidegree_of_closure(
        "U01", delta=LONG, deg_x=1, deg_y=1)),
    "bidegree float": (ValueError, lambda tmp: bidegree_of_closure(
        "UX", deg_x=1.5, deg_y=1.5, corner_nonzero=True)),
    "parse_divisor n": (ValueError, lambda tmp: parse_divisor("L", P2, LONG)),
    "parse_divisor float n": (ValueError, lambda tmp: parse_divisor(
        "L - E1", P2, 1.5)),
    "parse_divisor bool n": (ValueError, lambda tmp: parse_divisor("L", P2, True)),
    "parse_curves n": (ValueError, lambda tmp: parse_curves("", P2, -BIG)),
    "load_curves n": (ValueError, lambda tmp: _curve_file(tmp, -1)),
    "Hirzebruch delta": (ValueError, lambda tmp: Hirzebruch(-BIG)),
    "Hirzebruch text": (ValueError, lambda tmp: Hirzebruch(LONG)),
    "DivisorClass base": (ValueError, lambda tmp: DivisorClass(
        Hirzebruch(BIG), (1,))),
    "pairing": (SurfaceMismatchError, lambda tmp: pairing(
        DivisorClass(Hirzebruch(BIG), (1, 0)), DivisorClass(Hirzebruch(0), (1, 0)))),
    "strict coordinates": (SurfaceMismatchError,
                           lambda tmp: strict_exceptional_coordinates(
                               build_configuration([(1, [])]),
                               DivisorClass(Hirzebruch(BIG), (1, 0), (0,)))),
    "generator": (ParseError, lambda tmp: parse_divisor("L", Hirzebruch(BIG), 0)),
    "foliation degree": (SurfaceMismatchError,
                         lambda tmp: foliation_negativity_bound(
                             PlaneDegree(BIG), Hirzebruch(0))),
    "DValue length": (InvariantError, lambda tmp: DValue(
        d=2, certificate=(0,) * 10 ** 5, previous=(1,) * 10 ** 5)),
    "DValue digits": (InvariantError, lambda tmp: DValue(
        d=BIG, certificate=(BIG,), previous=(BIG,))),
    "d_value points": (NonPositiveCoefficientError,
                       lambda tmp: d_value(_flat_cluster(10 ** 4))),
    "chart": (UnknownChartError, lambda tmp: bidegree_of_closure(
        LONG, deg_x=1, deg_y=1)),
    "chart int": (UnknownChartError, lambda tmp: bidegree_of_closure(
        5, deg_x=1, deg_y=1)),
    "chart None": (UnknownChartError, lambda tmp: bidegree_of_closure(
        None, deg_x=1, deg_y=1)),
    "pairing n": (SurfaceMismatchError, lambda tmp: pairing(
        parse_divisor("L", P2, BIG), parse_divisor("L", P2, 0))),
    "strict coordinates n": (SurfaceMismatchError,
                             lambda tmp: strict_exceptional_coordinates(
                                 build_configuration([(1, [])]),
                                 parse_divisor("L", P2, BIG))),
    "serialize delta": (ValueError, lambda tmp: serialize_configuration(
        Configuration(((),), Hirzebruch(BIG)))),
}


@pytest.mark.parametrize("name", sorted(SHORT_ERRORS))
def test_bad_inputs_raise_short_typed_errors(tmp_path, name):
    error, call = SHORT_ERRORS[name]
    with pytest.raises(error) as info:
        call(tmp_path)
    # the package's own message, not the interpreter's int/str cap error
    assert len(str(info.value)) < 300
    assert "Exceeds the limit" not in str(info.value)
