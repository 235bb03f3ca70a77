"""Rules on the package source that the runtime tests cannot see, and
the short error messages one of them keeps."""

from __future__ import annotations

import ast
import dataclasses

import pytest

from negbound import (
    Configuration,
    DivisorClass,
    HirzebruchBidegree,
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
    special_section_class,
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


def _named(node: ast.AST) -> object:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Constant):  # getattr(module, "...")
        return node.value
    return None


def test_dense_matrix_is_named_only_by_its_def():
    # proximity_matrix builds n x n matrices for the tests to check the
    # O(n) solves against.  No module may call, import or look it up, so
    # no production path reaches it, including paths no test runs.  A
    # string that lists it among other names is not a lookup.
    sites = [(path.name, node.lineno, type(node).__name__)
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _named(node) == "proximity_matrix"]
    assert [site[::2] for site in sites] == [("config.py", "FunctionDef")], sites


# The package's modules, lowest layer first.  A module may import only
# modules before it, so the package has no import cycle, not even one a
# function-level import defers.  __init__.py loads its names lazily and
# imports no module of the package by name.
LAYERS = ("errors", "surfaces", "config", "sufficiency", "lattice",
          "fileformat", "bounds", "cli")


def _package_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) for every relative or ``negbound.`` import in
    ``tree``: module level, in a function or under TYPE_CHECKING."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # the package is flat: level 1 is negbound
                module = f"negbound.{module}".rstrip(".")
            names = ([f"negbound.{alias.name}" for alias in node.names]
                     if module == "negbound" else [module])
        else:
            continue
        found += [(node.lineno, name.split(".")[1]) for name in names
                  if name.startswith("negbound.")]
    return found


def test_modules_import_only_earlier_layers():
    assert {path.stem for path in SOURCES} == {"__init__", *LAYERS}
    breaks = [f"{path.name}:{line} imports {module}"
              for path in SOURCES if path.stem in LAYERS
              for line, module in _package_imports(
                  ast.parse(path.read_text(encoding="utf-8")))
              if module not in LAYERS[:LAYERS.index(path.stem)]]
    assert breaks == [], f"imports of a later layer: {breaks}"


def test_layer_scan_reads_every_import_form():
    tree = ast.parse("from .config import a\nfrom . import lattice\n"
                     "import negbound.cli\nfrom negbound.errors import b\n"
                     "from negbound import surfaces\nimport os, negbound\n"
                     "def f():\n    from .bounds import c\n")
    assert _package_imports(tree) == [
        (1, "config"), (2, "lattice"), (3, "cli"), (4, "errors"),
        (5, "surfaces"), (8, "bounds")]


def _float_sites(tree: ast.AST) -> set[tuple[int, int]]:
    return {(node.lineno, node.col_offset) for node in ast.walk(tree)
            if (isinstance(node, ast.Constant) and type(node.value) is float)
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_arithmetic_makes_no_float(path):
    # Every value the package computes is exact.  The one float is the
    # decimal approximation cli.format_rational prints beside a rational.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sites = _float_sites(tree)
    if path.name == "cli.py":
        display = next(node for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name == "format_rational")
        assert _float_sites(display)  # the exemption still has a use
        sites -= _float_sites(display)
    assert sites == set(), f"floats in {path.name} at {sorted(sites)}"


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
    "build_configuration surface": (TypeError, lambda tmp: build_configuration(
        [(1, []), (2, [1])], "p2")),
    "Configuration surface": (TypeError, lambda tmp: Configuration(((),), "p2")),
    "replace surface": (TypeError, lambda tmp: dataclasses.replace(
        build_configuration([(1, [])]), surface="p2")),
    "replace surface None": (TypeError, lambda tmp: dataclasses.replace(
        build_configuration([(1, [])]), surface=None)),
    "DivisorClass surface": (TypeError, lambda tmp: DivisorClass("p2", [1])),
    "from_multiplicities surface": (TypeError, lambda tmp:
                                    DivisorClass.from_multiplicities(
                                        None, [1], [1])),
    "parse_divisor surface": (TypeError, lambda tmp: parse_divisor("L", "p2", 0)),
    "parse_curves surface": (TypeError, lambda tmp: parse_curves("", "p2", 0)),
    "special_section_class surface": (TypeError,
                                      lambda tmp: special_section_class("p2")),
    "foliation surface": (TypeError, lambda tmp: foliation_negativity_bound(
        HirzebruchBidegree(1, 1), "p2")),
    "foliation plane surface": (TypeError, lambda tmp: foliation_negativity_bound(
        PlaneDegree(2), "p2")),
    "foliation degree type": (TypeError, lambda tmp: foliation_negativity_bound(
        "x", Hirzebruch(1))),
    "foliation degree None": (TypeError, lambda tmp: foliation_negativity_bound(
        None, ProjectivePlane())),
}


@pytest.mark.parametrize("name", sorted(SHORT_ERRORS))
def test_bad_inputs_raise_short_typed_errors(tmp_path, name):
    error, call = SHORT_ERRORS[name]
    with pytest.raises(error) as info:
        call(tmp_path)
    # the package's own message, not the interpreter's int/str cap error
    assert len(str(info.value)) < 300
    assert "Exceeds the limit" not in str(info.value)
