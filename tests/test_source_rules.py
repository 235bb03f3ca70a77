"""Rules on the package source that the runtime tests cannot see, and
the short error messages one of them keeps."""

from __future__ import annotations

import ast
import dataclasses

import pytest

from negbound import (
    Configuration,
    DivisorClass,
    ForwardReferenceError,
    InvariantError,
    ParseError,
    SurfaceMismatchError,
    UnknownChartError,
    analysis_report,
    attached_foliation_degree_bounds,
    bidegree_of_closure,
    build_configuration,
    d_value,
    divisor_from_strict_coordinates,
    dot_export,
    empirical_nu,
    foliation_negativity_bound,
    hat_configuration,
    load_curves,
    multiplicity_bound_check,
    multiplicity_vector,
    nef_pullback_bounds,
    pairing,
    parse_curves,
    parse_divisor,
    proximity_apply,
    proximity_solve,
    serialize_configuration,
    special_section_class,
    strict_exceptional_coordinates,
    strict_transform_of_exceptional,
    subconfiguration,
    total_d,
)
from negbound.config import proximity_matrix
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


def _private_fraction_sites(tree: ast.AST) -> list[str]:
    """Uses of the private API of ``fractions``: the ``_normalize``
    keyword, a private attribute of ``Fraction`` or of the module, and the
    private slots ``_numerator`` and ``_denominator`` of any value."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "_normalize":
            sites.append((node.value.lineno, node.value.col_offset, "_normalize="))
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.endswith("__") and (
                    node.attr in ("_numerator", "_denominator")
                    or _named(node.value) in ("Fraction", "fractions")):
            sites.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"{line}: {text}" for line, _, text in sorted(sites)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_fraction_api(path):
    # Python 3.12 removed Fraction's _normalize keyword, and CI runs 3.10 to
    # 3.13: a Fraction is built through its public constructor alone.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sites = _private_fraction_sites(tree)
    assert sites == [], f"private fractions API in {path.name}: {sites}"


def test_private_fraction_scan_reads_every_form():
    tree = ast.parse("Fraction(1, 2, _normalize=False)\n"
                     "Fraction._from_coprime_ints(1, 2)\n"
                     "x._numerator + y._denominator\nfractions._gcd\n"
                     "Fraction.__new__(Fraction)\nx.numerator, self._shared\n")
    assert _private_fraction_sites(tree) == [
        "1: _normalize=", "2: Fraction._from_coprime_ints",
        "3: x._numerator", "3: y._denominator", "4: fractions._gcd"]


BIG, LONG = 10 ** 5000, "x" * 100000
P2 = ProjectivePlane()


def _curve_file(tmp_path, n):
    path = tmp_path / "curves.txt"
    path.write_text("L\n", encoding="utf-8")
    return load_curves(path, P2, n)


def _flat_cluster(n: int) -> Configuration:
    """A hand-built single-origin cluster whose points 2..n are all
    proximate to n, which would make every unloading coefficient past the
    origin 0; the constructor rejects it."""
    return Configuration(((),) + ((n,),) * (n - 1))


# Each entry that takes the int rule or quotes a surface, a certificate or a
# chart in its error, fed an int past the 4300-digit cap, 100000 characters,
# or a value that once slipped through (a float, a bool, a negative n).
SHORT_ERRORS = {
    "bidegree deg_x": (ValueError, lambda tmp: bidegree_of_closure(
        "U00", delta=1, deg_x=LONG, deg_y=1)),
    "bidegree deg_y": (ValueError, lambda tmp: bidegree_of_closure(
        "U00", delta=1, deg_x=1, deg_y=-BIG)),
    "bidegree delta": (ValueError, lambda tmp: bidegree_of_closure(
        "U01", delta=LONG, deg_x=1, deg_y=1)),
    "bidegree float": (ValueError, lambda tmp: bidegree_of_closure(
        "U00", delta=1, deg_x=1.5, deg_y=1.5, corner_nonzero=True)),
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
    "DValue length": (InvariantError, lambda tmp: DValue(
        d=2, certificate=(0,) * 10 ** 5, previous=(1,) * 10 ** 5)),
    "DValue digits": (InvariantError, lambda tmp: DValue(
        d=BIG, certificate=(BIG,), previous=(BIG,))),
    "d_value points": (ForwardReferenceError,
                       lambda tmp: d_value(_flat_cluster(10 ** 4))),
    "chart": (UnknownChartError, lambda tmp: bidegree_of_closure(
        LONG, delta=1, deg_x=1, deg_y=1)),
    "chart int": (UnknownChartError, lambda tmp: bidegree_of_closure(
        5, delta=1, deg_x=1, deg_y=1)),
    "chart None": (UnknownChartError, lambda tmp: bidegree_of_closure(
        None, delta=1, deg_x=1, deg_y=1)),
    "pairing int": (TypeError, lambda tmp: pairing(
        parse_divisor("L", P2, 0), 1)),
    "DivisorClass plus int": (TypeError, lambda tmp: parse_divisor("L", P2, 0) + 1),
    "DivisorClass minus int": (TypeError, lambda tmp: parse_divisor("L", P2, 0) - 1),
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
    "build_configuration surface None": (TypeError, lambda tmp:
                                         build_configuration([(1, [])], None)),
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
    "foliation degree type": (TypeError,
                              lambda tmp: foliation_negativity_bound("x")),
    "foliation degree None": (TypeError,
                              lambda tmp: foliation_negativity_bound(None)),
    "multiplicity_bound_check int": (TypeError,
                                     lambda tmp: multiplicity_bound_check(3)),
    "strict coordinates int": (TypeError,
                               lambda tmp: strict_exceptional_coordinates(
                                   build_configuration([(1, [])]), 3)),
    "empirical_nu int": (TypeError, lambda tmp: empirical_nu([], 3)),
}
# The entries that take a cluster, each fed an int in its place.
CLUSTER_ENTRIES = {
    "subconfiguration": lambda c: subconfiguration(c, 1),
    "d_value": d_value,
    "hat_configuration": hat_configuration,
    "total_d": total_d,
    "analysis_report": analysis_report,
    "dot_export": dot_export,
    "serialize_configuration": serialize_configuration,
    "strict_transform_of_exceptional":
        lambda c: strict_transform_of_exceptional(c, 1),
    "strict_exceptional_coordinates": lambda c: strict_exceptional_coordinates(
        c, parse_divisor("L", P2, 1)),
    "divisor_from_strict_coordinates":
        lambda c: divisor_from_strict_coordinates(c, [1], [0]),
    "nef_pullback_bounds": nef_pullback_bounds,
    "attached_foliation_degree_bounds": attached_foliation_degree_bounds,
    "proximity_solve": lambda c: proximity_solve(c, [1]),
    "proximity_apply": lambda c: proximity_apply(c, [1]),
    "multiplicity_vector": multiplicity_vector,
    "proximity_matrix": proximity_matrix,
}
SHORT_ERRORS.update({f"{name} int": (TypeError, lambda tmp, call=call: call(3))
                     for name, call in CLUSTER_ENTRIES.items()})


@pytest.mark.parametrize("name", sorted(SHORT_ERRORS))
def test_bad_inputs_raise_short_typed_errors(tmp_path, name):
    error, call = SHORT_ERRORS[name]
    with pytest.raises(error) as info:
        call(tmp_path)
    # the package's own message, not the interpreter's int/str cap error
    assert len(str(info.value)) < 300
    assert "Exceeds the limit" not in str(info.value)


@pytest.mark.parametrize("name", sorted(CLUSTER_ENTRIES))
def test_a_non_cluster_is_named(name):
    with pytest.raises(TypeError) as info:
        CLUSTER_ENTRIES[name](3)
    assert str(info.value) == "expected Configuration, got int"


def _functions_where(path, found) -> set[str]:
    """The top-level functions of ``path`` (``<module>`` for module-level
    code) holding a node, other than a docstring, for which ``found`` holds."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                  and ast.get_docstring(node) is not None}
    return {getattr(top, "name", "<module>") for top in tree.body
            for node in ast.walk(top)
            if id(node) not in docstrings and found(node)}


def test_one_scanner_reads_comments_and_checks_ascii():
    # Cluster and curve files share one line scanner, so the comment and
    # ASCII rules cannot drift apart between the two parsers.  A divisor
    # literal from the command line passes no scanner and checks ASCII itself.
    path = REPO_ROOT / "src" / "negbound" / "fileformat.py"
    comments = _functions_where(path, lambda node: isinstance(node, ast.Constant)
                                and isinstance(node.value, str) and "#" in node.value)
    ascii_checks = _functions_where(path, lambda node: isinstance(
        node, ast.Attribute) and node.attr == "isascii")
    assert comments == {"_scan"}
    assert ascii_checks == {"_scan", "parse_divisor"}


def test_one_entry_from_tokens_to_a_cluster():
    # The parser hands its tokens to the one rule check and reaches no
    # other validation entry.  The id faults are worded there alone, and it
    # tests no type, as both of its callers hand it ints.
    fileformat = REPO_ROOT / "src" / "negbound" / "fileformat.py"
    tree = ast.parse(fileformat.read_text(encoding="utf-8"))
    named = {_named(node) for node in ast.walk(tree)}
    assert not named & {"build_configuration", "_handed_on"}
    calls = [_named(node.func) for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    assert "Configuration" not in calls and calls.count("_admitted") == 1
    worded = {(path.name, function) for path in SOURCES
              for function in _functions_where(path, lambda node: isinstance(
                  node, ast.Constant) and isinstance(node.value, str) and any(
                  text in node.value
                  for text in ("duplicate point id", "ids must be exactly")))}
    assert worded == {("config.py", "_admitted")}
    # A type test is a call of type or isinstance, or either one handed to
    # another call, as in map(type, ids).
    type_tests = _functions_where(
        REPO_ROOT / "src" / "negbound" / "config.py",
        lambda node: isinstance(node, ast.Call) and any(
            _named(part) in ("type", "isinstance") for part in (node.func, *node.args)))
    assert "_admitted" not in type_tests and "build_configuration" in type_tests


# Records that only carry results are NamedTuples. The values that check
# their fields on construction stay frozen dataclasses, as do Bidegree and
# BidegreeBounds, which as tuples of the same shape would compare equal.
RESULT_RECORDS = """AttachedFoliationReport BoundReport ClusterData CurveRatio
    DeltaMembershipReport ExceptionalSelfIntersections FoliationBoundReport
    InvariantBoundReport MultiplicityBoundReport NuReport WitnessCheck"""
FROZEN_DATACLASSES = """Bidegree BidegreeBounds Configuration DValue
    DivisorClass Hirzebruch HirzebruchBidegree PlaneDegree Point
    ProjectivePlane"""


def test_result_records_are_named_tuples():
    import negbound
    for name in RESULT_RECORDS.split():
        cls = getattr(negbound, name)
        assert issubclass(cls, tuple) and hasattr(cls, "_fields"), name
    for name in FROZEN_DATACLASSES.split():
        cls = getattr(negbound, name)
        assert dataclasses.is_dataclass(cls), name
        assert cls.__dataclass_params__.frozen, name
