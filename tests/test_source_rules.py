"""Rules on the package source that the runtime tests cannot see."""

from __future__ import annotations

import ast

import pytest

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
