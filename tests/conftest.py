from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from negbound import Configuration, DivisorClass, build_configuration
from negbound.surfaces import ProjectivePlane

REPO_ROOT = Path(__file__).resolve().parent.parent

# 12-point cluster with three components, shipped as configs/sample12.cfg.
SAMPLE12_SPECS = [
    (1, []), (2, [1]), (3, [2]), (4, [2]), (5, [4, 2]),
    (6, []), (7, [6]), (8, [7, 6]), (9, [8]),
    (10, []), (11, [10]), (12, [10]),
]


@pytest.fixture
def sample12() -> Configuration:
    return build_configuration(SAMPLE12_SPECS)


@pytest.fixture
def sample12_path() -> Path:
    return REPO_ROOT / "configs" / "sample12.cfg"


def count_calls(monkeypatch, function) -> list:
    """Rebind ``function`` in every loaded negbound module to a wrapper
    that records the first argument of each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "negbound" and \
                getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


def scan_d_value(c: Configuration, limit: int = 10 ** 6) -> int:
    """Literal scan oracle: try d = 1, 2, ... and return the first d for which
    every component of P^{-1}(d e_1 - m) over the completed cluster is
    positive.  Builds the completion (a satellite above each free end) and
    the multiplicities from the point specs, and solves P v = rhs by forward
    substitution for each d; shares no code with what it checks."""
    prox = [pt.proximities for pt in c.points]
    targets = {t for point_prox in prox for t in point_prox}
    prox += [(pid, p[0]) for pid, p in enumerate(prox, start=1)
             if len(p) == 1 and pid not in targets]
    n = len(prox)
    m = [0] * n
    carried = [0] * n  # sum of the multiplicities proximate to each point
    for i in reversed(range(n)):
        m[i] = carried[i] or 1
        for t in prox[i]:
            carried[t - 1] += m[i]
    for d in range(1, limit + 1):
        v = [0] * n
        for i in range(n):
            rhs = (d if i == 0 else 0) - m[i]
            v[i] = rhs + sum(v[t - 1] for t in prox[i])
        if all(x > 0 for x in v):
            return d
    raise AssertionError(f"no d found up to {limit}")


def walk_cut(c: Configuration, point_id: int) -> tuple[tuple[int, ...],
                                                      tuple[tuple[int, ...], ...]]:
    """Reference subcluster at ``point_id``: walk the successors of the
    point (the points proximate to it, from lists built here) to collect it
    and everything infinitely near it, then return the kept ids ascending
    and their proximities renumbered 1..k, targets outside dropped."""
    succ: list[list[int]] = [[] for _ in range(len(c) + 1)]
    for pid, prox in enumerate(c.proximities, start=1):
        for target in prox:
            succ[target].append(pid)
    found, stack = {point_id}, [point_id]
    while stack:
        for later in succ[stack.pop()]:
            if later not in found:
                found.add(later)
                stack.append(later)
    kept = sorted(found)
    renumber = {old: new for new, old in enumerate(kept, start=1)}
    return tuple(kept), tuple(
        tuple(renumber[t] for t in c.proximities[old - 1] if t in renumber)
        for old in kept)


def dense_pairing(x: DivisorClass, y: DivisorClass) -> Fraction:
    """Reference intersection number: the base form (L^2 = 1; F^2 = 0,
    F.M = 1, M^2 = delta) minus the product of every pair of exceptional
    coordinates, zeros included."""
    if x.surface == ProjectivePlane():
        base = x.base[0] * y.base[0]
    else:
        (f1, m1), (f2, m2) = x.base, y.base
        base = f1 * m2 + m1 * f2 + x.surface.delta * m1 * m2
    return base - sum(p * q for p, q in zip(x.exceptional, y.exceptional))


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
