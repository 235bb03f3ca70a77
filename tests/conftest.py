from __future__ import annotations

from pathlib import Path

import pytest

from negbound import Configuration, build_configuration
from negbound.config import multiplicity_vector
from negbound.sufficiency import hat_configuration

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


def scan_d_value(c: Configuration, limit: int = 10 ** 6) -> int:
    """Literal scan oracle: try d = 1, 2, ... and return the first d for which
    every component of P^{-1}(d e_1 - m) over the completed cluster is
    positive.  Solves P v = rhs by forward substitution for each d; shares
    nothing with the closed-form minimization it checks."""
    extended = hat_configuration(c)
    n = len(extended)
    m = multiplicity_vector(extended)
    prox = {pt.id: pt.proximities for pt in extended.points}
    for d in range(1, limit + 1):
        v = [0] * n
        for pid in range(1, n + 1):
            rhs = (d if pid == 1 else 0) - m[pid - 1]
            v[pid - 1] = rhs + sum(v[t - 1] for t in prox[pid])
        if all(x > 0 for x in v):
            return d
    raise AssertionError(f"no d found up to {limit}")


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
