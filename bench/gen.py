"""Seeded input generators for the benchmark.

Everything here is derived from a ``random.Random`` the caller seeds, so the
same seed gives the same inputs.  Clusters are produced as spec lists
``[(id, (proximity ids...)), ...]`` and rendered to cluster-file text; the
program under test only ever sees that text.

Admissibility: a free point is proximate to its parent only; a satellite is
proximate to its parent and to one of the parent's own proximity targets.  A
satellite (parent, target) pair is never used twice, because E_parent meets
the strict transform of E_target at a single point.
"""

from __future__ import annotations

import random

Spec = tuple[int, tuple[int, ...]]

# Surfaces of the cluster-file grammar: "p2" or "f <delta>".
SURFACES = ("p2", "f 0", "f 1", "f 2", "f 3", "f 4")
# Chance that a random cluster's point is a satellite when it can be one.
SATELLITE_SHARE = 0.35


def random_cluster(rng: random.Random, n: int, origins: int = 1) -> list[Spec]:
    """A random admissible cluster of ``n`` points with ``origins`` components.

    Component sizes are fixed (as equal as possible) and only their
    interleaving in id order is seeded, so the work per cluster depends little
    on the seed.  Each non-origin point picks its parent uniformly among the
    earlier points of its component and becomes a satellite with probability
    ``SATELLITE_SHARE`` when the parent offers an unused (parent, target) pair.
    """
    if not 1 <= origins <= n:
        raise ValueError(f"need 1 <= origins <= n, got {origins} and {n}")
    labels = [j % origins for j in range(n)]
    rng.shuffle(labels)
    members: list[list[int]] = [[] for _ in range(origins)]
    specs: list[Spec] = []
    used: set[tuple[int, int]] = set()
    for pid, label in enumerate(labels, start=1):
        earlier = members[label]
        prox: tuple[int, ...] = ()
        if earlier:
            parent = rng.choice(earlier)
            prox = (parent,)
            targets = specs[parent - 1][1]
            if targets and rng.random() < SATELLITE_SHARE:
                free = [t for t in targets if (parent, t) not in used]
                if free:
                    second = rng.choice(free)
                    used.add((parent, second))
                    prox = (parent, second)
        earlier.append(pid)
        specs.append((pid, prox))
    return specs


def satellite_chain(rng: random.Random, n: int,
                    satellite_share: float) -> list[Spec]:
    """A chain of depth ``n``: each point's parent is the previous point.

    Exactly ``round(satellite_share * (n - 2))`` of the points 3..n are
    satellites, at seeded positions, each taking a seeded one of its parent's
    targets.  Every satellite has its own parent, so no pair repeats.  The
    multiplicities, and with them ``d``, grow exponentially along the chain.
    """
    if n < 2:
        raise ValueError(f"a chain needs at least 2 points, got {n}")
    count = round(satellite_share * (n - 2))
    satellites = set(rng.sample(range(3, n + 1), count))
    specs: list[Spec] = [(1, ()), (2, (1,))]
    for pid in range(3, n + 1):
        parent = pid - 1
        if pid in satellites:
            specs.append((pid, (parent, rng.choice(specs[parent - 1][1]))))
        else:
            specs.append((pid, (parent,)))
    return specs


def cluster_text(specs: list[Spec], surface: str) -> str:
    """Render specs in the cluster-file format."""
    lines = [f"surface {surface}"]
    for pid, prox in specs:
        if prox:
            lines.append(f"{pid} -> {' '.join(map(str, prox))}")
        else:
            lines.append(f"{pid} origin")
    return "\n".join(lines) + "\n"


def divisor_literal(rng: random.Random, surface: str, n: int,
                    degree: int) -> tuple[str, list[int]]:
    """A literal ``(degree + 1/2) L - sum r_i E_i`` and its seeded r_i in 0..3.

    Over a Hirzebruch surface the base part is ``(degree + 1/2) F + degree M``.
    Zero coefficients are left out and ones are implicit, so the literal mixes
    the term forms the grammar accepts.
    """
    r = [rng.randrange(4) for _ in range(n)]
    if surface == "p2":
        terms = [f"{2 * degree + 1}/2L"]
    else:
        terms = [f"{2 * degree + 1}/2F", f"+ {degree}M"]
    for index, coeff in enumerate(r, start=1):
        if coeff:
            terms.append(f"- {coeff}E{index}" if coeff > 1 else f"- E{index}")
    return " ".join(terms), r
