"""Random valid clusters, used by the randomized test suites.

Points are attached one at a time: a free point below a uniformly chosen
existing point, occasionally upgraded to a satellite by also marking
proximity to one of the parent's own proximity targets.  This produces
exactly the admissible proximity structures; a satellite pair (parent,
target) is never reused, matching the geometry of exceptional divisors
separating after one blowup.
"""

from __future__ import annotations

import random

from negbound import (
    Configuration,
    ProjectivePlane,
    SurfaceModel,
    build_configuration,
)

# The chance that a new point is an origin (with ``multi_origin``), and that
# a free point becomes a satellite when its parent has a target to share.
NEW_ORIGIN_BIAS = 0.15
SATELLITE_BIAS = 0.35


def random_configuration(rng: random.Random, n: int,
                         surface: SurfaceModel | None = None, *,
                         multi_origin: bool = True) -> Configuration:
    if n < 1:
        raise ValueError("n must be positive")
    specs: list[tuple[int, list[int]]] = [(1, [])]
    prox_of: dict[int, list[int]] = {1: []}
    used_pairs: set[tuple[int, int]] = set()
    for pid in range(2, n + 1):
        if multi_origin and rng.random() < NEW_ORIGIN_BIAS:
            prox = []
        else:
            parent = rng.randrange(1, pid)
            prox = [parent]
            targets = prox_of[parent]
            if targets and rng.random() < SATELLITE_BIAS:
                second = rng.choice(targets)
                if (parent, second) not in used_pairs:
                    used_pairs.add((parent, second))
                    prox = [parent, second]
        specs.append((pid, prox))
        prox_of[pid] = prox
    return build_configuration(specs, surface or ProjectivePlane())

