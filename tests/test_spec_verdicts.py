"""Recorded verdicts of the four entries from a caller's data to a cluster.

``build_configuration`` takes ``(id, proximity ids)`` specs; the
``Configuration`` constructor, ``dataclasses.replace(c, proximities=...)``
and unpickling take a container of proximity tuples.  Each case starts from
a seeded random valid cluster of 1 to 8 points and makes one to three edits:
an id or a target becomes a bool, float (NaN too), str, None, Fraction,
Decimal (NaN too) or an out-of-range int; a spec becomes ragged (length 1 or
3) or a non-iterable; ids are duplicated, dropped or shuffled; a point gains
a third target.  A few fixed cases cover an empty or non-iterable container.
The verdict is the accepted proximities, or the error type, message and
``point_id``.  ``goldens/spec_verdicts.json`` holds each input as its
``repr`` and its verdict, so any change in how the entries read, type-check
or word a caller's data shows as a changed verdict.  Regenerate the record
only when such a change is intended:

    PYTHONPATH=src:tests python tests/test_spec_verdicts.py
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from negbound import Configuration, build_configuration
from negbound.surfaces import ProjectivePlane
from random_configs import random_configuration

RECORD = Path(__file__).resolve().parent / "goldens" / "spec_verdicts.json"
CASES = 250
SEEDS = {"build": 3201, "constructor": 3202, "replace": 3203, "pickle": 3204}
NAMES = {"Fraction": Fraction, "Decimal": Decimal, "nan": float("nan"),
         "__builtins__": {}}
# Values that are no int of 1..n, for an id or a target.
WRONG = (True, False, 1.0, 2.5, float("nan"), "1", "", None, Fraction(1),
         Fraction(1, 2), Decimal(1), Decimal("NaN"), 0, -1, 10 ** 30)
NOT_ITERABLE = (3, None, 1.5, Fraction(2), Decimal(2))
FIXED = {
    "build": ([], (), None, 3, "", "12", [()], [(1,)], [(1, (), 0)], [3],
              [None], [(1, None)], [(1, 3)], [(1, "")], [("1", "")],
              [(True, ())], [(1.0, ())], [(2, ())], [(1, ()), (1, ())]),
    "constructor": ([], (), None, 3, "", "12", [None], [3], ["1"], [(True,)],
                    [(), ()], [(), (1,), (2, 1)], [(), None], [(), (1.0,)]),
}


class _ForgedPickle:
    """Pickles as a Configuration of proximities no validator has seen."""

    def __init__(self, proximities):
        self.proximities = proximities

    def __reduce__(self):
        return Configuration, (self.proximities, ProjectivePlane())


BASE = Configuration(((),))
ENTRIES = {
    "build": build_configuration,
    "constructor": Configuration,
    "replace": lambda proximities: dataclasses.replace(BASE, proximities=proximities),
    "pickle": lambda proximities: pickle.loads(pickle.dumps(_ForgedPickle(proximities))),
}


def draw_specs(rng: random.Random) -> list:
    """A valid cluster's specs with one to three edits."""
    n = rng.randint(1, 8)
    specs = [[pid, list(prox)] for pid, prox in enumerate(
        random_configuration(rng, n).proximities, start=1)]
    for _ in range(rng.randint(1, 3)):
        # wrong id, wrong target, ragged, non-iterable spec or targets,
        # duplicate, dropped, shuffled, third target
        edit = rng.choices(range(9), (3, 3, 1, 1, 1, 2, 2, 2, 1))[0]
        intact = [k for k, spec in enumerate(specs) if isinstance(spec, list)
                  and len(spec) == 2 and isinstance(spec[1], list)]
        if not intact:
            specs.append([len(specs) + 1, []])
            continue
        k = rng.choice(intact)
        if edit == 0:
            specs[k][0] = rng.choice(WRONG + (n + 1,))
        elif edit == 1 and specs[k][1]:
            t = rng.randrange(len(specs[k][1]))
            specs[k][1][t] = rng.choice(WRONG + (k + 1, n + 1))
        elif edit == 2:
            specs[k] = specs[k][:1] if rng.random() < 0.5 else specs[k] + [[]]
        elif edit == 3:
            specs[k] = rng.choice(NOT_ITERABLE)
        elif edit == 4:
            specs[k][1] = rng.choice(NOT_ITERABLE)
        elif edit == 5:
            specs[k][0] = specs[rng.choice(intact)][0]
        elif edit == 6:
            del specs[k]
        elif edit == 7:
            rng.shuffle(specs)
        else:
            specs[k][1].append(rng.randint(0, n))
    return [tuple(spec) if isinstance(spec, list) and rng.random() < 0.5 else spec
            for spec in specs]


def draw(kind: str, rng: random.Random):
    """A spec list for ``build``, else the specs' proximities without ids."""
    specs = draw_specs(rng)
    if kind == "build":
        return specs
    proximities = [spec[1] if isinstance(spec, (list, tuple)) and len(spec) == 2
                   else spec for spec in specs]
    return tuple(proximities) if rng.random() < 0.5 else proximities


def inputs(kind: str) -> list:
    rng = random.Random(SEEDS[kind])
    fixed = FIXED["build" if kind == "build" else "constructor"]
    return [*fixed, *(draw(kind, rng) for _ in range(CASES - len(fixed)))]


def verdict(kind: str, data) -> list:
    try:
        c = ENTRIES[kind](data)
    except Exception as err:  # any error type is part of the verdict
        return [type(err).__name__, str(err), getattr(err, "point_id", None)]
    return ["ok", [list(prox) for prox in c.proximities]]


def record() -> None:
    body = ",\n".join(
        f" {json.dumps(kind)}: [\n" + ",\n".join(
            f"  {json.dumps({'input': repr(data), 'verdict': verdict(kind, data)})}"
            for data in inputs(kind)) + "\n ]"
        for kind in ENTRIES)
    RECORD.write_text("{\n" + body + "\n}\n", encoding="utf-8")


@pytest.mark.parametrize("kind", sorted(ENTRIES))
def test_verdicts_match_the_record(kind):
    cases = json.loads(RECORD.read_text(encoding="utf-8"))[kind]
    assert len(cases) == CASES
    changed = []
    for index, case in enumerate(cases):
        data = eval(case["input"], NAMES)  # reprs of ints, floats, str, ...
        assert repr(data) == case["input"]
        if (now := verdict(kind, data)) != case["verdict"]:
            changed.append((index, case["input"], case["verdict"], now))
    assert changed == [], f"{len(changed)} changed verdicts, first: {changed[:3]}"


if __name__ == "__main__":
    record()
