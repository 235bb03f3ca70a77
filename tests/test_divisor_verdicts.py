"""Recorded verdicts of ``parse_divisor`` on seeded edits of divisor literals.

Each case draws a literal over ``p2``, ``f 0``, ``f 1`` or ``f 3`` with 1 to
8 exceptional generators: signed terms whose coefficients are left out, ints
or ``p/q``, with upper- or lower-case letters and random spacing.  Then it
makes up to three edits, none in about a fifth of the cases: a slice of up
to two characters becomes one of ``SNIPPETS`` (``/``, ``/0``, ``0``, ``F``,
``M``, ``m``, ``e``, ``E0``, ``E{n+1}``, ``/2L``, ``2/L`` or a number one
digit past the interpreter's int/str cap), a sign is dropped, or a space
splits a number.  The verdict is
the class's ``(den, base_numerators, exceptional_numerators)``, or the error
type and message.  ``goldens/divisor_verdicts.json`` holds the literals, the
edits and their verdicts, so any change in how the parser reads terms,
coefficients, generators or indices, or in the order of its faults, shows as
a changed verdict.  Regenerate the record only when such a change is
intended:

    PYTHONPATH=src:tests python tests/test_divisor_verdicts.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from negbound import NegboundError, parse_divisor
from negbound.surfaces import parse_surface
from test_parse_verdicts import edited

RECORD = Path(__file__).resolve().parent / "goldens" / "divisor_verdicts.json"
CASES = 150
SEEDS = {"p2": 5101, "f 0": 5102, "f 1": 5103, "f 3": 5104}
# "E+" is E{n+1} and "CAP" the long number, both expanded at replay.
SNIPPETS = ("/", "/0", "0", "F", "M", "m", "e", "E0", "E+", "/2L", "2/L", "CAP")


def literal(rng: random.Random, surface: str, n: int) -> str:
    """A valid literal: each generator with a coefficient at most once."""
    names = ["L"] if surface == "p2" else ["F", "M"]
    names += [f"E{i}" for i in range(1, n + 1)]
    terms = []
    for name in rng.sample(names, rng.randint(1, len(names))):
        form = rng.randrange(3)
        coeff = ("" if form == 0 else str(rng.randrange(12)) if form == 1
                 else f"{rng.randrange(12)}/{rng.randint(1, 6)}")
        if rng.random() < 0.2:
            name = name.lower()
        sign = rng.choice("+-") if terms or rng.random() < 0.5 else ""
        space = rng.choice(("", " ", "  "))
        terms.append(f"{space if terms else ''}{sign}{space}{coeff}{name}")
    return "".join(terms)


def draw_edit(rng: random.Random, text: str) -> list:
    """One ``[start, end, snippet]`` edit of ``text``."""
    kind = rng.randrange(len(SNIPPETS) + 2)
    if kind == len(SNIPPETS):  # drop a sign
        signs = [i for i, ch in enumerate(text) if ch in "+-"]
        if signs:
            start = rng.choice(signs)
            return [start, start + 1, ""]
    elif kind == len(SNIPPETS) + 1:  # a space inside a number
        cuts = [i for i in range(1, len(text))
                if text[i - 1].isdigit() and text[i].isdigit()]
        if cuts:
            cut = rng.choice(cuts)
            return [cut, cut, " "]
    start = rng.randrange(len(text) + 1)
    return [start, min(len(text), start + rng.randrange(3)),
            SNIPPETS[kind % len(SNIPPETS)]]


def expand(edits: list, n: int) -> list:
    long_number = "7" * (sys.get_int_max_str_digits() + 1)
    return [[start, end, {"E+": f"E{n + 1}", "CAP": long_number}.get(snippet, snippet)]
            for start, end, snippet in edits]


def draw_cases(surface: str) -> list[dict]:
    rng, cases = random.Random(SEEDS[surface]), []
    for _ in range(CASES):
        n = rng.randint(1, 8)
        text = base = literal(rng, surface, n)
        edits = []
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            edits.append(draw_edit(rng, text))
            text = edited(text, expand(edits[-1:], n))
        cases.append({"n": n, "literal": base, "edits": edits})
    return cases


def verdict(surface: str, case: dict) -> list:
    text = edited(case["literal"], expand(case["edits"], case["n"]))
    try:
        cls = parse_divisor(text, parse_surface(surface), case["n"])
    except NegboundError as err:
        return [type(err).__name__, str(err)]
    return ["ok", cls.den, list(cls.base_numerators),
            [[i, x] for i, x in cls.exceptional_numerators.items()]]


def record() -> None:
    body = ",\n".join(
        f" {json.dumps(surface)}: [\n"
        + ",\n".join(f"  {json.dumps({**case, 'verdict': verdict(surface, case)})}"
                     for case in draw_cases(surface)) + "\n ]"
        for surface in SEEDS)
    RECORD.write_text("{\n" + body + "\n}\n", encoding="utf-8")


@pytest.mark.parametrize("surface", sorted(SEEDS))
def test_verdicts_match_the_record(surface):
    cases = json.loads(RECORD.read_text(encoding="utf-8"))[surface]
    assert len(cases) == CASES
    changed = [(index, case["verdict"], now) for index, case in enumerate(cases)
               if (now := verdict(surface, case)) != case["verdict"]]
    assert changed == [], f"{len(changed)} changed verdicts, first: {changed[:3]}"


def test_the_cases_cover_every_fault():
    verdicts = [case["verdict"] for cases in
                json.loads(RECORD.read_text(encoding="utf-8")).values()
                for case in cases]
    messages = " ".join(v[1] for v in verdicts if v[0] != "ok")
    for fault in ("cannot parse", "missing sign", "zero denominator",
                  "out of range", "is not valid over", "whitespace inside",
                  "more than"):
        assert fault in messages, fault
    assert sum(v[0] == "ok" for v in verdicts) >= 50


if __name__ == "__main__":
    record()
