"""Recorded verdicts of the two file parsers on seeded edits of their inputs.

Each case replaces one to three short slices of ``configs/sample12.cfg``
(through ``parse_configuration``) or of ``goldens/curves_p2.txt`` (through
``parse_curves`` over p2 with 12 points) with snippets of ``ALPHABET``: line
ends, comment marks, non-ASCII spaces and digits, and statement tokens.  A
third kind takes sample12 with its point lines in a fixed seeded shuffle and
replaces one to three numbers on them with ids 0..13, which pins duplicate
and missing ids, rule faults and their lines for a file out of id order.
The verdict is the parsed result, or the error type, line, message and cause.
``goldens/parse_verdicts.json`` holds the edits and their verdicts, so any
change in how the parsers read lines, comments or non-ASCII text shows as a
changed verdict.  Regenerate the record only when such a change is intended:

    PYTHONPATH=src python tests/test_parse_verdicts.py
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

from negbound import (
    ParseError,
    parse_configuration,
    parse_curves,
    serialize_configuration,
)
from negbound.surfaces import ProjectivePlane

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "goldens" / "parse_verdicts.json"
INPUTS = {
    "cluster": (REPO_ROOT / "configs" / "sample12.cfg", 2028),
    "curves": (REPO_ROOT / "tests" / "goldens" / "curves_p2.txt", 3028),
    "shuffled": (REPO_ROOT / "configs" / "sample12.cfg", 4028),
}
CASES = 250
ALPHABET = ("#", "\n", "\r", "\r\n", " ", "\t", "\xa0", "\u2003", "\u0661",
            "\u2028", "\x0c", "caf\u00e9", "0", "1", "5", "12", "-", "+", "/",
            "->", "origin", "surface", "p2", "f", "L", "F", "E", "E1")
NUMBER_RE = re.compile(r"\b\d+\b")


def source(kind: str) -> str:
    text = INPUTS[kind][0].read_text(encoding="utf-8")
    if kind != "shuffled":
        return text
    lines = text.splitlines(keepends=True)
    cut = lines.index("surface p2\n") + 1
    points = lines[cut:]
    random.Random(12).shuffle(points)
    return "".join(lines[:cut] + points)


def draw_edits(kind: str) -> list[list[list]]:
    """``CASES`` lists of one to three ``[start, end, snippet]`` edits.  An
    edit of the shuffled file replaces one number on its point lines, in
    the text the edits before it left, with one of 0..13, so that most of
    its verdicts are faults of the ids or of the rules."""
    rng, text = random.Random(INPUTS[kind][1]), source(kind)
    length, cases = len(text), []
    for _ in range(CASES):
        edits, now = [], text
        for _ in range(rng.randint(1, 3)):
            if kind == "shuffled":
                # past the comments, whose numbers are no ids
                numbers = NUMBER_RE.finditer(now, now.index("surface"))
                number = rng.choice(list(numbers))
                edits.append([*number.span(), str(rng.randint(0, 13))])
                now = edited(now, edits[-1:])
                continue
            start = rng.randrange(length + 1)
            edits.append([start, min(length, start + rng.randrange(5)),
                          rng.choice(ALPHABET)])
        cases.append(edits)
    return cases


def edited(text: str, edits: list[list]) -> str:
    for start, end, snippet in edits:
        text = text[:start] + snippet + text[end:]
    return text


def verdict(kind: str, text: str) -> list:
    try:
        if kind != "curves":
            return ["ok", serialize_configuration(parse_configuration(text))]
        return ["ok", [str(c) for c in parse_curves(text, ProjectivePlane(), 12)]]
    except ParseError as err:
        cause = err.__cause__
        return [type(err).__name__, err.line, str(err),
                cause and type(cause).__name__]


def record() -> None:
    data = {kind: [{"edits": edits, "verdict": verdict(kind, edited(source(kind), edits))}
                   for edits in draw_edits(kind)]
            for kind in INPUTS}
    body = ",\n".join(
        f" {json.dumps(kind)}: [\n"
        + ",\n".join(f"  {json.dumps(case)}" for case in cases) + "\n ]"
        for kind, cases in data.items())
    RECORD.write_text("{\n" + body + "\n}\n", encoding="utf-8")


@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_verdicts_match_the_record(kind):
    cases = json.loads(RECORD.read_text(encoding="utf-8"))[kind]
    assert len(cases) == CASES
    changed = [(index, case["verdict"], now) for index, case in enumerate(cases)
               if (now := verdict(kind, edited(source(kind), case["edits"])))
               != case["verdict"]]
    assert changed == [], f"{len(changed)} changed verdicts, first: {changed[:3]}"


if __name__ == "__main__":
    record()
