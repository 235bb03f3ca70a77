"""Deterministic CLI fuzz: mutated cluster text, divisor literals, curve
lists and ``--epsilon`` values run through ``cli.main`` in-process.

Every call must end with exit code 0, 1 or 2 (argparse's usage errors arrive
as ``SystemExit(2)``); any other exception fails the test.  The mutations
include digit runs on both sides of the interpreter's default 4300-digit cap
on int/str conversion.
"""

from __future__ import annotations

import random
import sys

from negbound.cli import main

SEED = 20250124
ROUNDS = 120

SAMPLE_DIVISORS = ("3L - 1E2", "1/2L - 2/3E1 + E12", "2F + 1M - E3")
SAMPLE_CURVES = "1E2 -1E3 -1E4 -1E5\n2L - E1 - E2\n# comment\n1E12\n"
SAMPLE_EPSILONS = ("1/2", "3/1000", "7", "-1/2", "0")
TOKENS = ("0", "1", "9", "12", " ", "->", "-", "+", "/", "#", "\n", "L", "F",
          "M", "E", "e", "_", ".", "origin", "surface", "f", "p2",
          "\u0661", "\xa0", "\t")


def digit_run(rng: random.Random) -> str:
    """A digit run just under, at or over the 4300-digit cap, or short."""
    length = rng.choice((rng.randint(1, 6), rng.randint(4290, 4310),
                         rng.randint(4990, 5010)))
    return str(rng.randint(1, 9)) + "0" * (length - 1)


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(text))
        kind = rng.randrange(5)
        if kind == 0:      # delete a short slice
            text = text[:pos] + text[pos + rng.randint(1, 4):]
        elif kind == 1:    # insert a token
            text = text[:pos] + rng.choice(TOKENS) + text[pos:]
        elif kind == 2:    # insert a digit run
            text = text[:pos] + digit_run(rng) + text[pos:]
        elif kind == 3:    # replace a character
            text = text[:pos] + rng.choice(TOKENS) + text[pos + 1:]
        else:              # duplicate or drop a line
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            if rng.random() < 0.5:
                lines.insert(i, lines[i])
            else:
                del lines[i]
            text = "\n".join(lines)
    return text


def exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_main_only_exits_0_1_or_2(capsys, sample12_path, tmp_path):
    rng = random.Random(SEED)
    sample = sample12_path.read_text()
    cluster, curves = tmp_path / "cluster.cfg", tmp_path / "curves.txt"
    limit = sys.get_int_max_str_digits()
    codes = []
    for _ in range(ROUNDS):
        text = mutate(rng, sample) if rng.random() < 0.7 else sample
        data = text.encode()
        if rng.random() < 0.05:
            data += b"\xff"
        cluster.write_bytes(data)
        curves.write_text(mutate(rng, SAMPLE_CURVES) if rng.random() < 0.5
                          else SAMPLE_CURVES)
        divisor = rng.choice(SAMPLE_DIVISORS)
        if rng.random() < 0.5:
            divisor = mutate(rng, divisor)
        epsilon = rng.choice(SAMPLE_EPSILONS)
        if rng.random() < 0.5:
            epsilon = mutate(rng, epsilon)
        surface = ["--surface", rng.choice(("p2", "f 2", f"f {digit_run(rng)}"))]
        for argv in (["analyze", str(cluster)],
                     ["dvalue", str(cluster), "--json"],
                     ["bounds", str(cluster), "--pullback", *surface],
                     ["bounds", str(cluster), f"--epsilon={epsilon}", "--json"],
                     ["nu", str(cluster), "--divisor", divisor,
                      "--curves", str(curves)]):
            code = exit_code(argv)
            capsys.readouterr()
            assert code in (0, 1, 2), argv
            codes.append(code)
    assert set(codes) == {0, 1, 2}
    assert sys.get_int_max_str_digits() == limit
