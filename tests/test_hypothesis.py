"""Property tests over shrinking strategies of valid clusters, divisor
classes and CLI calls.

Runs are derandomized and keep no example database, so every run draws the
same examples; only the CLI property writes files, in a temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import pickle
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from negbound import (
    DivisorClass,
    build_configuration,
    hat_configuration,
    multiplicity_vector,
    origin_d_values,
    pairing,
    parse_configuration,
    proximity_apply,
    proximity_solve,
    serialize_configuration,
    subconfiguration,
)
from negbound.cli import main
from negbound.config import proximity_matrix
from negbound.errors import quote
from negbound.surfaces import Hirzebruch, ProjectivePlane
from conftest import REPO_ROOT, dense_pairing, scan_d_value

sys.path.insert(0, str(REPO_ROOT / "bench"))
try:
    import oracle  # the benchmark's reference model, imported read-only
finally:
    sys.path.remove(str(REPO_ROOT / "bench"))

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)

surfaces = st.one_of(st.just(ProjectivePlane()),
                     st.integers(0, 5).map(Hirzebruch))

# zero, negative and non-integral coefficients, zero most often
coefficients = st.one_of(
    st.just(Fraction(0)), st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-10, max_value=10, max_denominator=9))


@st.composite
def clusters(draw, max_points: int = 14):
    """A valid cluster, attached one point at a time: parent 0 starts a new
    origin, and a second target is drawn from the parent's own proximities
    whose pair no satellite uses yet.  Shrinks towards fewer points, more
    origins and free points."""
    specs: list[tuple[int, tuple[int, ...]]] = [(1, ())]
    used: set[tuple[int, int]] = set()
    for pid in range(2, draw(st.integers(1, max_points)) + 1):
        parent = draw(st.integers(0, pid - 1))
        prox: tuple[int, ...] = ()
        if parent:
            seconds = [t for t in specs[parent - 1][1]
                       if (parent, t) not in used]
            second = draw(st.sampled_from([None, *seconds]))
            prox = (parent,) if second is None else (parent, second)
            if second is not None:
                used.add(prox)
        specs.append((pid, prox))
    return build_configuration(specs, draw(surfaces))


@SETTINGS
@given(clusters())
def test_serialize_then_parse_round_trips(c):
    assert parse_configuration(serialize_configuration(c)) == c


def chain_levels(c) -> list[int]:
    """Each point's level, counted by walking its parents up to an origin."""
    levels = []
    for pid in range(1, len(c) + 1):
        level = 0
        while c.proximities[pid - 1]:
            pid = c.proximities[pid - 1][0]
            level += 1
        levels.append(level)
    return levels


@st.composite
def satellite_chains(draw, max_points: int = 40):
    """A single-origin chain: each point's parent is the point before it,
    and at drawn positions it is a satellite whose second target is drawn
    from its parent's own proximities (a parent has one child, so no pair
    repeats).  Runs of satellites grow d exponentially: the all-satellite
    chain of 40 points has a 9-digit d.  Shrinks towards fewer points and
    free points."""
    prox: list[tuple[int, ...]] = [()]
    for pid in range(2, draw(st.integers(1, max_points)) + 1):
        second = draw(st.sampled_from([None, *prox[-1]]))
        prox.append((pid - 1,) if second is None else (pid - 1, second))
    return build_configuration(enumerate(prox, start=1), draw(surfaces))


FIBONACCI_CHAIN = build_configuration(
    [(1, ()), (2, (1,))] + [(k, (k - 1, k - 2)) for k in range(3, 41)])
SCAN_LIMIT = 1000  # the scan tries every d up to the answer


@SETTINGS
@given(satellite_chains())
@example(FIBONACCI_CHAIN)
def test_satellite_chain_d_against_the_oracle_and_the_definition(c):
    """``d`` and its certificates against ``bench/oracle.py``, and against
    the definition: every entry of P^-1(d e_1 - m) over the completion is
    positive at d and not at d - 1; the scan too where d is small."""
    specs = list(enumerate(c.proximities, start=1))
    (dv,) = origin_d_values(c).values()
    expected = oracle.d_value(specs)
    assert (dv.d, dv.hat_size, list(dv.certificate)) == \
        (expected.d, expected.hat_size, expected.certificate)
    hat = oracle.hat(specs)
    m = oracle.multiplicities(hat)

    def solved_at(d):
        return oracle.solve(hat, [d * (i == 0) - mi for i, mi in enumerate(m)])

    assert all(v > 0 for v in solved_at(dv.d))
    assert not all(v > 0 for v in solved_at(dv.d - 1))
    assert list(dv.previous) == solved_at(dv.d - 1)
    if dv.d <= SCAN_LIMIT:
        assert dv.d == scan_d_value(c)
    assert parse_configuration(serialize_configuration(c)) == c


@SETTINGS
@given(clusters())
def test_point_views_and_both_routes_agree(c):
    """The view of a cluster, of each subcluster and of each completion
    carries the walked levels; a cluster built from specs and one parsed
    from text are equal, hash equal and pickle to equals."""
    parts = [c, *(subconfiguration(c, q) for q in range(1, len(c) + 1)),
             *(hat_configuration(subconfiguration(c, o)) for o in c.origins)]
    for part in parts:
        assert [(pt.id, pt.proximities, pt.level) for pt in part.points] == \
            list(zip(range(1, len(part) + 1), part.proximities,
                     chain_levels(part)))
    built = build_configuration(
        [(pid, list(prox)) for pid, prox in enumerate(c.proximities, 1)],
        c.surface)
    parsed = parse_configuration(serialize_configuration(c))
    assert built == parsed and hash(built) == hash(parsed)
    assert built.points == parsed.points
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(built, protocol))
        assert copy == parsed and hash(copy) == hash(parsed)
        assert copy.points == parsed.points


@SETTINGS
@given(clusters())
def test_each_component_d_equals_the_scan(c):
    assert origin_d_values(c).keys() == set(c.origins)
    for origin, dv in origin_d_values(c).items():
        assert dv.d == scan_d_value(subconfiguration(c, origin))


@SETTINGS
@given(clusters())
def test_transposed_proximity_times_m_is_the_end_indicator(c):
    for origin in c.origins:
        hat = hat_configuration(subconfiguration(c, origin))
        entries, _ = proximity_matrix(hat)
        m = multiplicity_vector(hat)
        ends = set(hat.ends)
        assert [sum(entries[i][j] * m[i] for i in range(len(hat)))
                for j in range(len(hat))] == \
            [int(j + 1 in ends) for j in range(len(hat))]


@SETTINGS
@given(st.data())
def test_proximity_apply_undoes_the_solve(data):
    c = data.draw(clusters())
    for entries in (st.integers(-10 ** 6, 10 ** 6), coefficients):
        w = data.draw(st.lists(entries, min_size=len(c), max_size=len(c)))
        v = proximity_solve(c, w)
        assert proximity_apply(c, v) == w
        assert [type(x) for x in v] == [type(x) for x in w]


@SETTINGS
@given(clusters())
def test_dense_view_is_a_matrix_and_its_inverse(c):
    n, (p, inverse) = len(c), proximity_matrix(c)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert [[sum(p[i][k] * inverse[k][j] for k in range(n))
             for j in range(n)] for i in range(n)] == identity
    assert [list(column) for column in zip(*inverse)] == \
        [proximity_solve(c, row) for row in identity]


# Coordinate families for the pairing: small rationals, integers only, and
# rationals over large pairwise coprime denominators, whose common
# denominator is their product.
COORDINATES = {
    "small": coefficients,
    "integer": st.integers(-10 ** 12, 10 ** 12),
    "coprime": st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                         st.sampled_from((65537, 998244353, 10 ** 9 + 7,
                                          10 ** 9 + 9, 2 ** 61 - 1))),
}
REBUILDS = ("none", "add", "subtract", "scale", "from_multiplicities")


@st.composite
def class_pairs(draw, max_n: int = 10):
    """Two classes on one lattice, with coordinates from one family of
    ``COORDINATES``; with ``disjoint`` drawn, the second is zero wherever
    the first has a nonzero exceptional coefficient.  The first class is
    then kept or rebuilt by ``+``, ``-``, a scalar ``*`` or
    ``from_multiplicities``."""
    surface = draw(surfaces)
    n = draw(st.integers(0, max_n))
    entries = COORDINATES[draw(st.sampled_from(sorted(COORDINATES)))]
    disjoint = draw(st.booleans())

    def coordinates(k):
        return draw(st.lists(entries, min_size=k, max_size=k))

    k = len(surface.generators)
    x = DivisorClass(surface, tuple(coordinates(k)), tuple(coordinates(n)))
    y_exc = coordinates(n)
    if disjoint:
        y_exc = [0 if p else q for p, q in zip(x.exceptional, y_exc)]
    y = DivisorClass(surface, tuple(coordinates(k)), tuple(y_exc))
    rebuild = draw(st.sampled_from(REBUILDS))
    if rebuild == "add":
        x = x + y
    elif rebuild == "subtract":
        x = x - y
    elif rebuild == "scale":
        x = draw(entries) * x
    elif rebuild == "from_multiplicities":
        x = DivisorClass.from_multiplicities(surface, coordinates(k),
                                             coordinates(n))
    return x, y


@SETTINGS
@given(class_pairs())
def test_pairing_equals_the_dense_formula(pair):
    x, y = pair
    value = pairing(x, y)
    assert value == dense_pairing(x, y) == pairing(y, x)
    assert type(value) is Fraction and type(pairing(y, x)) is Fraction
    for cls in pair:
        square = pairing(cls, cls)
        assert square == dense_pairing(cls, cls)
        assert type(square) is Fraction


# Snippets spliced into CLI inputs: syntax pieces, non-ASCII digits and
# spaces, and integers on both sides of the 4300-digit int/str cap.
SNIPPETS = st.one_of(
    st.sampled_from(("0", "-", "+", "/", "->", "#", "\n", " ", "L", "F", "M",
                     "E", "origin", "surface", "f", "p2", "\u0661", "\xa0")),
    st.text(max_size=3),
    st.sampled_from((1, 4299, 4301)).map(lambda k: "9" * k))


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` with one to three short slices replaced, each starting
    anywhere in the text."""
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.sampled_from(range(len(text) + 1)))
        end = min(len(text), start + draw(st.integers(0, 4)))
        text = text[:start] + draw(SNIPPETS) + text[end:]
    return text


@st.composite
def cli_calls(draw):
    """A cluster file, a curve file and an argv for one of the five
    subcommands, naming the files ``CLUSTER`` and ``CURVES``.  At most one
    input is mutated, so each error path is reached past valid others."""
    target = draw(st.sampled_from((None, "cluster", "curves", "divisor",
                                   "epsilon", "surface")))

    def maybe_mutated(name: str, text: str) -> str:
        return draw(mutated(text)) if name == target else text

    c = draw(clusters(max_points=8))
    plane = c.surface == ProjectivePlane()
    cluster = maybe_mutated("cluster", serialize_configuration(c))
    curves = maybe_mutated("curves", "L - E1\nE1\n" if plane
                           else "F - E1\nE1\n")
    command = draw(st.sampled_from(("analyze", "dvalue", "bounds", "nu",
                                    "dot")))
    argv = [command, "CLUSTER"]
    if command != "dot" and draw(st.booleans()):
        argv.append("--json")
    if draw(st.booleans()):
        own = "p2" if plane else f"f {c.surface.delta}"
        surface = draw(st.sampled_from((own, "p2", "f 0", "f 3")))
        argv += ["--surface", maybe_mutated("surface", surface)]
    if command == "bounds":
        mode = draw(st.sampled_from(("pullback", "epsilon", "both", "neither")))
        if mode in ("pullback", "both"):
            argv.append("--pullback")
        if mode in ("epsilon", "both"):
            epsilon = draw(st.sampled_from(("1/2", "3", "0", "-1/2")))
            argv.append("--epsilon=" + maybe_mutated("epsilon", epsilon))
    if command == "nu":
        divisor = "3L - E1" if plane else "2F + M - E1"
        argv += ["--divisor", maybe_mutated("divisor", divisor),
                 "--curves", "CURVES"]
    return cluster, curves, argv


@SETTINGS
@given(cli_calls())
@example(("surface p2\n1 origin\n2 -> 1\n", "",
          ["bounds", "CLUSTER", "--epsilon=-1/2"]))
@example(("surface f 1\n1 origin\n", "E1\n",
          ["nu", "CLUSTER", "--divisor", "3L", "--curves", "CURVES"]))
def test_cli_main_exits_only_0_1_or_2(call):
    """Usage errors arrive from argparse as ``SystemExit(2)``; any other
    exception fails the property."""
    cluster, curves, argv = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"CLUSTER": Path(tmp, "cluster.cfg"),
                 "CURVES": Path(tmp, "curves.txt")}
        paths["CLUSTER"].write_text(cluster, encoding="utf-8")
        paths["CURVES"].write_text(curves, encoding="utf-8")
        argv = [str(paths.get(arg, arg)) for arg in argv]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), argv


@SETTINGS
@given(st.integers(0, 300), st.integers(-1, 1), st.booleans(),
       st.integers(1, 10 ** 45))
def test_quote_names_the_exact_digit_count(k, offset, negative, den):
    """Around each power of ten, where a digit count from the bit length
    is easiest to get wrong."""
    value = max(10 ** k + offset, 0) * (-1 if negative else 1)

    def expected(x):
        digits = len(str(abs(x)))
        return str(x) if digits <= 40 else \
            f"{'-' if x < 0 else ''}<{digits} digits>"

    assert quote(value) == expected(value)
    ratio = Fraction(value, den)
    assert quote(ratio) == (expected(ratio.numerator)
                            if ratio.denominator == 1 else
                            f"{expected(ratio.numerator)}/"
                            f"{expected(ratio.denominator)}")


def _quoted_before(value):
    """The text of the three helpers ``quote`` replaced: ``repr`` of text
    cut to 40 characters, an int or Fraction through ``str`` up to 40
    digits a part, and the ``repr`` of an id list's first five ids."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else \
            f"{value[:40]!r}... ({len(value)} characters)"
    if isinstance(value, (list, tuple)):
        more = f" and {len(value) - 5} more" if len(value) > 5 else ""
        return f"{value[:5]!r}{more}"

    def part(x):  # Decimal counts the digits past the int/str cap
        return str(x) if abs(x) < 10 ** 40 else \
            f"{'-' if x < 0 else ''}<{Decimal(abs(x)).adjusted() + 1} digits>"
    if value.denominator == 1:
        return part(value.numerator)
    return f"{part(value.numerator)}/{part(value.denominator)}"


# ints up to 5000 digits, past the interpreter's 4300-digit cap
big_ints = st.one_of(st.integers(), st.builds(
    lambda k, offset, sign: sign * (10 ** k + offset),
    st.integers(0, 5000), st.integers(-1, 1), st.sampled_from((1, -1))))
id_lists = st.lists(big_ints, max_size=12)
quoted_values = st.one_of(
    st.text(max_size=300), big_ints, st.booleans(),
    st.builds(Fraction, big_ints, big_ints.filter(bool)),
    id_lists, id_lists.map(tuple), st.none(), st.floats(),
    st.builds(object), st.builds(ProjectivePlane))


@SETTINGS
@given(quoted_values)
@example(10 ** 5000)
@example(Fraction(-10 ** 4000, 10 ** 300 + 1))
@example([3, 10 ** 40, -10 ** 5000, 7, 8, 9])
@example((1,))
@example(True)
@example("x" * 100000)
def test_quote_shows_every_value_briefly(value):
    """Never raises, never meets the int/str cap, stays short, and keeps
    the old helpers' text on the values they took: every value that is not
    an id list with an id past 40 digits."""
    text = quote(value)
    assert isinstance(text, str) and len(text) < 300
    if isinstance(value, (str, int, Fraction)):
        assert text == _quoted_before(value)
    elif isinstance(value, (list, tuple)):
        if all(abs(x) < 10 ** 40 for x in value[:5]):
            assert text == _quoted_before(value)
    else:
        assert text == type(value).__name__
