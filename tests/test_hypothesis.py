"""Property tests over shrinking strategies of valid clusters, proximity
entries that are mostly not clusters, divisor classes and CLI calls.

Runs are derandomized and keep no example database, so every run draws the
same examples; only the CLI property writes files, in a temporary directory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import pickle
import random
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from negbound import (
    Configuration,
    ConfigurationError,
    DivisorClass,
    DuplicateIdError,
    ParseError,
    analysis_report,
    build_configuration,
    cluster_bound_data,
    d_value,
    dot_export,
    empirical_nu,
    epsilon_family_bounds,
    hat_configuration,
    multiplicity_vector,
    nef_pullback_bounds,
    origin_d_values,
    pairing,
    parse_configuration,
    polarization_bounds,
    proximity_apply,
    proximity_solve,
    serialize_configuration,
    strict_transform_of_exceptional,
    subconfiguration,
    total_d,
)
from negbound.cli import main
from negbound.config import _split_components, proximity_matrix
from negbound.errors import quote
from negbound.surfaces import Hirzebruch, ProjectivePlane
from conftest import REPO_ROOT, dense_pairing, scan_d_value, walk_cut
from random_configs import random_configuration

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
        assert part.levels == tuple(chain_levels(part))
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


@st.composite
def proximity_entries(draw, max_points: int = 6):
    """1 to ``max_points`` entries, each a tuple or list of 0 to 3 ints in
    -1..n+1: mostly not a cluster, now and then one."""
    n = draw(st.integers(1, max_points))
    entry = st.lists(st.integers(-1, n + 1), max_size=3)
    return tuple(draw(st.one_of(entry, entry.map(tuple))) for _ in range(n))


@SETTINGS
@given(proximity_entries())
@example(([], [1], (2, 1)))
@example(((), (1,), [2], (3, 2)))
def test_the_constructor_agrees_with_the_validator(entries):
    """``Configuration`` raises what ``build_configuration`` raises on the
    numbered entries, or equals its cluster, and every accepted cluster
    runs its derivations without an exception."""
    try:
        expected = build_configuration(enumerate(entries, start=1))
    except ConfigurationError as err:
        expected = err
    try:
        c = Configuration(entries)
    except ConfigurationError as err:
        assert (type(err), str(err)) == (type(expected), str(expected))
        return
    assert c == expected and hash(c) == hash(expected)
    total_d(c)
    analysis_report(c)
    dot_export(c)
    cluster_bound_data(c)


@st.composite
def edited_specs(draw):
    """The specs of a random valid cluster of 1..30 points, with at most one
    id edit (a duplicate, a drop, an id out of 1..n or a str) and at most
    one point given drawn targets or another point's, in a drawn order."""
    n = draw(st.integers(1, 30))
    c = random_configuration(random.Random(draw(st.integers(0, 2 ** 32))), n)
    specs = [[pid, prox] for pid, prox in enumerate(c.proximities, start=1)]
    if draw(st.booleans()):
        specs[draw(st.integers(0, n - 1))][1] = draw(st.one_of(
            st.lists(st.integers(0, n + 1), max_size=2).map(tuple),
            st.sampled_from(c.proximities)))
    edit = draw(st.one_of(st.none(),
                          st.sampled_from(["duplicate", "drop", "renumber", "str"])))
    spec = specs[draw(st.integers(0, n - 1))]
    if edit == "duplicate":
        specs.append([spec[0], draw(st.sampled_from(specs))[1]])
    elif edit == "drop" and n > 1:
        specs.remove(spec)
    elif edit == "renumber":
        spec[0] = draw(st.sampled_from([0, n + 1, n + 7]))
    elif edit == "str":
        spec[0] = str(spec[0])
    return [tuple(spec) for spec in draw(st.permutations(specs))]


def model_verdict(specs):
    """``(error type, message, point id)`` or the cluster that the specs
    must give: a non-int first, then the smallest duplicate id, then the
    missing ids, then the verdict on the same specs in id order."""
    if not all(type(x) is int for pid, prox in specs for x in (pid, *prox)):
        return ConfigurationError, "point ids and proximity targets must be int", None
    ids = sorted(pid for pid, _ in specs)
    duplicates = [pid for pid, after in zip(ids, ids[1:]) if pid == after]
    if duplicates:
        return DuplicateIdError, f"duplicate point id {duplicates[0]}", duplicates[0]
    missing = sorted(set(range(1, len(specs) + 1)) - set(ids))
    if missing:
        return (ConfigurationError,
                f"ids must be exactly 1..{len(specs)} (missing {quote(missing)})", None)
    try:
        return build_configuration(sorted(specs))
    except ConfigurationError as err:
        return type(err), str(err), err.point_id


@settings(SETTINGS, max_examples=300)
@given(edited_specs())
def test_specs_and_files_in_any_order_match_the_fault_order_model(specs):
    expected = model_verdict(specs)
    try:
        verdict = build_configuration(specs)
    except ConfigurationError as err:
        verdict = type(err), str(err), err.point_id
    assert verdict == expected
    if any(type(pid) is not int for pid, _ in specs):
        return  # no file holds a str id
    text = "surface p2\n" + "".join(
        f"{pid} -> {' '.join(map(str, prox))}\n" if prox else f"{pid} origin\n"
        for pid, prox in specs)
    try:
        c = parse_configuration(text)
    except ParseError as err:
        # at the last line declaring the point the fault names, if any
        line = max((line for line, (pid, _) in enumerate(specs, start=2)
                    if pid == expected[2]), default=None)
        where = "<config>" if line is None else f"<config>:{line}"
        assert (type(err.__cause__), str(err), err.line) == \
            (expected[0], f"{where}: {expected[1]}", line)
    else:
        assert c == expected


@SETTINGS
@given(clusters())
def test_each_component_d_equals_the_scan(c):
    assert origin_d_values(c).keys() == set(c.origins)
    for origin, dv in origin_d_values(c).items():
        assert dv.d == scan_d_value(subconfiguration(c, origin))


@SETTINGS
@given(st.one_of(clusters(), satellite_chains(max_points=14)))
def test_d_value_is_the_solve_over_the_public_completion(c):
    """``d_value`` builds no completion, yet its d, certificates and hat
    size are those of the completion that ``hat_configuration`` builds,
    with its ``multiplicity_vector``; d is also the literal scan's."""
    for origin in c.origins:
        sub = subconfiguration(c, origin)
        dv = d_value(sub)
        hat = hat_configuration(sub)
        m = multiplicity_vector(hat)

        def solved_at(d):
            return tuple(proximity_solve(
                hat, [d * (i == 0) - mi for i, mi in enumerate(m)]))

        assert dv.d == scan_d_value(sub)
        assert dv.certificate == solved_at(dv.d)
        assert dv.previous == solved_at(dv.d - 1)
        assert dv.hat_size == len(hat)


@SETTINGS
@given(clusters(max_points=60))
def test_each_cut_equals_the_successor_walk(c):
    for point_id in range(1, len(c) + 1):
        assert subconfiguration(c, point_id).proximities == \
            walk_cut(c, point_id)[1]
    components = c._shared("components", _split_components)
    assert tuple(components) == c.origins
    covered = []
    for origin, proximities in components.items():
        ids, walked = walk_cut(c, origin)
        assert proximities == walked
        # mapped back to the old ids, every target is kept
        assert [tuple(ids[t - 1] for t in prox) for prox in proximities] == \
            [c.proximities[old - 1] for old in ids]
        covered += ids
    assert sorted(covered) == list(range(1, len(c) + 1))


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


@SETTINGS
@given(class_pairs())
def test_empirical_nu_equals_the_dense_formula(pair):
    x, y = pair
    curves = [x, y, x - y]
    for big_nef in pair:
        report = empirical_nu(curves, big_nef)
        assert [r.index for r in report.ratios] == [1, 2, 3]
        for curve, r in zip(curves, report.ratios):
            c_sq, dc = dense_pairing(curve, curve), dense_pairing(big_nef, curve)
            assert (r.self_intersection, r.pairing_with_divisor) == (c_sq, dc)
            assert r.qualifies == (c_sq < 0 and dc > 0)
            assert r.ratio == (c_sq / dc if r.qualifies else None)
            values = [r.self_intersection, r.pairing_with_divisor]
            if r.qualifies:
                values.append(r.ratio)
            assert all(type(v) is Fraction for v in values)
        qualifying = [r.ratio for r in report.ratios if r.qualifies]
        assert report.value == (min(qualifying) if qualifying else None)
        assert report.value is None or type(report.value) is Fraction


@st.composite
def curve_lists(draw):
    """A divisor and a curve list on the lattice of a drawn cluster: the
    strict exceptional transforms, drawn classes (coordinates over a
    denominator above 1 among them), the zero class, negated and repeated
    curves, so that D.C <= 0 and tied ratios occur."""
    c = draw(clusters(max_points=10))
    k, n = len(c.surface.generators), len(c)

    def drawn():
        return DivisorClass(c.surface, draw(st.lists(coefficients, min_size=k,
                                                     max_size=k)),
                            draw(st.lists(coefficients, min_size=n, max_size=n)))

    curves = [strict_transform_of_exceptional(c, q) for q in range(1, n + 1)]
    curves += [drawn() for _ in range(draw(st.integers(0, 4)))]
    curves.append(DivisorClass(c.surface, (0,) * k, (0,) * n))
    curves += [-curves[draw(st.integers(0, len(curves) - 1))],
               curves[draw(st.integers(0, len(curves) - 1))]]
    curves = draw(st.permutations(curves))
    big_nef = draw(st.one_of(st.sampled_from(curves), st.builds(drawn)))
    return curves, big_nef


@SETTINGS
@given(curve_lists())
def test_empirical_nu_on_curve_lists_equals_the_dense_oracle(drawn):
    curves, big_nef = drawn
    report = empirical_nu(curves, big_nef)
    expected = []
    for index, (curve, r) in enumerate(zip(curves, report.ratios, strict=True),
                                       start=1):
        c_sq, dc = dense_pairing(curve, curve), dense_pairing(big_nef, curve)
        qualifies = c_sq < 0 < dc
        ratio = c_sq / dc if qualifies else None
        assert (r.index, r.self_intersection, r.pairing_with_divisor,
                r.qualifies, r.ratio) == (index, c_sq, dc, qualifies, ratio)
        assert type(r.self_intersection) is Fraction
        assert type(r.pairing_with_divisor) is Fraction
        assert r.ratio is None or type(r.ratio) is Fraction
        if qualifies:
            expected.append(ratio)
    assert report.value == (min(expected) if expected else None)
    assert report.value is None or type(report.value) is Fraction


@SETTINGS
@given(clusters(max_points=30))
def test_strict_transforms_equal_their_twins_built_from_dense_vectors(c):
    k, n = len(c.surface.generators), len(c)
    for q in range(1, n + 1):
        strict = strict_transform_of_exceptional(c, q)
        twin = DivisorClass(c.surface, (0,) * k, [
            1 if p == q else -1 if q in c.proximities[p - 1] else 0
            for p in range(1, n + 1)])
        assert strict == twin and hash(strict) == hash(twin)
        assert repr(strict) == repr(twin) and str(strict) == str(twin)
        for field in dataclasses.fields(DivisorClass):
            mine, theirs = getattr(strict, field.name), getattr(twin, field.name)
            assert mine == theirs and type(mine) is type(theirs), field.name
        assert list(strict.exceptional_numerators.items()) == \
            list(twin.exceptional_numerators.items())
        copy = pickle.loads(pickle.dumps(strict))
        assert copy == twin and repr(copy) == repr(twin)
        assert hash(copy) == hash(twin)


# Positive epsilons: small fractions and fractions over 1000 digits.
EPSILONS = st.one_of(
    st.fractions(min_value=Fraction(1, 50), max_value=100, max_denominator=50)
    .filter(lambda eps: eps > 0),
    st.builds(Fraction, st.integers(10 ** 1000, 10 ** 1200),
              st.integers(10 ** 1000, 10 ** 1200)),
    st.integers(1, 5))


@SETTINGS
@given(clusters(max_points=20), EPSILONS)
@example(build_configuration([(1, []), (2, [1]), (3, [2, 1])]),
         Fraction(10 ** 1001 + 7, 10 ** 1003 + 9))
@example(build_configuration([(1, []), (2, [1])], Hirzebruch(3)),
         Fraction(10 ** 1003 + 1, 3))
def test_each_bound_is_the_minimum_of_its_terms(c, eps):
    data = cluster_bound_data(c)
    for convention, n in (("stated", data.n_stated), ("example", data.n_example)):
        reports = {
            "pullback": (nef_pullback_bounds(c, convention),
                         polarization_bounds(c, convention)),
            "epsilon": (epsilon_family_bounds(c, eps, convention),)}
        for kind, family in reports.items():
            terms = oracle.bound_terms(kind, str(c.surface), n, data.d,
                                       data.gamma, Fraction(eps))
            for report in family:
                values = [value for _, value in report.terms]
                assert values == terms
                assert report.bound == min(values)
                assert all(type(v) is Fraction for v in (*values, report.bound))
        assert reports["epsilon"][0].epsilon == eps
        assert type(reports["epsilon"][0].epsilon) is Fraction
        cases = reports["pullback"][1].case_bounds
        terms = reports["pullback"][1].terms
        assert [name for name, _ in cases] == ["non_invariant", "invariant"]
        assert cases[0][1] == terms[0][1]
        assert cases[1][1] == min(value for _, value in terms[1:])
        assert all(type(value) is Fraction for _, value in cases)
        assert reports["pullback"][0].case_bounds is None


# Snippets spliced into CLI inputs: syntax pieces, non-ASCII digits and
# spaces, and integers on both sides of the 4300-digit int/str cap.
SNIPPETS = st.one_of(
    st.sampled_from(("0", "-", "+", "/", "->", "#", "\n", " ", "L", "F", "M",
                     "E", "origin", "surface", "f", "p2", "\u0661", "\xa0",
                     "\r", "\r\n", "\u2028")),
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
