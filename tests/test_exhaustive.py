"""Every small cluster, from an independent model of blowups.

The model keeps the dual graph of the exceptional curves: which pairs of
curves meet.  A new center lies on no curve (a new origin), at a general
point of one curve E_p (a free point proximate to p), or where two curves
E_p and E_q with p < q meet (a satellite proximate to q, its parent, and
to p).  Blowing it up makes the new curve meet each curve it lay on, and
E_p and E_q no longer meet.  A point's depth is its parent's plus one.

``check_clusters(n)`` compares ``build_configuration`` with the model over
every spec list of up to ``n`` points in which each point lists at most two
distinct smaller targets, and ``parse_configuration`` on each list's file
and the ``Configuration`` constructor on its proximities with
``build_configuration``: the same clusters, and each rejection with the
validator's message and error type, the parser's on the line of the point it
names.  It also builds each spec list in reverse order, which must give the
same cluster or the same error type, message and ``point_id``, and parses
each file with its point lines reversed: the rule check takes the ids 1..n
as they are and places any others by id, so both paths are covered.
Every accepted cluster must come back from ``pickle`` equal; then each
origin's ``d`` is checked against ``scan_d_value``, ``P^t m`` on each
completion, both reports and the pullback and epsilon bounds against the
benchmark's oracle (``bench/oracle.py``, imported read-only).  Tier-1 runs
it up to 6 points; for 7 points (27007 clusters, about 2 minutes on one
core of a 2-vCPU VM), as CI does, run

    PYTHONPATH=src:tests python -c "from test_exhaustive import check_clusters; check_clusters(7)"
"""

from __future__ import annotations

import pickle
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product

from negbound import (
    Configuration,
    ConfigurationError,
    ParseError,
    analysis_report,
    build_configuration,
    d_value_report,
    epsilon_family_bounds,
    hat_configuration,
    multiplicity_vector,
    nef_pullback_bounds,
    origin_d_values,
    parse_configuration,
    serialize_configuration,
    subconfiguration,
)
from negbound.surfaces import Hirzebruch, ProjectivePlane
from conftest import REPO_ROOT, scan_d_value

sys.path.insert(0, str(REPO_ROOT / "bench"))
try:
    from oracle import bound_terms, end_indicator_holds, expected
finally:
    sys.path.remove(str(REPO_ROOT / "bench"))

# Labelled clusters of 1..7 points.
COUNTS = (1, 2, 7, 37, 266, 2431, 27007)
HALF = Fraction(1, 2)
SURFACES = (ProjectivePlane(), Hirzebruch(1))


def model_clusters(n: int) -> dict[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Proximities -> depths of every cluster of ``n`` points the blowups
    can make."""
    found = {}

    def grow(prox, depth, meets):
        new = len(prox) + 1
        if new > n:
            found[tuple(prox)] = tuple(depth)
            return
        grow(prox + [()], depth + [0], meets)
        for p in range(1, new):
            grow(prox + [(p,)], depth + [depth[p - 1] + 1], meets | {(p, new)})
        for p, q in meets:
            grow(prox + [(q, p)], depth + [depth[q - 1] + 1],
                 meets - {(p, q)} | {(p, new), (q, new)})

    grow([], [], frozenset())
    return found


def spec_lists(n: int):
    """Every list of ``n`` proximity tuples in which point k lists none,
    one or two distinct targets below k, in either order."""
    choices = [[()] + [(a,) for a in range(1, k)] +
               [(a, b) for a in range(1, k) for b in range(1, k) if a != b]
               for k in range(1, n + 1)]
    return product(*choices)


def check_clusters(max_points: int) -> list[int]:
    """Check the validator against the model for 1..``max_points`` points,
    and the parser's verdict on each spec list's file, in id order and with
    its point lines reversed, and the constructor's on its proximities
    against the validator's, and return the number of clusters of each
    size."""
    counts = []
    for n in range(1, max_points + 1):
        ids = range(1, n + 1)
        accepted = {}
        for prox in spec_lists(n):
            lines = [f"{pid} -> {' '.join(map(str, targets))}\n" if targets
                     else f"{pid} origin\n" for pid, targets in zip(ids, prox)]
            text = "surface p2\n" + "".join(lines)
            reversed_text = "surface p2\n" + "".join(reversed(lines))
            specs = [*zip(ids, prox)]
            try:
                c = build_configuration(specs)
            except ConfigurationError as err:  # any other exception fails
                check_parser_rejects(text, err, err.point_id + 1)
                check_parser_rejects(reversed_text, err, n - err.point_id + 2)
                check_rejects(Configuration, prox, err)
                check_rejects(build_configuration, specs[::-1], err)
                continue
            assert parse_configuration(text) == c, text
            assert parse_configuration(reversed_text) == c, reversed_text
            assert Configuration(prox) == c, prox
            assert build_configuration(specs[::-1]) == c, prox
            accepted[c.proximities] = c
        model = model_clusters(n)
        assert accepted.keys() == model.keys(), n
        for prox, c in accepted.items():
            assert parse_configuration(serialize_configuration(c)) == c
            assert pickle.loads(pickle.dumps(c)) == c
            assert tuple(pt.level for pt in c.points) == model[prox]
            check_against_oracles(c)
        counts.append(len(model))
    return counts


def check_parser_rejects(text: str, err: ConfigurationError, line: int) -> None:
    """The parser rejects the file with the validator's message and cause
    type, on the ``line`` of the point the validator names."""
    try:
        parse_configuration(text)
    except ParseError as parse_err:
        assert str(parse_err) == f"<config>:{line}: {err}", (text, parse_err)
        assert type(parse_err.__cause__) is type(err), text
    else:
        raise AssertionError(f"the parser accepts {text!r}, rejected by {err}")


def check_rejects(build, data, err: ConfigurationError) -> None:
    """``build(data)`` raises the validator's error type, message and
    ``point_id``."""
    try:
        build(data)
    except ConfigurationError as other:
        assert ((type(other), str(other), other.point_id)
                == (type(err), str(err), err.point_id)), data
    else:
        raise AssertionError(f"{build.__name__} accepts {data!r}, rejected by {err}")


def check_against_oracles(c) -> None:
    """``d``, ``P^t m``, the reports and the bounds of a cluster over the
    plane, each against a computation that shares no code with it."""
    oracle = expected(list(enumerate(c.proximities, start=1)), "p2")
    assert analysis_report(c) == oracle.analysis
    assert d_value_report(c) == oracle.dvalue
    for origin, dv in origin_d_values(c).items():
        sub = subconfiguration(c, origin)
        assert dv.d == scan_d_value(sub)
        hat = hat_configuration(sub)
        specs = list(enumerate(hat.proximities, start=1))
        assert specs == oracle.hats[origin]
        assert end_indicator_holds(specs, multiplicity_vector(hat))
    for surface in SURFACES:
        on = replace(c, surface=surface)
        for convention, n in (("stated", oracle.n_stated),
                              ("example", oracle.n_example)):
            data = (str(surface), n, oracle.d, oracle.gamma)
            for report, terms in (
                    (nef_pullback_bounds(on, convention),
                     bound_terms("pullback", *data)),
                    (epsilon_family_bounds(on, HALF, convention),
                     bound_terms("epsilon", *data, HALF))):
                # every term, as the minimum alone hides the ones never least
                assert [value for _, value in report.terms] == terms
                assert report.bound == min(terms)


def test_validator_accepts_exactly_the_model_clusters():
    assert check_clusters(6) == list(COUNTS[:6])


def test_model_counts_up_to_seven_points():
    assert [len(model_clusters(n)) for n in range(1, 8)] == list(COUNTS)
