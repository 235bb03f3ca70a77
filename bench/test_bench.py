"""Tests of the benchmark's own generators, oracle and span arithmetic.

Run with ``python -m pytest bench``.
"""

from __future__ import annotations

import random

import pytest

import gen
import oracle
import spans
from workloads import SAMPLE12_SPECS, nb


def satellite_pairs(specs):
    return [prox for _, prox in specs if len(prox) == 2]


def assert_admissible(specs):
    """negbound accepts it, and no satellite (parent, target) pair repeats."""
    c = nb.config.build_configuration(specs)
    assert [(pt.id, pt.proximities) for pt in c.points] == specs
    pairs = satellite_pairs(specs)
    assert len(pairs) == len(set(pairs))
    return c


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n,origins", [(1, 1), (9, 1), (40, 3), (200, 10)])
def test_random_cluster_admissible_and_deterministic(seed, n, origins):
    specs = gen.random_cluster(random.Random(seed), n, origins)
    assert specs == gen.random_cluster(random.Random(seed), n, origins)
    c = assert_admissible(specs)
    assert len(c.origins) == origins


def test_random_cluster_depends_on_seed():
    assert gen.random_cluster(random.Random(1), 60, 2) != \
        gen.random_cluster(random.Random(2), 60, 2)


@pytest.mark.parametrize("seed", range(5))
def test_satellite_chain_admissible_and_deterministic(seed):
    specs = gen.satellite_chain(random.Random(seed), 80, 0.65)
    assert specs == gen.satellite_chain(random.Random(seed), 80, 0.65)
    c = assert_admissible(specs)
    assert c.points[-1].level == 79
    assert len(satellite_pairs(specs)) == round(0.65 * 78)


def test_cluster_text_parses_back():
    specs = gen.random_cluster(random.Random(3), 30, 2)
    c = nb.fileformat.parse_configuration(gen.cluster_text(specs, "f 2"))
    assert str(c.surface) == "f 2"
    assert [(pt.id, pt.proximities) for pt in c.points] == specs


def test_oracle_sample12():
    exp = oracle.expected(SAMPLE12_SPECS, "p2")
    assert [(o["id"], o["d"]) for o in exp.dvalue["origins"]] == \
        [(1, 10), (6, 7), (10, 6)]
    assert exp.d == exp.dvalue["total_d"] == 23
    assert (exp.n_example, exp.gamma) == (16, 4)


@pytest.mark.parametrize("seed", range(3))
def test_oracle_matches_negbound(seed):
    specs = gen.random_cluster(random.Random(seed), 40, 3)
    c = nb.config.build_configuration(specs)
    exp = oracle.expected(specs, "p2")
    assert nb.sufficiency.d_value_report(c) == exp.dvalue
    assert nb.config.analysis_report(c) == exp.analysis
    for ext in exp.hats.values():
        assert oracle.end_indicator_holds(ext, oracle.multiplicities(ext))


def test_oracle_solve_inverts_apply():
    specs = gen.satellite_chain(random.Random(0), 30, 0.69)
    v = list(range(-5, 25))
    assert oracle.solve(specs, oracle.apply(specs, v)) == v


def span(name, start, end, parent, op=0):
    return spans.Span(name, start, end, parent, op, 0, 0)


def test_self_time_of_nested_spans():
    synthetic = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.5, 1),
        span("b", 3.0, 6.0, 0),    # overlaps a: the union counts once
        span("c", 9.5, 12.0, 0),   # runs past its parent: clipped at 10
    ]
    assert spans.self_times(synthetic) == pytest.approx([4.5, 1.5, 1.5, 3.0, 2.5])


def test_aggregate_filters_by_operation():
    synthetic = [span("x", 0.0, 2.0, -1, op=1), span("x", 5.0, 6.0, -1, op=2)]
    stats = spans.aggregate(synthetic, {2})
    assert stats["x"].calls == 1 and stats["x"].self_s == pytest.approx(1.0)


def test_tracer_records_calls_inside_the_package_and_restores():
    original = nb.sufficiency.subconfiguration
    c = nb.config.build_configuration(SAMPLE12_SPECS)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op, tracer.active = 7, True
        assert nb.sufficiency.total_d(c) == 23
    finally:
        tracer.uninstall()
    assert nb.sufficiency.subconfiguration is original
    names = [s.name for s in tracer.spans]
    assert names.count("sufficiency.origin_d_values") == 1
    assert names.count("config.subconfiguration") == 3
    assert names.count("sufficiency.d_value") == 3
    top = names.index("sufficiency.origin_d_values")
    assert all(s.parent == top for s in tracer.spans
               if s.name == "config.subconfiguration")
    assert {s.op for s in tracer.spans} == {7}
    assert spans.useful_ratio(tracer.spans, "sufficiency.d_value", {7}) == 1.0


def test_slope():
    assert spans.slope(4.0, 1.0, 200, 100) == pytest.approx(2.0)
    assert spans.slope(0.0, 1.0, 200, 100) == 0.0
