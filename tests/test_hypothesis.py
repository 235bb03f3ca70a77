"""Property tests over a shrinking strategy of valid clusters.

Runs are derandomized and keep no example database, so every run draws the
same examples and writes no files.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from negbound import (
    build_configuration,
    hat_configuration,
    multiplicity_vector,
    parse_configuration,
    proximity_matrix,
    serialize_configuration,
    subconfiguration,
)
from negbound.surfaces import Hirzebruch, ProjectivePlane
from conftest import scan_d_value

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)

surfaces = st.one_of(st.just(ProjectivePlane()),
                     st.integers(0, 5).map(Hirzebruch))


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


@SETTINGS
@given(clusters())
def test_each_component_d_equals_the_scan(c):
    assert c.d_values.keys() == set(c.origins)
    for origin, dv in c.d_values.items():
        assert dv.d == scan_d_value(subconfiguration(c, origin))


@SETTINGS
@given(clusters())
def test_transposed_proximity_times_m_is_the_end_indicator(c):
    for origin in c.origins:
        hat = hat_configuration(subconfiguration(c, origin))
        entries = proximity_matrix(hat).entries
        m = multiplicity_vector(hat)
        ends = set(hat.ends)
        assert [sum(entries[i][j] * m[i] for i in range(len(hat)))
                for j in range(len(hat))] == \
            [int(j + 1 in ends) for j in range(len(hat))]
