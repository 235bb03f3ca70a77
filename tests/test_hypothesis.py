"""Property tests over a shrinking strategy of valid clusters.

Runs are derandomized and keep no example database, so every run draws the
same examples and writes no files.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from negbound import (
    DivisorClass,
    build_configuration,
    hat_configuration,
    multiplicity_vector,
    pairing,
    parse_configuration,
    proximity_apply,
    proximity_matrix,
    proximity_solve,
    serialize_configuration,
    subconfiguration,
)
from negbound.errors import quote_number
from negbound.surfaces import Hirzebruch, ProjectivePlane
from conftest import dense_pairing, scan_d_value

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
    n, view = len(c), proximity_matrix(c)
    p, inverse = view.entries, view.inverse
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert [[sum(p[i][k] * inverse[k][j] for k in range(n))
             for j in range(n)] for i in range(n)] == identity
    assert [list(column) for column in zip(*inverse)] == \
        [proximity_solve(c, row) for row in identity]


@st.composite
def class_pairs(draw, max_n: int = 10):
    """Two classes on one lattice; with ``disjoint`` drawn, the second is
    zero wherever the first has a nonzero exceptional coefficient."""
    surface = draw(surfaces)
    n = draw(st.integers(0, max_n))
    disjoint = draw(st.booleans())

    def coordinates(k):
        return draw(st.lists(coefficients, min_size=k, max_size=k))

    k = len(surface.generators)
    x = DivisorClass(surface, tuple(coordinates(k)), tuple(coordinates(n)))
    y_exc = coordinates(n)
    if disjoint:
        y_exc = [0 if p else q for p, q in zip(x.exceptional, y_exc)]
    return x, DivisorClass(surface, tuple(coordinates(k)), tuple(y_exc))


@SETTINGS
@given(class_pairs())
def test_pairing_equals_the_dense_formula(pair):
    x, y = pair
    value = pairing(x, y)
    assert value == dense_pairing(x, y) == pairing(y, x)
    assert type(value) is Fraction and type(pairing(y, x)) is Fraction


@SETTINGS
@given(st.integers(0, 300), st.integers(-1, 1), st.booleans(),
       st.integers(1, 10 ** 45))
def test_quote_number_names_the_exact_digit_count(k, offset, negative, den):
    """Around each power of ten, where a digit count from the bit length
    is easiest to get wrong."""
    value = max(10 ** k + offset, 0) * (-1 if negative else 1)

    def expected(x):
        digits = len(str(abs(x)))
        return str(x) if digits <= 40 else \
            f"{'-' if x < 0 else ''}<{digits} digits>"

    assert quote_number(value) == expected(value)
    ratio = Fraction(value, den)
    assert quote_number(ratio) == (expected(ratio.numerator)
                                   if ratio.denominator == 1 else
                                   f"{expected(ratio.numerator)}/"
                                   f"{expected(ratio.denominator)}")
