from __future__ import annotations

import dataclasses
import pickle
from decimal import Decimal

import pytest

from negbound import (
    Configuration,
    ConfigurationError,
    DuplicateIdError,
    ForwardReferenceError,
    InvalidSatelliteError,
    NormalizationError,
    TooManyProximitiesError,
    UnknownPointError,
    analysis_report,
    build_configuration,
    dot_export,
    exceptional_self_intersections,
    multiplicity_vector,
    proximity_apply,
    proximity_solve,
    subconfiguration,
)
from negbound.config import proximity_matrix
from negbound.surfaces import Hirzebruch, ProjectivePlane


def specs_of(c):
    return [(pt.id, list(pt.proximities)) for pt in c.points]


class TestBuildConfiguration:
    def test_singleton(self):
        c = build_configuration([(1, [])])
        assert len(c) == 1
        assert c.origins == (1,)
        assert c.ends == (1,)
        assert analysis_report(c)["points"][0]["kind"] == "origin"
        assert c.points[0].level == 0

    def test_satellite_chain(self):
        c = build_configuration([(1, []), (2, [1]), (3, [2, 1])])
        assert analysis_report(c)["points"][2]["kind"] == "satellite"
        assert c.points[2].proximities[0] == 2
        assert c.points[2].level == 2

    @pytest.mark.parametrize("specs", [
        [(1, []), (2, [1.0])], [(True, [])], [(1, []), (2, ["1"])],
        [(1.0, [])], [(1, []), (2, 1)], [(1, None)], [1], [(1,)],
        [(1, [], 3)]],
        ids=["float-target", "bool-id", "str-target", "float-id",
             "int-proximities", "none-proximities", "bare-id", "one-field",
             "three-fields"])
    def test_ids_and_targets_must_be_int(self, specs):
        with pytest.raises(ConfigurationError):
            build_configuration(specs)

    @pytest.mark.parametrize("specs", [
        [(1, []), (2, [10 ** 5000])], [(1, []), (2, [10 ** 4000])],
        [(1, []), (10 ** 5000, []), (10 ** 5000, [])],
        [(1, [])] + [(i, []) for i in range(10 ** 4, 2 * 10 ** 4)]],
        ids=["over-cap-target", "long-target", "long-duplicate-id",
             "many-missing-ids"])
    def test_long_numbers_in_messages_are_cut(self, specs):
        with pytest.raises(ConfigurationError) as exc:
            build_configuration(specs)
        assert len(str(exc.value)) < 300

    def test_long_unknown_point_id_is_cut(self):
        c = build_configuration([(1, [])])
        with pytest.raises(UnknownPointError) as exc:
            subconfiguration(c, 10 ** 5000)
        assert str(exc.value) == "no point with id <5001 digits>"

    def test_satellite_second_target_among_parent_proximities(self):
        base = [(1, []), (2, [1]), (3, [2, 1])]
        # p3 is proximate to both 2 and 1, so either is a valid second target
        build_configuration(base + [(4, [3, 1])])
        build_configuration(base + [(4, [3, 2])])

    def test_parent_must_be_listed_first(self):
        with pytest.raises(NormalizationError):
            build_configuration([(1, []), (2, [1]), (3, [2, 1]), (4, [2, 3])])

    def test_invalid_satellite(self):
        with pytest.raises(InvalidSatelliteError):
            build_configuration([(1, []), (2, [1]), (3, [2]), (4, [3, 1])])

    def test_two_satellites_at_the_same_pair(self):
        # E_2 meets the strict transform of E_1 in one point, so 3 and 4
        # would have to be the same point.
        with pytest.raises(InvalidSatelliteError) as exc:
            build_configuration([(1, []), (2, [1]), (3, [2, 1]), (4, [2, 1])])
        assert exc.value.point_id == 4

    def test_duplicate_id(self):
        with pytest.raises(DuplicateIdError):
            build_configuration([(1, []), (1, [])])

    def test_forward_reference(self):
        with pytest.raises(ForwardReferenceError):
            build_configuration([(1, []), (2, [2])])
        with pytest.raises(ForwardReferenceError):
            build_configuration([(1, []), (2, [3])])
        with pytest.raises(ForwardReferenceError):
            build_configuration([(1, []), (2, [0])])

    def test_too_many_proximities(self):
        with pytest.raises(TooManyProximitiesError):
            build_configuration([(1, []), (2, [1]), (3, [2, 1]),
                                 (4, [3, 2, 1])])

    def test_duplicate_target(self):
        with pytest.raises(NormalizationError):
            build_configuration([(1, []), (2, [1]), (3, [2, 2])])

    def test_ids_must_cover_range(self):
        with pytest.raises(ConfigurationError):
            build_configuration([(1, []), (3, [1])])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            build_configuration([])

    def test_input_order_is_irrelevant(self):
        c = build_configuration([(2, [1]), (1, []), (3, [2, 1])])
        assert [pt.id for pt in c.points] == [1, 2, 3]

    # Point 2's forward reference comes first in id order, yet a fault of
    # the ids anywhere is named before it: a type, then a duplicate (one out
    # of 1..n too, not taken for a missing id), then a missing id; ids that
    # do not even compare with an int are a type fault, and a NaN Decimal
    # raises on any comparison.
    @pytest.mark.parametrize("specs, message", [
        ([(1, []), (2, [5]), (3, ["x"])],
         "point ids and proximity targets must be int"),
        ([(1, []), (2, [5]), ("3", [])],
         "point ids and proximity targets must be int"),
        ([(1, []), (2, [5]), (Decimal("NaN"), [])],
         "point ids and proximity targets must be int"),
        ([(1, []), (2, [5]), (4, [1]), (4, [1])], "duplicate point id 4"),
        ([(1, []), (5, []), (5, [])], "duplicate point id 5"),
        ([(1, []), (2, [5]), (4, [1])], "ids must be exactly 1..3 (missing [3])"),
        ([(1, []), (2, [5]), (3, [1])],
         "point 2 is proximate to 5, which is not a strictly smaller id"),
    ], ids=["type", "uncomparable-id", "nan-id", "duplicate",
        "out-of-range-duplicate", "missing", "structure"])
    def test_id_faults_are_named_before_a_points_structure(self, specs, message):
        with pytest.raises(ConfigurationError) as exc:
            build_configuration(specs)
        assert str(exc.value) == message


class _ForgedPickle:
    """Pickles as a Configuration of proximities no validator has seen."""

    def __init__(self, proximities):
        self.proximities = proximities

    def __reduce__(self):
        return Configuration, (self.proximities, ProjectivePlane())


class TestConstructorValidates:
    """Every Configuration is a valid cluster: the constructor runs the
    validator on proximities that no valid cluster handed on."""

    @pytest.mark.parametrize("proximities,error,message", [
        ((), ConfigurationError, "a configuration must contain at least one point"),
        (((), (5,)), ForwardReferenceError,
         "point 2 is proximate to 5, which is not a strictly smaller id"),
        (((), (0,)), ForwardReferenceError,
         "point 2 is proximate to 0, which is not a strictly smaller id"),
        (((), (1,), (2, 2)), NormalizationError,
         "point 3 lists the same proximity 2 twice"),
        (None, ConfigurationError,
         "each point spec must be an (id, proximity ids) pair"),
    ], ids=["empty", "forward", "zero-target", "same-target-twice", "none"])
    def test_a_non_cluster_is_a_typed_error(self, proximities, error, message):
        for build in (lambda: Configuration(proximities),
                      lambda: dataclasses.replace(
                          build_configuration([(1, [])]), proximities=proximities),
                      lambda: pickle.loads(pickle.dumps(_ForgedPickle(proximities)))):
            with pytest.raises(ConfigurationError) as info:
                build()
            assert (type(info.value), str(info.value)) == (error, message)

    def test_lists_become_the_validated_tuples(self):
        c = Configuration([[], [1], (2, 1)], Hirzebruch(1))
        built = build_configuration([(1, []), (2, [1]), (3, [2, 1])], Hirzebruch(1))
        assert c.proximities == ((), (1,), (2, 1))
        assert c == built and hash(c) == hash(built)


class TestProximityMatrix:
    def test_singleton(self):
        entries, inverse = proximity_matrix(build_configuration([(1, [])]))
        assert entries == ((1,),)
        assert inverse == ((1,),)

    def test_chain(self):
        entries, inverse = proximity_matrix(
            build_configuration([(1, []), (2, [1])]))
        assert entries == ((1, 0), (-1, 1))
        assert inverse == ((1, 0), (1, 1))

    def test_satellite(self):
        entries, inverse = proximity_matrix(
            build_configuration([(1, []), (2, [1]), (3, [2, 1])]))
        assert entries == ((1, 0, 0), (-1, 1, 0), (-1, -1, 1))
        assert inverse == ((1, 0, 0), (1, 1, 0), (2, 1, 1))

    @pytest.mark.parametrize("op", [proximity_solve, proximity_apply],
                             ids=lambda op: op.__name__)
    @pytest.mark.parametrize("vector", [[1], [1, 2, 3]],
                             ids=["short", "long"])
    def test_wrong_length_vector(self, op, vector):
        c = build_configuration([(1, []), (2, [1])])
        with pytest.raises(ValueError, match="length 2"):
            op(c, vector)


class TestMultiplicityVector:
    def test_singleton(self):
        assert multiplicity_vector(build_configuration([(1, [])])) == (1,)

    def test_completed_first_component(self):
        # six points: chain 1-2, free 3 and 5 below 2, satellites 4 and 6
        c = build_configuration([(1, []), (2, [1]), (3, [2]), (4, [3, 2]),
                                 (5, [2]), (6, [5, 2])])
        assert multiplicity_vector(c) == (4, 4, 1, 1, 1, 1)

    def test_completed_second_component(self):
        c = build_configuration([(1, []), (2, [1]), (3, [2, 1]), (4, [3]),
                                 (5, [4, 3])])
        assert multiplicity_vector(c) == (4, 2, 2, 1, 1)


class TestClassify:
    """The per-point part of ``analysis_report``: level, kind, origins, ends."""

    def test_singleton(self):
        report = analysis_report(build_configuration([(1, [])]))
        (item,) = report["points"]
        assert report["origins"] == [1] and report["ends"] == [1]
        assert item["level"] == 0
        assert item["kind"] == "origin"

    def test_sample12_origins(self, sample12):
        report = analysis_report(sample12)
        assert report["origins"] == [1, 6, 10]
        assert [item["id"] for item in report["points"]
                if item["kind"] == "origin"] == [1, 6, 10]

    def test_sample12_kinds_and_ends(self, sample12):
        report = analysis_report(sample12)
        items = {item["id"]: item for item in report["points"]}
        assert [pid for pid, item in items.items()
                if item["kind"] == "satellite"] == [5, 8]
        assert all(items[pid]["kind"] == "free"
                   for pid in (2, 3, 4, 7, 9, 11, 12))
        assert report["ends"] == [3, 5, 9, 11, 12]
        assert [items[pid]["level"] for pid in range(1, 13)] == \
            [0, 1, 2, 2, 3, 0, 1, 2, 3, 0, 1, 1]


class TestSubconfiguration:
    def test_below_first_origin(self, sample12):
        sub = subconfiguration(sample12, 1)
        assert specs_of(sub) == [(1, []), (2, [1]), (3, [2]), (4, [2]),
                                 (5, [4, 2])]

    def test_below_last_origin(self, sample12):
        sub = subconfiguration(sample12, 10)
        assert specs_of(sub) == [(1, []), (2, [1]), (3, [1])]

    def test_below_interior_point_drops_outside_proximities(self, sample12):
        sub = subconfiguration(sample12, 2)
        # 2 becomes an origin; the satellite 5 keeps both targets
        assert specs_of(sub) == [(1, []), (2, [1]), (3, [1]), (4, [3, 1])]

    def test_unknown_point(self, sample12):
        with pytest.raises(UnknownPointError):
            subconfiguration(sample12, 99)

    def test_surface_is_preserved(self):
        c = build_configuration([(1, []), (2, [1])], Hirzebruch(3))
        assert subconfiguration(c, 1).surface == Hirzebruch(3)


class TestExceptionalSelfIntersections:
    def test_singleton(self):
        esi = exceptional_self_intersections(build_configuration([(1, [])]))
        assert esi.values == {1: -1}
        assert esi.gamma == 1

    def test_sample12(self, sample12):
        esi = exceptional_self_intersections(sample12)
        assert esi.values[2] == -4  # 3, 4 and 5 are proximate to 2
        assert esi.values[10] == -3
        assert esi.gamma == 4


class TestDotExport:
    def test_singleton(self):
        dot = dot_export(build_configuration([(1, [])]))
        assert dot.startswith("digraph")
        assert '"p1"' in dot
        assert "->" not in dot

    def test_chain(self):
        dot = dot_export(build_configuration([(1, []), (2, [1])]))
        edges = [line for line in dot.splitlines() if "->" in line]
        assert len(edges) == 1
        assert "dashed" not in edges[0]

    def test_sample12(self, sample12):
        dot = dot_export(sample12)
        lines = dot.splitlines()
        edges = [line for line in lines if "->" in line]
        dashed = [line for line in edges if "dashed" in line]
        solid = [line for line in edges if "dashed" not in line]
        assert len(solid) == 9 and len(dashed) == 2
        assert any('"p5" -> "p2"' in line for line in dashed)
        assert any('"p8" -> "p6"' in line for line in dashed)
        assert sum(line.count('"p') for line in lines if "rank=same" in line) == 12


class TestAnalysisReport:
    def test_fields(self, sample12):
        report = analysis_report(sample12)
        assert report["surface"] == "p2"
        assert report["gamma"] == 4
        assert report["origins"] == [1, 6, 10]
        assert report["ends"] == [3, 5, 9, 11, 12]
        entry = report["points"][4]
        assert entry == {"id": 5, "level": 3, "kind": "satellite",
                         "proximities": [4, 2], "e_sq": -1}
