from __future__ import annotations

import os
import subprocess
import sys

import pytest

from negbound import (
    Configuration,
    DValue,
    ForwardReferenceError,
    InvariantError,
    MultipleOriginsError,
    build_configuration,
    d_value,
    d_value_report,
    hat_configuration,
    origin_d_values,
    subconfiguration,
    total_d,
)
from conftest import REPO_ROOT, scan_d_value


def component(sample12, origin):
    return subconfiguration(sample12, origin)


def added(c, hat):
    """(id, free end, proximities) of the points the completion appends."""
    return [(pt.id, pt.proximities[0], pt.proximities)
            for pt in hat.points[len(c):]]


class TestHatConfiguration:
    def test_singleton_unchanged(self):
        c = build_configuration([(1, [])])
        hat = hat_configuration(c)
        assert hat == c
        assert added(c, hat) == []

    def test_first_component(self, sample12):
        c = component(sample12, 1)
        hat = hat_configuration(c)
        assert len(hat) == 6
        assert hat.points[:len(c)] == c.points
        assert added(c, hat) == [(6, 3, (3, 2))]

    def test_second_component(self, sample12):
        c = component(sample12, 6)
        hat = hat_configuration(c)
        assert len(hat) == 5
        assert hat.points[:len(c)] == c.points
        assert added(c, hat) == [(5, 4, (4, 3))]

    def test_third_component(self, sample12):
        c = component(sample12, 10)
        hat = hat_configuration(c)
        assert len(hat) == 5
        assert hat.points[:len(c)] == c.points
        assert added(c, hat) == [(4, 2, (2, 1)), (5, 3, (3, 1))]

    def test_satellite_closed_cluster_gains_nothing(self):
        c = build_configuration([(1, []), (2, [1]), (3, [2, 1])])
        hat = hat_configuration(c)
        assert hat == c

    def test_multiple_origins_rejected(self, sample12):
        with pytest.raises(MultipleOriginsError):
            hat_configuration(sample12)

    def test_many_origins_are_listed_short(self, sample12):
        with pytest.raises(MultipleOriginsError) as exc:
            hat_configuration(sample12)
        assert str(exc.value) == "expected a unique origin, found 3: (1, 6, 10)"
        many = build_configuration([(i, []) for i in range(1, 20001)])
        with pytest.raises(MultipleOriginsError) as exc:
            hat_configuration(many)
        assert str(exc.value) == ("expected a unique origin, found 20000: "
                                  "(1, 2, 3, 4, 5) and 19995 more")


class TestDValue:
    BAD_D_VALUE = """
import sys
from negbound import DValue, InvariantError
if __debug__:
    sys.exit("asserts are on; run with python -O")
for d, certificate, previous in [(1, (1,), (0,)), (2, (0,), (-1,)),
                                 (3, (2,), (1,)), (2, (1,), ())]:
    try:
        DValue(d=d, certificate=certificate, previous=previous)
    except InvariantError:
        continue
    sys.exit(f"DValue accepted d={d}")
"""

    def test_invariants_hold_under_python_O(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", self.BAD_D_VALUE],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_empty_vectors_keep_their_verdicts(self):
        # An empty certificate has no nonpositive entry, so it passes; an
        # empty previous has none either, so it witnesses nothing.
        assert DValue(d=2, certificate=(), previous=(0,)).hat_size == 0
        for certificate in ((1,), ()):
            with pytest.raises(InvariantError) as exc:
                DValue(d=2, certificate=certificate, previous=())
            assert str(exc.value) == (
                "d = 2 is not certified minimal: need d >= 2, a positive "
                "certificate and a previous one that is not")

    def test_singleton(self):
        dv = d_value(build_configuration([(1, [])]))
        assert dv.d == 2
        assert dv.certificate == (1,)
        assert dv.previous == (0,)

    @pytest.mark.parametrize("origin,expected", [(1, 10), (6, 7), (10, 6)])
    def test_sample12_components(self, sample12, origin, expected):
        sub = component(sample12, origin)
        dv = d_value(sub)
        assert dv.d == expected
        assert all(v > 0 for v in dv.certificate)
        assert any(v <= 0 for v in dv.previous)
        assert dv.d == scan_d_value(sub)

    def test_multiple_origins_rejected(self, sample12):
        with pytest.raises(MultipleOriginsError):
            d_value(sample12)

    def test_zero_unloading_coefficient_is_a_typed_error(self):
        # Point 2 listing itself would give a_2 = 0, and the closed form
        # would divide by it; the constructor rejects such a cluster, so
        # d_value needs no guard of its own.
        with pytest.raises(ForwardReferenceError,
                           match="point 2 is proximate to 2, which is not"):
            d_value(Configuration(((), (2,))))


class TestTotals:
    def test_empty_vectors_keep_their_verdicts(self):
        # An empty certificate has no nonpositive entry, so it passes; an
        # empty previous has none either, so it witnesses nothing.
        assert DValue(d=2, certificate=(), previous=(0,)).hat_size == 0
        for certificate in ((1,), ()):
            with pytest.raises(InvariantError) as exc:
                DValue(d=2, certificate=certificate, previous=())
            assert str(exc.value) == (
                "d = 2 is not certified minimal: need d >= 2, a positive "
                "certificate and a previous one that is not")

    def test_singleton(self):
        assert total_d(build_configuration([(1, [])])) == 2

    def test_sample12(self, sample12):
        assert total_d(sample12) == 23
        assert [(o, dv.d) for o, dv in origin_d_values(sample12).items()] == \
            [(1, 10), (6, 7), (10, 6)]

    def test_two_disjoint_singletons(self):
        assert total_d(build_configuration([(1, []), (2, [])])) == 4

    def test_report_shape(self, sample12):
        report = d_value_report(sample12)
        assert report["total_d"] == 23
        assert [(e["id"], e["d"], e["hat_size"]) for e in report["origins"]] \
            == [(1, 10, 6), (6, 7, 5), (10, 6, 5)]
        for entry in report["origins"]:
            assert len(entry["certificate"]) == entry["hat_size"] == \
                len(hat_configuration(component(sample12, entry["id"])))
            assert all(v > 0 for v in entry["certificate"])
