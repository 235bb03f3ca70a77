"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import dataclasses
import random
import time
from fractions import Fraction

import pytest

from negbound import (
    DivisorClass,
    attached_foliation_degree_bounds,
    build_configuration,
    d_value,
    epsilon_family_bounds,
    exceptional_self_intersections,
    hat_configuration,
    multiplicity_vector,
    nef_pullback_bounds,
    origin_d_values,
    pairing,
    special_section_class,
    strict_transform_of_exceptional,
    subconfiguration,
    total_d,
)
from negbound.cli import main
from negbound.config import proximity_matrix
from negbound.surfaces import Hirzebruch, ProjectivePlane
from conftest import identity, mat_mul, scan_d_value
from random_configs import random_configuration

SEED = 271828


def report_line(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_component_d_values(sample12):
    start = time.perf_counter()
    values = {origin: dv.d for origin, dv in origin_d_values(sample12).items()}
    total = total_d(sample12)
    elapsed = time.perf_counter() - start
    ok = values == {1: 10, 6: 7, 10: 6} and total == 23 and elapsed < 1.0
    report_line(1, ok, f"d-values {values}, total {total}, {elapsed:.3f}s")


def test_criterion_2_hat_sizes(sample12):
    bases = {origin: subconfiguration(sample12, origin)
             for origin in (1, 6, 10)}
    hats = {origin: hat_configuration(base) for origin, base in bases.items()}
    sizes = {origin: len(hat) for origin, hat in hats.items()}
    # (id, free end, proximities) of the points appended after the base;
    # q1 above 3 proximate to (3, 2); q2 above 9; q3 above 11; q4 above 12
    # (ids below are in each component's own numbering)
    added = {origin: [(pt.id, pt.proximities[0], pt.proximities)
                      for pt in hat.points[len(bases[origin]):]]
             for origin, hat in hats.items()}
    added_ok = (
        added[1] == [(6, 3, (3, 2))]
        and added[6] == [(5, 4, (4, 3))]
        and added[10] == [(4, 2, (2, 1)), (5, 3, (3, 1))]
        and all(hats[o].points[:len(bases[o])] == bases[o].points
                for o in hats))
    ok = sizes == {1: 6, 6: 5, 10: 5} and added_ok
    report_line(2, ok, f"hat sizes {sizes}, added satellites as expected: {added_ok}")


def test_criterion_3_bounds(sample12, sample12_path, capsys):
    plane = nef_pullback_bounds(sample12, "example")
    plane_ok = ([v for _, v in plane.terms] == [-43, -345]
                and plane.bound == -345)

    ruled_ok = True
    for delta in range(6):
        ruled = nef_pullback_bounds(
            dataclasses.replace(sample12, surface=Hirzebruch(delta)), "example")
        ruled_ok &= [v for _, v in ruled.terms] == \
            [-44 - delta, -16 - delta, -368 * (2 + delta)]
        ruled_ok &= ruled.bound == -368 * (2 + delta)

    stated = nef_pullback_bounds(sample12, "stated")
    stated_ok = stated.bound == -253 and stated.conventions_disagree
    # the CLI surfaces the divergence as a warning
    code = main(["bounds", str(sample12_path), "--pullback"])
    err = capsys.readouterr().err
    warning_ok = code == 0 and "disagree" in err

    ok = plane_ok and ruled_ok and stated_ok and warning_ok
    report_line(3, ok, f"plane -345: {plane_ok}, ruled -368(2+d) for d=0..5: "
                       f"{ruled_ok}, stated -253 with warning: "
                       f"{stated_ok and warning_ok}")


def test_criterion_4_property_suite():
    start = time.perf_counter()
    rng = random.Random(SEED)
    configs = [random_configuration(rng, rng.randint(1, 30))
               for _ in range(110)]
    failures = []
    d_checked = 0
    for index, c in enumerate(configs):
        n = len(c)
        entries, inverse = proximity_matrix(c)
        rows = [list(r) for r in entries]
        inv = [list(r) for r in inverse]
        if mat_mul(rows, inv) != identity(n):
            failures.append((index, "P*Pinv != I"))
        if any(x < 0 for row in inv for x in row):
            failures.append((index, "Pinv has a negative entry"))
        m = multiplicity_vector(c)
        ends = set(c.ends)
        pt_m = [sum(rows[i][j] * m[i] for i in range(n)) for j in range(n)]
        if pt_m != [1 if j + 1 in ends else 0 for j in range(n)]:
            failures.append((index, "P^t m is not the end indicator"))
        esi = exceptional_self_intersections(c)
        for pid in range(1, n + 1):
            e = strict_transform_of_exceptional(c, pid)
            if pairing(e, e) != esi.values[pid]:
                failures.append((index, f"E^2 mismatch at {pid}"))
        for origin in c.origins:
            component = subconfiguration(c, origin)
            if len(component) > 20:
                continue
            dv = d_value(component)
            if dv.d < 2:
                failures.append((index, "d < 2"))
            if not all(v > 0 for v in dv.certificate):
                failures.append((index, "certificate not positive"))
            if not any(v <= 0 for v in dv.previous):
                failures.append((index, "d - 1 certificate all positive"))
            if dv.d != scan_d_value(component):
                failures.append((index, "closed form != scan oracle"))
            d_checked += 1
    elapsed = time.perf_counter() - start
    ok = (not failures and len(configs) >= 100 and d_checked >= 100
          and elapsed < 10.0)
    report_line(4, ok, f"{len(configs)} configurations, {d_checked} d-value "
                       f"checks, {len(failures)} failures, {elapsed:.2f}s")


def test_criterion_5_lattice_identities():
    rng = random.Random(SEED + 1)
    failures = 0
    for _ in range(50):
        delta = rng.randint(0, 5)
        surface = Hirzebruch(delta)
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        base_cls = DivisorClass(surface, (a, b))
        if pairing(base_cls, base_cls) != 2 * a * b + delta * b * b:
            failures += 1
        d = rng.randint(-9, 9)
        mults = [rng.randint(-5, 5) for _ in range(rng.randint(0, 10))]
        plane_cls = DivisorClass.from_multiplicities(
            ProjectivePlane(), (d,), mults)
        if pairing(plane_cls, plane_cls) != d * d - sum(x * x for x in mults):
            failures += 1
        m0 = special_section_class(surface)
        if pairing(m0, m0) != -delta:
            failures += 1
        n = rng.randint(0, 8)
        base = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        make = lambda: DivisorClass(
            surface, (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 4))),
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(n)))
        x, y, z = make(), make(), make()
        s = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if pairing(x, y) != pairing(y, x):
            failures += 1
        if pairing(x + y, z) != pairing(x, z) + pairing(y, z):
            failures += 1
        if pairing(s * x, z) != s * pairing(x, z):
            failures += 1
    report_line(5, failures == 0, f"50 random instances, {failures} failures")


def test_criterion_6_redundancy_and_scaling():
    rng = random.Random(SEED + 2)
    failures = 0
    for _ in range(40):
        c = random_configuration(rng, rng.randint(1, 25),
                                 Hirzebruch(rng.randint(0, 5)))
        report = epsilon_family_bounds(c, 1)
        terms = dict(report.terms)
        if terms["(-delta-2)dn/eps"] > terms["(-n-delta)/eps"]:
            failures += 1
        reduced = [v for name, v in report.terms if name != "(-n-delta)/eps"]
        if min(reduced) != report.bound:
            failures += 1
        eps = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        low = epsilon_family_bounds(c, eps)
        high = epsilon_family_bounds(c, 2 * eps)
        for (name, v1), (_, v2) in zip(low.terms, high.terms):
            expected = v1 if name == "-gamma" else v1 / 2
            if v2 != expected:
                failures += 1
    report_line(6, failures == 0,
                f"40 ruled clusters, redundancy and epsilon scaling, "
                f"{failures} failures")


def test_criterion_7_attached_foliation_degree_bounds(sample12):
    plane = attached_foliation_degree_bounds(sample12)
    plane_ok = plane.r_max == 44 and plane.first_integral_degree == 23
    ruled_ok = True
    for delta in range(6):
        ruled = attached_foliation_degree_bounds(
            dataclasses.replace(sample12, surface=Hirzebruch(delta)))
        ruled_ok &= (ruled.r1_max, ruled.r2_max) == (2 * 23 + delta - 2, 44)
        ruled_ok &= (ruled.first_integral_d1_max, ruled.first_integral_d2) \
            == (23, 23)
    ok = plane_ok and ruled_ok
    report_line(7, ok, f"plane r <= 44 with first integral degree 23: "
                       f"{plane_ok}, ruled (2*23+delta-2, 44): {ruled_ok}")
