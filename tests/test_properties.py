from __future__ import annotations

import dataclasses
import pickle
import random
import sys
import threading
import types
from fractions import Fraction

import pytest

from negbound import (
    Configuration,
    DivisorClass,
    Point,
    UnknownPointError,
    analysis_report,
    attached_foliation_degree_bounds,
    build_configuration,
    cluster_bound_data,
    d_value,
    d_value_report,
    divisor_from_strict_coordinates,
    dot_export,
    epsilon_family_bounds,
    empirical_nu,
    exceptional_self_intersections,
    hat_configuration,
    load_configuration,
    multiplicity_vector,
    nef_pullback_bounds,
    origin_d_values,
    parse_configuration,
    pairing,
    polarization_bounds,
    proximity_apply,
    proximity_solve,
    serialize_configuration,
    special_section_class,
    strict_exceptional_coordinates,
    strict_transform_of_exceptional,
    subconfiguration,
    total_d,
)
from negbound.bounds import _terms
from negbound.cli import main
from negbound.config import _admitted, proximity_matrix
from negbound.surfaces import Hirzebruch, ProjectivePlane
from conftest import (SAMPLE12_SPECS, count_calls, identity, mat_mul,
                      scan_d_value)
from random_configs import random_configuration

SEED = 940221


def make_suite(count=120, max_n=30):
    rng = random.Random(SEED)
    return [random_configuration(rng, rng.randint(1, max_n))
            for _ in range(count)]


SUITE = make_suite()


@pytest.fixture(scope="module")
def suite():
    return SUITE


class TestMatrixProperties:
    def test_inverse_is_exact_and_nonnegative(self, suite):
        for c in suite:
            entries, inverse = proximity_matrix(c)
            rows = [list(r) for r in entries]
            inv = [list(r) for r in inverse]
            assert mat_mul(rows, inv) == identity(len(c))
            assert all(x >= 0 for row in inv for x in row)

    def test_transpose_times_m_is_end_indicator(self, suite):
        for c in suite:
            entries, _ = proximity_matrix(c)
            m = multiplicity_vector(c)
            n = len(c)
            product = [sum(entries[i][j] * m[i] for i in range(n))
                       for j in range(n)]
            ends = set(c.ends)
            assert product == [1 if j + 1 in ends else 0 for j in range(n)]

    def test_classification_consistency(self, suite):
        for c in suite:
            m = multiplicity_vector(c)
            report = analysis_report(c)
            origins, ends = set(report["origins"]), set(report["ends"])
            for item in report["points"]:
                pt = c.points[item["id"] - 1]
                origin = item["id"] in origins
                assert origin == (item["kind"] == "origin")
                assert origin == (not pt.proximities) == (item["level"] == 0)
                incoming = c.successors[item["id"]]
                end = item["id"] in ends
                assert end == (not incoming)
                assert end == (m[item["id"] - 1] == 1 and not incoming)


class TestLinearCore:
    """The O(n) solve, apply and subtree walk against dense and naive
    references."""

    def test_solve_matches_dense_inverse(self, suite):
        rng = random.Random(SEED + 4)
        for c in suite:
            n = len(c)
            _, inv = proximity_matrix(c)
            ints = [rng.randint(-9, 9) for _ in range(n)]
            fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(n)]
            for w, kind in ((ints, int), (fractions, Fraction)):
                v = proximity_solve(c, w)
                assert v == [sum(inv[i][j] * w[j] for j in range(n))
                             for i in range(n)]
                assert all(type(x) is kind for x in v)

    def test_apply_matches_dense_entries_and_inverts_solve(self, suite):
        rng = random.Random(SEED + 5)
        for c in suite:
            n = len(c)
            entries, _ = proximity_matrix(c)
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for _ in range(n)]
            pv = proximity_apply(c, v)
            assert pv == [sum(entries[i][j] * v[j] for j in range(n))
                          for i in range(n)]
            assert all(type(x) is Fraction for x in pv)
            assert proximity_solve(c, pv) == v

    def test_below_is_the_closure_under_the_parent_relation(self, suite):
        for c in suite:
            for q in range(1, len(c) + 1):
                below = {q}
                for pt in c.points:  # ascending ids: parents come first
                    if pt.proximities and pt.proximities[0] in below:
                        below.add(pt.id)
                kept = sorted(below)
                new_id = {old: new for new, old in enumerate(kept, start=1)}
                expected = build_configuration(
                    [(new_id[pid], [new_id[t] for t in c.proximities[pid - 1]
                                    if t in below])
                     for pid in kept], c.surface)
                assert subconfiguration(c, q) == expected


class TestDenseMatrixOffProductionPath:
    """Every production path runs with the dense proximity matrix disabled."""

    def test_reports_bounds_lattice_and_cli(self, monkeypatch, capsys,
                                            sample12_path, tmp_path):
        def refuse(c):
            raise AssertionError("dense proximity matrix on a production path")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "negbound" and \
                    hasattr(module, "proximity_matrix"):
                monkeypatch.setattr(module, "proximity_matrix", refuse)
        multi = random_configuration(random.Random(SEED + 6), 80)
        assert len(multi.origins) > 1
        multi_path = tmp_path / "multi.cfg"
        multi_path.write_text(serialize_configuration(multi))
        for path in (sample12_path, multi_path):
            c = load_configuration(path)
            d = total_d(c)
            assert d_value_report(c)["total_d"] == d
            nef_pullback_bounds(c)
            epsilon_family_bounds(c, Fraction(1, 2))
            attached_foliation_degree_bounds(c)
            cls = DivisorClass.from_multiplicities(
                c.surface, (d,), multiplicity_vector(c))
            strict = strict_exceptional_coordinates(c, cls)
            assert divisor_from_strict_coordinates(c, cls.base, strict) == cls
            for argv in (["dvalue", "--json"], ["bounds", "--pullback"],
                         ["bounds", "--epsilon", "1/2"]):
                assert main([argv[0], str(path), *argv[1:]]) == 0
        capsys.readouterr()


class TestValidateOnce:
    """Outside input is checked once, by the one loop over the rules, which
    places points out of id order first: a file's tokens go there directly,
    specs from a caller once ``build_configuration`` has normalised them;
    subclusters and completions are assembled from the already valid
    points."""

    def test_the_rules_are_checked_once_per_outside_input(self, monkeypatch):
        calls = count_calls(monkeypatch, _admitted)
        c = random_configuration(random.Random(SEED + 7), 80)
        surface, *points = serialize_configuration(c).splitlines()
        shuffled = random.Random(SEED).sample(points, len(points))
        for order in (points, points[::-1], shuffled):
            calls.clear()
            assert parse_configuration("\n".join([surface, *order])) == c
            assert len(calls) == 1
        foreign = [c.proximities, [list(prox) for prox in c.proximities]]
        for proximities in foreign:
            calls.clear()
            assert Configuration(proximities) == c
            assert len(calls) == 1
        calls.clear()
        assert pickle.loads(pickle.dumps(c)) == c
        assert build_configuration(enumerate(c.proximities, start=1)) == c
        assert len(calls) == 2
        calls.clear()
        for other in (Hirzebruch(2), ProjectivePlane()):
            dataclasses.replace(c, surface=other)
        for q in range(1, len(c) + 1):
            hat_configuration(subconfiguration(c, q))
        assert calls == []

    def test_one_validation_per_parsed_cluster(self, monkeypatch, capsys,
                                               sample12_path, tmp_path):
        calls = count_calls(monkeypatch, build_configuration)
        multi = random_configuration(random.Random(SEED + 7), 80)
        assert len(multi.origins) > 1
        multi_path = tmp_path / "multi.cfg"
        multi_path.write_text(serialize_configuration(multi))
        surface, *points = multi_path.read_text().splitlines()
        shuffled_path = tmp_path / "shuffled.cfg"
        shuffled_path.write_text("\n".join([surface, *reversed(points)]))
        # the parser hands its tokens, in any order, to the one rule check
        for path in (sample12_path, multi_path, shuffled_path):
            c = parse_configuration(path.read_text())
            d_value_report(c)
            total_d(c)
            nef_pullback_bounds(c)
            epsilon_family_bounds(c, Fraction(1, 2))
            polarization_bounds(c)
            attached_foliation_degree_bounds(c)
        assert calls == []
        for argv in (["dvalue"], ["dvalue", "--json"], ["bounds", "--pullback"],
                     ["bounds", "--epsilon", "1/2", "--surface", "f 2"]):
            assert main([argv[0], str(sample12_path), *argv[1:]]) == 0
            assert calls == []
        capsys.readouterr()

    def test_derived_clusters_equal_their_validated_specs(self, suite):
        def validated(c):
            return build_configuration(
                [(pt.id, pt.proximities) for pt in c.points], c.surface)

        def assert_admissible(c):
            # every proximity target of a point lies in its parent chain
            chain = {}
            for pt in c.points:
                chain[pt.id] = set() if not pt.proximities else \
                    {pt.proximities[0]} | chain[pt.proximities[0]]
                assert set(pt.proximities) <= chain[pt.id], (c, pt)

        for c in suite:
            assert_admissible(c)
            for q in range(1, len(c) + 1):
                sub = subconfiguration(c, q)
                assert sub == validated(sub)
                assert_admissible(sub)
                extended = hat_configuration(sub)
                assert extended == validated(extended)
                assert_admissible(extended)


class TestDeriveOnce:
    """Each proximities tuple derives its per-origin d and gamma once,
    whichever report, bound or reader asks first, and surface copies made
    with ``dataclasses.replace`` share them."""

    SWEEP = (ProjectivePlane(), Hirzebruch(0), Hirzebruch(1), Hirzebruch(3))
    # d 6 and gamma 2, where sample12 has d 23 and gamma 4
    OTHER_SPECS = [(1, []), (2, [1]), (3, [2])]

    def test_one_derivation_per_parsed_cluster(self, monkeypatch, capsys,
                                               sample12_path, tmp_path):
        calls = count_calls(monkeypatch, d_value)
        multi = random_configuration(random.Random(SEED + 7), 80)
        assert len(multi.origins) > 1
        multi_path = tmp_path / "multi.cfg"
        multi_path.write_text(serialize_configuration(multi))
        for path in (sample12_path, multi_path):
            calls.clear()
            c = parse_configuration(path.read_text())
            d_value_report(c)
            total_d(c)
            nef_pullback_bounds(c)
            epsilon_family_bounds(c, Fraction(1, 2))
            polarization_bounds(c)
            attached_foliation_degree_bounds(c)
            assert len(calls) == len(c.origins)
        for argv in (["dvalue"], ["bounds", "--pullback"],
                     ["bounds", "--epsilon", "1/2", "--surface", "f 2"]):
            calls.clear()
            assert main([argv[0], str(sample12_path), *argv[1:]]) == 0
            assert len(calls) == 3  # one per origin of the sample
        capsys.readouterr()

    def test_surface_sweep_derives_once(self, monkeypatch, sample12):
        derivations = count_calls(monkeypatch, d_value)
        totals = count_calls(monkeypatch, total_d)
        multi = random_configuration(random.Random(SEED + 7), 80)
        for c in (sample12, multi):
            derivations.clear()
            totals.clear()
            report = analysis_report(c)
            data = []
            for surface in self.SWEEP:
                copy = dataclasses.replace(c, surface=surface)
                data.append(cluster_bound_data(copy))
                nef_pullback_bounds(copy)
                epsilon_family_bounds(copy, Fraction(1, 2))
                polarization_bounds(copy)
                assert analysis_report(copy)["points"] == report["points"]
                assert origin_d_values(copy) is origin_d_values(c)
                assert exceptional_self_intersections(copy) is \
                    exceptional_self_intersections(c)
            assert len(derivations) == len(c.origins) and len(totals) == 1
            assert all(x is data[0] for x in data)  # SWEEP ends with F_3
            assert data[0].gamma == report["gamma"]

    def test_surface_copy_derives_the_same_values(self, sample12):
        multi = random_configuration(random.Random(SEED + 7), 80)
        for c in (sample12, multi):
            report = d_value_report(c)
            for surface in (Hirzebruch(0), Hirzebruch(3), ProjectivePlane()):
                copy = dataclasses.replace(c, surface=surface)
                assert d_value_report(copy) == report
                assert origin_d_values(copy) is origin_d_values(c)

    def test_repeated_reads_reuse_the_first_derivation(self, monkeypatch):
        calls = count_calls(monkeypatch, d_value)
        c = build_configuration(SAMPLE12_SPECS)
        first = origin_d_values(c)
        assert origin_d_values(c) is first
        assert total_d(c) == 23 and d_value_report(c)["total_d"] == 23
        assert len(calls) == len(c.origins) == 3
        assert exceptional_self_intersections(c) is \
            exceptional_self_intersections(c)

    def test_other_points_never_read_these_values(self, sample12):
        expected = cluster_bound_data(build_configuration(self.OTHER_SPECS))
        mine = cluster_bound_data(sample12)
        assert (expected.d, expected.gamma) != (mine.d, mine.gamma)
        other = build_configuration(self.OTHER_SPECS)
        for c in (dataclasses.replace(sample12, proximities=other.proximities),
                  Configuration(other.proximities, sample12.surface)):
            assert cluster_bound_data(c) == expected
        assert cluster_bound_data(sample12) == mine
        for origin in sample12.origins:
            sub = subconfiguration(sample12, origin)
            hat = hat_configuration(sub)
            assert origin_d_values(sub) == {1: origin_d_values(sample12)[origin]}
            for part in (sub, hat):  # a fresh holder derives them again
                assert exceptional_self_intersections(part) == \
                    exceptional_self_intersections(Configuration(part.proximities))
            assert total_d(hat) == d_value(hat).d

    def test_one_store_holds_every_derived_value(self, sample12):
        # Every value derived from the proximities lives in the holder, none
        # on the object, so a surface copy reads the very same objects.
        fields = {"proximities", "surface", "_surface_free"}
        multi = random_configuration(random.Random(SEED + 7), 80)
        assert len(multi.origins) > 1
        readers = [lambda c: c.points, lambda c: c.successors,
                   lambda c: c.ends, lambda c: c.origins,
                   origin_d_values, exceptional_self_intersections,
                   total_d, d_value_report, analysis_report, dot_export,
                   cluster_bound_data, nef_pullback_bounds]
        for c in (sample12, multi):
            for read in readers:
                read(c)
                assert set(vars(c)) == fields
            for point_id in range(1, len(c) + 1):
                subconfiguration(c, point_id)
                strict_transform_of_exceptional(c, point_id)
                assert set(vars(c)) == fields
            copy = dataclasses.replace(c, surface=Hirzebruch(1))
            for read in readers[:6]:
                assert read(copy) is read(c)
            assert set(vars(copy)) == fields

    def test_only_the_cluster_derives_its_origins(self, monkeypatch):
        # A cut has one origin, point 1, and is handed on knowing it, so d
        # scans for origins once, over the whole cluster.
        derived = []
        shared = Configuration._shared

        def recording(self, name, derive):
            if name not in self._surface_free:
                derived.append((name, self))
            return shared(self, name, derive)

        monkeypatch.setattr(Configuration, "_shared", recording)
        c = random_configuration(random.Random(SEED + 7), 80)
        d_value_report(c)
        assert [x is c for name, x in derived if name == "origins"] == [True]
        assert len(c.origins) > 1
        for point_id in range(1, len(c) + 1):
            sub = subconfiguration(c, point_id)
            assert sub.origins == (1,) == tuple(
                pid for pid, prox in enumerate(sub.proximities, 1) if not prox)
        assert [x is c for name, x in derived if name == "origins"] == [True]

    def test_d_builds_no_self_intersections(self):
        # d finds the free ends in its own reverse pass: it derives neither
        # the ends nor gamma's counts.
        c = random_configuration(random.Random(SEED + 7), 80, multi_origin=False)
        d_value_report(c)
        assert "ends" not in c._surface_free
        assert "self_intersections" not in c._surface_free

    def test_threads_filling_one_holder_read_the_same_values(self):
        """Copies filling their shared values at once may each derive them,
        a benign race: every thread must still read the serial values."""
        expected = cluster_bound_data(
            random_configuration(random.Random(SEED + 7), 80))
        c = random_configuration(random.Random(SEED + 7), 80)
        copies = [dataclasses.replace(c, surface=surface)
                  for surface in self.SWEEP * 4]
        results = [None] * len(copies)
        start = threading.Barrier(len(copies))

        def work(i):
            start.wait(timeout=10)
            results[i] = cluster_bound_data(copies[i])

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(copies))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * len(copies)

    def test_cluster_pickles_after_derivation(self, sample12):
        data = cluster_bound_data(sample12)
        report = d_value_report(sample12)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(sample12, protocol))
            assert copy == sample12 and hash(copy) == hash(sample12)
            assert d_value_report(copy) == report
            assert cluster_bound_data(copy) == data

    def test_pickle_carries_only_the_fields(self):
        c = random_configuration(random.Random(1), 1000)
        bare = [pickle.dumps(c, protocol)
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        c.successors, c.points
        origin_d_values(c), exceptional_self_intersections(c)
        assert [pickle.dumps(c, protocol)
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] == bare

    def test_derivation_changes_no_equality_hash_or_repr(self, sample12):
        sample12.points  # the view is cached on the object, not compared
        twin = build_configuration(SAMPLE12_SPECS)
        before = (hash(sample12), repr(sample12))
        assert sample12 == twin
        cluster_bound_data(sample12)
        assert sample12 == twin and twin == sample12
        assert (hash(sample12), repr(sample12)) == before == \
            (hash(twin), repr(twin))
        copy = dataclasses.replace(sample12, surface=Hirzebruch(1))
        assert copy != sample12
        assert dataclasses.replace(copy, surface=ProjectivePlane()) == twin


class TestRenumberingInvariance:
    def test_total_multiplicities_are_permutation_invariant(self, suite):
        rng = random.Random(SEED + 1)
        for c in suite[:40]:
            n = len(c)
            _, inv = proximity_matrix(c)
            m = multiplicity_vector(c)
            totals = [sum(row[j] * m[j] for j in range(n)) for row in inv]

            # random linear extension of the proximity order
            remaining = set(range(1, n + 1))
            placed: dict[int, int] = {}
            order = []
            while remaining:
                ready = [pid for pid in remaining
                         if all(t in placed for t in c.proximities[pid - 1])]
                pick = rng.choice(ready)
                remaining.remove(pick)
                placed[pick] = len(order) + 1
                order.append(pick)
            specs = [(placed[pid],
                      [placed[t] for t in c.proximities[pid - 1]])
                     for pid in order]
            relabeled = build_configuration(specs, c.surface)

            _, inv2 = proximity_matrix(relabeled)
            m2 = multiplicity_vector(relabeled)
            totals2 = [sum(row[j] * m2[j] for j in range(len(relabeled)))
                       for row in inv2]
            for pid in range(1, n + 1):
                assert totals2[placed[pid] - 1] == totals[pid - 1]
            assert sorted(m2) == sorted(m)


class TestDValueProperties:
    def test_closed_form_matches_scan_with_certificates(self, suite):
        checked = 0
        for c in suite:
            for origin in c.origins:
                component = subconfiguration(c, origin)
                if len(component) > 20:
                    continue
                dv = d_value(component)
                assert dv.d >= 2
                assert all(v > 0 for v in dv.certificate)
                assert any(v <= 0 for v in dv.previous)
                assert dv.d == scan_d_value(component)
                # certificate components grow strictly with the degree
                step = [cur - prev for cur, prev
                        in zip(dv.certificate, dv.previous)]
                assert all(s > 0 for s in step)
                checked += 1
        assert checked >= 100


class TestExceptionalCrossCheck:
    def test_graph_formula_matches_lattice(self, suite):
        for c in suite:
            esi = exceptional_self_intersections(c)
            for pid in range(1, len(c) + 1):
                e = strict_transform_of_exceptional(c, pid)
                assert pairing(e, e) == esi.values[pid]


class TestLatticeRandomized:
    def random_class(self, rng, surface, n):
        coeffs = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        base = (coeffs(),) if surface == ProjectivePlane() else (coeffs(), coeffs())
        return DivisorClass(surface, base, tuple(coeffs() for _ in range(n)))

    def test_identities_symmetry_bilinearity(self):
        rng = random.Random(SEED + 2)
        for _ in range(50):
            delta = rng.randint(0, 5)
            surface = Hirzebruch(delta)
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            base = DivisorClass(surface, (a, b))
            assert pairing(base, base) == 2 * a * b + delta * b * b

            d = rng.randint(-9, 9)
            mults = [rng.randint(-5, 5) for _ in range(rng.randint(0, 10))]
            cls = DivisorClass.from_multiplicities(
                ProjectivePlane(), (d,), mults)
            assert pairing(cls, cls) == d * d - sum(m * m for m in mults)

            n = rng.randint(0, 8)
            x = self.random_class(rng, surface, n)
            y = self.random_class(rng, surface, n)
            z = self.random_class(rng, surface, n)
            s = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            assert pairing(x, y) == pairing(y, x)
            assert pairing(x + y, z) == pairing(x, z) + pairing(y, z)
            assert pairing(s * x, z) == s * pairing(x, z)

    def test_projection_formula_for_base_classes(self):
        # a class with no exceptional part pairs through base coefficients
        # only; in particular it is orthogonal to every E_i*
        rng = random.Random(SEED + 3)
        for _ in range(50):
            delta = rng.randint(0, 5)
            surface = Hirzebruch(delta) if rng.random() < 0.5 else ProjectivePlane()
            n = rng.randint(1, 8)
            base_len = 1 if surface == ProjectivePlane() else 2
            d = DivisorClass(surface,
                             tuple(rng.randint(-9, 9) for _ in range(base_len)),
                             (0,) * n)
            c1 = self.random_class(rng, surface, n)
            c2 = DivisorClass(surface, c1.base, (0,) * n)
            assert pairing(d, c1) == pairing(d, c2)
            for i in range(n):
                e = DivisorClass(surface, (0,) * base_len,
                                 tuple(1 if j == i else 0 for j in range(n)))
                assert pairing(d, e) == 0

    @pytest.mark.parametrize("delta", range(6))
    def test_special_section_and_gram_determinant(self, delta):
        surface = Hirzebruch(delta)
        m0 = special_section_class(surface)
        assert pairing(m0, m0) == -delta
        f = DivisorClass(surface, (1, 0))
        m = DivisorClass(surface, (0, 1))
        gram_det = pairing(f, f) * pairing(m, m) - pairing(f, m) ** 2
        assert gram_det == -1


class TestBoundRelations:
    def test_pullback_bound_at_most_polarization_cases(self, suite):
        for c in suite[:40]:
            for surface in (ProjectivePlane(), Hirzebruch(0), Hirzebruch(3)):
                cs = build_configuration(
                    [(pt.id, list(pt.proximities)) for pt in c.points], surface)
                pullback = nef_pullback_bounds(cs)
                cases = dict(polarization_bounds(cs).case_bounds)
                assert pullback.bound <= min(cases.values())
                assert pullback.bound == min(cases.values())

    def test_ruled_term_redundancy(self, suite):
        # -(delta+2)dn <= -n-delta, so dropping the -n-delta term never
        # changes the minimum
        for c in suite[:40]:
            for delta in (0, 1, 4):
                cs = build_configuration(
                    [(pt.id, list(pt.proximities)) for pt in c.points],
                    Hirzebruch(delta))
                report = epsilon_family_bounds(cs, 1)
                terms = dict(report.terms)
                assert terms["(-delta-2)dn/eps"] <= terms["(-n-delta)/eps"]
                without = [v for name, v in report.terms
                           if name != "(-n-delta)/eps"]
                assert min(without) == report.bound

    def test_ruled_term_redundancy_for_every_cluster(self):
        # The identity behind the sampled check above.  With d = 1 + a and
        # n = 1 + b (a, b, delta >= 0), the gap between the two terms is a
        # polynomial with nonnegative coefficients and constant term 1, so
        # -n-delta is never the least term, for any cluster.
        sympy = pytest.importorskip("sympy")
        a, b, d, n, delta = sympy.symbols("a b d n delta")
        terms = {name: value for name, _, value in
                 _terms(types.SimpleNamespace(delta=delta), n, d)}
        gap = sympy.expand((terms["-n-delta"] - terms["-(delta+2)dn"])
                           .subs({d: 1 + a, n: 1 + b}))
        assert gap == sympy.expand(1 + (delta + 2) * a + (delta + 1) * b
                                   + (delta + 2) * a * b)
        assert all(coeff > 0 for coeff in sympy.Poly(gap, a, b, delta).coeffs())

    def test_epsilon_scaling(self, suite):
        # Sampled, not symbolic: the epsilon family divides Fractions.
        eps = Fraction(2, 3)
        for c in suite[:40]:
            one = epsilon_family_bounds(c, eps)
            two = epsilon_family_bounds(c, 2 * eps)
            for (name1, v1), (name2, v2) in zip(one.terms, two.terms):
                assert name1 == name2
                if name1 == "-gamma":
                    assert v1 == v2
                else:
                    assert v2 == v1 / 2

    def test_empirical_nu_respects_family_bound_on_exceptional_witnesses(
            self, suite):
        # strict exceptional transforms are honest curves, so the epsilon
        # family bound applies to any divisor meeting them positively
        for c in suite[:30]:
            n = len(c)
            for surface in (ProjectivePlane(), Hirzebruch(2)):
                cs = build_configuration(
                    [(pt.id, list(pt.proximities)) for pt in c.points], surface)
                bound = epsilon_family_bounds(cs, 1).bound
                base = (3,) if surface == ProjectivePlane() else (3, 3)
                for pid in range(1, n + 1):
                    witness = strict_transform_of_exceptional(cs, pid)
                    mults = [0] * n
                    mults[pid - 1] = 1
                    divisor = DivisorClass.from_multiplicities(
                        surface, base, mults)
                    report = empirical_nu([witness], divisor)
                    assert report.value is not None
                    assert report.value >= bound


class TestPointView:
    """A cluster stores only its proximity tuples: ``Point`` objects are
    built by the ``points`` view alone, and only when something reads it;
    the analysis report and the DOT export read ``levels`` instead."""

    def test_derivations_build_no_point(self, monkeypatch):
        built = []
        init = Point.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        multi = random_configuration(random.Random(SEED + 7), 80)
        assert len(multi.origins) > 1
        monkeypatch.setattr(Point, "__init__", counting)
        for specs in (SAMPLE12_SPECS, list(enumerate(multi.proximities, 1))):
            c = build_configuration(specs)
            for origin in c.origins:
                hat_configuration(subconfiguration(c, origin))
            d_value_report(c)
            analysis_report(c)
            dot_export(c)
            for bad in (0, len(c) + 1):
                for cut in (subconfiguration, strict_transform_of_exceptional):
                    with pytest.raises(UnknownPointError) as exc:
                        cut(c, bad)
                    assert str(exc.value) == f"no point with id {bad}"
            assert built == []
        assert [pt.id for pt in c.points] == list(range(1, len(c) + 1))
        assert len(built) == len(c)
        # a second read returns the same view and builds nothing
        assert c.points is c.points and len(built) == len(c)

    def test_no_cut_builds_successors(self, monkeypatch):
        # gamma, the ends, the multiplicities and d read the proximity
        # tuples; every cut is a forward pass over them, d builds one
        # subcluster per origin and no completion, and none of them builds a
        # successors map.
        made = []
        init = Configuration.__post_init__

        def recording(self):
            made.append(self)
            init(self)

        c = random_configuration(random.Random(SEED + 7), 80)
        analysis_report(c)
        assert "successors" not in c._surface_free
        monkeypatch.setattr(Configuration, "__post_init__", recording)
        d_value_report(c)
        assert len(made) == len(c.origins)
        assert all("successors" not in x._surface_free for x in made)
        for point_id in range(1, len(c) + 1):
            subconfiguration(c, point_id)
        assert "successors" not in c._surface_free

    def test_a_single_origin_cluster_is_its_own_subcluster(self, monkeypatch):
        # Point 1 is an origin, so with no other origin the cut at 1 is the
        # cluster itself, and d builds no completion: no cluster at all.
        made = []
        init = Configuration.__post_init__

        def recording(self):
            made.append(self)
            init(self)

        c = random_configuration(random.Random(SEED + 7), 80, multi_origin=False)
        assert len(c.origins) == 1
        monkeypatch.setattr(Configuration, "__post_init__", recording)
        assert subconfiguration(c, 1) is c
        d_value_report(c)
        assert made == []
        assert "successors" not in c._surface_free
