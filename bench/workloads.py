"""The three workloads: what each operation runs and how its output is checked.

Every operation is a closed-loop call from this one process: the next one
starts when the previous returns.  Operations call negbound through module
attributes looked up at call time, so the tracer's rebinding sees them.
Checks run outside the timed call and compare against ``oracle`` values or
against CLI goldens recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens" / "cli-sample12.json"
SAMPLE12 = "configs/sample12.cfg"
HALF = Fraction(1, 2)


def import_negbound():
    """Import the package from the checkout's src/, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import negbound.bounds
    import negbound.cli
    import negbound.config
    import negbound.fileformat
    import negbound.lattice
    import negbound.sufficiency
    import negbound.surfaces
    return negbound


nb = import_negbound()


class Op(NamedTuple):
    label: str                        # kind of operation
    points: int                       # input points it processes
    run: Callable[[], object]
    check: Callable[[object], bool]   # called on run()'s result, untimed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def python_ms(code: str, repeats: int) -> float:
    """Median wall time of ``python -c code`` in a fresh interpreter."""
    env, times = child_env(), []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append((perf_counter() - start) * 1000)
    return statistics.median(times)


# --- cli-sample12 -----------------------------------------------------------

CURVES = ".bench_out/cli-sample12/curves.txt"
NU_DIVISOR = "23/2L - 3E1 - 3E2 - E3 - E4 - E5 - 2E6 - 2E7 - E8 - E9 - 2E10 - E11 - E12"
CLI_CALLS = (
    ["analyze", SAMPLE12],
    ["analyze", SAMPLE12, "--json"],
    ["dvalue", SAMPLE12, "--json"],
    ["bounds", SAMPLE12, "--pullback", "--n-convention", "example"],
    ["bounds", SAMPLE12, "--epsilon", "1/2", "--surface", "f 3"],
    ["nu", SAMPLE12, "--divisor", NU_DIVISOR, "--curves", CURVES],
    ["dot", SAMPLE12],
)
SAMPLE12_SPECS = [(1, ()), (2, (1,)), (3, (2,)), (4, (2,)), (5, (4, 2)),
                  (6, ()), (7, (6,)), (8, (7, 6)), (9, (8,)),
                  (10, ()), (11, (10,)), (12, (10,))]


def curves_text() -> str:
    """The strict transform of every exceptional curve of sample12, then two
    lines and a conic through some of its points."""
    succ = oracle.successors(SAMPLE12_SPECS)
    lines = [" ".join([f"E{q}"] + [f"- E{p}" for p in succ[q - 1]])
             for q, _ in SAMPLE12_SPECS]
    lines += ["L - E1 - E2", "L - E6 - E7 - E10", "2L - E1 - E2 - E3 - E6 - E10"]
    return "\n".join(lines) + "\n"


def cli_subprocess(args: list[str]) -> tuple[int, bytes, bytes]:
    proc = subprocess.run([sys.executable, "-m", "negbound.cli", *args],
                          cwd=ROOT, env=child_env(), capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def cli_in_process(args: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nb.cli.main(list(args))
    return code, out.getvalue().encode(), err.getvalue().encode()


def record_goldens() -> None:
    """Write the CLI goldens from the current code (run at the seed commit)."""
    write_text(ROOT / CURVES, curves_text())
    goldens = []
    for args in CLI_CALLS:
        code, out, err = cli_subprocess(args)
        goldens.append({"args": args, "code": code,
                        "stdout": out.decode(), "stderr": err.decode()})
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


class CliSample12:
    """One ``python -m negbound.cli`` process per call, cycling the calls.

    The inputs are the shipped sample and a fixed curve list, so the seed only
    rotates where the cycle starts.  Traced runs call ``cli.main`` in-process.
    """

    name = "cli-sample12"
    min_ops = 100

    def __init__(self) -> None:
        goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
        if [g["args"] for g in goldens] != [list(a) for a in CLI_CALLS]:
            raise RuntimeError(f"{GOLDENS} does not match the CLI calls")
        self.expected = [(g["code"], g["stdout"].encode(), g["stderr"].encode())
                         for g in goldens]
        self.order: list[int] = []
        self.in_process = False

    def setup(self, seed: int) -> None:
        write_text(ROOT / CURVES, curves_text())
        start = seed % len(CLI_CALLS)
        self.order = [(start + i) % len(CLI_CALLS) for i in range(len(CLI_CALLS))]
        for index in self.order:
            cli_subprocess(CLI_CALLS[index])

    def round(self) -> list[Op]:
        call = cli_in_process if self.in_process else cli_subprocess
        return [Op(CLI_CALLS[i][0], len(SAMPLE12_SPECS),
                   lambda a=CLI_CALLS[i]: call(a),
                   lambda got, want=self.expected[i]: got == want)
                for i in self.order]


# --- batch-small ------------------------------------------------------------

POOL = 96
SWEEP = ("p2", "f 0", "f 1", "f 3")


def batch_pipeline(text: str, literal: str, sweep) -> tuple:
    """One small-cluster operation, end to end through the library."""
    c = nb.fileformat.parse_configuration(text)
    analysis = nb.config.analysis_report(c)
    dvalue = nb.sufficiency.d_value_report(c)
    reports = []
    for surface in sweep:
        cs = dataclasses.replace(c, surface=surface)
        reports.append((nb.bounds.nef_pullback_bounds(cs),
                        nb.bounds.epsilon_family_bounds(cs, HALF),
                        nb.bounds.polarization_bounds(cs)))
    foliation = nb.bounds.attached_foliation_degree_bounds(c)
    divisor = nb.fileformat.parse_divisor(literal, c.surface, len(c))
    curves = [nb.lattice.strict_transform_of_exceptional(c, q)
              for q in range(1, len(c) + 1)]
    nu = nb.bounds.empirical_nu(curves, divisor)
    return c, analysis, dvalue, reports, foliation, nu


def check_parse(c, specs, surface: str) -> bool:
    """The parsed cluster matches the specs and survives serialize-then-parse."""
    return (str(c.surface) == surface
            and [(pt.id, pt.proximities) for pt in c.points] == specs
            and nb.fileformat.parse_configuration(
                nb.fileformat.serialize_configuration(c)) == c)


def check_dvalue(report: dict, exp: oracle.Expected) -> bool:
    """Per-origin d, hat sizes and certificates match the oracle, and the
    multiplicities the certificates imply (m = d e_1 - P cert) satisfy
    P^t m = end indicator on the bench's own completions."""
    if report != exp.dvalue:
        return False
    for entry in report["origins"]:
        ext = exp.hats[entry["id"]]
        pc = oracle.apply(ext, entry["certificate"])
        m = [(entry["d"] if i == 0 else 0) - x for i, x in enumerate(pc)]
        if not oracle.end_indicator_holds(ext, m):
            return False
    return True


def check_bound(report, kind: str, surface: str, exp: oracle.Expected,
                n: int, epsilon: Fraction | None = None) -> bool:
    terms = oracle.bound_terms(kind, surface, n, exp.d, exp.gamma, epsilon)
    return (str(report.surface) == surface and report.n == n
            and report.n_stated == exp.n_stated
            and report.n_example == exp.n_example
            and report.d == exp.d and report.gamma == exp.gamma
            and report.bound == min(terms))


def check_foliation(report, surface: str, d: int) -> bool:
    if surface == "p2":
        return (report.d, report.r_max, report.first_integral_degree) == \
            (d, 2 * d - 2, d)
    delta = int(surface.split()[1])
    return (report.d, report.r1_max, report.r2_max, report.first_integral_d1_max,
            report.first_integral_d2) == (d, 2 * d + delta - 2, 2 * d - 2, d, d)


class Cluster:
    """One generated cluster, its text and, once first needed, its expected values."""

    def __init__(self, label: str, specs: list, surface: str) -> None:
        self.label = label
        self.specs = specs
        self.surface = surface
        self.text = gen.cluster_text(specs, surface)
        self._expected: oracle.Expected | None = None

    @property
    def expected(self) -> oracle.Expected:
        if self._expected is None:
            self._expected = oracle.expected(self.specs, self.surface)
        return self._expected


class BatchSmall:
    """A pool of small clusters, each run through the whole library per operation."""

    name = "batch-small"
    min_ops = 100

    def __init__(self) -> None:
        self.pool: list[tuple[Cluster, str, list[int]]] = []
        self.sweep: list[tuple[str, object]] = []

    def setup(self, seed: int) -> None:
        """Sizes, origin counts and surfaces are stratified over the pool, so
        only the shapes and the pool order depend on the seed."""
        rng = random.Random(seed)
        self.sweep = [(s, nb.surfaces.parse_surface(s)) for s in SWEEP]
        pool = []
        for i in range(POOL):
            n = 8 + (i * 41) // POOL
            origins = 1 if i % 2 == 0 else 2 + (i // 2) % 3
            surface = gen.SURFACES[(i // 2) % len(gen.SURFACES)]
            cluster = Cluster("small", gen.random_cluster(rng, n, origins), surface)
            literal, r = gen.divisor_literal(rng, surface, n, n)
            pool.append((cluster, literal, r))
        # The warm-up takes every sixth cluster before the shuffle, so its
        # sizes, and with them the set-up time, do not depend on the seed.
        warm_up = pool[::6]
        rng.shuffle(pool)
        self.pool = pool
        write_text(ROOT / ".bench_out" / self.name / "pool.cfg",
                   "\n".join(cluster.text for cluster, _, _ in pool))
        for cluster, literal, _ in warm_up:
            batch_pipeline(cluster.text, literal, [s for _, s in self.sweep])

    def check(self, cluster: Cluster, r: list[int], out) -> bool:
        c, analysis, dvalue, reports, foliation, nu = out
        exp = cluster.expected
        if not (check_parse(c, cluster.specs, cluster.surface)
                and analysis == exp.analysis and check_dvalue(dvalue, exp)
                and check_foliation(foliation, cluster.surface, exp.d)
                and nu.value == oracle.empirical_nu(cluster.specs, r)):
            return False
        return all(
            check_bound(nef, "pullback", s, exp, exp.n_stated)
            and check_bound(eps, "epsilon", s, exp, exp.n_stated, HALF)
            and check_bound(pol, "pullback", s, exp, exp.n_stated)
            for (s, _), (nef, eps, pol) in zip(self.sweep, reports))

    def round(self) -> list[Op]:
        surfaces = [s for _, s in self.sweep]
        return [Op(cluster.label, len(cluster.specs),
                   lambda c=cluster, lit=literal: batch_pipeline(c.text, lit, surfaces),
                   lambda out, c=cluster, r=r: self.check(c, r, out))
                for cluster, literal, r in self.pool]


# --- large-clusters ---------------------------------------------------------

# (label, generator, n); every cluster is used once per pass.  The sizes
# give each kind about the same time per operation (about 150 ms on a
# 2-vCPU VM), so a run holds many operations of each kind and the latency
# median falls inside one spread of times, not in a gap between kinds.
LARGE = (
    ("tree", lambda rng, n: gen.random_cluster(rng, n, 1), 700),
    ("multi", lambda rng, n: gen.random_cluster(rng, n, n // 20), 1000),
    ("chain", lambda rng, n: gen.satellite_chain(rng, n, 0.69), 480),
    ("strict", lambda rng, n: gen.random_cluster(rng, n, 1), 250),
)


def large_pipeline(cluster: Cluster, multiplicities: list[int] | None) -> tuple:
    c = nb.fileformat.parse_configuration(cluster.text)
    dvalue = nb.sufficiency.d_value_report(c)
    bound = nb.bounds.nef_pullback_bounds(c, "example")
    if multiplicities is None:
        return c, dvalue, bound, None
    # The class n L* - sum m_i E_i* (n F* + n M* - ... over F_delta) of a
    # generic curve through the cluster, to strict coordinates and back.
    base = (len(c),) * (1 if cluster.surface == "p2" else 2)
    cls = nb.lattice.DivisorClass.from_multiplicities(c.surface, base,
                                                      multiplicities)
    strict = nb.lattice.strict_exceptional_coordinates(c, cls)
    back = nb.lattice.divisor_from_strict_coordinates(c, cls.base, strict)
    return c, dvalue, bound, (cls, strict, back)


class LargeClusters:
    """A few large clusters, each used once per pass."""

    name = "large-clusters"
    min_ops = 0

    def __init__(self) -> None:
        self.full: list[tuple[Cluster, list[int] | None]] = []
        self.half: list[tuple[Cluster, list[int] | None]] = []

    @staticmethod
    def _generate(rng: random.Random, scale: int, suffix: str):
        made = []
        for label, make, n in LARGE:
            specs = make(rng, n // scale)
            cluster = Cluster(label + suffix, specs, rng.choice(gen.SURFACES))
            m = oracle.multiplicities(specs) if label == "strict" else None
            made.append((cluster, m))
        return made

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.full = self._generate(rng, 1, "")
        # The same kinds at n/2 give the traced run its scaling slopes.
        self.half = self._generate(rng, 2, "/2")
        write_text(ROOT / ".bench_out" / self.name / "clusters.cfg",
                   "\n".join(cluster.text for cluster, _ in self.full + self.half))
        for cluster, m in self._generate(random.Random(seed), 4, "/4"):
            large_pipeline(cluster, m)

    @staticmethod
    def check(cluster: Cluster, m: list[int] | None, out) -> bool:
        c, dvalue, bound, trip = out
        exp = cluster.expected
        if not (check_parse(c, cluster.specs, cluster.surface)
                and check_dvalue(dvalue, exp)
                and check_bound(bound, "pullback", cluster.surface, exp,
                                exp.n_example)):
            return False
        if trip is None:
            return True
        cls, strict, back = trip
        return (list(strict) == oracle.solve(cluster.specs, list(cls.exceptional))
                and back == cls)

    def round(self, half: bool = False) -> list[Op]:
        return [Op(cluster.label, len(cluster.specs),
                   lambda c=cluster, m=m: large_pipeline(c, m),
                   lambda out, c=cluster, m=m: self.check(c, m, out))
                for cluster, m in (self.half if half else self.full)]


WORKLOADS = {w.name: w for w in (CliSample12, BatchSmall, LargeClusters)}
