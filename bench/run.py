"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload batch-small --seed 1 --seconds 30 --trace 0

Workloads, metrics, units and bounds are declared in BENCHMARK.json at the
repository root.  With ``--trace 0`` the run measures the end-to-end metrics
with nothing rebound; with ``--trace 1`` it measures the per-layer metrics
from in-memory spans and reports the tracing overhead.  Every operation's
output is checked outside its timed call.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it repeat the metrics for reading, with the run's metadata.
Results (and, when traced, the spans) are also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Set-up runs at least SETUP_MIN times and until SETUP_SECONDS have passed
# (at most SETUP_MAX times); setup_s is the median, so a cheap set-up is
# repeated often enough for a steady median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 41, 2.0
# A shared host can slow one CPU and not another for seconds at a time, so
# operations and set-ups rotate over the CPUs this process may use: a run
# then samples all of them, not whichever one the scheduler kept it on.
CPUS = sorted(os.sched_getaffinity(0))

# Per-layer slopes compare a function's self time on one large-clusters kind
# at n against the same kind at n/2.
SLOPE_KIND = {
    "config.proximity_matrix": "tree",
    "config.subconfiguration": "multi",
    "sufficiency.d_value": "tree",
    "lattice.strict_exceptional_coordinates": "strict",
}


class Measured(NamedTuple):
    latencies: list[float]             # seconds per operation
    slots: list[list[float]]           # latencies of each position in the round
    ops: dict[int, object]             # operation id -> Op
    failed: int

    def round_s(self) -> float:
        """One round at each operation's median latency, which a short slow
        spell of the machine cannot move."""
        return sum(statistics.median(times) for times in self.slots)

    def op_ms(self) -> float:
        """Mean operation time of ``round_s``, in ms."""
        return 1000 * self.round_s() / len(self.slots)

    def rates(self) -> tuple[float, float]:
        """Clusters and points per second over ``round_s``."""
        points = sum(op.points for op in list(self.ops.values())[:len(self.slots)])
        return len(self.slots) / self.round_s(), points / self.round_s()


def pin(index: int) -> None:
    os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})


def measure(make_round, seconds: float, min_ops: int, tracer=None,
            first_id: int = 0) -> Measured:
    """Run whole rounds until ``seconds`` have passed and ``min_ops`` are done.

    Each operation is timed alone; its check runs after the clock stops and
    with tracing paused.
    """
    latencies, slots, ops, failed, rounds = [], [], {}, 0, 0
    start = perf_counter()
    while True:
        for slot, op in enumerate(make_round()):
            op_id = first_id + len(ops)
            ops[op_id] = op
            run = op.run
            gc.collect()
            pin(slot + rounds)
            if tracer is not None:
                tracer.op, tracer.active = op_id, True
                run = tracer.span("op", op.run)
            t0 = perf_counter()
            try:
                out, ok = run(), True
            except Exception:
                out, ok = None, False
                traceback.print_exc(file=sys.stderr)
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            if ok:
                try:
                    ok = bool(op.check(out))
                except Exception:
                    ok = False
                    traceback.print_exc(file=sys.stderr)
                if not ok:
                    print(f"check failed: {op.label} op {op_id}", file=sys.stderr)
            failed += not ok
            latencies.append(elapsed)
            if slot == len(slots):
                slots.append([])
            slots[slot].append(elapsed)
        rounds += 1
        if perf_counter() - start >= seconds and len(ops) >= min_ops:
            return Measured(latencies, slots, ops, failed)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(workload, seconds: float, setup_s: float) -> tuple[dict, Measured]:
    run = measure(workload.round, seconds, workload.min_ops)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-sample12" \
        else resource.RUSAGE_SELF
    clusters_per_s, points_per_s = run.rates()
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(run.latencies) * 1000,
        "latency_p90_ms": percentile(run.latencies, 90) * 1000,
        "clusters_per_s": clusters_per_s,
        "points_per_s": points_per_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    return metrics, run


def per_layer(workload, seconds: float, names: list[str],
              interpreter_ms: float, seed: int) -> tuple[dict, list[Measured]]:
    """Per-layer metrics from traced rounds.  Untraced rounds of the same
    operations alternate with them, so both meet the same machine, and the
    difference between a pair is the tracing overhead."""
    from workloads import python_ms

    if workload.name == "cli-sample12":
        workload.in_process = True
    import_ms = python_ms("import negbound", 10) - interpreter_ms
    tracer = spans.Tracer()
    runs: list[Measured] = []

    def one_round(make_round, traced: bool) -> Measured:
        first_id = sum(len(run.ops) for run in runs)
        if traced:
            tracer.install()
        try:
            run = measure(make_round, 0, 0, tracer if traced else None, first_id)
        finally:
            tracer.uninstall()
        runs.append(run)
        return run

    pairs = []
    start = perf_counter()
    while not pairs or perf_counter() - start < seconds:
        pairs.append((one_round(workload.round, False),
                      one_round(workload.round, True)))
    half = None
    if workload.name == "large-clusters":
        half = one_round(lambda: workload.round(half=True), True)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.json")

    traced_ops = {i: op for _, run in pairs for i, op in run.ops.items()}
    count = len(traced_ops)
    stats = spans.aggregate(tracer.spans, set(traced_ops))
    empty = spans.LayerStats(0.0, 0, 0, 0)
    per_op_ms = [(plain.op_ms(), traced.op_ms()) for plain, traced in pairs]
    special = {
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "trace.overhead_ms": statistics.median(t - p for p, t in per_op_ms),
        "trace.overhead_pct": statistics.median(100 * (t - p) / p
                                                for p, t in per_op_ms),
        "sufficiency.d_value.useful_ratio":
            spans.useful_ratio(tracer.spans, "sufficiency.d_value", set(traced_ops)),
    }
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
            continue
        span, field = name.rsplit(".", 1)
        s = stats.get(span, empty)
        if field == "self_ms":
            metrics[name] = 1000 * s.self_s / count
        elif field == "calls":
            metrics[name] = s.calls / count
        elif field == "points":
            metrics[name] = s.size / count
        elif field == "cells":
            metrics[name] = s.cells / count
        elif field == "slope":
            metrics[name] = layer_slope(tracer.spans, span, traced_ops,
                                        half.ops if half else None)
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return metrics, runs


def layer_slope(all_spans, span: str, full: dict, half: dict | None) -> float:
    """Slope of ``span``'s self time per operation between the n and n/2
    inputs of its designated large-clusters kind; 0.0 on other workloads."""
    if half is None:
        return 0.0
    kind = SLOPE_KIND[span]
    sides = []
    for ops, label in ((full, kind), (half, kind + "/2")):
        ids = {i for i, op in ops.items() if op.label == label}
        stats = spans.aggregate(all_spans, ids).get(span)
        size = next(op.points for op in ops.values() if op.label == label)
        sides.append((stats.self_s / len(ids) if stats else 0.0, size))
    (t_full, n_full), (t_half, n_half) = sides
    return spans.slope(t_full, t_half, n_full, n_half)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "negbound" / "__init__.py").is_file() \
            or not (ROOT / "configs" / "sample12.cfg").is_file():
        print(f"error: no negbound sources under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    interpreter_ms = workloads.python_ms("pass", 5)
    setups = []
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_SECONDS
                                      and len(setups) < SETUP_MAX):
        pin(len(setups))
        t0 = perf_counter()
        workload.setup(args.seed)
        setups.append(perf_counter() - t0)
    setup_s = statistics.median(setups)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, runs = per_layer(workload, args.seconds,
                                 [m["name"] for m in declared], interpreter_ms,
                                 args.seed)
    else:
        values, run = end_to_end(workload, args.seconds, setup_s)
        runs = [run]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = sum(len(run.ops) for run in runs)
    failed = sum(run.failed for run in runs)
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "commit": commit(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cli.interpreter_ms": interpreter_ms, "setup_s": setup_s,
            "error_rate": failed / attempted}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"meta": meta, "attempted": attempted,
                                "failed": failed, "metrics": metrics},
                               indent=1) + "\n", encoding="utf-8")
    print("meta " + json.dumps(meta))
    for name, m in metrics.items():
        print(f"{name:48} {m['value']:>14.6g} {m['unit']}")
    print(f"{'error_rate':48} {meta['error_rate']:>14.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
