"""Run one workload of the bmsym benchmark and print its metrics.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
One client calls the package in a closed loop: the next operation starts
when the previous one has returned.  The run repeats whole rounds of
operations until --seconds have passed, checks every result outside the
timed region, and prints a summary and, as its last line, one JSON object
with correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds on the same inputs, reports <span>.busy_s and
<span>.calls for every layer span and the tracing overhead in ops/s, and
writes the spans to .bench_out/trace-<workload>.tsv.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("classify", "group", "cli")
# latency_tail_ms is a fixed percentile per workload, so that runs of two
# commits compare the same percentile: the highest of p75, p80, p85, p90,
# p95 and p99 with at least ten operations beyond it in the slowest run of
# the length set in BENCHMARK.json at the benchmark's first commit.
TAIL_PERCENTILE = {"classify": 95, "group": 99, "cli": 80}
SETUP_IMPORTS = 21
# Other tenants of the machine slow this process's CPU by up to 2x for
# periods of one second to minutes, long enough to move whole sets of runs.
# A probe is timed just before each operation: a fixed piece of pure-Python
# work for the in-process workloads, whose operations slowed by the same
# factor over two-second windows to within a few percent, and a bare
# interpreter spawn for cli and for the imports behind setup_s, which are
# mostly spawn and import work that the pure-Python probe tracks poorly.
# Each time is scaled by the probe's reference reading over the median
# reading in the PROBE_WINDOW operations around it (for an import, the
# reading just before it), so the figures read as on a CPU where the probe
# takes its reference time, close to its fastest readings on the machine
# the benchmark was built on.
REFERENCE_PROBE_S = 0.7e-3
REFERENCE_SPAWN_S = 50e-3
PROBE_WINDOW = 17
PIN_READINGS = 100


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, 7)
    return perf_counter() - start


def pin_to_fastest_cpu() -> int:
    """Pin this process, and so its children, to the CPU on which the probe
    runs fastest now, so its readings come from the CPU the operations run on."""
    readings = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        readings[cpu] = min(probe() for _ in range(PIN_READINGS))
    cpu = min(readings, key=readings.get)
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(ascending, p: float) -> float:
    """Nearest-rank percentile: the least value with p percent of the values
    at or below it."""
    return ascending[max(0, math.ceil(p / 100 * len(ascending)) - 1)]


@dataclass
class Tally:
    reference_s: float = REFERENCE_PROBE_S  # the probe's reference reading
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)  # kinds that failed unexpectedly
    latencies: array = field(default_factory=lambda: array("d"))
    readings: array = field(default_factory=lambda: array("d"))  # one per timed operation

    def speed_factors(self) -> list[float]:
        """Per timed operation: the reference reading over the median probe
        reading in the window of operations around it."""
        half = PROBE_WINDOW // 2
        return [self.reference_s / statistics.median(self.readings[max(0, i - half):i + half + 1])
                for i in range(len(self.latencies))]

    def scaled(self) -> list[float]:
        """Scaled latencies of the timed operations, in ascending order."""
        return sorted(x * f for x, f in zip(self.latencies, self.speed_factors()))

    def ops_per_s(self) -> float:
        """Timed operations per second of their summed scaled latency."""
        return len(self.latencies) / sum(self.scaled())


def run_round(ops, tally: Tally, tracer=None, read_probe=probe) -> None:
    """Run each operation once, timed after a probe reading, then check it."""
    for op in ops:
        reading = read_probe()
        try:
            if tracer is None:
                start = perf_counter()
                result = op.call()
                elapsed = perf_counter() - start
            else:
                root = tracer.open(f"op.{op.kind}")
                result = op.traced(tracer, root)
                tracer.close(root)
                elapsed = tracer.ends[root] - tracer.starts[root]
            ok = op.check(result)
        except Exception as exc:  # a raising call is a failed operation
            ok = False
            print(f"{op.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        tally.attempted += 1
        if not ok:
            tally.failed += 1
            if not op.known_fault:
                tally.unexpected.append(op.kind)
        elif not op.known_fault:
            tally.latencies.append(elapsed)
            tally.readings.append(reading)
        if tracer is not None and op.replay is not None:
            root = tracer.open(f"replay.{op.kind}")
            if not op.replay(tracer, root):
                tally.unexpected.append(f"replay.{op.kind}")
            tracer.close(root)


def measure(workload, seconds: float, tracer=None) -> tuple[Tally, Tally | None]:
    """Whole rounds until `seconds` have passed.  With a tracer, each round
    runs untraced and then traced on the same inputs; returns both tallies."""
    if workload.in_children:
        from workloads import child_env, spawn_seconds

        env = child_env(ROOT)
        read_probe, reference = (lambda: spawn_seconds(env, ROOT)), REFERENCE_SPAWN_S
    else:
        read_probe, reference = probe, REFERENCE_PROBE_S
    plain = Tally(reference)
    traced = Tally(reference) if tracer is not None else None
    deadline = perf_counter() + seconds
    index = 0
    while True:
        ops = workload.rounds[index % len(workload.rounds)]
        run_round(ops, plain, read_probe=read_probe)
        if tracer is not None:
            run_round(ops, traced, tracer, read_probe)
        index += 1
        if perf_counter() >= deadline:
            return plain, traced


def setup_seconds(workload, env) -> float:
    """Median time to import the package in a fresh interpreter, each import
    scaled by a bare interpreter spawn timed just before it."""
    from workloads import spawn_seconds, time_import

    times = []
    for _ in range(SETUP_IMPORTS):
        reading = spawn_seconds(env, ROOT)
        start, end, _ = time_import(workload.import_target, env, ROOT)
        times.append((end - start) * REFERENCE_SPAWN_S / reading)
    return statistics.median(times)


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds, lines) -> tuple[Tally, dict]:
    from workloads import child_env

    setup = setup_seconds(workload, child_env(ROOT))
    tally, _ = measure(workload, seconds)
    latencies = tally.scaled()
    p = TAIL_PERCENTILE[workload.name]
    lines.append(f"{len(latencies)} timed operations; latency_tail_ms is p{p:g}, "
                 f"with {len(latencies) * (100 - p) / 100:.0f} beyond it; speed scale factor: "
                 f"median {statistics.median(tally.speed_factors()):.2f}")
    metrics = {
        "setup_s": metric(setup, "s"),
        "ops_per_s": metric(tally.ops_per_s(), "ops/s"),
        "latency_p50_ms": metric(percentile(latencies, 50) * 1e3, "ms"),
        "latency_tail_ms": metric(percentile(latencies, p) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(workload), "MB"),
    }
    return tally, metrics


def cli_main_lines(tracer) -> list[str]:
    """Median in-process cli.main time per subcommand."""
    by_kind: dict[str, list[float]] = {}
    for name, start, end, parent in zip(tracer.names, tracer.starts, tracer.ends,
                                        tracer.parents):
        if name == "cli.main":
            kind = tracer.names[parent].removeprefix("replay.cli.")
            by_kind.setdefault(kind, []).append(end - start)
    return [f"cli.main {kind}: median {statistics.median(times) * 1e3:.2f} ms"
            for kind, times in by_kind.items()]


def per_layer(workload, seconds, lines) -> tuple[Tally, dict]:
    from tracing import Tracer

    tracer = Tracer(workload.name)
    if workload.trace_setup is not None:
        lines += workload.trace_setup(tracer)
    plain, traced = measure(workload, seconds, tracer)
    overhead = plain.ops_per_s() - traced.ops_per_s()
    lines.append(f"tracing overhead: {plain.ops_per_s():.4g} ops/s untraced, "
                 f"{traced.ops_per_s():.4g} ops/s traced on the same rounds "
                 f"({overhead / plain.ops_per_s() * 100:+.1f}%)")
    if workload.name == "cli":
        lines += cli_main_lines(tracer)
    metrics = {}
    for name, (busy, calls) in tracer.layer_metrics().items():
        metrics[f"{name}.busy_s"] = metric(busy, "s")
        metrics[f"{name}.calls"] = metric(calls, "count")
    metrics["trace.overhead_ops_per_s"] = metric(overhead, "ops/s")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload.name}.tsv")
    tracer.write(path)
    lines.append(f"{len(tracer.names)} spans written to {os.path.relpath(path, ROOT)}")
    plain.failed += traced.failed
    plain.attempted += traced.attempted
    plain.unexpected += traced.unexpected
    return plain, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bmsym", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a bmsym checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bmsym
    import workloads

    if os.path.dirname(os.path.abspath(bmsym.__file__)) != os.path.join(SRC, "bmsym"):
        print(f"error: bmsym imported from {bmsym.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cpu = pin_to_fastest_cpu()
    build = {"classify": workloads.classify_workload, "group": workloads.group_workload,
             "cli": workloads.cli_workload}[args.workload]
    workload = build(args.seed, ROOT)
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
             f"trace {args.trace}; one client, closed loop, pinned to CPU {cpu}"]
    run = per_layer if args.trace else end_to_end
    tally, metrics = run(workload, args.seconds, lines)
    lines.append(f"attempted {tally.attempted}, failed {tally.failed}")
    if tally.unexpected:
        lines.append(f"UNEXPECTED failures: {sorted(set(tally.unexpected))}")
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
