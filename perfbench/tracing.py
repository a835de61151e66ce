"""In-memory spans for the traced run.

A span is (name, start, end, parent, workload).  Every operation opens a
root span, and each call the benchmark makes into a package layer is a
child span under it, so the spans of one operation share the root's id.
Spans are kept in flat arrays while the run lasts and written out once,
when it ends; per-layer busy time and call counts are derived from them.
"""

from __future__ import annotations

from array import array
from time import perf_counter

# The layer spans, in the order they are reported.  Each records
# <span>.busy_s and <span>.calls in the traced run of every workload.
LAYER_SPANS = (
    "permutation.compose",
    "permutation.inverse",
    "group.compose",
    "group.inverse",
    "group.apply",
    "group.to_dense",
    "group.metric_power",
    "matrix.construct",
    "matrix.matmul",
    "classify.degenerate_scan",
    "classify.permanent",
    "classify.extract_pattern",
    "classify.witness_recheck",
    "classify.membership",
    "classify.oracle",
    "sampling.random_scaled_perm",
    "lie.exp",
    "lie.log",
    "lie.multiply",
    "lie.structure_constants",
    "serialize.parse",
    "serialize.dump",
    "cli.import",
    "cli.import_numpy",
    "cli.parse_args",
    "cli.main",
)

NO_PARENT = -1


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")

    def record(self, name: str, start: float, end: float, parent: int = NO_PARENT) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def open(self, name: str) -> int:
        """Start a root span; close() sets its end."""
        now = perf_counter()
        return self.record(name, now, now)

    def close(self, span: int) -> None:
        self.ends[span] = perf_counter()

    def call(self, name: str, parent: int, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named name."""
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.record(name, start, perf_counter(), parent)
        return result

    def layer_metrics(self) -> dict[str, tuple[float, int]]:
        """(busy seconds, calls) per layer span; 0 for a layer not entered."""
        totals = {name: [0.0, 0] for name in LAYER_SPANS}
        for name, start, end in zip(self.names, self.starts, self.ends):
            entry = totals.get(name)
            if entry is not None:
                entry[0] += end - start
                entry[1] += 1
        return {name: (busy, calls) for name, (busy, calls) in totals.items()}

    def write(self, path) -> None:
        """Tab-separated: id, name, start, end, parent, workload."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart\tend\tparent\tworkload\n")
            for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                out.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{self.workload}\n")
