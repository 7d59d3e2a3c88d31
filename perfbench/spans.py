"""In-memory spans recorded from outside the program, around each layer.

The benchmark adds no tracing inside ``src/``: a span here is one call of
a layer's public function, timed by the caller.  Spans are kept in memory
and written out as JSONL when the run ends.  A span's *self time* is its
duration minus the part its child spans cover; a stage's busy time is the
sum of the self times of the spans that carry its name, so stages add up
to a budget without double counting.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

__all__ = ["SpanLog"]


class SpanLog:
    """Spans of one traced run of one workload.

    A row is ``[span id, parent id or None, name, start ns, end ns]``;
    every span of the run shares :attr:`workload` as its identifier.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: list[list] = []

    def open(self, name: str, parent: "int | None" = None) -> int:
        """Start a span that will have children; returns its id."""
        self.rows.append([len(self.rows), parent, name, perf_counter_ns(), 0])
        return len(self.rows) - 1

    def close(self, span_id: int) -> None:
        self.rows[span_id][4] = perf_counter_ns()

    def call(self, name: str, parent: "int | None", function, *args):
        """Run ``function(*args)`` inside a leaf span; returns its result."""
        start = perf_counter_ns()
        result = function(*args)
        end = perf_counter_ns()
        self.rows.append([len(self.rows), parent, name, start, end])
        return result

    def self_ns(self) -> "list[int]":
        """Self time of every span, indexed by span id."""
        own = [end - start for _, _, _, start, end in self.rows]
        for _, parent, _, start, end in self.rows:
            if parent is not None:
                own[parent] -= end - start
        return own

    def busy_ns(self) -> "dict[str, int]":
        """Total self time per span name."""
        busy: dict[str, int] = {}
        for row, own in zip(self.rows, self.self_ns()):
            busy[row[2]] = busy.get(row[2], 0) + own
        return busy

    def counts(self) -> "dict[str, int]":
        """Number of spans per span name."""
        counts: dict[str, int] = {}
        for row in self.rows:
            counts[row[2]] = counts.get(row[2], 0) + 1
        return counts

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span: ids, name, times and self time."""
        with open(path, "w", encoding="utf-8") as handle:
            for row, own in zip(self.rows, self.self_ns()):
                span_id, parent, name, start, end = row
                handle.write(json.dumps({
                    "workload": self.workload, "id": span_id,
                    "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "self_ns": own,
                }) + "\n")
