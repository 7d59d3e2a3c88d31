"""Lint: marked hot-path modules must never construct ``Event`` objects.

The columnar refactor's whole payoff is that event batches cross the
stream → local → root pipeline as parallel arrays; a single stray
``Event(...)`` constructor in one of these modules silently reintroduces
the per-event allocation the refactor removed, and nothing else would
catch it (the bit-identity suite compares *results*, not allocation
counts).  Every module that opts into the discipline carries a
``Hot-path module:`` marker comment naming this test; the lint walks the
whole package so a marked module can never silently drop out of the
checked set by being moved.
"""

import pathlib
import re

import pytest

import repro
from repro.streaming.columns import EventColumns, get_backend

MARKER = "Hot-path module:"

#: ``Event(`` as a constructor call: not attribute-qualified (so
#: ``asyncio.Event()`` stays legal) and not a prefix of a longer name
#: (``EventColumns(``, ``EventBatchMessage(``).
EVENT_CALL = re.compile(r"(?<![A-Za-z0-9_.])Event\(")

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent

#: The modules expected to carry the marker today; the lint fails if one
#: loses it, so the discipline cannot be turned off by deleting a comment.
EXPECTED_MARKED = {
    "core/calculation.py",
    "core/local_node.py",
    "core/slicing.py",
    "core/sorted_window.py",
    "runtime/codec.py",
    "runtime/servers.py",
    "runtime/transport.py",
}


def _marked_modules():
    return {
        path.relative_to(PACKAGE_ROOT).as_posix(): path
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if MARKER in path.read_text()
    }


def test_expected_modules_are_marked():
    assert set(_marked_modules()) == EXPECTED_MARKED


def test_no_event_construction_in_hot_path_modules():
    violations = []
    for name, path in _marked_modules().items():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if EVENT_CALL.search(line):
                violations.append(f"{name}:{lineno}: {line.strip()}")
    assert not violations, (
        "Event objects constructed in hot-path modules:\n"
        + "\n".join(violations)
    )


def test_lint_regex_matches_constructor_calls_only():
    assert EVENT_CALL.search("event = Event(value=1.0)")
    assert EVENT_CALL.search("return [Event(*t) for t in rows]")
    assert not EVENT_CALL.search("self.done = asyncio.Event()")
    assert not EVENT_CALL.search("cols = EventColumns.from_wire(raw)")
    assert not EVENT_CALL.search("msg = EventBatchMessage(1, w)")


def test_live_path_never_iterates_a_columnar_batch(monkeypatch):
    """The regex cannot see ``list(run)``: iterating an ``EventColumns`` is
    the other way to pay one ``Event`` per row, and root calculation used
    to.  With iteration booby-trapped, the calculation step and a whole
    live run at the library-default gamma must still complete."""
    from repro.bench.generator import GeneratorConfig, workload_columns
    from repro.core.calculation import calculate_quantile
    from repro.core.query import QuantileQuery
    from repro.core.slicing import slice_sorted_events
    from repro.core.sorted_window import SortedLocalWindow
    from repro.core.window_cut import window_cut
    from repro.runtime.cluster import LiveClusterConfig, run_live

    if get_backend() != "numpy":
        pytest.skip("stdlib columns backend: the object path is the contract")
    config = GeneratorConfig(event_rate=20_000.0, duration_s=2.0, seed=11)
    streams = workload_columns([1, 2], config)

    def trap(self):
        raise AssertionError("EventColumns iterated on the live path")

    monkeypatch.setattr(EventColumns, "__iter__", trap)

    sliced = {}
    for node_id, events in streams.items():
        window = SortedLocalWindow()
        window.add_all(events)
        sliced[node_id] = slice_sorted_events(window.seal(), 1_000, node_id)
    synopses = [s for cut in sliced.values() for s in cut.synopses]
    total = sum(s.count for s in synopses)
    cut = window_cut(synopses, (total + 1) // 2)
    runs = [sliced[s.node_id].run_for(s.slice_index) for s in cut.candidates]
    assert len(runs) > 1
    assert calculate_quantile(cut, runs).value > 0.0

    report = run_live(
        LiveClusterConfig(
            n_locals=2,
            streams_per_local=1,
            query=QuantileQuery(q=0.5, gamma=10_000),
            transport="memory",
            timeout_s=60.0,
        ),
        streams,
    )
    answered = [o for o in report.outcomes if o.value is not None]
    assert len(answered) >= 2
    assert sum(o.candidate_events for o in answered) > 0
