"""Acceptance tests for the live telemetry plane.

The headline claims from the tracing issue, each pinned here:

* **Causal timelines** — a traced live run yields a complete per-window
  timeline spanning all three layers (streams → locals → root), with
  every wire hop attributed to a parent span, on both transports.
* **Scrape endpoint** — ``/metrics`` serves valid Prometheus text while
  the cluster is live (plus ``/healthz``, ``/summary``, ``/timeline``).
* **Flight recorder** — when the cluster's :class:`FailureLatch` trips
  under chaos, the ring buffer is dumped at the moment of death and the
  dump is non-empty.
* **Zero-cost off, cheap on** — results with telemetry enabled are
  bit-identical to a bare run, within a bounded wall-clock overhead.

Everything is seeded; SIGALRM hard timeouts turn hangs into failures.
"""

import contextlib
import functools
import json
import queue
import re
import signal
import threading
import urllib.error
import urllib.request

import pytest

from repro.bench.generator import GeneratorConfig, workload
from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.errors import TransportError
from repro.faults.plan import FaultEvent, FaultPlan, ToleranceConfig
from repro.mesh.routing import shard_node_id
from repro.network.topology import TopologyConfig
from repro.obs.live import (
    LIVE_PHASES,
    TelemetryConfig,
    timeline_tree,
    window_timeline,
)
from repro.obs.tracer import RecordingTracer
from repro.runtime.cluster import LiveClusterConfig, run_live

#: Fixed γ, fixed seed: both substrates and both telemetry settings must
#: agree bit-for-bit, so nothing may feed timing back into the answer.
QUERY = QuantileQuery(q=0.5, gamma=64)

N_LOCALS = 2

#: Live phases that only exist because a frame arrived: each must parent
#: onto the span named in that frame's trace-context extension.
_WIRE_HOP_PHASES = frozenset(LIVE_PHASES) - {"live_stream_batch", "live_synopsis"}


@contextlib.contextmanager
def hard_timeout(seconds: int):
    def on_alarm(signum, frame):
        raise TimeoutError(f"telemetry test exceeded {seconds}s wall clock")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@functools.lru_cache(maxsize=1)
def _streams():
    generated = workload(
        list(range(1, N_LOCALS + 1)),
        GeneratorConfig(event_rate=300.0, duration_s=3.0, seed=11),
    )
    return {node: tuple(events) for node, events in generated.items()}


@functools.lru_cache(maxsize=1)
def _simulated_values():
    report = DemaEngine(
        QUERY, TopologyConfig(n_local_nodes=N_LOCALS)
    ).run({node: list(events) for node, events in _streams().items()})
    return {
        outcome.window: outcome.value
        for outcome in report.outcomes
        if outcome.value is not None
    }


def _live_values(report):
    return {
        outcome.window: outcome.value
        for outcome in report.outcomes
        if outcome.value is not None
    }


def _config(**overrides):
    defaults = dict(
        n_locals=N_LOCALS,
        streams_per_local=2,
        query=QUERY,
        transport="memory",
        timeout_s=60.0,
    )
    defaults.update(overrides)
    return LiveClusterConfig(**defaults)


@functools.lru_cache(maxsize=None)
def _traced_run(transport: str):
    """One tolerant, fully-traced run; cached per transport."""
    tracer = RecordingTracer()
    config = _config(
        transport=transport,
        # Tolerant mode is what sends WindowReleaseMessage — without it the
        # lifecycle has no live_release hop to trace.
        tolerance=ToleranceConfig(),
        telemetry=TelemetryConfig(),
    )
    with hard_timeout(120):
        report = run_live(config, _streams(), tracer=tracer)
    return report, tracer


# ----------------------------------------------------------------------
# Causal timelines across the wire, both transports.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("transport", ["memory", "tcp"])
class TestCausalTimeline:
    def test_results_stay_bit_identical_under_tracing(self, transport):
        report, _ = _traced_run(transport)
        expected = _simulated_values()
        assert len(expected) >= 3
        assert _live_values(report) == expected

    def test_first_window_covers_every_phase_and_layer(self, transport):
        _, tracer = _traced_run(transport)
        timeline = window_timeline(tracer.spans, 0)
        # Every lifecycle phase appears...
        assert set(LIVE_PHASES) <= set(timeline["phases"])
        # ...across all three layers: the root (shard 0 of one), locals
        # 1..2, and the streams above them.
        nodes = set(timeline["nodes"])
        assert shard_node_id(0) in nodes
        assert nodes & set(range(1, N_LOCALS + 1))
        assert any(node > shard_node_id(0) for node in nodes)

    def test_every_wire_hop_has_a_resolvable_parent(self, transport):
        _, tracer = _traced_run(transport)
        timeline = window_timeline(tracer.spans, 0)
        ids = {row["id"] for row in timeline["spans"]}
        hops = [
            row for row in timeline["spans"] if row["name"] in _WIRE_HOP_PHASES
        ]
        assert hops
        for row in hops:
            assert row["parent"] is not None, row["name"]
            assert row["parent"] in ids, row["name"]

    def test_timeline_tree_roots_fan_out(self, transport):
        _, tracer = _traced_run(transport)
        tree = timeline_tree(window_timeline(tracer.spans, 0))
        roots = {root["name"] for root in tree}
        # Roots are spans that start a trace on their own clock: the stream
        # batches and the locals' seal decision (min-watermark has no
        # single causal parent).
        assert roots == {"live_stream_batch", "live_synopsis"}
        assert all(root["children"] for root in tree)

    def test_every_window_is_reconstructable(self, transport):
        report, tracer = _traced_run(transport)
        length = QUERY.window_length_ms
        for window in _live_values(report):
            timeline = window_timeline(tracer.spans, window.start)
            assert set(LIVE_PHASES) <= set(timeline["phases"]), window
        assert report.telemetry["traced_live_spans"] > 0
        assert length == 1000  # three windows in the 3 s workload


# ----------------------------------------------------------------------
# The scrape endpoint, hit while the cluster is actually serving.
# ----------------------------------------------------------------------

#: One Prometheus text-format sample line.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
    r"([-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[-+]?Inf|NaN)$"
)


def _get(port: int, path: str) -> tuple[int, str]:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10.0
    ) as response:
        return response.status, response.read().decode("utf-8")


def test_scrape_endpoint_serves_during_a_live_run():
    ports: "queue.Queue[int]" = queue.Queue()
    outcome: dict = {}

    config = _config(
        streams_per_local=1,
        time_scale=1.0,  # paced: the run stays alive long enough to scrape
        telemetry=TelemetryConfig(http_port=0, announce=ports.put),
    )
    streams = workload(
        [1, 2], GeneratorConfig(event_rate=150.0, duration_s=2.0, seed=23)
    )

    def runner():
        try:
            outcome["report"] = run_live(config, streams)
        except BaseException as exc:  # surfaced after join
            outcome["error"] = exc

    thread = threading.Thread(target=runner, daemon=True)
    with hard_timeout(120):
        thread.start()
        port = ports.get(timeout=30.0)

        status, text = _get(port, "/metrics")
        assert status == 200
        lines = [line for line in text.splitlines() if line]
        assert any(line.startswith("# HELP") for line in lines)
        assert any(line.startswith("# TYPE") for line in lines)
        samples = [line for line in lines if not line.startswith("#")]
        assert samples
        for line in samples:
            assert _SAMPLE_RE.match(line), line
        assert "live_event_loop_lag_seconds" in text

        status, text = _get(port, "/healthz")
        assert status == 200
        assert json.loads(text) == {"ok": True}

        status, text = _get(port, "/summary")
        assert status == 200
        summary = json.loads(text)
        assert summary["transport"] == "memory"
        assert summary["windows_expected"] >= 1
        assert {link["layer"] for link in summary["links"]} == {
            "stream_local", "local_root",
        }

        status, text = _get(port, "/timeline/0")
        assert status == 200
        timeline = json.loads(text)
        assert timeline["window_start"] == 0
        assert timeline["trace_id"] == 0

        thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert "error" not in outcome, outcome.get("error")
    assert outcome["report"].telemetry["http_port"] == port
    assert outcome["report"].telemetry["sampler_samples"] > 0


def test_endpoint_rejects_unknown_paths_and_bad_windows():
    ports: "queue.Queue[int]" = queue.Queue()
    config = _config(
        streams_per_local=1,
        time_scale=1.0,
        telemetry=TelemetryConfig(http_port=0, announce=ports.put),
    )
    streams = workload(
        [1, 2], GeneratorConfig(event_rate=100.0, duration_s=1.0, seed=29)
    )
    done: dict = {}

    def runner():
        try:
            done["report"] = run_live(config, streams)
        except BaseException as exc:
            done["error"] = exc

    thread = threading.Thread(target=runner, daemon=True)
    with hard_timeout(120):
        thread.start()
        port = ports.get(timeout=30.0)
        for path in ("/nope", "/timeline/not-a-number"):
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(port, path)
            assert info.value.code in (400, 404)
        thread.join(timeout=60.0)
    assert "error" not in done, done.get("error")


# ----------------------------------------------------------------------
# Flight recorder: dump at the moment the failure latch trips.
# ----------------------------------------------------------------------


def test_flight_recorder_dumps_when_the_latch_trips(tmp_path):
    dump = tmp_path / "flight.jsonl"
    # Partition the locals off the root and never heal; with a single dial
    # attempt each local exhausts its reconnects and the latch trips.
    plan = FaultPlan(
        seed=7,
        horizon_s=3.0,
        events=(FaultEvent(at_s=0.3, kind="partition_start"),),
    )
    config = _config(
        streams_per_local=1,
        time_scale=0.3,
        faults=plan,
        tolerance=ToleranceConfig(
            reconnect_base_delay_s=0.01,
            reconnect_max_delay_s=0.02,
            reconnect_jitter=0.0,
            reconnect_max_attempts=1,
        ),
        telemetry=TelemetryConfig(flight_recorder_path=str(dump)),
    )
    with hard_timeout(120), pytest.raises(TransportError, match="task failed"):
        run_live(config, _streams())

    assert dump.exists()
    rows = [json.loads(line) for line in dump.read_text().splitlines()]
    assert len(rows) > 1  # header plus actual evidence
    header = rows[0]
    assert header["kind"] == "flight_recorder_header"
    assert header["reason"]
    assert header["retained"] == len(rows) - 1
    # The ring held real telemetry, not just the header.
    kinds = {row["kind"] for row in rows[1:]}
    assert kinds & {"span", "message", "event"}


def test_flight_recorder_stays_quiet_on_a_healthy_run(tmp_path):
    dump = tmp_path / "flight.jsonl"
    config = _config(
        streams_per_local=1,
        telemetry=TelemetryConfig(flight_recorder_path=str(dump)),
    )
    with hard_timeout(120):
        report = run_live(config, _streams())
    assert _live_values(report) == _simulated_values()
    assert not dump.exists()
    assert report.telemetry["flight_recorder_dumped"] is False


# ----------------------------------------------------------------------
# Telemetry is bit-identical on results and cheap on wall clock.
# ----------------------------------------------------------------------


def test_telemetry_results_bit_identical_within_overhead_budget():
    import time

    with hard_timeout(240):
        started = time.perf_counter()
        bare = run_live(_config(), _streams())
        t_off = time.perf_counter() - started

        started = time.perf_counter()
        traced = run_live(
            _config(telemetry=TelemetryConfig()), _streams()
        )
        t_on = time.perf_counter() - started

    assert _live_values(bare) == _live_values(traced) == _simulated_values()
    assert traced.telemetry["traced_live_spans"] > 0
    # 10% budget with absolute slack for scheduler noise on short runs.
    assert t_on <= 1.10 * t_off + 0.25, (t_on, t_off)
