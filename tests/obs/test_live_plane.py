"""Unit tests for the live telemetry plane's building blocks.

The full-cluster behavior (timelines across real transports, mid-run
scrapes, crash dumps) lives in ``tests/runtime/test_live_telemetry.py``;
this module pins the pieces in isolation: trace-context semantics and
propagation, deterministic sampling, the flight-recorder ring, timeline
reconstruction from synthetic spans, config validation, and the runtime
sampler against hand-built streams.
"""

import asyncio
import json

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.obs.live import (
    LIVE_PHASES,
    FlightRecorder,
    RuntimeSampler,
    TelemetryConfig,
    TraceContext,
    context_scope,
    current_context,
    should_sample,
    timeline_tree,
    trace_id_for_window,
    window_timeline,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RecordingTracer

u64 = st.integers(min_value=0, max_value=2**64 - 1)


# ----------------------------------------------------------------------
# TraceContext and the ambient contextvar.
# ----------------------------------------------------------------------


class TestTraceContext:
    def test_child_keeps_trace_and_sampling(self):
        parent = TraceContext(trace_id=9, span_id=4, sampled=False)
        child = parent.child(17)
        assert child == TraceContext(trace_id=9, span_id=17, sampled=False)

    @pytest.mark.parametrize("field", ["trace_id", "span_id"])
    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_ids_must_fit_in_u64(self, field, value):
        kwargs = {"trace_id": 1, "span_id": 1, field: value}
        with pytest.raises(ValueError, match="u64"):
            TraceContext(**kwargs)

    def test_scope_nests_and_restores(self):
        assert current_context() is None
        outer = TraceContext(1, 2)
        inner = TraceContext(1, 3)
        with context_scope(outer):
            assert current_context() == outer
            with context_scope(inner):
                assert current_context() == inner
            assert current_context() == outer
        assert current_context() is None

    def test_asyncio_tasks_inherit_the_ambient_context(self):
        async def main():
            async def probe():
                return current_context()

            with context_scope(TraceContext(5, 6)):
                traced = asyncio.ensure_future(probe())
            untraced = asyncio.ensure_future(probe())
            return await traced, await untraced

        traced, untraced = asyncio.run(main())
        assert traced == TraceContext(5, 6)
        assert untraced is None


class TestSampling:
    @given(u64)
    def test_extremes(self, trace_id):
        assert should_sample(trace_id, 1.0)
        assert not should_sample(trace_id, 0.0)

    @given(u64, st.floats(min_value=0.0, max_value=1.0))
    def test_deterministic(self, trace_id, rate):
        assert should_sample(trace_id, rate) == should_sample(trace_id, rate)

    def test_rate_roughly_honored(self):
        # Window starts are the real trace-id population: multiples of 1000.
        ids = [trace_id_for_window(i * 1000) for i in range(2000)]
        hits = sum(should_sample(t, 0.25) for t in ids)
        assert 0.15 * len(ids) < hits < 0.35 * len(ids)

    @given(st.integers(min_value=0, max_value=2**63))
    def test_window_trace_ids_are_stable(self, start):
        assert trace_id_for_window(start) == trace_id_for_window(start)
        assert 0 <= trace_id_for_window(start) <= 2**64 - 1


# ----------------------------------------------------------------------
# TelemetryConfig validation.
# ----------------------------------------------------------------------


class TestTelemetryConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_rate": -0.1},
            {"sample_rate": 1.5},
            {"http_port": -1},
            {"http_port": 70000},
            {"sampler_interval_s": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TelemetryConfig(**kwargs)

    def test_defaults_are_valid_and_frozen(self):
        config = TelemetryConfig()
        assert config.sample_rate == 1.0
        assert config.http_port is None
        with pytest.raises(AttributeError):
            config.sample_rate = 0.5


# ----------------------------------------------------------------------
# FlightRecorder ring semantics and dump format.
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_evicts_oldest(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "fr.jsonl", capacity=3)
        for i in range(5):
            recorder.event("tick", i=i)
        assert len(recorder) == 3
        assert recorder.recorded == 5
        path = recorder.dump(reason="test")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0] == {
            "kind": "flight_recorder_header",
            "reason": "test",
            "capacity": 3,
            "recorded": 5,
            "retained": 3,
        }
        assert [row["i"] for row in rows[1:]] == [2, 3, 4]

    def test_on_failure_names_the_exception(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "fr.jsonl")
        recorder.event("before-death")
        recorder.on_failure(RuntimeError("boom"))
        assert recorder.dumped
        header = json.loads(
            (tmp_path / "fr.jsonl").read_text().splitlines()[0]
        )
        assert header["reason"] == "RuntimeError: boom"

    def test_dump_creates_parent_directories(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "deep" / "er" / "fr.jsonl")
        recorder.dump()
        assert (tmp_path / "deep" / "er" / "fr.jsonl").exists()

    def test_capacity_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(tmp_path / "fr.jsonl", capacity=0)

    def test_taps_a_recording_tracer(self, tmp_path):
        tracer = RecordingTracer()
        recorder = FlightRecorder(tmp_path / "fr.jsonl", capacity=8)
        tracer.on_record = recorder.record
        tracer.record("seal", 1, 0.0, 0.5)
        assert len(recorder) == 1
        assert recorder.dump().read_text().count('"kind": "span"') == 1


# ----------------------------------------------------------------------
# Timeline reconstruction from synthetic spans.
# ----------------------------------------------------------------------


def _synthetic_trace(tracer: RecordingTracer, window_start: int) -> None:
    """One window's live lifecycle: batch → ingest → ... → release."""
    trace_id = trace_id_for_window(window_start)
    batch = tracer.begin(
        "live_stream_batch", 3, 0.00, trace_id=trace_id
    )
    ingest = tracer.begin(
        "live_ingest", 1, 0.01, parent=batch, trace_id=trace_id
    )
    tracer.end(ingest, 0.02)
    tracer.end(batch, 0.02)
    seal = tracer.begin("live_synopsis", 1, 0.03, trace_id=trace_id)
    tracer.end(seal, 0.04)
    ident = tracer.begin(
        "live_identification", 0, 0.05, parent=seal, trace_id=trace_id
    )
    tracer.end(ident, 0.06)
    fetch = tracer.begin(
        "live_candidate_fetch", 1, 0.07, parent=ident, trace_id=trace_id
    )
    tracer.end(fetch, 0.08)
    calc = tracer.begin(
        "live_calculation", 0, 0.09, parent=fetch, trace_id=trace_id
    )
    tracer.end(calc, 0.10)
    release = tracer.begin(
        "live_release", 1, 0.11, parent=calc, trace_id=trace_id
    )
    tracer.end(release, 0.12)


class TestTimeline:
    def test_filters_by_window_trace_id(self):
        tracer = RecordingTracer()
        _synthetic_trace(tracer, 0)
        _synthetic_trace(tracer, 1000)
        tracer.record("unrelated_span", 9, 0.0, 1.0)  # no trace_id attr

        timeline = window_timeline(tracer.spans, 1000)
        assert timeline["trace_id"] == 1000
        assert len(timeline["spans"]) == 7
        assert timeline["phases"] == sorted(LIVE_PHASES)
        assert timeline["nodes"] == [0, 1, 3]

    def test_spans_ordered_by_start_time(self):
        tracer = RecordingTracer()
        _synthetic_trace(tracer, 0)
        starts = [row["start"] for row in window_timeline(tracer.spans, 0)["spans"]]
        assert starts == sorted(starts)

    def test_tree_nests_by_parentage(self):
        tracer = RecordingTracer()
        _synthetic_trace(tracer, 0)
        tree = timeline_tree(window_timeline(tracer.spans, 0))
        assert [root["name"] for root in tree] == [
            "live_stream_batch", "live_synopsis",
        ]
        batch, seal = tree
        assert [c["name"] for c in batch["children"]] == ["live_ingest"]
        chain = []
        node = seal
        while True:
            chain.append(node["name"])
            if not node["children"]:
                break
            (node,) = node["children"]
        assert chain == [
            "live_synopsis",
            "live_identification",
            "live_candidate_fetch",
            "live_calculation",
            "live_release",
        ]

    def test_empty_window_yields_empty_timeline(self):
        timeline = window_timeline([], 5000)
        assert timeline["spans"] == []
        assert timeline["phases"] == []
        assert timeline_tree(timeline) == []


# ----------------------------------------------------------------------
# RuntimeSampler against hand-built streams.
# ----------------------------------------------------------------------


class TestRuntimeSampler:
    def test_samples_loop_lag_and_stream_gauges(self):
        from repro.runtime.transport import memory_pipe

        async def main():
            registry = MetricsRegistry()
            sampler = RuntimeSampler(registry, interval_s=0.01)
            a, b = memory_pipe()
            sampler.register_stream(a, src=3, dst=1)
            sampler.start()
            await asyncio.sleep(0.08)
            await sampler.stop()
            return registry, sampler.samples

        registry, samples = asyncio.run(main())
        assert samples >= 2
        text = registry.render_prometheus()
        assert "live_event_loop_lag_seconds" in text
        assert 'live_send_backlog{dst="1",src="3"}' in text

    def test_stop_without_start_is_safe(self):
        async def main():
            sampler = RuntimeSampler(MetricsRegistry(), interval_s=0.01)
            await sampler.stop()
            return sampler.samples

        assert asyncio.run(main()) == 0
