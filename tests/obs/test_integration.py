"""End-to-end tracing: engines, baselines, reliability and scenarios.

The load-bearing check lives here: the root's phase spans must partition
each window's end-to-end latency *exactly* (they are contiguous by
construction), for every system that can be traced.
"""

import pytest

from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects
from repro.bench.harness import run_workload
from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.core.reliability import ReliabilityConfig
from repro.network.driver import MS_PER_SECOND
from repro.network.topology import TopologyConfig
from repro.obs.export import trace_records
from repro.obs.report import window_breakdown
from repro.obs.scenarios import SCENARIOS, run_scenario
from repro.obs.tracer import NOOP_TRACER, RecordingTracer
from repro.errors import ConfigurationError

ROOT_PHASES = {
    "synopsis_wait", "identification", "candidate_fetch", "calculation",
}


def small_streams(node_ids=(1, 2), rate=800.0, duration=3.0, seed=42):
    return event_objects(workload(
        list(node_ids),
        GeneratorConfig(event_rate=rate, duration_s=duration, seed=seed),
    ))


def traced_run(**engine_kwargs):
    tracer = RecordingTracer()
    query = engine_kwargs.pop("query", QuantileQuery(q=0.5, gamma=8))
    topology = engine_kwargs.pop("topology", TopologyConfig(n_local_nodes=2))
    engine = DemaEngine(query, topology, tracer=tracer, **engine_kwargs)
    report = engine.run(small_streams())
    return tracer, report


class TestNoopDefault:
    def test_engine_defaults_to_shared_noop(self):
        engine = DemaEngine(
            QuantileQuery(q=0.5, gamma=8), TopologyConfig(n_local_nodes=2)
        )
        assert engine.tracer is NOOP_TRACER
        for node in engine.simulator.nodes.values():
            assert node.tracer is NOOP_TRACER

    def test_untraced_run_identical_to_seed_behavior(self):
        query = QuantileQuery(q=0.5, gamma=8)
        plain = DemaEngine(query, TopologyConfig(n_local_nodes=2))
        plain_report = plain.run(small_streams())
        traced_tracer, traced_report = traced_run()
        assert [o.value for o in plain_report.outcomes] == [
            o.value for o in traced_report.outcomes
        ]
        assert [o.result_time for o in plain_report.outcomes] == [
            o.result_time for o in traced_report.outcomes
        ]


class TestTracedDema:
    def test_window_phases_sum_to_latency(self):
        tracer, report = traced_run()
        breakdowns = window_breakdown(trace_records(tracer))
        assert len(breakdowns) == len(report.outcomes)
        for breakdown in breakdowns:
            assert set(breakdown.phases) <= ROOT_PHASES
            assert breakdown.is_consistent, breakdown

    def test_window_spans_match_reported_latency(self):
        tracer, report = traced_run()
        by_window = {
            b.window: b for b in window_breakdown(trace_records(tracer))
        }
        for outcome in report.outcomes:
            key = (outcome.window.start, outcome.window.end)
            latency = outcome.result_time - outcome.window.end / MS_PER_SECOND
            assert by_window[key].end_to_end_s == pytest.approx(latency)

    def test_local_node_spans_recorded(self):
        tracer, _ = traced_run()
        names = {span.name for span in tracer.spans}
        assert {"ingest", "slice", "serve_candidates"} <= names

    def test_all_spans_closed_and_counters_set(self):
        tracer, report = traced_run()
        assert tracer.open_spans == 0
        assert tracer.registry.value("windows_completed_total") == len(
            report.outcomes
        )
        assert tracer.registry.value(
            "messages_total", type="SynopsisMessage"
        ) > 0

    def test_finalize_captures_node_gauges(self):
        tracer, _ = traced_run()
        busy = tracer.registry.value("node_cpu_busy_fraction", node="0")
        assert 0.0 < busy <= 1.0
        assert tracer.registry.value("channel_bytes", src="1", dst="0") > 0


class TestReliabilityRegression:
    def _lossy(self, loss_rate):
        tracer = RecordingTracer()
        engine = DemaEngine(
            QuantileQuery(q=0.5, gamma=8),
            TopologyConfig(n_local_nodes=2, loss_rate=loss_rate, loss_seed=7),
            reliability=ReliabilityConfig(timeout_s=0.05, max_retries=20),
            tracer=tracer,
        )
        report = engine.run(small_streams(rate=500.0, seed=7))
        return tracer, report

    def test_lossless_run_has_zero_retransmits(self):
        tracer, _ = self._lossy(0.0)
        total = sum(
            instrument.value
            for instrument in tracer.registry.instruments()
            if instrument.name == "retransmits_total"
        )
        assert total == 0

    def test_lossy_run_counts_retransmits_and_stays_exact(self):
        tracer, report = self._lossy(0.25)
        total = sum(
            instrument.value
            for instrument in tracer.registry.instruments()
            if instrument.name == "retransmits_total"
        )
        assert total > 0
        lost = sum(
            instrument.value
            for instrument in tracer.registry.instruments()
            if instrument.name == "messages_lost_total"
        )
        assert lost > 0
        # Retries recover the answer: results still come out.
        assert report.outcomes
        breakdowns = window_breakdown(trace_records(tracer))
        for breakdown in breakdowns:
            assert breakdown.is_consistent, breakdown


class TestTracedBaselines:
    @pytest.mark.parametrize(
        "system,phase",
        [
            ("scotty", "sort"),
            ("desis", "merge"),
            ("tdigest", "digest_merge"),
        ],
    )
    def test_baseline_emits_window_and_work_spans(self, system, phase):
        tracer = RecordingTracer()
        report = run_workload(
            system,
            QuantileQuery(q=0.5, gamma=8),
            TopologyConfig(n_local_nodes=2),
            small_streams(),
            tracer=tracer,
        )
        names = {span.name for span in tracer.spans}
        assert "window" in names
        assert phase in names
        assert tracer.registry.value("windows_completed_total") == len(
            report.outcomes
        )
        for breakdown in window_breakdown(trace_records(tracer)):
            assert breakdown.is_consistent  # vacuous: no phase partition

    def test_baselines_have_no_false_retransmits(self):
        for system in ("scotty", "desis", "tdigest"):
            tracer = RecordingTracer()
            run_workload(
                system,
                QuantileQuery(q=0.5, gamma=8),
                TopologyConfig(n_local_nodes=2),
                small_streams(),
                tracer=tracer,
            )
            total = sum(
                instrument.value
                for instrument in tracer.registry.instruments()
                if instrument.name == "retransmits_total"
            )
            assert total == 0, system


class TestScenarios:
    def test_every_scenario_runs_consistently(self):
        for name in SCENARIOS:
            result = run_scenario(name, seed=42)
            assert result.name == name
            assert result.tracer.open_spans == 0
            assert result.report.outcomes
            for breakdown in window_breakdown(trace_records(result.tracer)):
                assert breakdown.is_consistent, (name, breakdown)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario("nope")

    def test_lossy_scenario_shows_retransmits(self):
        result = run_scenario("lossy", seed=42)
        total = sum(
            instrument.value
            for instrument in result.tracer.registry.instruments()
            if instrument.name == "retransmits_total"
        )
        assert total > 0
