"""Tests for decentralized partial aggregation (the decomposable sum)."""

import pytest

from repro.errors import AggregationError, ConfigurationError
from repro.network.topology import TopologyConfig
from repro.streaming.aggregates import get_function
from repro.streaming.windows import TumblingWindows
from repro.baselines.base import build_system
from repro.baselines.partial import (
    build_partial_system,
    deserialize_partial,
    serialize_partial,
)
from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects
from repro.bench.workloads import bench_topology, median_query

TOPO = TopologyConfig(n_local_nodes=2)


def make_streams(rate=1_000.0, seconds=3.0, seed=31):
    return event_objects(workload(
        [1, 2], GeneratorConfig(event_rate=rate, duration_s=seconds, seed=seed)
    ))


def per_window_values(streams, window_length_ms=1000):
    assigner = TumblingWindows(window_length_ms)
    per_window = {}
    for events in streams.values():
        for event in events:
            per_window.setdefault(
                assigner.window_for(event.timestamp), []
            ).append(event.value)
    return per_window


class TestSerialization:
    @pytest.mark.parametrize(
        "name,values",
        [
            ("sum", [1.0, 2.5, -3.0]),
        ],
    )
    def test_roundtrip_preserves_result(self, name, values):
        function = get_function(name)
        partial = None
        for value in values:
            lifted = function.lift(value)
            partial = (
                lifted if partial is None else function.combine(partial, lifted)
            )
        state = serialize_partial(function, partial)
        restored = deserialize_partial(function, state)
        assert function.lower(restored) == pytest.approx(
            function.lower(partial)
        )

    def test_state_is_constant_size(self):
        function = get_function("sum")
        small = function.lift(1.0)
        big = small
        for value in range(1_000):
            big = function.combine(big, function.lift(float(value)))
        assert len(serialize_partial(function, small)) == len(
            serialize_partial(function, big)
        )

    def test_non_decomposable_rejected(self):
        median = get_function("median")
        with pytest.raises(AggregationError):
            serialize_partial(median, median.lift(1.0))


class TestSystem:
    @pytest.mark.parametrize(
        "name,oracle",
        [
            ("sum", sum),
        ],
    )
    def test_exact_per_window(self, name, oracle):
        streams = make_streams()
        engine = build_partial_system(name, TOPO)
        report = engine.run(streams)
        truth = per_window_values(streams)
        assert len(report.outcomes) == len(truth)
        for record in report.outcomes:
            assert record.value == pytest.approx(
                float(oracle(truth[record.window]))
            )
            assert record.global_window_size == len(truth[record.window])

    def test_non_decomposable_function_rejected(self):
        with pytest.raises(ConfigurationError):
            build_partial_system("median", TOPO)

    def test_network_cost_independent_of_rate(self):
        slow = build_partial_system("sum", TOPO).run(make_streams(rate=500))
        fast = build_partial_system("sum", TOPO).run(make_streams(rate=4_000))
        assert fast.network.total_bytes == slow.network.total_bytes

    def test_motivating_contrast_with_dema(self):
        # The paper's intro in one assertion: decomposable partials cost a
        # constant per window, while an exact median needs Dema's synopsis
        # + candidate traffic — still far below raw forwarding.
        streams = make_streams(rate=3_000)
        sum_bytes = build_partial_system(
            "sum", bench_topology(2)
        ).run(streams).network.total_bytes
        dema_bytes = build_system(
            "dema", median_query(100), bench_topology(2)
        ).run(streams).network.total_bytes
        scotty_bytes = build_system(
            "scotty", median_query(100), bench_topology(2)
        ).run(streams).network.total_bytes
        assert sum_bytes < dema_bytes < scotty_bytes
        assert sum_bytes < 0.05 * scotty_bytes

    def test_custom_window_length(self):
        streams = make_streams(seconds=2.0)
        engine = build_partial_system("sum", TOPO, window_length_ms=500)
        report = engine.run(streams)
        truth = per_window_values(streams, window_length_ms=500)
        assert len(report.outcomes) == len(truth)

    def test_empty_window_yields_none(self):
        from repro.streaming.events import make_events

        streams = {1: make_events([1.0, 2.0], node_id=1, timestamp_step=1)}
        engine = build_partial_system("sum", TOPO)
        report = engine.run(streams)
        assert report.outcomes[0].value == 3.0
