"""Tests for concurrent multi-query deployments."""

import pytest

from repro.errors import ConfigurationError, IdentificationError
from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery, group_queries
from repro.core.root_node import DemaRootNode
from repro.core.slicing import slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow
from repro.network.messages import SynopsisMessage
from repro.network.topology import TopologyConfig
from repro.streaming.aggregates import exact_quantile
from repro.bench.generator import GeneratorConfig, workload
from tests.event_objects import event_objects
from repro.streaming.columns import as_event_columns
from repro.streaming.events import make_events
from repro.streaming.windows import Window


def make_streams(rate=1_000.0, seconds=3.0, seed=5):
    return event_objects(workload(
        [1, 2], GeneratorConfig(event_rate=rate, duration_s=seconds, seed=seed)
    ))


class TestGrouping:
    def test_same_shape_same_group(self):
        queries = [
            QuantileQuery(q=0.5, window_length_ms=1000, gamma=50),
            QuantileQuery(q=0.9, window_length_ms=1000, gamma=50),
        ]
        groups = group_queries(queries)
        assert len(groups) == 1
        assert groups[0].quantiles == ((0, 0.5), (1, 0.9))

    def test_different_shapes_split(self):
        queries = [
            QuantileQuery(q=0.5, window_length_ms=1000, gamma=50),
            QuantileQuery(q=0.5, window_length_ms=500, gamma=50),
            QuantileQuery(q=0.5, window_length_ms=1000, gamma=100),
            QuantileQuery(q=0.5, window_length_ms=1000, window_step_ms=500,
                          gamma=50),
        ]
        assert len(group_queries(queries)) == 4

    def test_group_ids_unique_and_dense(self):
        queries = [
            QuantileQuery(q=0.5, gamma=50),
            QuantileQuery(q=0.5, gamma=60),
        ]
        groups = group_queries(queries)
        assert sorted(g.group_id for g in groups) == [0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            group_queries([])
        # The nodes take no queries (a host opens groups at runtime); an
        # engine with nothing to answer is still refused.
        with pytest.raises(ConfigurationError):
            DemaEngine([], TopologyConfig(n_local_nodes=2))

    def test_adaptive_rejected(self):
        with pytest.raises(ConfigurationError):
            group_queries([QuantileQuery(q=0.5, gamma=50, adaptive=True)])


class TestConcurrentCorrectness:
    QUERIES = [
        QuantileQuery(q=0.5, window_length_ms=1000, gamma=50),
        QuantileQuery(q=0.9, window_length_ms=1000, gamma=50),
        QuantileQuery(q=0.25, window_length_ms=500, gamma=30),
        QuantileQuery(
            q=0.5, window_length_ms=1000, window_step_ms=500, gamma=50
        ),
    ]

    @pytest.fixture(scope="class")
    def run(self):
        engine = DemaEngine(
            self.QUERIES, TopologyConfig(n_local_nodes=2)
        )
        streams = make_streams()
        return engine, engine.run(streams), streams

    def test_every_query_every_window_exact(self, run):
        _, report, streams = run
        for query_index, query in enumerate(self.QUERIES):
            assigner = query.assigner()
            per_window = {}
            for events in streams.values():
                for event in events:
                    for window in assigner.assign(event.timestamp):
                        per_window.setdefault(window, []).append(event.value)
            outcomes = report.outcomes_for(query_index)
            assert len(outcomes) == len(per_window)
            for outcome in outcomes:
                assert outcome.value == exact_quantile(
                    per_window[outcome.window], query.q
                )

    def test_matches_single_query_deployments(self, run):
        _, report, streams = run
        for query_index, query in enumerate(self.QUERIES):
            single = DemaEngine(query, TopologyConfig(n_local_nodes=2))
            single_report = single.run(streams)
            single_values = {
                o.window: o.value for o in single_report.outcomes
            }
            for outcome in report.outcomes_for(query_index):
                assert outcome.value == single_values[outcome.window]

    def test_outcome_metadata(self, run):
        _, report, _ = run
        for outcome in report.outcomes:
            assert 0 <= outcome.query_index < len(self.QUERIES)
            assert outcome.q == self.QUERIES[outcome.query_index].q
            assert outcome.result_time >= outcome.window.end / 1000.0


class TestSharing:
    def test_shared_group_cheaper_than_separate_runs(self):
        streams = make_streams(seed=9)
        # Nearby quantiles share candidate slices as well as synopses.
        shared_queries = [
            QuantileQuery(q=0.49, window_length_ms=1000, gamma=200),
            QuantileQuery(q=0.5, window_length_ms=1000, gamma=200),
            QuantileQuery(q=0.51, window_length_ms=1000, gamma=200),
        ]
        concurrent = DemaEngine(
            shared_queries, TopologyConfig(n_local_nodes=2)
        )
        shared_bytes = concurrent.run(streams).network.total_bytes

        separate_bytes = 0
        for query in shared_queries:
            engine = DemaEngine(query, TopologyConfig(n_local_nodes=2))
            separate_bytes += engine.run(streams).network.total_bytes
        # Synopses ship once instead of three times.
        assert shared_bytes < 0.6 * separate_bytes

    def test_single_query_degenerates_to_one_group(self):
        queries = [QuantileQuery(q=0.5, gamma=50)]
        engine = DemaEngine(queries, TopologyConfig(n_local_nodes=2))
        assert len(engine.groups) == 1

    def test_unknown_stream_node_rejected(self):
        engine = DemaEngine(
            [QuantileQuery(q=0.5, gamma=50)], TopologyConfig(n_local_nodes=2)
        )
        with pytest.raises(ConfigurationError):
            engine.run({9: make_events([1.0], node_id=9)})


class _RecordingFabric:
    """Stands in for the simulator: records what the root sends."""

    def __init__(self):
        self.routed = []

    def route(self, message, src, dst, now):
        self.routed.append((message, dst))


class TestRootValidation:
    def test_per_node_size_skew_rejected_even_when_it_cancels(self):
        group = group_queries([QuantileQuery(q=0.5, gamma=10)])[0]
        root = DemaRootNode(0, local_ids=[1, 2], queries=[group.prototype])
        fabric = _RecordingFabric()
        root.attach(fabric)
        window = Window(0, 1000)
        messages = []
        for node_id, skew in ((1, +5), (2, -5)):
            events = make_events(
                [float(v) for v in range(40)], node_id=node_id
            )
            sliced = slice_sorted_events(
                SortedLocalWindow(as_event_columns(events)).seal(), 10, node_id
            )
            messages.append(SynopsisMessage(
                sender=node_id,
                window=window,
                group_id=group.group_id,
                synopses=sliced.synopses,
                local_window_size=sliced.window_size + skew,
            ))
        root.on_message(messages[0], 0.0)
        with pytest.raises(IdentificationError, match="node 1 "):
            root.on_message(messages[1], 0.0)
        assert fabric.routed == []
