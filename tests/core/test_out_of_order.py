"""Tests for out-of-order arrivals and allowed lateness."""

import dataclasses

import pytest

from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.network.simulator import Simulator
from repro.network.driver import BatchSourceDriver, split_arrivals
from repro.network.topology import TopologyConfig
from repro.streaming.aggregates import exact_quantile
from repro.streaming.events import make_events
from repro.streaming.windows import Window
from repro.bench.generator import GeneratorConfig, SensorStreamGenerator
from repro.testing import verify_outcomes


def delayed_arrivals(max_delay_ms, *, rate=800.0, seconds=3.0, seed=9):
    base = GeneratorConfig(
        event_rate=rate, duration_s=seconds, seed=seed,
        max_arrival_delay_ms=max_delay_ms,
    )
    arrivals = {}
    for node_id in (1, 2):
        config = dataclasses.replace(base, replay_offset=node_id)
        arrivals[node_id] = SensorStreamGenerator(config).generate_with_arrivals(
            node_id
        )
    return arrivals


def streams_of(arrivals):
    """The events of ``(event, arrival)`` pairs, per node."""
    return {
        node_id: [event for event, _ in pairs]
        for node_id, pairs in arrivals.items()
    }


class TestGeneratorArrivals:
    def test_zero_delay_means_arrival_equals_event_time(self):
        config = GeneratorConfig(event_rate=100, duration_s=1.0)
        generator = SensorStreamGenerator(config)
        pairs = generator.generate_with_arrivals(1)
        assert all(event.timestamp == arrival for event, arrival in pairs)

    def test_delays_bounded(self):
        config = GeneratorConfig(
            event_rate=500, duration_s=1.0, max_arrival_delay_ms=50
        )
        pairs = SensorStreamGenerator(config).generate_with_arrivals(1)
        assert all(
            0 <= arrival - event.timestamp <= 50 for event, arrival in pairs
        )

    def test_delays_create_disorder(self):
        config = GeneratorConfig(
            event_rate=2_000, duration_s=1.0, max_arrival_delay_ms=50
        )
        pairs = SensorStreamGenerator(config).generate_with_arrivals(1)
        by_arrival = sorted(pairs, key=lambda pair: pair[1])
        timestamps = [event.timestamp for event, _ in by_arrival]
        assert timestamps != sorted(timestamps)

    def test_negative_delay_rejected(self):
        from repro.errors import GeneratorError

        with pytest.raises(GeneratorError):
            GeneratorConfig(
                event_rate=100, duration_s=1.0, max_arrival_delay_ms=-1
            )


class TestFeedUnordered:
    class Recorder:
        def __init__(self):
            self.batches = []

        def ingest(self, events, now):
            self.batches.append((tuple(events), now))
            return now

        def on_window_complete(self, window, now):
            pass

    def test_delivery_in_arrival_order(self):
        simulator = Simulator()
        driver = BatchSourceDriver(simulator)
        operator = self.Recorder()
        events = make_events([1.0, 2.0, 3.0], timestamp_step=100)
        arrivals = [(events[0], 250), (events[1], 100), (events[2], 210)]
        driver.feed_arrivals(operator, *split_arrivals(arrivals))
        simulator.run()
        delivered = [e.value for batch, _ in operator.batches for e in batch]
        assert delivered == [2.0, 3.0, 1.0]
        times = [now for _, now in operator.batches]
        assert times == sorted(times)

    def test_arrival_times_respected(self):
        simulator = Simulator()
        driver = BatchSourceDriver(simulator)
        operator = self.Recorder()
        events = make_events([1.0], timestamp_step=1)
        driver.feed_arrivals(operator, *split_arrivals([(events[0], 777)]))
        simulator.run()
        assert operator.batches[0][1] == pytest.approx(0.777)

    def test_negative_arrival_rejected(self):
        from repro.errors import ConfigurationError

        simulator = Simulator()
        driver = BatchSourceDriver(simulator)
        operator = self.Recorder()
        events = make_events([1.0])
        with pytest.raises(ConfigurationError):
            driver.feed_arrivals(operator, *split_arrivals([(events[0], -1)]))


class TestAllowedLateness:
    def test_lateness_covering_delay_stays_exact(self):
        arrivals = delayed_arrivals(80)
        query = QuantileQuery(q=0.5, gamma=50)
        engine = DemaEngine(query, TopologyConfig(n_local_nodes=2))
        report = engine.run_unordered(arrivals, allowed_lateness_ms=100)
        verification = verify_outcomes(
            report.outcomes, streams_of(arrivals), query
        )
        assert verification.is_exact, verification.summary()
        assert verification.checked == len(report.outcomes)
        assert all(
            engine.simulator.nodes[i].late_events == 0
            for i in engine.topology.local_ids
        )

    def test_insufficient_lateness_drops_and_counts(self):
        arrivals = delayed_arrivals(80)
        query = QuantileQuery(q=0.5, gamma=50)
        engine = DemaEngine(query, TopologyConfig(n_local_nodes=2))
        report = engine.run_unordered(arrivals, allowed_lateness_ms=0)
        dropped = sum(
            engine.simulator.nodes[i].late_events
            for i in engine.topology.local_ids
        )
        assert dropped > 0
        # Results are still produced for every window...
        verification = verify_outcomes(
            report.outcomes, streams_of(arrivals), query
        )
        assert not verification.missing_windows
        windows = {outcome.window for outcome in report.outcomes}
        assert len(windows) == verification.checked == len(report.outcomes)
        # ...over the on-time subset, so window sizes shrink by the drops.
        total_truth = sum(len(p) for p in arrivals.values())
        total_reported = sum(o.global_window_size for o in report.outcomes)
        assert total_reported == total_truth - dropped

    def test_results_exact_over_retained_events(self):
        # Construct arrivals by hand so the late set is known precisely.
        on_time = make_events([10.0, 20.0, 30.0, 40.0], node_id=1,
                              timestamp_step=100)
        straggler = make_events([99.0], node_id=1, start_timestamp=50,
                                start_seq=100)[0]
        arrivals = {
            1: [(event, event.timestamp) for event in on_time]
            + [(straggler, 5_000)],  # arrives long after its window closed
        }
        engine = DemaEngine(
            QuantileQuery(q=0.5, gamma=2), TopologyConfig(n_local_nodes=1)
        )
        report = engine.run_unordered(arrivals, allowed_lateness_ms=0)
        window_result = next(
            o for o in report.outcomes if o.window == Window(0, 1000)
        )
        assert window_result.global_window_size == 4
        assert window_result.value == exact_quantile(
            [10.0, 20.0, 30.0, 40.0], 0.5
        )
        assert engine.simulator.nodes[1].late_events == 1
