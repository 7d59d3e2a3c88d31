"""Out-of-order arrivals through the baseline systems."""

import dataclasses

import pytest

from repro.core.query import QuantileQuery
from repro.network.topology import TopologyConfig
from repro.baselines.base import build_system
from repro.bench.generator import GeneratorConfig, SensorStreamGenerator
from repro.testing import verify_outcomes

QUERY = QuantileQuery(q=0.5, gamma=30)
TOPO = TopologyConfig(n_local_nodes=2)


def delayed_arrivals(max_delay_ms, *, seed=13):
    base = GeneratorConfig(
        event_rate=600.0, duration_s=3.0, seed=seed,
        max_arrival_delay_ms=max_delay_ms,
    )
    arrivals = {}
    for node_id in (1, 2):
        config = dataclasses.replace(base, replay_offset=node_id)
        arrivals[node_id] = SensorStreamGenerator(
            config
        ).generate_with_arrivals(node_id)
    return arrivals


def streams_of(arrivals):
    """The events of ``(event, arrival)`` pairs, per node."""
    return {
        node_id: [event for event, _ in pairs]
        for node_id, pairs in arrivals.items()
    }


@pytest.mark.parametrize("system", ["scotty", "desis", "tdigest"])
class TestBaselinesUnderDisorder:
    def test_exact_or_close_with_covering_lateness(self, system):
        arrivals = delayed_arrivals(60)
        engine = build_system(system, QUERY, TOPO)
        report = engine.run_unordered(arrivals, allowed_lateness_ms=80)
        verification = verify_outcomes(
            report.outcomes, streams_of(arrivals), QUERY
        )
        assert not verification.missing_windows
        windows = {outcome.window for outcome in report.outcomes}
        assert len(windows) == verification.checked == len(report.outcomes)
        if system == "tdigest":
            for _, value, expected in verification.mismatches:
                assert value == pytest.approx(expected, rel=0.05)
        else:
            assert verification.is_exact, verification.summary()

    def test_insufficient_lateness_counts_drops(self, system):
        arrivals = delayed_arrivals(60)
        engine = build_system(system, QUERY, TOPO)
        engine.run_unordered(arrivals, allowed_lateness_ms=0)
        if system == "scotty":
            # Scotty's locals forward immediately; lateness shows at the root.
            dropped = engine.root.late_events
        else:
            dropped = sum(
                engine.simulator.nodes[i].late_events
                for i in engine.topology.local_ids
            )
        assert dropped > 0


class TestDesisScottyAgreementUnderDisorder:
    def test_same_retained_subset(self):
        # With a common lateness bound both exact systems retain the same
        # events, so their per-window answers agree even when drops happen.
        arrivals = delayed_arrivals(60)
        desis = build_system("desis", QUERY, TOPO).run_unordered(
            arrivals, allowed_lateness_ms=80
        )
        scotty = build_system("scotty", QUERY, TOPO).run_unordered(
            arrivals, allowed_lateness_ms=80
        )
        desis_values = {o.window: o.value for o in desis.outcomes}
        for outcome in scotty.outcomes:
            assert outcome.value == desis_values[outcome.window]
