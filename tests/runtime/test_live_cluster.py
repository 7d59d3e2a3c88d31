"""Live cluster tests: the asyncio runtime against the simulator.

The headline assertion is bit-identical equivalence: the same seeded
workload through ``DemaEngine`` (simulated) and ``run_live`` (real codec,
real transport) produces exactly the same quantile per window, because the
operators are literally the same objects on both substrates.

The TCP smoke test is wrapped in a SIGALRM hard timeout so a wedged event
loop fails the suite instead of hanging it (the container has no
pytest-timeout).
"""

import contextlib
import functools
import signal

import pytest

from repro.bench.generator import GeneratorConfig, workload
from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.errors import ConfigurationError
from repro.mesh.config import MembershipEvent
from repro.mesh.routing import shard_node_id
from repro.network.topology import TopologyConfig
from repro.obs.tracer import RecordingTracer
from repro.runtime.cluster import LiveClusterConfig, run_live
from repro.streaming.events import Event

#: Fixed γ: adaptive γ would feed back each substrate's own timing, which
#: is exactly the nondeterminism the equivalence claim excludes.
QUERY = QuantileQuery(q=0.5, gamma=64)

N_LOCALS = 2


@contextlib.contextmanager
def hard_timeout(seconds: int):
    def on_alarm(signum, frame):
        raise TimeoutError(f"live test exceeded {seconds}s wall clock")

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


def test_memory_run_matches_simulator_bit_exactly():
    with hard_timeout(120):
        report = run_live(_config(), _streams())
    expected = _simulated_values()
    assert len(expected) >= 3  # the workload touches at least three windows
    assert _live_values(report) == expected


def test_tcp_smoke():
    """Full topology (1 root, 2 locals, 4 streams) over real sockets."""
    with hard_timeout(120):
        report = run_live(_config(transport="tcp"), _streams())

    assert _live_values(report) == _simulated_values()
    assert report.windows >= 3
    assert report.transport == "tcp"
    assert report.events_sent == sum(len(s) for s in _streams().values())
    assert report.events_per_second > 0
    assert set(report.bytes_by_layer) == {"stream_local", "local_root"}
    assert all(b > 0 for b in report.bytes_by_layer.values())
    assert report.total_bytes == sum(report.bytes_by_layer.values())
    assert report.seal_to_result.count == len(_live_values(report))
    assert report.seal_to_result.max >= 0.0


def test_paced_replay_respects_time_scale():
    streams = {1: tuple(Event(float(i), i * 10, 1, i) for i in range(100))}
    with hard_timeout(120):
        report = run_live(
            _config(n_locals=1, streams_per_local=1, time_scale=0.25),
            streams,
        )
    # 990 ms of event time at 0.25 wall seconds per event-time second.
    assert report.wall_seconds >= 0.2
    assert len(_live_values(report)) == 1


def test_tracer_records_live_links_and_messages():
    tracer = RecordingTracer()
    with hard_timeout(120):
        run_live(_config(), _streams(), tracer=tracer)

    kinds = {type(trace.message).__name__ for trace in tracer.messages}
    assert "SynopsisMessage" in kinds
    assert "CandidateEventsMessage" in kinds

    registry = tracer.registry
    # Every local ↔ root link got byte and message gauges (the lone root
    # is shard 0 of one).
    root = str(shard_node_id(0))
    for local_id in range(1, N_LOCALS + 1):
        up = registry.value("live_link_bytes", src=str(local_id), dst=root)
        down = registry.value("live_link_bytes", src=root, dst=str(local_id))
        assert up > 0 and down > 0
        assert registry.value(
            "live_link_messages", src=str(local_id), dst=root
        ) > 0


def test_globally_empty_windows_free_every_local():
    """A window no local saw an event in is answered empty, and every
    local is released from it: nothing stays retained after the run."""
    streams = {
        node: tuple(
            Event(float(node * i), t, node, i)
            for i, t in enumerate([*range(0, 1000, 50), *range(3000, 4000, 50)])
        )
        for node in (1, 2)
    }
    servers = {}

    async def capture(context):
        servers.update(context.locals_by_id)

    with hard_timeout(120):
        report = run_live(
            _config(streams_per_local=1, query=QuantileQuery(gamma=10)),
            streams,
            disturb=capture,
        )
    assert [outcome.is_empty for outcome in report.outcomes] == [
        False, True, True, False
    ]
    assert [server.node.pending_windows for server in servers.values()] == [
        0, 0
    ]


def test_clean_run_reports_no_fault_activity():
    """Without fault injection the tolerance counters stay at zero."""
    with hard_timeout(120):
        report = run_live(_config(), _streams())
    assert report.reconnects == 0
    assert report.heartbeat_misses == 0
    assert report.degraded_windows == 0
    assert report.locals_declared_dead == 0
    assert report.dropped_sends == 0
    assert report.windows_lost == 0
    assert report.fault_events == []


class TestConfigValidation:
    def test_rejects_bad_transport(self):
        with pytest.raises(ConfigurationError, match="transport"):
            LiveClusterConfig(transport="carrier-pigeon")

    def test_rejects_zero_locals(self):
        with pytest.raises(ConfigurationError, match="local"):
            LiveClusterConfig(n_locals=0)

    def test_rejects_zero_streams(self):
        with pytest.raises(ConfigurationError, match="stream"):
            LiveClusterConfig(streams_per_local=0)

    def test_rejects_negative_time_scale(self):
        with pytest.raises(ConfigurationError, match="time_scale"):
            LiveClusterConfig(time_scale=-1.0)

    def test_rejects_faults_without_pacing(self):
        from repro.faults.scenarios import build_plan

        plan = build_plan(
            "crash-reconnect", seed=1, horizon_s=3.0, n_locals=2
        )
        with pytest.raises(ConfigurationError, match="time_scale"):
            LiveClusterConfig(faults=plan)

    def test_rejects_unknown_stream_keys(self):
        with pytest.raises(ConfigurationError, match="unknown local nodes"):
            run_live(_config(), {99: (Event(1.0, 0, 99, 0),)})

    def test_rejects_a_stream_of_another_nodes_events(self):
        with pytest.raises(
            ConfigurationError, match="local 1's stream carries events of node 2"
        ):
            run_live(_config(), {1: (Event(1.0, 0, 2, 0),), 2: ()})

    def test_rejects_empty_workload(self):
        with pytest.raises(ConfigurationError, match="at least one event"):
            run_live(_config(), {1: (), 2: ()})


def _run_with_membership(*events, streams=None):
    config = _config(membership=tuple(
        MembershipEvent(at_ms, local_id, kind)
        for at_ms, local_id, kind in events
    ))
    with hard_timeout(120):
        run_live(config, _streams() if streams is None else streams)


#: Every refusal the cluster driver raises itself, pinned before the
#: driver is restructured: ``(run, message)`` — ``_streams()`` spans the
#: grid [0, 3000) ms of 1000 ms windows.
DRIVER_REFUSALS = {
    "leave-without-join": (
        lambda: _run_with_membership((1000, 3, "leave")),
        "local 3 leaves but never joins",
    ),
    "leave-before-join": (
        lambda: _run_with_membership((2000, 3, "join"), (1000, 3, "leave")),
        r"local 3 leaves at 1000 before it is a member \(from 2000\)",
    ),
    "boundary-outside-grid": (
        lambda: _run_with_membership((5000, 2, "leave")),
        r"membership boundary 5000 outside the grid \(0, 3000\)",
    ),
    "boundary-off-grid": (
        lambda: _run_with_membership((1500, 2, "leave")),
        "membership boundary 1500 is not on the 1000 ms tumbling grid",
    ),
    "unordered-stream-under-membership": (
        lambda: _run_with_membership((1000, 2, "leave"), streams={
            1: (Event(1.0, 2500, 1, 0), Event(2.0, 100, 1, 1)),
            2: (Event(3.0, 200, 2, 0),),
        }),
        "local 1's stream is not in timestamp order",
    ),
}


@pytest.mark.parametrize("case", sorted(DRIVER_REFUSALS))
def test_driver_refusals(case):
    run, message = DRIVER_REFUSALS[case]
    with pytest.raises(ConfigurationError, match=message):
        run()
