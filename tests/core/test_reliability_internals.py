"""Deterministic unit tests for the root's retransmission machinery."""

import pytest

from repro.network.channels import Channel
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    SynopsisMessage,
    SynopsisRequestMessage,
    WindowReleaseMessage,
)
from repro.network.simulator import SimulatedNode, Simulator
from repro.streaming.columns import EventColumns
from repro.streaming.events import event_key, make_events
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery
from repro.core.reliability import ReliabilityConfig
from repro.core.root_node import DemaRootNode
from repro.core.slicing import slice_sorted_events

WINDOW = Window(0, 1000)


class ScriptedLocal(SimulatedNode):
    """A local node the test drives by hand; records what the root sends."""

    def __init__(self, node_id, sliced=None):
        super().__init__(node_id)
        self.sliced = sliced
        self.received = []
        self.serve_candidates = True

    def on_message(self, message, now):
        self.received.append(message)
        if (
            isinstance(message, CandidateRequestMessage)
            and self.serve_candidates
            and self.sliced is not None
        ):
            for index in message.slice_indices:
                self.send(
                    CandidateEventsMessage(
                        sender=self.node_id,
                        window=message.window,
                        slice_index=index,
                        events=self.sliced.run_for(index),
                    ),
                    0,
                    now,
                )

    def synopses_message(self):
        return SynopsisMessage(
            sender=self.node_id,
            window=WINDOW,
            synopses=self.sliced.synopses,
            local_window_size=self.sliced.window_size,
        )


def deploy(reliability, *, serve_candidates=(True, True)):
    simulator = Simulator()
    query = QuantileQuery(q=0.5, gamma=5)
    root = DemaRootNode(
        0, local_ids=[1, 2], queries=(query,), ops_per_second=1e9,
        reliability=reliability,
    )
    simulator.add_node(root)
    locals_ = {}
    for node_id, serving in zip((1, 2), serve_candidates):
        # Identical value ranges: the median's candidate slices span both
        # nodes, so both must serve in the calculation phase.
        events = EventColumns.from_events(sorted(
            make_events(range(10, 20), node_id=node_id),
            key=event_key,
        ))
        local = ScriptedLocal(node_id, slice_sorted_events(events, 5, node_id))
        local.serve_candidates = serving
        simulator.add_node(local)
        simulator.connect(Channel(node_id, 0))
        simulator.connect(Channel(0, node_id))
        locals_[node_id] = local
    return simulator, root, locals_


RELIABILITY = ReliabilityConfig(timeout_s=0.05, max_retries=3)


class TestReliabilityConfigValidation:
    def test_defaults(self):
        config = ReliabilityConfig()
        assert config.timeout_s == 0.05
        assert config.max_retries == 10

    def test_zero_timeout_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="timeout_s"):
            ReliabilityConfig(timeout_s=0.0)

    def test_negative_timeout_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="timeout_s"):
            ReliabilityConfig(timeout_s=-0.5)

    def test_zero_retries_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="max_retries"):
            ReliabilityConfig(max_retries=0)

    def test_tiny_positive_timeout_accepted(self):
        assert ReliabilityConfig(timeout_s=1e-6).timeout_s == 1e-6

    def test_single_retry_accepted(self):
        assert ReliabilityConfig(max_retries=1).max_retries == 1


class TestSynopsisPhaseRetransmit:
    def test_missing_local_gets_synopsis_request(self):
        simulator, root, locals_ = deploy(RELIABILITY)
        # Only node 1 reports; node 2 stays silent.
        simulator.schedule(
            1.0, lambda t: locals_[1].send(locals_[1].synopses_message(), 0, t)
        )
        simulator.run(until=1.2)
        requests = [
            m for m in locals_[2].received
            if isinstance(m, SynopsisRequestMessage)
        ]
        assert requests, "silent local was never re-asked"
        # The reporting local is not bothered.
        assert not any(
            isinstance(m, SynopsisRequestMessage)
            for m in locals_[1].received
        )

    def test_retries_bounded_then_abort(self):
        simulator, root, locals_ = deploy(RELIABILITY)
        simulator.schedule(
            1.0, lambda t: locals_[1].send(locals_[1].synopses_message(), 0, t)
        )
        simulator.run()
        requests = [
            m for m in locals_[2].received
            if isinstance(m, SynopsisRequestMessage)
        ]
        assert len(requests) <= RELIABILITY.max_retries
        assert root.aborted_windows == 1
        assert root.open_windows == 0
        assert root.outcomes == []

    def test_abort_releases_locals(self):
        simulator, root, locals_ = deploy(RELIABILITY)
        simulator.schedule(
            1.0, lambda t: locals_[1].send(locals_[1].synopses_message(), 0, t)
        )
        simulator.run()
        releases = [
            m for m in locals_[1].received
            if isinstance(m, WindowReleaseMessage)
        ]
        assert releases

    def test_no_retransmit_when_complete(self):
        simulator, root, locals_ = deploy(RELIABILITY)
        for local in locals_.values():
            simulator.schedule(
                1.0, lambda t, l=local: l.send(l.synopses_message(), 0, t)
            )
        simulator.run()
        assert root.aborted_windows == 0
        assert len(root.outcomes) == 1
        for local in locals_.values():
            assert not any(
                isinstance(m, SynopsisRequestMessage) for m in local.received
            )


class TestCandidatePhaseRetransmit:
    def test_outstanding_runs_rerequested(self):
        simulator, root, locals_ = deploy(
            RELIABILITY, serve_candidates=(True, False)
        )
        for local in locals_.values():
            simulator.schedule(
                1.0, lambda t, l=local: l.send(l.synopses_message(), 0, t)
            )
        simulator.run(until=1.12)
        # Node 2 never served; it must have received more than one request.
        requests_to_2 = [
            m for m in locals_[2].received
            if isinstance(m, CandidateRequestMessage)
        ]
        assert len(requests_to_2) >= 2
        # Retransmitted requests only name outstanding slices.
        retry = requests_to_2[-1]
        assert retry.slice_indices  # node 2 owns candidates around the median

    def test_eventual_abort_when_candidates_never_arrive(self):
        simulator, root, locals_ = deploy(
            RELIABILITY, serve_candidates=(True, False)
        )
        for local in locals_.values():
            simulator.schedule(
                1.0, lambda t, l=local: l.send(l.synopses_message(), 0, t)
            )
        simulator.run()
        assert root.aborted_windows == 1
        assert root.outcomes == []

    def test_duplicate_synopsis_batches_ignored_mid_flight(self):
        """A retransmitted synopsis whose original was merely delayed."""
        simulator, root, locals_ = deploy(RELIABILITY)
        # Node 1 reports twice (duplicate), node 2 once, all before any
        # timer fires; the window must resolve exactly once.
        simulator.schedule(
            1.0, lambda t: locals_[1].send(locals_[1].synopses_message(), 0, t)
        )
        simulator.schedule(
            1.01,
            lambda t: locals_[1].send(locals_[1].synopses_message(), 0, t),
        )
        simulator.schedule(
            1.02,
            lambda t: locals_[2].send(locals_[2].synopses_message(), 0, t),
        )
        simulator.run()
        assert len(root.outcomes) == 1
        assert root.aborted_windows == 0

    def test_duplicate_candidate_runs_ignored_mid_flight(self):
        """The same run served twice while the window is still open."""
        simulator, root, locals_ = deploy(
            RELIABILITY, serve_candidates=(True, False)
        )
        for local in locals_.values():
            simulator.schedule(
                1.0, lambda t, l=local: l.send(l.synopses_message(), 0, t)
            )

        def serve_node_2_twice(now):
            requests = [
                m for m in locals_[2].received
                if isinstance(m, CandidateRequestMessage)
            ]
            assert requests, "root never asked node 2 for candidates"
            for _ in range(2):
                for index in requests[0].slice_indices:
                    locals_[2].send(
                        CandidateEventsMessage(
                            sender=2,
                            window=requests[0].window,
                            slice_index=index,
                            events=locals_[2].sliced.run_for(index),
                        ),
                        0,
                        now,
                    )

        simulator.schedule(1.03, serve_node_2_twice)
        simulator.run()
        assert len(root.outcomes) == 1
        assert root.aborted_windows == 0

    def test_duplicate_runs_ignored_with_reliability(self):
        simulator, root, locals_ = deploy(RELIABILITY)
        for local in locals_.values():
            simulator.schedule(
                1.0, lambda t, l=local: l.send(l.synopses_message(), 0, t)
            )
        simulator.run()
        assert len(root.outcomes) == 1
        # Re-deliver a candidate run after completion: silently ignored.
        stray = CandidateEventsMessage(
            sender=1, window=WINDOW, slice_index=0,
            events=locals_[1].sliced.run_for(0),
        )
        simulator.schedule(
            simulator.now + 1.0, lambda t: locals_[1].send(stray, 0, t)
        )
        simulator.run()
        assert len(root.outcomes) == 1
