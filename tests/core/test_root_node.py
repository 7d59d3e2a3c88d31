"""Tests for the Dema root-node operator on the simulator."""

import pytest

from repro.errors import IdentificationError
from repro.network.channels import Channel
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    GammaUpdateMessage,
    SynopsisMessage,
)
from repro.network.simulator import SimulatedNode, Simulator
from repro.streaming.columns import EventColumns
from repro.streaming.events import event_key, make_events
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery
from repro.core.root_node import DemaRootNode
from repro.core.slicing import slice_sorted_events

WINDOW = Window(0, 1000)


class LocalStub(SimulatedNode):
    """Answers candidate requests from a pre-sliced window."""

    def __init__(self, node_id, sliced):
        super().__init__(node_id)
        self.sliced = sliced
        self.requests = []
        self.gamma_updates = []

    def on_message(self, message, now):
        if isinstance(message, CandidateRequestMessage):
            self.requests.append(message)
            for index in message.slice_indices:
                reply = CandidateEventsMessage(
                    sender=self.node_id,
                    window=message.window,
                    slice_index=index,
                    events=self.sliced.run_for(index),
                )
                self.send(reply, 0, now)
        elif isinstance(message, GammaUpdateMessage):
            self.gamma_updates.append(message.gamma)


def deploy(node_values, q=0.5, gamma=5, adaptive=False):
    simulator = Simulator()
    query = QuantileQuery(q=q, window_length_ms=1000, gamma=gamma,
                          adaptive=adaptive)
    root = DemaRootNode(
        0, local_ids=sorted(node_values), queries=(query,), ops_per_second=1e9
    )
    simulator.add_node(root)
    locals_ = {}
    for node_id, values in node_values.items():
        events = sorted(make_events(values, node_id=node_id), key=event_key)
        sliced = slice_sorted_events(
            EventColumns.from_events(events), gamma, node_id
        )
        local = LocalStub(node_id, sliced)
        simulator.add_node(local)
        simulator.connect(Channel(node_id, 0))
        simulator.connect(Channel(0, node_id))
        locals_[node_id] = local
        message = SynopsisMessage(
            sender=node_id,
            window=WINDOW,
            synopses=sliced.synopses,
            local_window_size=sliced.window_size,
        )
        simulator.schedule(1.0, lambda t, l=local, m=message: l.send(m, 0, t))
    return simulator, root, locals_


class TestProtocol:
    def test_exact_median_across_nodes(self):
        values = {1: list(range(0, 50)), 2: list(range(50, 100))}
        simulator, root, _ = deploy(values)
        simulator.run()
        assert len(root.outcomes) == 1
        outcome = root.outcomes[0]
        all_values = sorted(v for vals in values.values() for v in vals)
        assert outcome.value == all_values[49]  # rank ceil(0.5*100)=50
        assert outcome.global_window_size == 100

    def test_requests_sent_to_every_local(self):
        values = {1: list(range(10)), 2: list(range(10, 20))}
        simulator, root, locals_ = deploy(values)
        simulator.run()
        # Every local receives a request (possibly empty) so it can free state.
        assert all(len(l.requests) == 1 for l in locals_.values())

    def test_quantile_25(self):
        values = {1: list(range(100))}
        simulator, root, _ = deploy(values, q=0.25)
        simulator.run()
        assert root.outcomes[0].value == 24.0  # rank 25 -> value 24

    def test_empty_global_window(self):
        values = {1: [], 2: []}
        simulator, root, _ = deploy(values)
        simulator.run()
        outcome = root.outcomes[0]
        assert outcome.is_empty
        assert outcome.value is None

    def test_waits_for_all_locals(self):
        simulator = Simulator()
        query = QuantileQuery(gamma=5)
        root = DemaRootNode(0, local_ids=[1, 2], queries=(query,))
        simulator.add_node(root)
        local = LocalStub(1, slice_sorted_events(
            EventColumns.from_events(make_events(range(10), node_id=1)), 5, 1))
        simulator.add_node(local)
        simulator.connect(Channel(1, 0))
        simulator.connect(Channel(0, 1))
        message = SynopsisMessage(
            sender=1, window=WINDOW, synopses=local.sliced.synopses,
            local_window_size=10,
        )
        simulator.schedule(1.0, lambda t: local.send(message, 0, t))
        simulator.run()
        assert root.outcomes == []
        assert root.open_windows == 1

    def test_duplicate_synopses_rejected(self):
        values = {1: list(range(10)), 2: list(range(10, 20))}
        simulator, root, locals_ = deploy(values)
        simulator.run()
        # A fresh window: node 1 reports twice before node 2 reports at all.
        later = Window(1000, 2000)
        dup = SynopsisMessage(
            sender=1, window=later,
            synopses=locals_[1].sliced.synopses, local_window_size=10,
        )
        simulator.schedule(simulator.now + 1, lambda t: locals_[1].send(dup, 0, t))
        simulator.schedule(
            simulator.now + 2, lambda t: locals_[1].send(dup, 0, t)
        )
        with pytest.raises(IdentificationError):
            simulator.run()

    def test_unexpected_candidates_rejected(self):
        values = {1: list(range(10))}
        simulator, root, locals_ = deploy(values)
        simulator.run()
        stray = CandidateEventsMessage(
            sender=1, window=Window(9000, 10000), slice_index=0, events=()
        )
        simulator.schedule(
            simulator.now + 1, lambda t: locals_[1].send(stray, 0, t)
        )
        with pytest.raises(IdentificationError):
            simulator.run()

    def test_outcome_metrics(self):
        values = {1: list(range(20)), 2: list(range(20, 40))}
        simulator, root, _ = deploy(values, gamma=4)
        simulator.run()
        outcome = root.outcomes[0]
        assert outcome.candidate_slices >= 1
        assert outcome.candidate_events >= outcome.candidate_slices * 2
        assert outcome.synopses_received == 10  # 40 events / gamma 4
        assert outcome.gamma_used == 4

    def test_needs_local_ids(self):
        with pytest.raises(IdentificationError):
            DemaRootNode(0, local_ids=[], queries=(QuantileQuery(),))


class TestAdaptivity:
    def test_gamma_broadcast_after_window(self):
        values = {1: list(range(100)), 2: list(range(100, 200))}
        simulator, root, locals_ = deploy(values, gamma=5, adaptive=True)
        simulator.run()
        assert root.gamma != 5
        for local in locals_.values():
            assert local.gamma_updates == [root.gamma]

    def test_fixed_gamma_never_broadcasts(self):
        values = {1: list(range(100))}
        simulator, root, locals_ = deploy(values, gamma=5, adaptive=False)
        simulator.run()
        assert root.gamma == 5
        assert all(l.gamma_updates == [] for l in locals_.values())
