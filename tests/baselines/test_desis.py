"""Tests for the Desis (decentralized sorting) baseline."""

import numpy as np
import pytest

from repro.errors import AggregationError
from repro.network.channels import Channel
from repro.network.messages import GammaUpdateMessage, SortedRunMessage
from repro.network.simulator import SimulatedNode, Simulator
from repro.streaming.columns import EventColumns
from repro.streaming.events import make_events
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery
from repro.baselines.base import SummaryLocalNode, SummaryRootNode
from repro.baselines.desis import DesisSummary

WINDOW = Window(0, 1000)


class Sink(SimulatedNode):
    def __init__(self):
        super().__init__(0)
        self.received = []

    def on_message(self, message, now):
        self.received.append(message)


class TestLocal:
    def deploy(self):
        simulator = Simulator()
        root = Sink()
        query = QuantileQuery(q=0.5, window_length_ms=1000)
        local = SummaryLocalNode(
            1, root_id=0, query=query, summary=DesisSummary(query.q),
            ops_per_second=1e9,
        )
        simulator.add_node(root)
        simulator.add_node(local)
        simulator.connect(Channel(1, 0))
        return simulator, root, local

    def test_ships_sorted_run_at_window_end(self):
        simulator, root, local = self.deploy()
        events = EventColumns.from_events(
            make_events([5, 1, 4, 2], node_id=1, timestamp_step=10)
        )
        simulator.schedule(0.1, lambda t: local.ingest(events, t))
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        simulator.run()
        assert len(root.received) == 1
        run = root.received[0]
        assert isinstance(run, SortedRunMessage)
        # The root reads only values, so only values are shipped.
        assert run.events.dtype == np.dtype("<f8")
        assert run.events.tolist() == [1.0, 2.0, 4.0, 5.0]

    def test_nothing_sent_before_window_end(self):
        simulator, root, local = self.deploy()
        events = EventColumns.from_events(
            make_events([1, 2], node_id=1, timestamp_step=10)
        )
        simulator.schedule(0.1, lambda t: local.ingest(events, t))
        simulator.run()
        assert root.received == []

    def test_empty_window_ships_empty_run(self):
        simulator, root, local = self.deploy()
        simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
        simulator.run()
        assert len(root.received[0].events) == 0

    def test_unexpected_message_rejected(self):
        simulator, root, local = self.deploy()
        simulator.connect(Channel(0, 1))
        bad = GammaUpdateMessage(sender=0, window=WINDOW, gamma=5)
        simulator.schedule(0.0, lambda t: root.send(bad, 1, t))
        with pytest.raises(AggregationError):
            simulator.run()


class TestRoot:
    def deploy(self, local_ids=(1, 2)):
        simulator = Simulator()
        query = QuantileQuery(q=0.5, window_length_ms=1000)
        root = SummaryRootNode(
            0, local_ids=list(local_ids), summary=DesisSummary(query.q),
            ops_per_second=1e9,
        )
        simulator.add_node(root)
        senders = {}
        for local_id in local_ids:
            sender = Sink.__new__(Sink)
            SimulatedNode.__init__(sender, local_id)
            sender.received = []
            simulator.add_node(sender)
            simulator.connect(Channel(local_id, 0))
            senders[local_id] = sender
        return simulator, root, senders

    def send_run(self, simulator, sender, values, node_id, at=1.0):
        run = np.array(sorted(values), dtype="<f8")
        message = SortedRunMessage(sender=node_id, window=WINDOW, events=run)
        simulator.schedule(at, lambda t: sender.send(message, 0, t))

    def test_merges_runs_and_selects(self):
        simulator, root, senders = self.deploy()
        self.send_run(simulator, senders[1], [1, 3, 5], 1)
        self.send_run(simulator, senders[2], [2, 4], 2)
        simulator.run()
        assert root.outcomes[0].value == 3.0
        assert root.outcomes[0].global_window_size == 5

    def test_waits_for_all_runs(self):
        simulator, root, senders = self.deploy()
        self.send_run(simulator, senders[1], [1, 2], 1)
        simulator.run()
        assert root.outcomes == []
        assert root.open_windows == 1

    def test_empty_global_window(self):
        simulator, root, senders = self.deploy()
        self.send_run(simulator, senders[1], [], 1)
        self.send_run(simulator, senders[2], [], 2)
        simulator.run()
        assert root.outcomes[0].value is None

    def test_duplicate_run_rejected(self):
        simulator, root, senders = self.deploy()
        self.send_run(simulator, senders[1], [1], 1, at=1.0)
        self.send_run(simulator, senders[1], [2], 1, at=2.0)
        with pytest.raises(AggregationError):
            simulator.run()

    def test_unexpected_message_rejected(self):
        simulator, root, senders = self.deploy()
        bad = GammaUpdateMessage(sender=1, window=WINDOW, gamma=5)
        simulator.schedule(0.0, lambda t: senders[1].send(bad, 0, t))
        with pytest.raises(AggregationError):
            simulator.run()
