"""The summary pair's shared contract, once per summary.

Desis, t-digest, KLL, q-digest and partial aggregation run the same
local/root operators; only the summary differs.  Each test here runs
against all five.
"""

import pytest

from repro.errors import AggregationError
from repro.network.channels import Channel
from repro.network.messages import GammaUpdateMessage
from repro.network.simulator import SimulatedNode, Simulator
from repro.streaming.aggregates import get_function
from repro.streaming.columns import EventColumns
from repro.streaming.events import make_events
from repro.streaming.windows import Window
from repro.core.query import QuantileQuery
from repro.baselines.base import SummaryLocalNode, SummaryRootNode
from repro.baselines.desis import DesisSummary
from repro.baselines.kll_system import KllSummary
from repro.baselines.partial import PartialSummary
from repro.baselines.qdigest_system import QDigestSummary
from repro.baselines.tdigest_system import TDigestSummary

WINDOW = Window(0, 1000)
QUERY = QuantileQuery(q=0.5, window_length_ms=1000)

SUMMARIES = {
    "desis": lambda: DesisSummary(QUERY.q),
    "tdigest": lambda: TDigestSummary(QUERY.q),
    "kll": lambda: KllSummary(QUERY.q),
    "qdigest": lambda: QDigestSummary(QUERY.q),
    "partial": lambda: PartialSummary(get_function("sum")),
}

#: The field of each summary's message that carries the summary itself.
PAYLOAD = {
    "desis": "events",
    "tdigest": "centroids",
    "kll": "centroids",
    "qdigest": "nodes",
    "partial": "state",
}


@pytest.fixture(params=sorted(SUMMARIES))
def name(request):
    return request.param


class Sink(SimulatedNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_message(self, message, now):
        self.received.append(message)


def rows(values, node_id=1):
    return EventColumns.from_events(
        make_events(values, node_id=node_id, timestamp_step=10)
    )


def deploy_local(summary):
    """One summary local shipping to a sink that records what arrives."""
    simulator = Simulator()
    sink = Sink(0)
    local = SummaryLocalNode(
        1, root_id=0, query=QUERY, summary=summary, ops_per_second=1e9
    )
    simulator.add_node(sink)
    simulator.add_node(local)
    simulator.connect(Channel(1, 0))
    simulator.connect(Channel(0, 1))
    return simulator, sink, local


def deploy_root(summary, local_ids=(1, 2)):
    """One summary root fed by sinks standing in for its locals."""
    simulator = Simulator()
    root = SummaryRootNode(
        0, local_ids=list(local_ids), summary=summary, ops_per_second=1e9
    )
    simulator.add_node(root)
    senders = {}
    for local_id in local_ids:
        senders[local_id] = simulator.add_node(Sink(local_id))
        simulator.connect(Channel(local_id, 0))
    return simulator, root, senders


def shipped(summary, node_id, values):
    """The message a local would ship after folding ``values``."""
    state = summary.new(node_id)
    summary.fold(state, rows(values, node_id))
    return summary.ship(state, node_id, WINDOW)[0]


def test_window_completed_twice_ships_once(name):
    summary = SUMMARIES[name]()
    simulator, sink, local = deploy_local(summary)
    simulator.schedule(0.1, lambda t: local.ingest(rows([5, 1, 4]), t))
    simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
    simulator.schedule(1.5, lambda t: local.on_window_complete(WINDOW, t))
    simulator.run()
    assert len(sink.received) == 1
    assert isinstance(sink.received[0], summary.message)
    assert len(getattr(sink.received[0], PAYLOAD[name])) > 0


def test_empty_window_ships_empty_summary_and_answers_none(name):
    summary = SUMMARIES[name]()
    simulator, sink, local = deploy_local(summary)
    simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
    simulator.run()
    (message,) = sink.received
    assert len(getattr(message, PAYLOAD[name])) == 0

    simulator, root, senders = deploy_root(summary, local_ids=(1,))
    simulator.schedule(1.0, lambda t: senders[1].send(message, 0, t))
    simulator.run()
    (record,) = root.records
    assert record.value is None
    assert record.global_window_size == 0
    assert root.open_windows == 0


def test_root_waits_for_every_local(name):
    summary = SUMMARIES[name]()
    simulator, root, senders = deploy_root(summary)
    first = shipped(summary, 1, [1.0, 3.0, 5.0])
    simulator.schedule(1.0, lambda t: senders[1].send(first, 0, t))
    simulator.run()
    assert root.records == []
    assert root.open_windows == 1

    second = shipped(summary, 2, [2.0, 4.0])
    simulator.schedule(2.0, lambda t: senders[2].send(second, 0, t))
    simulator.run()
    (record,) = root.records
    assert record.value is not None
    assert record.global_window_size == 5
    assert root.open_windows == 0


def test_second_summary_from_one_local_rejected(name):
    summary = SUMMARIES[name]()
    simulator, root, senders = deploy_root(summary)
    message = shipped(summary, 1, [1.0])
    simulator.schedule(1.0, lambda t: senders[1].send(message, 0, t))
    simulator.schedule(2.0, lambda t: senders[1].send(message, 0, t))
    with pytest.raises(AggregationError, match="duplicate"):
        simulator.run()


def test_wrong_message_type_rejected_at_local(name):
    simulator, sink, local = deploy_local(SUMMARIES[name]())
    bad = GammaUpdateMessage(sender=0, window=WINDOW, gamma=5)
    simulator.schedule(0.0, lambda t: sink.send(bad, 1, t))
    with pytest.raises(AggregationError, match="local node received"):
        simulator.run()


def test_wrong_message_type_rejected_at_root(name):
    simulator, root, senders = deploy_root(SUMMARIES[name]())
    bad = GammaUpdateMessage(sender=1, window=WINDOW, gamma=5)
    simulator.schedule(0.0, lambda t: senders[1].send(bad, 0, t))
    with pytest.raises(AggregationError, match="root received"):
        simulator.run()


def test_rows_for_a_completed_window_count_as_late(name):
    simulator, sink, local = deploy_local(SUMMARIES[name]())
    simulator.schedule(0.1, lambda t: local.ingest(rows([5, 1, 4]), t))
    simulator.schedule(1.0, lambda t: local.on_window_complete(WINDOW, t))
    simulator.schedule(1.5, lambda t: local.ingest(rows([7, 2]), t))
    simulator.run()
    assert local.late_events == 2
    assert len(sink.received) == 1
