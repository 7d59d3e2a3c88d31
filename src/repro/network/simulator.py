"""Deterministic discrete-event simulator.

The engine keeps a priority queue of ``(time, seq, action)`` entries; ``seq``
is a tie-breaker that makes execution order fully deterministic.  Nodes never
see wall-clock time — only the simulated clock — so every run of a benchmark
configuration produces identical traffic, latencies and results.

CPU cost model.  Each node owns a :class:`CpuModel` with an
operations-per-second budget.  Handlers report abstract work (e.g. ``n log n``
comparisons for a sort); the model serializes work on the node, so a node
that receives more work per window than its budget allows falls behind — the
mechanism by which centralized baselines bottleneck at the root in the
throughput experiments.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Protocol, runtime_checkable

from repro.errors import ConfigurationError, RoutingError, SimulationError
from repro.network.channels import Channel
from repro.network.messages import Message

# MessageTrace moved to the observability event model; re-exported here so
# ``from repro.network.simulator import MessageTrace`` keeps working.
from repro.obs.events import MessageTrace
from repro.obs.tracer import NOOP_TRACER, Tracer

__all__ = [
    "CpuModel",
    "Fabric",
    "Outbox",
    "SimulatedNode",
    "Simulator",
    "MessageTrace",
    "sort_cost",
    "merge_cost",
    "receive_ops",
]

#: Abstract operations charged per comparison when bulk-sorting n unsorted
#: elements.  A full comparison sort of a large buffer is random-access and
#: cache-hostile, so it costs several times a sequential merge comparison —
#: this constant factor is what separates a centralized root (sorts
#: everything) from a merging root (Desis) and from Dema's root (merges a
#: few candidate runs).
SORT_OPS_PER_CMP = 4.0

#: Abstract operations charged per comparison when merging pre-sorted runs
#: (sequential access, branch-predictable).
MERGE_OPS_PER_CMP = 1.0

#: Abstract operations charged for ingesting one event (parse + route).
INGEST_OPS = 4.0

#: Abstract operations charged per payload byte when a node receives a
#: message (network deserialization).  At 16 bytes per event this makes
#: receiving one raw event cost 12 ops — deliberately the dominant per-event
#: cost, matching the observation that (de)serialization dominates SPE
#: ingestion and that funnelling every raw event through the root is what
#: bottlenecks centralized aggregation.
RECEIVE_OPS_PER_BYTE = 0.75

#: Fixed per-message receive overhead (framing, dispatch).
RECEIVE_OPS_BASE = 8.0


def receive_ops(payload_bytes: int) -> float:
    """Deserialization cost of receiving a message with this payload size."""
    return RECEIVE_OPS_BASE + RECEIVE_OPS_PER_BYTE * payload_bytes


def sort_cost(n: int) -> float:
    """Comparison cost of sorting ``n`` elements (n log2 n, floored at n)."""
    if n <= 1:
        return float(max(n, 0))
    return SORT_OPS_PER_CMP * n * math.log2(n)


def merge_cost(n: int, runs: int) -> float:
    """Cost of a k-way merge of ``n`` total elements from ``runs`` runs."""
    if n <= 0:
        return 0.0
    if runs <= 1:
        return float(n)
    return MERGE_OPS_PER_CMP * n * math.log2(runs)


class CpuModel:
    """Serialized abstract-work executor for one node."""

    def __init__(self, ops_per_second: float) -> None:
        if ops_per_second <= 0:
            raise ConfigurationError(
                f"ops_per_second must be > 0, got {ops_per_second}"
            )
        self._ops_per_second = ops_per_second
        self._busy_until = 0.0
        self._total_ops = 0.0

    @property
    def ops_per_second(self) -> float:
        """The node's processing budget."""
        return self._ops_per_second

    @property
    def busy_until(self) -> float:
        """Simulated time at which all accepted work completes."""
        return self._busy_until

    @property
    def total_ops(self) -> float:
        """Total abstract operations accepted so far."""
        return self._total_ops

    def execute(self, ops: float, now: float) -> float:
        """Accept ``ops`` units of work at time ``now``; return finish time."""
        if ops < 0:
            raise SimulationError(f"negative work {ops}")
        start = max(now, self._busy_until)
        self._busy_until = start + ops / self._ops_per_second
        self._total_ops += ops
        return self._busy_until


@runtime_checkable
class Fabric(Protocol):
    """The substrate a protocol node sends and schedules through.

    Everything a :class:`SimulatedNode` needs from its host: route a
    message toward a peer and run a callback at a later time.  The
    discrete-event :class:`Simulator` is one implementation; the live
    asyncio runtime (:mod:`repro.runtime.servers`) is another, which is
    what lets the unmodified ``repro.core`` operators drive both the
    simulation and a real cluster.
    """

    def route(self, message: Message, src: int, dst: int, now: float) -> None:
        """Carry ``message`` from ``src`` to ``dst``, starting at ``now``."""
        ...

    def schedule(self, time: float, action: Callable[[float], None]) -> None:
        """Run ``action(now)`` once the clock reaches ``time``."""
        ...


class Outbox:
    """A :class:`Fabric` that only collects what its nodes send, for a host
    that ships messages itself.  It keeps no clock, so its nodes must not
    set timers (reliability off)."""

    def __init__(self) -> None:
        self._sent: list[tuple[int, Message]] = []

    def route(self, message: Message, src: int, dst: int, now: float) -> None:
        self._sent.append((dst, message))

    def schedule(self, time: float, action: Callable[[float], None]) -> None:
        raise SimulationError("an outbox has no clock to run timers on")

    def drain(self) -> list[tuple[int, Message]]:
        """``(destination, message)`` pairs sent since the last drain."""
        sent, self._sent = self._sent, []
        return sent


class SimulatedNode:
    """Base class for every node participating in a simulation.

    Subclasses implement :meth:`on_message`; they communicate exclusively via
    :meth:`send`, which routes through the owning fabric's channels.
    """

    def __init__(self, node_id: int, *, ops_per_second: float = 1e9) -> None:
        self._node_id = node_id
        self._cpu = CpuModel(ops_per_second)
        self._simulator: Fabric | None = None
        self._tracer: Tracer = NOOP_TRACER

    @property
    def node_id(self) -> int:
        """Unique id of this node within its simulator."""
        return self._node_id

    @property
    def cpu(self) -> CpuModel:
        """The node's CPU model."""
        return self._cpu

    @property
    def simulator(self) -> Fabric:
        """The fabric this node is attached to (simulator or live runtime).

        Raises:
            SimulationError: If the node has not been attached yet.
        """
        if self._simulator is None:
            raise SimulationError(f"node {self._node_id} is not attached")
        return self._simulator

    def attach(self, fabric: Fabric) -> None:
        """Called by the owning fabric when the node is registered."""
        self._simulator = fabric

    @property
    def tracer(self) -> Tracer:
        """The node's span tracer (the shared no-op tracer by default)."""
        return self._tracer

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer; engines call this on every node after build."""
        self._tracer = tracer

    def send(self, message: Message, dst: int, now: float) -> None:
        """Transmit ``message`` to node ``dst`` starting at time ``now``."""
        self.simulator.route(message, self._node_id, dst, now)

    def call_later(
        self, delay: float, action: Callable[[float], None], now: float
    ) -> None:
        """Run ``action`` ``delay`` seconds after ``now`` on the fabric.

        The transport-agnostic face of timers (reliability timeouts and the
        like): the simulator turns this into a queue entry, the live
        runtime into an event-loop timer.
        """
        self.simulator.schedule(now + delay, action)

    def work(self, ops: float, now: float) -> float:
        """Charge abstract CPU work; returns the completion time."""
        return self._cpu.execute(ops, now)

    def on_message(self, message: Message, now: float) -> None:
        """Handle a delivered message at simulated time ``now``."""
        raise NotImplementedError

    def on_start(self, now: float) -> None:
        """Hook invoked once when the simulation starts."""


class Simulator:
    """Priority-queue discrete-event engine with channel routing."""

    def __init__(
        self,
        *,
        trace: Callable[["MessageTrace"], None] | None = None,
        tracer: Tracer = NOOP_TRACER,
    ) -> None:
        self._queue: list[tuple[float, int, Callable[[float], None]]] = []
        self._seq = 0
        self._now = 0.0
        self._nodes: dict[int, SimulatedNode] = {}
        self._channels: dict[tuple[int, int], Channel] = {}
        self._processed_events = 0
        self._started = False
        self._trace = trace
        self._tracer = tracer

    @property
    def tracer(self) -> Tracer:
        """The run's span tracer (the shared no-op tracer by default)."""
        return self._tracer

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def nodes(self) -> dict[int, SimulatedNode]:
        """All registered nodes, keyed by id."""
        return dict(self._nodes)

    @property
    def channels(self) -> dict[tuple[int, int], Channel]:
        """All registered channels, keyed by (src, dst)."""
        return dict(self._channels)

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def add_node(self, node: SimulatedNode) -> SimulatedNode:
        """Register a node.

        Raises:
            ConfigurationError: If the node id is already taken.
        """
        if node.node_id in self._nodes:
            raise ConfigurationError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        node.attach(self)
        return node

    def connect(self, channel: Channel) -> Channel:
        """Register a directed channel.

        Raises:
            ConfigurationError: If either endpoint is unknown or the channel
                already exists.
        """
        key = (channel.src, channel.dst)
        if channel.src not in self._nodes or channel.dst not in self._nodes:
            raise ConfigurationError(
                f"channel {key} references an unregistered node"
            )
        if key in self._channels:
            raise ConfigurationError(f"duplicate channel {key}")
        self._channels[key] = channel
        return channel

    def channel(self, src: int, dst: int) -> Channel:
        """Look up the channel from ``src`` to ``dst``.

        Raises:
            RoutingError: If no such channel is registered.
        """
        try:
            return self._channels[(src, dst)]
        except KeyError:
            raise RoutingError(f"no channel from {src} to {dst}") from None

    def schedule(
        self, time: float, action: Callable[[float], None]
    ) -> None:
        """Enqueue ``action`` to run at simulated ``time``.

        Raises:
            SimulationError: If ``time`` is in the simulated past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}; clock is already at {self._now}"
            )
        heapq.heappush(self._queue, (time, self._seq, action))
        self._seq += 1

    def route(self, message: Message, src: int, dst: int, now: float) -> None:
        """Send ``message`` over the (src, dst) channel; schedules delivery.

        Lost messages (lossy channels) are charged but never delivered.
        """
        channel = self.channel(src, dst)
        delivery = channel.transmit(message, now)
        if self._trace is not None or self._tracer.enabled:
            observed = MessageTrace(
                sent_at=now,
                delivered_at=delivery,
                src=src,
                dst=dst,
                message=message,
            )
            if self._trace is not None:
                self._trace(observed)
            self._tracer.record_message(observed)
        if delivery is None:
            return
        receiver = self._nodes[dst]
        self.schedule(delivery, lambda t: receiver.on_message(message, t))

    def run(self, *, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the event queue; returns the final simulated time.

        Args:
            until: Stop once the clock would pass this time (the triggering
                event is left queued).
            max_events: Safety valve against runaway simulations.

        Raises:
            SimulationError: If ``max_events`` is exhausted.
        """
        if not self._started:
            self._started = True
            for node in self._nodes.values():
                node.on_start(self._now)
        while self._queue:
            time, _seq, action = self._queue[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            heapq.heappop(self._queue)
            self._now = time
            action(time)
            self._processed_events += 1
            if max_events is not None and self._processed_events > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; likely a loop"
                )
        return self._now

    def total_network_bytes(self) -> int:
        """Sum of bytes across all channels."""
        return sum(c.stats.bytes for c in self._channels.values())

    def total_network_messages(self) -> int:
        """Sum of messages across all channels."""
        return sum(c.stats.messages for c in self._channels.values())
