"""Event model for decentralized data streams.

An event is the unit of data produced by a data-stream node.  Following the
paper (Section 2.3), an event consists of a *value*, an event-time *timestamp*
and an *id*, all assigned by the producing node.  For Dema's exactness
guarantee the reproduction additionally defines a strict total order over
events — the :func:`event_key` — so that rank computations are deterministic
even when values collide across nodes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.runtime import wire

__all__ = ["Event", "EventKey", "event_key", "make_events", "EVENT_WIRE_BYTES"]

#: Serialized size of one event on the wire, in bytes.  The paper's events
#: carry an 8-byte value, a 4-byte timestamp and a 4-byte id; the
#: reproduction adds the 4-byte per-node sequence number that makes the
#: total order strict, for 20 bytes.  The constant comes from the binary
#: codec's struct layout (:mod:`repro.runtime.wire`), so simulated byte
#: accounting matches what the live runtime actually serializes.
EVENT_WIRE_BYTES = wire.EVENT_WIRE_BYTES

#: The total-order key of an event: ``(value, node_id, seq)``.
EventKey = tuple[float, int, int]


@dataclass(frozen=True, slots=True)
class Event:
    """A single stream event.

    Attributes:
        value: The measured sensor value; the quantity quantiles range over.
        timestamp: Event time in milliseconds since the stream epoch.  Window
            assignment uses this, never arrival time (Dema is event-time
            based, Section 3.1).
        node_id: Identifier of the data-stream node that produced the event.
        seq: Per-node monotonically increasing sequence number.  Together with
            ``node_id`` it makes every event globally unique, which gives the
            value order a deterministic tie-break.
    """

    value: float
    timestamp: int
    node_id: int
    seq: int

    @property
    def key(self) -> EventKey:
        """Strict-total-order key used for all rank computations."""
        return (self.value, self.node_id, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.key < other.key

    def __le__(self, other: "Event") -> bool:
        return self.key <= other.key

    def __gt__(self, other: "Event") -> bool:
        return self.key > other.key

    def __ge__(self, other: "Event") -> bool:
        return self.key >= other.key

    @property
    def wire_bytes(self) -> int:
        """Bytes this event occupies in a network message payload."""
        return EVENT_WIRE_BYTES


#: Return the strict-total-order key ``(value, node_id, seq)`` of an event.
#: Used as the ``key=`` argument to :func:`sorted` and friends on every hot
#: sort/merge path, so it is a C-level :func:`operator.attrgetter` rather
#: than a Python function calling the :attr:`Event.key` property.
event_key: Callable[[Event], EventKey] = operator.attrgetter(
    "value", "node_id", "seq"
)


def make_events(
    values: Sequence[float] | Iterable[float],
    *,
    node_id: int = 0,
    start_timestamp: int = 0,
    timestamp_step: int = 1,
    start_seq: int = 0,
) -> list[Event]:
    """Build a list of events from raw values.

    A convenience constructor used heavily by tests and examples: values are
    paired with evenly spaced timestamps and consecutive sequence numbers.

    Args:
        values: Event values in production order.
        node_id: Producing node id stamped on every event.
        start_timestamp: Timestamp of the first event, in milliseconds.
        timestamp_step: Timestamp increment between consecutive events; must
            be non-negative.
        start_seq: Sequence number of the first event.

    Returns:
        Events in production order.

    Raises:
        ConfigurationError: If ``timestamp_step`` is negative.
    """
    if timestamp_step < 0:
        raise ConfigurationError(
            f"timestamp_step must be >= 0, got {timestamp_step}"
        )
    events = []
    for offset, value in enumerate(values):
        events.append(
            Event(
                value=float(value),
                timestamp=start_timestamp + offset * timestamp_step,
                node_id=node_id,
                seq=start_seq + offset,
            )
        )
    return events
