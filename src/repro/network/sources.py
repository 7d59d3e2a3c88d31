"""Explicit data-stream sensor nodes (the bottom tier of Figure 1).

The benchmark driver normally plays the stream layer by calling local-node
``ingest`` directly — cheap and sufficient for the figures.  This module
provides the *physical* alternative: weak sensor nodes that transmit their
readings to the local node over a real simulated channel, paying bytes,
bandwidth, latency and CPU on both ends.  Local operators accept the
resulting :class:`~repro.network.messages.EventBatchMessage`s through their
``on_message`` path, so the whole three-tier topology of the paper can be
exercised end to end.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.network.driver import event_timestamps
from repro.network.messages import EventBatchMessage, Message
from repro.network.simulator import INGEST_OPS, SimulatedNode
from repro.streaming.columns import EventColumns, as_event_columns
from repro.streaming.events import Event
from repro.streaming.windows import Window

# Hot-path module: a sensor's share is cut into transmissions by position
# on its timestamp column and shipped as ``EventColumns`` slices — no loop
# here runs per event (enforced by tests/test_hotpath_lint.py).

__all__ = ["StreamSensorNode"]


class StreamSensorNode(SimulatedNode):
    """A weak sensor that produces events and ships them to its local node.

    Load the sensor with :meth:`load` before the simulation starts; it
    schedules one transmission per batch at the batch's last event time.
    """

    def __init__(
        self,
        node_id: int,
        *,
        local_id: int,
        ops_per_second: float = 2e7,
        batch_size: int = 256,
        max_batch_delay_ms: int = 20,
    ) -> None:
        super().__init__(node_id, ops_per_second=ops_per_second)
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if max_batch_delay_ms < 1:
            raise ConfigurationError(
                f"max_batch_delay_ms must be >= 1, got {max_batch_delay_ms}"
            )
        self._local_id = local_id
        self._batch_size = batch_size
        self._max_batch_delay_ms = max_batch_delay_ms
        self._events_produced = 0

    @property
    def local_id(self) -> int:
        """The edge node this sensor reports to."""
        return self._local_id

    @property
    def max_batch_delay_ms(self) -> int:
        """Longest a reading may sit in the transmit buffer."""
        return self._max_batch_delay_ms

    @property
    def events_produced(self) -> int:
        """Events scheduled for transmission so far."""
        return self._events_produced

    def load(self, events: "EventColumns | Iterable[Event]") -> None:
        """Schedule the sensor's readings for transmission.

        Args:
            events: The sensor's stream in non-decreasing timestamp order,
                as an ``EventColumns`` or a sequence of ``Event`` (converted
                here).

        Raises:
            ConfigurationError: If timestamps regress; nothing is scheduled.
        """
        events = as_event_columns(events)
        timestamps = event_timestamps(events, ordered=True)
        a = 0
        while a < len(events):
            # Flush before the oldest buffered reading grows stale; this
            # also bounds how far a batch can spill past a window boundary.
            stale = int(np.searchsorted(
                timestamps, timestamps[a] + self._max_batch_delay_ms
            ))
            b = min(a + self._batch_size, stale)
            self._schedule_batch(events[a:b])
            a = b

    def _schedule_batch(self, batch: EventColumns) -> None:
        send_time = batch.timestamp_at(-1) / 1000.0
        self._events_produced += len(batch)
        self.simulator.schedule(
            send_time, lambda now, b=batch: self._transmit(b, now)
        )

    def _transmit(self, batch: EventColumns, now: float) -> None:
        finish = self.work(INGEST_OPS * len(batch), now)
        # An advisory window tag covering the batch (receivers re-assign).
        span = Window(batch.timestamp_at(0), batch.timestamp_at(-1) + 1)
        message = EventBatchMessage(
            sender=self.node_id, window=span, events=batch
        )
        self.send(message, self._local_id, finish)

    def on_message(self, message: Message, now: float) -> None:
        raise ConfigurationError(
            f"sensor {self.node_id} does not accept messages, got "
            f"{type(message).__name__}"
        )
