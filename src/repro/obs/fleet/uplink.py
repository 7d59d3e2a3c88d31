"""Per-node side of the fleet telemetry plane.

A :class:`TelemetryUplink` lives on one node (local, relay or shard).
The node feeds it raw samples (``observe``) and flat counter/gauge
readings (``set_stat``); at each uplink interval the owner calls
:meth:`build` and sends the returned frames upstream on whatever
connection it already holds — telemetry is in-band and piggybacked, so
partitions and failover exercise it for free.

Digests are **cumulative**: every uplink ships the node's full t-digest
since start, stamped with a monotonically increasing sequence number.
The collector keeps only the highest sequence per ``(sender, metric)``,
which makes duplicated or re-ordered uplinks (relay replay, failover
reconnects) idempotent — last write wins and the last write contains
everything.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from repro.network.messages import (
    Message,
    TelemetryDigestMessage,
    TelemetrySnapshotMessage,
)
from repro.sketches.tdigest import TDigest
from repro.streaming.windows import CONTROL_WINDOW, Window

__all__ = ["TelemetryUplink", "UPLINK_COMPRESSION", "pump"]

#: Compression for uplinked digests.  Deliberately coarser than the
#: query-path default (100): telemetry needs p50/p95/p99 to within a
#: fraction of a percent, and halving the centroid budget halves the
#: steady-state uplink bytes.
UPLINK_COMPRESSION = 50.0


class TelemetryUplink:
    """Accumulates one node's samples and builds its uplink frames."""

    def __init__(
        self,
        node_id: int,
        *,
        compression: float = UPLINK_COMPRESSION,
    ) -> None:
        self.node_id = node_id
        self.compression = compression
        self._digests: dict[str, TDigest] = {}
        self._stats: dict[str, float] = {}
        self._sequence = 0
        self._samples = 0

    @property
    def sequence(self) -> int:
        """Sequence number stamped on the most recent :meth:`build`."""
        return self._sequence

    @property
    def samples(self) -> int:
        """Raw samples absorbed since start (the cost digests avoid)."""
        return self._samples

    def observe(self, metric: str, value: float) -> None:
        """Absorb one sample of ``metric`` into its cumulative digest."""
        digest = self._digests.get(metric)
        if digest is None:
            digest = self._digests[metric] = TDigest(self.compression)
        digest.add(float(value))
        self._samples += 1

    def set_stat(self, name: str, value: float) -> None:
        """Set a flat counter/gauge reading shipped with each snapshot."""
        self._stats[name] = float(value)

    def inc_stat(self, name: str, amount: float = 1.0) -> None:
        """Increment a flat stat (convenience for counters)."""
        self._stats[name] = self._stats.get(name, 0.0) + amount

    def build(self, window: Window) -> list[Message]:
        """Frames for one uplink: a snapshot plus one digest per metric.

        ``window`` is the control window the owner sends telemetry on
        (the same reserved window heartbeats use).  Returns an empty
        list when there is nothing to report yet, so an idle node ships
        zero telemetry bytes.
        """
        if not self._stats and not self._digests:
            return []
        self._sequence += 1
        frames: list[Message] = [
            TelemetrySnapshotMessage(
                self.node_id,
                window,
                sequence=self._sequence,
                stats=tuple(sorted(self._stats.items())),
            )
        ]
        for metric in sorted(self._digests):
            digest = self._digests[metric]
            if digest.count == 0:
                continue
            frames.append(
                TelemetryDigestMessage(
                    self.node_id,
                    window,
                    metric=metric,
                    sequence=self._sequence,
                    centroids=digest.to_centroid_tuples(),
                    minimum=digest.min,
                    maximum=digest.max,
                )
            )
        return frames


async def pump(
    uplink: TelemetryUplink,
    interval_s: float,
    refresh: Callable[[], None],
    send: Callable[[list[Message]], Awaitable[None]],
    closing: Callable[[], bool],
) -> None:
    """The summarize-and-send loop a local or relay host spawns.

    Every ``interval_s`` the host samples its own event-loop lag,
    ``refresh``-es its flat stats and hands one :meth:`TelemetryUplink.build`
    to ``send``, which ships it on a connection the host already holds —
    telemetry piggybacks like heartbeats, so partitions and failover
    exercise it for free.  Stops once ``closing()`` is true.
    """
    loop = asyncio.get_event_loop()
    while not closing():
        before = loop.time()
        await asyncio.sleep(interval_s)
        lag = loop.time() - before - interval_s
        uplink.observe("event_loop_lag_s", max(0.0, lag))
        refresh()
        await send(uplink.build(CONTROL_WINDOW))
