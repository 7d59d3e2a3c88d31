"""Point-to-point channels with bandwidth, latency and byte accounting.

A channel models one direction of a link between two simulated nodes.  It is
FIFO: transmissions serialize on the link, so a message's transfer can only
start once the previous message has fully left the sender.  Delivery time is

    start = max(now, link_free_at)
    delivery = start + wire_bytes / bandwidth + latency

Every byte that crosses the channel is counted; the network-cost figures
(Fig. 6a/6b) are sums over these counters.

Channels can optionally be *lossy* (``loss_rate``): a lost message still
occupies the link and is still counted as sent bytes — the packet went out,
it just never arrived — but no delivery happens.  Loss is driven by a
deterministic per-channel RNG so simulations stay reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, NetworkError
from repro.network.messages import Message

__all__ = ["ChannelStats", "Channel"]

#: 25 Gbit/s in bytes per second — the paper's cluster interconnect.
DEFAULT_BANDWIDTH_BPS = 25e9 / 8

#: Intra-cluster latency assumed for the simulated testbed, in seconds.
DEFAULT_LATENCY_S = 100e-6


@dataclass
class ChannelStats:
    """Cumulative traffic counters for one channel."""

    messages: int = 0
    bytes: int = 0
    events: int = 0
    dropped: int = 0
    #: Bytes by concrete message class name (e.g. ``"SynopsisMessage"``) —
    #: the per-message-type split the observability report renders.
    bytes_by_type: dict[str, int] = field(default_factory=dict)

    def record(self, message: Message) -> None:
        """Account one transmitted message."""
        self.messages += 1
        self.bytes += message.wire_bytes
        kind = type(message).__name__
        self.bytes_by_type[kind] = (
            self.bytes_by_type.get(kind, 0) + message.wire_bytes
        )
        events = getattr(message, "events", None)
        if events is not None:
            self.events += len(events)


class Channel:
    """One direction of a simulated network link."""

    def __init__(
        self,
        src: int,
        dst: int,
        *,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        latency_s: float = DEFAULT_LATENCY_S,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ConfigurationError(
                f"bandwidth must be > 0 bytes/s, got {bandwidth_bps}"
            )
        if latency_s < 0:
            raise ConfigurationError(f"latency must be >= 0 s, got {latency_s}")
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {loss_rate}"
            )
        self._src = src
        self._dst = dst
        self._bandwidth_bps = bandwidth_bps
        self._latency_s = latency_s
        self._loss_rate = loss_rate
        self._loss_rng = random.Random(f"{loss_seed}:{src}:{dst}")
        self._link_free_at = 0.0
        self._stats = ChannelStats()

    @property
    def src(self) -> int:
        """Sending node id."""
        return self._src

    @property
    def dst(self) -> int:
        """Receiving node id."""
        return self._dst

    @property
    def bandwidth_bps(self) -> float:
        """Link bandwidth in bytes per second."""
        return self._bandwidth_bps

    @property
    def latency_s(self) -> float:
        """Propagation latency in seconds."""
        return self._latency_s

    @property
    def stats(self) -> ChannelStats:
        """Cumulative traffic counters."""
        return self._stats

    @property
    def busy_until(self) -> float:
        """Simulated time at which the link becomes idle."""
        return self._link_free_at

    @property
    def loss_rate(self) -> float:
        """Probability that a transmitted message never arrives."""
        return self._loss_rate

    def transmit(self, message: Message, now: float) -> float | None:
        """Account a transmission started at ``now``; return delivery time.

        Returns ``None`` when the message is lost in transit (the bytes are
        still charged — the packet left the sender).

        Raises:
            NetworkError: If ``now`` precedes the channel's last transmission
                start (the simulator must hand times monotonically).
        """
        if now < 0:
            raise NetworkError(f"negative transmission time {now}")
        start = max(now, self._link_free_at)
        transfer = message.wire_bytes / self._bandwidth_bps
        self._link_free_at = start + transfer
        self._stats.record(message)
        if self._loss_rate > 0.0 and self._loss_rng.random() < self._loss_rate:
            self._stats.dropped += 1
            return None
        return self._link_free_at + self._latency_s

    def reset_stats(self) -> None:
        """Zero the traffic counters (link occupancy is preserved)."""
        self._stats = ChannelStats()
