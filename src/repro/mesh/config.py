"""The one live-cluster config: topology, pacing, faults, membership.

A live deployment is one tree — streams → locals → (optional relays) →
root shards — and :class:`ClusterConfig` describes all of it.  The flat
three-layer cluster is simply ``n_shards=1, relay_fanin=0`` (the
defaults); ``LiveClusterConfig`` and ``MeshConfig`` are two older names
for this one class.

Feature combinations that cannot work are rejected in exactly one place,
:meth:`ClusterConfig.check`, each with its reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.query import QuantileQuery
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, ToleranceConfig
from repro.obs.live.config import TelemetryConfig

__all__ = ["MembershipEvent", "ClusterConfig", "MeshConfig"]

#: Fault kinds that sever or gate a local's own uplinks.
_LOCAL_LINK_FAULTS = frozenset(
    {"crash", "restart", "drop_link", "partition_start", "partition_heal"}
)


@dataclass(frozen=True, slots=True)
class MembershipEvent:
    """One planned elastic-membership change.

    Attributes:
        at_ms: Event-time boundary (must lie on the tumbling grid,
            strictly inside it).  A join makes ``local_id`` eligible for
            windows starting at ``at_ms``; a leave makes windows from
            ``at_ms`` on stop waiting for it.
        local_id: The local node joining or leaving.
        kind: ``"join"`` or ``"leave"``.
    """

    at_ms: int
    local_id: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("join", "leave"):
            raise ConfigurationError(
                f"membership kind must be 'join' or 'leave', got "
                f"{self.kind!r}"
            )
        if self.local_id < 1:
            raise ConfigurationError(
                f"membership events need a local id >= 1, got {self.local_id}"
            )


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Shape, pacing and survival policy of one live run.

    Attributes:
        n_locals: Locals present from the start (ids ``1..n_locals``).
            Joiners get ids above that, named by the membership schedule.
        streams_per_local: Replay tasks feeding each local.
        n_shards: Root shards; window ownership is
            :func:`~repro.mesh.routing.shard_of`.  One shard is the
            classic single root.
        relay_fanin: Children per relay.  ``0`` (the default) has no
            relay tier — every local dials every shard directly.  With a
            positive fan-in, locals are partitioned into relay groups
            and only the relays dial the shards.
        query: The quantile query.  Adaptive γ is per-root state, so it
            needs ``n_shards == 1``; bit-identity with the simulator
            needs a fixed γ either way.
        batch_size: Events per replayed batch (window splits still apply).
            The cap trades per-frame cost (cut, codec, transport, one
            event-loop turn a frame) against in-flight memory (a bounded
            pipe holds ``DEFAULT_QUEUE_FRAMES`` frames of up to this many
            events).  It does not trade seal latency: a window's sealing
            watermark rides its last batch, whatever the batch size.
        transport: ``"memory"`` (deterministic, in-process) or ``"tcp"``
            (real localhost sockets).
        time_scale: Wall-clock seconds per second of event time.  ``1.0``
            replays in real time, ``0.0`` as fast as backpressure allows.
        timeout_s: Overall deadline for the run; ``None`` waits forever.
        faults: Optional fault schedule injected while the run is live;
            event times scale to the wall clock by ``time_scale``.
        tolerance: Survival policy (heartbeats, reconnect backoff, the
            reliability timers).  Defaults to :class:`ToleranceConfig`
            whenever ``faults`` is given; without either, the cluster runs
            the deterministic fail-fast path.
        telemetry: Live telemetry plane (wire-level trace context on
            every host, per-node uplinks into the fleet collector, the
            runtime sampler, the ``/summary`` + ``/fleet`` scrape
            endpoint, the flight recorder).  ``None`` — the default —
            starts none of it and puts zero extra bytes on the wire;
            quantile results are bit-identical either way.
        durable_queries: Retain per-driver result logs at the root and
            replay them when a driver reconnects with a resume cursor,
            so a dropped query connection loses no results.  Only
            meaningful when a query driver is attached.
        membership: Planned joins and leaves (may be empty).
        relay_flush_s: Relay combine-buffer deadline: a window's combined
            frame is forwarded when every eligible child has reported or
            when this many wall seconds have passed since the first
            section arrived, whichever is first — a crashed child can
            delay a relay frame, never stall it.
    """

    n_locals: int = 4
    streams_per_local: int = 1
    n_shards: int = 1
    relay_fanin: int = 0
    query: QuantileQuery = field(default_factory=QuantileQuery)
    batch_size: int = 4096
    transport: str = "memory"
    time_scale: float = 0.0
    timeout_s: float | None = 60.0
    faults: FaultPlan | None = None
    tolerance: ToleranceConfig | None = None
    telemetry: TelemetryConfig | None = None
    durable_queries: bool = False
    membership: tuple[MembershipEvent, ...] = ()
    relay_flush_s: float = 1.0

    def __post_init__(self) -> None:
        if self.n_locals < 1:
            raise ConfigurationError("need at least one local node")
        if self.streams_per_local < 1:
            raise ConfigurationError("need at least one stream per local")
        if self.n_shards < 1:
            raise ConfigurationError(
                f"need at least one root shard, got {self.n_shards}"
            )
        if self.relay_fanin < 0:
            raise ConfigurationError(
                f"relay fan-in must be >= 0, got {self.relay_fanin}"
            )
        if self.transport not in ("memory", "tcp"):
            raise ConfigurationError(
                f"transport must be 'memory' or 'tcp', got {self.transport!r}"
            )
        if self.time_scale < 0:
            raise ConfigurationError(
                f"time_scale must be >= 0, got {self.time_scale}"
            )
        if self.relay_flush_s <= 0:
            raise ConfigurationError(
                f"relay_flush_s must be > 0, got {self.relay_flush_s}"
            )
        seen: set[tuple[int, str]] = set()
        for event in self.membership:
            key = (event.local_id, event.kind)
            if key in seen:
                raise ConfigurationError(
                    f"duplicate membership event for local "
                    f"{event.local_id} ({event.kind})"
                )
            seen.add(key)
            if event.kind == "join" and event.local_id <= self.n_locals:
                raise ConfigurationError(
                    f"local {event.local_id} is an initial member and "
                    f"cannot join at runtime"
                )
        self.check()

    def check(self, *, driver: "bool | None" = None) -> None:
        """Reject feature combinations that cannot work, with the reason.

        The one validator: the constructor calls it before anyone knows
        whether a query driver will be attached (``driver=None``), and
        the cluster driver calls it again once it does.
        """
        if self.query.adaptive and self.n_shards > 1:
            raise ConfigurationError(
                "sharded runs need a fixed gamma: adaptive gamma is per-root "
                "state and independent shards would diverge"
            )
        if driver and self.n_shards > 1:
            raise ConfigurationError(
                "a query driver needs n_shards == 1: the root query plane "
                "is per-root state and shards would each see a share of "
                "every group's windows"
            )
        if driver and self.relay_fanin > 0:
            raise ConfigurationError(
                "a query driver needs relay_fanin == 0: group_id means "
                "'query group' to the plane and 'child behind this relay' "
                "to the root's relay routing"
            )
        if driver and self.membership:
            raise ConfigurationError(
                "a query driver needs an empty membership schedule: the "
                "root query plane's member table is fixed at start, so a "
                "leaver would stall every group and a joiner go unheard"
            )
        kinds = (
            {event.kind for event in self.faults.events}
            if self.faults is not None
            else set()
        )
        if kinds - {"kill_shard"} and self.time_scale <= 0:
            raise ConfigurationError(
                "fault injection needs time_scale > 0 — event-time fault "
                "schedules are meaningless at replay-as-fast-as-possible "
                "(only kill_shard is pinned to a protocol point instead)"
            )
        if "kill_shard" in kinds and self.n_shards < 2:
            raise ConfigurationError(
                "kill_shard needs at least 2 shards — a lone root has no "
                "successor to fail onto"
            )
        if kinds & _LOCAL_LINK_FAULTS and self.relay_fanin > 0:
            raise ConfigurationError(
                "crash/drop_link/partition faults need relay_fanin == 0: "
                "session resume is a local↔root handshake, and a relay "
                "forwards neither a child's resume hello nor its redial"
            )
        if (
            driver is not None
            and "driver_drop" in kinds
            and not (driver and self.durable_queries)
        ):
            raise ConfigurationError(
                "driver_drop needs a query driver with durable_queries: "
                "there is no driver session to sever and resume otherwise"
            )


#: The mesh's name for the one config (``LiveClusterConfig`` is the flat
#: cluster's, in :mod:`repro.runtime.cluster`).
MeshConfig = ClusterConfig
