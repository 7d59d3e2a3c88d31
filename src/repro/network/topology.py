"""Three-layer decentralized topology: stream → local → root.

Mirrors Figure 1 of the paper: data-stream nodes (weak sensors) feed local
nodes (edge switches/routers), which feed a single root node (a powerful
cloud server).  The topology builder wires channels in both directions
between adjacent layers and exposes helpers for the per-layer node sets.

Node-capacity defaults encode the paper's asymmetry: stream nodes are weak,
local nodes are mid-range edge hardware, and the root is a server.  Channels
between the local layer and the root default to the paper's 25 Gbit/s
datacenter links but are configurable down to Wi-Fi-class bandwidths, which
is where Dema's network savings matter most (Section 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.network.channels import DEFAULT_BANDWIDTH_BPS, Channel
from repro.network.simulator import SimulatedNode, Simulator

__all__ = ["NodeRole", "TopologyConfig", "Topology", "relay_groups"]

#: Root node id is fixed; local and stream node ids are assigned from here.
ROOT_NODE_ID = 0


class NodeRole(enum.Enum):
    """Layer a node belongs to in the three-layer topology."""

    STREAM = "stream"
    LOCAL = "local"
    ROOT = "root"
    #: Optional aggregation tier between locals and the root (mesh runs):
    #: a relay merges its children's synopsis batches into combined frames
    #: so root ingress grows with the relay count, not the local count.
    RELAY = "relay"


@dataclass(frozen=True, slots=True)
class TopologyConfig:
    """Parameters of a simulated deployment.

    Attributes:
        n_local_nodes: Number of edge (local) nodes.
        streams_per_local: Data-stream nodes attached to each local node.
            Defaults to 0 because the benchmark driver plays the stream
            layer directly; set it to deploy explicit sensor nodes.
        root_ops_per_second: CPU budget of the root node.
        local_ops_per_second: CPU budget of each local node.
        stream_ops_per_second: CPU budget of each data-stream node.
        uplink_bandwidth_bps: Bandwidth local → root, bytes/second.
        downlink_bandwidth_bps: Bandwidth root → local, bytes/second.
        loss_rate: Probability that any root↔local message is lost in
            transit (deterministic per-channel RNG; see ``loss_seed``).
            Requires a reliability-enabled protocol to still produce
            results — see :mod:`repro.core.reliability`.
        loss_seed: Seed for the per-channel loss RNGs.
    """

    n_local_nodes: int = 2
    streams_per_local: int = 0
    root_ops_per_second: float = 2.0e8
    local_ops_per_second: float = 1.0e8
    stream_ops_per_second: float = 2.0e7
    uplink_bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    downlink_bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    loss_rate: float = 0.0
    loss_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_local_nodes < 1:
            raise ConfigurationError(
                f"need at least one local node, got {self.n_local_nodes}"
            )
        if self.streams_per_local < 0:
            raise ConfigurationError(
                f"streams_per_local must be >= 0, got {self.streams_per_local}"
            )


@dataclass
class Topology:
    """A wired three-layer deployment on a simulator.

    Use :meth:`build` to construct; node objects are supplied by the caller
    through factory callables so that every system (Dema, Scotty, Desis,
    t-digest) can install its own operators on the same physical layout.
    """

    simulator: Simulator
    config: TopologyConfig
    root_id: int
    local_ids: list[int]
    stream_ids: dict[int, list[int]] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        simulator: Simulator,
        config: TopologyConfig,
        *,
        root_factory,
        local_factory,
        stream_factory=None,
    ) -> "Topology":
        """Create nodes via the factories and wire all channels.

        Args:
            simulator: Engine to register nodes and channels on.
            config: Deployment parameters.
            root_factory: ``(node_id, ops_per_second) -> SimulatedNode``.
            local_factory: ``(node_id, ops_per_second) -> SimulatedNode``.
            stream_factory: Optional ``(node_id, ops_per_second, local_id) ->
                SimulatedNode``; required when ``streams_per_local > 0``.

        Returns:
            The wired topology.
        """
        root = root_factory(ROOT_NODE_ID, config.root_ops_per_second)
        _require_node(root, "root_factory")
        simulator.add_node(root)

        local_ids = []
        stream_ids: dict[int, list[int]] = {}
        next_id = ROOT_NODE_ID + 1
        for _ in range(config.n_local_nodes):
            local = local_factory(next_id, config.local_ops_per_second)
            _require_node(local, "local_factory")
            simulator.add_node(local)
            local_ids.append(local.node_id)
            next_id += 1

        for local_id in local_ids:
            simulator.connect(
                Channel(
                    local_id,
                    ROOT_NODE_ID,
                    bandwidth_bps=config.uplink_bandwidth_bps,
                    loss_rate=config.loss_rate,
                    loss_seed=config.loss_seed,
                )
            )
            simulator.connect(
                Channel(
                    ROOT_NODE_ID,
                    local_id,
                    bandwidth_bps=config.downlink_bandwidth_bps,
                    loss_rate=config.loss_rate,
                    loss_seed=config.loss_seed,
                )
            )
            attached = []
            for _ in range(config.streams_per_local):
                if stream_factory is None:
                    raise ConfigurationError(
                        "streams_per_local > 0 requires a stream_factory"
                    )
                stream = stream_factory(
                    next_id, config.stream_ops_per_second, local_id
                )
                _require_node(stream, "stream_factory")
                simulator.add_node(stream)
                simulator.connect(Channel(stream.node_id, local_id))
                attached.append(stream.node_id)
                next_id += 1
            stream_ids[local_id] = attached

        return cls(
            simulator=simulator,
            config=config,
            root_id=ROOT_NODE_ID,
            local_ids=local_ids,
            stream_ids=stream_ids,
        )

    def role_of(self, node_id: int) -> NodeRole:
        """Return the layer of ``node_id``.

        Raises:
            ConfigurationError: If the id is not part of this topology.
        """
        if node_id == self.root_id:
            return NodeRole.ROOT
        if node_id in self.local_ids:
            return NodeRole.LOCAL
        for streams in self.stream_ids.values():
            if node_id in streams:
                return NodeRole.STREAM
        raise ConfigurationError(f"node {node_id} is not in this topology")

    def uplink(self, local_id: int) -> Channel:
        """The local → root channel of ``local_id``."""
        return self.simulator.channel(local_id, self.root_id)

    def downlink(self, local_id: int) -> Channel:
        """The root → local channel of ``local_id``."""
        return self.simulator.channel(self.root_id, local_id)


def relay_groups(
    local_ids: "list[int] | tuple[int, ...]", fanin: int
) -> "list[tuple[int, ...]]":
    """Partition locals into contiguous relay groups of at most ``fanin``.

    Deterministic: group ``k`` holds ``local_ids[k*fanin : (k+1)*fanin]``,
    so the same member list always yields the same tree.  ``fanin <= 0``
    means "no relay tier" and returns the empty list.
    """
    if fanin <= 0:
        return []
    ids = tuple(local_ids)
    return [ids[i:i + fanin] for i in range(0, len(ids), fanin)]


def _require_node(candidate, factory_name: str) -> None:
    if not isinstance(candidate, SimulatedNode):
        raise ConfigurationError(
            f"{factory_name} must return a SimulatedNode, got "
            f"{type(candidate).__name__}"
        )
