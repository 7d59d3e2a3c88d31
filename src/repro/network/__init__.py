"""Simulated decentralized network: the reproduction's testbed.

The paper evaluates on a 9-node cluster with 25 Gbit/s Ethernet.  This
subpackage replaces that hardware with a deterministic discrete-event
simulator: nodes exchange typed messages over channels with configurable
bandwidth and latency, every message has a byte-exact serialized size, and
each node owns a CPU model with a configurable operations-per-second budget.
All evaluation metrics — throughput, latency, network cost — are read off the
simulator clock and the channel byte counters.  Every system runs as a
root/local operator pair on one :class:`SimulatedDeployment`.
"""

from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    DigestMessage,
    EventBatchMessage,
    GammaUpdateMessage,
    Message,
    ResultMessage,
    SortedRunMessage,
    SynopsisMessage,
    WatermarkMessage,
)
from repro.network.channels import Channel, ChannelStats
from repro.network.simulator import Simulator, SimulatedNode, CpuModel
from repro.network.topology import Topology, TopologyConfig, NodeRole
from repro.network.metrics import NetworkMetrics, LinkUsage
from repro.network.deployment import RunReport, SimulatedDeployment

__all__ = [
    "Message",
    "EventBatchMessage",
    "SynopsisMessage",
    "CandidateRequestMessage",
    "CandidateEventsMessage",
    "GammaUpdateMessage",
    "DigestMessage",
    "SortedRunMessage",
    "WatermarkMessage",
    "ResultMessage",
    "Channel",
    "ChannelStats",
    "Simulator",
    "SimulatedNode",
    "CpuModel",
    "Topology",
    "TopologyConfig",
    "NodeRole",
    "NetworkMetrics",
    "LinkUsage",
    "RunReport",
    "SimulatedDeployment",
]
