"""Analytical performance model of every system under evaluation.

Closed-form predictions of network cost and sustainable throughput, derived
from the same cost constants the simulator charges (sort = 4 ops/cmp,
merge = 1, deserialize = 0.75/byte, ingest = 4/event).  Two uses:

* **what-if analysis** — size a deployment (how many edge nodes? which γ?)
  in microseconds instead of simulating;
* **simulator validation** — the test suite checks the model against the
  discrete-event simulation; agreement means the simulator charges exactly
  the costs it claims to.

The model intentionally mirrors the operators:
local capacity solves ``R · c_local(R) = budget`` by fixed point (per-event
cost depends on the window size through the ``log`` of the sorted-insert),
root capacity solves the analogous equation over the aggregate arrival
rate, and Dema's root additionally carries the per-window candidate term
``m·γ`` that is independent of the event rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as _np

from repro.errors import ConfigurationError
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    DigestMessage,
    EventBatchMessage,
    Message,
    SortedRunMessage,
    SynopsisMessage,
    WatermarkMessage,
)
from repro.runtime.wire import F64_BYTES
from repro.network.simulator import (
    INGEST_OPS,
    MERGE_OPS_PER_CMP,
    RECEIVE_OPS_BASE,
    RECEIVE_OPS_PER_BYTE,
    SORT_OPS_PER_CMP,
    receive_ops,
)
from repro.streaming.columns import EventColumns
from repro.streaming.events import EVENT_WIRE_BYTES
from repro.streaming.windows import Window
from repro.core.local_node import _SLICE_OPS_PER_EVENT
from repro.core.root_node import _IDENTIFY_OPS_PER_SYNOPSIS
from repro.core.synopsis import SYNOPSIS_DTYPE, SynopsisColumns
from repro.baselines.tdigest_system import TDigestSummary

__all__ = ["SystemModel", "ThroughputPrediction"]

#: Typical serialized t-digest size per node per window (weakly dependent on
#: the data; calibrated to the implementation's steady state).
_TDIGEST_CENTROIDS = 70

#: One node-window's sketch frame of that size, priced by the message's
#: own declaration (a t-digest also carries its exact min and max).
_TDIGEST_FRAME = DigestMessage(
    0, Window(0, 1), centroids=((0.0, 0.0),) * _TDIGEST_CENTROIDS
)


def _priced(empty: Message, one: Message) -> "tuple[int, int]":
    """A frame type's bytes with no items, and what each item adds, read
    off two sample messages: one empty, one with a single item."""
    return empty.wire_bytes, one.wire_bytes - empty.wire_bytes


_W = Window(0, 1)
_ONE_VALUE = _np.zeros(1, dtype="<f8")
#: The exact systems' frames, priced by the messages' own declarations:
#: a Scotty event batch and its watermark, a Desis sorted run, and Dema's
#: candidate request (per slice index) and candidate run (per value).
_EVENT_BATCH = _priced(
    EventBatchMessage(0, _W),
    EventBatchMessage(0, _W, events=EventColumns.from_arrays(
        _ONE_VALUE, _np.zeros(1, dtype="<u4"), 0
    )),
)
_WATERMARK_FRAME = WatermarkMessage(0, _W).wire_bytes
_SORTED_RUN = _priced(
    SortedRunMessage(0, _W), SortedRunMessage(0, _W, events=_ONE_VALUE)
)
_REQUEST = _priced(
    CandidateRequestMessage(0, _W),
    CandidateRequestMessage(0, _W, slice_indices=(0,)),
)
_CANDIDATE_RUN = _priced(
    CandidateEventsMessage(0, _W),
    CandidateEventsMessage(0, _W, events=_ONE_VALUE),
)


def _synopsis_frame(n_synopses: int) -> int:
    """Bytes of one local's synopsis frame of ``n_synopses`` slices."""
    return SynopsisMessage(0, _W, synopses=SynopsisColumns(
        _np.zeros(n_synopses, dtype=SYNOPSIS_DTYPE)
    )).wire_bytes


@dataclass(frozen=True, slots=True)
class ThroughputPrediction:
    """Predicted sustainable throughput and its binding resource."""

    system: str
    per_node_rate: float
    bottleneck: str  # "local" or "root"


@dataclass(frozen=True, slots=True)
class SystemModel:
    """Deployment parameters shared by all predictions.

    Attributes:
        n_local_nodes: Edge node count.
        node_ops_per_second: CPU budget of every node (identical hardware,
            as in the paper's cluster).
        window_length_s: Tumbling window length in seconds.
        gamma: Dema's slice factor.
        candidate_slices: Dema's expected candidate-slice count ``m``.
        batch_size: Events per forwarded batch (header amortization).
    """

    n_local_nodes: int = 2
    node_ops_per_second: float = 1e5
    window_length_s: float = 1.0
    gamma: int = 100
    candidate_slices: int = 3
    batch_size: int = 512

    def __post_init__(self) -> None:
        if self.n_local_nodes < 1:
            raise ConfigurationError("need at least one local node")
        if self.gamma < 2:
            raise ConfigurationError(f"gamma must be >= 2, got {self.gamma}")

    # ------------------------------------------------------------------
    # Network cost (bytes over all channels for a fixed event volume).
    # ------------------------------------------------------------------

    def network_bytes(
        self, system: str, events_per_node_window: int, n_windows: int
    ) -> float:
        """Predicted total bytes for a fixed workload."""
        n, l, w = self.n_local_nodes, events_per_node_window, n_windows
        if system == "scotty":
            # ⌈l / batch size⌉ event batches a node-window, then one
            # watermark.
            frame, per_event = _EVENT_BATCH
            batches = math.ceil(l / self.batch_size)
            return n * w * (
                batches * frame + l * per_event + _WATERMARK_FRAME
            )
        if system == "desis":
            # One sorted value run per node per window.
            frame, per_value = _SORTED_RUN
            return n * w * (frame + l * per_value)
        if system == "dema":
            # One synopsis frame per node per window, one request per node
            # per window naming the m candidates between them, and one run
            # of γ values per candidate.
            synopsis_bytes = n * w * _synopsis_frame(math.ceil(l / self.gamma))
            m = self.candidate_slices
            frame, per_index = _REQUEST
            request_bytes = w * (n * frame + m * per_index)
            frame, per_value = _CANDIDATE_RUN
            candidate_bytes = w * m * (frame + self.gamma * per_value)
            return synopsis_bytes + request_bytes + candidate_bytes
        if system == "tdigest":
            return n * w * _TDIGEST_FRAME.wire_bytes
        raise ConfigurationError(f"unknown system {system!r}")

    # ------------------------------------------------------------------
    # Throughput capacity.
    # ------------------------------------------------------------------

    def _local_ops_per_event(self, system: str, local_window: float) -> float:
        log_term = math.log2(max(local_window, 2.0))
        if system == "scotty":
            return INGEST_OPS
        if system == "desis":
            return INGEST_OPS + log_term
        if system == "dema":
            return INGEST_OPS + log_term + _SLICE_OPS_PER_EVENT
        if system == "tdigest":
            return INGEST_OPS + TDigestSummary.ops_per_event
        raise ConfigurationError(f"unknown system {system!r}")

    def _root_ops_per_window(self, system: str, per_node_rate: float) -> float:
        n = self.n_local_nodes
        global_window = n * per_node_rate * self.window_length_s
        receive_event = RECEIVE_OPS_PER_BYTE * EVENT_WIRE_BYTES
        # Desis' runs and Dema's candidates carry values only.
        receive_value = RECEIVE_OPS_PER_BYTE * F64_BYTES
        if system == "scotty":
            per_event = receive_event + INGEST_OPS + SORT_OPS_PER_CMP * (
                math.log2(max(global_window, 2.0))
            )
            return global_window * per_event
        if system == "desis":
            per_event = receive_value + MERGE_OPS_PER_CMP * math.log2(max(n, 2))
            return global_window * per_event + n * RECEIVE_OPS_BASE
        if system == "dema":
            slices = global_window / self.gamma
            # n + 1 boundaries a node: one value a slice, one a node.
            synopsis_receive = (
                RECEIVE_OPS_PER_BYTE * (slices + n) * F64_BYTES
                + n * RECEIVE_OPS_BASE
            )
            identify = _IDENTIFY_OPS_PER_SYNOPSIS * slices * max(
                1.0, math.log2(max(slices, 2.0))
            )
            # Candidate transfer cannot exceed the window itself (a huge γ
            # fetches at most every event once).
            candidates = min(
                self.candidate_slices * self.gamma, global_window
            )
            candidate_cost = candidates * (
                receive_value
                + MERGE_OPS_PER_CMP
                * math.log2(max(self.candidate_slices, 2))
            )
            return synopsis_receive + identify + candidate_cost
        if system == "tdigest":
            return n * (
                receive_ops(_TDIGEST_FRAME.payload_bytes)
                + TDigestSummary.ops_per_item * _TDIGEST_CENTROIDS
            )
        raise ConfigurationError(f"unknown system {system!r}")

    def local_capacity(self, system: str) -> float:
        """Max per-node rate the local node sustains (fixed point)."""
        budget = self.node_ops_per_second * self.window_length_s
        rate = budget / 10.0
        for _ in range(30):
            window = rate * self.window_length_s
            per_event = self._local_ops_per_event(system, window)
            new_rate = budget / (per_event * self.window_length_s)
            if abs(new_rate - rate) < 1e-6 * max(rate, 1.0):
                rate = new_rate
                break
            rate = new_rate
        return rate

    def root_capacity(self, system: str) -> float:
        """Max per-node rate the root sustains (fixed point)."""
        budget = self.node_ops_per_second * self.window_length_s
        rate = budget / (10.0 * self.n_local_nodes)
        for _ in range(60):
            ops = self._root_ops_per_window(system, rate)
            if ops <= 0:
                return float("inf")
            scale = budget / ops
            new_rate = rate * scale
            if abs(new_rate - rate) < 1e-6 * max(rate, 1.0):
                rate = new_rate
                break
            # Damped update keeps the iteration stable when the cost has a
            # rate-independent component (Dema's candidate term).
            rate = 0.5 * rate + 0.5 * new_rate
        return rate

    def throughput(self, system: str) -> ThroughputPrediction:
        """Predicted sustainable per-node rate and its bottleneck."""
        local = self.local_capacity(system)
        root = self.root_capacity(system)
        if local <= root:
            return ThroughputPrediction(system, local, "local")
        return ThroughputPrediction(system, root, "root")

    def aggregate_throughput(self, system: str) -> float:
        """Predicted events/second across all local nodes."""
        return self.throughput(system).per_node_rate * self.n_local_nodes
