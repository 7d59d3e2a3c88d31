"""Mesh-wide telemetry: Dema monitoring itself with its own sketches.

Fleet telemetry is the paper's thesis applied to the system's own
operations: per-node latency/backlog samples are summarized locally with
:class:`repro.sketches.tdigest.TDigest` and shipped as mergeable
centroids (``TelemetryDigestMessage``, wire tag 28) plus flat
counter/gauge snapshots (``TelemetrySnapshotMessage``, wire tag 27) over
the *existing* transports, piggybacked in-band the way heartbeats are.
The coordinator's :class:`FleetCollector` merges the digests into
cluster-wide percentiles — the exact decentralized-quantile machinery
the repo reproduces, dogfooded.

Off by default; with telemetry disabled no uplink task is started and
zero telemetry bytes touch the wire.
"""

from repro.obs.fleet.bench import fleet_benchmark
from repro.obs.fleet.collector import FLEET_QUANTILES, FleetCollector
from repro.obs.fleet.uplink import TelemetryUplink

__all__ = [
    "FLEET_QUANTILES",
    "FleetCollector",
    "TelemetryUplink",
    "fleet_benchmark",
]
