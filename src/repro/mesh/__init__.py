"""Scale-out mesh: elastic membership, sharded roots, relay aggregation.

The mesh generalizes the single-root live cluster along three axes,
without touching a line of the Dema operators — and without a second
driver: each axis is an option on the one
:class:`~repro.mesh.config.ClusterConfig` that
:func:`repro.runtime.cluster.run_cluster` deploys.

* **Elastic membership** — locals join and leave mid-run at grid
  boundaries; windows re-plan around the change instead of hanging.
* **Sharded roots** — window ownership is partitioned across R root
  servers by a deterministic routing function; each shard runs the
  unmodified identification/calculation operators on its share, and the
  merged outcomes are bit-identical to a single root's.
* **Relay-tree aggregation** — an optional tier of fan-in-F relays
  combines children's synopsis and candidate frames, so root ingress
  bytes grow with the relay count instead of the local count.

See ``docs/mesh.md`` for the protocol details and invariants.

The live hosts in :mod:`repro.runtime.servers` import this package's
routing and relay modules, and this package's cluster names live in
:mod:`repro.runtime.cluster`; attribute access is therefore lazy (PEP
562), as in :mod:`repro.runtime`, so neither import creates a cycle.
"""

from __future__ import annotations

from repro.mesh.routing import (
    RELAY_ID_BASE,
    SHARD_ID_BASE,
    ShardMap,
    relay_node_id,
    shard_node_id,
    shard_of,
)

__all__ = [
    "FailoverController",
    "MembershipEvent",
    "MeshConfig",
    "ShardMap",
    "run_mesh",
    "RELAY_ID_BASE",
    "SHARD_ID_BASE",
    "relay_node_id",
    "shard_node_id",
    "shard_of",
]

#: Lazily resolved exports: attribute name -> defining submodule.
_LAZY = {
    "FailoverController": "repro.mesh.failover",
    "MembershipEvent": "repro.mesh.config",
    "MeshConfig": "repro.mesh.config",
    "run_mesh": "repro.mesh.cluster",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)


def __dir__() -> list[str]:
    return sorted(__all__)
