"""Fault injection and crash/reconnect tolerance for Dema deployments.

The package has two halves that share one vocabulary:

* **Injection** — :mod:`repro.faults.plan` defines seeded, deterministic
  :class:`FaultPlan` schedules; :mod:`repro.faults.scenarios` names common
  patterns; :mod:`repro.faults.chaos` applies a plan to the live asyncio
  transport (stream severing, delays, reorder, partition gating).
* **Tolerance policy** — :class:`ToleranceConfig` bundles the heartbeat
  cadence, failure-detection threshold, reconnect backoff and the
  reliability (retransmit) parameters a cluster runs with while faults are
  being injected.  The mechanisms themselves live where the connections
  are: :mod:`repro.runtime.servers` (heartbeats, reconnect, resume) and
  :mod:`repro.core.root_node` (degraded answers from surviving locals).

:mod:`repro.faults.runner` (imported lazily — it pulls in the live
runtime) runs a named scenario end to end on the live cluster and
classifies every window as recovered, degraded or lost.
"""

from repro.faults.plan import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    ToleranceConfig,
    describe_event,
)
from repro.faults.scenarios import SCENARIOS, ChaosScenario, build_plan

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "ToleranceConfig",
    "describe_event",
    "SCENARIOS",
    "ChaosScenario",
    "build_plan",
    "ChaosStream",
    "ChaosController",
    "ChaosReport",
    "run_chaos",
]

_LAZY = {
    # Imported on first touch: chaos/runner reach into the runtime layer,
    # which must not load just to build a plan.
    "ChaosStream": "repro.faults.chaos",
    "ChaosController": "repro.faults.chaos",
    "ChaosReport": "repro.faults.runner",
    "run_chaos": "repro.faults.runner",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, name)
