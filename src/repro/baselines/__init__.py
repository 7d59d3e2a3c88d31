"""Baseline systems the paper compares Dema against (Section 4).

* **Scotty** — centralized aggregation: local nodes forward every raw event
  to the root, which sorts the full global window.  Serves as exact ground
  truth, as in the paper's accuracy experiment.
* **Desis (modified)** — decentralized sorting: local nodes sort their
  windows and ship full sorted runs; the root k-way merges.  Same network
  cost as Scotty but a cheaper root.
* **Tdigest** — local nodes build t-digests and ship only centroids; the
  root merges digests.  Fastest and lightest, but approximate.
* **Partial aggregation** — a decomposable function (sum) folds into a
  constant-size partial per window: the paper's motivating contrast.

Every system but Scotty is one operator pair,
:class:`~repro.baselines.base.SummaryLocalNode` and
:class:`~repro.baselines.base.SummaryRootNode`, run with that system's
:class:`~repro.baselines.base.Summary`.  All four deploy on the identical
simulated topology as operator pairs on the one
:class:`~repro.network.deployment.SimulatedDeployment` Dema runs on, so
every figure compares systems under the same workload, links and CPU
budgets.
"""

from repro.baselines.base import (
    Summary,
    SummaryLocalNode,
    SummaryRootNode,
    WindowRecord,
    build_system,
    SYSTEM_NAMES,
)
from repro.baselines.scotty import ScottyLocalNode, ScottyRootNode
from repro.baselines.desis import DesisSummary
from repro.baselines.tdigest_system import TDigestSummary
from repro.baselines.partial import PartialSummary, build_partial_system

__all__ = [
    "WindowRecord",
    "build_system",
    "build_partial_system",
    "SYSTEM_NAMES",
    "Summary",
    "SummaryLocalNode",
    "SummaryRootNode",
    "ScottyLocalNode",
    "ScottyRootNode",
    "DesisSummary",
    "TDigestSummary",
    "PartialSummary",
]
