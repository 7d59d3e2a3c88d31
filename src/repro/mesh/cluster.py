"""The cluster's ground truth and its grader — and the mesh's old names.

There is one cluster driver, :func:`repro.runtime.cluster.run_cluster`;
a mesh is that driver with ``n_shards > 1`` and/or ``relay_fanin > 0``
on its config, and ``run_mesh`` is this package's name for
:func:`~repro.runtime.cluster.run_live`.

Without faults and with a fixed γ, a run's per-window quantile values
are **bit-identical** to the single-root
:class:`~repro.core.engine.DemaEngine` on the same workload, whatever
the topology.  :func:`mesh_oracle` computes that truth (membership
truncations included) and :func:`classify_outcomes` grades any run —
live or simulated, disturbed or not — against it with the chaos suite's
recovered/degraded/lost/mismatch taxonomy.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from repro.core.engine import DemaEngine
from repro.core.root_node import WindowOutcome
from repro.mesh.config import ClusterConfig
from repro.network.topology import TopologyConfig
from repro.runtime.cluster import (
    MeshChaosContext,
    _grid,
    _membership_ranges,
    run_live as run_mesh,
)
from repro.streaming.columns import as_event_columns
from repro.streaming.events import Event
from repro.streaming.windows import Window

__all__ = [
    "MeshChaosContext",
    "run_mesh",
    "mesh_oracle",
    "grade_outcomes",
    "classify_outcomes",
]


def mesh_oracle(
    streams: Mapping[int, Sequence[Event]],
    config: ClusterConfig,
) -> "dict[Window, float | None]":
    """Ground truth: the single-root engine on the truncated workload.

    Each local's stream is truncated to its eligibility range, which is
    exactly the data the cluster serves — a graceful leave means "windows
    past the boundary see none of my events", and a join means "windows
    before the boundary see none of mine".  The engine's empty-synopsis
    handling makes an ineligible local indistinguishable from an absent
    one, so one engine run covers every membership schedule.
    """
    length = config.query.window_length_ms
    grid_start, grid_end = _grid(
        {n: as_event_columns(share) for n, share in streams.items()}, length
    )
    ranges = _membership_ranges(config, grid_start, grid_end)
    n_nodes = max(ranges)
    truncated = {
        local_id: [
            event
            for event in streams.get(local_id, ())
            if ranges[local_id][0] <= event.timestamp < ranges[local_id][1]
        ]
        for local_id in range(1, n_nodes + 1)
    }
    engine = DemaEngine(
        config.query,
        TopologyConfig(n_local_nodes=n_nodes),
        batch_size=config.batch_size,
    )
    report = engine.run(truncated)
    return {
        outcome.window: outcome.value for outcome in report.outcomes
    }


def grade_outcomes(
    truth: "Mapping[Window, float | None]",
    outcomes: "Sequence[WindowOutcome]",
) -> "dict[Window, str]":
    """Grade every ground-truth window with the chaos suite's taxonomy.

    ``recovered``: exact truth at completeness 1.0 (bit-identical);
    ``degraded``: answered from a strict subset of the eligible locals;
    ``lost``: no answer (or an empty answer where truth has a value);
    ``mismatch``: a full-completeness answer that differs from truth —
    always a bug, and exactly what the bit-identity tests pin to zero.
    """
    by_window = {outcome.window: outcome for outcome in outcomes}
    grades: dict[Window, str] = {}
    for window in sorted(truth):
        outcome = by_window.get(window)
        if outcome is None:
            grades[window] = "lost"
        elif outcome.completeness < 1.0:
            grades[window] = "degraded"
        elif outcome.value == truth[window]:
            grades[window] = "recovered"
        elif outcome.value is None:
            grades[window] = "lost"
        else:
            grades[window] = "mismatch"
    return grades


def classify_outcomes(
    truth: "Mapping[Window, float | None]",
    outcomes: "Sequence[WindowOutcome]",
) -> "dict[str, int]":
    """How many windows :func:`grade_outcomes` put in each class."""
    counts = Counter(grade_outcomes(truth, outcomes).values())
    return {
        grade: counts[grade]
        for grade in ("recovered", "degraded", "lost", "mismatch")
    }
