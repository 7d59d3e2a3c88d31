"""The cluster's ground truth and its grader — and the mesh's old names.

There is one cluster driver, :func:`repro.runtime.cluster.run_cluster`;
a mesh is that driver with ``n_shards > 1`` and/or ``relay_fanin > 0``
on its config, and ``run_mesh`` is this package's name for
:func:`~repro.runtime.cluster.run_live`.

Without faults, a run's per-window quantile values are **bit-identical**
to the exact centralized quantile of the same workload — the value at
rank ``ceil(q * n)`` of each window's sorted events — whatever the
topology.  :func:`mesh_oracle` computes that truth (membership
truncations included) without running any Dema operator, and
:func:`classify_outcomes` grades any run —
live or simulated, disturbed or not — against it with the chaos suite's
recovered/degraded/lost/mismatch taxonomy.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from repro.core.root_node import WindowOutcome
from repro.mesh.config import ClusterConfig
from repro.runtime.cluster import (
    MeshChaosContext,
    _grid,
    _membership_ranges,
    run_live as run_mesh,
)
from repro.streaming.aggregates import quantile_rank
from repro.streaming.columns import (
    EMPTY_EVENTS,
    as_event_columns,
    concat_columns,
)
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
    """Ground truth: the exact centralized quantile of every window.

    The paper grades Dema against the centralized system, so truth runs
    no Dema operator — a defect the core nodes share cannot grade itself
    ``recovered``.  Each local's stream is truncated to its eligibility
    range, which is exactly the data the cluster serves: a graceful leave
    means "windows past the boundary see none of my events", and a join
    means "windows before the boundary see none of mine".  Every tumbling
    window the eligible events touch maps to the value at rank
    ``quantile_rank(q, n)`` of its ``n`` events in
    :func:`~repro.streaming.events.event_key` order, so no key is an
    empty window (whose truth would be ``None``).
    """
    length = config.query.window_length_ms
    columns = {n: as_event_columns(share) for n, share in streams.items()}
    grid_start, grid_end = _grid(columns, length)
    eligible = []
    for local_id, (lo, hi) in _membership_ranges(
        config, grid_start, grid_end
    ).items():
        # A mask, not a binary search: without a membership schedule a
        # stream may arrive out of timestamp order.
        events = columns.get(local_id, EMPTY_EVENTS)
        timestamps = events.timestamps
        eligible.append(events[(lo <= timestamps) & (timestamps < hi)])
    events = concat_columns(eligible)
    index = events.timestamps // length
    truth: "dict[Window, float | None]" = {}
    for k in np.unique(index).tolist():
        inside = events[index == k]
        rank = quantile_rank(config.query.q, len(inside))
        if np.isnan(inside.values).any():
            # numpy orders NaN last; event_key order is comparison order.
            keys = sorted(zip(
                inside.values.tolist(),
                inside.node_ids.tolist(),
                inside.seqs.tolist(),
            ))
            value = keys[rank - 1][0]
        else:
            value = float(np.partition(inside.values, rank - 1)[rank - 1])
        truth[Window(k * length, (k + 1) * length)] = value
    return truth


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
