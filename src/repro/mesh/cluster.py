"""The events a cluster run serves — and the mesh's old names.

There is one cluster driver, :func:`repro.runtime.cluster.run_cluster`;
a mesh is that driver with ``n_shards > 1`` and/or ``relay_fanin > 0``
on its config, and ``run_mesh`` is this package's name for
:func:`~repro.runtime.cluster.run_live`.

Without faults, a run's answers are **bit-identical** to
:func:`repro.testing.oracle` over :func:`served_windows`, whatever the
topology; :func:`repro.testing.grade` grades any run against it.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.mesh.config import ClusterConfig
from repro.runtime.cluster import membership_grid, run_live as run_mesh
from repro.streaming.columns import (
    EMPTY_EVENTS,
    EventColumns,
    as_event_columns,
    concat_columns,
)
from repro.streaming.events import Event

__all__ = ["run_mesh", "served_windows"]


def served_windows(
    streams: Mapping[int, Sequence[Event]],
    config: ClusterConfig,
) -> "tuple[EventColumns, np.ndarray]":
    """The events a run serves — each local's stream cut to its membership
    range, as the driver cuts it — and the starts of the tumbling windows
    they touch: :func:`repro.testing.oracle`'s input for the run."""
    columns = {n: as_event_columns(share) for n, share in streams.items()}
    length = config.query.window_length_ms
    _, _, ranges = membership_grid(config, columns)
    eligible = []
    for local_id, (lo, hi) in ranges.items():
        share = columns.get(local_id, EMPTY_EVENTS)
        eligible.append(share[(lo <= share.timestamps) & (share.timestamps < hi)])
    events = concat_columns(eligible)
    return events, np.unique(events.timestamps // length) * length
