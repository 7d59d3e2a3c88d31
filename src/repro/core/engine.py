"""Dema entry points: pure algorithm and full simulated deployment.

:func:`dema_quantiles` runs identification + calculation in-process over
already-collected local windows — no simulator, no messages — for several
quantiles as a one-window frame of the root's steps
(:func:`~repro.core.identification.identify_frame` and
:func:`~repro.streaming.columns.select_frame`);
:func:`dema_quantile` is its one-``q`` case.  The algorithmic heart of the
paper in one call, used by tests, examples and the accuracy experiment.

:class:`DemaEngine` is the Dema operator pair on the one
:class:`~repro.network.deployment.SimulatedDeployment` every system runs
on, serving one query; concurrent queries share a deployment on the live
query plane (:mod:`repro.queries`).  The benchmark harness builds every
Dema datapoint through this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.network.deployment import SimulatedDeployment
from repro.network.topology import TopologyConfig
from repro.streaming.columns import (
    EventColumns,
    as_event_columns,
    select_frame,
)
from repro.streaming.events import Event

# Hot-path module: every local window becomes an ``EventColumns`` once, at
# the in-memory door, and a run's windows come from the deployment's
# segmenter: no loop here assigns windows (enforced by
# tests/test_hotpath_lint.py).
from repro.core.identification import WindowPlan, identify_frame
from repro.core.local_node import DemaLocalNode
from repro.core.query import QuantileQuery
from repro.core.root_node import DemaRootNode, WindowOutcome
from repro.core.slicing import slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow

__all__ = ["DemaResult", "MultiQuantileResult", "dema_quantile",
           "dema_quantiles", "DemaEngine"]


@dataclass(frozen=True, slots=True)
class DemaResult:
    """Outcome of one in-memory Dema computation.

    Attributes:
        value: The exact quantile value.
        rank: Global rank ``Pos(q)`` that was located.
        global_window_size: Total events across the local windows.
        candidate_events: Events a deployment would transfer in the
            calculation step.
        candidate_slices: Number of candidate slices selected.
        synopses: Number of synopses a deployment would transfer in the
            identification step.
        transfer_events: Synopsis-equivalent plus candidate events — the
            paper's network cost model evaluated on this window.
    """

    value: float
    rank: int
    global_window_size: int
    candidate_events: int
    candidate_slices: int
    synopses: int

    @property
    def transfer_events(self) -> int:
        """Events-on-the-wire cost: two per synopsis plus candidates."""
        return 2 * self.synopses + self.candidate_events


@dataclass(frozen=True, slots=True)
class MultiQuantileResult:
    """Outcome of one multi-quantile Dema computation.

    Attributes:
        values: Exact quantile values keyed by the requested ``q``.
        ranks: The global rank located for each ``q``.
        global_window_size: Total events across the local windows.
        candidate_events: Events fetched for the union of all candidate
            slices (each slice counted once).
        synopses: Synopses shipped in the identification step.
    """

    values: Mapping[float, float]
    ranks: Mapping[float, int]
    global_window_size: int
    candidate_events: int
    synopses: int

    @property
    def transfer_events(self) -> int:
        """Events-on-the-wire cost of the whole multi-quantile query."""
        return 2 * self.synopses + self.candidate_events


def _answer(
    local_windows: "Mapping[int, EventColumns | Sequence[Event]]",
    qs: Sequence[float],
    gamma: int,
) -> tuple[WindowPlan, dict[float, float], int]:
    """Sort and slice every local window, identify every distinct ``q`` in
    one shared pass, fetch the union of the candidate slices once, and
    select each answer; returns the plan (its ranks in ascending ``q``
    order), the values keyed by ``q`` and the synopsis count."""
    if not local_windows:
        raise ConfigurationError("need at least one local window")
    if not qs:
        raise ConfigurationError("need at least one quantile")
    qs = sorted(set(qs))
    sliced = {
        node_id: slice_sorted_events(
            SortedLocalWindow(as_event_columns(events)).seal(), gamma, node_id
        )
        for node_id, events in local_windows.items()
    }
    (plan,) = identify_frame([(
        {n: s.synopses for n, s in sliced.items()},
        {n: s.window_size for n, s in sliced.items()},
        qs,
    )])
    runs = [sliced[n].run_for(i) for n, i in plan.candidates]
    values = dict(zip(qs, next(select_frame([(runs, plan.picks)]))))
    return plan, values, sum(len(s.synopses) for s in sliced.values())


def dema_quantiles(
    local_windows: "Mapping[int, EventColumns | Sequence[Event]]",
    qs: Sequence[float],
    gamma: int,
) -> MultiQuantileResult:
    """Compute several exact quantiles with one shared identification pass.

    Each entry of ``local_windows`` plays the role of one local node's
    window: it is sorted locally, sliced with ``gamma`` and reduced to
    synopses.  Synopses are shipped once for every quantile, and the
    calculation step fetches the **union** of every rank's candidate
    slices, so a slice needed by two quantiles crosses the network once.

    Args:
        local_windows: Per-node event collections (any order within a
            node), each an ``EventColumns`` or a sequence of ``Event``.
        qs: The quantiles, each in ``(0, 1]``; duplicates are collapsed.
        gamma: The slice factor, ≥ 2.

    Returns:
        Exact values for every requested quantile plus shared transfer
        accounting.

    Raises:
        ConfigurationError: If no nodes or no quantiles are given.
        IdentificationError: If all windows are empty.
    """
    plan, values, n_synopses = _answer(local_windows, qs, gamma)
    return MultiQuantileResult(
        values=values,
        ranks=dict(zip(values, plan.ranks)),
        global_window_size=plan.global_window_size,
        candidate_events=plan.candidate_events,
        synopses=n_synopses,
    )


def dema_quantile(
    local_windows: "Mapping[int, EventColumns | Sequence[Event]]",
    q: float,
    gamma: int,
) -> DemaResult:
    """Compute an exact quantile the Dema way, in memory, with
    transfer-cost accounting: :func:`dema_quantiles` for the single
    quantile ``q``, same arguments and errors."""
    plan, values, n_synopses = _answer(local_windows, (q,), gamma)
    return DemaResult(
        value=values[q],
        rank=plan.ranks[0],
        global_window_size=plan.global_window_size,
        candidate_events=plan.candidate_events,
        candidate_slices=len(plan.candidates),
        synopses=n_synopses,
    )


class DemaEngine(SimulatedDeployment):
    """A Dema deployment on the simulated three-layer network, serving one
    query."""

    def __init__(
        self,
        query: QuantileQuery,
        topology_config: TopologyConfig,
        *,
        batch_size: int = 512,
        reliability=None,
        trace=None,
        tracer=None,
    ) -> None:
        if not isinstance(query, QuantileQuery):
            raise ConfigurationError(
                "a simulated deployment serves one QuantileQuery; concurrent "
                "queries share a deployment on the live query plane "
                "(repro.queries)"
            )
        super().__init__(
            topology_config,
            root=partial(DemaRootNode, query=query, reliability=reliability),
            local=partial(DemaLocalNode, query=query, reliability=reliability),
            assigner=query.assigner(),
            batch_size=batch_size,
            trace=trace,
            tracer=tracer,
        )

    def _outcomes(self) -> list[WindowOutcome]:
        """The root's per-window list, counting its candidate fetches when
        tracing."""
        answered = self.root.outcomes
        if self._tracer.enabled:
            for outcome in answered:
                self._tracer.registry.counter(
                    "candidate_events_total",
                    "Candidate events fetched for calculation.",
                ).inc(outcome.candidate_events)
        return answered
