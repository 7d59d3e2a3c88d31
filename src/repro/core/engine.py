"""Dema entry points: pure algorithm and full simulated deployment.

:func:`dema_quantiles` runs identification + calculation in-process over
already-collected local windows — no simulator, no messages — for several
quantiles with one :func:`~repro.core.identification.identify_multi` pass;
:func:`dema_quantile` is its one-``q`` case.  The algorithmic heart of the
paper in one call, used by tests, examples and the accuracy experiment.

:class:`DemaEngine` is the Dema operator pair on the one
:class:`~repro.network.deployment.SimulatedDeployment` every system runs
on.  It serves one query or many: several queries share one deployment in
groups (:func:`~repro.core.query.group_queries`), each group's quantiles
answered from one synopsis batch per node, and a many-query run reports
one :class:`ConcurrentOutcome` row per query per window.  The benchmark
harness builds every Dema datapoint through this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.network.deployment import SimulatedDeployment
from repro.network.topology import TopologyConfig
from repro.streaming.columns import EventColumns, as_event_columns
from repro.streaming.events import Event
from repro.streaming.windows import Window

# Hot-path module: every local window becomes an ``EventColumns`` once, at
# the in-memory door, and a run's windows come from the deployment's
# segmenter: no loop here assigns windows (enforced by
# tests/test_hotpath_lint.py).
from repro.core.calculation import calculate_quantiles
from repro.core.identification import MultiIdentificationResult, identify_multi
from repro.core.local_node import DemaLocalNode
from repro.core.query import QuantileQuery, QueryGroup, served_groups
from repro.core.root_node import DemaRootNode, WindowOutcome
from repro.core.slicing import slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow

__all__ = ["DemaResult", "MultiQuantileResult", "ConcurrentOutcome",
           "dema_quantile", "dema_quantiles", "DemaEngine"]


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
) -> tuple[MultiIdentificationResult, dict[float, float], int]:
    """Sort and slice every local window, identify every ``q`` in one
    shared pass, fetch the union of the candidate slices once, and select
    each answer; returns the plan, the values and the synopsis count."""
    if not local_windows:
        raise ConfigurationError("need at least one local window")
    if not qs:
        raise ConfigurationError("need at least one quantile")
    sliced = {
        node_id: slice_sorted_events(
            SortedLocalWindow(as_event_columns(events)).seal(), gamma, node_id
        )
        for node_id, events in local_windows.items()
    }
    plan = identify_multi(
        {n: s.synopses for n, s in sliced.items()},
        {n: s.window_size for n, s in sliced.items()},
        qs,
    )
    runs = {
        s.slice_id: sliced[s.node_id].run_for(s.slice_index)
        for cut in plan.cuts.values() for s in cut.candidates
    }
    values = dict(zip(
        plan.cuts, calculate_quantiles(list(plan.cuts.values()), runs)
    ))
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
        ranks={q: cut.rank for q, cut in plan.cuts.items()},
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
    cut = plan.cuts[q]
    return DemaResult(
        value=values[q],
        rank=cut.rank,
        global_window_size=plan.global_window_size,
        candidate_events=cut.candidate_events,
        candidate_slices=len(cut.candidates),
        synopses=n_synopses,
    )


@dataclass(frozen=True, slots=True)
class ConcurrentOutcome:
    """One query's result for one window of a many-query run."""

    query_index: int
    q: float
    window: Window
    value: float | None
    global_window_size: int
    result_time: float




class DemaEngine(SimulatedDeployment):
    """A Dema deployment on the simulated three-layer network, serving one
    query or a sequence of them."""

    def __init__(
        self,
        queries: "QuantileQuery | Sequence[QuantileQuery]",
        topology_config: TopologyConfig,
        *,
        batch_size: int = 512,
        reliability=None,
        degrade_after_retries: bool = False,
        trace=None,
        tracer=None,
    ) -> None:
        if isinstance(queries, QuantileQuery):
            queries = (queries,)
        self._queries = tuple(queries)
        self._groups = served_groups(self._queries)
        super().__init__(
            topology_config,
            root=partial(
                DemaRootNode,
                queries=self._queries,
                reliability=reliability,
                degrade_after_retries=degrade_after_retries,
            ),
            local=partial(
                DemaLocalNode, queries=self._queries, reliability=reliability
            ),
            groups=[
                (group.group_id, group.prototype.assigner())
                for group in self._groups
            ],
            batch_size=batch_size,
            trace=trace,
            tracer=tracer,
        )

    @property
    def groups(self) -> list[QueryGroup]:
        """The sharing groups the queries were partitioned into."""
        return list(self._groups)

    def _outcomes(self) -> "list[WindowOutcome] | list[ConcurrentOutcome]":
        """The root's per-window list for one query; for several, one
        :class:`ConcurrentOutcome` row per query per window, in completion
        order and then member order."""
        answered = self.root.outcomes
        if self._tracer.enabled:
            for outcome in answered:
                self._tracer.registry.counter(
                    "candidate_events_total",
                    "Candidate events fetched for calculation.",
                ).inc(outcome.candidate_events)
        if len(self._queries) == 1:
            return answered
        return [
            ConcurrentOutcome(
                query_index=index,
                q=query.q,
                window=outcome.window,
                value=value,
                global_window_size=outcome.global_window_size,
                result_time=outcome.result_time,
            )
            for outcome in answered
            for (index, query), value in zip(
                self._groups[outcome.group_id].queries, outcome.values
            )
        ]
