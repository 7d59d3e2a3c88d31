"""The local node's half of the live multi-query plane.

A :class:`LocalQueryPlane` rides inside a running
:class:`~repro.runtime.servers.LocalServer`: the server taps every
decoded event batch and every watermark advance into the plane, and
forwards root messages whose ``group_id`` is non-zero.  The plane keeps
one :class:`~repro.queries.slide.PaneStore` per distinct
``(selector, pane length)`` — shared by every query group that reads it —
and one :class:`~repro.queries.slide.SlidingRunAggregator` per group, so
overlapping sliding windows reuse sorted pane runs instead of re-sorting
every pane per slide.  Batches stay columnar from the tap to the
candidate runs the plane sends back.

Start negotiation: on a group registration the plane proposes the first
window start it can *guarantee* — the smallest step-aligned timestamp
strictly above everything it has already ingested (events are
timestamp-ordered per stream, so nothing earlier can still arrive).  The
root activates the group at the max proposal across locals, and the
plane serves every window from that start on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.slicing import SlicedWindow, slice_sorted_events
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    Message,
    QueryAckMessage,
    QueryDeregisterMessage,
    QueryRegisterMessage,
    SynopsisMessage,
)
from repro.queries.slide import PaneStore, SlidingRunAggregator
from repro.queries.spec import QuerySpec, Selector, parse_selector
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window

# Hot-path module: batches, panes and runs are ``EventColumns``; selectors
# are row masks, never per-event calls (tests/test_hotpath_lint.py).

__all__ = ["LocalQueryPlane"]


def _align_up(timestamp: int, step: int) -> int:
    """The smallest multiple of ``step`` that is ``>= timestamp``."""
    return -(-timestamp // step) * step


@dataclass(slots=True)
class _LocalGroup:
    """Per-group execution state on one local node."""

    group_id: int
    spec: QuerySpec
    store: PaneStore
    aggregator: SlidingRunAggregator = field(
        default_factory=SlidingRunAggregator
    )
    active: bool = False
    #: Start of the next window to seal (advances by the group step).
    next_window_start: int = 0
    #: Sealed-but-unanswered windows, kept until the root's candidate
    #: request (possibly empty) releases them.
    pending: dict[Window, SlicedWindow] = field(default_factory=dict)


class LocalQueryPlane:
    """Executes the local side of every registered query group."""

    def __init__(self, node_id: int, *, grid_start: int = 0) -> None:
        self.node_id = node_id
        self._grid_start = grid_start
        #: ``(selector, pane length)`` → the parsed selector and the pane
        #: store it feeds, shared by every group with that key.
        self._stores: dict[tuple[str, int], tuple[Selector, PaneStore]] = {}
        self._groups: dict[int, _LocalGroup] = {}
        self._max_seen_ts = grid_start - 1
        self._watermark: int | None = None
        #: Total synopsis batches emitted across all groups.
        self.windows_sealed = 0

    @property
    def groups(self) -> tuple[int, ...]:
        """Ids of the groups currently served, ascending."""
        return tuple(sorted(self._groups))

    @property
    def stores(self) -> tuple[PaneStore, ...]:
        """The live pane stores (one per distinct selector/pane pair)."""
        return tuple(store for _, store in self._stores.values())

    def ingest(self, batch: EventColumns) -> None:
        """Feed a decoded event batch into every store, one mask each."""
        if not len(batch):
            return
        self._max_seen_ts = max(self._max_seen_ts, batch.max_timestamp())
        for selector, store in self._stores.values():
            mask = selector.mask(batch)
            store.add(batch if mask is None else batch[mask])

    def on_watermark(self, watermark: int) -> list[Message]:
        """Advance event time; seal and report every completed window."""
        self._watermark = watermark
        out: list[Message] = []
        for group in self._groups.values():
            if group.active:
                out.extend(self._advance(group, watermark))
        self._prune_stores()
        return out

    def on_root_message(self, message: Message) -> list[Message]:
        """Handle a query-plane message from the root; return replies."""
        if isinstance(message, QueryRegisterMessage):
            return self._on_register(message)
        if isinstance(message, QueryAckMessage):
            return self._on_activation(message)
        if isinstance(message, CandidateRequestMessage):
            return self._on_candidate_request(message)
        if isinstance(message, QueryDeregisterMessage):
            self._drop_group(message.group_id)
            return []
        return []

    # -- registration and activation ------------------------------------

    def _on_register(self, message: QueryRegisterMessage) -> list[Message]:
        group = self._groups.get(message.group_id)
        if group is None:
            spec = QuerySpec(
                q=message.q,
                selector=message.selector,
                kind=message.kind,
                length_ms=message.length_ms,
                step_ms=message.step_ms,
                gamma=message.gamma,
                freshness_ms=message.freshness_ms,
            )
            key = (spec.selector, spec.pane_ms)
            if key not in self._stores:
                self._stores[key] = (
                    parse_selector(spec.selector), PaneStore(spec.pane_ms)
                )
            group = _LocalGroup(
                group_id=message.group_id, spec=spec,
                store=self._stores[key][1],
            )
            self._groups[message.group_id] = group
        if group.active:
            proposal = group.next_window_start
        else:
            # First step-aligned start strictly above everything ingested:
            # windows from here on cannot have missed earlier events.
            proposal = _align_up(
                max(self._grid_start, self._max_seen_ts + 1), group.spec.step
            )
        return [
            QueryAckMessage(
                sender=self.node_id,
                window=Window(proposal, proposal + group.spec.length_ms),
                group_id=group.group_id,
                query_id=message.query_id,
                accepted=True,
            )
        ]

    def _on_activation(self, message: QueryAckMessage) -> list[Message]:
        group = self._groups.get(message.group_id)
        if group is None or group.active:
            return []
        group.active = True
        group.next_window_start = message.window.start
        if self._watermark is None:
            return []
        out = self._advance(group, self._watermark)
        self._prune_stores()
        return out

    # -- window sealing -------------------------------------------------

    def _advance(self, group: _LocalGroup, watermark: int) -> list[Message]:
        out: list[Message] = []
        spec = group.spec
        length, step = spec.length_ms, spec.step
        store = group.store
        aggregator = group.aggregator
        start = group.next_window_start
        while start + length <= watermark:
            window = Window(start, start + length)
            while aggregator.covered and aggregator.covered[0] < start:
                aggregator.evict()
            # Panes still covered were pushed by the previous window; with
            # none left (first window, or step >= length) start afresh.
            covered = aggregator.covered
            pane = covered[-1] + store.pane_ms if covered else start
            while pane < window.end:
                aggregator.push(pane, store.sealed_run(pane))
                pane += store.pane_ms
            run = aggregator.query()
            sliced = slice_sorted_events(run, spec.gamma, self.node_id)
            group.pending[window] = sliced
            self.windows_sealed += 1
            out.append(
                SynopsisMessage(
                    sender=self.node_id,
                    window=window,
                    group_id=group.group_id,
                    synopses=sliced.synopses,
                    local_window_size=len(run),
                )
            )
            start += step
        group.next_window_start = start
        return out

    def _on_candidate_request(
        self, message: CandidateRequestMessage
    ) -> list[Message]:
        group = self._groups.get(message.group_id)
        if group is None:
            return []  # group deregistered while the request was in flight
        sliced = group.pending.pop(message.window, None)
        if sliced is None:
            return []
        return [
            CandidateEventsMessage(
                sender=self.node_id,
                window=message.window,
                group_id=group.group_id,
                slice_index=index,
                events=sliced.run_for(index),
            )
            for index in message.slice_indices
        ]

    # -- teardown and memory --------------------------------------------

    def _drop_group(self, group_id: int) -> None:
        group = self._groups.pop(group_id, None)
        if group is None:
            return
        if not any(g.store is group.store for g in self._groups.values()):
            # The last reader left: the store goes with it.
            self._stores.pop((group.spec.selector, group.spec.pane_ms), None)

    def _prune_stores(self) -> None:
        """Free panes no remaining group can still need.

        A store is prunable up to the earliest ``next_window_start`` of
        its readers, capped at event time (a gap-window group's next start
        runs ahead of it): the watermark, below which a row is late, and
        ``max_seen + 1``, the earliest start a later joiner is promised.
        Groups still negotiating their start pin the store entirely.
        """
        for store in self.stores:
            readers = [g for g in self._groups.values() if g.store is store]
            if readers and all(group.active for group in readers):
                store.prune_before(min(
                    self._watermark, self._max_seen_ts + 1,
                    *(group.next_window_start for group in readers),
                ))
