"""The local node's half of the live multi-query plane.

A :class:`LocalQueryPlane` rides inside a running
:class:`~repro.runtime.servers.LocalServer`: the server taps every
decoded event batch and every watermark advance into the plane, and
forwards root messages whose ``group_id`` is non-zero.  A query group
is one ``(selector, γ)`` key; inside it the plane runs one *cursor* per
member window shape ``(length, step)``, each with a
:class:`~repro.queries.slide.SlidingRunAggregator` over a
:class:`~repro.queries.slide.PaneStore` of ``gcd(length, step)`` ms
panes.  Stores are shared by every cursor with the same
``(selector, pane length)``, and overlapping sliding windows reuse
sorted pane runs instead of re-sorting every pane per slide.  A window
two shapes share (same length, start on both grids) is sealed once, by
whichever cursor reaches it first, and shipped as one synopsis batch.
Batches stay columnar from the tap to the candidate runs the plane
sends back.

Start negotiation: when a window shape enters a group the plane proposes
the first window start it can *guarantee* — the smallest step-aligned
timestamp strictly above everything it has already ingested (events are
timestamp-ordered per stream, so nothing earlier can still arrive) and
not below its watermark (so no window of the shape's grid from there on
has been sealed yet).  The root activates the shape at the max proposal
across locals, and the plane serves every window of the shape from that
start on.
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
from repro.queries.spec import (
    QuerySpec,
    Selector,
    WindowShape,
    parse_selector,
    wanted,
)
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window

# Hot-path module: batches, panes and runs are ``EventColumns``; selectors
# are row masks, never per-event calls (tests/test_hotpath_lint.py).

__all__ = ["LocalQueryPlane"]


def _align_up(timestamp: int, step: int) -> int:
    """The smallest multiple of ``step`` that is ``>= timestamp``."""
    return -(-timestamp // step) * step


@dataclass(slots=True)
class _Cursor:
    """One member window shape of a group on one local node."""

    shape: WindowShape
    store: PaneStore
    aggregator: SlidingRunAggregator = field(
        default_factory=SlidingRunAggregator
    )
    #: The agreed first window start; ``None`` while negotiating.
    start: int | None = None
    #: Start of the next window to seal (advances by the step); the
    #: proposal while negotiating.
    next_window_start: int = 0

    @property
    def active(self) -> bool:
        """Whether the shape's start negotiation finished."""
        return self.start is not None


@dataclass(slots=True)
class _LocalGroup:
    """Per-group execution state on one local node."""

    group_id: int
    selector: str
    gamma: int
    #: Cursors by shape id (the ``query_id`` the root names a shape by).
    cursors: dict[int, _Cursor] = field(default_factory=dict)
    #: Sealed-but-unanswered windows of every shape, kept until the root's
    #: candidate request (possibly empty) releases them.
    pending: dict[Window, SlicedWindow] = field(default_factory=dict)

    def wants(self, window: Window) -> bool:
        """Whether any cursor of the group may still need ``window``."""
        return wanted(
            window, ((c.shape, c.start) for c in self.cursors.values())
        )


class LocalQueryPlane:
    """Executes the local side of every registered query group."""

    def __init__(self, node_id: int, *, grid_start: int = 0) -> None:
        self.node_id = node_id
        self._grid_start = grid_start
        #: ``(selector, pane length)`` → the parsed selector and the pane
        #: store it feeds, shared by every cursor with that key.
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
            self._on_deregister(message)
        return []

    # -- registration and activation ------------------------------------

    def _on_register(self, message: QueryRegisterMessage) -> list[Message]:
        spec = QuerySpec(
            q=message.q,
            selector=message.selector,
            kind=message.kind,
            length_ms=message.length_ms,
            step_ms=message.step_ms,
            gamma=message.gamma,
            freshness_ms=message.freshness_ms,
        )
        group = self._groups.get(message.group_id)
        if group is None:
            group = self._groups[message.group_id] = _LocalGroup(
                message.group_id, spec.selector, spec.gamma
            )
        cursor = group.cursors.get(message.query_id)
        if cursor is None:
            key = (spec.selector, spec.pane_ms)
            if key not in self._stores:
                self._stores[key] = (
                    parse_selector(spec.selector), PaneStore(spec.pane_ms)
                )
            cursor = group.cursors[message.query_id] = _Cursor(
                spec.window_shape, self._stores[key][1]
            )
        length, step = cursor.shape
        if not cursor.active:
            # First step-aligned start strictly above everything ingested
            # and not below the watermark: windows from here on cannot have
            # missed earlier events, nor been sealed for another shape.
            floor = max(self._grid_start, self._max_seen_ts + 1)
            if self._watermark is not None:
                floor = max(floor, self._watermark)
            cursor.next_window_start = _align_up(floor, step)
        proposal = cursor.next_window_start
        return [
            QueryAckMessage(
                sender=self.node_id,
                window=Window(proposal, proposal + length),
                group_id=group.group_id,
                query_id=message.query_id,
                accepted=True,
            )
        ]

    def _on_activation(self, message: QueryAckMessage) -> list[Message]:
        group = self._groups.get(message.group_id)
        cursor = None if group is None else group.cursors.get(message.query_id)
        if cursor is None or cursor.active:
            return []
        cursor.start = cursor.next_window_start = message.window.start
        self._free_unwanted(group)
        if self._watermark is None:
            return []
        out = self._advance(group, self._watermark)
        self._prune_stores()
        return out

    # -- window sealing -------------------------------------------------

    def _advance(self, group: _LocalGroup, watermark: int) -> list[Message]:
        """Seal every window of every active cursor up to ``watermark``.

        A window another cursor already sealed is still pending, never
        released: cursors sharing a window reach it on the same watermark,
        and a shape activated later starts above every window released
        before this local learnt of it.  So it is skipped, not sealed
        twice.
        """
        out: list[Message] = []
        pending = group.pending
        for cursor in group.cursors.values():
            if not cursor.active:
                continue
            length, step = cursor.shape
            start = cursor.next_window_start
            while start + length <= watermark:
                window = Window(start, start + length)
                if window not in pending:
                    out.append(self._seal(group, cursor, window))
                start += step
            cursor.next_window_start = start
        return out

    def _seal(
        self, group: _LocalGroup, cursor: _Cursor, window: Window
    ) -> SynopsisMessage:
        store = cursor.store
        aggregator = cursor.aggregator
        while aggregator.covered and aggregator.covered[0] < window.start:
            aggregator.evict()
        # Panes still covered were pushed by the cursor's previous window;
        # with none left (first window, a skipped one, or step >= length)
        # start afresh.
        covered = aggregator.covered
        pane = covered[-1] + store.pane_ms if covered else window.start
        while pane < window.end:
            aggregator.push(pane, store.sealed_run(pane))
            pane += store.pane_ms
        run = aggregator.query()
        sliced = slice_sorted_events(run, group.gamma, self.node_id)
        group.pending[window] = sliced
        self.windows_sealed += 1
        return SynopsisMessage(
            sender=self.node_id,
            window=window,
            group_id=group.group_id,
            synopses=sliced.synopses,
            local_window_size=len(run),
        )

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

    def _on_deregister(self, message: QueryDeregisterMessage) -> None:
        """Drop a whole group (``query_id`` 0) or one shape of it."""
        group = self._groups.get(message.group_id)
        if group is None:
            return
        if message.query_id:
            cursor = group.cursors.pop(message.query_id, None)
            dropped = [] if cursor is None else [cursor]
        else:
            dropped = list(group.cursors.values())
            group.cursors.clear()
        if group.cursors:
            self._free_unwanted(group)
        else:
            del self._groups[group.group_id]
        readers = self._readers()
        for cursor in dropped:
            if id(cursor.store) not in readers:
                # The last reader left: the store goes with it.
                self._stores.pop((group.selector, cursor.store.pane_ms), None)

    @staticmethod
    def _free_unwanted(group: _LocalGroup) -> None:
        """Release sealed windows no cursor of the group can still want."""
        for window in [w for w in group.pending if not group.wants(w)]:
            del group.pending[window]

    def _prune_stores(self) -> None:
        """Free panes no remaining cursor can still need.

        A store is prunable up to the earliest ``next_window_start`` of
        its readers, capped at event time (a gap-window cursor's next start
        runs ahead of it): the watermark, below which a row is late, and
        ``max_seen + 1``, the earliest start a later joiner is promised.
        Cursors still negotiating their start pin the store entirely.
        """
        readers = self._readers()
        for store in self.stores:
            cursors = readers.get(id(store))
            if cursors and all(cursor.active for cursor in cursors):
                store.prune_before(min(
                    self._watermark, self._max_seen_ts + 1,
                    *(cursor.next_window_start for cursor in cursors),
                ))

    def _readers(self) -> dict[int, list[_Cursor]]:
        """Every cursor, by the ``id`` of the pane store it reads."""
        readers: dict[int, list[_Cursor]] = {}
        for group in self._groups.values():
            for cursor in group.cursors.values():
                readers.setdefault(id(cursor.store), []).append(cursor)
        return readers
