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
``(selector, pane length)``, and overlapping sliding windows share the
panes' batches; each window's values are sorted once, when it seals.  A window
two shapes share (same length, start on both grids) is sealed once, by
whichever cursor reaches it first.  The plane hosts one
:class:`~repro.core.local_node.DemaLocalNode` (reliability off) that
slices each sorted window, retains the slices and serves the root's
candidate requests, as it does for the configured query.  Batches stay
columnar from the tap to the candidate value runs.

One cut per watermark: every window one watermark (or one activation)
seals, across groups, ships in one
:class:`~repro.network.messages.SynopsisBatchMessage`, one section per
window; the root answers with one
:class:`~repro.network.messages.CandidateRequestBatchMessage` per batch,
and the node with one :class:`~repro.network.messages.CandidateBatchMessage`.

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

from dataclasses import dataclass, field, replace

from repro.core.local_node import DemaLocalNode
from repro.network.messages import (
    CandidateRequestBatchMessage,
    Message,
    QueryAckMessage,
    QueryDeregisterMessage,
    QueryRegisterMessage,
    SynopsisBatchMessage,
    SynopsisMessage,
    covering_window,
)
from repro.network.simulator import Outbox
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

# Hot-path module: batches and panes are ``EventColumns``; selectors
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
    #: Cursors by shape id (the ``query_id`` the root names a shape by).
    cursors: dict[int, _Cursor] = field(default_factory=dict)

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
        #: Slices, retains and serves every group's sealed windows; a
        #: window stays retained until the root's candidate request
        #: (possibly empty) releases it.
        self.node = DemaLocalNode(node_id, root_id=0, query=None)
        self._outbox = Outbox()
        self.node.attach(self._outbox)

    @property
    def windows_sealed(self) -> int:
        """Total windows sealed and shipped across all groups."""
        return self.node.windows_completed

    @property
    def groups(self) -> tuple[int, ...]:
        """Ids of the groups currently served, ascending."""
        return tuple(sorted(self._groups))

    @property
    def stores(self) -> tuple[PaneStore, ...]:
        """The live pane stores (one per distinct selector/pane pair)."""
        return tuple(store for _, store in self._stores.values())

    def ingest(self, batch: EventColumns) -> None:
        """Feed a decoded event batch into every store: each distinct
        selector masks and copies the batch once, and every store of that
        selector takes the same rows."""
        if not len(batch):
            return
        self._max_seen_ts = max(self._max_seen_ts, batch.max_timestamp())
        selected: dict[Selector, EventColumns] = {}
        for selector, store in self._stores.values():
            rows = selected.get(selector)
            if rows is None:
                mask = selector.mask(batch)
                rows = selected[selector] = (
                    batch if mask is None else batch[mask]
                )
            store.add(rows)

    def on_watermark(self, watermark: int) -> list[Message]:
        """Advance event time; seal and report every completed window."""
        self._watermark = watermark
        for group in self._groups.values():
            self._advance(group, watermark)
        self._prune_stores()
        return self._sent()

    def on_root_message(self, message: Message) -> list[Message]:
        """Handle a query-plane message from the root; return replies."""
        if isinstance(message, QueryRegisterMessage):
            return self._on_register(message)
        if isinstance(message, QueryAckMessage):
            return self._on_activation(message)
        if isinstance(message, CandidateRequestBatchMessage):
            # Sections whose group or shape left while they were in flight
            # are dropped here: the hosted node would take them for a
            # protocol error.
            holds = self.node.holds
            kept = tuple(s for s in message.sections if holds(s[0], s[1]))
            if not kept:
                return []
            if len(kept) != len(message.sections):
                message = replace(message, sections=kept)
            self.node.on_message(message, 0.0)
            return self._sent()
        if isinstance(message, QueryDeregisterMessage):
            self._on_deregister(message)
        return []

    def _sent(self) -> list[Message]:
        """What the node queued, its windows' synopses as one batch."""
        sent: list[Message] = []
        sections = []
        for _, message in self._outbox.drain():
            if isinstance(message, SynopsisMessage):
                sections.append((
                    message.group_id, message.window,
                    message.local_window_size, message.synopses,
                ))
            else:
                sent.append(message)
        if sections:
            sent.append(SynopsisBatchMessage(
                sender=self.node_id,
                window=covering_window(sections),
                sections=tuple(sections),
            ))
        return sent

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
                message.group_id, spec.selector
            )
            self.node.open_group(group.group_id, spec.gamma)
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
        self.node.drop_windows(group.group_id, group.wants)
        if self._watermark is None:
            return []
        self._advance(group, self._watermark)
        self._prune_stores()
        return self._sent()

    # -- window sealing -------------------------------------------------

    def _advance(self, group: _LocalGroup, watermark: int) -> None:
        """Seal every window of every active cursor up to ``watermark``.

        A window another cursor already sealed is still retained, never
        released: cursors sharing a window reach it on the same watermark,
        and a shape activated later starts above every window released
        before this local learnt of it.  So it is skipped, not sealed
        twice.
        """
        for cursor in group.cursors.values():
            if not cursor.active:
                continue
            length, step = cursor.shape
            start = cursor.next_window_start
            while start + length <= watermark:
                window = Window(start, start + length)
                if not self.node.holds(group.group_id, window):
                    self._seal(group, cursor, window)
                start += step
            cursor.next_window_start = start

    def _seal(self, group: _LocalGroup, cursor: _Cursor, window: Window) -> None:
        store = cursor.store
        aggregator = cursor.aggregator
        aggregator.evict_before(window.start)
        # Panes still held were pushed by the cursor's previous window;
        # with none left (first window, a skipped one, or step >= length)
        # start afresh.
        newest = aggregator.newest
        pane = window.start if newest is None else newest + store.pane_ms
        while pane < window.end:
            aggregator.push(pane, store.sealed_pane(pane))
            pane += store.pane_ms
        self.node.seal_sorted(window, aggregator.query(), 0.0, group.group_id)

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
            self.node.drop_windows(group.group_id, group.wants)
        else:
            del self._groups[group.group_id]
            self.node.close_group(group.group_id)
        readers = self._readers()
        for cursor in dropped:
            if id(cursor.store) not in readers:
                # The last reader left: the store goes with it.
                self._stores.pop((group.selector, cursor.store.pane_ms), None)

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
