"""Dema local-node operator (edge device).

A local node ingests raw events from its data streams, keeps each open
window incrementally sorted, and on window end cuts its sorted values into
γ-slices and ships only the synopses to the root.  It retains the sliced
runs until the root's candidate request arrives, answers with exactly the
requested slices, and then frees the window.

A simulated node serves one query, as group 0.  A host that windows and
sorts its own windows serves any number of groups instead: it opens them
at runtime (:meth:`DemaLocalNode.open_group`), each shipping its own
synopsis batches tagged with the group's ``group_id``, and seals each
window from its sorted value column (:meth:`DemaLocalNode.seal_sorted`);
the root may ask for several windows' candidates in one
:class:`~repro.network.messages.CandidateRequestBatchMessage`, answered
by one :class:`~repro.network.messages.CandidateBatchMessage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import SliceError
from repro.network.messages import (
    CandidateBatchMessage,
    CandidateEventsMessage,
    CandidateRequestBatchMessage,
    CandidateRequestMessage,
    EventBatchMessage,
    GammaUpdateMessage,
    Message,
    SynopsisMessage,
    SynopsisRequestMessage,
    WindowReleaseMessage,
    covering_window,
)
import math

from repro.network.simulator import INGEST_OPS, SimulatedNode, receive_ops
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window

# Hot-path module: columnar batches flow through ingest → window → slices
# without materializing per-event ``Event`` objects, and no loop here
# assigns windows (enforced by tests/test_hotpath_lint.py).
from repro.core.query import QuantileQuery
from repro.core.slicing import SlicedWindow, slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow

__all__ = ["DemaLocalNode"]

#: Abstract ops for cutting a sorted window into slices (per event).
_SLICE_OPS_PER_EVENT = 0.5

#: Abstract ops for serving one candidate slice request.
_SERVE_OPS_PER_EVENT = 0.5


@dataclass(slots=True)
class _Sealed:
    """One sealed (group, window): its slices plus the synopsis resend
    state, all freed together by the window's release."""

    sliced: SlicedWindow
    #: The root requested the window (synopses or candidates): stop resending.
    acknowledged: bool = False
    retries: int = 0


class DemaLocalNode(SimulatedNode):
    """Edge operator implementing Dema's local-node protocol."""

    def __init__(
        self,
        node_id: int,
        *,
        root_id: int,
        query: QuantileQuery | None,
        ops_per_second: float = 1e8,
        reliability=None,
        cumulative_releases: bool = True,
    ) -> None:
        super().__init__(node_id, ops_per_second=ops_per_second)
        self._root_id = root_id
        #: The query ingest windows events for, as group 0; ``None`` on a
        #: host that windows events itself and opens its groups at runtime.
        self._query = query
        self._gammas = {0: query.gamma} if query is not None else {}
        self._reliability = reliability
        #: Single-root runs prune every pending window of the released
        #: group at or below a release (the one root releases a window only
        #: once no earlier one of its group is open).  With sharded roots
        #: that inference is wrong — shard A's release says nothing about
        #: shard B's windows, and pruning them would destroy the failover
        #: replay source — so mesh hosts turn this off and each release
        #: frees exactly its own window.
        self._cumulative_releases = cumulative_releases
        #: Open and sealed windows of the query as ``(start, end)``: ingest
        #: looks them up once per batch, and a tuple of ints hashes in C
        #: where a ``Window``'s dataclass hash runs Python.
        self._open: dict[tuple[int, int], SortedLocalWindow] = {}
        self._completed: set[tuple[int, int]] = set()
        self._sealed: dict[tuple[int, Window], _Sealed] = {}
        self._events_ingested = 0
        self._windows_completed = 0
        self._late_events = 0
        self._last_release_end = -1

    @property
    def gamma(self) -> int:
        """Slice factor currently in force on this node (group 0's)."""
        return self._gammas[0]

    @property
    def events_ingested(self) -> int:
        """Raw events accepted so far (once, regardless of group count)."""
        return self._events_ingested

    @property
    def windows_completed(self) -> int:
        """Local windows sealed and shipped so far."""
        return self._windows_completed

    @property
    def pending_windows(self) -> int:
        """Sealed windows still awaiting a candidate request (or release)."""
        return len(self._sealed)

    def holds(self, group_id: int, window: Window) -> bool:
        """Whether sealed ``window`` of ``group_id`` is still retained."""
        return (group_id, window) in self._sealed

    def open_group(self, group_id: int, gamma: int) -> None:
        """Serve ``group_id`` from now on, slicing its windows by ``gamma``."""
        self._gammas[group_id] = gamma

    def close_group(self, group_id: int) -> None:
        """Stop serving ``group_id`` and free its retained windows."""
        self.drop_windows(group_id, lambda _: False)
        del self._gammas[group_id]

    def drop_windows(self, group_id: int, keep: Callable[[Window], bool]) -> None:
        """Free the retained windows of ``group_id`` that ``keep`` rejects."""
        for key in [k for k in self._sealed if k[0] == group_id and not keep(k[1])]:
            del self._sealed[key]

    @property
    def late_events(self) -> int:
        """Events dropped because their window had already been sealed."""
        return self._late_events

    @property
    def last_release_end(self) -> int:
        """End (event-time ms) of the highest released window; -1 if none.

        This is the session-resume cursor a reconnecting live host puts in
        its ``Hello`` preamble.
        """
        return self._last_release_end

    def replay_pending(self, now: float) -> int:
        """Session resume: re-announce every retained sealed window.

        Called by the live host after a reconnect.  The root may have
        missed any synopsis sent before the link died, and our resend
        timers may have burned retries into a dead connection — so each
        pending window is replayed with a fresh acknowledgement state and
        retry budget.  Idempotent at the root (duplicates are dropped, and
        already-answered windows are answered with a release).  Returns
        the number of windows replayed.
        """
        for key in sorted(self._sealed):
            sealed = self._sealed[key]
            sealed.acknowledged = False
            sealed.retries = 0
            self._send_synopses(key, sealed.sliced, now)
            if self._reliability is not None:
                self._arm_resend_timer(key, now)
        return len(self._sealed)

    def ingest(self, events: EventColumns, now: float) -> float:
        """Accept a batch of raw events; returns CPU completion time.

        Events are grouped by window and appended in one batch per window;
        the sort itself is deferred to the window cut (the batched form of
        the paper's incremental sorting).  Ingestion is charged once per
        event, the sorted insert once per window an event lands in
        (:meth:`_insert_ops`), so simulator results stay bit-identical
        while the live path pays only O(1) per event.  Events of a window
        that already shipped its synopses would break the root's rank
        arithmetic: they are dropped and counted as late.
        """
        n_events = len(events)
        inserts: list[tuple[int, int]] = []  # (size before, rows added)
        length = self._query.window_length_ms
        for start, rows in events.by_window(length):
            added = len(rows)
            key = (start, start + length)
            if key in self._completed:
                self._late_events += added
                continue
            sorted_window = self._open.get(key)
            if sorted_window is None:
                sorted_window = self._open[key] = SortedLocalWindow()
            inserts.append((len(sorted_window), added))
            sorted_window.add_all(rows)
        ops = INGEST_OPS * n_events + self._insert_ops(inserts)
        self._events_ingested += n_events
        finish = self.work(ops, now)
        if self._tracer.enabled and n_events:
            self._tracer.record(
                "ingest",
                self.node_id,
                now,
                finish,
                events=n_events,
                ops=ops,
            )
        return finish

    @staticmethod
    def _insert_ops(inserts: list[tuple[int, int]]) -> float:
        """The sorted-insert charge of one batch: ``rows · log2(size after
        the batch)`` per window, summed with ``math.log2`` and a plain
        ``+=`` in the order the windows first appear in the batch
        (docs/cost-model.md: the order of the float sum is part of the
        simulated clock)."""
        ops = 0.0
        for before, added in inserts:
            ops += added * math.log2(max(before + added, 2))
        return ops

    def on_window_complete(self, window: Window, now: float) -> None:
        """Seal ``window``, slice it, and send synopses.

        Windows that received no events still announce themselves with an
        empty synopsis batch so the root's completeness check can fire.
        Completion is idempotent: repeated announcements are ignored.
        """
        key = (window.start, window.end)
        if key in self._completed:
            return
        self._completed.add(key)
        values = self._open.pop(key, SortedLocalWindow()).seal()
        self.seal_sorted(window, values, now)

    def seal_sorted(
        self, window: Window, values, now: float, group_id: int = 0
    ) -> None:
        """Slice ``values``, a sorted value column, as ``window`` of
        ``group_id``; retain the slices and send the synopses."""
        key = (group_id, window)
        # The sort was *charged* at ingest (the cost model is per-event
        # insertion) even though the batched implementation pays it inside
        # seal(); only the slicing pass is charged at window end.
        finish = self.work(_SLICE_OPS_PER_EVENT * len(values), now)
        gamma = self._gammas[group_id]
        sliced = slice_sorted_events(values, gamma, self.node_id)
        self._sealed[key] = _Sealed(sliced)
        self._windows_completed += 1
        if self._tracer.enabled:
            self._tracer.record(
                "slice",
                self.node_id,
                now,
                finish,
                window=window,
                events=len(values),
                gamma=gamma,
                synopses=len(sliced.synopses),
            )
        self._send_synopses(key, sliced, finish)
        if self._reliability is not None:
            self._arm_resend_timer(key, finish)

    def _send_synopses(
        self, key: tuple[int, Window], sliced: SlicedWindow, now: float
    ) -> None:
        group_id, window = key
        message = SynopsisMessage(
            sender=self.node_id,
            window=window,
            group_id=group_id,
            synopses=sliced.synopses,
            local_window_size=sliced.window_size,
        )
        self.send(message, self._root_id, now)

    def _arm_resend_timer(self, key: tuple[int, Window], now: float) -> None:
        """Local-side retransmission: if the root never reacts (all our
        synopsis messages were lost, so it may not even know the window
        exists), resend until it does or retries run out."""
        self.call_later(
            self._reliability.timeout_s,
            lambda t, k=key: self._check_acknowledged(k, t),
            now,
        )

    def _check_acknowledged(self, key: tuple[int, Window], now: float) -> None:
        sealed = self._sealed.get(key)
        if sealed is None or sealed.acknowledged:
            return
        if sealed.retries >= self._reliability.max_retries:
            return
        sealed.retries += 1
        self._send_synopses(key, sealed.sliced, now)
        self._arm_resend_timer(key, now)

    def on_message(self, message: Message, now: float) -> None:
        """Dispatch protocol messages (root → local and sensor → local)."""
        if isinstance(message, EventBatchMessage):
            finish = self.work(receive_ops(message.payload_bytes), now)
            self.ingest(message.events, finish)
            return
        if isinstance(message, GammaUpdateMessage):
            self._gammas[message.group_id] = max(message.gamma, 2)
            return
        if isinstance(message, WindowReleaseMessage):
            self._release(message)
            return
        if isinstance(message, CandidateRequestBatchMessage):
            self._serve_batch(message, now)
            return
        if not isinstance(
            message, (CandidateRequestMessage, SynopsisRequestMessage)
        ):
            raise SliceError(
                f"local node {self.node_id} cannot handle "
                f"{type(message).__name__}"
            )
        sealed = self._sealed.get((message.group_id, message.window))
        if sealed is not None:
            # A request proves the root tracks the window.
            sealed.acknowledged = True
        if isinstance(message, CandidateRequestMessage):
            self._serve_candidates(message, sealed, now)
        else:
            self._resend_synopses(message, sealed, now)

    def _release(self, release: WindowReleaseMessage) -> None:
        """Free the released window's retained state — cumulatively within
        its group on a single root: it releases a window only once every
        earlier window of the group is closed, so an acknowledgement for
        this window also covers any earlier one whose release was lost."""
        self._last_release_end = max(self._last_release_end, release.window.end)
        if not self._cumulative_releases:
            self._sealed.pop((release.group_id, release.window), None)
            return
        self._sealed = {
            key: sealed
            for key, sealed in self._sealed.items()
            if key[0] != release.group_id or key[1].end > release.window.end
        }

    def _resend_synopses(
        self, request: SynopsisRequestMessage, sealed: _Sealed | None, now: float
    ) -> None:
        """Answer a root retransmission request from retained state."""
        if sealed is None:
            # Either never completed (the root's timer raced the original
            # send) or already released; either way the root will sort it
            # out — re-answering with nothing is the safe option.
            return
        finish = self.work(receive_ops(request.payload_bytes), now)
        self._send_synopses(
            (request.group_id, request.window), sealed.sliced, finish
        )

    def _serve_candidates(
        self, request: CandidateRequestMessage, sealed: _Sealed | None, now: float
    ) -> None:
        """Ship the requested slices' value runs; free the window unless
        reliability retains it until its release."""
        if sealed is None:
            if self._reliability is not None:
                return  # stale retransmit for a window already released
            raise SliceError(
                f"node {self.node_id} has no sealed window {request.window} "
                f"for group {request.group_id}"
            )
        if self._reliability is None:
            del self._sealed[(request.group_id, request.window)]
        send_at = self.work(receive_ops(request.payload_bytes), now)
        served = 0
        for slice_index in request.slice_indices:
            run = sealed.sliced.run_for(slice_index)
            count = len(run)
            send_at = self.work(_SERVE_OPS_PER_EVENT * count, send_at)
            reply = CandidateEventsMessage(
                sender=self.node_id,
                window=request.window,
                group_id=request.group_id,
                slice_index=slice_index,
                events=run,
            )
            self.send(reply, self._root_id, send_at)
            served += count
        if self._tracer.enabled and request.slice_indices:
            self._tracer.record(
                "serve_candidates",
                self.node_id,
                now,
                send_at,
                window=request.window,
                slices=len(request.slice_indices),
                events=served,
            )

    def _serve_batch(
        self, request: CandidateRequestBatchMessage, now: float
    ) -> None:
        """Answer every section of ``request`` in one
        :class:`CandidateBatchMessage`: per window, its requested runs
        concatenated in index order.  A section asking for nothing only
        releases its window; one for a window not retained is refused as
        :meth:`_serve_candidates` refuses it."""
        send_at = self.work(receive_ops(request.payload_bytes), now)
        sections = []
        for group_id, window, indices in request.sections:
            key = (group_id, window)
            sealed = self._sealed.get(key)
            if sealed is None:
                if self._reliability is not None:
                    continue  # stale retransmit for a window already released
                raise SliceError(
                    f"node {self.node_id} has no sealed window {window} "
                    f"for group {group_id}"
                )
            sealed.acknowledged = True
            if self._reliability is None:
                del self._sealed[key]
            if not indices:
                continue
            start = send_at
            values = sealed.sliced.runs_for(indices)
            send_at = self.work(_SERVE_OPS_PER_EVENT * len(values), send_at)
            sections.append((group_id, window, indices, values))
            if self._tracer.enabled:
                self._tracer.record(
                    "serve_candidates",
                    self.node_id,
                    start,
                    send_at,
                    window=window,
                    slices=len(indices),
                    events=len(values),
                )
        if sections:
            reply = CandidateBatchMessage(
                sender=self.node_id,
                window=covering_window(sections),
                sections=tuple(sections),
            )
            self.send(reply, self._root_id, send_at)
