"""Dema local-node operator (edge device).

A local node ingests raw events from its data streams, keeps each open
window incrementally sorted, and on window end cuts the sorted run into
γ-slices and ships only the synopses to the root.  It retains the sliced
runs until the root's candidate request arrives, answers with exactly the
requested slices, and then frees the window.

One node serves any number of queries: each sharing group
(:func:`~repro.core.query.served_groups`) keeps its own sorted windows and
ships its own synopsis batches, tagged with the group's ``group_id``;
ingestion is paid once per event.  A single query is group 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import SliceError
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    EventBatchMessage,
    GammaUpdateMessage,
    Message,
    SynopsisMessage,
    SynopsisRequestMessage,
    WindowReleaseMessage,
)
import math

from repro.network.simulator import INGEST_OPS, SimulatedNode, receive_ops
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window

# Hot-path module: columnar batches flow through ingest → window → slices
# without materializing per-event ``Event`` objects, and no loop here
# assigns windows (enforced by tests/test_hotpath_lint.py).
from repro.core.query import QuantileQuery, served_groups
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
        queries: Sequence[QuantileQuery],
        ops_per_second: float = 1e8,
        reliability=None,
        cumulative_releases: bool = True,
    ) -> None:
        super().__init__(node_id, ops_per_second=ops_per_second)
        self._root_id = root_id
        groups = served_groups(queries)
        #: ``(group_id, window length, window step)`` per group.
        self._shapes = tuple((g.group_id, *g.shape[:2]) for g in groups)
        self._gammas = {g.group_id: g.prototype.gamma for g in groups}
        #: The sorted-insert charge's arm (see :meth:`_insert_ops`).
        self._per_event_charge = len(queries) > 1
        self._reliability = reliability
        #: Single-root runs prune every pending window of the released
        #: group at or below a release (a group's windows complete in end
        #: order at the one root).  With sharded roots that inference is
        #: wrong — shard A's release says nothing about shard B's windows,
        #: and pruning them would destroy the failover replay source — so
        #: mesh hosts turn this off and each release frees exactly its own
        #: window.
        self._cumulative_releases = cumulative_releases
        self._open: dict[tuple[int, Window], SortedLocalWindow] = {}
        self._sealed: dict[tuple[int, Window], _Sealed] = {}
        self._completed: set[tuple[int, Window]] = set()
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

        Events are grouped by window, per group, and appended in one batch
        per (group, window); the sort itself is deferred to the window cut
        (the batched form of the paper's incremental sorting).  Ingestion
        is charged once per event, the sorted insert once per (group,
        window) an event lands in (:meth:`_insert_ops`), so simulator
        results stay bit-identical while the live path pays only O(1) per
        event.  Events of a window that already shipped its synopses would
        break the root's rank arithmetic: they are dropped and counted as
        late.
        """
        n_events = len(events)
        inserts: list[tuple[int, int]] = []  # (size before, rows added)
        for group_id, length, step in self._shapes:
            for start, rows in events.by_window(length, step):
                key = (group_id, Window(start, start + length))
                if key in self._completed:
                    self._late_events += len(rows)
                    continue
                sorted_window = self._open.get(key)
                if sorted_window is None:
                    sorted_window = self._open[key] = SortedLocalWindow()
                inserts.append((len(sorted_window), len(rows)))
                sorted_window.add_all(rows)
        ops = INGEST_OPS * n_events + self._insert_ops(inserts, n_events)
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

    def _insert_ops(self, inserts: list[tuple[int, int]], n_events: int) -> float:
        """The sorted-insert charge of one batch (docs/cost-model.md: the
        order of the float sum is part of the simulated clock).

        A node serving one query charges ``rows · log2(size after the
        batch)`` per window, summed in the order the windows first appear
        in the batch.  A node serving several charges ``log2(size after
        this insert)`` per event per (group, window), accumulated
        event-major with ``math.log2`` and a plain ``+=``.
        """
        ops = 0.0
        if not self._per_event_charge:
            for before, added in inserts:
                ops += added * math.log2(max(before + added, 2))
            return ops
        for row in range(1, n_events + 1):
            for before, added in inserts:
                if row <= added:
                    ops += math.log2(max(before + row, 2))
        return ops

    def on_window_complete(
        self, window: Window, now: float, group_id: int = 0
    ) -> None:
        """Seal ``window`` of ``group_id``, slice it, and send synopses.

        Windows that received no events still announce themselves with an
        empty synopsis batch so the root's completeness check can fire.
        Completion is idempotent: repeated announcements are ignored.
        """
        key = (group_id, window)
        if key in self._completed:
            return
        self._completed.add(key)
        events = self._open.pop(key, SortedLocalWindow()).seal()
        # The sort was *charged* at ingest (the cost model is per-event
        # insertion) even though the batched implementation pays it inside
        # seal(); only the slicing pass is charged at window end.
        finish = self.work(_SLICE_OPS_PER_EVENT * len(events), now)
        gamma = self._gammas[group_id]
        sliced = slice_sorted_events(events, gamma, self.node_id)
        self._sealed[key] = _Sealed(sliced)
        self._windows_completed += 1
        if self._tracer.enabled:
            self._tracer.record(
                "slice",
                self.node_id,
                now,
                finish,
                window=window,
                events=len(events),
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
        its group on a single root: windows complete in end order there, so
        an acknowledgement for this window also covers any earlier window
        of the group whose own release was lost."""
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
        """Ship the requested slices' events; free the window unless
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
            send_at = self.work(_SERVE_OPS_PER_EVENT * len(run), send_at)
            reply = CandidateEventsMessage(
                sender=self.node_id,
                window=request.window,
                group_id=request.group_id,
                slice_index=slice_index,
                events=run,
            )
            self.send(reply, self._root_id, send_at)
            served += len(run)
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
