"""Dema local-node operator (edge device).

A local node ingests raw events from its data streams, keeps each open
window incrementally sorted, and on window end cuts the sorted run into
γ-slices and ships only the synopses to the root.  It retains the sliced
runs until the root's candidate request arrives, answers with exactly the
requested slices, and then frees the window.
"""

from __future__ import annotations

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
# without materializing per-event ``Event`` objects (enforced by
# tests/test_hotpath_lint.py).
from repro.core.query import QuantileQuery
from repro.core.slicing import SlicedWindow, slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow

__all__ = ["DemaLocalNode"]

#: Abstract ops for cutting a sorted window into slices (per event).
_SLICE_OPS_PER_EVENT = 0.5

#: Abstract ops for serving one candidate slice request.
_SERVE_OPS_PER_EVENT = 0.5


class DemaLocalNode(SimulatedNode):
    """Edge operator implementing Dema's local-node protocol."""

    def __init__(
        self,
        node_id: int,
        *,
        root_id: int,
        query: QuantileQuery,
        ops_per_second: float = 1e8,
        retain_until_release: bool = False,
        reliability=None,
        cumulative_releases: bool = True,
    ) -> None:
        super().__init__(node_id, ops_per_second=ops_per_second)
        self._root_id = root_id
        self._query = query
        self._window_length = query.window_length_ms
        self._window_step = query.window_step_ms
        self._gamma = query.gamma
        self._reliability = reliability
        self._retain = retain_until_release or reliability is not None
        #: Single-root runs prune every pending window at or below a
        #: release (windows complete in end order at the one root).  With
        #: sharded roots that inference is wrong — shard A's release says
        #: nothing about shard B's windows, and pruning them would destroy
        #: the failover replay source — so mesh hosts turn this off and
        #: each release frees exactly its own window.
        self._cumulative_releases = cumulative_releases
        self._open: dict[Window, SortedLocalWindow] = {}
        self._pending: dict[Window, SlicedWindow] = {}
        self._completed: set[Window] = set()
        self._acknowledged: set[Window] = set()
        self._resend_retries: dict[Window, int] = {}
        self._events_ingested = 0
        self._windows_completed = 0
        self._late_events = 0
        self._last_release_end = -1

    @property
    def gamma(self) -> int:
        """Slice factor currently in force on this node."""
        return self._gamma

    @property
    def events_ingested(self) -> int:
        """Raw events accepted so far."""
        return self._events_ingested

    @property
    def windows_completed(self) -> int:
        """Local windows sealed and shipped so far."""
        return self._windows_completed

    @property
    def pending_windows(self) -> int:
        """Sealed windows still awaiting a candidate request (or release)."""
        return len(self._pending)

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
        for window in sorted(self._pending):
            sliced = self._pending[window]
            self._acknowledged.discard(window)
            self._resend_retries[window] = 0
            message = SynopsisMessage(
                sender=self.node_id,
                window=window,
                synopses=sliced.synopses,
                local_window_size=sliced.window_size,
            )
            self.send(message, self._root_id, now)
            if self._reliability is not None:
                self._arm_resend_timer(window, now)
        return len(self._pending)

    def ingest(self, events: EventColumns, now: float) -> float:
        """Accept a batch of raw events; returns CPU completion time.

        Events are grouped by window and appended in one batch per window;
        the sort itself is deferred to the window cut (the batched form of
        the paper's incremental sorting).  The *simulated* CPU charge is
        unchanged — ``count · log2(window size)`` per window, the cost model
        of per-event insertion, summed in the order the windows first
        appear in the batch — so simulator results stay bit-identical while
        the live path pays only O(1) per event.  Events of a window that
        already shipped its synopses would break the root's rank
        arithmetic: they are dropped and counted as late.
        """
        length = self._window_length
        insert_ops = 0.0
        for start, rows in events.by_window(length, self._window_step):
            window = Window(start, start + length)
            if window in self._completed:
                self._late_events += len(rows)
                continue
            sorted_window = self._open.get(window)
            if sorted_window is None:
                sorted_window = self._open[window] = SortedLocalWindow()
            sorted_window.add_all(rows)
            insert_ops += len(rows) * math.log2(max(len(sorted_window), 2))
        self._events_ingested += len(events)
        finish = self.work(INGEST_OPS * len(events) + insert_ops, now)
        if self._tracer.enabled and len(events):
            self._tracer.record(
                "ingest",
                self.node_id,
                now,
                finish,
                events=len(events),
                ops=INGEST_OPS * len(events) + insert_ops,
            )
        return finish

    def on_window_complete(self, window: Window, now: float) -> None:
        """Seal ``window``, slice it, and send synopses to the root.

        Windows that received no events still announce themselves with an
        empty synopsis batch so the root's completeness check can fire.
        Completion is idempotent: repeated announcements are ignored.
        """
        if window in self._completed:
            return
        self._completed.add(window)
        sorted_window = self._open.pop(window, SortedLocalWindow())
        events = sorted_window.seal()
        # The sort was *charged* at ingest (the cost model is per-event
        # insertion) even though the batched implementation pays it inside
        # seal(); only the slicing pass is charged at window end.
        finish = self.work(_SLICE_OPS_PER_EVENT * len(events), now)
        sliced = slice_sorted_events(events, self._gamma, self.node_id)
        self._pending[window] = sliced
        self._windows_completed += 1
        if self._tracer.enabled:
            self._tracer.record(
                "slice",
                self.node_id,
                now,
                finish,
                window=window,
                events=len(events),
                gamma=self._gamma,
                synopses=len(sliced.synopses),
            )
        message = SynopsisMessage(
            sender=self.node_id,
            window=window,
            synopses=sliced.synopses,
            local_window_size=sliced.window_size,
        )
        self.send(message, self._root_id, finish)
        if self._reliability is not None:
            self._arm_resend_timer(window, finish)

    def _arm_resend_timer(self, window: Window, now: float) -> None:
        """Local-side retransmission: if the root never reacts (all our
        synopsis messages were lost, so it may not even know the window
        exists), resend until it does or retries run out."""
        self.call_later(
            self._reliability.timeout_s,
            lambda t, w=window: self._check_acknowledged(w, t),
            now,
        )

    def _check_acknowledged(self, window: Window, now: float) -> None:
        if window in self._acknowledged or window not in self._pending:
            return
        retries = self._resend_retries.get(window, 0)
        if retries >= self._reliability.max_retries:
            return
        self._resend_retries[window] = retries + 1
        sliced = self._pending[window]
        message = SynopsisMessage(
            sender=self.node_id,
            window=window,
            synopses=sliced.synopses,
            local_window_size=sliced.window_size,
        )
        self.send(message, self._root_id, now)
        self._arm_resend_timer(window, now)

    def on_message(self, message: Message, now: float) -> None:
        """Dispatch protocol messages (root → local and sensor → local)."""
        if isinstance(message, EventBatchMessage):
            finish = self.work(receive_ops(message.payload_bytes), now)
            self.ingest(message.events, finish)
        elif isinstance(message, CandidateRequestMessage):
            self._acknowledged.add(message.window)
            self._serve_candidates(message, now)
        elif isinstance(message, GammaUpdateMessage):
            self._gamma = max(message.gamma, 2)
        elif isinstance(message, SynopsisRequestMessage):
            # A re-request proves the root tracks the window.
            self._acknowledged.add(message.window)
            self._resend_synopses(message, now)
        elif isinstance(message, WindowReleaseMessage):
            self._acknowledged.add(message.window)
            self._last_release_end = max(
                self._last_release_end, message.window.end
            )
            if self._cumulative_releases:
                # Releases are cumulative: windows complete in end order at
                # the root, so an acknowledgement for this window also
                # covers any earlier window whose own release was lost.
                self._pending = {
                    window: sliced
                    for window, sliced in self._pending.items()
                    if window.end > message.window.end
                }
            else:
                self._pending.pop(message.window, None)
        else:
            raise SliceError(
                f"local node {self.node_id} cannot handle "
                f"{type(message).__name__}"
            )

    def _resend_synopses(
        self, request: SynopsisRequestMessage, now: float
    ) -> None:
        """Answer a root retransmission request from retained state."""
        sliced = self._pending.get(request.window)
        if sliced is None:
            # Either never completed (the root's timer raced the original
            # send) or already released; either way the root will sort it
            # out — re-answering with nothing is the safe option.
            return
        finish = self.work(receive_ops(request.payload_bytes), now)
        message = SynopsisMessage(
            sender=self.node_id,
            window=request.window,
            synopses=sliced.synopses,
            local_window_size=sliced.window_size,
        )
        self.send(message, self._root_id, finish)

    def _serve_candidates(
        self, request: CandidateRequestMessage, now: float
    ) -> None:
        """Ship the requested slices' events; free the window unless
        retention (reliability mode) is on."""
        if self._retain:
            sliced = self._pending.get(request.window)
            if sliced is None:
                # Stale retransmit for a window already released.
                return
        else:
            sliced = self._pending.pop(request.window, None)
            if sliced is None:
                raise SliceError(
                    f"node {self.node_id} has no sealed window "
                    f"{request.window}"
                )
        send_at = self.work(receive_ops(request.payload_bytes), now)
        served = 0
        for slice_index in request.slice_indices:
            run = sliced.run_for(slice_index)
            send_at = self.work(_SERVE_OPS_PER_EVENT * len(run), send_at)
            reply = CandidateEventsMessage(
                sender=self.node_id,
                window=request.window,
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
