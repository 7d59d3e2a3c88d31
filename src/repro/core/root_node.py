"""Dema root-node operator (cloud server).

The root collects one synopsis batch per local node per global window.  Once
the batch set is complete it runs the identification step (window-cut),
requests exactly the candidate slices, merges the pre-sorted candidate runs
as they arrive, and emits the exact quantile.  With adaptivity enabled it
then re-optimizes γ from the observed window statistics and broadcasts the
new factor to every local node (Section 3.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import IdentificationError
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    GammaUpdateMessage,
    Message,
    SynopsisMessage,
    SynopsisRequestMessage,
    WindowReleaseMessage,
)
from repro.network.driver import MS_PER_SECOND
from repro.network.simulator import SimulatedNode, merge_cost, receive_ops
from repro.streaming.events import Event
from repro.streaming.windows import Window
from repro.core.adaptive import AdaptiveGammaController, NodeGammaController
from repro.core.calculation import calculate_quantile
from repro.core.identification import IdentificationResult, identify
from repro.core.query import QuantileQuery
from repro.core.reliability import ReliabilityConfig
from repro.core.synopsis import SliceSynopsis

__all__ = ["WindowOutcome", "DemaRootNode"]

#: Abstract ops for sorting and sweeping s synopses during identification.
_IDENTIFY_OPS_PER_SYNOPSIS = 4.0


@dataclass(frozen=True, slots=True)
class WindowOutcome:
    """One global window's final result plus reproduction metrics."""

    window: Window
    value: float | None
    global_window_size: int
    result_time: float
    candidate_events: int
    candidate_slices: int
    synopses_received: int
    gamma_used: int
    #: Fraction of the configured locals whose data formed this answer.
    #: 1.0 is the normal case; < 1.0 marks a degraded answer computed
    #: without locals that were declared dead or gave up.
    completeness: float = 1.0

    @property
    def is_empty(self) -> bool:
        """Whether the global window held no events."""
        return self.global_window_size == 0

    @property
    def is_degraded(self) -> bool:
        """Whether some configured locals were missing from this answer."""
        return self.completeness < 1.0


@dataclass
class _WindowState:
    """Root-side bookkeeping for one in-flight global window."""

    synopses: dict[int, Sequence[SliceSynopsis]] = field(default_factory=dict)
    sizes: dict[int, int] = field(default_factory=dict)
    identification: IdentificationResult | None = None
    runs: dict[tuple[int, int], tuple[Event, ...]] = field(default_factory=dict)
    expected_runs: int = 0
    gamma_used: int = 0
    retries: int = 0
    #: Locals whose synopses the current identification was computed over
    #: (set when identification runs; ``None`` before).
    participants: tuple[int, ...] | None = None
    #: Locals given up on for this window only (degradation).
    excluded: set[int] = field(default_factory=set)
    #: Tracing bookkeeping: the window's parent span id and the time the
    #: candidate requests went out (start of the candidate_fetch phase).
    window_span: int = 0
    fetch_started: float = 0.0


class DemaRootNode(SimulatedNode):
    """Cloud operator implementing Dema's root-node protocol."""

    def __init__(
        self,
        node_id: int,
        *,
        local_ids: Sequence[int],
        query: QuantileQuery,
        ops_per_second: float = 2e8,
        reliability: ReliabilityConfig | None = None,
        degrade_after_retries: bool = False,
    ) -> None:
        super().__init__(node_id, ops_per_second=ops_per_second)
        if not local_ids:
            raise IdentificationError("root needs at least one local node")
        self._reliability = reliability
        self._degrade = degrade_after_retries
        self._aborted_windows = 0
        self._local_ids = tuple(local_ids)
        self._query = query
        self._gamma = query.gamma
        self._controller: AdaptiveGammaController | None = None
        self._node_controller: NodeGammaController | None = None
        if query.adaptive:
            if query.per_node_gamma:
                self._node_controller = NodeGammaController(query.gamma)
            else:
                self._controller = AdaptiveGammaController(gamma=query.gamma)
        self._states: dict[Window, _WindowState] = {}
        self._outcomes: list[WindowOutcome] = []
        #: Tombstones for released windows: a synopsis arriving for one of
        #: these means the local never saw the release (it was lost) and is
        #: resending; answering with a fresh release — instead of opening
        #: phantom window state — keeps the protocol convergent.  Entries
        #: expire once the local's own resend retries must have run out.
        self._released: dict[Window, float] = {}
        #: Locals the failure detector has declared dead (until revived).
        self._dead: set[int] = set()
        self._deaths_declared = 0
        #: Elastic membership: first window start a runtime joiner serves,
        #: and first window start a departed local no longer serves.  The
        #: constructor's locals carry no entries — they are eligible for
        #: every window — so a run without joins or leaves behaves (and
        #: answers) exactly as before.
        self._joined_from: dict[int, int] = {}
        self._left_at: dict[int, int] = {}
        self._membership_epoch = 0
        #: Windows answered or aborted, permanently.  Unlike the expiring
        #: tombstones above, this survives arbitrarily long outages: a
        #: local resuming after minutes still gets a release, never a
        #: phantom re-opened window.  One ``Window`` per grid window for
        #: the run's lifetime — cheap at reproduction scale.
        self._finalized: set[Window] = set()

    @property
    def outcomes(self) -> list[WindowOutcome]:
        """Completed global windows, in completion order."""
        return list(self._outcomes)

    @property
    def local_ids(self) -> tuple[int, ...]:
        """Configured local node ids, in constructor order."""
        return self._local_ids

    @property
    def dead_nodes(self) -> frozenset[int]:
        """Locals currently declared dead by the failure detector."""
        return frozenset(self._dead)

    @property
    def deaths_declared(self) -> int:
        """Times :meth:`mark_dead` newly declared a local dead."""
        return self._deaths_declared

    @property
    def degraded_windows(self) -> int:
        """Completed windows answered without some configured locals."""
        return sum(1 for outcome in self._outcomes if outcome.is_degraded)

    @property
    def gamma(self) -> int:
        """Slice factor the root currently prescribes."""
        return self._gamma

    @property
    def node_gammas(self) -> dict[int, int]:
        """Per-node factors in force (empty unless ``per_node_gamma``)."""
        if self._node_controller is None:
            return {}
        return self._node_controller.gammas

    @property
    def open_windows(self) -> int:
        """Global windows still awaiting synopses or candidate events."""
        return len(self._states)

    @property
    def aborted_windows(self) -> int:
        """Windows abandoned after exhausting reliability retries."""
        return self._aborted_windows

    @property
    def membership_epoch(self) -> int:
        """Counts membership changes (joins + leaves) applied so far."""
        return self._membership_epoch

    @property
    def current_members(self) -> tuple[int, ...]:
        """Locals that have not announced a departure, in member order."""
        return tuple(
            local_id
            for local_id in self._local_ids
            if local_id not in self._left_at
        )

    def add_local(self, node_id: int, first_window_start: int) -> bool:
        """Admit a runtime joiner, eligible from ``first_window_start``.

        Idempotent; a re-join after a leave reopens eligibility from the
        new start.  Returns whether the membership view changed.
        """
        changed = False
        if node_id not in self._local_ids:
            self._local_ids = self._local_ids + (node_id,)
            changed = True
        if self._joined_from.get(node_id) != first_window_start:
            self._joined_from[node_id] = first_window_start
            changed = True
        if self._left_at.pop(node_id, None) is not None:
            changed = True
        self._dead.discard(node_id)
        if changed:
            self._membership_epoch += 1
        return changed

    def remove_local(
        self, node_id: int, effective_from: int, now: float
    ) -> bool:
        """Graceful leave: stop expecting ``node_id`` from
        ``effective_from`` on.

        Open windows at or past the boundary immediately re-evaluate
        without the leaver, so none of them can hang waiting on data the
        leaver will never send.  Windows before the boundary are
        untouched — the leaver still owes (and serves) them.
        """
        if node_id not in self._local_ids:
            return False
        if self._left_at.get(node_id) == effective_from:
            return False
        self._left_at[node_id] = effective_from
        self._membership_epoch += 1
        for window in sorted(self._states):
            if window.start < effective_from:
                continue
            state = self._states.get(window)
            if state is not None:
                self._give_up_on(window, state, {node_id}, now)
        return True

    def _eligible_locals(self, window: Window) -> tuple[int, ...]:
        """Locals that are members for ``window`` (joined, not yet left)."""
        return tuple(
            local_id
            for local_id in self._local_ids
            if self._joined_from.get(local_id, window.start) <= window.start
            and window.start < self._left_at.get(local_id, window.end)
        )

    def on_message(self, message: Message, now: float) -> None:
        """Dispatch local → root protocol messages."""
        if isinstance(message, SynopsisMessage):
            self._on_synopses(message, now)
        elif isinstance(message, CandidateEventsMessage):
            self._on_candidates(message, now)
        else:
            raise IdentificationError(
                f"root cannot handle {type(message).__name__}"
            )

    def _on_synopses(self, message: SynopsisMessage, now: float) -> None:
        now = self.work(receive_ops(message.payload_bytes), now)
        if self._reliability is not None and self._was_released(
            message.window, now
        ):
            # The window is already answered; this synopsis is a local
            # resend, so the release we sent it must have been lost.
            self.send(
                WindowReleaseMessage(
                    sender=self.node_id, window=message.window
                ),
                message.sender,
                now,
            )
            return
        fresh = message.window not in self._states
        state = self._states.setdefault(message.window, _WindowState())
        if message.sender in state.synopses:
            if self._reliability is not None:
                return  # retransmission of a batch that did arrive
            raise IdentificationError(
                f"duplicate synopsis batch from node {message.sender} "
                f"for window {message.window}"
            )
        state.synopses[message.sender] = message.synopses
        state.sizes[message.sender] = message.local_window_size
        if fresh and self._tracer.enabled:
            # The window span covers the full end-to-end latency interval,
            # so it starts at the window's event-time end, not at arrival.
            state.window_span = self._tracer.begin(
                "window",
                self.node_id,
                message.window.end / MS_PER_SECOND,
                window=message.window,
            )
        if fresh and self._reliability is not None:
            self._arm_timer(message.window, now)
        if state.identification is None and self._synopses_complete(
            message.window, state
        ):
            self._identify(message.window, state, now)

    def _expected_locals(
        self, window: Window, state: _WindowState
    ) -> tuple[int, ...]:
        """Locals this window still expects data from (alive, not given up)."""
        return tuple(
            local_id
            for local_id in self._eligible_locals(window)
            if local_id not in self._dead and local_id not in state.excluded
        )

    def _synopses_complete(self, window: Window, state: _WindowState) -> bool:
        return set(self._expected_locals(window, state)) <= set(state.synopses)

    def _required_runs(self, state: _WindowState) -> set[tuple[int, int]]:
        """Run keys the current identification is waiting for."""
        assert state.identification is not None
        return {
            (local_id, index)
            for local_id, indices in state.identification.requests.items()
            for index in indices
        }

    def _runs_complete(self, state: _WindowState) -> bool:
        return self._required_runs(state) <= set(state.runs)

    def _stalled_locals(self, window: Window, state: _WindowState) -> set[int]:
        """Expected locals the current phase is still blocked on."""
        expected = set(self._expected_locals(window, state))
        if state.identification is None:
            return expected - set(state.synopses)
        stalled = set()
        for local_id, indices in state.identification.requests.items():
            if local_id not in expected:
                continue
            if any((local_id, index) not in state.runs for index in indices):
                stalled.add(local_id)
        return stalled

    def mark_dead(self, node_id: int, now: float) -> bool:
        """Failure-detector verdict: stop waiting on ``node_id`` anywhere.

        Every in-flight window immediately re-evaluates against the
        survivors, so windows blocked only on the dead local answer now —
        tagged with ``completeness < 1`` — instead of burning retries.
        Returns whether the node was newly declared dead.
        """
        if node_id not in self._local_ids or node_id in self._dead:
            return False
        self._dead.add(node_id)
        self._deaths_declared += 1
        for window in sorted(self._states):
            state = self._states.get(window)
            if state is not None:
                self._give_up_on(window, state, {node_id}, now)
        return True

    def mark_alive(self, node_id: int) -> bool:
        """Revive a local (reconnect): expect it again for future windows.

        Windows already re-planned without it are not re-opened — their
        answers stand; the revived local's replayed synopses for them get
        releases.  Returns whether the node was previously dead.
        """
        if node_id not in self._dead:
            return False
        self._dead.discard(node_id)
        return True

    def resume_release(self, local_id: int, resume_from: int, now: float) -> bool:
        """Session-resume fast path: cumulatively re-release old windows.

        A reconnecting local announces the end of the highest window it
        has seen released (``resume_from``, from the ``Hello`` preamble).
        Finalized windows past that cursor whose releases it evidently
        missed are re-acknowledged with one cumulative release — capped
        below the earliest still-open window, because a release frees
        everything at or below its end.  Returns whether one was sent.
        """
        if self._reliability is None:
            return False
        candidates = [w.end for w in self._finalized if w.end > resume_from]
        if not candidates:
            return False
        open_ends = [w.end for w in self._states]
        cap = min(open_ends) if open_ends else None
        safe = [end for end in candidates if cap is None or end < cap]
        if not safe:
            return False
        end = max(safe)
        self.send(
            WindowReleaseMessage(
                sender=self.node_id, window=Window(end - 1, end)
            ),
            local_id,
            now,
        )
        return True

    def inherit_finalized(self, windows) -> int:
        """Shard failover: adopt a dead predecessor's answered windows.

        The successor must never answer a window its predecessor already
        answered — locals replay *every* retained window on failover, and
        a duplicate answer would double-count the window in the shard's
        completion arithmetic.  Marking the predecessor's windows
        finalized makes replayed synopses for them get a fresh release
        (the convergent answered-window path) instead of opening phantom
        state.  Returns how many windows were newly inherited.
        """
        inherited = 0
        for window in windows:
            if window not in self._finalized:
                self._finalized.add(window)
                inherited += 1
        return inherited

    def _give_up_on(
        self, window: Window, state: _WindowState, gone: set[int], now: float
    ) -> None:
        """Progress one window without ``gone``: re-plan or answer degraded.

        Drops the departed locals' synopses (an identification over the
        survivors must not request candidates from a node that cannot
        answer) and, if the current candidate plan depended on them,
        rebuilds it from scratch over the surviving synopses.
        """
        for node_id in gone:
            state.synopses.pop(node_id, None)
            state.sizes.pop(node_id, None)
        if not self._expected_locals(window, state):
            self._abort(window, state, now)
            return
        if state.identification is not None:
            if not (set(state.participants or ()) & gone):
                # The plan never involved them; we may only have been
                # waiting for their (never-requested) data — check if the
                # surviving runs already complete the window.
                if self._runs_complete(state):
                    self._calculate(window, state, now)
                return
            state.identification = None
            state.participants = None
            state.runs.clear()
        if self._synopses_complete(window, state):
            self._identify(window, state, now)

    def _arm_timer(self, window: Window, now: float) -> None:
        assert self._reliability is not None
        self.call_later(
            self._reliability.timeout_s,
            lambda t, w=window: self._check_window(w, t),
            now,
        )

    def _check_window(self, window: Window, now: float) -> None:
        """Reliability timer: retransmit whatever is still missing."""
        state = self._states.get(window)
        if state is None:
            return  # window completed meanwhile
        assert self._reliability is not None
        if state.retries >= self._reliability.max_retries:
            if self._degrade:
                stalled = self._stalled_locals(window, state)
                expected = set(self._expected_locals(window, state))
                if stalled and stalled != expected:
                    # Some locals are responsive: give up on the stragglers
                    # for this window only and answer from the rest, with a
                    # fresh retry budget for the re-planned fetch.
                    state.retries = 0
                    state.excluded |= stalled
                    self._give_up_on(window, state, stalled, now)
                    if window in self._states:
                        self._arm_timer(window, now)
                    return
            self._abort(window, state, now)
            return
        state.retries += 1
        if state.identification is None:
            missing = set(
                self._expected_locals(window, state)
            ) - set(state.synopses)
            for local_id in sorted(missing):
                request = SynopsisRequestMessage(
                    sender=self.node_id, window=window
                )
                self.send(request, local_id, now)
        else:
            received = set(state.runs)
            for local_id, indices in state.identification.requests.items():
                outstanding = tuple(
                    index
                    for index in indices
                    if (local_id, index) not in received
                )
                if outstanding:
                    request = CandidateRequestMessage(
                        sender=self.node_id,
                        window=window,
                        slice_indices=outstanding,
                    )
                    self.send(request, local_id, now)
        self._arm_timer(window, now)

    def _abort(self, window: Window, state: _WindowState, now: float) -> None:
        """Abandon a window that exhausted its retries: release and move on."""
        self._states.pop(window, None)
        self._aborted_windows += 1
        self._finalized.add(window)
        if self._tracer.enabled:
            # Close out whichever phase the window died in, so aborted
            # windows still partition their (truncated) lifetime.
            if state.identification is None:
                self._tracer.record(
                    "synopsis_wait",
                    self.node_id,
                    window.end / MS_PER_SECOND,
                    now,
                    window=window,
                    parent=state.window_span,
                    aborted=1,
                )
            else:
                self._tracer.record(
                    "candidate_fetch",
                    self.node_id,
                    state.fetch_started,
                    now,
                    window=window,
                    parent=state.window_span,
                    runs=len(state.runs),
                    aborted=1,
                )
            self._tracer.end(state.window_span, now, aborted=1)
        if self._reliability is not None:
            self._release(window, now)

    def _was_released(self, window: Window, now: float) -> bool:
        """Whether ``window`` was already released (pruning stale tombstones)."""
        expired = [w for w, expiry in self._released.items() if expiry <= now]
        for stale in expired:
            del self._released[stale]
        return window in self._released or window in self._finalized

    def _release(self, window: Window, now: float) -> None:
        """Tell every local node to free its retained state for ``window``."""
        assert self._reliability is not None
        # A local that misses this release resends its synopsis every
        # timeout until its own retries run out; remember the window long
        # enough to answer every possible resend with a fresh release.
        horizon = (self._reliability.max_retries + 2) * self._reliability.timeout_s
        self._released[window] = now + horizon
        for local_id in self._eligible_locals(window):
            self.send(
                WindowReleaseMessage(sender=self.node_id, window=window),
                local_id,
                now,
            )

    def _identify(self, window: Window, state: _WindowState, now: float) -> None:
        state.gamma_used = self._gamma
        # Plan over the locals this window still expects; a straggler's
        # synopsis that arrived after its node was given up on must not
        # drag an unanswerable candidate request into the plan.
        expected = self._expected_locals(window, state)
        synopses = {i: state.synopses[i] for i in expected if i in state.synopses}
        sizes = {i: state.sizes[i] for i in expected if i in state.sizes}
        state.participants = tuple(sorted(synopses))
        eligible = max(len(self._eligible_locals(window)), 1)
        completeness = len(state.participants) / eligible
        total = sum(sizes.values())
        tracing = self._tracer.enabled
        if tracing:
            # synopsis_wait runs from the window's event-time end until the
            # last synopsis has been received and deserialized; the phases
            # recorded below are deliberately contiguous so that, per
            # window, their durations sum to the end-to-end latency.
            self._tracer.record(
                "synopsis_wait",
                self.node_id,
                window.end / MS_PER_SECOND,
                now,
                window=window,
                parent=state.window_span,
                synopses=sum(len(batch) for batch in state.synopses.values()),
            )
        if total == 0:
            self._states.pop(window)
            self._finalized.add(window)
            if self._reliability is not None:
                self._release(window, now)
            if tracing:
                self._tracer.end(state.window_span, now, empty=1)
            self._outcomes.append(
                WindowOutcome(
                    window=window,
                    value=None,
                    global_window_size=0,
                    result_time=now,
                    candidate_events=0,
                    candidate_slices=0,
                    synopses_received=0,
                    gamma_used=state.gamma_used,
                    completeness=completeness,
                )
            )
            return

        n_synopses = sum(len(batch) for batch in synopses.values())
        ops = _IDENTIFY_OPS_PER_SYNOPSIS * n_synopses * max(
            1.0, math.log2(max(n_synopses, 2))
        )
        finish = self.work(ops, now)
        state.identification = identify(synopses, sizes, self._query.q)
        if tracing:
            self._tracer.record(
                "identification",
                self.node_id,
                now,
                finish,
                window=window,
                parent=state.window_span,
                ops=ops,
                synopses=n_synopses,
                gamma=state.gamma_used,
                rank=state.identification.rank,
            )
            state.fetch_started = finish
        state.expected_runs = sum(
            len(indices) for indices in state.identification.requests.values()
        )
        # Every *expected* local gets a request — an empty index tuple for
        # non-candidates — which doubles as the acknowledgement that stops
        # its synopsis resend timer.  Dead locals get nothing.
        for local_id in expected:
            indices = state.identification.requests.get(local_id, ())
            request = CandidateRequestMessage(
                sender=self.node_id,
                window=window,
                slice_indices=tuple(indices),
            )
            self.send(request, local_id, finish)

    def _on_candidates(self, message: CandidateEventsMessage, now: float) -> None:
        now = self.work(receive_ops(message.payload_bytes), now)
        state = self._states.get(message.window)
        if state is None or state.identification is None:
            if self._reliability is not None:
                return  # stale run for a window already answered or aborted
            raise IdentificationError(
                f"unexpected candidate events for window {message.window}"
            )
        key = (message.sender, message.slice_index)
        if key in state.runs:
            if self._reliability is not None:
                return  # retransmission of a run that did arrive
            raise IdentificationError(
                f"duplicate candidate run {key} for window {message.window}"
            )
        if self._reliability is not None and key not in self._required_runs(
            state
        ):
            # A run the *current* plan never asked for — typically a reply
            # to a request from a plan since rebuilt without its sender.
            # Mixing it into the merge would corrupt the rank arithmetic.
            return
        state.runs[key] = message.events
        if self._runs_complete(state):
            self._calculate(message.window, state, now)

    def _calculate(self, window: Window, state: _WindowState, now: float) -> None:
        identification = state.identification
        assert identification is not None
        cut = identification.cut
        n = cut.candidate_events
        finish = self.work(merge_cost(n, max(len(state.runs), 1)), now)
        answer = calculate_quantile(cut, state.runs.values())
        if self._tracer.enabled:
            self._tracer.record(
                "candidate_fetch",
                self.node_id,
                state.fetch_started,
                now,
                window=window,
                parent=state.window_span,
                runs=len(state.runs),
                candidate_events=n,
            )
            self._tracer.record(
                "calculation",
                self.node_id,
                now,
                finish,
                window=window,
                parent=state.window_span,
                candidate_events=n,
                value=answer.value,
            )
            self._tracer.end(
                state.window_span,
                finish,
                global_window_size=identification.global_window_size,
                candidate_events=n,
                gamma=state.gamma_used,
            )
        self._states.pop(window)
        self._finalized.add(window)
        if self._reliability is not None:
            self._release(window, finish)
        eligible = self._eligible_locals(window)
        participants = (
            state.participants
            if state.participants is not None
            else eligible
        )
        self._outcomes.append(
            WindowOutcome(
                window=window,
                value=answer.value,
                global_window_size=identification.global_window_size,
                result_time=finish,
                candidate_events=n,
                candidate_slices=len(cut.candidates),
                synopses_received=sum(
                    len(batch) for batch in state.synopses.values()
                ),
                gamma_used=state.gamma_used,
                completeness=len(participants) / max(len(eligible), 1),
            )
        )
        if self._controller is not None:
            new_gamma = self._controller.observe(
                identification.global_window_size, len(cut.candidates)
            )
            if new_gamma != self._gamma:
                self._gamma = new_gamma
                for local_id in self._local_ids:
                    update = GammaUpdateMessage(
                        sender=self.node_id,
                        window=window,
                        gamma=new_gamma,
                    )
                    self.send(update, local_id, finish)
        elif self._node_controller is not None:
            candidates_by_node: dict[int, int] = {}
            for synopsis in cut.candidates:
                candidates_by_node[synopsis.node_id] = (
                    candidates_by_node.get(synopsis.node_id, 0) + 1
                )
            previous = self._node_controller.gammas
            updated = self._node_controller.observe(
                dict(state.sizes), candidates_by_node
            )
            for local_id, gamma in updated.items():
                if previous.get(local_id) == gamma:
                    continue
                update = GammaUpdateMessage(
                    sender=self.node_id, window=window, gamma=gamma
                )
                self.send(update, local_id, finish)
