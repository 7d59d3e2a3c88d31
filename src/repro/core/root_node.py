"""Dema root-node operator (cloud server).

The root collects one synopsis batch per local node per global window.  Once
the batch set is complete it runs the identification step (window-cut),
requests exactly the candidate slices, checks each value run against the
synopsis that requested it as it arrives, and selects the exact quantile
from the runs.  With adaptivity enabled it then re-optimizes γ from the
observed window statistics and broadcasts the new factor to every local
node (Section 3.3).

Window state is keyed by ``(group_id, window)``: each group is one
protocol instance multiplexed over the same channels, answering every
quantile of the group with one identification pass and one union candidate
fetch.  A simulated root serves one query, as group 0, and only it may be
adaptive.  A host serving concurrent queries opens and closes groups at
runtime instead (:meth:`DemaRootNode.open_group`), choosing the quantiles
each window is cut for.

A frame, not a window, is the root's unit of work.  Such a host may
batch its windows across groups: a
:class:`~repro.network.messages.SynopsisBatchMessage` carries one local's
synopses of several (group, window) pairs.  Every window the frame
completes is cut in one sweep
(:func:`~repro.core.identification.identify_frame`), each local gets one
:class:`~repro.network.messages.CandidateRequestBatchMessage` for all of
them, and its one :class:`~repro.network.messages.CandidateBatchMessage`
answer is split into runs at the counts of the synopses that asked for
them, each run checked as it arrives; every window it completes is
selected from one stacked value array
(:func:`~repro.streaming.columns.select_frame`).  The per-window carriers
of the configured query and the simulator reach the same code as
one-window frames, and every answer, charge and span is the one they give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import IdentificationError
from repro.network.messages import (
    CandidateBatchMessage,
    CandidateEventsMessage,
    CandidateRequestBatchMessage,
    CandidateRequestMessage,
    GammaUpdateMessage,
    Message,
    SynopsisBatchMessage,
    SynopsisMessage,
    SynopsisRequestMessage,
    WindowReleaseMessage,
    covering_window,
)
from repro.network.driver import MS_PER_SECOND
from repro.network.simulator import SimulatedNode, merge_cost, receive_ops
from repro.streaming.windows import Window
from repro.core.adaptive import AdaptiveGammaController
from repro.core.calculation import check_run
from repro.core.identification import WindowPlan, identify_frame
from repro.core.query import QuantileQuery
from repro.core.reliability import ReliabilityConfig
from repro.core.synopsis import SliceSynopsis
from repro.streaming.columns import select_frame

# Hot-path module: synopses stay ``SynopsisColumns`` batches from the
# decoder to the sweep, and a candidate batch is split into runs as
# ``float64`` views (tests/test_hotpath_lint.py).

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
    #: The query group this window belongs to (0 for the constructor's
    #: query).
    group_id: int = 0
    #: One value per quantile the window was cut for; ``value`` is the
    #: first.
    values: tuple[float | None, ...] = ()
    #: The quantiles ``values`` answer, and each one's global rank (0 for
    #: an empty window).
    quantiles: tuple[float, ...] = ()
    ranks: tuple[int, ...] = ()

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
    """Root-side bookkeeping for one in-flight (group, window)."""

    synopses: dict[int, Sequence[SliceSynopsis]] = field(default_factory=dict)
    sizes: dict[int, int] = field(default_factory=dict)
    #: The quantiles the window is cut for, chosen at identification.
    quantiles: tuple[float, ...] = ()
    plan: WindowPlan | None = None
    #: The plan's run keys in ``(node_id, slice_index)`` order: the order
    #: the calculation stacks the runs in.
    run_keys: tuple[tuple[int, int], ...] = ()
    #: Run keys the current plan still waits for, each with the requesting
    #: synopsis' ``(count, first_value, last_value, final)`` (what its run
    #: is checked against).
    missing: dict[tuple[int, int], tuple] = field(default_factory=dict)
    #: Value runs received, by ``(node_id, slice_index)``.
    runs: dict[tuple[int, int], Sequence[float]] = field(default_factory=dict)
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
        query: QuantileQuery | None,
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
        self._gammas: dict[int, int] = {}
        self._quantiles: dict[int, Callable[[Window], Sequence[float]]] = {}
        # No query: a host that opens its groups at runtime.
        if query is not None:
            qs = (query.q,)
            self.open_group(0, query.gamma, lambda _: qs)
        # Only the constructor's query can be adaptive.
        self._controller: AdaptiveGammaController | None = None
        if query is not None and query.adaptive:
            self._controller = AdaptiveGammaController(gamma=query.gamma)
        self._states: dict[tuple[int, Window], _WindowState] = {}
        self._outcomes: list[WindowOutcome] = []
        #: Locals the failure detector has declared dead (until revived).
        self._dead: set[int] = set()
        #: Elastic membership: first window start a runtime joiner serves,
        #: and first window start a departed local no longer serves.  The
        #: constructor's locals carry no entries — they are eligible for
        #: every window — so a run without joins or leaves behaves (and
        #: answers) exactly as before.
        self._joined_from: dict[int, int] = {}
        self._left_at: dict[int, int] = {}
        self._membership_epoch = 0
        #: (group, window) pairs answered or aborted, permanently.  A
        #: synopsis arriving for one of these means the local never saw the
        #: release (it was lost) and is resending; answering with a fresh
        #: release — instead of opening phantom window state — keeps the
        #: protocol convergent, even for a local resuming after minutes.
        #: One entry per grid window for the run's lifetime — cheap at
        #: reproduction scale.
        self._finalized: set[tuple[int, Window]] = set()
        #: Finalized windows whose release waits for an earlier window of
        #: their group to close (see :meth:`_release`).
        self._unreleased: set[tuple[int, Window]] = set()
        #: Every (group, window) cut so far, in cut order.
        self._cuts: list[tuple[int, Window]] = []

    @property
    def outcomes(self) -> list[WindowOutcome]:
        """Completed (group, window) pairs, in completion order."""
        return list(self._outcomes)

    def outcomes_since(self, index: int) -> list[WindowOutcome]:
        """Outcomes from completion number ``index`` on."""
        return self._outcomes[index:]

    @property
    def identifications(self) -> int:
        """Windows cut (not empty ones), however many shared a sweep."""
        return len(self._cuts)

    def cuts_since(self, index: int) -> list[tuple[int, Window]]:
        """The (group, window) pairs cut from cut number ``index`` on."""
        return self._cuts[index:]

    def open_group(
        self,
        group_id: int,
        gamma: int,
        quantiles: Callable[[Window], Sequence[float]],
    ) -> None:
        """Serve ``group_id`` from now on; ``quantiles(window)`` names the
        quantiles each window is cut for, asked once at identification.
        A window asked for none is released without a cut."""
        self._gammas[group_id] = gamma
        self._quantiles[group_id] = quantiles

    def close_group(self, group_id: int) -> None:
        """Stop serving ``group_id`` and forget its in-flight windows."""
        self.drop_windows(group_id, lambda _: False)
        del self._gammas[group_id], self._quantiles[group_id]

    def drop_windows(self, group_id: int, keep: Callable[[Window], bool]) -> None:
        """Forget the in-flight windows of ``group_id`` that ``keep``
        rejects; frames still arriving for them are the host's to drop."""
        for key in [k for k in self._states if k[0] == group_id and not keep(k[1])]:
            del self._states[key]

    def holds(self, group_id: int, window: Window) -> bool:
        """Whether ``window`` of ``group_id`` is in flight here."""
        return (group_id, window) in self._states

    @property
    def local_ids(self) -> tuple[int, ...]:
        """Configured local node ids, in constructor order."""
        return self._local_ids

    @property
    def dead_nodes(self) -> frozenset[int]:
        """Locals currently declared dead by the failure detector."""
        return frozenset(self._dead)

    @property
    def degraded_windows(self) -> int:
        """Completed windows answered without some configured locals."""
        return sum(1 for outcome in self._outcomes if outcome.is_degraded)

    @property
    def gamma(self) -> int:
        """Slice factor the root currently prescribes (group 0's)."""
        return self._gammas[0]

    @property
    def open_windows(self) -> int:
        """(group, window) pairs still awaiting synopses or candidates."""
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
        for key in sorted(self._states):
            if key[1].start < effective_from:
                continue
            state = self._states.get(key)
            if state is not None:
                self._give_up_on(key, state, {node_id}, now)
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
            now = self.work(receive_ops(message.payload_bytes), now)
            if self._admit(
                message.sender, message.group_id, message.window,
                message.synopses, message.local_window_size, now,
            ):
                self._identify([(message.group_id, message.window)], now)
        elif isinstance(message, CandidateEventsMessage):
            now = self.work(receive_ops(message.payload_bytes), now)
            key = (message.group_id, message.window)
            state = self._fetching(key)
            if state is not None and self._take_run(
                state, key, message.sender, message.slice_index, message.events
            ) and not state.missing:
                self._calculate([(key, state)], now)
        elif isinstance(message, SynopsisBatchMessage):
            self._on_synopsis_batch(message, now)
        elif isinstance(message, CandidateBatchMessage):
            self._on_candidate_batch(message, now)
        else:
            raise IdentificationError(
                f"root cannot handle {type(message).__name__}"
            )

    def _on_synopsis_batch(self, message: SynopsisBatchMessage, now: float) -> None:
        """Admit every section; cut every window they complete in one sweep."""
        now = self.work(receive_ops(message.payload_bytes), now)
        due = [
            (group_id, window)
            for group_id, window, local_window_size, synopses in message.sections
            if self._admit(
                message.sender, group_id, window, synopses, local_window_size,
                now,
            )
        ]
        if due:
            self._identify(due, now, batched=True)

    def _on_candidate_batch(
        self, message: CandidateBatchMessage, now: float
    ) -> None:
        """Split each section's values into runs at the requested slices'
        counts, check every run, and calculate every window the frame
        completes from one stacked value array."""
        now = self.work(receive_ops(message.payload_bytes), now)
        done: dict[tuple[int, Window], _WindowState] = {}
        try:
            for group_id, window, indices, values in message.sections:
                key = (group_id, window)
                # A window this frame completed is answered, as far as a
                # later section for it can tell.
                state = self._fetching(key, answered=key in done)
                if state is None:
                    continue
                at = 0
                for slice_index in indices:
                    requested = state.missing.get((message.sender, slice_index))
                    end = at + (0 if requested is None else requested[0])
                    if not self._take_run(
                        state, key, message.sender, slice_index, values[at:end]
                    ):
                        break  # the rest of the section cannot be split
                    at = end
                else:
                    if at != len(values):
                        raise IdentificationError(
                            f"candidate section for group {group_id}, window "
                            f"{window} holds {len(values)} values, its "
                            f"slices {at}"
                        )
                if not state.missing:
                    done[key] = state
        finally:
            # On a fault too: the windows completed before it are answered
            # first, as they are when each is calculated on completion.
            if done:
                self._calculate(list(done.items()), now)

    def _admit(
        self, sender: int, group_id: int, window: Window, synopses,
        local_window_size: int, now: float,
    ) -> bool:
        """Record one local's synopses of ``window``; whether the window is
        now complete and due for identification."""
        key = (group_id, window)
        if self._reliability is not None and key in self._finalized:
            # The window is already answered; this synopsis is a local
            # resend, so the release we sent it must have been lost — or
            # is still waiting for an earlier window (see _release).
            if window.end < self._release_cap(group_id):
                self.send(
                    WindowReleaseMessage(
                        sender=self.node_id, window=window, group_id=group_id,
                    ),
                    sender,
                    now,
                )
            else:
                self._unreleased.add(key)
            return False
        state = self._states.get(key)
        fresh = state is None
        if fresh:
            state = self._states[key] = _WindowState()
        if sender in state.synopses:
            if self._reliability is not None:
                return False  # retransmission of a batch that did arrive
            raise IdentificationError(
                f"duplicate synopsis batch from node {sender} for "
                f"group {group_id}, window {window}"
            )
        state.synopses[sender] = synopses
        state.sizes[sender] = local_window_size
        if fresh and self._tracer.enabled:
            # The window span covers the full end-to-end latency interval,
            # so it starts at the window's event-time end, not at arrival.
            state.window_span = self._tracer.begin(
                "window",
                self.node_id,
                window.end / MS_PER_SECOND,
                window=window,
            )
        if fresh and self._reliability is not None:
            self._arm_timer(key, now)
        return state.plan is None and self._synopses_complete(window, state)

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

    def _stalled_locals(self, window: Window, state: _WindowState) -> set[int]:
        """Expected locals the current phase is still blocked on."""
        expected = set(self._expected_locals(window, state))
        if state.plan is None:
            return expected - set(state.synopses)
        stalled = set()
        for local_id, indices in state.plan.requests.items():
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
        for key in sorted(self._states):
            state = self._states.get(key)
            if state is not None:
                self._give_up_on(key, state, {node_id}, now)
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
        Per group, finalized windows past that cursor whose releases it
        evidently missed are re-acknowledged with one cumulative release —
        capped below the group's earliest still-open window, because a
        release frees everything of its group at or below its end.
        Returns whether one was sent.
        """
        if self._reliability is None:
            return False
        sent = False
        for group_id in self._gammas:
            cap = self._release_cap(group_id)
            safe = [
                w.end
                for g, w in self._finalized
                if g == group_id and resume_from < w.end < cap
            ]
            if not safe:
                continue
            end = max(safe)
            self.send(
                WindowReleaseMessage(
                    sender=self.node_id,
                    window=Window(end - 1, end),
                    group_id=group_id,
                ),
                local_id,
                now,
            )
            sent = True
        return sent

    def inherit_finalized(self, windows) -> int:
        """Shard failover: adopt a dead predecessor's answered windows.

        The successor must never answer a window its predecessor already
        answered — locals replay *every* retained window on failover, and
        a duplicate answer would double-count the window in the shard's
        completion arithmetic.  Marking the predecessor's windows
        finalized makes replayed synopses for them get a fresh release
        (the convergent answered-window path) instead of opening phantom
        state.  A live root serves one query, so the windows are group
        0's.  Returns how many windows were newly inherited.
        """
        inherited = 0
        for window in windows:
            if (0, window) not in self._finalized:
                self._finalized.add((0, window))
                inherited += 1
        return inherited

    def _give_up_on(
        self,
        key: tuple[int, Window],
        state: _WindowState,
        gone: set[int],
        now: float,
    ) -> None:
        """Progress one window without ``gone``: re-plan or answer degraded.

        Drops the departed locals' synopses (an identification over the
        survivors must not request candidates from a node that cannot
        answer) and, if the current candidate plan depended on them,
        rebuilds it from scratch over the surviving synopses.
        """
        window = key[1]
        for node_id in gone:
            state.synopses.pop(node_id, None)
            state.sizes.pop(node_id, None)
        if not self._expected_locals(window, state):
            self._abort(key, state, now)
            return
        if state.plan is not None:
            if not (set(state.participants or ()) & gone):
                # The plan never involved them; we may only have been
                # waiting for their (never-requested) data — check if the
                # surviving runs already complete the window.
                if not state.missing:
                    self._calculate([(key, state)], now)
                return
            state.plan = None
            state.participants = None
            state.runs.clear()
        if self._synopses_complete(window, state):
            self._identify([key], now)

    def _arm_timer(self, key: tuple[int, Window], now: float) -> None:
        assert self._reliability is not None
        self.call_later(
            self._reliability.timeout_s,
            lambda t, k=key: self._check_window(k, t),
            now,
        )

    def _check_window(self, key: tuple[int, Window], now: float) -> None:
        """Reliability timer: retransmit whatever is still missing."""
        state = self._states.get(key)
        if state is None:
            return  # window completed meanwhile
        assert self._reliability is not None
        group_id, window = key
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
                    self._give_up_on(key, state, stalled, now)
                    if key in self._states:
                        self._arm_timer(key, now)
                    return
            self._abort(key, state, now)
            return
        state.retries += 1
        if state.plan is None:
            missing = set(
                self._expected_locals(window, state)
            ) - set(state.synopses)
            for local_id in sorted(missing):
                request = SynopsisRequestMessage(
                    sender=self.node_id, window=window, group_id=group_id
                )
                self.send(request, local_id, now)
        else:
            received = set(state.runs)
            for local_id, indices in state.plan.requests.items():
                outstanding = tuple(
                    index
                    for index in indices
                    if (local_id, index) not in received
                )
                if outstanding:
                    request = CandidateRequestMessage(
                        sender=self.node_id,
                        window=window,
                        group_id=group_id,
                        slice_indices=outstanding,
                    )
                    self.send(request, local_id, now)
        self._arm_timer(key, now)

    def _abort(
        self, key: tuple[int, Window], state: _WindowState, now: float
    ) -> None:
        """Abandon a window that exhausted its retries: release and move on."""
        window = key[1]
        self._states.pop(key, None)
        self._aborted_windows += 1
        self._finalized.add(key)
        if self._tracer.enabled:
            # Close out whichever phase the window died in, so aborted
            # windows still partition their (truncated) lifetime.
            if state.plan is None:
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
            self._release(key, now)

    def _release_cap(self, group_id: int) -> float:
        """End of the group's earliest window still open here (infinite
        if none): a release at or past it could free that window."""
        return min(
            (w.end for g, w in self._states if g == group_id),
            default=math.inf,
        )

    def _release(self, key: tuple[int, Window], now: float) -> None:
        """Tell every local node to free its retained state for ``key``.

        A single-root local frees cumulatively (every window of the group
        up to the released one), and a group's windows need not finish in
        end order.  So a release waits while an earlier window of its group
        is still open here, and goes out once none is — still one release
        per window, for the locals that free only the exact window.
        """
        self._unreleased.add(key)
        cap = self._release_cap(key[0])
        for group_id, window in sorted(
            k for k in self._unreleased if k[0] == key[0] and k[1].end < cap
        ):
            self._unreleased.discard((group_id, window))
            for local_id in self._eligible_locals(window):
                self.send(
                    WindowReleaseMessage(
                        sender=self.node_id, window=window, group_id=group_id
                    ),
                    local_id,
                    now,
                )

    def _identify(
        self, keys: Sequence[tuple[int, Window]], now: float, *,
        batched: bool = False,
    ) -> None:
        """Cut every window of ``keys``, each complete, in one sweep.

        A window with nothing to cut, or nobody to cut for, is answered
        empty.  Every *expected* local gets a request per window — an
        empty index tuple for non-candidates — which doubles as the
        acknowledgement that stops its synopsis resend timer; ``batched``,
        one :class:`CandidateRequestBatchMessage` per local carries all
        of them.  Dead locals get nothing.
        """
        tracing = self._tracer.enabled
        #: Per window, its expected locals and, if it is cut, its frame
        #: entry: the participants' synopses, their sizes and the quantiles.
        windows = []
        frame = []
        for key in keys:
            group_id, window = key
            state = self._states[key]
            qs = state.quantiles = tuple(self._quantiles[group_id](window))
            state.gamma_used = self._gammas[group_id]
            # Plan over the locals this window still expects; a straggler's
            # synopsis that arrived after its node was given up on must not
            # drag an unanswerable candidate request into the plan.
            expected = self._expected_locals(window, state)
            synopses = {
                i: state.synopses[i] for i in expected if i in state.synopses
            }
            sizes = {i: state.sizes[i] for i in expected if i in state.sizes}
            state.participants = tuple(sorted(synopses))
            total = sum(sizes.values())
            cut = total != 0 and bool(qs)
            windows.append((key, state, expected, total, cut))
            if cut:
                frame.append((synopses, sizes, qs))
        plans = iter(identify_frame(frame) if frame else ())
        #: Per local, its ``(group_id, window, indices)`` requests, and the
        #: time the last of them was ready.
        requests: dict[int, list] = {}
        ready: dict[int, float] = {}
        for key, state, expected, total, cut in windows:
            group_id, window = key
            if tracing:
                # synopsis_wait runs from the window's event-time end until
                # the last synopsis has been received and deserialized; the
                # phases recorded below are deliberately contiguous so that,
                # per window, their durations sum to the end-to-end latency.
                self._tracer.record(
                    "synopsis_wait",
                    self.node_id,
                    window.end / MS_PER_SECOND,
                    now,
                    window=window,
                    parent=state.window_span,
                    synopses=sum(len(b) for b in state.synopses.values()),
                )
            if not cut:
                self._answer_empty(key, state, expected, total, now)
                if self._reliability is None:
                    # Released from this exact window by an empty request.
                    for local_id in expected:
                        requests.setdefault(local_id, []).append(
                            (group_id, window, ())
                        )
                        ready[local_id] = max(ready.get(local_id, now), now)
                continue
            plan = state.plan = next(plans)
            # One synopsis sort and sweep per quantile; ``· 1`` is exact for
            # a single query.
            n_synopses = sum(
                len(state.synopses[i]) for i in state.participants
            )
            ops = _IDENTIFY_OPS_PER_SYNOPSIS * n_synopses * max(
                1.0, math.log2(max(n_synopses, 2))
            ) * len(state.quantiles)
            finish = self.work(ops, now)
            state.missing = dict(plan.candidates)
            state.run_keys = tuple(plan.candidates)
            self._cuts.append(key)
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
                    rank=plan.ranks[0],
                )
                state.fetch_started = finish
            for local_id in expected:
                requests.setdefault(local_id, []).append(
                    (group_id, window, plan.requests.get(local_id, ()))
                )
                ready[local_id] = max(ready.get(local_id, finish), finish)
        for local_id, sections in requests.items():
            if batched:
                self.send(
                    CandidateRequestBatchMessage(
                        sender=self.node_id,
                        window=covering_window(sections),
                        sections=tuple(sections),
                    ),
                    local_id,
                    ready[local_id],
                )
                continue
            for group_id, window, indices in sections:
                request = CandidateRequestMessage(
                    sender=self.node_id,
                    window=window,
                    group_id=group_id,
                    slice_indices=indices,
                )
                self.send(request, local_id, ready[local_id])

    def _answer_empty(
        self, key: tuple[int, Window], state: _WindowState,
        expected: tuple[int, ...], total: int, now: float,
    ) -> None:
        """Answer a window with nothing to cut, or nobody to cut for."""
        group_id, window = key
        qs = state.quantiles
        self._states.pop(key)
        self._finalized.add(key)
        if self._reliability is not None:
            self._release(key, now)
        if self._tracer.enabled:
            self._tracer.end(state.window_span, now, empty=1)
        eligible = max(len(self._eligible_locals(window)), 1)
        self._outcomes.append(
            WindowOutcome(
                window=window,
                value=None,
                global_window_size=total,
                result_time=now,
                candidate_events=0,
                candidate_slices=0,
                synopses_received=0,
                gamma_used=state.gamma_used,
                completeness=len(state.participants) / eligible,
                group_id=group_id,
                values=(None,) * len(qs),
                quantiles=qs,
                ranks=(0,) * len(qs),
            )
        )

    def _fetching(
        self, key: tuple[int, Window], *, answered: bool = False
    ) -> "_WindowState | None":
        """The state of a window waiting for candidate runs; ``None`` for a
        stale run under reliability.  ``answered``: the window is as good
        as answered already."""
        state = None if answered else self._states.get(key)
        if state is None or state.plan is None:
            if self._reliability is not None:
                return None  # stale run for a window already answered or aborted
            raise IdentificationError(
                f"unexpected candidate events for group {key[0]}, "
                f"window {key[1]}"
            )
        return state

    def _take_run(
        self, state: _WindowState, key: tuple[int, Window], sender: int,
        slice_index: int, run,
    ) -> bool:
        """Check ``run`` against the synopsis that requested it and keep
        it; whether it was taken (reliability drops a repeated or an
        unrequested run, which is otherwise an error)."""
        run_key = (sender, slice_index)
        if run_key in state.runs:
            if self._reliability is not None:
                return False  # retransmission of a run that did arrive
            raise IdentificationError(
                f"duplicate candidate run {run_key} for window {key[1]}"
            )
        requested = state.missing.pop(run_key, None)
        if requested is None:
            if self._reliability is not None:
                # A run the *current* plan never asked for — typically a
                # reply to a request from a plan since rebuilt without its
                # sender.  Mixing it in would corrupt the rank arithmetic.
                return False
            raise IdentificationError(
                f"candidate run {run_key} was never requested for window "
                f"{key[1]}"
            )
        check_run(run, run_key, *requested)
        state.runs[run_key] = run
        return True

    def _calculate(
        self,
        done: Sequence[tuple[tuple[int, Window], _WindowState]],
        now: float,
    ) -> None:
        """Answer every window of ``done``, each with all its runs: their
        quantiles are selected from one stacked value array, each window's
        runs in ``(node_id, slice_index)`` order.  A window whose runs
        fail the select raises once the windows before it are answered."""
        values = select_frame([
            ([state.runs[k] for k in state.run_keys], state.plan.picks)
            for _, state in done
        ])
        for (key, state), window_values in zip(done, values):
            self._answer(key, state, window_values, now)

    def _answer(
        self, key: tuple[int, Window], state: _WindowState,
        values: tuple[float, ...], now: float,
    ) -> None:
        group_id, window = key
        plan = state.plan
        assert plan is not None
        n = plan.candidate_events
        finish = self.work(merge_cost(n, max(len(state.runs), 1)), now)
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
                value=values[0],
            )
            self._tracer.end(
                state.window_span,
                finish,
                global_window_size=plan.global_window_size,
                candidate_events=n,
                gamma=state.gamma_used,
            )
        self._states.pop(key)
        self._finalized.add(key)
        if self._reliability is not None:
            self._release(key, finish)
        eligible = self._eligible_locals(window)
        participants = (
            state.participants
            if state.participants is not None
            else eligible
        )
        candidate_slices = len(state.run_keys)
        self._outcomes.append(
            WindowOutcome(
                window=window,
                value=values[0],
                global_window_size=plan.global_window_size,
                result_time=finish,
                candidate_events=n,
                candidate_slices=candidate_slices,
                synopses_received=sum(
                    len(batch) for batch in state.synopses.values()
                ),
                gamma_used=state.gamma_used,
                completeness=len(participants) / max(len(eligible), 1),
                group_id=group_id,
                values=values,
                quantiles=state.quantiles,
                ranks=plan.ranks,
            )
        )
        if self._controller is not None:
            new_gamma = self._controller.observe(
                plan.global_window_size, candidate_slices
            )
            if new_gamma != self._gammas[0]:
                self._gammas[0] = new_gamma
                for local_id in self._local_ids:
                    update = GammaUpdateMessage(
                        sender=self.node_id,
                        window=window,
                        gamma=new_gamma,
                    )
                    self.send(update, local_id, finish)
