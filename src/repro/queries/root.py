"""The root node's half of the live multi-query plane.

A :class:`RootQueryPlane` rides inside a running
:class:`~repro.runtime.servers.RootServer`: driver connections hand it
register/deregister requests, and every local-plane message with a
non-zero ``group_id`` is forwarded here.  The plane is a pure
message-in/messages-out state machine — the server owns the sockets and
ships whatever the plane returns — which keeps it directly unit-testable
without a transport.

Execution is *shared-cut*: all queries of a group (same selector and
γ, any window shape) are answered from **one** identification pass per
distinct window.  The plane collects one synopsis batch per local, runs
:func:`~repro.core.identification.identify_multi` over the distinct
quantiles of every member whose window grid contains the window, fetches
the union of the candidate slices once, and fans the per-query results
out to the owning clients.  Every identification opens exactly one
``query_identification`` span per (group, window) — the invariant the
scenario runner asserts.

Shape activation: a window shape new to its group triggers a negotiation
round — the root broadcasts the registration (named by the shape's id in
``query_id``) to every local, each local proposes the earliest window
start it can guarantee, and the root activates the shape at the **max**
proposal, which every local can honour.  A local proposes a start above
everything it has ingested *and* above its watermark, so no window from
the agreed start on can have been sealed, or released, before the local
learnt of the shape.  Queries joining an already-active shape start one
step past the shape's latest identified window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.core.calculation import calculate_quantile
from repro.core.identification import identify_multi
from repro.core.synopsis import SynopsisColumns
from repro.core.window_cut import CutResult
from repro.errors import QueryError
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    Message,
    QueryAckMessage,
    QueryDeregisterMessage,
    QueryRegisterMessage,
    QueryResultMessage,
    ResultAckMessage,
    SynopsisMessage,
)
from repro.obs.tracer import NOOP_TRACER, Tracer
from repro.queries.registry import QueryGroup, QueryRecord, QueryRegistry
from repro.queries.spec import CONTROL_WINDOW, QuerySpec, on_grid
from repro.streaming.events import Event
from repro.streaming.windows import Window

__all__ = ["RootQueryPlane"]

#: The root's node id on the wire (sender of every plane message).
ROOT_SENDER = 0

#: ``(destination node id, message)`` pairs for the hosting server to ship.
Outgoing = list[tuple[int, Message]]


@dataclass(slots=True)
class _ClientLog:
    """Durable per-client result log: retained to the acked horizon.

    Entry ``i`` (absolute index ``base + position``) is the client's
    ``i``-th result in serve order.  A reconnecting driver says how many
    results it has received (its ``resume_from`` cursor); everything at
    or past that cursor is replayed, and a
    :class:`~repro.network.messages.ResultAckMessage` prunes entries
    below the acked cursor — exactly-once delivery by cursor
    arithmetic, with the ack as the retention horizon.
    """

    base: int = 0
    entries: list[QueryResultMessage] = field(default_factory=list)

    @property
    def end(self) -> int:
        """Absolute index one past the last logged result."""
        return self.base + len(self.entries)

    def append(self, message: QueryResultMessage) -> None:
        self.entries.append(message)

    def tail_from(self, cursor: int) -> "list[QueryResultMessage]":
        """Entries at or past ``cursor`` (clamped to what is retained)."""
        return list(self.entries[max(0, cursor - self.base):])

    def prune_below(self, cursor: int) -> int:
        """Drop entries below ``cursor``; returns how many were dropped."""
        drop = min(max(0, cursor - self.base), len(self.entries))
        if drop:
            del self.entries[:drop]
            self.base += drop
        return drop


@dataclass(slots=True)
class _CutState:
    """In-flight state for one (group, window) shared cut."""

    synopses: dict[int, SynopsisColumns] = field(default_factory=dict)
    sizes: dict[int, int] = field(default_factory=dict)
    #: Query ids snapshotted at identification time; results go to these.
    snapshot: tuple[int, ...] = ()
    cuts: Mapping[float, CutResult] = field(default_factory=dict)
    total: int = 0
    expected_runs: int = 0
    #: Candidate runs as decoded — columnar on the live path, so the shared
    #: cut takes calculation's rank select.
    runs: dict[tuple[int, int], Sequence[Event]] = field(
        default_factory=dict
    )


class RootQueryPlane:
    """Registry, activation protocol and shared-cut execution at the root."""

    def __init__(
        self,
        local_ids: tuple[int, ...],
        *,
        tracer: Tracer = NOOP_TRACER,
        clock: Callable[[], float] = time.monotonic,
        durable: bool = False,
    ) -> None:
        if not local_ids:
            raise QueryError("the query plane needs at least one local node")
        self.local_ids = tuple(sorted(local_ids))
        self.tracer = tracer
        self.clock = clock
        #: Durable mode: a disconnect *retains* the client's
        #: registrations and per-client result log, so a reconnecting
        #: driver resumes from its acked cursor instead of starting
        #: over.  Off (the default), a disconnect deregisters
        #: everything the client owned — the original semantics.
        self.durable = durable
        self.registry = QueryRegistry()
        self._cuts: dict[tuple[int, Window], _CutState] = {}
        self._clients: set[int] = set()
        self._logs: dict[int, _ClientLog] = {}
        #: Identification passes run (one per completed (group, window)).
        self.identification_cuts = 0
        #: Per-query results shipped to clients.
        self.results_served = 0
        #: Results replayed to reconnecting clients (durable mode).
        self.results_replayed = 0

    # -- client side ----------------------------------------------------

    def on_client_connect(self, client_id: int) -> None:
        """A driver connection said hello."""
        self._clients.add(client_id)

    def on_client_resume(self, client_id: int, resume_from: int) -> int:
        """A driver (re)connected with a result cursor; marks it live.

        Returns the absolute log cursor the connection's result stream
        must start from: the client's own cursor when it presented one
        (``resume_from >= 0`` — everything at or past it gets
        replayed), else the log end (a fresh connection sees only
        results produced after it arrived).  Non-durable planes always
        start at the end; there is no retained log to replay.
        """
        self.on_client_connect(client_id)
        if not self.durable:
            return 0
        log = self._logs.setdefault(client_id, _ClientLog())
        if resume_from < 0:
            return log.end
        cursor = min(resume_from, log.end)
        replay = log.end - cursor
        if replay:
            self.results_replayed += replay
            if self.tracer.enabled:
                self.tracer.registry.counter(
                    "query_results_replayed_total",
                    "Results replayed to reconnecting driver clients.",
                ).inc(replay)
        return cursor

    def log_from(
        self, client_id: int, cursor: int
    ) -> "list[QueryResultMessage]":
        """Retained results for ``client_id`` at or past ``cursor``."""
        log = self._logs.get(client_id)
        if log is None:
            return []
        return log.tail_from(cursor)

    def on_result_ack(self, client_id: int, cursor: int) -> None:
        """The client has durably received everything below ``cursor``."""
        log = self._logs.get(client_id)
        if log is not None:
            log.prune_below(cursor)

    def on_client_gone(self, client_id: int) -> Outgoing:
        """A driver connection closed.

        Durable planes only mark the client disconnected — its
        registrations keep producing results into the retained log, and
        a reconnect replays from the acked cursor.  Otherwise the
        disconnect deregisters everything the client owned.
        """
        self._clients.discard(client_id)
        if self.durable:
            return []
        out: Outgoing = []
        for record in self.registry.queries_of_client(client_id):
            out.extend(self._withdraw(record))
        self._set_gauges()
        return out

    def on_client_message(self, client_id: int, message: Message) -> Outgoing:
        """Handle a register/deregister/ack request from a driver."""
        if isinstance(message, QueryRegisterMessage):
            return self._on_register(client_id, message)
        if isinstance(message, QueryDeregisterMessage):
            return self._on_deregister(client_id, message)
        if isinstance(message, ResultAckMessage):
            self.on_result_ack(client_id, message.cursor)
        return []

    def _nack(self, client_id: int, query_id: int, reason: str) -> Outgoing:
        return [
            (
                client_id,
                QueryAckMessage(
                    sender=ROOT_SENDER,
                    window=CONTROL_WINDOW,
                    query_id=query_id,
                    accepted=False,
                    reason=reason,
                ),
            )
        ]

    def _ack(self, record: QueryRecord) -> tuple[int, Message]:
        start = record.horizon_start
        assert start is not None
        return (
            record.client_id,
            QueryAckMessage(
                sender=ROOT_SENDER,
                window=Window(start, start + record.spec.length_ms),
                group_id=record.group_id,
                query_id=record.query_id,
                accepted=True,
            ),
        )

    def _on_register(
        self, client_id: int, message: QueryRegisterMessage
    ) -> Outgoing:
        try:
            spec = QuerySpec(
                q=message.q,
                selector=message.selector,
                kind=message.kind,
                length_ms=message.length_ms,
                step_ms=message.step_ms,
                gamma=message.gamma,
                freshness_ms=message.freshness_ms,
            )
        except QueryError as exc:
            return self._nack(client_id, message.query_id, str(exc))
        if spec.kind == "session":
            return self._nack(
                client_id,
                message.query_id,
                "session windows are not supported by the live plane: "
                "session boundaries are a property of the merged stream, "
                "which per-local pane stores cannot decide",
            )
        existing = self.registry.get(message.query_id)
        if (
            existing is not None
            and existing.client_id == client_id
            and existing.spec == spec
        ):
            # Idempotent re-registration: a reconnecting driver replays
            # requests it cannot prove were applied.  Same client, same
            # spec — re-ack (or stay silent while its shape is still
            # negotiating; activation will ack) instead of nacking.
            if existing.horizon_start is not None:
                return [self._ack(existing)]
            return []
        try:
            record, group, created = self.registry.register(
                message.query_id, spec, client_id
            )
        except QueryError as exc:
            return self._nack(client_id, message.query_id, str(exc))
        shape = self.registry.shape_of(record)
        out: Outgoing = []
        if created:
            # New window shape: open the start negotiation with every
            # local, naming the shape by its id.  Client acks are deferred
            # until the shape activates.
            propagated = QueryRegisterMessage(
                sender=ROOT_SENDER,
                window=CONTROL_WINDOW,
                group_id=group.group_id,
                query_id=shape.shape_id,
                q=spec.q,
                kind=spec.kind,
                length_ms=spec.length_ms,
                step_ms=spec.step,
                gamma=spec.gamma,
                freshness_ms=spec.freshness_ms,
                selector=spec.selector,
            )
            out.extend((local_id, propagated) for local_id in self.local_ids)
        elif shape.active:
            # Joining an active shape: guaranteed from the next window of
            # its grid the root has not yet identified.
            record.horizon_start = shape.next_cut_start
            out.append(self._ack(record))
        # else: the shape is still negotiating; activation acks this query.
        self._set_gauges()
        return out

    def _on_deregister(
        self, client_id: int, message: QueryDeregisterMessage
    ) -> Outgoing:
        record = self.registry.get(message.query_id)
        if record is None:
            return self._nack(
                client_id,
                message.query_id,
                f"query id {message.query_id} is not registered",
            )
        if record.client_id != client_id:
            return self._nack(
                client_id,
                message.query_id,
                f"query id {message.query_id} is owned by client "
                f"{record.client_id}",
            )
        out: Outgoing = [
            (
                client_id,
                QueryAckMessage(
                    sender=ROOT_SENDER,
                    window=CONTROL_WINDOW,
                    group_id=record.group_id,
                    query_id=message.query_id,
                    accepted=True,
                ),
            )
        ]
        out.extend(self._withdraw(record))
        self._set_gauges()
        return out

    def _withdraw(self, record: QueryRecord) -> Outgoing:
        """Deregister one query; tear down its shape or group if emptied.

        The locals hear ``query_id`` 0 for a whole group and the shape's
        id for one shape; the root drops every in-flight cut no remaining
        shape of the group wants, as each local drops its sealed windows.
        """
        shape = self.registry.shape_of(record)
        _, group, emptied = self.registry.deregister(record.query_id)
        if emptied:
            name = 0
        elif not shape.query_ids:
            name = shape.shape_id
        else:
            return []
        self._drop_unwanted_cuts(group)
        drop = QueryDeregisterMessage(
            sender=ROOT_SENDER,
            window=CONTROL_WINDOW,
            group_id=group.group_id,
            query_id=name,
        )
        return [(local_id, drop) for local_id in self.local_ids]

    def _drop_unwanted_cuts(self, group: QueryGroup) -> None:
        for key in [
            key for key in self._cuts
            if key[0] == group.group_id and not group.wants(key[1])
        ]:
            del self._cuts[key]

    # -- local side -----------------------------------------------------

    def on_local_message(self, message: Message) -> Outgoing:
        """Handle a query-plane message from a local node."""
        if isinstance(message, QueryAckMessage):
            return self._on_proposal(message)
        if isinstance(message, SynopsisMessage):
            return self._on_synopsis(message)
        if isinstance(message, CandidateEventsMessage):
            return self._on_candidates(message)
        return []

    def _on_proposal(self, message: QueryAckMessage) -> Outgoing:
        group = self.registry.group(message.group_id)
        shape = None if group is None else group.shape_by_id(message.query_id)
        if shape is None or shape.active:
            return []
        shape.proposals[message.sender] = message.window.start
        if set(shape.proposals) != set(self.local_ids):
            return []
        # Every local proposed; the max is a start they all can honour.
        start = max(shape.proposals.values())
        shape.start = start
        shape.next_cut_start = start
        activation = QueryAckMessage(
            sender=ROOT_SENDER,
            window=Window(start, start + shape.length_ms),
            group_id=group.group_id,
            query_id=shape.shape_id,
            accepted=True,
        )
        out: Outgoing = [
            (local_id, activation) for local_id in self.local_ids
        ]
        for query_id in shape.query_ids:
            record = self.registry.get(query_id)
            record.horizon_start = start
            out.append(self._ack(record))
        # Windows of the grid below the agreed start were kept only in case
        # the shape wanted them.
        self._drop_unwanted_cuts(group)
        self._set_gauges()
        return out

    def _on_synopsis(self, message: SynopsisMessage) -> Outgoing:
        group = self.registry.group(message.group_id)
        if group is None:
            return []  # deregistered while the synopsis was in flight
        key = (message.group_id, message.window)
        state = self._cuts.get(key)
        if state is None:
            if not group.wants(message.window):
                return []  # its shape left while the synopsis was in flight
            state = self._cuts[key] = _CutState()
        state.synopses[message.sender] = message.synopses
        state.sizes[message.sender] = message.local_window_size
        if set(state.synopses) != set(self.local_ids):
            return []
        return self._identify(group, message.window, state)

    def _identify(
        self, group: QueryGroup, window: Window, state: _CutState
    ) -> Outgoing:
        for shape in group.shapes.values():
            if shape.active and on_grid(shape.shape, window):
                # The horizon for queries joining the shape after this point.
                shape.next_cut_start = max(
                    shape.next_cut_start, window.start + shape.step_ms
                )
        snapshot = tuple(
            record
            for record in self.registry.queries_of(group.group_id)
            if record.horizon_start is not None
            and record.horizon_start <= window.start
            and on_grid(record.spec.window_shape, window)
        )
        total = sum(state.sizes.values())
        key = (group.group_id, window)
        if total == 0 or not snapshot:
            # Nothing to cut (or nobody to serve): release the locals with
            # empty requests and answer whoever is snapshotted with the
            # canonical empty-window result.
            del self._cuts[key]
            out: Outgoing = [
                (
                    local_id,
                    CandidateRequestMessage(
                        sender=ROOT_SENDER,
                        window=window,
                        group_id=group.group_id,
                    ),
                )
                for local_id in self.local_ids
            ]
            if total == 0:
                now = self.clock()
                for record in snapshot:
                    out.append(self._result(record, group, window, 0.0, 0, 0))
                    self._record_result_span(record, group, window, now)
            return out
        qs = sorted({record.spec.q for record in snapshot})
        start_time = self.clock()
        span_id = self.tracer.begin(
            "query_identification",
            ROOT_SENDER,
            start_time,
            window=window,
            group=group.group_id,
            queries=len(snapshot),
            query_ids=",".join(str(r.query_id) for r in snapshot),
        )
        plan = identify_multi(state.synopses, state.sizes, qs)
        self.tracer.end(
            span_id, self.clock(), candidate_events=plan.candidate_events
        )
        self.identification_cuts += 1
        if self.tracer.enabled:
            self.tracer.registry.counter(
                "query_identifications_total",
                "Shared identification cuts run by the query plane.",
            ).inc()
        state.snapshot = tuple(record.query_id for record in snapshot)
        state.cuts = plan.cuts
        state.total = total
        state.expected_runs = sum(
            len(indices) for indices in plan.requests.values()
        )
        # Every local gets a request — an empty one doubles as the release
        # for its pending window state.
        return [
            (
                local_id,
                CandidateRequestMessage(
                    sender=ROOT_SENDER,
                    window=window,
                    group_id=group.group_id,
                    slice_indices=plan.requests.get(local_id, ()),
                ),
            )
            for local_id in self.local_ids
        ]

    def _on_candidates(self, message: CandidateEventsMessage) -> Outgoing:
        state = self._cuts.get((message.group_id, message.window))
        if state is None:
            return []  # group torn down while the fetch was in flight
        state.runs[(message.sender, message.slice_index)] = message.events
        if len(state.runs) < state.expected_runs:
            return []
        group = self.registry.group(message.group_id)
        del self._cuts[(message.group_id, message.window)]
        if group is None:
            return []
        return self._calculate(group, message.window, state)

    def _calculate(
        self, group: QueryGroup, window: Window, state: _CutState
    ) -> Outgoing:
        start_time = self.clock()
        span_id = self.tracer.begin(
            "query_calculation",
            ROOT_SENDER,
            start_time,
            window=window,
            group=group.group_id,
            queries=len(state.snapshot),
            query_ids=",".join(str(qid) for qid in state.snapshot),
        )
        out: Outgoing = []
        for query_id in state.snapshot:
            record = self.registry.get(query_id)
            if record is None:
                continue  # deregistered between identify and calculate
            cut = state.cuts[record.spec.q]
            runs = [
                state.runs[synopsis.slice_id] for synopsis in cut.candidates
            ]
            located = calculate_quantile(cut, runs)
            out.append(
                self._result(
                    record, group, window, located.value, state.total,
                    cut.rank,
                )
            )
            self._record_result_span(record, group, window, self.clock())
        self.tracer.end(span_id, self.clock(), results=len(out))
        return out

    # -- results and telemetry ------------------------------------------

    def _result(
        self,
        record: QueryRecord,
        group: QueryGroup,
        window: Window,
        value: float,
        total: int,
        rank: int,
    ) -> tuple[int, Message]:
        record.results_served += 1
        self.results_served += 1
        if self.tracer.enabled:
            self.tracer.registry.counter(
                "query_results_served",
                "Per-query results shipped to driver clients.",
            ).inc()
        message = QueryResultMessage(
            sender=ROOT_SENDER,
            window=window,
            group_id=group.group_id,
            query_id=record.query_id,
            value=value,
            global_window_size=total,
            rank=rank,
        )
        if self.durable:
            # Results reach durable clients only through the log: the
            # hosting server's per-connection writer drains it in
            # order, which is what makes the resume cursor arithmetic
            # exact (no live send can jump the replay queue).
            self._logs.setdefault(record.client_id, _ClientLog()).append(
                message
            )
        return (record.client_id, message)

    def _record_result_span(
        self,
        record: QueryRecord,
        group: QueryGroup,
        window: Window,
        now: float,
    ) -> None:
        if self.tracer.enabled:
            self.tracer.record(
                "query_result",
                ROOT_SENDER,
                now,
                now,
                window=window,
                group=group.group_id,
                query=record.query_id,
                q=record.spec.q,
            )

    def _set_gauges(self) -> None:
        if self.tracer.enabled:
            self.tracer.registry.gauge(
                "active_queries",
                "Registered queries whose group has activated.",
            ).set(self.registry.active_queries)
