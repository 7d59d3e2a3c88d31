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
distinct window.  The plane hosts one
:class:`~repro.core.root_node.DemaRootNode` (reliability off), the
operator that answers the configured query, with one of its groups per
query group: it collects each local's synopses of the window, cuts it
for the distinct quantiles of every member whose window grid contains the
window, fetches the union of the candidate slices once and calculates.
The plane fans the per-query results out to the owning clients.

One cut per watermark: a local ships every window one watermark sealed,
across groups, in one synopsis batch, and each window a batch completes
is cut — one candidate request and one candidate frame per local for
all of them.  Every cut (group, window) records exactly one
``query_identification`` span — the invariant the scenario runner
asserts.

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
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.root_node import DemaRootNode, WindowOutcome
from repro.errors import QueryError
from repro.network.messages import (
    CandidateBatchMessage,
    Message,
    QueryAckMessage,
    QueryDeregisterMessage,
    QueryRegisterMessage,
    QueryResultMessage,
    ResultAckMessage,
    SynopsisBatchMessage,
)
from repro.network.simulator import Outbox
from repro.obs.tracer import NOOP_TRACER, Tracer
from repro.queries.registry import QueryGroup, QueryRecord, QueryRegistry
from repro.queries.spec import CONTROL_WINDOW, QuerySpec, on_grid
from repro.streaming.windows import Window

# Hot-path module: a local's synopses and candidate runs reach the hosted
# root as the batches the decoder built; no row is built here
# (tests/test_hotpath_lint.py).

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
        #: Cuts and calculates every group's windows; a window's synopses,
        #: plan and candidate runs live here until it is answered.
        self.node = DemaRootNode(ROOT_SENDER, local_ids=self.local_ids, query=None)
        self._outbox = Outbox()
        self.node.attach(self._outbox)
        #: The node's outcomes served so far.
        self._answered = 0
        self._clients: set[int] = set()
        self._logs: dict[int, _ClientLog] = {}
        #: Per-query results shipped to clients.
        self.results_served = 0
        #: Results replayed to reconnecting clients (durable mode).
        self.results_replayed = 0

    @property
    def identification_cuts(self) -> int:
        """Windows cut: one per (group, window), however many share a
        sweep."""
        return self.node.identifications

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
        if group.query_ids == [record.query_id]:  # the group is new
            self.node.open_group(
                group.group_id,
                spec.gamma,
                lambda window, group=group: self._quantiles(group, window),
            )
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
            self.node.close_group(group.group_id)
        elif not shape.query_ids:
            name = shape.shape_id
            self.node.drop_windows(group.group_id, group.wants)
        else:
            return []
        drop = QueryDeregisterMessage(
            sender=ROOT_SENDER,
            window=CONTROL_WINDOW,
            group_id=group.group_id,
            query_id=name,
        )
        return [(local_id, drop) for local_id in self.local_ids]

    # -- local side -----------------------------------------------------

    def on_local_message(self, message: Message) -> Outgoing:
        """Handle a query-plane message from a local node.

        Sections for a group or window shape torn down while they were in
        flight are dropped here: the hosted root would take them for a
        protocol error.
        """
        if isinstance(message, QueryAckMessage):
            return self._on_proposal(message)
        calculating = isinstance(message, CandidateBatchMessage)
        if calculating:
            holds = self.node.holds
            kept = tuple(s for s in message.sections if holds(s[0], s[1]))
        elif isinstance(message, SynopsisBatchMessage):
            kept = tuple(s for s in message.sections if self._wants(s[0], s[1]))
        else:
            return []
        if not kept:
            return []
        if len(kept) != len(message.sections):
            message = replace(message, sections=kept)
        cuts = self.node.identifications
        start = self.clock()
        self.node.on_message(message, start)
        out: Outgoing = self._outbox.drain()
        cut = self.node.cuts_since(cuts)  # only a synopsis batch cuts
        for group_id, window in cut:
            group = self.registry.group(group_id)
            self._record_cut("query_identification", group, window, start)
        if cut and self.tracer.enabled:
            self.tracer.registry.counter(
                "query_identifications_total",
                "Shared identification cuts run by the query plane.",
            ).inc(len(cut))
        for outcome in self.node.outcomes_since(self._answered):
            self._answered += 1
            group = self.registry.group(outcome.group_id)
            out.extend(self._serve(group, outcome))
            if calculating:
                self._record_cut("query_calculation", group, outcome.window, start)
        return out

    def _wants(self, group_id: int, window: Window) -> bool:
        """Whether a registered group still wants ``window`` cut."""
        group = self.registry.group(group_id)
        return group is not None and group.wants(window)

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
        self.node.drop_windows(group.group_id, group.wants)
        self._set_gauges()
        return out

    def _riders(self, group: QueryGroup, window: Window) -> list[QueryRecord]:
        """The queries ``window`` is answered for: on their shape's grid,
        from their horizon on, in registration order."""
        return [
            record
            for record in self.registry.queries_of(group.group_id)
            if record.horizon_start is not None
            and record.horizon_start <= window.start
            and on_grid(record.spec.window_shape, window)
        ]

    def _quantiles(self, group: QueryGroup, window: Window) -> list[float]:
        """The quantiles the hosted root cuts ``window`` for: its riders'.
        Asked once per window, at identification."""
        for shape in group.shapes.values():
            if shape.active and on_grid(shape.shape, window):
                # The horizon for queries joining the shape after this point.
                shape.next_cut_start = max(
                    shape.next_cut_start, window.start + shape.step_ms
                )
        return sorted({record.spec.q for record in self._riders(group, window)})

    def _serve(self, group: QueryGroup, outcome: WindowOutcome) -> Outgoing:
        """One result per rider of an answered window; an empty window
        answers each with the canonical empty result (value 0.0, rank 0)."""
        answers = dict(
            zip(outcome.quantiles, zip(outcome.values, outcome.ranks))
        )
        out: Outgoing = []
        for record in self._riders(group, outcome.window):
            value, rank = answers[record.spec.q]
            message = QueryResultMessage(
                sender=ROOT_SENDER,
                window=outcome.window,
                group_id=group.group_id,
                query_id=record.query_id,
                value=0.0 if value is None else value,
                global_window_size=outcome.global_window_size,
                rank=rank,
            )
            record.results_served += 1
            self.results_served += 1
            if self.durable:
                # Results reach durable clients only through the log: the
                # hosting server's per-connection writer drains it in
                # order, which is what makes the resume cursor arithmetic
                # exact (no live send can jump the replay queue).
                self._logs.setdefault(record.client_id, _ClientLog()).append(
                    message
                )
            out.append((record.client_id, message))
            if self.tracer.enabled:
                self.tracer.registry.counter(
                    "query_results_served",
                    "Per-query results shipped to driver clients.",
                ).inc()
                now = self.clock()
                self.tracer.record(
                    "query_result",
                    ROOT_SENDER,
                    now,
                    now,
                    window=outcome.window,
                    group=group.group_id,
                    query=record.query_id,
                    q=record.spec.q,
                )
        return out

    # -- telemetry ------------------------------------------------------

    def _record_cut(
        self, name: str, group: QueryGroup, window: Window, start: float
    ) -> None:
        """A shared-cut span from ``start`` to now, naming every rider."""
        if self.tracer.enabled:
            riders = self._riders(group, window)
            self.tracer.record(
                name,
                ROOT_SENDER,
                start,
                self.clock(),
                window=window,
                group=group.group_id,
                queries=len(riders),
                query_ids=",".join(str(r.query_id) for r in riders),
            )

    def _set_gauges(self) -> None:
        if self.tracer.enabled:
            self.tracer.registry.gauge(
                "active_queries",
                "Registered queries whose group has activated.",
            ).set(self.registry.active_queries)
