"""Queries of different window shapes over one (selector, γ) key.

A root plane and its local planes wired by hand, without a transport:
every message is delivered at once and in order, except where a test
holds a local's synopsis or candidate frames back to keep windows pending.
Every served result is compared with ``==`` against :func:`oracle_results`.
Pending windows are read from the core nodes the planes host.
"""

from collections import deque

import numpy as np

from repro.network.messages import (
    CandidateBatchMessage,
    CandidateRequestBatchMessage,
    QueryDeregisterMessage,
    QueryRegisterMessage,
    QueryResultMessage,
    SynopsisBatchMessage,
)
from repro.queries.local import LocalQueryPlane
from repro.queries.oracle import oracle_results
from repro.queries.root import RootQueryPlane
from repro.queries.spec import CONTROL_WINDOW, QuerySpec
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window

CLIENT = 9001
HORIZON = 6000
TICK = 100

TUMBLING_500 = QuerySpec(q=0.5, length_ms=500, gamma=8)
SLIDING_500 = QuerySpec(
    q=0.9, kind="sliding", length_ms=500, step_ms=250, gamma=8
)
TUMBLING_600 = QuerySpec(q=0.25, length_ms=600, gamma=8)


def stream(node_id, seed, n=900):
    rng = np.random.default_rng(seed)
    return EventColumns.from_arrays(
        rng.normal(50.0, 20.0, size=n).round(1),
        np.sort(rng.integers(0, HORIZON, size=n)),
        node_id,
    )


def register_message(query_id, spec):
    return QueryRegisterMessage(
        sender=CLIENT, window=CONTROL_WINDOW, query_id=query_id, q=spec.q,
        kind=spec.kind, length_ms=spec.length_ms, step_ms=spec.step,
        gamma=spec.gamma, freshness_ms=spec.freshness_ms,
        selector=spec.selector,
    )


class Wired:
    """One root, two locals and one client, pumped synchronously."""

    def __init__(self):
        self.streams = {1: stream(1, 11), 2: stream(2, 12)}
        self.root = RootQueryPlane(tuple(self.streams))
        self.root.on_client_connect(CLIENT)
        self.locals = {i: LocalQueryPlane(i) for i in self.streams}
        self.results = {}
        self.horizons = {}
        self.now = 0
        #: Messages a test keeps from the root for a while: those of type
        #: ``hold_type`` sent by local ``hold_from``.
        self.held = []
        self.hold_from = None
        self.hold_type = SynopsisBatchMessage

    def pump(self, outgoing):
        queue = deque(outgoing)
        while queue:
            destination, message = queue.popleft()
            if destination == CLIENT:
                if isinstance(message, QueryResultMessage):
                    self.results.setdefault(message.query_id, []).append(
                        message
                    )
                elif message.accepted and message.window != CONTROL_WINDOW:
                    self.horizons[message.query_id] = message.window.start
                continue
            for reply in self.locals[destination].on_root_message(message):
                queue.extend(self.to_root(reply))

    def to_root(self, message):
        if (
            isinstance(message, self.hold_type)
            and message.sender == self.hold_from
        ):
            self.held.append(message)
            return []
        return self.root.on_local_message(message)

    def register(self, query_id, spec):
        self.results.pop(query_id, None)
        out = self.root.on_client_message(
            CLIENT, register_message(query_id, spec)
        )
        self.pump(out)
        return out

    def deregister(self, query_id):
        self.pump(self.root.on_client_message(
            CLIENT,
            QueryDeregisterMessage(
                sender=CLIENT, window=CONTROL_WINDOW, query_id=query_id
            ),
        ))

    def run_to(self, until):
        """Ingest every event below ``until``, one tick at a time."""
        while self.now < until:
            tick = self.now + TICK
            for local_id, events in self.streams.items():
                lo, hi = np.searchsorted(events.timestamps, [self.now, tick])
                plane = self.locals[local_id]
                plane.ingest(events[int(lo):int(hi)])
                for message in plane.on_watermark(tick):
                    self.pump(self.to_root(message))
            self.now = tick

    def release_held(self):
        held, self.held, self.hold_from = self.held, [], None
        for message in held:
            self.pump(self.root.on_local_message(message))

    def events(self):
        return [e for share in self.streams.values() for e in share]

    def assert_exact(self, query_id, spec):
        """Every window from the horizon on, once, equal to the oracle."""
        horizon = self.horizons[query_id]
        served = self.results.get(query_id, [])
        got = {
            m.window: (
                m.value if m.global_window_size else None,
                m.global_window_size,
                m.rank,
            )
            for m in served
        }
        assert len(got) == len(served)  # no window served twice
        expected = oracle_results(
            self.events(), spec, start_from=horizon, horizon_end=HORIZON
        )
        assert got == expected
        return served

    def pending(self, local_id):
        """Windows of any shape's grid local ``local_id`` still retains."""
        plane = self.locals[local_id]
        (group_id,) = plane.groups
        return {w for w in GRID if plane.node.holds(group_id, w)}

    def in_flight(self):
        """Windows of any shape's grid the root has yet to answer."""
        (group,) = self.root.registry.groups()
        return {w for w in GRID if self.root.node.holds(group.group_id, w)}

    def local_shapes(self, local_id):
        (group,) = self.locals[local_id]._groups.values()
        return sorted(cursor.shape for cursor in group.cursors.values())


def windows_of(spec, start_from, end=HORIZON):
    return {
        Window(start, start + spec.length_ms)
        for start in spec.window_starts(start_from, end)
    }


GRID = set().union(
    *(windows_of(s, 0) for s in (TUMBLING_500, SLIDING_500, TUMBLING_600))
)


def test_two_shapes_share_every_common_cut():
    wired = Wired()
    wired.register(1, TUMBLING_500)
    wired.register(2, SLIDING_500)
    p99 = QuerySpec(q=0.99, length_ms=500, gamma=8)
    wired.register(3, p99)
    assert len(wired.root.registry.groups()) == 1
    wired.run_to(HORIZON)
    for query_id, spec in ((1, TUMBLING_500), (2, SLIDING_500), (3, p99)):
        assert wired.horizons[query_id] == 0
        wired.assert_exact(query_id, spec)
    distinct = windows_of(TUMBLING_500, 0) | windows_of(SLIDING_500, 0)
    # Every tumbling window is also a sliding one: one cut per window.
    assert len(distinct) == len(windows_of(SLIDING_500, 0)) == 23
    assert wired.root.identification_cuts == len(distinct)
    for plane in wired.locals.values():
        assert plane.windows_sealed == len(distinct)
    assert wired.root.results_served == 12 + 23 + 12


def test_a_shape_joining_an_active_group_starts_on_its_own_grid():
    wired = Wired()
    wired.register(1, TUMBLING_500)
    wired.run_to(2700)
    (group,) = wired.root.registry.groups()
    assert group.shapes[TUMBLING_500.window_shape].active
    out = wired.register(2, SLIDING_500)
    # A new shape opens a negotiation round even in an active group.
    assert sorted(
        destination for destination, message in out
        if isinstance(message, QueryRegisterMessage)
    ) == [1, 2]
    horizon = wired.horizons[2]
    assert horizon % SLIDING_500.step == 0 and horizon >= 2700
    wired.run_to(HORIZON)
    served = wired.assert_exact(2, SLIDING_500)
    assert served[0].window.start == horizon
    wired.assert_exact(1, TUMBLING_500)
    distinct = windows_of(TUMBLING_500, 0) | windows_of(SLIDING_500, horizon)
    assert wired.root.identification_cuts == len(distinct)


def test_dropping_a_shape_frees_its_windows_and_keeps_the_other():
    wired = Wired()
    wired.register(1, TUMBLING_600)
    wired.register(2, SLIDING_500)
    assert sorted(s.pane_ms for s in wired.locals[1].stores) == [250, 600]
    wired.run_to(2400)
    # Local 2's synopses stay away from the root: every window sealed from
    # here on is pending on both locals and in flight at the root.
    wired.hold_from = 2
    wired.run_to(3700)
    assert {w.end - w.start for w in wired.pending(1)} == {500, 600}
    wired.deregister(1)
    assert wired.local_shapes(1) == wired.local_shapes(2) == [(500, 250)]
    for local_id in (1, 2):
        # The tumbling shape's pending windows and pane store are gone.
        assert {w.end - w.start for w in wired.pending(local_id)} == {500}
        assert [s.pane_ms for s in wired.locals[local_id].stores] == [250]
    assert {w.end - w.start for w in wired.in_flight()} == {500}
    # Its in-flight synopses are dropped at the root, not cut.
    cuts = wired.root.identification_cuts
    wired.release_held()
    sliding_held = windows_of(SLIDING_500, 0, 3700) - windows_of(
        SLIDING_500, 0, 2400
    )
    assert wired.root.identification_cuts == cuts + len(sliding_held)
    sealed = wired.locals[1].windows_sealed
    wired.run_to(HORIZON)
    assert wired.locals[1].windows_sealed - sealed == len(
        windows_of(SLIDING_500, 0) - windows_of(SLIDING_500, 0, 3700)
    )
    assert max(m.window.end for m in wired.results[1]) <= 2400
    wired.assert_exact(2, SLIDING_500)
    assert not wired.in_flight()
    assert not wired.pending(1) and not wired.pending(2)


def test_frames_for_a_torn_down_group_are_dropped():
    wired = Wired()
    wired.register(1, TUMBLING_500)
    wired.run_to(1000)
    # Local 2's candidate runs stay away from the root: every window cut
    # from here on is in flight at the root, awaiting them.
    wired.hold_from, wired.hold_type = 2, CandidateBatchMessage
    wired.run_to(2000)
    assert wired.in_flight() == windows_of(TUMBLING_500, 1000, 2000)
    runs = list(wired.held)
    assert runs
    # Local 1's synopses for the next window are in flight too.
    wired.hold_from, wired.hold_type = 1, SynopsisBatchMessage
    wired.run_to(2500)
    synopses = wired.held[len(runs):]
    assert [w for m in synopses for _, w, _, _ in m.sections] == [
        Window(2000, 2500)
    ]
    wired.held = []
    served = len(wired.results[1])
    (group,) = wired.root.registry.groups()
    wired.deregister(1)  # the group's last query: it is torn down
    assert not wired.root.registry.groups()
    assert wired.locals[1].groups == wired.locals[2].groups == ()
    # Late candidate runs and synopses reach neither the hosted root nor a
    # result; a request for the gone group is ignored at the local.
    for message in runs + synopses:
        assert wired.root.on_local_message(message) == []
    assert len(wired.results[1]) == served
    assert wired.root.node.open_windows == 0
    assert wired.locals[2].node.pending_windows == 0
    window = Window(2000, 2500)
    request = CandidateRequestBatchMessage(
        sender=0, window=window, sections=((group.group_id, window, (0,)),)
    )
    assert wired.locals[1].on_root_message(request) == []


def test_a_reused_query_id_does_not_tear_down_the_wrong_shape():
    wired = Wired()
    wired.register(1, TUMBLING_500)
    wired.register(2, TUMBLING_500)
    wired.run_to(1500)
    wired.deregister(1)  # the shape's first query leaves; query 2 stays
    wired.register(1, SLIDING_500)  # the id comes back with another shape
    assert wired.local_shapes(1) == [(500, 250), (500, 500)]
    wired.run_to(3000)
    wired.deregister(2)  # the tumbling shape's last member
    assert wired.local_shapes(1) == wired.local_shapes(2) == [(500, 250)]
    wired.run_to(HORIZON)
    served = wired.assert_exact(1, SLIDING_500)
    assert served[-1].window.end == HORIZON
