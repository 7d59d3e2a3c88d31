"""``LocalQueryPlane`` driven directly as the state machine it is.

register → activate → ``ingest`` columnar batches → ``on_watermark``:
every synopsis batch the plane emits must equal ``slice_sorted_events``
of the window filtered row by row and sorted from scratch, and the
candidate request that releases a window must return exactly those rows.
"""

import numpy as np

from repro.core.slicing import slice_sorted_events
from repro.network.messages import (
    CandidateRequestMessage,
    QueryAckMessage,
    QueryDeregisterMessage,
    QueryRegisterMessage,
    SynopsisMessage,
)
from repro.queries.local import LocalQueryPlane
from repro.queries.spec import CONTROL_WINDOW, QuerySpec
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window

NODE = 3
HORIZON = 6000

SPECS = {
    1: QuerySpec(selector="all", length_ms=1000, gamma=8),
    2: QuerySpec(selector="mod:3:1", kind="sliding", length_ms=1000,
                 step_ms=500, gamma=8),
    3: QuerySpec(selector="node:2", kind="sliding", length_ms=900,
                 step_ms=600, gamma=5),
    # Same (selector, pane) as group 2, another shape: shares its store.
    4: QuerySpec(selector="mod:3:1", kind="sliding", length_ms=1500,
                 step_ms=500, gamma=16),
}


def make_stream(n=1500, seed=5):
    rng = np.random.default_rng(seed)
    return EventColumns.from_arrays(
        rng.normal(50.0, 20.0, size=n).round(1),
        np.sort(rng.integers(0, HORIZON, size=n)),
        rng.integers(1, 4, size=n),
    )


def register(plane, group_id, spec):
    [ack] = plane.on_root_message(
        QueryRegisterMessage(
            sender=0, window=CONTROL_WINDOW, group_id=group_id,
            query_id=group_id, q=spec.q, kind=spec.kind,
            length_ms=spec.length_ms, step_ms=spec.step, gamma=spec.gamma,
            freshness_ms=spec.freshness_ms, selector=spec.selector,
        )
    )
    assert isinstance(ack, QueryAckMessage) and ack.accepted
    assert ack.group_id == group_id and ack.sender == NODE
    return ack.window.start


def activate(plane, group_id, spec, start):
    return plane.on_root_message(
        QueryAckMessage(
            sender=0, window=Window(start, start + spec.length_ms),
            group_id=group_id, query_id=group_id,
        )
    )


def naive_window(events, spec, window):
    """Row-wise selector, window filter, sort from scratch by the full
    event key — as the sorted value column."""
    matches = spec.predicate().matches
    rows = [
        (e.value, e.timestamp, e.node_id, e.seq)
        for e in events
        if matches(e) and window.start <= e.timestamp < window.end
    ]
    rows.sort(key=lambda r: (r[0], r[2], r[3]))
    return np.array([r[0] for r in rows], dtype="<f8")


def drive(plane, events, batch_rows=50, end=HORIZON):
    """Ingest in arrival order; the watermark trails each batch."""
    emitted = []
    for at in range(0, len(events), batch_rows):
        plane.ingest(events[at:at + batch_rows])
        following = events[at + batch_rows:at + batch_rows + 1]
        watermark = following.min_timestamp() if len(following) else end
        emitted.extend(plane.on_watermark(watermark))
    return emitted


def test_every_synopsis_batch_and_candidate_run_matches_the_naive_window():
    events = make_stream()
    plane = LocalQueryPlane(NODE)
    for group_id, spec in SPECS.items():
        assert register(plane, group_id, spec) == 0  # nothing ingested yet
        assert activate(plane, group_id, spec, 0) == []  # no watermark yet
    assert plane.groups == (1, 2, 3, 4)
    assert len(plane.stores) == 3  # groups 2 and 4 share one

    emitted = drive(plane, events)
    assert all(isinstance(m, SynopsisMessage) for m in emitted)
    assert plane.windows_sealed == len(emitted)
    for group_id, spec in SPECS.items():
        served = [m.window.start for m in emitted if m.group_id == group_id]
        assert served == spec.window_starts(0, HORIZON)  # each once, in order

    for message in emitted:
        spec = SPECS[message.group_id]
        expected = slice_sorted_events(
            naive_window(events, spec, message.window), spec.gamma, NODE
        )
        assert message.sender == NODE
        assert message.synopses == expected.synopses
        assert message.local_window_size == expected.window_size
        request = CandidateRequestMessage(
            sender=0, window=message.window, group_id=message.group_id,
            slice_indices=tuple(range(expected.n_slices)),
        )
        replies = plane.on_root_message(request)
        assert [r.slice_index for r in replies] == list(
            range(expected.n_slices)
        )
        for reply in replies:
            assert reply.window == message.window
            assert reply.group_id == message.group_id
            assert reply.events.tobytes() == expected.run_for(
                reply.slice_index
            ).tobytes()
        # The request released the window: asking again finds nothing.
        assert plane.on_root_message(request) == []
    assert all(store.late_dropped == 0 for store in plane.stores)


def test_a_group_registered_mid_stream_starts_above_everything_ingested():
    events = make_stream()
    spec = SPECS[2]
    plane = LocalQueryPlane(NODE)
    half = len(events) // 2
    plane.ingest(events[:half])  # no store yet: only the horizon moves
    plane.ingest(events[:0])     # an empty batch is a no-op
    seen = events[:half].max_timestamp()
    start = register(plane, 2, spec)
    assert start == -(-(seen + 1) // spec.step) * spec.step
    assert register(plane, 2, spec) == start  # idempotent until active
    activate(plane, 2, spec, start)
    emitted = drive(plane, events[half:])
    assert [m.window.start for m in emitted] == spec.window_starts(
        start, HORIZON
    )
    for message in emitted:
        expected = slice_sorted_events(
            naive_window(events, spec, message.window), spec.gamma, NODE
        )
        assert message.synopses == expected.synopses
    # An active group answers a repeated registration with its next window.
    assert register(plane, 2, spec) == emitted[-1].window.start + spec.step


def test_a_gap_window_reader_does_not_prune_what_a_later_joiner_is_promised():
    events = make_stream()
    gaps = QuerySpec(kind="sliding", length_ms=500, step_ms=2000, gamma=8)
    joiner = QuerySpec(length_ms=500, gamma=8)
    plane = LocalQueryPlane(NODE)
    activate(plane, 1, gaps, register(plane, 1, gaps))
    # Seal [0, 500): the gap reader's next window is 2000, far above the
    # watermark, when a second reader of the same store turns up.
    split = int(np.searchsorted(events.timestamps, 700))
    emitted = drive(
        plane, events[:split], end=events[split:split + 1].min_timestamp()
    )
    assert [m.window.start for m in emitted] == [0]
    start = register(plane, 2, joiner)
    assert start == 1000 and len(plane.stores) == 1
    emitted += activate(plane, 2, joiner, start)
    emitted += drive(plane, events[split:])
    for group_id, spec, first in ((1, gaps, 0), (2, joiner, start)):
        served = [m for m in emitted if m.group_id == group_id]
        assert [m.window.start for m in served] == spec.window_starts(
            first, HORIZON
        )
        for message in served:
            run = naive_window(events, spec, message.window)
            assert message.local_window_size == len(run)
            assert message.synopses == slice_sorted_events(
                run, spec.gamma, NODE
            ).synopses
    # Rows in a gap no reader wants are discarded, but they are not late.
    assert plane.stores[0].late_dropped == 0


def test_deregistering_the_last_reader_drops_the_store():
    plane = LocalQueryPlane(NODE)
    for group_id in (2, 4):
        register(plane, group_id, SPECS[group_id])
    assert len(plane.stores) == 1
    for group_id in (2, 4):
        assert plane.on_root_message(
            QueryDeregisterMessage(
                sender=0, window=CONTROL_WINDOW, group_id=group_id
            )
        ) == []
    assert plane.groups == () and plane.stores == ()
    # A request racing the deregistration is ignored, not an error.
    assert plane.on_root_message(
        CandidateRequestMessage(
            sender=0, window=Window(0, 1000), group_id=2, slice_indices=(0,)
        )
    ) == []
