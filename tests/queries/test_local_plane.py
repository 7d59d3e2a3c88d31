"""``LocalQueryPlane`` driven directly as the state machine it is.

register → activate → ``ingest`` columnar batches → ``on_watermark``:
every window the plane seals — one section of the one synopsis frame a
watermark emits — must equal ``slice_sorted_events`` of the window
filtered row by row and sorted from scratch, and the candidate request
that releases a window must return exactly those rows.
"""

import numpy as np
import pytest

from repro.core.slicing import slice_sorted_events
from repro.errors import SliceError
from repro.network.messages import (
    CandidateBatchMessage,
    CandidateRequestBatchMessage,
    QueryAckMessage,
    QueryDeregisterMessage,
    QueryRegisterMessage,
    SynopsisBatchMessage,
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


def sealed(frames):
    """The windows of synopsis frames, as ``(group_id, window, local size,
    synopses)`` sections: every frame is one batch from this node."""
    assert all(
        isinstance(m, SynopsisBatchMessage) and m.sender == NODE
        and m.group_id == 0 for m in frames
    )
    return [section for m in frames for section in m.sections]


def drive(plane, events, batch_rows=50, end=HORIZON):
    """Ingest in arrival order; the watermark trails each batch.  Each
    watermark ships at most one synopsis frame; returns the windows."""
    emitted = []
    for at in range(0, len(events), batch_rows):
        plane.ingest(events[at:at + batch_rows])
        following = events[at + batch_rows:at + batch_rows + 1]
        watermark = following.min_timestamp() if len(following) else end
        frames = plane.on_watermark(watermark)
        assert len(frames) <= 1
        emitted.extend(sealed(frames))
    return emitted


def request(group_id, window, indices):
    return CandidateRequestBatchMessage(
        sender=0, window=window, sections=((group_id, window, indices),)
    )


def test_every_synopsis_batch_and_candidate_run_matches_the_naive_window():
    events = make_stream()
    plane = LocalQueryPlane(NODE)
    for group_id, spec in SPECS.items():
        assert register(plane, group_id, spec) == 0  # nothing ingested yet
        assert activate(plane, group_id, spec, 0) == []  # no watermark yet
    assert plane.groups == (1, 2, 3, 4)
    assert len(plane.stores) == 3  # groups 2 and 4 share one

    emitted = drive(plane, events)
    assert plane.windows_sealed == len(emitted)
    for group_id, spec in SPECS.items():
        served = [w.start for g, w, _, _ in emitted if g == group_id]
        assert served == spec.window_starts(0, HORIZON)  # each once, in order

    for group_id, window, size, synopses in emitted:
        spec = SPECS[group_id]
        expected = slice_sorted_events(
            naive_window(events, spec, window), spec.gamma, NODE
        )
        assert synopses == expected.synopses
        assert size == expected.window_size
        indices = tuple(range(expected.n_slices))
        replies = plane.on_root_message(request(group_id, window, indices))
        if not indices:
            assert replies == []  # an empty request only releases
        else:
            [reply] = replies
            assert isinstance(reply, CandidateBatchMessage)
            assert reply.sender == NODE
            [(g, w, served, values)] = reply.sections
            assert (g, w, served) == (group_id, window, indices)
            assert values.tobytes() == b"".join(
                expected.run_for(index).tobytes() for index in indices
            )
        # The request released the window: asking again finds nothing.
        assert plane.on_root_message(request(group_id, window, indices)) == []
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
    assert [w.start for _, w, _, _ in emitted] == spec.window_starts(
        start, HORIZON
    )
    for _, window, _, synopses in emitted:
        expected = slice_sorted_events(
            naive_window(events, spec, window), spec.gamma, NODE
        )
        assert synopses == expected.synopses
    # An active group answers a repeated registration with its next window.
    assert register(plane, 2, spec) == emitted[-1][1].start + spec.step


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
    assert [w.start for _, w, _, _ in emitted] == [0]
    start = register(plane, 2, joiner)
    assert start == 1000 and len(plane.stores) == 1
    emitted += sealed(activate(plane, 2, joiner, start))
    emitted += drive(plane, events[split:])
    for group_id, spec, first in ((1, gaps, 0), (2, joiner, start)):
        served = [s for s in emitted if s[0] == group_id]
        assert [w.start for _, w, _, _ in served] == spec.window_starts(
            first, HORIZON
        )
        for _, window, size, synopses in served:
            run = naive_window(events, spec, window)
            assert size == len(run)
            assert synopses == slice_sorted_events(
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
    assert plane.on_root_message(request(2, Window(0, 1000), (0,))) == []


def test_a_request_is_served_for_the_windows_still_held():
    """The plane drops a section for a window it no longer holds and
    serves the rest; the hosted node itself refuses such a section."""
    events = make_stream()
    plane = LocalQueryPlane(NODE)
    spec = SPECS[1]
    register(plane, 1, spec)
    activate(plane, 1, spec, 0)
    emitted = drive(plane, events)
    (_, released, _, _), (_, held, _, synopses) = emitted[:2]
    plane.on_root_message(request(1, released, ()))
    assert not plane.node.holds(1, released)
    both = CandidateRequestBatchMessage(
        sender=0, window=Window(released.start, held.end),
        sections=((1, released, (0,)), (1, held, (0,))),
    )
    [reply] = plane.on_root_message(both)
    [(g, w, served, values)] = reply.sections
    assert (g, w, served) == (1, held, (0,))
    assert len(values) == synopses[0].count
    with pytest.raises(SliceError, match="no sealed window"):
        plane.node.on_message(request(1, released, (0,)), 0.0)
