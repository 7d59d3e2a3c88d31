"""Stream replay: window-aligned batching and the (ungated) replay loop."""

import asyncio
import random

import pytest

from repro.mesh.config import ClusterConfig
from repro.network.messages import EventBatchMessage, WatermarkMessage
from repro.runtime.servers import StreamServer, batches_for
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event

LENGTH = 1_000

#: A small frame and the frame the cluster sends.
BATCH_SIZES = (512, ClusterConfig().batch_size)


def reference_batches(events, length, batch_size):
    """The per-event rule: break a batch whenever the window changes or
    the size cap is hit."""
    size = max(1, batch_size)
    batches, batch = [], []
    for event in events:
        crosses = batch and (
            batch[0].timestamp // length != event.timestamp // length
        )
        if crosses or len(batch) >= size:
            batches.append(tuple(batch))
            batch = []
        batch.append(event)
    if batch:
        batches.append(tuple(batch))
    return batches


def events_at(timestamps):
    return [
        Event(value=float(seq % 7), timestamp=ts, node_id=1, seq=seq)
        for seq, ts in enumerate(timestamps)
    ]


def shuffled(timestamps, seed=5):
    timestamps = list(timestamps)
    random.Random(seed).shuffle(timestamps)
    return timestamps


STREAMS = {
    "empty": [],
    "one-window": range(0, 900, 7),
    "window-spanning": range(0, 4_500, 13),
    "gap-between-windows": [5, 6, 7, 3_100, 3_200, 9_999],
    "equal-timestamps": [10] * 40 + [1_000] * 40,
    "shuffled": shuffled(range(0, 4_500, 13)),
    "shuffled-within-windows": sorted(
        shuffled(range(0, 4_500, 13)), key=lambda ts: ts // LENGTH
    ),
}


@pytest.mark.parametrize("batch_size", [0, 1, 16, 512])
@pytest.mark.parametrize("name", STREAMS)
def test_batches_match_the_per_event_rule(name, batch_size):
    events = events_at(STREAMS[name])
    batches = batches_for(EventColumns.from_events(events), LENGTH, batch_size)
    assert all(isinstance(batch, EventColumns) for batch in batches)
    assert [tuple(batch) for batch in batches] == reference_batches(
        events, LENGTH, batch_size
    )


class RecordingStream:
    def __init__(self):
        self.sent = []
        self.closed = False

    async def send(self, message):
        self.sent.append(message)

    async def send_many(self, messages):
        self.sent.extend(messages)

    async def close(self):
        self.closed = True


class CoalescingStream(RecordingStream):
    """Also records which messages went out together: one tuple per
    ``send`` or ``send_many``."""

    def __init__(self):
        super().__init__()
        self.sends = []

    async def send(self, message):
        await super().send(message)
        self.sends.append((message,))

    async def send_many(self, messages):
        self.sent.extend(messages)
        self.sends.append(tuple(messages))


def replay(events, *, batch_size, gates=None):
    """Replay ``events`` over the grid ``[0, 5 * LENGTH)``; the stream."""
    server = StreamServer(
        7,
        events=EventColumns.from_events(events),
        batch_size=batch_size,
        grid_start=0,
        grid_end=5 * LENGTH,
        window_length_ms=LENGTH,
        gates=gates,
    )
    stream = CoalescingStream()
    asyncio.run(server.replay(stream))
    return stream


def watermark_times(stream):
    return [
        m.watermark_time for m in stream.sent
        if isinstance(m, WatermarkMessage)
    ]


def test_each_window_seals_with_its_last_batch():
    """An in-order share over five windows, four batches a window: the
    last batch of every window but the final one travels in one
    ``send_many`` with a watermark at the window's end; no other batch
    carries one, and the phase-end watermark goes alone."""
    events = events_at(range(0, 5 * LENGTH, 16))
    stream = replay(events, batch_size=16)
    groups = [
        group for group in stream.sends
        if isinstance(group[0], EventBatchMessage)
    ]
    assert [tuple(group[0].events) for group in groups] == reference_batches(
        events, LENGTH, 16
    )
    assert len(groups) == 5 * 4
    for index, group in enumerate(groups):
        window_end = (index // 4 + 1) * LENGTH
        if index % 4 == 3 and window_end < 5 * LENGTH:
            watermark = group[1]
            assert len(group) == 2 and isinstance(watermark, WatermarkMessage)
            assert watermark.watermark_time == window_end
        else:
            assert len(group) == 1
    assert stream.sends[-1] == (stream.sent[-1],)
    assert watermark_times(stream) == [1_000, 2_000, 3_000, 4_000, 5_000]


def test_a_stream_that_skips_windows_seals_them_with_its_last_batch():
    """No event in windows 1 and 2: the watermark that rides window 0's
    last batch is at window 3's start, so windows 1 and 2 seal with it."""
    stream = replay(events_at([10, 20, 3_500, 4_100]), batch_size=512)
    assert watermark_times(stream) == [3_000, 4_000, 5_000]


def test_a_gated_replay_sends_one_watermark_at_each_boundary():
    """A membership boundary on a window end: the phase's last batch
    carries no window watermark, so the boundary's own is the only one
    at that time."""
    events = events_at(range(0, 5 * LENGTH, 16))
    gate = asyncio.Event()
    gate.set()
    stream = replay(events, batch_size=16, gates={2 * LENGTH: gate})
    assert watermark_times(stream) == [1_000, 2_000, 3_000, 4_000, 5_000]
    mid_window = replay(events, batch_size=16, gates={2_500: gate})
    assert watermark_times(mid_window) == [
        1_000, 2_000, 2_500, 3_000, 4_000, 5_000,
    ]


def unordered_inside_windows():
    """Out of order, but every window's first event is its earliest and
    its last event its latest — the disorder a replay has always carried
    (a batch's frame window runs from its first to its last timestamp)."""
    timestamps = []
    for start in range(0, 5 * LENGTH, LENGTH):
        inside = shuffled(range(start + 10, start + 990, 9), seed=start)
        timestamps += [start + 1, *inside, start + 999]
    return timestamps


@pytest.mark.parametrize("gates", [None, {}], ids=["flat", "mesh"])
def test_unordered_stream_without_boundaries_replays_every_batch(gates):
    """Both clusters replay through this loop — the flat one passes no
    gates, the mesh an empty mapping when there is no membership schedule
    — and an out-of-order share then ships exactly the per-event rule's
    batches, none cut off by a search over unsorted timestamps."""
    events = events_at(unordered_inside_windows())
    columns = EventColumns.from_events(events)
    assert not columns.timestamps_sorted()
    for batch_size in BATCH_SIZES:
        server = StreamServer(
            7,
            events=columns,
            batch_size=batch_size,
            grid_start=0,
            grid_end=5 * LENGTH,
            window_length_ms=LENGTH,
            gates=gates,
        )
        stream = RecordingStream()
        asyncio.run(server.replay(stream))

        batches = [m for m in stream.sent if isinstance(m, EventBatchMessage)]
        assert [tuple(m.events) for m in batches] == reference_batches(
            events, LENGTH, batch_size
        )
        assert server.events_sent == len(events)
        final = stream.sent[-1]
        assert isinstance(final, WatermarkMessage)
        assert final.watermark_time == 5 * LENGTH
        assert stream.closed


def test_unordered_stream_answers_like_the_ordered_one_flat_and_mesh():
    from repro.core.query import QuantileQuery
    from repro.mesh import MeshConfig, run_mesh
    from repro.runtime.cluster import LiveClusterConfig, run_live

    events = events_at(unordered_inside_windows())
    unordered = {1: EventColumns.from_events(events)}
    ordered = {1: sorted(events, key=lambda event: event.timestamp)}
    query = QuantileQuery(q=0.5, gamma=16)
    for batch_size in BATCH_SIZES:
        flat = LiveClusterConfig(
            n_locals=1, streams_per_local=1, query=query,
            batch_size=batch_size,
        )
        mesh = MeshConfig(
            n_locals=1, streams_per_local=1, n_shards=2, query=query,
            batch_size=batch_size,
        )
        expected = run_live(flat, ordered).values
        assert len(expected) == 5 and None not in expected
        assert run_live(flat, unordered).values == expected
        assert run_mesh(mesh, unordered).values == expected
