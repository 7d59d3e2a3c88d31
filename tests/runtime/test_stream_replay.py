"""Stream replay: window-aligned batching and the (ungated) replay loop."""

import asyncio
import random

import pytest

from repro.network.messages import EventBatchMessage, WatermarkMessage
from repro.runtime.servers import StreamServer, batches_for
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event

LENGTH = 1_000


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

    async def close(self):
        self.closed = True


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
    server = StreamServer(
        7,
        events=columns,
        batch_size=512,
        grid_start=0,
        grid_end=5 * LENGTH,
        window_length_ms=LENGTH,
        gates=gates,
    )
    stream = RecordingStream()
    asyncio.run(server.replay(stream))

    batches = [m for m in stream.sent if isinstance(m, EventBatchMessage)]
    assert [tuple(m.events) for m in batches] == reference_batches(
        events, LENGTH, 512
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
    flat = LiveClusterConfig(n_locals=1, streams_per_local=1, query=query)
    mesh = MeshConfig(
        n_locals=1, streams_per_local=1, n_shards=2, query=query
    )
    expected = run_live(flat, ordered).values
    assert len(expected) == 5 and None not in expected
    assert run_live(flat, unordered).values == expected
    assert run_mesh(mesh, unordered).values == expected
