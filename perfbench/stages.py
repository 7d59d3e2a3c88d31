"""Stage replay: the workload's own streams through each layer in turn.

The live runtime interleaves its layers on one event loop, so nothing
timed from outside can say which layer owns the time.  The replay pushes
the *same generated streams* through the layers' public functions in
pipeline order, synchronously, with a span around every call:

    batches_for -> encode/decode EventBatchMessage -> SortedLocalWindow
    add_all -> seal -> slice_sorted_events -> encode/decode SynopsisMessage
    -> [relay combine / explode] -> identify -> SlicedWindow.run_for ->
    encode/decode CandidateEventsMessage -> [relay combine / explode] ->
    calculate_quantile

and, for ``multi-query``, the query plane's two message-in/messages-out
state machines (``LocalQueryPlane``, ``RootQueryPlane``) pumped by hand.
The replay's answers are checked against the oracle like any other run:
a replay that computes something else does not model the pipeline.

The span names below are the **stage vocabulary**; the per-layer metric
names are built from them (``<stage>.ns_per_event`` and friends).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.calculation import calculate_quantile
from repro.core.identification import identify
from repro.core.slicing import slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow
from repro.mesh.relay import (
    combine_runs,
    combine_synopses,
    explode_runs,
    explode_synopses,
)
from repro.mesh.routing import relay_node_id
from repro.network.messages import (
    CandidateEventsMessage,
    CandidateRequestMessage,
    EventBatchMessage,
    QueryAckMessage,
    QueryRegisterMessage,
    QueryResultMessage,
    SynopsisMessage,
)
from repro.network.topology import relay_groups
from repro.queries.local import LocalQueryPlane
from repro.queries.root import RootQueryPlane
from repro.queries.spec import CONTROL_WINDOW
from repro.runtime.codec import decode_frame, encode_frame
from repro.runtime.servers import batches_for
from repro.runtime.transport import MemoryNetwork, TcpNetwork
from repro.streaming.windows import Window

from perfbench.spans import SpanLog

__all__ = [
    "STAGES",
    "Counts",
    "replay_windows",
    "replay_queries",
    "transport_loopback",
]

BATCH = "runtime.servers.batch"
ENCODE_EVENTS = "runtime.codec.encode_events"
DECODE_EVENTS = "runtime.codec.decode_events"
INGEST = "core.sorted_window.ingest"
SORT = "core.sorted_window.sort"
SLICE = "core.slicing.slice"
ENCODE_SYNOPSES = "runtime.codec.encode_synopses"
DECODE_SYNOPSES = "runtime.codec.decode_synopses"
IDENTIFY = "core.identification.identify"
IDENTIFY_MULTI = "core.identification.identify_multi"
SERVE = "core.local_node.serve_candidates"
ENCODE_CANDIDATES = "runtime.codec.encode_candidates"
DECODE_CANDIDATES = "runtime.codec.decode_candidates"
CALCULATE = "core.calculation.calculate"
RELAY_COMBINE = "mesh.relay.combine"
RELAY_EXPLODE = "mesh.relay.explode"
PANE_ADD = "queries.slide.pane_add"
AGGREGATE = "queries.slide.aggregate"
LOOPBACK = "runtime.transport.loopback"

#: The stage vocabulary, in pipeline order.
STAGES = (
    BATCH, ENCODE_EVENTS, LOOPBACK, DECODE_EVENTS, INGEST, SORT, SLICE,
    ENCODE_SYNOPSES, DECODE_SYNOPSES, RELAY_COMBINE, RELAY_EXPLODE,
    IDENTIFY, IDENTIFY_MULTI, SERVE, ENCODE_CANDIDATES, DECODE_CANDIDATES,
    CALCULATE, PANE_ADD, AGGREGATE,
)

_BATCH_SIZE = 512
_STREAM_ID_BASE = 1000
_CLIENT_ID = 9001


@dataclass
class Counts:
    """Work counted at the same boundaries the spans are recorded at."""

    events: int = 0
    windows: int = 0
    batch_frames: int = 0
    synopses: int = 0
    slices: int = 0
    candidate_slices: int = 0
    candidate_events: int = 0
    #: ``multi-query`` only.
    plane_windows: int = 0
    identification_cuts: int = 0
    results_served: int = 0
    groups: int = 0
    #: The event-batch messages, per feeding stream, for the loopback.
    feeds: list = field(default_factory=list)


def _roundtrip(log: SpanLog, parent: int, encode: str, decode: str, message):
    """The message as its receiver sees it: encoded, then decoded."""
    frame = log.call(encode, parent, encode_frame, message)
    return log.call(decode, parent, decode_frame, frame)


def _batch(log: SpanLog, parent: int, streams, n_streams: int,
           window_ms: int, counts: Counts) -> dict:
    """Stage 1: split every stream share into window-aligned batches.

    Returns ``window index -> local id -> [EventBatchMessage]``.
    """
    by_window: dict[int, dict[int, list]] = {}
    stream_id = _STREAM_ID_BASE
    for local, share in streams.items():
        counts.events += len(share)
        for k in range(n_streams):
            stream_id += 1
            batches = log.call(
                BATCH, parent, batches_for,
                share[k::n_streams], window_ms, _BATCH_SIZE,
            )
            feed = []
            for batch in batches:
                first, last = batch.timestamp_at(0), batch.timestamp_at(-1)
                message = EventBatchMessage(
                    sender=stream_id, window=Window(first, last + 1),
                    events=batch,
                )
                feed.append(message)
                by_window.setdefault(last // window_ms, {}).setdefault(
                    local, []
                ).append(message)
            counts.batch_frames += len(batches)
            counts.feeds.append(feed)
    return by_window


def replay_windows(log: SpanLog, streams, *, n_streams: int, window_ms: int,
                   gamma: int, q: float, relay_fanin: int = 0,
                   on_batch=None, on_window_end=None):
    """Replay the single-query pipeline; returns ``(answers, counts)``.

    ``answers`` maps ``(start_ms, end_ms)`` to the quantile value.  With
    ``relay_fanin`` the synopsis and candidate hops also pass through the
    mesh relay tier's combine/explode.  ``on_batch(span, local, events)``
    and ``on_window_end(span, end_ms)`` let the query-plane replay ride
    the same decoded batches and window boundaries the local servers tap
    (``span`` is the window's span, the parent of whatever they record).
    """
    counts = Counts()
    root = log.open("replay")
    by_window = _batch(log, root, streams, n_streams, window_ms, counts)
    groups = relay_groups(sorted(streams), relay_fanin)
    answers: dict[tuple[int, int], float] = {}
    for index in sorted(by_window):
        span = log.open("window", root)
        window = Window(index * window_ms, (index + 1) * window_ms)
        sliced = {}
        for local, messages in by_window[index].items():
            sorted_window = SortedLocalWindow()
            for message in messages:
                received = _roundtrip(
                    log, span, ENCODE_EVENTS, DECODE_EVENTS, message
                )
                if on_batch is not None:
                    on_batch(span, local, received.events)
                log.call(INGEST, span, sorted_window.add_all, received.events)
            run = log.call(SORT, span, sorted_window.seal)
            sliced[local] = log.call(
                SLICE, span, slice_sorted_events, run, gamma, local
            )
        synopsis_frames = {
            local: _roundtrip(
                log, span, ENCODE_SYNOPSES, DECODE_SYNOPSES,
                SynopsisMessage(
                    sender=local, window=window, synopses=cut.synopses,
                    local_window_size=cut.window_size,
                ),
            )
            for local, cut in sliced.items()
        }
        for relay, members in enumerate(groups):
            parts = {m: synopsis_frames[m] for m in members
                     if m in synopsis_frames}
            combined = log.call(
                RELAY_COMBINE, span, combine_synopses,
                parts, relay_node_id(relay), window,
            )
            combined = _roundtrip(
                log, span, ENCODE_SYNOPSES, DECODE_SYNOPSES, combined
            )
            for message in log.call(
                RELAY_EXPLODE, span, explode_synopses, combined
            ):
                synopsis_frames[message.sender] = message
        identification = log.call(
            IDENTIFY, span, identify,
            {n: m.synopses for n, m in synopsis_frames.items()},
            {n: m.local_window_size for n, m in synopsis_frames.items()},
            q,
        )
        run_frames = {}
        for node, indices in identification.requests.items():
            for slice_index in indices:
                run = log.call(SERVE, span, sliced[node].run_for, slice_index)
                run_frames[node, slice_index] = _roundtrip(
                    log, span, ENCODE_CANDIDATES, DECODE_CANDIDATES,
                    CandidateEventsMessage(
                        sender=node, window=window,
                        slice_index=slice_index, events=run,
                    ),
                )
        for relay, members in enumerate(groups):
            parts = {key: frame for key, frame in run_frames.items()
                     if key[0] in members}
            if not parts:
                continue
            combined = log.call(
                RELAY_COMBINE, span, combine_runs,
                parts, relay_node_id(relay), window,
            )
            combined = _roundtrip(
                log, span, ENCODE_CANDIDATES, DECODE_CANDIDATES, combined
            )
            for message in log.call(
                RELAY_EXPLODE, span, explode_runs, combined
            ):
                run_frames[message.sender, message.slice_index] = message
        answer = log.call(
            CALCULATE, span, calculate_quantile, identification.cut,
            [frame.events for frame in run_frames.values()],
        )
        answers[window.start, window.end] = answer.value
        counts.windows += 1
        counts.synopses += sum(len(m.synopses) for m in
                               synopsis_frames.values())
        counts.slices += sum(cut.n_slices for cut in sliced.values())
        counts.candidate_slices += len(run_frames)
        counts.candidate_events += identification.candidate_events
        if on_window_end is not None:
            on_window_end(span, window.end)
        log.close(span)
    log.close(root)
    return answers, counts


def replay_queries(log: SpanLog, streams, specs, *, n_streams: int,
                   window_ms: int, gamma: int, q: float):
    """Replay ``multi-query``: the base pipeline plus the query plane.

    The two planes are pure state machines, so the replay pumps their
    messages by hand, with spans around the calls that do the work:
    ``LocalQueryPlane.ingest`` (pane store adds), ``on_watermark`` (pane
    sealing, sliding aggregation and slicing of every completed window),
    the candidate serve, and the root's shared identification and
    calculation.  Returns ``(answers, results, horizons, counts)`` where
    ``results``/``horizons`` have the shape the live driver reports.
    """
    local_ids = tuple(sorted(streams))
    grid_start = min(
        share.min_timestamp() for share in streams.values()
    ) // window_ms * window_ms
    root_plane = RootQueryPlane(local_ids)
    planes = {
        local: LocalQueryPlane(local, grid_start=grid_start)
        for local in local_ids
    }
    results: dict[int, list] = {}
    horizons: dict[int, int] = {}

    def to_root(parent: int, message):
        stage = "query-plane.control"
        if isinstance(message, SynopsisMessage):
            stage = IDENTIFY_MULTI
        elif isinstance(message, CandidateEventsMessage):
            stage = CALCULATE
        return log.call(stage, parent, root_plane.on_local_message, message)

    def pump(parent: int, outgoing) -> None:
        queue = deque(outgoing)
        while queue:
            destination, message = queue.popleft()
            if destination == _CLIENT_ID:
                if isinstance(message, QueryResultMessage):
                    results.setdefault(message.query_id, []).append(message)
                elif isinstance(message, QueryAckMessage):
                    horizons[message.query_id] = message.window.start
                continue
            stage = (SERVE if isinstance(message, CandidateRequestMessage)
                     else "query-plane.control")
            replies = log.call(
                stage, parent, planes[destination].on_root_message, message
            )
            for reply in replies:
                queue.extend(to_root(parent, reply))

    registration = log.open("query-plane.register")
    root_plane.on_client_connect(_CLIENT_ID)
    for query_id, spec in specs.items():
        pump(registration, root_plane.on_client_message(
            _CLIENT_ID, QueryRegisterMessage(
                sender=_CLIENT_ID, window=CONTROL_WINDOW, query_id=query_id,
                q=spec.q, kind=spec.kind, length_ms=spec.length_ms,
                step_ms=spec.step, gamma=spec.gamma,
                freshness_ms=spec.freshness_ms, selector=spec.selector,
            )
        ))
    log.close(registration)

    def on_batch(span: int, local: int, events) -> None:
        log.call(PANE_ADD, span, planes[local].ingest, events)

    def on_window_end(span: int, end_ms: int) -> None:
        for local in local_ids:
            for message in log.call(
                AGGREGATE, span, planes[local].on_watermark, end_ms
            ):
                pump(span, to_root(span, message))

    answers, counts = replay_windows(
        log, streams, n_streams=n_streams, window_ms=window_ms,
        gamma=gamma, q=q, on_batch=on_batch, on_window_end=on_window_end,
    )
    counts.plane_windows = sum(p.windows_sealed for p in planes.values())
    counts.identification_cuts = root_plane.identification_cuts
    counts.results_served = root_plane.results_served
    counts.groups = len(root_plane.registry.groups())
    return answers, results, horizons, counts


async def _loopback(transport: str, feeds) -> "tuple[float, int]":
    network = TcpNetwork() if transport == "tcp" else MemoryNetwork()
    expected = sum(len(feed) for feed in feeds)
    received = 0
    done = asyncio.Event()

    async def sink(stream) -> None:
        nonlocal received
        while await stream.recv() is not None:
            received += 1
            if received == expected:
                done.set()

    async def send(feed) -> None:
        stream = await network.dial(1)
        for message in feed:
            await stream.send(message)
        await stream.close()

    await network.listen(1, sink)
    start = time.perf_counter()
    await asyncio.gather(*(send(feed) for feed in feeds))
    await done.wait()
    wall = time.perf_counter() - start
    await network.close()
    return wall, expected


def transport_loopback(log: SpanLog, transport: str, feeds):
    """The workload's event-batch frames through the transport alone.

    One listener with a read-only sink, one dialed connection per feeding
    stream, as in the workload.  ``send``/``recv`` encode and decode, so
    the wall time *includes* the event codec; the stage budget subtracts
    the codec time the replay measured for the same frames.  Returns
    ``(wall seconds, frames)``.
    """
    span = log.open(LOOPBACK)
    wall, frames = asyncio.run(_loopback(transport, feeds))
    log.close(span)
    return wall, frames
