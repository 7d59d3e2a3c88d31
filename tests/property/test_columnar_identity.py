"""Property: the columnar operators are bit-identical to a sorted list.

The columnar layout changes *where* bytes live, never *what* the protocol
computes: a ``SortedLocalWindow`` fed ``EventColumns`` batches must seal
to the values of ``sorted(events, key=event_key)`` (bit for bit), cut the
slices a walk over that list cuts, and serve the same quantiles — and a
live cluster or sharded mesh handed ``Event`` sequences must be
indistinguishable from one handed the same events as ``EventColumns``.

A NaN value has no rank, so no sorted order exists with one.  It is
refused at the door, and a NaN that gets past it is refused where it is
first ordered: a window's sort raises ``CodecError``, the root's rank
select ``CalculationError``.  The draws below keep NaN in their pools to
hold both refusals.

Event fingerprints compare ``struct.pack``ed value bits, not ``==``, so
``-0.0`` and ``0.0`` stay apart.
"""

import contextlib
import math
import re
import signal
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.calculation import calculate_quantile
from repro.core.engine import dema_quantile
from repro.errors import CalculationError, CodecError
from repro.core.slicing import slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow
from repro.core.synopsis import SliceSynopsis
from repro.core.window_cut import CutResult
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event, event_key, make_events
from tests.event_objects import event_objects

_F64 = struct.Struct("<d")


def _value_bits(values):
    """A value sequence's bits, so ``-0.0`` and ``0.0`` stay apart."""
    return [_F64.pack(value) for value in values]


# Values drawn from a small pool (forcing exact duplicates) or from the
# full float line including NaN and infinities.  Every draw is re-packed
# into a *fresh* float object, the way wire decode always produces them.
_values = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, float("nan"), float("inf"), float("-inf")]
    ),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
).map(lambda v: _F64.unpack(_F64.pack(v))[0])


def _chunked(draw, events):
    chunks = []
    while events:
        size = draw(st.integers(min_value=1, max_value=max(1, len(events))))
        chunks.append(events[:size])
        events = events[size:]
    return chunks


@st.composite
def event_batches(draw, twins=False):
    """A chunked arrival sequence: list of chunks of events.

    Timestamps are drawn independently, so chunks routinely contain
    late events relative to earlier chunks.  With ``twins`` the sequence
    numbers repeat, so whole keys collide and only the timestamps tell
    such events apart.
    """
    n = draw(st.integers(min_value=0, max_value=60))
    events = [
        Event(
            value=draw(_values),
            timestamp=draw(st.integers(min_value=0, max_value=50)),
            node_id=draw(st.integers(min_value=1, max_value=3)),
            seq=draw(st.integers(min_value=0, max_value=3)) if twins else i,
        )
        for i in range(n)
    ]
    return _chunked(draw, events)


@st.composite
def rare_tie_batches(draw):
    """Distinct NaN-free values, then a few rows (at most one in eight)
    re-use another row's value — a zero possibly with the other sign — and
    half of those its whole key: ties rare enough that the sort kernel
    repairs them in place instead of falling back to a stable sort."""
    values = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=True, width=64),
        min_size=8, max_size=60, unique=True,
    ))
    n = len(values)
    events = [
        Event(
            value=value,
            timestamp=draw(st.integers(min_value=0, max_value=50)),
            node_id=draw(st.integers(min_value=1, max_value=3)),
            seq=i,
        )
        for i, value in enumerate(values)
    ]
    rows = st.integers(min_value=0, max_value=n - 1)
    for _ in range(draw(st.integers(min_value=1, max_value=n // 8))):
        source, target = events[draw(rows)], draw(rows)
        value = source.value
        if value == 0.0 and draw(st.booleans()):
            value = -value
        whole_key = draw(st.booleans())
        events[target] = Event(
            value=value,
            timestamp=events[target].timestamp,
            node_id=source.node_id if whole_key else events[target].node_id,
            seq=source.seq if whole_key else events[target].seq,
        )
    return _chunked(draw, events)


@pytest.fixture(params=["numpy"], autouse=True)
def backend(request):
    """The one representation; the parameter keeps the recorded test ids."""
    return request.param


def _has_nan(events):
    return any(math.isnan(event.value) for event in events)


def _seal(chunks, one_batch):
    """The sealed value column of ``chunks``, added as they came or as one
    batch (the sort must not see the difference)."""
    if one_batch:
        chunks = [[event for chunk in chunks for event in chunk]]
    window = SortedLocalWindow()
    for chunk in chunks:
        window.add_all(EventColumns.from_events(chunk))
    return window.seal().tolist()


@given(
    st.one_of(
        event_batches(),
        event_batches(twins=True),
        rare_tie_batches(),
    ),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_sealed_windows_identical(chunks, one_batch):
    events = [event for chunk in chunks for event in chunk]
    if _has_nan(events):
        with pytest.raises(CodecError, match="has a NaN value"):
            _seal(chunks, one_batch)
        return
    # The independent oracle: one stable sort of everything (exact twins
    # stay in arrival order).
    assert _value_bits(_seal(chunks, one_batch)) == _value_bits(
        e.value for e in sorted(events, key=event_key)
    )


@given(event_batches(), st.integers(min_value=2, max_value=20))
@settings(max_examples=100, deadline=None)
def test_cuts_identical(chunks, gamma):
    events = [event for chunk in chunks for event in chunk]
    if _has_nan(events):
        with pytest.raises(CodecError, match="has a NaN value"):
            _seal([events], False)
        return
    ordered = sorted(events, key=event_key)
    sealed = np.array(_seal([events], False))

    # The slices a walk over the list cuts: γ events each, a trailing
    # single event folded into the slice before it.
    starts = list(range(0, len(ordered), gamma))
    if len(starts) > 1 and len(ordered) - starts[-1] == 1:
        starts.pop()
    ends = starts[1:] + [len(ordered)]
    runs = [ordered[a:b] for a, b in zip(starts, ends)]
    sliced = slice_sorted_events(sealed, gamma, node_id=1)

    assert sliced.window_size == len(ordered)
    # A synopsis key is (value, owner, row in the sorted window); a
    # non-final last value is the next slice's first.  Compared as records,
    # value bits included.
    bounds = [run[0].value for run in runs[1:]] + [
        run[-1].value for run in runs[-1:]
    ]
    assert [
        (_F64.pack(fv), _F64.pack(lv), *rest)
        for fv, lv, *rest in sliced.synopses.records.tolist()
    ] == [
        (_F64.pack(run[0].value), _F64.pack(bound), len(run), start,
         end - 1, index, len(runs), 1)
        for index, (run, bound, start, end) in enumerate(
            zip(runs, bounds, starts, ends)
        )
    ]
    assert [
        _value_bits(sliced.values[a:b].tolist())
        for a, b in zip(sliced.bounds, sliced.bounds[1:])
    ] == [_value_bits(e.value for e in run) for run in runs]
    assert [
        sliced.run_for(i).tobytes() for i in range(sliced.n_slices)
    ] == [
        run.tobytes() for run in _value_runs(runs)
    ]


@given(
    st.dictionaries(
        keys=st.integers(min_value=1, max_value=3),
        values=st.lists(
            st.floats(
                min_value=-1e9, max_value=1e9,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1,
            max_size=40,
        ),
        min_size=1,
        max_size=3,
    ),
    st.floats(min_value=0.01, max_value=1.0),
    st.integers(min_value=2, max_value=30),
)
@settings(max_examples=100, deadline=None)
def test_served_quantiles_identical(per_node, q, gamma):
    object_windows = {
        node_id: make_events(vals, node_id=node_id)
        for node_id, vals in per_node.items()
    }
    columnar_windows = {
        node_id: EventColumns.from_events(events)
        for node_id, events in object_windows.items()
    }
    expected = dema_quantile(object_windows, q=q, gamma=gamma)
    result = dema_quantile(columnar_windows, q=q, gamma=gamma)
    assert _F64.pack(result.value) == _F64.pack(expected.value)
    assert result.rank == expected.rank
    assert result.global_window_size == expected.global_window_size
    assert result.candidate_events == expected.candidate_events
    assert result.candidate_slices == expected.candidate_slices
    assert result.synopses == expected.synopses


# ---------------------------------------------------------------------------
# Root calculation: a candidate is its value.  The rank select over value
# runs, stacked in (node_id, slice_index) order, must return the value bits
# the full-event key merge puts at the local rank, and refuse a NaN.

# A pool this small makes every window mostly ties, so the rank's value
# routinely spans several runs and both zeros sit side by side.
_TIE_POOL = [0.0, -0.0, 1.0, -1.0, 2.0, float("inf"), float("-inf")]


@st.composite
def candidate_runs(draw):
    """Sorted per-node windows cut into slices: the event runs behind the
    value runs a root fetches, in ``(node_id, slice_index)`` order."""
    pool = draw(st.sampled_from([_TIE_POOL, _TIE_POOL + [float("nan")]]))
    gamma = draw(st.integers(min_value=1, max_value=6))
    runs = []
    for node_id in range(1, draw(st.integers(min_value=1, max_value=4)) + 1):
        values = draw(st.lists(st.sampled_from(pool), max_size=12))
        window = sorted(
            (
                Event(
                    value=_F64.unpack(_F64.pack(value))[0],
                    timestamp=draw(st.integers(min_value=0, max_value=50)),
                    node_id=node_id,
                    seq=seq,
                )
                for seq, value in enumerate(values)
            ),
            key=event_key,
        )
        runs.extend(
            window[i : i + gamma] for i in range(0, len(window), gamma)
        )
    return runs


def _value_runs(runs):
    """Each event run as the f64 value run the wire carries."""
    return [np.array([e.value for e in run], dtype="<f8") for run in runs]


def _cut(local_rank, n):
    candidates = ()
    if n:
        candidates = (
            SliceSynopsis(
                first_key=(0.0, 1, 0), last_key=(0.0, 1, 0), count=n,
                node_id=1, slice_index=0, n_slices=1,
            ),
        )
    return CutResult(rank=local_rank, candidates=candidates, n_below=0)


@given(candidate_runs(), st.data())
@settings(max_examples=300, deadline=None)
def test_rank_select_identical_to_merge(runs, data):
    """At every rank, the value runs give the value bits of the full-event
    key merge ``sorted(events, key=event_key)`` — ``-0.0`` and ``0.0``
    included, which only the stacking order tells apart.  A rank just
    outside the fetched values is refused, and so is every rank of runs
    holding a NaN or a run that descends, naming the first descent.
    """
    events = [event for run in runs for event in run]
    n = len(events)
    values = _value_runs(runs)
    for local_rank in (0, n + 1):
        with pytest.raises(
            CalculationError,
            match=f"local rank {local_rank} outside the {n} fetched",
        ):
            calculate_quantile(_cut(local_rank, n), values)
    if _has_nan(events):
        for local_rank in range(1, n + 1):
            with pytest.raises(CalculationError, match="holds a NaN value"):
                calculate_quantile(_cut(local_rank, n), values)
        return
    reference = sorted(events, key=event_key)
    for local_rank in range(1, n + 1):
        answer = calculate_quantile(_cut(local_rank, n), values)
        assert _F64.pack(answer.value) == _F64.pack(
            reference[local_rank - 1].value
        )
    if runs and data.draw(st.booleans()):
        # A protocol violation: the first descent inside a run is named.
        victim = data.draw(st.integers(min_value=0, max_value=len(runs) - 1))
        values[victim] = values[victim][::-1]
        descents = [
            float(run[i]) for run in values for i in range(1, len(run))
            if run[i] < run[i - 1]
        ]
        if descents:
            for local_rank in range(1, n + 1):
                with pytest.raises(
                    CalculationError, match="near value " + re.escape(
                        repr(descents[0])
                    ),
                ):
                    calculate_quantile(_cut(local_rank, n), values)


# ---------------------------------------------------------------------------
# Feed identity end to end: a cluster handed ``Event`` sequences converts
# them once at entry, so it must reach the same windows, the same values
# and the same wire-byte totals as one handed the columns directly.


@contextlib.contextmanager
def _hard_timeout(seconds: int):
    def on_alarm(signum, frame):
        raise TimeoutError(f"feed identity run exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _outcome_bits(report):
    return [
        (o.window, _F64.pack(o.value), o.global_window_size,
         o.candidate_events, o.synopses_received)
        for o in sorted(report.outcomes, key=lambda o: o.window)
        if o.value is not None
    ]


def test_live_run_object_fed_equals_column_fed():
    from repro.bench.generator import GeneratorConfig, workload
    from repro.core.query import QuantileQuery
    from repro.runtime.cluster import LiveClusterConfig, run_live

    streams = workload(
        [1, 2], GeneratorConfig(event_rate=300.0, duration_s=2.0, seed=23)
    )
    config = LiveClusterConfig(
        n_locals=2,
        streams_per_local=2,
        query=QuantileQuery(q=0.5, gamma=64),
        transport="memory",
        timeout_s=60.0,
    )
    with _hard_timeout(120):
        columns = run_live(config, streams)
        objects = run_live(config, event_objects(streams))
    assert len(_outcome_bits(columns)) >= 2
    assert _outcome_bits(objects) == _outcome_bits(columns)
    assert objects.total_bytes == columns.total_bytes


def test_mesh_run_object_fed_equals_column_fed():
    from repro.bench.generator import GeneratorConfig, workload
    from repro.core.query import QuantileQuery
    from repro.mesh import MeshConfig, run_mesh

    streams = workload(
        [1, 2], GeneratorConfig(event_rate=120.0, duration_s=2.0, seed=29)
    )
    config = MeshConfig(
        n_locals=2,
        streams_per_local=1,
        n_shards=2,
        query=QuantileQuery(q=0.5, gamma=64),
        transport="memory",
    )
    with _hard_timeout(120):
        columns = run_mesh(config, streams)
        objects = run_mesh(config, event_objects(streams))
    assert len(_outcome_bits(columns)) >= 1
    assert _outcome_bits(objects) == _outcome_bits(columns)
    assert objects.total_bytes == columns.total_bytes
