"""Micro-benchmarks of Dema's hot components (real wall-time measurements).

Unlike the figure benchmarks (which report simulated metrics), these use
pytest-benchmark conventionally: the statistic of interest is wall time of
the pure-Python data structures on this machine.
"""

import random

from repro.core.slicing import slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow
from repro.core.window_cut import window_cut
from repro.core.engine import dema_quantile
from repro.sketches.qdigest import QDigest
from repro.sketches.tdigest import TDigest
from repro.streaming.columns import EventColumns
from repro.streaming.events import make_events

RNG = random.Random(1234)
VALUES_10K = [RNG.gauss(100, 15) for _ in range(10_000)]
EVENTS_10K = EventColumns.from_events(make_events(VALUES_10K, node_id=1))
SORTED_10K = SortedLocalWindow(EVENTS_10K).seal()


def test_sorted_window_insert_10k(benchmark):
    def insert_all():
        window = SortedLocalWindow()
        window.add_all(EVENTS_10K)
        return window.seal()

    result = benchmark(insert_all)
    assert len(result) == 10_000


def test_slicing_10k(benchmark):
    result = benchmark(slice_sorted_events, SORTED_10K, 100, 1)
    assert result.n_slices == 100


def test_window_cut_200_slices(benchmark):
    synopses = []
    for node_id in (1, 2):
        events = EventColumns.from_events(
            make_events(
                [RNG.gauss(100 * node_id, 40) for _ in range(10_000)],
                node_id=node_id,
            )
        )
        synopses.extend(
            slice_sorted_events(
                SortedLocalWindow(events).seal(), 100, node_id
            ).synopses
        )
    result = benchmark(window_cut, synopses, 10_000)
    assert result.candidates


def test_dema_quantile_in_memory_20k(benchmark):
    windows = {
        1: EVENTS_10K,
        2: make_events(
            [RNG.gauss(110, 10) for _ in range(10_000)], node_id=2
        ),
    }
    result = benchmark(dema_quantile, windows, 0.5, 100)
    assert result.global_window_size == 20_000


def test_tdigest_add_10k(benchmark):
    def build():
        digest = TDigest(100)
        digest.add_all(VALUES_10K)
        return digest.quantile(0.5)

    result = benchmark(build)
    assert 90 < result < 110


def test_tdigest_merge_8_digests(benchmark):
    parts = []
    for i in range(8):
        digest = TDigest(100)
        digest.add_all(VALUES_10K[i * 1250 : (i + 1) * 1250])
        parts.append(digest)

    merged = benchmark(TDigest.merge_all, parts)
    assert merged.count == 10_000


def test_kll_add_10k(benchmark):
    from repro.sketches.kll import KllSketch

    def build():
        sketch = KllSketch(200, seed=1)
        sketch.add_all(VALUES_10K)
        return sketch.quantile(0.5)

    result = benchmark(build)
    assert 90 < result < 110


def test_qdigest_add_10k(benchmark):
    universe_values = [int(v * 10) % 4096 for v in VALUES_10K]

    def build():
        digest = QDigest(k=256, depth=12)
        digest.add_all(universe_values)
        return digest.quantile(0.5)

    benchmark(build)
