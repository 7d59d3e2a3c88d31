"""Round-trip tests for the relay combine/explode frame transforms.

The relay invariant is lossless reconstruction: exploding a combined
frame must yield the exact per-child frames the children sent, so the
root operators cannot tell a relay was involved.
"""

import numpy as np

from repro import make_events
from repro.core.slicing import slice_sorted_events
from repro.core.synopsis import SynopsisColumns
from repro.mesh.relay import (
    combine_runs,
    combine_synopses,
    explode_runs,
    explode_synopses,
)
from repro.network.messages import CandidateEventsMessage, SynopsisMessage
from repro.runtime.codec import decode_frame, encode_frame
from repro.streaming.columns import EventColumns
from repro.streaming.windows import Window

WINDOW = Window(1_000, 2_000)
RELAY = 1 << 21


def synopsis_frame(child: int, n: int) -> SynopsisMessage:
    # Synopses are opaque to the relay; sentinels are enough to prove
    # the transform is lossless.
    return SynopsisMessage(
        sender=child,
        window=WINDOW,
        synopses=tuple(("synopsis", child, i) for i in range(n)),
        local_window_size=10 * n,
    )


class TestSynopsisRoundTrip:
    def test_explode_reconstructs_child_frames(self):
        parts = {child: synopsis_frame(child, child) for child in (3, 1, 2)}
        combined = combine_synopses(parts, RELAY, WINDOW)
        exploded = explode_synopses(combined)
        assert {m.sender: m for m in exploded} == parts

    def test_sections_sorted_by_child(self):
        parts = {child: synopsis_frame(child, 1) for child in (9, 2, 5)}
        combined = combine_synopses(parts, RELAY, WINDOW)
        assert [node_id for node_id, _, _ in combined.sections] == [2, 5, 9]

    def test_deterministic_bytes(self):
        parts_a = {child: synopsis_frame(child, 2) for child in (2, 1)}
        parts_b = {child: synopsis_frame(child, 2) for child in (1, 2)}
        assert (
            combine_synopses(parts_a, RELAY, WINDOW)
            == combine_synopses(parts_b, RELAY, WINDOW)
        )

    def test_relay_is_the_sender(self):
        combined = combine_synopses({1: synopsis_frame(1, 1)}, RELAY, WINDOW)
        assert combined.sender == RELAY
        assert combined.window == WINDOW


    def test_columnar_batches_pass_through_untouched(self):
        # The relay never rows a batch out: the section holds the decoded
        # batch itself, and over the wire it comes back columnar and equal.
        parts = {}
        for child in (2, 1):
            events = EventColumns.from_events(
                make_events([float(i) for i in range(25)], node_id=child)
            )
            cut = slice_sorted_events(events.values, 4, child)
            parts[child] = decode_frame(encode_frame(SynopsisMessage(
                sender=child, window=WINDOW, synopses=cut.synopses,
                local_window_size=cut.window_size,
            )))
        combined = combine_synopses(parts, RELAY, WINDOW)
        assert all(
            batch is parts[child].synopses
            for child, _, batch in combined.sections
        )
        exploded = explode_synopses(decode_frame(encode_frame(combined)))
        assert all(isinstance(m.synopses, SynopsisColumns) for m in exploded)
        assert {m.sender: m for m in exploded} == parts
        assert [encode_frame(m) for m in exploded] == [
            encode_frame(parts[child]) for child in (1, 2)
        ]


class TestRunsRoundTrip:
    def run_frame(self, child: int, index: int) -> CandidateEventsMessage:
        values = np.array([1.0 * child, 2.0 * child + index])
        return CandidateEventsMessage(
            sender=child, window=WINDOW, slice_index=index, events=values
        )

    def test_explode_reconstructs_runs(self):
        parts = {
            (child, index): self.run_frame(child, index)
            for child in (1, 2)
            for index in (0, 1)
        }
        combined = combine_runs(parts, RELAY, WINDOW)
        exploded = explode_runs(combined)
        assert {(m.sender, m.slice_index): m for m in exploded} == parts

    def test_sections_sorted_by_child_then_index(self):
        parts = {
            key: self.run_frame(*key)
            for key in [(2, 1), (1, 1), (2, 0), (1, 0)]
        }
        combined = combine_runs(parts, RELAY, WINDOW)
        assert [(c, i) for c, i, _ in combined.sections] == [
            (1, 0), (1, 1), (2, 0), (2, 1),
        ]

    def test_combined_frame_is_smaller_than_parts(self):
        parts = {
            (child, 0): self.run_frame(child, 0) for child in range(1, 9)
        }
        combined = combine_runs(parts, RELAY, WINDOW)
        assert combined.payload_bytes < sum(
            part.payload_bytes for part in parts.values()
        ) + 8 * 16  # eight saved frame headers dwarf the section overhead
