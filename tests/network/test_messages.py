"""Tests for message types and byte-exact sizing."""

import numpy as np

from repro.network.messages import (
    MESSAGE_HEADER_BYTES,
    CandidateEventsMessage,
    CandidateRequestMessage,
    DigestMessage,
    EventBatchMessage,
    GammaUpdateMessage,
    Message,
    ResultMessage,
    SortedRunMessage,
    SynopsisMessage,
    WatermarkMessage,
    batch_events,
    synopsis_section_bytes,
)
from repro.streaming.events import EVENT_WIRE_BYTES, make_events
from repro.streaming.windows import Window

WINDOW = Window(0, 1000)


class TestBaseMessage:
    def test_wire_bytes_is_header_plus_payload(self):
        message = Message(sender=1, window=WINDOW)
        assert message.wire_bytes == MESSAGE_HEADER_BYTES
        assert message.payload_bytes == 0


class TestEventCarryingMessages:
    def test_event_batch_scales_with_events(self):
        events = tuple(make_events([1, 2, 3]))
        message = EventBatchMessage(sender=1, window=WINDOW, events=events)
        assert message.payload_bytes == 4 + 3 * EVENT_WIRE_BYTES

    def test_sorted_run_same_cost_as_raw(self):
        # Same count framing as the raw batch, but the root reads only
        # values, so a sorted run ships 8 bytes an event, not 20.
        events = tuple(make_events([1, 2, 3]))
        raw = EventBatchMessage(sender=1, window=WINDOW, events=events)
        run = SortedRunMessage(
            sender=1, window=WINDOW, events=np.array([1.0, 2.0, 3.0])
        )
        assert run.payload_bytes == raw.payload_bytes - 3 * (
            EVENT_WIRE_BYTES - 8
        )

    def test_candidate_events_adds_slice_index(self):
        message = CandidateEventsMessage(
            sender=1, window=WINDOW, slice_index=0, events=np.array([1.0, 2.0])
        )
        assert message.payload_bytes == 8 + 2 * 8

    def test_batch_events_helper(self):
        events = make_events([1.0])
        message = batch_events(3, WINDOW, events)
        assert message.sender == 3
        assert message.events == tuple(events)


class TestControlMessages:
    def test_synopsis_message_size(self):
        message = SynopsisMessage(
            sender=1, window=WINDOW, synopses=(object(), object()),
            local_window_size=100,
        )
        # Count, local size and gamma, then 2 + 1 boundaries.
        assert message.payload_bytes == 4 + 8 + 4 + 3 * 8 == 40
        empty = SynopsisMessage(sender=1, window=WINDOW, local_window_size=0)
        assert empty.payload_bytes == 4 + 8 + 4 == 16

    def test_synopsis_cheaper_than_raw_events_it_summarizes(self):
        # One synopsis summarizes gamma >= 2 events, so it must be strictly
        # cheaper than the two events of the smallest slice: a boundary is
        # one value, and each local adds one more and its section header.
        per_synopsis = synopsis_section_bytes(2) - synopsis_section_bytes(1)
        assert per_synopsis == 8 < 2 * EVENT_WIRE_BYTES

    def test_candidate_request_size(self):
        message = CandidateRequestMessage(
            sender=0, window=WINDOW, slice_indices=(1, 2, 3)
        )
        assert message.payload_bytes == 4 + 12

    def test_gamma_update_small(self):
        message = GammaUpdateMessage(sender=0, window=WINDOW, gamma=100)
        assert message.payload_bytes == 4

    def test_watermark_size(self):
        message = WatermarkMessage(sender=1, window=WINDOW, watermark_time=10)
        assert message.payload_bytes == 8

    def test_result_size(self):
        message = ResultMessage(
            sender=0, window=WINDOW, value=1.0, global_window_size=5
        )
        assert message.payload_bytes == 16

    def test_digest_scales_with_centroids(self):
        message = DigestMessage(
            sender=1, window=WINDOW, centroids=((1.0, 2.0), (3.0, 4.0))
        )
        # count + exact min/max + two (mean, weight) pairs.
        assert message.payload_bytes == 4 + 2 * 8 + 2 * 16


class TestImmutability:
    def test_messages_are_frozen(self):
        import pytest

        message = GammaUpdateMessage(sender=0, window=WINDOW, gamma=10)
        with pytest.raises(AttributeError):
            message.gamma = 20
