"""Tests for window types and assigners."""

import pytest

from repro.errors import ConfigurationError, WindowError
from repro.streaming.windows import SlidingWindows, TumblingWindows, Window


class TestWindow:
    def test_length(self):
        assert Window(0, 1000).length == 1000

    def test_contains_half_open(self):
        window = Window(0, 10)
        assert window.contains(0)
        assert window.contains(9)
        assert not window.contains(10)
        assert not window.contains(-1)

    def test_invalid_window_rejected(self):
        with pytest.raises(WindowError):
            Window(10, 10)
        with pytest.raises(WindowError):
            Window(10, 5)

    def test_windows_sort_chronologically(self):
        windows = [Window(20, 30), Window(0, 10), Window(10, 20)]
        assert sorted(windows)[0] == Window(0, 10)


class TestTumblingWindows:
    def test_assigns_single_window(self):
        assigner = TumblingWindows(1000)
        assert assigner.assign(1500) == (Window(1000, 2000),)

    def test_boundary_belongs_to_next_window(self):
        assigner = TumblingWindows(1000)
        assert assigner.window_for(1000) == Window(1000, 2000)
        assert assigner.window_for(999) == Window(0, 1000)

    def test_windows_partition_time(self):
        assigner = TumblingWindows(7)
        for t in range(100):
            window = assigner.window_for(t)
            assert window.contains(t)
            assert window.length == 7

    def test_invalid_length_rejected(self):
        with pytest.raises(ConfigurationError):
            TumblingWindows(0)


class TestSlidingWindows:
    def test_overlap_count(self):
        assigner = SlidingWindows(length=10, step=5)
        windows = assigner.assign(12)
        assert windows == (Window(5, 15), Window(10, 20))

    def test_every_assigned_window_contains_timestamp(self):
        assigner = SlidingWindows(length=12, step=4)
        for t in range(60):
            for window in assigner.assign(t):
                assert window.contains(t)

    def test_step_equal_length_is_tumbling(self):
        sliding = SlidingWindows(length=10, step=10)
        tumbling = TumblingWindows(10)
        for t in range(50):
            assert sliding.assign(t) == tumbling.assign(t)

    def test_windows_returned_in_chronological_order(self):
        assigner = SlidingWindows(length=10, step=2)
        windows = assigner.assign(9)
        assert list(windows) == sorted(windows)

    def test_step_larger_than_length_rejected(self):
        with pytest.raises(ConfigurationError):
            SlidingWindows(length=5, step=6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            SlidingWindows(length=0, step=1)
        with pytest.raises(ConfigurationError):
            SlidingWindows(length=5, step=0)

