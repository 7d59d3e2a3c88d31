"""Tests for window types and assigners."""

import pytest

from repro.errors import ConfigurationError, WindowError
from repro.streaming.windows import TumblingWindows, Window


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
