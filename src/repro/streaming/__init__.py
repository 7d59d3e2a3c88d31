"""Stream-processing substrate: events, windows, aggregations.

This subpackage implements the background machinery from Section 2 of the
paper: the event model used by data-stream nodes (value, timestamp, id), the
Dataflow-model window types (tumbling, sliding), and the two aggregation
functions on either side of Jesus et al.'s decomposability divide (sum and
the exact quantile).  Every system in the reproduction — Dema, the
Scotty and Desis baselines, and the t-digest system — runs on top of it.
"""

from repro.streaming.events import Event, EventKey, event_key, make_events
from repro.streaming.windows import (
    SlidingWindows,
    TumblingWindows,
    Window,
    WindowAssigner,
)
from repro.streaming.aggregates import (
    AggregationClass,
    AggregationFunction,
    get_function,
)

__all__ = [
    "Event",
    "EventKey",
    "event_key",
    "make_events",
    "Window",
    "WindowAssigner",
    "TumblingWindows",
    "SlidingWindows",
    "AggregationClass",
    "AggregationFunction",
    "get_function",
]
