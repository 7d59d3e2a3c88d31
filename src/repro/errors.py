"""Exception hierarchy for the Dema reproduction.

All exceptions raised by :mod:`repro` derive from :class:`ReproError` so that
callers can catch library failures without also swallowing programming errors
such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "WindowError",
    "AggregationError",
    "SliceError",
    "IdentificationError",
    "CalculationError",
    "NetworkError",
    "RoutingError",
    "SimulationError",
    "CodecError",
    "TransportError",
    "SketchError",
    "GeneratorError",
    "HarnessError",
    "QueryError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A user-supplied configuration value is invalid or inconsistent."""


class WindowError(ReproError):
    """A window definition or window assignment is invalid."""


class AggregationError(ReproError):
    """An aggregation function was misused (e.g. empty-window quantile)."""


class SliceError(ReproError):
    """A local window could not be sliced, or a synopsis is malformed."""


class IdentificationError(ReproError):
    """The identification step received inconsistent synopses."""


class CalculationError(ReproError):
    """The calculation step could not select the requested rank."""


class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class RoutingError(NetworkError):
    """A message was addressed to an unknown node or channel."""


class SimulationError(NetworkError):
    """The discrete-event simulator reached an inconsistent state."""


class CodecError(NetworkError):
    """A frame could not be encoded or decoded (bad version, tag, length)."""


class TransportError(NetworkError):
    """A live transport failed (peer gone, stream closed, queue overrun)."""


class SketchError(ReproError):
    """A quantile sketch (the t-digest) was misused."""


class GeneratorError(ReproError):
    """The workload generator received invalid parameters."""


class HarnessError(ReproError):
    """The benchmark harness could not complete a measurement."""


class QueryError(ReproError):
    """A query spec is invalid or its lifecycle was violated."""
