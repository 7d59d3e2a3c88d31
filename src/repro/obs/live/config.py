"""TelemetryConfig: the one knob that turns the live telemetry plane on.

The live cluster driver takes ``telemetry=None`` (the default: no trace
context on the wire, no sampler task, no HTTP endpoint, no flight
recorder — zero new code on the hot path) or a :class:`TelemetryConfig`
describing which parts of the plane to start and how aggressively to
sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.errors import ConfigurationError

__all__ = ["TelemetryConfig"]


@dataclass(frozen=True, slots=True)
class TelemetryConfig:
    """Configuration for the live cluster's telemetry plane.

    Attributes:
        sample_rate: Head-based trace sampling rate in ``[0, 1]``.  The
            verdict is made once per window (the trace root) from the
            trace id alone, so it is deterministic across nodes and
            reruns.  ``1.0`` traces every window.
        http_port: Port for the scrape endpoint (``/metrics``,
            ``/timeline/<window-start>``, ``/summary``, ``/healthz``).
            ``0`` binds an ephemeral port; ``None`` starts no server.  It
            binds the loopback interface.
        sampler_interval_s: Period of the runtime sampler (event-loop
            lag, send backlogs, GC pauses).  ``0`` disables the sampler.
        flight_recorder_path: Where the flight recorder dumps its ring
            buffer when the cluster's failure latch trips.  ``None``
            disables the recorder.  The ring keeps the last 2048 span/event
            records.
        announce: Called once with the bound HTTP port after the scrape
            endpoint starts (the config is frozen, so an ephemeral port
            cannot be written back; tests and the CLI use this to learn
            where to point a client).
    """

    sample_rate: float = 1.0
    http_port: int | None = None
    sampler_interval_s: float = 0.05
    flight_recorder_path: Path | str | None = None
    announce: Callable[[int], None] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ConfigurationError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )
        if self.http_port is not None and not 0 <= self.http_port <= 65535:
            raise ConfigurationError(
                f"http_port must be in [0, 65535], got {self.http_port}"
            )
        if self.sampler_interval_s < 0:
            raise ConfigurationError(
                "sampler_interval_s must be >= 0, got "
                f"{self.sampler_interval_s}"
            )
