"""Synthetic DEBS-2013-style sensor stream generator.

The paper's generators replay the DEBS 2013 soccer-monitoring dataset from
per-node offsets and expose two knobs (Section 4, "Generators"):

* **scale rate** — multiplies event values, shifting a node's distribution;
  identical scale rates → overlapping distributions (more compound slices),
  very different scale rates → disjoint distributions.
* **event rate** — events per second, which drives local window sizes.

The stand-in process is a reflected mean-reverting random walk: values are
autocorrelated (like positions/velocities of tracked players), bounded below
by zero (so scaled streams still overlap near the origin, which is what
makes the paper's Dema #2 / #10 configurations "denser on the left"), and
span roughly ``[0, 2·mean]``.  Replay offsets are emulated by seeding each
node's walk independently.

A stream is born columnar: one :class:`~repro.streaming.columns.EventColumns`
batch per node, built from the value and timestamp arrays, which every
simulated and live door takes as it is (iterating it yields ``Event``
objects).  ``workload_columns`` is :func:`workload` under its former name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from repro.errors import GeneratorError
from repro.streaming.columns import EventColumns

# Hot-path module: streams are built as columns from the generated arrays;
# no per-event ``Event`` here (enforced by tests/test_hotpath_lint.py).

__all__ = [
    "GeneratorConfig",
    "SensorStreamGenerator",
    "workload",
    "workload_columns",
]

#: Long-run mean of the (unscaled) value process.
MEAN = 40.0
#: Mean-reversion strength per step, in ``(0, 1]``.
REVERSION = 0.02
#: Per-step noise standard deviation.
VOLATILITY = 6.0


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    """Parameters of one node's synthetic sensor stream.

    Attributes:
        event_rate: Events per second; must be > 0.
        duration_s: Stream duration in seconds; must be > 0.
        scale_rate: Multiplier applied to every value (the paper's knob).
        seed: Base RNG seed; combined with node id and replay offset.
        replay_offset: Emulates replaying the dataset from a different
            position — different offsets give independent value walks.
    """

    event_rate: float
    duration_s: float
    scale_rate: float = 1.0
    seed: int = 42
    replay_offset: int = 0

    def __post_init__(self) -> None:
        if self.event_rate <= 0:
            raise GeneratorError(f"event_rate must be > 0, got {self.event_rate}")
        if self.duration_s <= 0:
            raise GeneratorError(f"duration_s must be > 0, got {self.duration_s}")
        if self.scale_rate <= 0:
            raise GeneratorError(f"scale_rate must be > 0, got {self.scale_rate}")

    @property
    def n_events(self) -> int:
        """Number of events the stream will contain."""
        return max(1, int(round(self.event_rate * self.duration_s)))


class SensorStreamGenerator:
    """Generates one node's deterministic event stream."""

    def __init__(self, config: GeneratorConfig) -> None:
        self._config = config

    @property
    def config(self) -> GeneratorConfig:
        """The generator parameters."""
        return self._config

    def values(self, node_id: int) -> np.ndarray:
        """The raw (scaled) value series for ``node_id``."""
        from scipy.signal import lfilter

        cfg = self._config
        rng = np.random.default_rng((cfg.seed, node_id, cfg.replay_offset))
        n = cfg.n_events
        noise = rng.normal(0.0, VOLATILITY, size=n)
        noise[0] += rng.normal(0.0, VOLATILITY * 4)
        # AR(1) deviation process x_i = (1 - reversion) * x_{i-1} + noise_i,
        # vectorized as an IIR filter; reflecting at zero keeps every stream
        # anchored at the origin so scaled streams still overlap there.
        deviations = lfilter([1.0], [1.0, -(1.0 - REVERSION)], noise)
        values = np.abs(MEAN + deviations)
        return values * cfg.scale_rate

    def timestamps(self, node_id: int) -> np.ndarray:
        """Event-time timestamps in milliseconds, evenly spread with jitter."""
        cfg = self._config
        rng = np.random.default_rng(
            (cfg.seed + 1_000_003, node_id, cfg.replay_offset)
        )
        n = cfg.n_events
        span_ms = cfg.duration_s * 1000.0
        base = np.linspace(0.0, span_ms, num=n, endpoint=False)
        jitter = rng.uniform(0.0, span_ms / n, size=n)
        stamps = np.floor(base + jitter).astype(np.int64)
        np.maximum.accumulate(stamps, out=stamps)
        return stamps

    def generate(self, node_id: int) -> EventColumns:
        """The node's full stream in timestamp order, ``seq`` from 0 (its
        timestamps are in the wire's u32 range for any realistic duration)."""
        return EventColumns.from_arrays(
            self.values(node_id), self.timestamps(node_id), node_id
        )


def workload(
    node_ids: list[int] | range,
    base_config: GeneratorConfig,
    *,
    scale_rates: Mapping[int, float] | None = None,
    event_rates: Mapping[int, float] | None = None,
) -> dict[int, EventColumns]:
    """Generate streams for many nodes with per-node overrides.

    Args:
        node_ids: The local-node ids to generate for.
        base_config: Shared parameters; each node replays from its own
            offset (derived from its id).
        scale_rates: Optional per-node scale-rate overrides.
        event_rates: Optional per-node event-rate overrides.

    Returns:
        One columnar batch per node id, each in timestamp order.
    """
    return {
        node_id: SensorStreamGenerator(
            _node_config(base_config, node_id, scale_rates, event_rates)
        ).generate(node_id)
        for node_id in node_ids
    }


#: The same function under its former columnar name, kept only because the
#: benchmark's workload module imports it by that name.
workload_columns = workload


def _node_config(
    base_config: GeneratorConfig,
    node_id: int,
    scale_rates: Mapping[int, float] | None,
    event_rates: Mapping[int, float] | None,
) -> GeneratorConfig:
    config = replace(
        base_config, replay_offset=base_config.replay_offset + node_id
    )
    if scale_rates is not None and node_id in scale_rates:
        config = replace(config, scale_rate=scale_rates[node_id])
    if event_rates is not None and node_id in event_rates:
        config = replace(config, event_rate=event_rates[node_id])
    return config
