"""Temporal sampling policies.

"Scientists are forced to save their data only every few steps using a
technique known as *temporal sampling*" (Section II-B).  A
:class:`SamplingPolicy` is the cadence at which output products (raw fields
or image sets) are committed, expressed in simulated hours — the unit of the
paper's x-axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.ocean.driver import MPASOceanConfig
from repro.units import HOUR

__all__ = ["SamplingPolicy", "PAPER_SAMPLING_GRID"]


@dataclass(frozen=True)
class SamplingPolicy:
    """Write one output every ``interval_hours`` simulated hours."""

    interval_hours: float

    def __post_init__(self) -> None:
        if not 0 < self.interval_hours < math.inf:
            raise ConfigurationError(
                f"sampling interval must be positive and finite: {self.interval_hours}"
            )

    @property
    def interval_seconds(self) -> float:  # repro-unit: seconds
        """Sampling interval in simulated seconds."""
        return self.interval_hours * HOUR

    @property
    def outputs_per_day(self) -> float:
        """Output products per simulated day."""
        return 24.0 / self.interval_hours

    def steps_between_outputs(self, config: MPASOceanConfig) -> int:
        """Simulation timesteps between consecutive outputs."""
        return config.steps_between_outputs(self.interval_hours)

    def n_outputs(self, config: MPASOceanConfig) -> int:
        """Output products over a whole campaign."""
        return config.n_outputs(self.interval_hours)

    def rate_ratio(self, reference: "SamplingPolicy") -> float:
        """``rate_any / rate_ref`` of Equations (6)–(7).

        Rates are *frequencies*: sampling twice as often doubles the ratio,
        i.e. the ratio is ``reference.interval_hours / self.interval_hours``.
        """
        return reference.interval_hours / self.interval_hours

    def __str__(self) -> str:
        if self.interval_hours >= 24 and self.interval_hours % 24 == 0:
            days = self.interval_hours / 24
            return "every day" if days == 1 else f"every {days:g} days"
        return f"every {self.interval_hours:g} h"


#: The paper's three measured configurations: outputs written once every
#: 8, 24 and 72 simulated hours.
PAPER_SAMPLING_GRID: tuple[SamplingPolicy, ...] = (
    SamplingPolicy(8.0),
    SamplingPolicy(24.0),
    SamplingPolicy(72.0),
)
