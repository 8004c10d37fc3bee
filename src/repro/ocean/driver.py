"""Campaign configuration and cost model of the MPAS-O stand-in.

:class:`MPASOceanConfig` describes a campaign the way the paper does: grid
resolution (60 km), timestep (30 simulated minutes), duration (6 simulated
months), and the variables written per output sample.  From these it derives
cell counts, timestep counts and raw-output sizes — e.g. the paper's
reference configuration writes ≈0.47 GB per sample, giving ≈85 GB at
24-hourly sampling (paper measured 80 GB) and ≈28 GB at 72-hourly (paper: 27).

:class:`OceanCostModel` converts the configuration into per-timestep compute
cost on a given cluster, calibrated so the 60 km / 6-month run takes 603
compute-seconds on the 150-node *Caddy* — the paper's measured ``t_sim``.

The *real* executable version, which advances the barotropic solver and
exposes the same named output variables as actual arrays, is
:class:`~repro.pipelines.real.MiniOceanDriver`, part of the real platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError, ScenarioError
from repro.ocean.grid import icosahedral_cell_count
from repro.paper import GRID_RESOLUTION_KM, TIMESTEP_SECONDS
from repro.units import HOUR, MONTH

__all__ = ["MPASOceanConfig", "OceanCostModel"]

#: Variables written per output sample: six full-depth 3-D fields (the MPAS-O
#: prognostics plus the derived Okubo-Weiss field) and two 2-D fields, 8-byte
#: floats each.  This puts the raw sample at ≈0.47 GB, so 180 samples ≈ 85 GB
#: and 60 samples ≈ 28 GB — within ~6 % of the paper's measured 80/27 GB.
DEFAULT_3D_VARS = ("temperature", "salinity", "layer_thickness", "u", "v", "okubo_weiss")
DEFAULT_2D_VARS = ("ssh", "okubo_weiss_surface")


@dataclass(frozen=True)
class MPASOceanConfig:
    """A campaign-scale MPAS-O configuration (the paper's Section IV-B).

    It is also a scenario's ``ocean`` section, so a bad value raises
    :class:`~repro.errors.ScenarioError` at its scenario key.
    """

    resolution_km: float = GRID_RESOLUTION_KM
    n_vertical_levels: int = 60
    timestep_seconds: float = TIMESTEP_SECONDS
    duration_seconds: float = 6 * MONTH
    vars_3d: tuple[str, ...] = DEFAULT_3D_VARS
    vars_2d: tuple[str, ...] = DEFAULT_2D_VARS
    bytes_per_value: int = 8

    def __post_init__(self) -> None:
        if not self.resolution_km > 0:
            raise ScenarioError(
                "ocean.resolution_km", f"must be positive, got {self.resolution_km}"
            )
        if self.resolution_km == math.inf:
            raise ScenarioError(
                "ocean.resolution_km",
                f"must be positive and finite, got {self.resolution_km}",
            )
        if not self.n_vertical_levels >= 1:
            raise ScenarioError(
                "ocean.vertical_levels", f"need >= 1 level, got {self.n_vertical_levels}"
            )
        if not 0 < self.timestep_seconds < math.inf:
            raise ScenarioError(
                "ocean.timestep",
                f"must be positive and finite seconds, got {self.timestep_seconds}",
            )
        if not 0 < self.duration_seconds < math.inf:
            raise ScenarioError(
                "ocean.duration",
                f"must be positive and finite seconds, got {self.duration_seconds}",
            )
        if self.bytes_per_value not in (4, 8):
            raise ScenarioError(
                "ocean.bytes_per_value", f"expected 4 or 8, got {self.bytes_per_value}"
            )

    @property
    def n_cells(self) -> int:
        """Horizontal cell count of the quasi-uniform mesh (163,842 at 60 km)."""
        return icosahedral_cell_count(self.resolution_km)

    @property
    def n_timesteps(self) -> int:
        """Total simulation timesteps (8,640 for the reference run)."""
        return int(round(self.duration_seconds / self.timestep_seconds))

    @property
    def bytes_per_sample(self) -> int:
        """Raw output bytes per written sample (≈0.47 GB for the reference)."""
        per_cell = (
            len(self.vars_3d) * self.n_vertical_levels + len(self.vars_2d)
        ) * self.bytes_per_value
        return self.n_cells * per_cell

    def steps_between_outputs(self, sample_interval_hours: float) -> int:
        """Timesteps between output samples at the given cadence."""
        if not 0 < sample_interval_hours < math.inf:
            raise ConfigurationError(
                f"sample interval must be positive and finite: {sample_interval_hours}"
            )
        steps = sample_interval_hours * HOUR / self.timestep_seconds
        k = int(round(steps))
        if k < 1 or abs(steps - k) > 1e-9:
            raise ConfigurationError(
                f"sample interval {sample_interval_hours} h is not a whole number "
                f"of {self.timestep_seconds:.0f}-second timesteps"
            )
        return k

    def n_outputs(self, sample_interval_hours: float) -> int:
        """Number of output samples over the campaign at the given cadence."""
        return self.n_timesteps // self.steps_between_outputs(sample_interval_hours)

    def scaled(self, duration_seconds: float) -> "MPASOceanConfig":
        """The same configuration run for a different simulated duration."""
        return replace(self, duration_seconds=duration_seconds)


@dataclass(frozen=True)
class OceanCostModel:
    """Per-timestep compute cost of the ocean solver on a cluster.

    ``cost_per_cell_level_node_seconds`` is the node-seconds of compute per
    cell per vertical level per timestep.  The default is calibrated so the
    paper's reference run (163,842 cells × 60 levels × 8,640 steps on 150
    nodes) takes 603 seconds of pure simulation:

        603 s / 8640 steps × 150 nodes / (163842 × 60) ≈ 1.0648e-6
    """

    cost_per_cell_level_node_seconds: float = 603.0 / 8_640.0 * 150.0 / (163_842.0 * 60.0)

    def __post_init__(self) -> None:
        if self.cost_per_cell_level_node_seconds <= 0:
            raise ConfigurationError("cost coefficient must be positive")

    def seconds_per_step(self, config: MPASOceanConfig, n_nodes: int) -> float:
        """Wall seconds per simulation timestep on ``n_nodes`` nodes."""
        if n_nodes < 1:
            raise ConfigurationError(f"need >= 1 node, got {n_nodes}")
        work = config.n_cells * config.n_vertical_levels
        return self.cost_per_cell_level_node_seconds * work / n_nodes

    def simulation_seconds(self, config: MPASOceanConfig, n_nodes: int) -> float:
        """Wall seconds of the pure-simulation phase for a whole campaign."""
        return self.seconds_per_step(config, n_nodes) * config.n_timesteps
