"""Mini ocean model: the MPAS-O stand-in.

Two layers:

* A *real, runnable* pseudo-spectral barotropic-vorticity solver
  (:mod:`repro.ocean.barotropic`) on a doubly periodic grid.  It produces
  genuinely turbulent, eddying velocity fields from which the Okubo-Weiss
  metric (:mod:`repro.ocean.okubo_weiss`) and eddy detections/tracks
  (:mod:`repro.ocean.eddies`) are computed — the full analysis code path of
  the paper's visualization task.
* A *campaign-scale configuration and cost model*
  (:mod:`repro.ocean.driver`) describing the paper's 60 km global MPAS-O
  setup (cell counts, output sizes, per-step compute cost on a given
  cluster), used by the simulated platform.

The runnable driver that steps the solver and exposes MPAS-O-style output
variables, :class:`MiniOceanDriver`, belongs to the real platform
(:mod:`repro.pipelines.real`); this package re-exports it.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.ocean.barotropic import BarotropicSolver
    from repro.ocean.diagnostics import SimulationMonitor, energy_spectrum, spectral_slope
    from repro.ocean.driver import MPASOceanConfig, OceanCostModel
    from repro.ocean.eddies import Eddy, EddyTrack, detect_eddies, track_eddies
    from repro.ocean.grid import SpectralGrid, icosahedral_cell_count
    from repro.ocean.okubo_weiss import okubo_weiss, okubo_weiss_classification
    from repro.ocean.tracer import TracerField
    from repro.pipelines.real import MiniOceanDriver

__all__ = [
    "BarotropicSolver",
    "Eddy",
    "EddyTrack",
    "MPASOceanConfig",
    "MiniOceanDriver",
    "OceanCostModel",
    "SimulationMonitor",
    "SpectralGrid",
    "TracerField",
    "detect_eddies",
    "energy_spectrum",
    "icosahedral_cell_count",
    "okubo_weiss",
    "okubo_weiss_classification",
    "spectral_slope",
    "track_eddies",
]

__getattr__, __dir__ = lazy_exports(__name__)
