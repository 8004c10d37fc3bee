"""The two visualization pipelines of the paper's Fig. 1.

* :class:`~repro.pipelines.insitu.InSituPipeline` — simulation and
  visualization coupled on the same machine; every sampled timestep is
  rendered through the Catalyst adaptor and committed as compact images in a
  Cinema database (Fig. 1b).
* :class:`~repro.pipelines.postprocessing.PostProcessingPipeline` — raw
  fields written to the parallel filesystem every sampled timestep, then a
  separate read-back + render pass (Fig. 1a).

Both run on either platform:

* :class:`~repro.pipelines.platform.SimulatedPlatform` — campaign scale on
  the discrete-event Caddy + Lustre models with full power metering;
* :class:`~repro.pipelines.real.RealPlatform` — miniature scale with the
  real ocean solver, real PNG rendering and real files, wall-clock timed.
  Only real-mode runs import :mod:`repro.pipelines.real`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.pipelines.insitu import InSituPipeline
    from repro.pipelines.intransit import InTransitPipeline
    from repro.pipelines.platform import SimulatedPlatform
    from repro.pipelines.postprocessing import PostProcessingPipeline
    from repro.pipelines.real import RealPlatform, RealScale
    from repro.pipelines.sampling import SamplingPolicy
    from repro.pipelines.base import Pipeline, PipelineSpec

__all__ = [
    "InSituPipeline",
    "InTransitPipeline",
    "Pipeline",
    "PipelineSpec",
    "PostProcessingPipeline",
    "RealPlatform",
    "RealScale",
    "SamplingPolicy",
    "SimulatedPlatform",
]

__getattr__, __dir__ = lazy_exports(__name__)
