"""The Section IV/V characterization methodology, end to end.

:func:`run_characterization` executes the paper's full experiment grid —
both pipelines at the 8/24/72-hour cadences on an instrumented (simulated)
platform — and wraps the results in a :class:`CharacterizationStudy`, which
can then:

* render the Section V comparison tables (time / power / energy / storage);
* calibrate the analytical model from the paper's three training
  configurations and validate it on the held-out three (Fig. 8);
* build the calibrated :class:`~repro.core.whatif.WhatIfAnalyzer` that
  drives the Fig. 9 / Fig. 10 analyses;
* benchmark the storage cluster's power proportionality (the 2273→2302 W
  measurement of Section V).

The Section VI and VII methods import the calibration, the model and the
what-if analyzer themselves, so running the grid loads none of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.metrics import IN_SITU, POST_PROCESSING, Measurement, MetricSet
from repro.errors import ConfigurationError, SweepError
from repro.exec.api import RunRequest, require_registered
from repro.exec.engine import ExecutionEngine
from repro.pipelines.base import Pipeline, PipelineSpec
from repro.pipelines.insitu import InSituPipeline
from repro.pipelines.postprocessing import PostProcessingPipeline
from repro.pipelines.sampling import SamplingPolicy
from repro.storage.lustre import StorageCluster

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.calibration import CalibrationPoint, CalibrationResult
    from repro.core.whatif import WhatIfAnalyzer
    from repro.scenario.schema import ClusterConfig, StorageConfig

__all__ = ["CharacterizationStudy", "run_characterization", "storage_power_sweep"]

#: The paper's training configurations for Eq. (5): (pipeline, interval).
TRAINING_CONFIGS: tuple[tuple[str, float], ...] = (
    (IN_SITU, 8.0),
    (IN_SITU, 72.0),
    (POST_PROCESSING, 24.0),
)


class CharacterizationStudy:
    """Results of one full experiment grid plus derived models."""

    def __init__(self, metrics: MetricSet, spec: PipelineSpec) -> None:
        self.metrics = metrics
        self.spec = spec

    # ----------------------------------------------------------- Section V

    def table(self) -> str:
        """The Section V comparison table across the grid."""
        return self.metrics.table()

    def to_dict(self) -> dict:
        """The grid and its cross-pipeline comparisons as a JSON-safe dict."""
        comparisons = {}
        for h in self.metrics.sample_intervals():
            comparisons[f"{h:g}"] = {
                "time_savings": self.metrics.time_savings(h),
                "energy_savings": self.metrics.energy_savings(h),
                "storage_savings": self.metrics.storage_savings(h),
                "power_change": self.metrics.power_change(h),
            }
        return {
            "measurements": [m.to_dict() for m in self.metrics],
            "comparisons": comparisons,
        }

    def findings(self) -> str:
        """Narrative summary mirroring the paper's Findings 1–5."""
        lines = []
        for h in self.metrics.sample_intervals():
            lines.append(
                f"every {h:g} h: in-situ is {100 * self.metrics.time_savings(h):.0f}% "
                f"faster, saves {100 * self.metrics.energy_savings(h):.0f}% energy and "
                f"{100 * self.metrics.storage_savings(h):.1f}% storage; power changes "
                f"by {100 * self.metrics.power_change(h):+.1f}%"
            )
        return "\n".join(lines)

    # ---------------------------------------------------------- Section VI

    def training_points(self) -> list[CalibrationPoint]:
        """The three Eq. (5) configurations as calibration points."""
        from repro.core.calibration import points_from_measurements

        return points_from_measurements(
            self.metrics.get(p, h) for p, h in TRAINING_CONFIGS
        )

    def holdout_points(self) -> list[CalibrationPoint]:
        """The remaining grid cells (Fig. 8's evaluation points)."""
        from repro.core.calibration import points_from_measurements

        training = set(TRAINING_CONFIGS)
        held = [
            m
            for m in self.metrics
            if (m.pipeline, m.sample_interval_hours) not in training
        ]
        return points_from_measurements(held, iter_ref=self.spec.ocean.n_timesteps)

    def average_power(self) -> float:
        """Grid-mean total power (constant across cells, per Fig. 5)."""
        powers = [m.average_power for m in self.metrics if m.average_power is not None]
        if not powers:
            raise ConfigurationError("no metered measurements in the study")
        return float(np.mean(powers))

    def calibrate(self) -> CalibrationResult:
        """Fit Eq. (5) exactly from the three training configurations."""
        from repro.core.calibration import calibrate_exact

        return calibrate_exact(
            self.training_points(),
            iter_ref=self.spec.ocean.n_timesteps,
            power_watts=self.average_power(),
        )

    def validate(self) -> list[tuple[CalibrationPoint, float, float]]:
        """Fig. 8: evaluate the calibrated model on the held-out cells."""
        return self.calibrate().validate(self.holdout_points())

    # --------------------------------------------------------- Section VII

    def analyzer(self, reference_interval_hours: float = 24.0) -> WhatIfAnalyzer:
        """The calibrated what-if analyzer for Figs. 9 and 10."""
        from repro.core.model import DataModel, PipelinePredictor
        from repro.core.whatif import WhatIfAnalyzer

        result = self.calibrate()
        insitu = PipelinePredictor(
            pipeline=IN_SITU,
            model=result.model,
            data=DataModel.from_measurement(
                self.metrics.get(IN_SITU, reference_interval_hours)
            ),
        )
        post = PipelinePredictor(
            pipeline=POST_PROCESSING,
            model=result.model,
            data=DataModel.from_measurement(
                self.metrics.get(POST_PROCESSING, reference_interval_hours)
            ),
        )
        return WhatIfAnalyzer(
            insitu, post, timestep_seconds=self.spec.ocean.timestep_seconds
        )


def run_characterization(
    *,
    intervals_hours: Sequence[float] = (8.0, 24.0, 72.0),
    spec: Optional[PipelineSpec] = None,
    engine: Optional[ExecutionEngine] = None,
    pipelines: Optional[Sequence[Pipeline]] = None,
    cluster: Optional["ClusterConfig"] = None,
    storage: Optional["StorageConfig"] = None,
) -> CharacterizationStudy:
    """Run the full experiment grid and return the study.

    Each (pipeline, cadence) cell runs on a *fresh* platform — the paper's
    dedicated-machine discipline ("we ran our test application on the entire
    cluster so that we are measuring only the power consumed by our
    application").  The grid goes through the execution engine, so passing
    an ``engine`` with workers and/or a cache fans the cells out in parallel
    and memoizes them; the default engine runs them inline, bit-identical
    to the historical serial loop.

    ``pipelines`` widens or reorders the grid: a sequence of registered
    :class:`~repro.pipelines.base.Pipeline` instances replacing the default
    in-situ / post-processing pair (e.g. adding
    :class:`~repro.pipelines.intransit.InTransitPipeline`).  ``cluster``
    and ``storage`` are a scenario's topology sections; ``None`` is the
    paper's testbed.  They travel in every request, so a custom topology
    gets the same pool, cache and supervision as the paper's.
    """
    if not intervals_hours:
        raise ConfigurationError("need at least one sampling interval")
    base = spec if spec is not None else PipelineSpec()
    if pipelines is None:
        pipelines = (InSituPipeline(), PostProcessingPipeline())
    for pipeline in pipelines:
        require_registered(pipeline)
    requests = [
        RunRequest(
            spec=base.with_sampling(SamplingPolicy(hours)),
            cluster=cluster,
            storage=storage,
        ).bound_to(pipeline)
        for hours in intervals_hours
        for pipeline in pipelines
    ]
    runner = engine if engine is not None else ExecutionEngine()
    results = runner.map(requests)
    failed = [r.failure for r in results if r.failure is not None]
    if failed:
        # The study aggregates every cell of the grid; a missing cell
        # would silently skew Fig. 6/7 tables, so surface the failures
        # instead of averaging around the hole.
        raise SweepError(
            f"characterization grid lost {len(failed)} of "
            f"{len(results)} cells to task failures",
            failures=failed,
            results=results,
        )
    metrics = MetricSet()
    for result in results:
        metrics.add(result.measurement)
    return CharacterizationStudy(metrics, base)


def storage_power_sweep(
    storage: Optional[StorageCluster] = None,
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> list[tuple[float, float]]:
    """Benchmark storage power proportionality (Section V).

    Returns ``(throughput_bytes_per_s, watts)`` pairs from idle to full load
    — the paper's 2273 W → 2302 W measurement.
    """
    from repro.events.engine import Simulator

    cluster = storage if storage is not None else StorageCluster(Simulator())
    model = cluster.power_model
    rows = []
    for f in fractions:
        if not 0.0 <= f <= 1.0:
            raise ConfigurationError(f"load fraction outside [0, 1]: {f}")
        throughput = f * model.rated_bandwidth
        rows.append((throughput, model.power(throughput)))
    return rows
