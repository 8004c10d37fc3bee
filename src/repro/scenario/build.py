"""Build the runtime objects a :class:`Scenario` describes.

This is where declarative scenario data turns into the spec, pipelines
and engine the experiments run on.  The flag-driven CLI path goes through
:func:`scenario_from_args`, so both spellings construct the *same*
scenario and therefore the same objects — the byte-identical-telemetry
guarantee holds by construction.

The ``cluster`` and ``storage`` sections need no builder: they travel in
every :class:`~repro.exec.api.RunRequest` as they are, and
:meth:`~repro.pipelines.platform.SimulatedPlatform.from_topology` builds
each run's fresh platform from them.  A scenario on the paper's testbed
builds a spec equal to the library default, so its requests share cache
keys with plain library calls.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Optional, Tuple

from repro.scenario.schema import (
    ExecutionConfig,
    ExperimentConfig,
    FaultsCampaignConfig,
    ImagesConfig,
    OceanConfig,
    PowerConfig,
    SamplingConfig,
    Scenario,
    ScenarioError,
    TelemetryConfig,
)
from repro.units import MONTH

__all__ = [
    "build_ocean",
    "build_images",
    "build_spec",
    "build_pipelines",
    "build_engine",
    "scenario_from_args",
]


def build_ocean(config: OceanConfig):
    """The :class:`~repro.ocean.driver.MPASOceanConfig` a scenario describes."""
    from repro.ocean.driver import MPASOceanConfig

    return MPASOceanConfig(
        resolution_km=config.resolution_km,
        n_vertical_levels=config.vertical_levels,
        timestep_seconds=config.timestep_seconds,
        duration_seconds=config.duration_seconds,
        bytes_per_value=config.bytes_per_value,
    )


def build_images(config: ImagesConfig):
    """The :class:`~repro.viz.render.ImageSpec` a scenario describes."""
    from repro.viz.render import ImageSpec

    return ImageSpec(width=config.width, height=config.height)


def build_spec(scenario: Scenario):
    """The :class:`~repro.pipelines.base.PipelineSpec` for this scenario.

    A fault campaign runs at the spec's cadence, its one sampling interval.
    A characterization grid re-samples the spec per cell, so its spec keeps
    the library's default cadence.
    """
    from repro.pipelines.base import PipelineSpec
    from repro.pipelines.sampling import SamplingPolicy

    if scenario.experiment.kind == "faults":
        return PipelineSpec(
            ocean=build_ocean(scenario.ocean),
            sampling=SamplingPolicy(scenario.sampling.intervals_hours[0]),
            images=build_images(scenario.images),
        )
    return PipelineSpec(
        ocean=build_ocean(scenario.ocean), images=build_images(scenario.images)
    )


def build_pipelines(scenario: Scenario) -> Optional[Tuple]:
    """Pipeline instances for a non-default grid (``None`` = default pair)."""
    if scenario.pipelines is None:
        return None
    from repro.pipelines.insitu import InSituPipeline
    from repro.pipelines.intransit import InTransitPipeline
    from repro.pipelines.postprocessing import PostProcessingPipeline

    instances = []
    for entry in scenario.pipelines:
        if entry.kind == "in-transit":
            kwargs = {}
            if entry.staging_nodes is not None:
                kwargs["n_staging_nodes"] = entry.staging_nodes
            instances.append(InTransitPipeline(**kwargs))
        elif entry.kind == "in-situ":
            instances.append(InSituPipeline())
        else:
            instances.append(PostProcessingPipeline())
    return tuple(instances)


def build_engine(scenario: Scenario):
    """The execution engine a scenario's ``execution`` section asks for.

    Unset supervision options keep the :class:`~repro.exec.supervise.TaskPolicy`
    defaults.  The on-disk cache's code version and the sweep journal's
    label are namespaced by the scenario content digest, so artifacts key
    on the exact configuration that produced them.
    """
    from repro.exec.cache import DiskCache, default_code_version
    from repro.exec.engine import ExecutionEngine
    from repro.exec.supervise import SweepJournal, TaskPolicy

    config = scenario.execution
    stamp = f"scenario-{scenario.content_digest()[:12]}"
    cache = None
    if config.cache is not None:
        cache = DiskCache(
            config.cache, code_version=f"{default_code_version()}+{stamp}"
        )
    defaults = TaskPolicy()
    retry = defaults.retry
    if config.task_retries is not None:
        retry = replace(retry, max_attempts=config.task_retries)
    policy = TaskPolicy(
        deadline_seconds=config.deadline_seconds,
        retry=retry,
        max_worker_crashes=(
            config.max_worker_crashes
            if config.max_worker_crashes is not None
            else defaults.max_worker_crashes
        ),
        fail_policy=(
            config.fail_policy
            if config.fail_policy is not None
            else defaults.fail_policy
        ),
    )
    journal = None
    if config.journal is not None:
        journal = SweepJournal(config.journal, label=stamp)
    return ExecutionEngine(
        max_workers=config.workers,
        cache=cache,
        policy=policy,
        journal=journal,
        resume=config.resume,
    )


# ------------------------------------------------------------ flags → scenario


def _execution_from_args(args: argparse.Namespace) -> ExecutionConfig:
    return ExecutionConfig(
        workers=getattr(args, "workers", None),
        cache=getattr(args, "cache", None),
        deadline_seconds=getattr(args, "deadline", None),
        task_retries=getattr(args, "task_retries", None),
        max_worker_crashes=getattr(args, "max_worker_crashes", None),
        fail_policy=getattr(args, "fail_policy", None),
        journal=getattr(args, "journal", None),
        resume=bool(getattr(args, "resume", False)),
    )


def _telemetry_from_args(args: argparse.Namespace) -> TelemetryConfig:
    return TelemetryConfig(
        directory=getattr(args, "telemetry", None),
        timeline=not getattr(args, "no_timeline", False),
        interval_seconds=getattr(args, "timeline_interval", None),
        store=getattr(args, "store", None),
    )


def scenario_from_args(command: str, args: argparse.Namespace) -> Scenario:
    """The scenario equivalent to a legacy flag invocation, exactly."""
    common = {
        "power": PowerConfig(cap_watts=getattr(args, "power_cap", None)),
        "execution": _execution_from_args(args),
        "telemetry": _telemetry_from_args(args),
    }
    if command == "characterize":
        return Scenario(
            name="characterize",
            experiment=ExperimentConfig(kind="characterize"),
            sampling=SamplingConfig(intervals_hours=tuple(args.intervals)),
            **common,
        )
    if command == "whatif":
        return Scenario(
            name="whatif",
            experiment=ExperimentConfig(
                kind="whatif",
                years=args.years,
                sweep_intervals_hours=tuple(args.intervals),
                mtbf_hours=args.mtbf_hours,
                checkpoint_write_seconds=args.checkpoint_write_seconds,
                restart_seconds=args.restart_seconds,
            ),
            **common,
        )
    if command == "faults":
        return Scenario(
            name="faults",
            experiment=ExperimentConfig(kind="faults"),
            sampling=SamplingConfig(intervals_hours=(args.interval,)),
            ocean=OceanConfig(duration_seconds=args.months * MONTH),
            faults=FaultsCampaignConfig(
                seed=args.seed,
                mtbf_hours=args.mtbf_hours,
                checkpoint_every=args.checkpoint_every,
                restart_penalty_seconds=args.restart_penalty,
                brownout_rate_per_hour=args.brownout_rate,
                io_error_rate_per_hour=args.io_error_rate,
                include_unprotected=not args.no_unprotected,
            ),
            **common,
        )
    raise ScenarioError(
        "experiment.kind", f"no scenario mapping for command {command!r}"
    )
