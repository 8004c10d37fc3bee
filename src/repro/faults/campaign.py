"""Seeded fault campaigns: both pipelines under identical fault loads.

A campaign answers the PR's headline question — *what do faults cost, in
seconds and joules, and which pipeline degrades more gracefully?* — with a
controlled experiment:

1. run each pipeline fault-free on a fresh platform (the baseline);
2. build **one** seeded :class:`~repro.faults.spec.FaultSpec` whose horizon
   covers the slowest baseline, so every pipeline faces the *identical*
   fault load;
3. re-run each pipeline under that spec with checkpoint/restart protection
   (and optionally once unprotected, to demonstrate the abort);
4. report time/energy recovery overhead per pipeline, alongside the
   analytic :class:`~repro.faults.model.FailureModel` prediction.

Every run uses a fresh platform built from its request, so measurements
never share simulator state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro import obs
from repro.core.metrics import Measurement
from repro.errors import ConfigurationError, FaultError, ReproError
from repro.faults.model import FailureModel
from repro.faults.resilience import CheckpointPolicy
from repro.faults.spec import FaultSpec
from repro.pipelines.base import Pipeline, PipelineSpec
from repro.pipelines.insitu import InSituPipeline
from repro.pipelines.postprocessing import PostProcessingPipeline
from repro.units import HOUR, format_energy, format_seconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.api import RunRequest
    from repro.scenario.schema import ClusterConfig, StorageConfig

__all__ = ["PipelineFaultReport", "FaultCampaignResult", "run_fault_campaign"]

#: Fault horizon as a multiple of the slowest fault-free run — leaves room
#: for the recovery-inflated runtime while keeping the load comparable.
HORIZON_SAFETY_FACTOR = 3.0


@dataclass
class PipelineFaultReport:
    """One pipeline's baseline vs faulted comparison."""

    pipeline: str
    baseline: Measurement
    protected: Optional[Measurement]
    fault_summary: dict = field(default_factory=dict)
    #: What happened without checkpointing under the same fault load:
    #: ``"completed"``, ``"aborted: <error>"`` or ``"skipped"``.
    unprotected_outcome: str = "skipped"
    #: Analytic Daly-model prediction of the time-inflation ratio.
    model_overhead_ratio: Optional[float] = None

    @property
    def time_overhead_seconds(self) -> float:
        """Extra execution time paid to faults + resilience."""
        if self.protected is None:
            return float("nan")
        return self.protected.execution_time - self.baseline.execution_time

    @property
    def energy_overhead_joules(self) -> float:
        """Extra energy paid to faults + resilience (Eq. 1 on both runs)."""
        if self.protected is None or self.protected.energy is None or self.baseline.energy is None:
            return float("nan")
        return self.protected.energy - self.baseline.energy

    @property
    def overhead_ratio(self) -> float:
        """Fractional runtime inflation over the fault-free baseline."""
        if self.protected is None:
            return float("nan")
        return self.protected.execution_time / self.baseline.execution_time - 1.0

    def to_dict(self) -> dict:
        """JSON-safe report (CLI ``--json``, manifests)."""
        return {
            "pipeline": self.pipeline,
            "baseline": self.baseline.to_dict(),
            "protected": self.protected.to_dict() if self.protected is not None else None,
            "fault_summary": self.fault_summary,
            "unprotected_outcome": self.unprotected_outcome,
            "time_overhead_seconds": self.time_overhead_seconds,
            "energy_overhead_joules": self.energy_overhead_joules,
            "overhead_ratio": self.overhead_ratio,
            "model_overhead_ratio": self.model_overhead_ratio,
        }


@dataclass
class FaultCampaignResult:
    """Everything one seeded campaign measured."""

    spec: FaultSpec
    mtbf_hours: Optional[float]
    checkpoint_every: int
    reports: List[PipelineFaultReport] = field(default_factory=list)

    def report_for(self, pipeline: str) -> PipelineFaultReport:
        """The report for one pipeline by name."""
        for report in self.reports:
            if report.pipeline == pipeline:
                return report
        raise ConfigurationError(f"no campaign report for pipeline {pipeline!r}")

    def to_dict(self) -> dict:
        """JSON-safe result for the CLI and the determinism gate."""
        return {
            "fault_spec": self.spec.to_dict(),
            "mtbf_hours": self.mtbf_hours,
            "checkpoint_every": self.checkpoint_every,
            "reports": [r.to_dict() for r in self.reports],
        }

    def table(self) -> str:
        """Human-readable campaign summary."""
        lines = [
            f"fault campaign: seed={self.spec.seed} "
            f"({len(self.spec)} scheduled fault(s): "
            f"{', '.join(self.spec.kinds()) if len(self.spec) else 'none'})",
        ]
        for r in self.reports:
            lines.append(f"  {r.pipeline}:")
            lines.append(
                f"    fault-free   time {format_seconds(r.baseline.execution_time):>10s}"
                f"   energy {format_energy(r.baseline.energy or 0.0):>10s}"
            )
            if r.protected is not None:
                phases = r.protected.timeline.by_phase()
                lines.append(
                    f"    with faults  time {format_seconds(r.protected.execution_time):>10s}"
                    f"   energy {format_energy(r.protected.energy or 0.0):>10s}"
                    f"   (+{100.0 * r.overhead_ratio:.1f}%)"
                )
                lines.append(
                    "    recovery     "
                    f"crashes={r.fault_summary.get('injected', {}).get('node-crash', 0)} "
                    f"recoveries={r.fault_summary.get('recoveries', 0)} "
                    f"checkpoint={format_seconds(phases.get('checkpoint', 0.0))} "
                    f"rewind={format_seconds(phases.get('recovery', 0.0))}"
                )
            if r.model_overhead_ratio is not None:
                lines.append(
                    f"    Daly model predicts +{100.0 * r.model_overhead_ratio:.1f}% inflation"
                )
            lines.append(f"    without checkpoints: {r.unprotected_outcome}")
        return "\n".join(lines)


def _default_pipelines() -> Sequence[Pipeline]:
    return (InSituPipeline(), PostProcessingPipeline())


def run_fault_campaign(
    spec: PipelineSpec,
    *,
    seed: int = 0,
    mtbf_hours: Optional[float] = 6.0,
    checkpoint_every: int = 8,
    restart_penalty_seconds: float = 30.0,
    brownout_rate_per_hour: float = 0.0,
    io_error_rate_per_hour: float = 0.0,
    pipelines: Optional[Sequence[Pipeline]] = None,
    include_unprotected: bool = True,
    engine: Optional["ExecutionEngine"] = None,
    cluster: Optional["ClusterConfig"] = None,
    storage: Optional["StorageConfig"] = None,
) -> FaultCampaignResult:
    """Run the full controlled campaign described in the module docstring.

    Runs route through the execution engine (pass ``engine`` to fan the
    per-pipeline runs out or memoize them), so ``pipelines`` must be
    registered classes.  ``cluster`` and ``storage`` are a scenario's
    topology sections (``None`` = the paper's testbed).  Deterministic:
    the same arguments produce bit-identical measurements.
    """
    if checkpoint_every < 1:
        raise ConfigurationError(f"checkpoint cadence must be >= 1: {checkpoint_every}")
    workloads = list(pipelines) if pipelines is not None else list(_default_pipelines())
    if not workloads:
        raise ConfigurationError("campaign needs at least one pipeline")
    # Imported here, not at module top: repro.exec.api itself imports the
    # fault config objects, so a top-level import would be circular.
    from repro.exec.api import RunRequest, require_registered
    from repro.exec.engine import ExecutionEngine

    for pipeline in workloads:
        require_registered(pipeline)
    runner = engine if engine is not None else ExecutionEngine()
    request = RunRequest(spec=spec, cluster=cluster, storage=storage)

    baselines: Dict[str, Measurement] = {}
    for pipeline in workloads:
        result = runner.run(request.bound_to(pipeline))
        baselines[pipeline.name] = result.measurement

    horizon = HORIZON_SAFETY_FACTOR * max(m.execution_time for m in baselines.values())
    fault_spec = FaultSpec.campaign(
        seed=seed,
        horizon_seconds=horizon,
        mtbf_hours=mtbf_hours,
        brownout_rate_per_hour=brownout_rate_per_hour,
        io_error_rate_per_hour=io_error_rate_per_hour,
    )
    policy = CheckpointPolicy(
        every_n_outputs=checkpoint_every,
        restart_penalty_seconds=restart_penalty_seconds,
    )
    obs.event(
        "fault_campaign",
        seed=seed,
        horizon_seconds=horizon,
        n_faults=len(fault_spec),
        mtbf_hours=mtbf_hours,
        checkpoint_every=checkpoint_every,
    )

    result = FaultCampaignResult(
        spec=fault_spec, mtbf_hours=mtbf_hours, checkpoint_every=checkpoint_every
    )
    faulted = replace(request, faults=fault_spec)
    for pipeline in workloads:
        baseline = baselines[pipeline.name]
        run = runner.run(replace(faulted, checkpoints=policy).bound_to(pipeline))
        protected = run.measurement
        summary = dict(run.fault_summary or {})
        report = PipelineFaultReport(
            pipeline=pipeline.name,
            baseline=baseline,
            protected=protected,
            fault_summary=summary,
            model_overhead_ratio=_model_overhead(
                baseline, protected, policy, mtbf_hours
            ),
        )
        if include_unprotected:
            report.unprotected_outcome = _unprotected_outcome(pipeline, faulted)
        result.reports.append(report)
    return result


def _model_overhead(
    baseline: Measurement,
    protected: Measurement,
    policy: CheckpointPolicy,
    mtbf_hours: Optional[float],
) -> Optional[float]:
    """Daly-model inflation prediction from campaign-measured parameters."""
    if mtbf_hours is None or baseline.n_outputs <= 0:
        return None
    interval = policy.every_n_outputs * baseline.execution_time / baseline.n_outputs
    checkpoint_phase = protected.timeline.by_phase().get("checkpoint", 0.0)
    n_checkpoints = max(1, baseline.n_outputs // policy.every_n_outputs)
    delta = checkpoint_phase / n_checkpoints if checkpoint_phase > 0 else 0.0
    model = FailureModel(
        mtbf_seconds=mtbf_hours * HOUR,
        checkpoint_write_seconds=delta,
        restart_seconds=policy.restart_penalty_seconds,
    )
    try:
        return model.overhead_ratio(baseline.execution_time, interval)
    except ReproError:
        return None


def _unprotected_outcome(pipeline: Pipeline, request: "RunRequest") -> str:
    """What the same fault load does to a run with no checkpoint policy.

    Always inline and uncached: the interesting outcome is the *exception*,
    which a cache entry could never replay.
    """
    try:
        pipeline.execute(request)
    except FaultError as exc:
        return f"aborted: {type(exc).__name__}: {exc}"
    return "completed (no crash landed inside its shorter exposure window)"
