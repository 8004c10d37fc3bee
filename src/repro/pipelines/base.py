"""Pipeline abstractions shared by both workflows."""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

from repro import obs
from repro.core.metrics import Measurement, PhaseTimeline
from repro.errors import ConfigurationError
from repro.ocean.driver import MPASOceanConfig
from repro.pipelines.sampling import SamplingPolicy
from repro.viz.render import ImageSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.api import RunRequest, RunResult
    from repro.pipelines.platform import RealPlatform, SimulatedPlatform

__all__ = ["CHECKPOINT_FILENAME", "PipelineSpec", "Pipeline"]

#: Namespace-relative filename of a run's (single, rotating) checkpoint.
CHECKPOINT_FILENAME = "checkpoint.dat"


@dataclass(frozen=True)
class PipelineSpec:
    """What to run: campaign configuration, cadence and image parameters."""

    ocean: MPASOceanConfig = field(default_factory=MPASOceanConfig)
    sampling: SamplingPolicy = field(default_factory=lambda: SamplingPolicy(24.0))
    images: ImageSpec = field(default_factory=ImageSpec)
    #: Namespace prefix for files this run writes.
    output_prefix: str = "run"

    def __post_init__(self) -> None:
        # Validate early that the cadence divides the timestep grid.
        self.sampling.steps_between_outputs(self.ocean)
        if not self.output_prefix:
            raise ConfigurationError("output_prefix must be non-empty")

    @property
    def n_outputs(self) -> int:
        """Output products over the campaign."""
        return self.sampling.n_outputs(self.ocean)

    @property
    def steps_between_outputs(self) -> int:
        """Timesteps between outputs."""
        return self.sampling.steps_between_outputs(self.ocean)

    def with_sampling(self, sampling: SamplingPolicy) -> "PipelineSpec":
        """The same spec at a different cadence."""
        return PipelineSpec(
            ocean=self.ocean,
            sampling=sampling,
            images=self.images,
            output_prefix=self.output_prefix,
        )


class Pipeline(ABC):
    """A visualization workflow that can run on either platform."""

    #: Canonical name ("in-situ" / "post-processing").
    name: str = ""

    @abstractmethod
    def simulated_process(
        self,
        platform: "SimulatedPlatform",
        spec: PipelineSpec,
        timeline: PhaseTimeline,
        artifacts: dict,
    ) -> Generator:
        """The DES generator process executing this workflow at campaign scale.

        Implementations record phases into ``timeline`` and artifact counts
        (``storage_bytes``, ``n_images``, ``n_outputs``) into ``artifacts``.
        Restartable pipelines additionally accept an optional ``resume``
        keyword (a :class:`~repro.faults.ResumeState`), passed only by the
        platform's supervised run path when recovering from a crash —
        subclasses that never run under fault injection can ignore it.
        """

    @abstractmethod
    def run_real(self, platform: "RealPlatform", spec: PipelineSpec) -> Measurement:
        """Run the miniature real-mode version; returns its measurement."""

    def request_args(self) -> dict:
        """Constructor arguments identifying this instance in a RunRequest.

        Subclasses with configuration knobs (e.g. in-transit's staging node
        count) override this so a request round-trips to an equivalent
        instance via :func:`repro.exec.api.build_pipeline`.
        """
        return {}

    def execute(
        self,
        request: Optional["RunRequest"] = None,
        platform: Optional[object] = None,
    ) -> "RunResult":
        """The unified entry point: one request in, one result out.

        Dispatches on ``request.mode``: simulated requests run at campaign
        scale on a :class:`~repro.pipelines.platform.SimulatedPlatform`
        (a fresh one per call, built from the request's ``cluster`` and
        ``storage`` topology, unless ``platform`` is given — fresh platforms
        are what make runs pure functions of the request, hence cacheable
        and pool-safe), real requests run the miniature version in
        ``request.workdir``.  ``None`` means "this pipeline with every
        default".
        """
        from repro.exec.api import RunRequest

        if request is None:
            request = RunRequest()
        request = request.bound_to(self)
        if request.trace is not None and not obs.enabled():
            # A pool worker (or any fresh process) handed a TraceContext:
            # record this run into a shard session and carry the shard back
            # in the result for the parent to merge.
            from dataclasses import replace

            with obs.shard_session(request.trace) as shard:
                result = self._execute_bound(request, platform)
            return replace(result, telemetry=shard.shard_payload())
        return self._execute_bound(request, platform)

    def _execute_bound(
        self,
        request: "RunRequest",
        platform: Optional[object] = None,
    ) -> "RunResult":
        """Execute an already-bound request (see :meth:`execute`)."""
        from repro.exec.api import MODE_REAL, RunResult

        t0 = time.perf_counter()
        if request.mode == MODE_REAL:
            from repro.pipelines.platform import RealPlatform

            if platform is None:
                if request.workdir is None:
                    raise ConfigurationError(
                        "real-mode request needs a workdir (or pass a "
                        "RealPlatform explicitly)"
                    )
                platform = RealPlatform(request.workdir)
            measurement = platform._execute(self, request.spec)
            fault_summary: Optional[dict] = None
            recoveries = 0
        else:
            from repro.pipelines.platform import SimulatedPlatform

            if platform is None:
                platform = SimulatedPlatform.from_topology(
                    request.cluster, request.storage
                )
            measurement = platform._execute(
                self,
                request.spec,
                faults=request.faults,
                checkpoints=request.checkpoints,
            )
            fault_summary = platform.last_fault_summary
            recoveries = platform.last_recoveries
        # wall_seconds is a diagnostic only: excluded from cache keys and
        # from the bit-identity comparison in replay/telemetry tests.
        return RunResult(  # repro-lint: disable=det-clock
            request=request,
            measurement=measurement,
            wall_seconds=time.perf_counter() - t0,
            fault_summary=fault_summary,
            recoveries=recoveries,
        )

    def maybe_checkpoint(
        self,
        platform: "SimulatedPlatform",
        spec: PipelineSpec,
        timeline: PhaseTimeline,
        artifacts: dict,
        progress: int,
        outputs_done: int,
        renders_done: int = 0,
    ) -> Generator:
        """DES sub-generator: write a periodic checkpoint when due.

        ``progress`` is the pipeline's unit-of-work counter; a checkpoint is
        written whenever it reaches a multiple of the platform checkpoint
        policy's cadence.  The state write is costed through the simulated
        storage model like any other I/O (one rotating file, overwritten in
        place).  With no policy installed this yields **zero events**, so
        fault-free runs stay bit-identical to the unsupervised path.
        """
        policy = getattr(platform, "checkpoints", None)
        if policy is None or progress <= 0 or progress % policy.every_n_outputs:
            return
        sim = platform.sim
        cluster = platform.cluster
        state_bytes = (
            policy.state_bytes
            if policy.state_bytes is not None
            else float(spec.ocean.bytes_per_sample)
        )
        t0 = sim.now
        cluster.set_utilization(cluster.phases.io_wait)
        try:
            yield from platform.storage.fs.write(
                f"{spec.output_prefix}/{CHECKPOINT_FILENAME}", state_bytes, overwrite=True
            )
        finally:
            cluster.set_utilization(cluster.phases.idle)
        timeline.add("checkpoint", t0, sim.now)
        # The durable-progress marker the platform supervisor rewinds to.
        artifacts["checkpoint"] = {
            "outputs_done": outputs_done,
            "renders_done": renders_done,
            "state_bytes": state_bytes,
            # When durability was reached — the timeline's checkpoint-age
            # probe (and the checkpoint_overdue watch rule) read this.
            "t": sim.now,
        }
        obs.counter("repro_faults_checkpoints_total", pipeline=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
