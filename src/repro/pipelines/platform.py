"""The simulated execution platform for the pipelines.

:class:`SimulatedPlatform` is the paper's instrumented testbed in software:
the discrete-event *Caddy* cluster, the Lustre storage cluster, the cage
monitors and the storage PDU, plus the calibrated cost models that map the
campaign configuration onto simulated durations.  Running a pipeline on it
yields a fully metered :class:`~repro.core.metrics.Measurement`.

The *miniature real* platform — the actual barotropic solver, actual PNG
rendering, actual files — is :class:`~repro.pipelines.real.RealPlatform`.
A simulated run crosses into two heavier halves only when it uses them: the
timeline sampler (:mod:`repro.obs.timeline`) is imported when a telemetry
session with sampling builds one, and the
:class:`~repro.faults.injector.FaultInjector` when a run carries faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro import obs
from repro.cluster.machine import ComputeCluster, PhaseProfile, caddy
from repro.core.metrics import Measurement, PhaseTimeline
from repro.errors import ConfigurationError, DeadlockError, NodeCrashError
from repro.events.engine import Simulator
from repro.faults.retry import RetryPolicy
from repro.io.pio import PIOWriter, SimulatedIOBackend
from repro.ocean.driver import OceanCostModel
from repro.pipelines.base import CHECKPOINT_FILENAME, Pipeline, PipelineSpec
from repro.power.report import PowerReport
from repro.storage.lustre import LustreFileSystem, StorageCluster
from repro.viz.render import ImageSpec, RenderCostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.faults.resilience import CheckpointPolicy
    from repro.faults.spec import FaultSpec
    from repro.obs.timeline import TimelineSampler
    from repro.scenario.schema import ClusterConfig, StorageConfig

__all__ = ["ImageSizeModel", "SimulatedPlatform"]


@dataclass(frozen=True)
class ImageSizeModel:
    """Size model for encoded frames at campaign scale.

    ``bytes = width * height * 3 * compression_ratio``.  The default ratio
    (0.125) reflects PNG on smooth large-scale ocean renders and puts a
    1920×1080 frame at ≈0.78 MB, so the paper's 540-image in-situ run
    commits well under 1 GB (Fig. 7); the mini model's real turbulent
    renders compress a little worse (~0.3), which the real platform measures
    directly instead of modelling.
    """

    compression_ratio: float = 0.125

    def __post_init__(self) -> None:
        if not 0.0 < self.compression_ratio <= 1.0:
            raise ConfigurationError(
                f"compression ratio outside (0, 1]: {self.compression_ratio}"
            )

    def bytes_per_image(self, spec: ImageSpec) -> float:  # repro-unit: bytes
        """Encoded bytes of one frame."""
        return spec.pixels * 3.0 * self.compression_ratio

    def bytes_per_sample(self, spec: ImageSpec) -> float:  # repro-unit: bytes
        """Encoded bytes of one output timestep's full image set."""
        return self.bytes_per_image(spec) * spec.images_per_sample


class SimulatedPlatform:
    """The instrumented campaign-scale testbed.

    One platform hosts one or more runs; measurements are windowed and
    delta-based, so back-to-back runs do not contaminate each other (storage
    accumulates across runs, exactly as on the real cluster).
    """

    #: Memory bandwidth per node available to the Catalyst deep copy (B/s).
    ADAPTOR_COPY_BANDWIDTH = 10e9

    def __init__(
        self,
        *,
        cluster: Optional[ComputeCluster] = None,
        storage: Optional[StorageCluster] = None,
        ocean_cost: Optional[OceanCostModel] = None,
        render_cost: Optional[RenderCostModel] = None,
        image_size: Optional[ImageSizeModel] = None,
        phase_profile: Optional[PhaseProfile] = None,
        n_io_aggregators: int = 8,
    ) -> None:
        self.sim = cluster.sim if cluster is not None else Simulator()
        self.cluster = cluster if cluster is not None else caddy(self.sim, phase_profile)
        if storage is not None and storage.sim is not self.sim:
            raise ConfigurationError("cluster and storage must share a Simulator")
        self.storage = storage if storage is not None else StorageCluster(self.sim)
        self.ocean_cost = ocean_cost if ocean_cost is not None else OceanCostModel()
        self.render_cost = render_cost if render_cost is not None else RenderCostModel()
        self.image_size = image_size if image_size is not None else ImageSizeModel()
        self.io_backend = SimulatedIOBackend(self.storage.fs)
        self.pio = PIOWriter(
            n_ranks=self.cluster.n_nodes,
            n_aggregators=min(n_io_aggregators, self.cluster.n_nodes),
            interconnect=self.cluster.interconnect,
        )
        self._run_counter = 0
        #: Active checkpoint policy; set only for the duration of a
        #: supervised run (pipelines consult it via ``maybe_checkpoint``).
        self.checkpoints: Optional[CheckpointPolicy] = None
        #: Retry policy installed on the filesystem during supervised runs.
        #: ``op_timeout_seconds`` stays off by default: injected transient
        #: errors fail fast, and retries back off deterministically.
        self.retry_policy = RetryPolicy()
        #: Injection tally of the most recent faulted run (``None`` after a
        #: fault-free run).
        self.last_fault_summary: Optional[dict] = None
        #: Recoveries performed during the most recent run.
        self.last_recoveries = 0

    @classmethod
    def from_topology(
        cls,
        cluster: Optional["ClusterConfig"] = None,
        storage: Optional["StorageConfig"] = None,
    ) -> "SimulatedPlatform":
        """A fresh platform with a scenario's cluster and storage sections.

        ``None`` keeps the paper's Caddy cluster or Lustre rack, so
        ``from_topology()`` is ``SimulatedPlatform()``.
        """
        sim = Simulator()
        if cluster is None:
            compute = caddy(sim)
        else:
            compute = ComputeCluster(
                sim,
                n_nodes=cluster.nodes,
                cores_per_socket=cluster.cores_per_socket,
                nodes_per_cage=cluster.nodes_per_cage,
                name=cluster.name,
            )
        if storage is None:
            return cls(cluster=compute)
        filesystem = LustreFileSystem(
            sim,
            capacity_bytes=storage.capacity_bytes,
            write_bandwidth=storage.write_bandwidth,
            read_bandwidth=storage.read_bandwidth,
            n_mds=storage.mds,
            n_ost=storage.ost,
            metadata_latency=storage.metadata_latency_seconds,
        )
        return cls(
            cluster=compute,
            storage=StorageCluster(sim, filesystem=filesystem),
            n_io_aggregators=storage.io_aggregators,
        )

    # ------------------------------------------------------------ cost hooks

    def simulation_seconds_per_step(self, spec: PipelineSpec) -> float:  # repro-unit: seconds
        """Wall seconds per ocean timestep on this cluster."""
        return self.ocean_cost.seconds_per_step(spec.ocean, self.cluster.n_nodes)

    def render_seconds_per_sample(self, spec: PipelineSpec) -> float:  # repro-unit: seconds
        """Wall seconds to render one output timestep's image set."""
        return self.render_cost.seconds_per_sample(
            spec.ocean.n_cells, spec.images, self.cluster.n_nodes, self.cluster.interconnect
        )

    def adaptor_seconds_per_sample(self, spec: PipelineSpec) -> float:  # repro-unit: seconds
        """Wall seconds of the Catalyst deep copy for one sample."""
        per_node_bytes = spec.ocean.bytes_per_sample / self.cluster.n_nodes
        return per_node_bytes / self.ADAPTOR_COPY_BANDWIDTH

    # ------------------------------------------------------------------- run

    def _execute(
        self,
        pipeline: Pipeline,
        spec: PipelineSpec,
        faults: Optional[FaultSpec] = None,
        checkpoints: Optional[CheckpointPolicy] = None,
    ) -> Measurement:
        """Execute ``pipeline`` at campaign scale and meter everything.

        With ``faults`` and/or ``checkpoints`` the run goes through the
        supervised path: a seeded :class:`~repro.faults.FaultInjector`
        delivers the spec's chaos schedule, transient storage errors retry
        with deterministic backoff, and node crashes rewind to the last
        checkpoint instead of aborting (when a policy is given).  With both
        ``None`` — the default — the legacy unsupervised path runs and is
        bit-identical to the pre-fault-subsystem behaviour.
        """
        self._run_counter += 1
        if faults is None and checkpoints is None:
            self.last_fault_summary = None
            self.last_recoveries = 0
        run_spec = PipelineSpec(
            ocean=spec.ocean,
            sampling=spec.sampling,
            images=spec.images,
            output_prefix=f"{spec.output_prefix}-{self._run_counter:03d}",
        )
        timeline = PhaseTimeline()
        artifacts: dict = {"storage_bytes": 0.0, "n_images": 0, "n_outputs": 0}
        t_start = self.sim.now
        storage_before = self.storage.fs.used_bytes
        session = obs.active()
        listener = None
        sampler = None
        if session is not None:
            processed = session.registry.counter(
                "repro_events_processed_total", pipeline=pipeline.name
            )
            listener = self.sim.add_step_listener(
                lambda event, now: processed.inc()
            )
            if session.timeline is not None:
                sampler = self._build_sampler(
                    session, run_spec, checkpoints, artifacts, t_start
                )
                sampler.attach()
        try:
            with obs.span(
                "pipeline.run",
                clock=self.sim,
                pipeline=pipeline.name,
                mode="simulated",
                interval_hours=run_spec.sampling.interval_hours,
            ):
                if faults is None and checkpoints is None:
                    self.sim.process(
                        pipeline.simulated_process(self, run_spec, timeline, artifacts),
                        name=f"{pipeline.name}-{self._run_counter}",
                    )
                    self.sim.run()
                else:
                    self._run_supervised(
                        pipeline, run_spec, timeline, artifacts, faults, checkpoints
                    )
        finally:
            if sampler is not None:
                sampler.detach()
            if listener is not None:
                self.sim.remove_step_listener(listener)
        t_end = self.sim.now
        duration = t_end - t_start
        if duration <= 0:
            raise ConfigurationError("pipeline run consumed no simulated time")
        compute_trace = self.cluster.read_total(t_start, t_end)
        storage_trace = self.storage.read_pdu(t_start, t_end)
        report = PowerReport(
            compute=compute_trace,
            storage=storage_trace,
            label=f"{pipeline.name} @ {run_spec.sampling}",
            budget_watts=self.cluster.peak_watts + self.storage.power_model.full_load_watts,
        )
        measured_storage = self.storage.fs.used_bytes - storage_before
        obs.counter("repro_pipeline_runs_total", pipeline=pipeline.name, mode="simulated")
        obs.counter(
            "repro_pipeline_storage_bytes", measured_storage, pipeline=pipeline.name
        )
        obs.counter(
            "repro_pipeline_images_total", artifacts["n_images"], pipeline=pipeline.name
        )
        obs.event(
            "measurement",
            pipeline=pipeline.name,
            interval_hours=run_spec.sampling.interval_hours,
            execution_time=duration,
            storage_bytes=measured_storage,
            average_power=report.average_power,
        )
        # The meter windows for this run, verbatim — what lets the span
        # profiler apportion joules to the phases recorded above.  Follows
        # the run's root span in the stream, so the profiler pairs each
        # trace with the nearest preceding "pipeline.run" record.
        obs.event(
            "power_trace",
            pipeline=pipeline.name,
            label=run_spec.output_prefix,
            interval_hours=run_spec.sampling.interval_hours,
            t0=t_start,
            t1=t_end,
            compute=compute_trace.to_dict(),
            storage=storage_trace.to_dict(),
        )
        return Measurement(
            pipeline=pipeline.name,
            sample_interval_hours=run_spec.sampling.interval_hours,
            execution_time=duration,
            n_timesteps=run_spec.ocean.n_timesteps,
            storage_bytes=measured_storage,
            n_outputs=artifacts["n_outputs"],
            n_images=artifacts["n_images"],
            timeline=timeline,
            average_power=report.average_power,
            # The paper's Eq. (1): "Energy consumed was calculated as the
            # product of average power and execution time."  (The raw trace
            # energy differs slightly because the 1-minute instruments pad
            # the final partial interval.)
            energy=report.average_power * duration,
            power_report=report,
            label=run_spec.output_prefix,
        )

    def _build_sampler(
        self,
        session,
        run_spec: PipelineSpec,
        checkpoints: Optional[CheckpointPolicy],
        artifacts: dict,
        t_start: float,
    ) -> TimelineSampler:
        """Assemble the run's timeline sampler from the session's policy.

        Probes cover all three layers the paper's figures resolve over time
        — the event engine, the storage cluster and the power models — plus
        a checkpoint-age series when the run checkpoints.  The watchdog gets
        the default rule set, extended with the power-cap rule when the
        policy sets a cap.
        """
        from repro.obs.timeline import (
            DEFAULT_TIMELINE_POINTS,
            TimelineSampler,
            engine_probes,
            power_probes,
            resource_probes,
            storage_probes,
        )
        from repro.obs.watch import Watchdog, default_rules

        tcfg = session.timeline
        interval = tcfg.interval_seconds
        if interval is None:
            # The DES clock runs in campaign *execution* seconds, so derive
            # the grid from the predicted compute time (a lower bound on the
            # run — I/O and render phases only add samples beyond it).
            estimate = (
                self.simulation_seconds_per_step(run_spec)
                * run_spec.ocean.n_timesteps
            )
            interval = estimate / DEFAULT_TIMELINE_POINTS
        watchdog = Watchdog(default_rules(power_cap_watts=tcfg.power_cap_watts))
        sampler = TimelineSampler(
            self.sim,
            interval,
            session=session,
            label=run_spec.output_prefix,
            watchdog=watchdog,
        )
        sampler.add_probes(engine_probes(self.sim))
        sampler.add_probes(storage_probes(self.storage.fs))
        sampler.add_probes(resource_probes("mds", self.storage.fs.mds))
        sampler.add_probes(
            power_probes(self.cluster, self.storage, cap_watts=tcfg.power_cap_watts)
        )
        if checkpoints is not None:
            sampler.add_probe(
                "repro_timeline_pipeline_checkpoint_age_seconds",
                lambda t: t
                - float((artifacts.get("checkpoint") or {}).get("t", t_start)),
            )
        return sampler

    # ------------------------------------------------------- supervised path

    def _run_supervised(
        self,
        pipeline: Pipeline,
        run_spec: PipelineSpec,
        timeline: PhaseTimeline,
        artifacts: dict,
        faults: Optional[FaultSpec],
        checkpoints: Optional[CheckpointPolicy],
    ) -> None:
        """Drive one pipeline run under fault injection and/or checkpointing.

        The simulator is stepped manually until the supervisor process
        completes, so fault events scheduled beyond the end of the run never
        advance the clock (they are disarmed and left stale in the heap —
        use a fresh platform per faulted run when comparing measurements).
        """
        fs = self.storage.fs
        self.last_fault_summary = None
        self.last_recoveries = 0
        injector = None
        if faults is not None:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(self.sim, fs, faults)
            injector.arm()
        prev_policy, prev_rng = fs.retry_policy, fs.retry_rng
        self.checkpoints = checkpoints
        fs.retry_policy = self.retry_policy
        fs.retry_rng = random.Random(faults.seed if faults is not None else 0)
        supervisor = self.sim.process(
            self._supervise(pipeline, run_spec, timeline, artifacts, injector, checkpoints),
            name=f"{pipeline.name}-supervisor-{self._run_counter}",
        )
        try:
            while not supervisor.triggered:
                if not self.sim._heap:
                    raise DeadlockError(
                        "supervised run stalled: event queue drained before "
                        "the supervisor completed"
                    )
                self.sim.step()
        finally:
            self.checkpoints = None
            fs.retry_policy, fs.retry_rng = prev_policy, prev_rng
            if injector is not None:
                injector.disarm()
                self.last_fault_summary = injector.summary()
                self.last_fault_summary["recoveries"] = self.last_recoveries
        if not supervisor.ok:
            supervisor.defused = True
            raise supervisor.value

    def _supervise(
        self,
        pipeline: Pipeline,
        run_spec: PipelineSpec,
        timeline: PhaseTimeline,
        artifacts: dict,
        injector: Optional[FaultInjector],
        checkpoints: Optional[CheckpointPolicy],
    ) -> Generator:
        """Checkpoint/restart supervisor: re-spawns the pipeline after crashes."""
        fs = self.storage.fs
        max_attempts = 1 + (checkpoints.max_restarts if checkpoints is not None else 0)
        ckpt_path = f"{run_spec.output_prefix}/{CHECKPOINT_FILENAME}"
        for attempt in range(max_attempts):
            if attempt == 0:
                gen = pipeline.simulated_process(self, run_spec, timeline, artifacts)
            else:
                from repro.faults.resilience import ResumeState

                marker = artifacts.get("checkpoint")
                resume = ResumeState(
                    outputs_done=marker["outputs_done"] if marker else 0,
                    renders_done=marker["renders_done"] if marker else 0,
                )
                # Rewind the progress counters to the durable state; the
                # re-spawned pipeline re-counts the replayed work (its file
                # rewrites use overwrite semantics, so storage agrees).
                artifacts["n_outputs"] = resume.outputs_done
                artifacts["n_images"] = resume.renders_done
                t0 = self.sim.now
                if checkpoints.restart_penalty_seconds > 0:
                    yield self.sim.timeout(checkpoints.restart_penalty_seconds)
                if marker is not None and fs.exists(ckpt_path):
                    yield from fs.read(ckpt_path)
                timeline.add("recovery", t0, self.sim.now)
                self.last_recoveries += 1
                obs.counter("repro_faults_recoveries_total", pipeline=pipeline.name)
                gen = pipeline.simulated_process(
                    self, run_spec, timeline, artifacts, resume=resume
                )
            proc = self.sim.process(
                gen, name=f"{pipeline.name}-{self._run_counter}-attempt-{attempt}"
            )
            if injector is not None:
                injector.watch(proc)
            try:
                yield proc
                return
            except NodeCrashError:
                # The crash left the cluster wherever the phase put it;
                # recovery proceeds from idle.
                self.cluster.set_utilization(self.cluster.phases.idle)
                if checkpoints is None or attempt + 1 >= max_attempts:
                    raise
