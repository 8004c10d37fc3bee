"""The post-processing pipeline (Fig. 1a).

Phase 1: the simulation writes the raw Okubo-Weiss output of every sampled
timestep to the parallel filesystem as netCDF (through the PIO aggregation
layer).  Phase 2: after the simulation completes, the files are read back
and rendered — with a bounded-depth prefetch reader overlapping reads with
rendering, the way a parallel ParaView batch job streams timesteps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro import obs
from repro.core.metrics import POST_PROCESSING, Measurement, PhaseTimeline
from repro.errors import Interrupt
from repro.events.resources import Resource, Store
from repro.pipelines.base import Pipeline, PipelineSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipelines.platform import SimulatedPlatform
    from repro.pipelines.real import RealPlatform

__all__ = ["PostProcessingPipeline"]

#: How many samples the visualization stage prefetches ahead of rendering.
PREFETCH_DEPTH = 2


class PostProcessingPipeline(Pipeline):
    """Raw writes during simulation; separate read-back + render pass."""

    name = POST_PROCESSING

    # ------------------------------------------------------------- simulated

    def simulated_process(
        self,
        platform: "SimulatedPlatform",
        spec: PipelineSpec,
        timeline: PhaseTimeline,
        artifacts: dict,
        resume=None,
    ) -> Generator:
        sim = platform.sim
        cluster = platform.cluster
        k = spec.steps_between_outputs
        n_out = spec.n_outputs
        step_s = platform.simulation_seconds_per_step(spec)
        render_s = platform.render_seconds_per_sample(spec)
        raw_bytes = float(spec.ocean.bytes_per_sample)
        sample_image_bytes = platform.image_size.bytes_per_sample(spec.images)
        ipc = spec.images.images_per_sample
        # Crash-recovery progress: raw samples already durable, and (when a
        # phase-2 checkpoint exists) image sets already rendered.  A nonzero
        # render count implies phase 2 had begun, so the trailing simulation
        # steps are already done too.
        start_write = resume.outputs_done if resume is not None else 0
        start_render = resume.renders_done // ipc if resume is not None else 0

        def raw_path(i: int) -> str:
            return f"{spec.output_prefix}/raw/sample-{i:05d}.nc"

        # ---- Phase 1: simulate + write raw netCDF every sampled timestep.
        for i in range(start_write, n_out):
            t0 = sim.now
            yield from cluster.run_phase(k * step_s, cluster.phases.simulation)
            timeline.add("simulation", t0, sim.now)
            t0 = sim.now
            cluster.set_utilization(cluster.phases.io_wait)
            yield from platform.pio.write_simulated(
                platform.io_backend, raw_path(i), raw_bytes, overwrite=True
            )
            cluster.set_utilization(cluster.phases.idle)
            timeline.add("io", t0, sim.now)
            artifacts["n_outputs"] += 1
            yield from self.maybe_checkpoint(
                platform,
                spec,
                timeline,
                artifacts,
                progress=i + 1,
                outputs_done=i + 1,
            )
        leftover = spec.ocean.n_timesteps - n_out * k
        if leftover > 0 and start_render == 0:
            t0 = sim.now
            yield from cluster.run_phase(leftover * step_s, cluster.phases.simulation)
            timeline.add("simulation", t0, sim.now)

        # ---- Phase 2: read back and render, with bounded prefetch.
        slots = Resource(sim, capacity=PREFETCH_DEPTH)
        ready = Store(sim)

        def reader() -> Generator:
            for i in range(start_render, n_out):
                req = slots.request()
                try:
                    yield req
                    yield from platform.io_backend.read_bytes(raw_path(i))
                except Interrupt:
                    # Killed by the main process (crash cleanup): hand back
                    # the slot — granted or still queued — and bow out.
                    slots.release(req)
                    return
                ready.put((i, req))

        reader_proc = None
        try:
            if n_out > start_render:
                reader_proc = sim.process(reader(), name=f"{spec.output_prefix}-prefetch")
            for i in range(start_render, n_out):
                t0 = sim.now
                item = yield ready.get()  # stall only when the read lags the render
                if sim.now > t0:
                    timeline.add("io", t0, sim.now)
                _, req = item
                t0 = sim.now
                yield from cluster.run_phase(render_s, cluster.phases.render)
                timeline.add("viz", t0, sim.now)
                slots.release(req)
                # Commit the rendered image set alongside the raw data.
                t0 = sim.now
                cluster.set_utilization(cluster.phases.io_wait)
                yield from platform.pio.write_simulated(
                    platform.io_backend,
                    f"{spec.output_prefix}/images/sample-{i:05d}.png",
                    sample_image_bytes,
                    overwrite=True,
                )
                cluster.set_utilization(cluster.phases.idle)
                timeline.add("io", t0, sim.now)
                artifacts["n_images"] += ipc
                obs.counter(
                    "repro_viz_images_total",
                    ipc,
                    pipeline=self.name,
                )
                yield from self.maybe_checkpoint(
                    platform,
                    spec,
                    timeline,
                    artifacts,
                    progress=i + 1,
                    outputs_done=n_out,
                    renders_done=(i + 1) * ipc,
                )
        finally:
            # A crash interrupt lands here: take the prefetcher down with us
            # so it cannot dangle on a dead run (its own cleanup releases
            # any slot it holds).
            if reader_proc is not None and reader_proc.is_alive:
                reader_proc.interrupt()

    # ------------------------------------------------------------------ real

    def run_real(self, platform: "RealPlatform", spec: PipelineSpec) -> Measurement:
        return platform.run_post_processing(self, spec)
