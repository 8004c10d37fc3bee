"""The in-situ pipeline (Fig. 1b).

Simulation and visualization share the machine: after each sampled timestep
the Catalyst adaptor deep-copies the fields, the renderer produces the image
set, and only the compact images are committed to storage through a Cinema
database.  No raw fields ever reach the filesystem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro import obs
from repro.core.metrics import IN_SITU, Measurement, PhaseTimeline
from repro.pipelines.base import Pipeline, PipelineSpec
from repro.viz.cinema import CinemaDatabase

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipelines.platform import SimulatedPlatform
    from repro.pipelines.real import RealPlatform

__all__ = ["InSituPipeline"]


class InSituPipeline(Pipeline):
    """Simulation + Catalyst render + image write, every sampled timestep."""

    name = IN_SITU

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
        adaptor_s = platform.adaptor_seconds_per_sample(spec)
        image_bytes = platform.image_size.bytes_per_image(spec.images)
        sample_bytes = platform.image_size.bytes_per_sample(spec.images)
        cinema = CinemaDatabase(name=spec.output_prefix)
        # After a crash recovery the supervisor re-spawns us with the last
        # checkpoint's progress; outputs before it are already durable.
        start = resume.outputs_done if resume is not None else 0
        for i in range(start, n_out):
            t0 = sim.now
            yield from cluster.run_phase(k * step_s, cluster.phases.simulation)
            timeline.add("simulation", t0, sim.now)
            # Catalyst deep copy + render + composite + encode.
            t0 = sim.now
            yield from cluster.run_phase(adaptor_s + render_s, cluster.phases.render)
            timeline.add("viz", t0, sim.now)
            # Commit the image set (ranks poll in the I/O collective).
            t0 = sim.now
            cluster.set_utilization(cluster.phases.io_wait)
            yield from platform.pio.write_simulated(
                platform.io_backend,
                f"{spec.output_prefix}/cinema/sample-{i:05d}.png",
                sample_bytes,
                overwrite=True,
            )
            cluster.set_utilization(cluster.phases.idle)
            timeline.add("io", t0, sim.now)
            for cam in range(spec.images.images_per_sample):
                cinema.add_accounted({"time": i, "camera": cam}, int(image_bytes))
            artifacts["n_outputs"] += 1
            artifacts["n_images"] += spec.images.images_per_sample
            obs.counter(
                "repro_viz_images_total",
                spec.images.images_per_sample,
                pipeline=self.name,
            )
            yield from self.maybe_checkpoint(
                platform,
                spec,
                timeline,
                artifacts,
                progress=i + 1,
                outputs_done=i + 1,
                renders_done=artifacts["n_images"],
            )
        # Trailing timesteps after the last output, if the cadence does not
        # divide the campaign exactly.
        leftover = spec.ocean.n_timesteps - n_out * k
        if leftover > 0:
            t0 = sim.now
            yield from cluster.run_phase(leftover * step_s, cluster.phases.simulation)
            timeline.add("simulation", t0, sim.now)
        cinema.close()
        artifacts["cinema"] = cinema

    # ------------------------------------------------------------------ real

    def run_real(self, platform: "RealPlatform", spec: PipelineSpec) -> Measurement:
        return platform.run_in_situ(self, spec)
