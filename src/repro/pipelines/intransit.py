"""The in-transit pipeline (an extension beyond the paper's two).

The paper's related work (Bennett et al. [13], Rodero et al. [22]) studies a
third workflow the evaluation does not measure: **in-transit** processing,
where a subset of the machine is set aside as *staging nodes*.  The
simulation partition never renders; after each sampled timestep it ships the
fields over the interconnect to the staging partition and immediately
resumes stepping, while the staging nodes render and commit images
concurrently.

Compared to in-situ this trades nodes for overlap:

* the simulation runs on fewer nodes (slower per step), but
* rendering is completely off the critical path — until the staging
  partition saturates, at which point a bounded queue applies back-pressure
  (Rodero et al.'s placement question: how many staging nodes are enough?).

Both a campaign-scale DES implementation and a *really concurrent* real-mode
implementation (worker thread,
:meth:`~repro.pipelines.real.RealPlatform.run_in_transit`) are provided.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.cluster.allocation import Allocator
from repro.core.metrics import Measurement, PhaseTimeline
from repro.errors import ConfigurationError
from repro.events.resources import Store
from repro.pipelines.base import Pipeline, PipelineSpec
from repro.pipelines.staging import DEFAULT_STAGING_NODES, STAGING_QUEUE_DEPTH
from repro.viz.cinema import CinemaDatabase

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipelines.platform import SimulatedPlatform
    from repro.pipelines.real import RealPlatform

__all__ = ["DEFAULT_STAGING_NODES", "IN_TRANSIT", "InTransitPipeline"]

IN_TRANSIT = "in-transit"


class InTransitPipeline(Pipeline):
    """Simulation on one partition; rendering concurrently on another."""

    name = IN_TRANSIT

    def __init__(self, *, n_staging_nodes: int = DEFAULT_STAGING_NODES) -> None:
        if n_staging_nodes < 1:
            raise ConfigurationError(
                f"need at least one staging node, got {n_staging_nodes}"
            )
        self.n_staging_nodes = n_staging_nodes

    def request_args(self) -> dict:
        return {"n_staging_nodes": self.n_staging_nodes}

    # ------------------------------------------------------------- simulated

    def simulated_process(
        self,
        platform: "SimulatedPlatform",
        spec: PipelineSpec,
        timeline: PhaseTimeline,
        artifacts: dict,
    ) -> Generator:
        sim = platform.sim
        cluster = platform.cluster
        if self.n_staging_nodes >= cluster.n_nodes:
            raise ConfigurationError(
                f"{self.n_staging_nodes} staging nodes leaves no simulation "
                f"nodes on a {cluster.n_nodes}-node cluster"
            )
        n_sim_nodes = cluster.n_nodes - self.n_staging_nodes
        allocator = Allocator(cluster)
        sim_nodes = allocator.allocate("simulation", n_sim_nodes)
        staging_nodes = allocator.allocate("staging", self.n_staging_nodes)

        k = spec.steps_between_outputs
        n_out = spec.n_outputs
        # The simulation partition is smaller, so each step costs more.
        step_s = platform.ocean_cost.seconds_per_step(spec.ocean, n_sim_nodes)
        # Rendering happens on the staging partition only.
        render_s = platform.render_cost.seconds_per_sample(
            spec.ocean.n_cells, spec.images, self.n_staging_nodes, cluster.interconnect
        )
        # Shipping one sample: every sim node sends its shard to staging.
        transfer_s = cluster.interconnect.gather_time(
            spec.ocean.bytes_per_sample / max(n_sim_nodes, 1), self.n_staging_nodes
        ) + spec.ocean.bytes_per_sample / cluster.interconnect.bandwidth_bytes_per_s / max(
            self.n_staging_nodes, 1
        )
        image_bytes = platform.image_size.bytes_per_image(spec.images)
        sample_bytes = platform.image_size.bytes_per_sample(spec.images)
        cinema = CinemaDatabase(name=spec.output_prefix)

        slots = Store(sim)
        for _ in range(STAGING_QUEUE_DEPTH):
            slots.put(None)
        inbox = Store(sim)
        done = sim.event()

        def staging() -> Generator:
            for i in range(n_out):
                item = yield inbox.get()
                # Receive the shipped shards onto the staging partition.
                staging_nodes.set_utilization(cluster.phases.io_wait)
                yield sim.timeout(transfer_s)
                # Render concurrently with the ongoing simulation.
                t0 = sim.now
                staging_nodes.set_utilization(cluster.phases.render)
                yield sim.timeout(render_s)
                timeline.add("viz", t0, sim.now)
                # Commit the image set.
                t0 = sim.now
                staging_nodes.set_utilization(cluster.phases.io_wait)
                yield from platform.pio.write_simulated(
                    platform.io_backend,
                    f"{spec.output_prefix}/cinema/sample-{item:05d}.png",
                    sample_bytes,
                )
                timeline.add("io", t0, sim.now)
                staging_nodes.set_utilization(cluster.phases.idle)
                for cam in range(spec.images.images_per_sample):
                    cinema.add_accounted({"time": item, "camera": cam}, int(image_bytes))
                artifacts["n_images"] += spec.images.images_per_sample
                slots.put(None)
            done.succeed()

        sim.process(staging(), name=f"{spec.output_prefix}-staging")

        for i in range(n_out):
            t0 = sim.now
            sim_nodes.set_utilization(cluster.phases.simulation)
            yield sim.timeout(k * step_s)
            timeline.add("simulation", t0, sim.now)
            sim_nodes.set_utilization(cluster.phases.idle)
            # Back-pressure: wait for a staging slot, then hand the sample off.
            t0 = sim.now
            yield slots.get()
            if sim.now > t0:
                timeline.add("stall", t0, sim.now)
            inbox.put(i)
            artifacts["n_outputs"] += 1
        leftover = spec.ocean.n_timesteps - n_out * k
        if leftover > 0:
            t0 = sim.now
            sim_nodes.set_utilization(cluster.phases.simulation)
            yield sim.timeout(leftover * step_s)
            timeline.add("simulation", t0, sim.now)
            sim_nodes.set_utilization(cluster.phases.idle)
        # Drain the staging partition.
        t0 = sim.now
        yield done
        if sim.now > t0:
            timeline.add("drain", t0, sim.now)
        cinema.close()
        artifacts["cinema"] = cinema

    # ------------------------------------------------------------------ real

    def run_real(self, platform: "RealPlatform", spec: PipelineSpec) -> Measurement:
        return platform.run_in_transit(self, spec)
