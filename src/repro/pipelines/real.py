"""The miniature real platform: real solver, real renders, real files.

Everything a real-mode run executes and a campaign-scale run never does
lives here:

* :class:`MiniOceanDriver` — the runnable mini ocean model: it advances the
  barotropic solver and exposes MPAS-O-style output variables as real
  arrays;
* :func:`render_field` / :func:`render_okubo_weiss` — the scalar-field
  rasterizer (bilinear resampling through a
  :class:`~repro.viz.render.Camera`, colormaps, contour overlays);
* :class:`CatalystAdaptor` — the in-situ adaptor that deep-copies simulation
  arrays and runs co-processing hooks on the copies;
* :class:`RealIOBackend` — writes real nclite files into a directory;
* :class:`RealPlatform` / :class:`RealScale` — the laptop-scale platform,
  wall-clock timed, with the real bodies of the three pipelines.

It produces the same :class:`~repro.core.metrics.Measurement` shape as the
simulated platform (without power, which a laptop run cannot meter the
paper's way).  :meth:`~repro.pipelines.base.Pipeline.execute` imports this
module only for real-mode requests, so a simulated run loads none of the
solver, the rasterizer, the image codec or the file format.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.metrics import Measurement, PhaseTimeline
from repro.errors import ConfigurationError, PipelineError
from repro.io.ncformat import read_nclite, write_nclite
from repro.ocean.barotropic import BarotropicSolver
from repro.ocean.grid import SpectralGrid
from repro.ocean.okubo_weiss import okubo_weiss
from repro.paper import TIMESTEP_SECONDS
from repro.pipelines.base import PipelineSpec
from repro.pipelines.staging import STAGING_QUEUE_DEPTH
from repro.units import HOUR
from repro.viz.cinema import CinemaDatabase
from repro.viz.colormap import Colormap, okubo_weiss_colormap
from repro.viz.contour import marching_squares
from repro.viz.image import Image
from repro.viz.render import Camera

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipelines.base import Pipeline

__all__ = [
    "CatalystAdaptor",
    "MiniOceanDriver",
    "RealIOBackend",
    "RealPlatform",
    "RealScale",
    "render_field",
    "render_okubo_weiss",
]


# ---------------------------------------------------------------- the ocean


class MiniOceanDriver:
    """The runnable mini ocean model exposing MPAS-O-style output variables.

    Each output variable is a real 2-D array on the mini grid: the velocity
    components and Okubo-Weiss come straight from the solver; temperature,
    salinity and SSH are diagnostic proxies derived from the streamfunction
    (warm/fresh/elevated cores in anticyclones), so the rendered images and
    written files carry physically coherent structure.
    """

    def __init__(
        self,
        nx: int = 128,
        ny: int = 64,
        length_m: float = 2.0e6,
        timestep_seconds: float = TIMESTEP_SECONDS,
        seed: int = 0,
        viscosity: float = 5.0e7,
    ) -> None:
        self.grid = SpectralGrid(nx, ny, length_m)
        self.solver = BarotropicSolver(self.grid, viscosity=viscosity, seed=seed)
        self.timestep_seconds = float(timestep_seconds)
        # Keep the advective CFL comfortable for the default RMS speed.
        cfl = self.solver.cfl_number(self.timestep_seconds)
        if cfl > 0.8:
            raise ConfigurationError(
                f"timestep {timestep_seconds}s gives CFL={cfl:.2f} > 0.8 on this grid"
            )

    @property
    def time(self) -> float:
        """Simulated seconds elapsed."""
        return self.solver.time

    @property
    def step_count(self) -> int:
        """Timesteps taken."""
        return self.solver.step_count

    def advance(self, n_steps: int = 1) -> None:
        """Advance the mini model ``n_steps`` timesteps."""
        with obs.span("ocean.advance", n_steps=n_steps):
            self.solver.run(n_steps, self.timestep_seconds)
        obs.counter("repro_ocean_steps_total", n_steps)

    def okubo_weiss_field(self) -> np.ndarray:
        """The current Okubo-Weiss field on the mini grid."""
        u, v = self.solver.velocity()
        return okubo_weiss(u, v, self.grid.dx, self.grid.dy)

    def output_fields(self) -> dict[str, np.ndarray]:
        """The named output variables as real arrays (C-contiguous, float64)."""
        u, v = self.solver.velocity()
        psi = self.solver.streamfunction()
        zeta = self.solver.vorticity()
        w = okubo_weiss(u, v, self.grid.dx, self.grid.dy)
        psi_norm = psi / (np.max(np.abs(psi)) + 1e-30)
        return {
            "u": u,
            "v": v,
            "vorticity": zeta,
            "okubo_weiss": w,
            # Diagnostic proxies: anticyclonic (high-ψ) cores are warm,
            # fresh and elevated — enough structure to make the output
            # files and images physically coherent.
            "temperature": 15.0 + 5.0 * psi_norm,
            "salinity": 35.0 - 0.5 * psi_norm,
            "layer_thickness": 100.0 + 10.0 * psi_norm,
            "ssh": 0.5 * psi_norm,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MiniOceanDriver {self.grid.nx}x{self.grid.ny} t={self.time:.0f}s>"


# ---------------------------------------------------------------- rendering


def _bilinear(field: np.ndarray, rows: np.ndarray, cols: np.ndarray, periodic: bool) -> np.ndarray:
    ny, nx = field.shape
    if periodic:
        r0 = np.floor(rows).astype(int)
        c0 = np.floor(cols).astype(int)
        fr = rows - r0
        fc = cols - c0
        r0 %= ny
        c0 %= nx
        r1 = (r0 + 1) % ny
        c1 = (c0 + 1) % nx
    else:
        rows = np.clip(rows, 0, ny - 1)
        cols = np.clip(cols, 0, nx - 1)
        r0 = np.floor(rows).astype(int)
        c0 = np.floor(cols).astype(int)
        fr = rows - r0
        fc = cols - c0
        r1 = np.minimum(r0 + 1, ny - 1)
        c1 = np.minimum(c0 + 1, nx - 1)
    top = field[r0, c0] * (1 - fc) + field[r0, c1] * fc
    bot = field[r1, c0] * (1 - fc) + field[r1, c1] * fc
    return top * (1 - fr) + bot * fr


def render_field(
    field: np.ndarray,
    colormap: Colormap,
    width: int = 640,
    height: int = 360,
    camera: Optional[Camera] = None,
    vmin: Optional[float] = None,
    vmax: Optional[float] = None,
    contour_levels: Sequence[float] = (),
    contour_color: tuple[int, int, int] = (30, 30, 30),
    periodic: bool = True,
) -> Image:
    """Rasterize ``field`` into a ``width x height`` RGB image.

    The field is resampled bilinearly through ``camera``, colored through
    ``colormap``, and optionally overlaid with marching-squares contours.
    """
    field = np.asarray(field, dtype=float)
    if field.ndim != 2:
        raise ConfigurationError(f"field must be 2-D, got {field.shape}")
    cam = camera if camera is not None else Camera()
    rows, cols = cam.sample_coordinates(field.shape, width, height)
    resampled = _bilinear(field, rows, cols, periodic)
    image = Image(colormap.apply(resampled, vmin=vmin, vmax=vmax))
    for level in contour_levels:
        for line in marching_squares(resampled, level):
            image.draw_polyline(line, color=contour_color)
    return image


def render_okubo_weiss(
    w: np.ndarray,
    width: int = 640,
    height: int = 360,
    camera: Optional[Camera] = None,
    outline_eddies: bool = True,
) -> Image:
    """Fig. 2-style rendering of an Okubo-Weiss field.

    Symmetric normalization around zero with the green/blue diverging map;
    optionally outlines eddy cores at the ``-0.2 σ_W`` level.
    """
    w = np.asarray(w, dtype=float)
    scale = 2.0 * float(np.std(w)) + 1e-30
    levels = (-0.2 * float(np.std(w)),) if outline_eddies else ()
    return render_field(
        w,
        okubo_weiss_colormap(),
        width=width,
        height=height,
        camera=camera,
        vmin=-scale,
        vmax=scale,
        contour_levels=levels,
    )


# ---------------------------------------------------------- the in-situ adaptor

#: A co-processing hook: f(step_index, simulated_time, fields) -> Any.
CoProcessor = Callable[[int, float, Mapping[str, np.ndarray]], Any]


class CatalystAdaptor:
    """Bridges a running simulation to in-situ co-processing pipelines.

    In the paper, ParaView *Catalyst adaptors* "seamlessly copy simulation
    data structures to ParaView data structures.  While this incurs
    additional memory operations, it also avoids large data transfers to the
    storage system."  At every co-processing step this adaptor *deep-copies*
    the simulation's field arrays (never aliasing live solver memory — the
    simulation continues mutating its state while the visualization pipeline
    runs), hands the copies to the registered co-processing pipelines, and
    accounts the copied bytes so the memory-traffic overhead is measurable.
    """

    def __init__(self) -> None:
        self._pipelines: dict[str, CoProcessor] = {}
        self._bytes_copied = 0
        self._n_coprocess = 0
        self._finalized = False

    # ----------------------------------------------------------- registration

    def register_pipeline(self, name: str, pipeline: CoProcessor) -> None:
        """Register a named co-processing hook."""
        if not name:
            raise ConfigurationError("pipeline name must be non-empty")
        if name in self._pipelines:
            raise ConfigurationError(f"pipeline {name!r} already registered")
        if not callable(pipeline):
            raise ConfigurationError(f"pipeline {name!r} is not callable")
        self._pipelines[name] = pipeline

    def unregister_pipeline(self, name: str) -> None:
        """Remove a previously registered hook."""
        try:
            del self._pipelines[name]
        except KeyError:
            raise ConfigurationError(f"no pipeline named {name!r}") from None

    @property
    def pipeline_names(self) -> list[str]:
        """Registered hook names, in registration order."""
        return list(self._pipelines)

    # ------------------------------------------------------------- accounting

    @property
    def bytes_copied(self) -> int:
        """Total bytes deep-copied from simulation to visualization memory."""
        return self._bytes_copied

    @property
    def coprocess_count(self) -> int:
        """Number of co-processing invocations."""
        return self._n_coprocess

    # ---------------------------------------------------------------- driving

    def coprocess(
        self, step: int, time: float, fields: Mapping[str, np.ndarray]
    ) -> dict[str, Any]:
        """Run all registered pipelines on a deep copy of ``fields``.

        Returns ``{pipeline_name: pipeline_result}``.
        """
        if self._finalized:
            raise PipelineError("coprocess() after finalize()")
        if not self._pipelines:
            raise PipelineError("coprocess() with no registered pipelines")
        copied: dict[str, np.ndarray] = {}
        for name, array in fields.items():
            arr = np.ascontiguousarray(array)
            copy = arr.copy()
            self._bytes_copied += copy.nbytes
            copied[name] = copy
        self._n_coprocess += 1
        results = {}
        for name, pipeline in self._pipelines.items():
            results[name] = pipeline(step, time, copied)
        return results

    def finalize(self) -> None:
        """Mark the adaptor closed; further co-processing is an error."""
        self._finalized = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CatalystAdaptor {len(self._pipelines)} pipeline(s), "
            f"{self._n_coprocess} invocations, {self._bytes_copied} B copied>"
        )


# ----------------------------------------------------------------- real files


class RealIOBackend:
    """Backend writing real nclite files into a directory."""

    def __init__(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.bytes_written = 0
        self.files_written = 0

    def write_fields(
        self, relpath: str, fields: Mapping[str, np.ndarray], attrs: Optional[Mapping[str, object]] = None
    ) -> int:
        """Serialize ``fields`` to ``relpath``; returns the byte count."""
        path = os.path.join(self.directory, relpath)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        n = write_nclite(path, fields, attrs)
        self.bytes_written += n
        self.files_written += 1
        return n

    def path_of(self, relpath: str) -> str:
        """Absolute path of a previously written file."""
        return os.path.join(self.directory, relpath)


# --------------------------------------------------------------- the platform


@dataclass(frozen=True)
class RealScale:
    """Miniature dimensions for real-mode runs."""

    nx: int = 128
    ny: int = 64
    n_steps: int = 48
    steps_between_outputs: int = 8
    image_width: int = 320
    image_height: int = 160
    seed: int = 0
    spinup_steps: int = 20

    def __post_init__(self) -> None:
        if self.n_steps < 1 or self.steps_between_outputs < 1:
            raise ConfigurationError("step counts must be >= 1")
        if self.n_steps % self.steps_between_outputs:
            raise ConfigurationError(
                f"n_steps={self.n_steps} not a multiple of "
                f"steps_between_outputs={self.steps_between_outputs}"
            )
        if self.spinup_steps < 0:
            raise ConfigurationError("negative spinup")

    @property
    def n_outputs(self) -> int:
        """Output samples over the mini run."""
        return self.n_steps // self.steps_between_outputs


class RealPlatform:
    """The laptop-scale platform: real solver, real renders, real files.

    Each pipeline's :meth:`~repro.pipelines.base.Pipeline.run_real` calls
    back into the ``run_*`` method for its workflow.
    """

    def __init__(self, workdir: str, *, scale: Optional[RealScale] = None) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.scale = scale if scale is not None else RealScale()
        self._run_counter = 0

    def new_driver(self) -> MiniOceanDriver:
        """A fresh, spun-up mini ocean model (identical across pipelines)."""
        driver = MiniOceanDriver(nx=self.scale.nx, ny=self.scale.ny, seed=self.scale.seed)
        if self.scale.spinup_steps:
            driver.advance(self.scale.spinup_steps)
        return driver

    def run_directory(self, pipeline_name: str) -> str:
        """A fresh output directory for one run."""
        self._run_counter += 1
        path = os.path.join(
            self.workdir, f"{pipeline_name.replace(' ', '_')}-{self._run_counter:03d}"
        )
        os.makedirs(path, exist_ok=True)
        return path

    @staticmethod
    def clock() -> float:
        """Wall-clock timestamp (monotonic)."""
        return time.perf_counter()

    def sample_interval_hours(self) -> float:  # repro-unit: hours
        """The mini run's cadence expressed in simulated hours."""
        driver_dt = TIMESTEP_SECONDS  # MiniOceanDriver default timestep
        return self.scale.steps_between_outputs * driver_dt / HOUR

    def _execute(self, pipeline: "Pipeline", spec: Optional[PipelineSpec] = None) -> Measurement:
        """Run the miniature real version of ``pipeline``."""
        with obs.span("pipeline.run", pipeline=pipeline.name, mode="real"):
            measurement = pipeline.run_real(self, spec if spec is not None else PipelineSpec())
        obs.counter("repro_pipeline_runs_total", pipeline=pipeline.name, mode="real")
        obs.counter(
            "repro_pipeline_images_total", measurement.n_images, pipeline=pipeline.name
        )
        return measurement

    # -------------------------------------------------------------- in situ

    def run_in_situ(self, pipeline: "Pipeline", spec: PipelineSpec) -> Measurement:
        """Simulation + Catalyst render + image write, every sampled step."""
        scale = self.scale
        driver = self.new_driver()
        outdir = self.run_directory(pipeline.name)
        cinema = CinemaDatabase(os.path.join(outdir, "cinema"), name="eddies")
        cameras = [Camera(), Camera(center=(0.5, 0.5), zoom=2.0)]
        timeline = PhaseTimeline(domain=obs.WALL)
        n_images = 0
        storage_before = cinema.total_bytes

        adaptor = CatalystAdaptor()

        def render_hook(step: int, _time: float, fields) -> list:
            w = np.asarray(fields["okubo_weiss"])
            return [
                render_okubo_weiss(
                    w, width=scale.image_width, height=scale.image_height, camera=cam
                )
                for cam in cameras
            ]

        adaptor.register_pipeline("okubo-weiss", render_hook)

        wall_start = self.clock()
        for i in range(scale.n_outputs):
            t0 = self.clock()
            driver.advance(scale.steps_between_outputs)
            t1 = self.clock()
            timeline.add("simulation", t0, t1)
            fields = driver.output_fields()
            t0 = self.clock()
            images = adaptor.coprocess(i, driver.time, fields)["okubo-weiss"]
            t1 = self.clock()
            timeline.add("viz", t0, t1)
            t0 = self.clock()
            for cam_index, image in enumerate(images):
                cinema.add_image({"time": i, "camera": cam_index}, image)
                n_images += 1
            t1 = self.clock()
            timeline.add("io", t0, t1)
            obs.counter("repro_viz_images_total", len(images), pipeline=pipeline.name)
        adaptor.finalize()
        cinema.close()
        wall_end = self.clock()
        return Measurement(
            pipeline=pipeline.name,
            sample_interval_hours=self.sample_interval_hours(),
            execution_time=wall_end - wall_start,
            n_timesteps=scale.n_steps,
            storage_bytes=cinema.total_bytes - storage_before,
            n_outputs=scale.n_outputs,
            n_images=n_images,
            timeline=timeline,
            label=outdir,
        )

    # ------------------------------------------------------ post-processing

    def run_post_processing(self, pipeline: "Pipeline", spec: PipelineSpec) -> Measurement:
        """Raw nclite writes during the run; a read-back + render pass after."""
        scale = self.scale
        driver = self.new_driver()
        outdir = self.run_directory(pipeline.name)
        backend = RealIOBackend(os.path.join(outdir, "raw"))
        timeline = PhaseTimeline(domain=obs.WALL)
        wall_start = self.clock()

        # ---- Phase 1: simulate + write raw nclite files.
        for i in range(scale.n_outputs):
            t0 = self.clock()
            driver.advance(scale.steps_between_outputs)
            t1 = self.clock()
            timeline.add("simulation", t0, t1)
            fields = driver.output_fields()
            t0 = self.clock()
            backend.write_fields(f"sample-{i:05d}.nc", fields, {"time": driver.time})
            t1 = self.clock()
            timeline.add("io", t0, t1)

        # ---- Phase 2: read back + render into an image directory.
        cinema = CinemaDatabase(os.path.join(outdir, "images"), name="eddies-post")
        n_images = 0
        for i in range(scale.n_outputs):
            t0 = self.clock()
            fields = read_nclite(backend.path_of(f"sample-{i:05d}.nc"))
            t1 = self.clock()
            timeline.add("io", t0, t1)
            t0 = self.clock()
            image = render_okubo_weiss(
                fields["okubo_weiss"], width=scale.image_width, height=scale.image_height
            )
            t1 = self.clock()
            timeline.add("viz", t0, t1)
            t0 = self.clock()
            cinema.add_image({"time": i, "camera": 0}, image)
            n_images += 1
            obs.counter("repro_viz_images_total", 1.0, pipeline=pipeline.name)
            t1 = self.clock()
            timeline.add("io", t0, t1)
        cinema.close()
        wall_end = self.clock()
        return Measurement(
            pipeline=pipeline.name,
            sample_interval_hours=self.sample_interval_hours(),
            execution_time=wall_end - wall_start,
            n_timesteps=scale.n_steps,
            storage_bytes=float(backend.bytes_written),
            n_outputs=scale.n_outputs,
            n_images=n_images,
            timeline=timeline,
            label=outdir,
        )

    # ----------------------------------------------------------- in transit

    def run_in_transit(self, pipeline: "Pipeline", spec: PipelineSpec) -> Measurement:
        """Simulation on this thread; a staging worker thread renders
        concurrently, behind a bounded queue."""
        scale = self.scale
        driver = self.new_driver()
        outdir = self.run_directory(pipeline.name)
        cinema = CinemaDatabase(os.path.join(outdir, "cinema"), name="eddies-intransit")
        timeline = PhaseTimeline(domain=obs.WALL)
        inbox: "queue.Queue" = queue.Queue(maxsize=STAGING_QUEUE_DEPTH)
        n_images = 0
        lock = threading.Lock()

        def staging_worker() -> None:
            nonlocal n_images
            while True:
                item = inbox.get()
                if item is None:
                    return
                index, w = item
                image = render_okubo_weiss(
                    w, width=scale.image_width, height=scale.image_height
                )
                with lock:
                    cinema.add_image({"time": index}, image)
                    n_images += 1

        worker = threading.Thread(target=staging_worker, name="staging")
        worker.start()
        wall_start = self.clock()
        try:
            for i in range(scale.n_outputs):
                t0 = self.clock()
                driver.advance(scale.steps_between_outputs)
                t1 = self.clock()
                timeline.add("simulation", t0, t1)
                # Ship a deep copy to staging; the solver keeps mutating.
                w = np.array(driver.okubo_weiss_field(), copy=True)
                t0 = self.clock()
                inbox.put((i, w))  # blocks only when staging is saturated
                t1 = self.clock()
                if t1 > t0:
                    timeline.add("stall", t0, t1)
        finally:
            inbox.put(None)
            t0 = self.clock()
            worker.join()
            timeline.add("drain", t0, self.clock())
        cinema.close()
        wall_end = self.clock()
        return Measurement(
            pipeline=pipeline.name,
            sample_interval_hours=self.sample_interval_hours(),
            execution_time=wall_end - wall_start,
            n_timesteps=scale.n_steps,
            storage_bytes=cinema.total_bytes,
            n_outputs=scale.n_outputs,
            n_images=n_images,
            timeline=timeline,
            label=outdir,
        )
