"""Render parameters and the cluster-scale render cost model.

:class:`Camera` is a pan/zoom viewport onto a field and :class:`ImageSpec`
the image set rendered per output timestep — the "one set of images per
timestep" of the paper's pipelines.  The rasterizer that turns a field into
real pixels through them is :func:`~repro.pipelines.real.render_field`, part
of the real platform.

:class:`RenderCostModel` estimates what the same render costs at campaign
scale on a simulated cluster: per-cell rasterization work, binary-swap
compositing over the interconnect, and image encoding.  Its defaults are
calibrated so one 1920×1080 frame of the 60 km mesh on 150 nodes costs
≈1.2 s — the paper's measured β.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, ScenarioError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Interconnect

__all__ = ["Camera", "RenderCostModel", "ImageSpec"]


@dataclass(frozen=True)
class Camera:
    """A 2-D pan/zoom viewport onto a field.

    ``center`` is in normalized field coordinates (0..1 in each axis) and
    ``zoom`` is the magnification: the viewport covers ``1/zoom`` of the
    field in each axis.  Cinema databases sweep these parameters.
    """

    center: tuple[float, float] = (0.5, 0.5)
    zoom: float = 1.0

    def __post_init__(self) -> None:
        if self.zoom <= 0:
            raise ConfigurationError(f"zoom must be positive: {self.zoom}")
        cy, cx = self.center
        if not (0.0 <= cy <= 1.0 and 0.0 <= cx <= 1.0):
            raise ConfigurationError(f"camera center outside [0,1]²: {self.center}")

    def sample_coordinates(
        self, field_shape: tuple[int, int], width: int, height: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fractional field coordinates sampled by each output pixel."""
        ny, nx = field_shape
        cy, cx = self.center
        half_y = 0.5 / self.zoom
        half_x = 0.5 / self.zoom
        rows = (cy - half_y + (np.arange(height) + 0.5) / height / self.zoom) * ny - 0.5
        cols = (cx - half_x + (np.arange(width) + 0.5) / width / self.zoom) * nx - 0.5
        return np.meshgrid(rows, cols, indexing="ij")


@dataclass(frozen=True)
class ImageSpec:
    """Output image parameters for a pipeline.

    It is also a scenario's ``images`` section (which sets no cameras), so
    a frame too small raises :class:`~repro.errors.ScenarioError` at
    ``images.width``.
    """

    width: int = 1920
    height: int = 1080
    cameras: tuple[Camera, ...] = (Camera(),)

    def __post_init__(self) -> None:
        if self.width < 8 or self.height < 8:
            raise ScenarioError(
                "images.width", f"image too small: {self.width}x{self.height}"
            )
        if not self.cameras:
            raise ConfigurationError("need at least one camera")

    @property
    def pixels(self) -> int:
        """Pixels per frame."""
        return self.width * self.height

    @property
    def images_per_sample(self) -> int:
        """Frames rendered per output timestep (one per camera)."""
        return len(self.cameras)


@dataclass(frozen=True)
class RenderCostModel:
    """Wall-time model of one campaign-scale render on a cluster.

    ``time = raster_ns_per_cell * n_cells / n_nodes        (data-parallel)
           + binary-swap composite over the interconnect   (image-sized)
           + encode_ns_per_pixel * pixels                  (root only)
           + fixed per-frame overhead``

    Defaults are calibrated so the paper's configuration (163,842 cells,
    1920×1080 frame, 150 nodes, QDR IB) costs ≈1.2 s — the measured β.
    """

    raster_ns_per_cell: float = 630_000.0
    encode_ns_per_pixel: float = 220.0
    fixed_overhead_s: float = 0.05

    def __post_init__(self) -> None:
        if min(self.raster_ns_per_cell, self.encode_ns_per_pixel) < 0:
            raise ConfigurationError("negative render cost coefficient")
        if self.fixed_overhead_s < 0:
            raise ConfigurationError("negative fixed overhead")

    def seconds_per_image(
        self,
        n_cells: int,
        spec: ImageSpec,
        n_nodes: int,
        interconnect: "Interconnect",
    ) -> float:
        """Wall seconds to render + composite + encode one frame."""
        if n_cells < 1 or n_nodes < 1:
            raise ConfigurationError("n_cells and n_nodes must be >= 1")
        raster = self.raster_ns_per_cell * 1e-9 * n_cells / n_nodes
        composite = interconnect.binary_swap_composite_time(spec.pixels * 3.0, n_nodes)
        encode = self.encode_ns_per_pixel * 1e-9 * spec.pixels
        return raster + composite + encode + self.fixed_overhead_s

    def seconds_per_sample(
        self,
        n_cells: int,
        spec: ImageSpec,
        n_nodes: int,
        interconnect: "Interconnect",
    ) -> float:
        """Wall seconds for the full image *set* of one output timestep."""
        return spec.images_per_sample * self.seconds_per_image(
            n_cells, spec, n_nodes, interconnect
        )
