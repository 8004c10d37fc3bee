"""Software visualization stack (the ParaView / Catalyst / Cinema stand-in).

Pure-NumPy rendering of scalar fields to real PNG images:

* :mod:`repro.viz.colormap` — diverging colormaps (Fig. 2's blue/green
  Okubo-Weiss palette) applied as vectorized LUT lookups;
* :mod:`repro.viz.image` — RGB image buffers with a real PNG encoder/decoder;
* :mod:`repro.viz.contour` — marching-squares iso-contours (eddy outlines);
* :mod:`repro.viz.render` — field rasterizer with camera pan/zoom, plus the
  cluster-scale render cost model (calibrated to the paper's β ≈ 1.2 s/image);
* :mod:`repro.viz.catalyst` — the in-situ adaptor that deep-copies simulation
  arrays into visualization structures and runs co-processing hooks;
* :mod:`repro.viz.cinema` — a Cinema-style image database with a JSON index.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.viz.catalyst import CatalystAdaptor
    from repro.viz.cinema import CinemaDatabase
    from repro.viz.colormap import Colormap, okubo_weiss_colormap
    from repro.viz.contour import marching_squares
    from repro.viz.image import Image
    from repro.viz.render import Camera, RenderCostModel, render_field

__all__ = [
    "Camera",
    "CatalystAdaptor",
    "CinemaDatabase",
    "Colormap",
    "Image",
    "RenderCostModel",
    "marching_squares",
    "okubo_weiss_colormap",
    "render_field",
]

__getattr__, __dir__ = lazy_exports(__name__)
