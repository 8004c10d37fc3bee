"""Software visualization stack (the ParaView / Catalyst / Cinema stand-in).

Pure-NumPy rendering of scalar fields to real PNG images:

* :mod:`repro.viz.colormap` — diverging colormaps (Fig. 2's blue/green
  Okubo-Weiss palette) applied as vectorized LUT lookups;
* :mod:`repro.viz.image` — RGB image buffers with a real PNG encoder/decoder;
* :mod:`repro.viz.contour` — marching-squares iso-contours (eddy outlines);
* :mod:`repro.viz.render` — camera pan/zoom and image parameters, plus the
  cluster-scale render cost model (calibrated to the paper's β ≈ 1.2 s/image);
* :mod:`repro.viz.cinema` — a Cinema-style image database with a JSON index.

The field rasterizer (:func:`render_field`) and the in-situ adaptor that
deep-copies simulation arrays and runs co-processing hooks
(:class:`CatalystAdaptor`) run only on the real platform, so they live in
:mod:`repro.pipelines.real`; this package re-exports them.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.pipelines.real import CatalystAdaptor, render_field
    from repro.viz.cinema import CinemaDatabase
    from repro.viz.colormap import Colormap, okubo_weiss_colormap
    from repro.viz.contour import marching_squares
    from repro.viz.image import Image
    from repro.viz.render import Camera, RenderCostModel

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
