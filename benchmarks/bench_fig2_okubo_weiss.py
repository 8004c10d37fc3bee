"""Fig. 2 — the Okubo-Weiss visualization of eddies.

Regenerates a Fig. 2-style frame from the real mini ocean model: green
rotation-dominated eddy cores outlined at the -0.2 sigma level, blue
shear-dominated filaments.  The benchmark measures one full
field -> colormap -> contour -> PNG render.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.ocean.eddies import detect_eddies
from repro.ocean.okubo_weiss import okubo_weiss_classification
from repro.pipelines.real import MiniOceanDriver, render_okubo_weiss


@pytest.fixture(scope="module")
def ocean():
    driver = MiniOceanDriver(nx=128, ny=64, seed=3)
    driver.advance(40)
    return driver


def test_fig2_render(benchmark, ocean):
    w = ocean.okubo_weiss_field()

    image = benchmark(lambda: render_okubo_weiss(w, width=640, height=320))

    png = image.encode_png()
    eddies = detect_eddies(w, vorticity=ocean.solver.vorticity())
    cls = okubo_weiss_classification(w)
    emit(
        "fig2_okubo_weiss",
        [
            "Fig. 2 — Okubo-Weiss visualization (mini ocean stand-in for MPAS-O)",
            f"frame: 640x320, PNG {len(png) / 1e3:.0f} kB",
            f"rotation-dominated cells (green): {100 * (cls == -1).mean():.1f}%",
            f"shear-dominated cells (blue):     {100 * (cls == 1).mean():.1f}%",
            f"eddies detected at -0.2 sigma:    {len(eddies)}"
            f" (deepest W = {eddies[0].min_w:.3e} 1/s^2)",
        ],
    )
    # The frame must actually show both regimes of the paper's palette.
    px = image.pixels.astype(int)
    assert ((px[:, :, 1] > px[:, :, 0] + 20) & (px[:, :, 1] > px[:, :, 2] + 20)).any()
    assert ((px[:, :, 2] > px[:, :, 0] + 20) & (px[:, :, 2] > px[:, :, 1] + 20)).any()


def test_fig2_eddy_detection_speed(benchmark, ocean):
    w = ocean.okubo_weiss_field()
    zeta = ocean.solver.vorticity()

    eddies = benchmark(lambda: detect_eddies(w, vorticity=zeta))

    assert len(eddies) > 3
    assert np.all([e.min_w < 0 for e in eddies])
