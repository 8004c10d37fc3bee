#!/usr/bin/env python
"""Why eddies matter: passive-tracer stirring, rendered in situ.

Climate scientists track eddies because they transport heat and salt.  This
example advects a passive tracer (a meridional gradient, think temperature)
with the mini ocean's flow, rendering both the tracer and the Okubo-Weiss
field side by side into a Cinema database — eddy cores visibly roll the
gradient into filaments, which is the physical content behind the paper's
visualization task.

Usage::

    python examples/tracer_stirring.py [output_dir]
"""

from __future__ import annotations

import sys
import tempfile

import numpy as np

from repro.ocean.barotropic import BarotropicSolver
from repro.ocean.diagnostics import SimulationMonitor
from repro.ocean.grid import SpectralGrid
from repro.ocean.tracer import TracerField
from repro.viz.annotate import annotate_frame
from repro.viz.cinema import CinemaDatabase
from repro.viz.colormap import ocean_speed_colormap
from repro.pipelines.real import render_field, render_okubo_weiss
from repro.ocean.okubo_weiss import okubo_weiss

N_FRAMES = 8
STEPS_PER_FRAME = 12


def main(output_dir: str) -> None:
    grid = SpectralGrid(128, 128)
    flow = BarotropicSolver(grid, viscosity=5e7, seed=21)
    tracer = TracerField(flow, diffusivity=5.0, name="temperature")
    monitor = SimulationMonitor()
    cinema = CinemaDatabase(output_dir, name="tracer-stirring")
    cmap = ocean_speed_colormap()

    print(f"{grid.nx}x{grid.ny} domain, tracer variance at start: "
          f"{tracer.variance():.4f}")
    for frame in range(N_FRAMES):
        tracer.run_with_flow(STEPS_PER_FRAME, 1_800.0)
        health = monitor.check(flow, 1_800.0)
        if not health.healthy:
            print(f"ABORTING: {health.reason}")  # the §II-B monitoring use case
            break
        day = flow.time / 86_400.0
        c = tracer.concentration()
        tr_img = render_field(c, cmap, width=384, height=384, vmin=0.0, vmax=1.0)
        annotate_frame(tr_img, f"TRACER DAY {day:.1f}", scale=2)
        cinema.add_image({"field": "tracer", "time": frame}, tr_img)
        u, v = flow.velocity()
        w = okubo_weiss(u, v, grid.dx, grid.dy)
        ow_img = render_okubo_weiss(w, width=384, height=384)
        annotate_frame(ow_img, f"OKUBO-WEISS DAY {day:.1f}", scale=2)
        cinema.add_image({"field": "okubo_weiss", "time": frame}, ow_img)
        print(
            f"  day {day:5.1f}: variance {tracer.variance():.4f}, "
            f"mean |grad c| {tracer.gradient_magnitude().mean():.2e}, "
            f"KE {flow.kinetic_energy():.3f}"
        )
    cinema.close()
    print(f"\ntracer mean drifted by "
          f"{abs(tracer.mean() - 0.5):.2e} (conserved)")
    print(f"Cinema database: {len(cinema)} frames, "
          f"{cinema.total_bytes / 1e6:.1f} MB -> {output_dir}")


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="tracer-")
    main(target)
