"""Micro-benchmarks of the substrates the reproduction is built on.

Not a paper artifact — these keep the simulator itself honest: event-loop
throughput, fair-share pipe reprogramming, the pseudo-spectral solver step,
Okubo-Weiss + detection, the PNG codec and the nclite container.  Regressions
here make every campaign-scale study slower.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.events.engine import Simulator
from repro.events.resources import BandwidthPipe
from repro.io.ncformat import NcliteFile, write_nclite
from repro.ocean.eddies import detect_eddies
from repro.ocean.okubo_weiss import okubo_weiss
from repro.pipelines.real import MiniOceanDriver
from repro.viz.image import png_decode, png_encode


def test_event_loop_throughput(benchmark):
    """Process 10k chained timeouts."""

    def run():
        sim = Simulator()

        def chain():
            for _ in range(10_000):
                yield sim.timeout(1.0)

        sim.process(chain())
        sim.run()
        return sim.now

    now = benchmark(run)
    assert now == 10_000.0


def test_bandwidth_pipe_churn(benchmark):
    """500 staggered transfers forcing constant fair-share reprogramming."""

    def run():
        sim = Simulator()
        pipe = BandwidthPipe(sim, capacity=1e8)

        def feeder():
            for i in range(500):
                pipe.transfer(1e6 + i)
                yield sim.timeout(0.003)

        sim.process(feeder())
        sim.run()
        return pipe.bytes_moved

    moved = benchmark(run)
    assert moved == pytest.approx(500 * 1e6 + sum(range(500)), rel=1e-6)


def test_solver_step(benchmark):
    """One RK4 step of the 128x64 mini ocean."""
    driver = MiniOceanDriver(nx=128, ny=64, seed=0)

    benchmark(lambda: driver.advance(1))

    assert driver.step_count >= 1


def test_okubo_weiss_and_detection(benchmark):
    driver = MiniOceanDriver(nx=128, ny=64, seed=0)
    driver.advance(10)
    u, v = driver.solver.velocity()

    def run():
        w = okubo_weiss(u, v, driver.grid.dx, driver.grid.dy)
        return detect_eddies(w)

    eddies = benchmark(run)
    assert eddies


def test_png_codec(benchmark):
    rng = np.random.default_rng(0)
    smooth = np.cumsum(rng.integers(-2, 3, size=(240, 320, 3)), axis=1) % 256
    pixels = smooth.astype(np.uint8)

    def run():
        return png_decode(png_encode(pixels))

    back = benchmark(run)
    np.testing.assert_array_equal(back, pixels)


def test_nclite_serialize(benchmark, tmp_path):
    driver = MiniOceanDriver(nx=128, ny=64, seed=0)
    driver.advance(3)
    fields = driver.output_fields()
    path = str(tmp_path / "bench.ncl")

    n = benchmark(lambda: write_nclite(path, fields))

    assert n > 0
    back = NcliteFile.read(path)
    assert set(back.variables) == set(fields)
