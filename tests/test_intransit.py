"""Tests for the in-transit pipeline extension."""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.exec.api import RunRequest
from repro.ocean.driver import MPASOceanConfig
from repro.pipelines.base import PipelineSpec
from repro.pipelines.insitu import InSituPipeline
from repro.pipelines.intransit import IN_TRANSIT, InTransitPipeline
from repro.pipelines.platform import SimulatedPlatform
from repro.pipelines.real import RealPlatform, RealScale
from repro.pipelines.sampling import SamplingPolicy
from repro.units import MONTH


@pytest.fixture
def spec():
    return PipelineSpec(
        ocean=MPASOceanConfig(duration_seconds=1 * MONTH),
        sampling=SamplingPolicy(24.0),
    )


class TestSimulatedInTransit:
    def test_measurement_shape(self, spec):
        m = InTransitPipeline(n_staging_nodes=15).execute(RunRequest(spec=spec)).measurement
        assert m.pipeline == IN_TRANSIT
        assert m.n_outputs == 30
        assert m.n_images == 30
        assert m.energy is not None

    def test_rendering_off_the_critical_path(self, spec):
        """With enough staging nodes, total time ≈ simulation time."""
        m = InTransitPipeline(n_staging_nodes=60).execute(RunRequest(spec=spec)).measurement
        assert m.execution_time == pytest.approx(m.simulation_time, rel=0.05)

    def test_starved_staging_causes_stalls(self, spec):
        m = InTransitPipeline(n_staging_nodes=2).execute(RunRequest(spec=spec)).measurement
        assert m.timeline.total("stall") > 0.1 * m.execution_time

    def test_simulation_slows_with_fewer_sim_nodes(self, spec):
        small = InTransitPipeline(n_staging_nodes=75).execute(RunRequest(spec=spec)).measurement
        big = InTransitPipeline(n_staging_nodes=15).execute(RunRequest(spec=spec)).measurement
        # 75 sim nodes vs 135 sim nodes: the sim phase is ~1.8x slower.
        assert small.simulation_time == pytest.approx(
            big.simulation_time * 135 / 75, rel=0.01
        )

    def test_storage_is_image_only(self, spec):
        m = InTransitPipeline(n_staging_nodes=15).execute(RunRequest(spec=spec)).measurement
        raw = spec.n_outputs * spec.ocean.bytes_per_sample
        assert m.storage_bytes < 0.02 * raw

    def test_right_sized_staging_beats_insitu(self):
        """The Rodero et al. placement question has a winning answer."""
        full = PipelineSpec(sampling=SamplingPolicy(24.0))
        insitu = InSituPipeline().execute(RunRequest(spec=full)).measurement
        intransit = InTransitPipeline(n_staging_nodes=30).execute(RunRequest(spec=full)).measurement
        assert intransit.execution_time < insitu.execution_time

    def test_all_samples_drain_before_finish(self, spec):
        m = InTransitPipeline(n_staging_nodes=10).execute(RunRequest(spec=spec)).measurement
        assert m.n_images == m.n_outputs  # staging finished every sample

    def test_staging_validation(self):
        with pytest.raises(ConfigurationError):
            InTransitPipeline(n_staging_nodes=0)

    def test_staging_larger_than_cluster_rejected(self, spec):
        platform = SimulatedPlatform()
        with pytest.raises(ConfigurationError):
            InTransitPipeline(n_staging_nodes=150).execute(
                RunRequest(spec=spec), platform=platform
            )


class TestRealInTransit:
    def test_real_run_produces_artifacts(self, tmp_path):
        scale = RealScale(nx=32, ny=16, n_steps=8, steps_between_outputs=2,
                          image_width=48, image_height=24, spinup_steps=4)
        platform = RealPlatform(str(tmp_path), scale=scale)
        m = InTransitPipeline().execute(
            RunRequest(mode="real"), platform=platform
        ).measurement
        assert m.pipeline == IN_TRANSIT
        assert m.n_outputs == 4
        assert m.n_images == 4
        run_dirs = [p for p in os.listdir(tmp_path) if p.startswith("in-transit")]
        assert run_dirs
        cinema = os.path.join(tmp_path, run_dirs[0], "cinema")
        assert os.path.exists(os.path.join(cinema, "info.json"))
        pngs = [f for f in os.listdir(cinema) if f.endswith(".png")]
        assert len(pngs) == 4

    def test_real_run_overlaps_render_with_simulation(self, tmp_path):
        """The staging worker really runs concurrently: total wall time is
        less than the serial sum of phases."""
        scale = RealScale(nx=64, ny=32, n_steps=12, steps_between_outputs=2,
                          image_width=256, image_height=128, spinup_steps=4)
        platform = RealPlatform(str(tmp_path), scale=scale)
        m = InTransitPipeline().execute(
            RunRequest(mode="real"), platform=platform
        ).measurement
        phases = m.timeline.by_phase()
        # Rendering happened inside the worker thread, concurrent with the
        # simulation: it never appears as a serial phase, and the serial
        # phases (simulation + stalls + drain) cannot exceed the wall clock.
        assert "viz" not in phases
        assert sum(phases.values()) <= m.execution_time * 1.05 + 0.05
        assert m.n_images == m.n_outputs  # the worker drained everything
