"""Tests for sampling policies, pipeline specs and the two pipelines."""

from __future__ import annotations

import os

import pytest

from repro.core.metrics import IN_SITU, POST_PROCESSING
from repro.errors import ConfigurationError
from repro.exec.api import RunRequest
from repro.ocean.driver import MPASOceanConfig
from repro.pipelines.base import PipelineSpec
from repro.pipelines.insitu import InSituPipeline
from repro.pipelines.platform import ImageSizeModel
from repro.pipelines.postprocessing import PostProcessingPipeline
from repro.pipelines.real import RealPlatform, RealScale
from repro.pipelines.sampling import PAPER_SAMPLING_GRID, SamplingPolicy
from repro.units import MONTH
from repro.viz.render import ImageSpec


def simulate(pipeline, spec, platform=None):
    """One simulated run through the unified execute() entry point."""
    return pipeline.execute(RunRequest(spec=spec), platform=platform).measurement


def run_real(pipeline, platform):
    """One miniature real-mode run through execute()."""
    return pipeline.execute(RunRequest(mode="real"), platform=platform).measurement


class TestSamplingPolicy:
    def test_paper_grid(self):
        assert [p.interval_hours for p in PAPER_SAMPLING_GRID] == [8.0, 24.0, 72.0]

    def test_outputs_per_day(self):
        assert SamplingPolicy(8.0).outputs_per_day == 3.0
        assert SamplingPolicy(24.0).outputs_per_day == 1.0

    def test_steps_and_outputs(self):
        cfg = MPASOceanConfig()
        p = SamplingPolicy(8.0)
        assert p.steps_between_outputs(cfg) == 16
        assert p.n_outputs(cfg) == 540

    def test_rate_ratio_is_frequency_ratio(self):
        """Sampling twice as often doubles the rate (Eqs. 6-7)."""
        assert SamplingPolicy(12.0).rate_ratio(SamplingPolicy(24.0)) == 2.0
        assert SamplingPolicy(48.0).rate_ratio(SamplingPolicy(24.0)) == 0.5

    def test_str(self):
        assert str(SamplingPolicy(8.0)) == "every 8 h"
        assert str(SamplingPolicy(24.0)) == "every day"
        assert str(SamplingPolicy(192.0)) == "every 8 days"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SamplingPolicy(0.0)

    @pytest.mark.parametrize("hours", [float("inf"), float("nan")])
    def test_non_finite_interval_rejected(self, hours):
        with pytest.raises(ConfigurationError, match="finite"):
            SamplingPolicy(hours)


class TestPipelineSpec:
    def test_derived_counts(self):
        spec = PipelineSpec(sampling=SamplingPolicy(24.0))
        assert spec.n_outputs == 180
        assert spec.steps_between_outputs == 48

    def test_invalid_cadence_rejected_early(self):
        with pytest.raises(ConfigurationError):
            PipelineSpec(sampling=SamplingPolicy(0.4))

    def test_with_sampling(self):
        spec = PipelineSpec(sampling=SamplingPolicy(24.0))
        other = spec.with_sampling(SamplingPolicy(8.0))
        assert other.n_outputs == 540
        assert other.ocean is spec.ocean


class TestImageSizeModel:
    def test_default_1080p_under_1mb(self):
        m = ImageSizeModel()
        assert m.bytes_per_image(ImageSpec()) < 1e6

    def test_sample_scales_with_cameras(self):
        from repro.viz.render import Camera
        m = ImageSizeModel()
        two = ImageSpec(cameras=(Camera(), Camera(zoom=2.0)))
        assert m.bytes_per_sample(two) == 2 * m.bytes_per_image(two)

    def test_invalid_ratio(self):
        with pytest.raises(ConfigurationError):
            ImageSizeModel(compression_ratio=0.0)
        with pytest.raises(ConfigurationError):
            ImageSizeModel(compression_ratio=1.5)


class TestSimulatedPipelines:
    """Short (1-simulated-month) campaign-scale runs on the DES platform."""

    def test_insitu_measurement_shape(self, platform, short_spec):
        m = simulate(InSituPipeline(), short_spec, platform)
        assert m.pipeline == IN_SITU
        assert m.n_outputs == 10
        assert m.n_images == 10
        assert m.execution_time > 0
        assert m.average_power is not None and m.energy is not None
        assert m.energy == pytest.approx(m.average_power * m.execution_time, rel=1e-6)

    def test_post_measurement_shape(self, platform, short_spec):
        m = simulate(PostProcessingPipeline(), short_spec, platform)
        assert m.pipeline == POST_PROCESSING
        assert m.n_outputs == 10
        assert m.n_images == 10
        assert m.storage_bytes > 10 * 0.9 * short_spec.ocean.bytes_per_sample

    def test_insitu_faster_and_leaner(self, short_spec):
        insitu = simulate(InSituPipeline(), short_spec)
        post = simulate(PostProcessingPipeline(), short_spec)
        assert insitu.execution_time < post.execution_time
        assert insitu.storage_bytes < 0.01 * post.storage_bytes
        assert insitu.energy < post.energy

    def test_phase_breakdown_covers_run(self, platform, short_spec):
        m = simulate(InSituPipeline(), short_spec, platform)
        total_phases = sum(m.timeline.by_phase().values())
        assert total_phases == pytest.approx(m.execution_time, rel=0.01)
        assert m.simulation_time > 0 and m.viz_time > 0 and m.io_time > 0

    def test_simulation_phase_matches_cost_model(self, platform, short_spec):
        m = simulate(InSituPipeline(), short_spec, platform)
        expected = platform.ocean_cost.simulation_seconds(
            short_spec.ocean, platform.cluster.n_nodes
        )
        assert m.simulation_time == pytest.approx(expected, rel=1e-6)

    def test_post_io_dominated_by_raw_writes(self, platform, short_spec):
        m = simulate(PostProcessingPipeline(), short_spec, platform)
        raw_write_time = m.n_outputs * short_spec.ocean.bytes_per_sample / 160e6
        assert m.io_time == pytest.approx(raw_write_time, rel=0.2)

    def test_back_to_back_runs_use_deltas(self, platform, short_spec):
        a = simulate(InSituPipeline(), short_spec, platform)
        b = simulate(InSituPipeline(), short_spec, platform)
        # Same workload: the second measurement matches the first even though
        # storage and the clock accumulated.
        assert b.execution_time == pytest.approx(a.execution_time, rel=1e-6)
        assert b.storage_bytes == pytest.approx(a.storage_bytes, rel=1e-6)
        assert b.average_power == pytest.approx(a.average_power, rel=0.02)

    def test_power_report_attached(self, platform, short_spec):
        m = simulate(InSituPipeline(), short_spec, platform)
        assert m.power_report is not None
        assert m.power_report.average_storage_power == pytest.approx(2_273.0, rel=0.01)
        assert m.power_report.average_compute_power > 15_000.0

    def test_multi_camera_images_counted(self, platform):
        from repro.viz.render import Camera
        spec = PipelineSpec(
            ocean=MPASOceanConfig(duration_seconds=MONTH),
            sampling=SamplingPolicy(72.0),
            images=ImageSpec(cameras=(Camera(), Camera(zoom=2.0))),
        )
        m = simulate(InSituPipeline(), spec, platform)
        assert m.n_images == 2 * m.n_outputs


class TestRealPlatform:
    @pytest.fixture(scope="class")
    def tiny_scale(self):
        return RealScale(nx=32, ny=16, n_steps=6, steps_between_outputs=2,
                         image_width=48, image_height=24, spinup_steps=4)

    def test_real_insitu_run(self, tmp_path, tiny_scale):
        plat = RealPlatform(str(tmp_path), scale=tiny_scale)
        m = run_real(InSituPipeline(), plat)
        assert m.pipeline == IN_SITU
        assert m.n_outputs == 3
        assert m.n_images == 6  # two cameras
        assert m.storage_bytes > 0
        assert m.average_power is None  # a laptop run cannot meter power
        # Real artifacts exist on disk.
        cinema_dirs = [p for p in os.listdir(tmp_path) if p.startswith("in-situ")]
        assert cinema_dirs
        assert os.path.exists(os.path.join(tmp_path, cinema_dirs[0], "cinema", "info.json"))

    def test_real_post_run(self, tmp_path, tiny_scale):
        plat = RealPlatform(str(tmp_path), scale=tiny_scale)
        m = run_real(PostProcessingPipeline(), plat)
        assert m.pipeline == POST_PROCESSING
        assert m.n_outputs == 3
        assert m.n_images == 3
        run_dirs = [p for p in os.listdir(tmp_path) if p.startswith("post")]
        raw = os.path.join(tmp_path, run_dirs[0], "raw")
        assert len(os.listdir(raw)) == 3

    def test_real_storage_reduction(self, tmp_path, tiny_scale):
        """Even at mini scale, images are far smaller than raw fields."""
        plat = RealPlatform(str(tmp_path), scale=tiny_scale)
        insitu = run_real(InSituPipeline(), plat)
        post = run_real(PostProcessingPipeline(), plat)
        assert insitu.storage_bytes < 0.5 * post.storage_bytes

    def test_identical_initial_conditions_across_pipelines(self, tmp_path, tiny_scale):
        """Both pipelines simulate the same ocean (seeded driver)."""
        plat = RealPlatform(str(tmp_path), scale=tiny_scale)
        a = plat.new_driver()
        b = plat.new_driver()
        import numpy as np
        np.testing.assert_array_equal(a.solver.vorticity(), b.solver.vorticity())

    def test_scale_validation(self):
        with pytest.raises(ConfigurationError):
            RealScale(n_steps=7, steps_between_outputs=2)
        with pytest.raises(ConfigurationError):
            RealScale(n_steps=0)
