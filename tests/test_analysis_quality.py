"""Tests for the sampling-quality analysis (:mod:`repro.analysis.quality`)."""

from __future__ import annotations

import pytest

from repro.analysis.quality import (
    SamplingQuality,
    evaluate_sampling_quality,
    quality_table,
)
from repro.errors import ConfigurationError
from repro.pipelines.real import MiniOceanDriver


def tiny_driver() -> MiniOceanDriver:
    driver = MiniOceanDriver(nx=48, ny=24, seed=9)
    driver.advance(15)
    return driver


@pytest.fixture(scope="module")
def sweep():
    return evaluate_sampling_quality(
        strides=(1, 2, 4, 8), n_steps=32, driver_factory=tiny_driver
    )


class TestEvaluateSamplingQuality:
    def test_one_result_per_stride(self, sweep):
        assert [q.stride for q in sweep] == [1, 2, 4, 8]

    def test_interval_hours_from_timestep(self, sweep):
        # The mini driver's 1800 s timestep -> 0.5 h per stride unit.
        assert sweep[0].interval_hours == pytest.approx(0.5)
        assert sweep[-1].interval_hours == pytest.approx(4.0)

    def test_frame_counts(self, sweep):
        assert sweep[0].n_frames == 32
        assert sweep[-1].n_frames == 4

    def test_link_rate_high_at_native_cadence(self, sweep):
        assert sweep[0].link_rate > 0.85

    def test_link_rate_degrades_with_stride(self, sweep):
        rates = [q.link_rate for q in sweep]
        assert rates[-1] <= rates[0]
        for a, b in zip(rates, rates[1:]):
            assert b <= a + 0.05  # monotone within detection noise

    def test_same_detections_across_strides(self, sweep):
        counts = [q.eddies_per_frame for q in sweep]
        assert max(counts) - min(counts) < 0.15 * max(counts)

    def test_duplicate_strides_deduplicated(self):
        out = evaluate_sampling_quality(
            strides=(2, 2, 1), n_steps=16, driver_factory=tiny_driver
        )
        assert [q.stride for q in out] == [1, 2]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            evaluate_sampling_quality(strides=(), n_steps=16)
        with pytest.raises(ConfigurationError):
            evaluate_sampling_quality(strides=(0,), n_steps=16)
        with pytest.raises(ConfigurationError):
            evaluate_sampling_quality(strides=(16,), n_steps=16)  # <2 frames


class TestSamplingQualityRecord:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SamplingQuality(stride=0, interval_hours=1.0, n_frames=2,
                            eddies_per_frame=1.0, link_rate=0.5,
                            mean_lifetime_hours=1.0, n_tracks=1)
        with pytest.raises(ConfigurationError):
            SamplingQuality(stride=1, interval_hours=1.0, n_frames=2,
                            eddies_per_frame=1.0, link_rate=1.5,
                            mean_lifetime_hours=1.0, n_tracks=1)


class TestQualityTable:
    def test_renders_all_rows(self, sweep):
        table = quality_table(sweep)
        assert table.count("\n") == len(sweep)
        assert "link rate" in table
