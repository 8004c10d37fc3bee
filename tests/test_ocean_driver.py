"""Tests for the campaign configuration, cost model and mini driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ocean.driver import MPASOceanConfig, OceanCostModel
from repro.pipelines.real import MiniOceanDriver
from repro.units import MONTH


class TestMPASOceanConfig:
    def test_reference_configuration(self):
        cfg = MPASOceanConfig()
        assert cfg.n_cells == 163_842
        assert cfg.n_timesteps == 8_640
        # Six 3-D vars × 60 levels + two 2-D vars, 8 B each: ≈0.47 GB/sample.
        assert cfg.bytes_per_sample / 1e9 == pytest.approx(0.472, abs=0.01)

    def test_output_counts_match_paper(self):
        cfg = MPASOceanConfig()
        assert cfg.n_outputs(8.0) == 540
        assert cfg.n_outputs(24.0) == 180
        assert cfg.n_outputs(72.0) == 60

    def test_campaign_storage_matches_paper_shape(self):
        """Raw volumes land near the paper's 230/80/27 GB (Fig. 7)."""
        cfg = MPASOceanConfig()
        for hours, paper_gb in ((8.0, 230.0), (24.0, 80.0), (72.0, 27.0)):
            ours = cfg.n_outputs(hours) * cfg.bytes_per_sample / 1e9
            assert ours == pytest.approx(paper_gb, rel=0.15)

    def test_steps_between_outputs(self):
        cfg = MPASOceanConfig()
        assert cfg.steps_between_outputs(8.0) == 16
        assert cfg.steps_between_outputs(0.5) == 1

    def test_non_integral_cadence_rejected(self):
        cfg = MPASOceanConfig()
        with pytest.raises(ConfigurationError):
            cfg.steps_between_outputs(0.4)  # 48 min is not a 30-min multiple

    @pytest.mark.parametrize("hours", [float("inf"), float("nan")])
    def test_non_finite_cadence_rejected(self, hours):
        with pytest.raises(ConfigurationError, match="finite"):
            MPASOceanConfig().steps_between_outputs(hours)

    def test_scaled_changes_only_duration(self):
        cfg = MPASOceanConfig()
        century = cfg.scaled(200 * cfg.duration_seconds)
        assert century.n_timesteps == 200 * cfg.n_timesteps
        assert century.n_cells == cfg.n_cells

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MPASOceanConfig(resolution_km=0)
        with pytest.raises(ConfigurationError):
            MPASOceanConfig(timestep_seconds=0)
        with pytest.raises(ConfigurationError):
            MPASOceanConfig(bytes_per_value=3)
        with pytest.raises(ConfigurationError):
            MPASOceanConfig(n_vertical_levels=0)


class TestOceanCostModel:
    def test_reference_simulation_time_is_603s(self):
        """The paper's measured t_sim on 150 nodes."""
        cm = OceanCostModel()
        assert cm.simulation_seconds(MPASOceanConfig(), 150) == pytest.approx(603.0)

    def test_strong_scaling(self):
        cm = OceanCostModel()
        cfg = MPASOceanConfig()
        assert cm.seconds_per_step(cfg, 300) == pytest.approx(
            cm.seconds_per_step(cfg, 150) / 2
        )

    def test_work_scales_with_cells_and_levels(self):
        cm = OceanCostModel()
        small = MPASOceanConfig(resolution_km=120.0)
        big = MPASOceanConfig(resolution_km=60.0)
        assert cm.seconds_per_step(big, 150) > cm.seconds_per_step(small, 150)

    def test_invalid_nodes(self):
        with pytest.raises(ConfigurationError):
            OceanCostModel().seconds_per_step(MPASOceanConfig(), 0)


class TestMiniOceanDriver:
    def test_advance_tracks_time(self):
        d = MiniOceanDriver(nx=32, ny=16, seed=0)
        d.advance(4)
        assert d.step_count == 4
        assert d.time == pytest.approx(4 * 1_800.0)

    def test_output_fields_complete_and_well_formed(self, mini_fields, mini_driver):
        expected = {"u", "v", "vorticity", "okubo_weiss", "temperature",
                    "salinity", "layer_thickness", "ssh"}
        assert set(mini_fields) == expected
        shape = mini_driver.grid.shape
        for name, arr in mini_fields.items():
            assert arr.shape == shape, name
            assert np.isfinite(arr).all(), name
            assert arr.flags["C_CONTIGUOUS"], name

    def test_diagnostic_proxies_physical_ranges(self, mini_fields):
        assert 5.0 < mini_fields["temperature"].mean() < 25.0
        assert 34.0 < mini_fields["salinity"].mean() < 36.0
        assert (mini_fields["layer_thickness"] > 0).all()

    def test_okubo_weiss_consistent_with_fields(self, mini_driver, mini_fields):
        np.testing.assert_allclose(
            mini_driver.okubo_weiss_field(), mini_fields["okubo_weiss"], atol=1e-12
        )

    def test_cfl_guard(self):
        with pytest.raises(ConfigurationError):
            MiniOceanDriver(nx=128, ny=64, timestep_seconds=100_000.0)

    def test_seed_reproducibility(self):
        a = MiniOceanDriver(nx=32, ny=16, seed=5)
        b = MiniOceanDriver(nx=32, ny=16, seed=5)
        a.advance(3)
        b.advance(3)
        np.testing.assert_array_equal(
            a.output_fields()["vorticity"], b.output_fields()["vorticity"]
        )
