"""Tests for the study report, Green500 reporting and node allocation."""

from __future__ import annotations

import pytest

from repro.cluster.allocation import Allocator
from repro.cluster.machine import caddy
from repro.core.characterization import run_characterization
from repro.core.metrics import IN_SITU, POST_PROCESSING
from repro.core.report import StudyReport, render_report
from repro.errors import ConfigurationError, ResourceError
from repro.ocean.driver import MPASOceanConfig
from repro.pipelines.base import PipelineSpec
from repro.power.green500 import efficiency_report
from repro.units import MONTH


@pytest.fixture(scope="module")
def study():
    return run_characterization()


class TestStudyReport:
    def test_full_render(self, study):
        text = StudyReport(study).render()
        for heading in ("# In-Situ", "## Measurements", "## Storage power",
                        "## Calibrated model", "## What-if"):
            assert heading in text
        # Every grid cell appears.
        for hours in ("8", "24", "72"):
            assert f"| every {hours} h | in-situ |" in text
            assert f"| every {hours} h | post-processing |" in text

    def test_model_numbers_present(self, study):
        text = StudyReport(study).render()
        assert "603" in text
        assert "s/GB" in text

    def test_write_to_disk(self, study, tmp_path):
        path = str(tmp_path / "report.md")
        n = StudyReport(study).write(path)
        assert n == (tmp_path / "report.md").stat().st_size

    def test_render_report_convenience(self, study, tmp_path):
        path = str(tmp_path / "r.md")
        text = render_report(study, path=path, whatif_years=50.0)
        assert "50-year campaign" in text
        with open(path) as fh:
            assert fh.read() == text

    def test_validation(self, study):
        with pytest.raises(ConfigurationError):
            StudyReport(study, whatif_years=0.0)
        with pytest.raises(ConfigurationError):
            StudyReport(study, whatif_storage_budget_gb=-1.0)
        with pytest.raises(ConfigurationError):
            StudyReport(study, whatif_intervals=())


class TestGreen500:
    def test_two_scopes(self, study):
        m = study.metrics.get(IN_SITU, 24.0)
        rep = efficiency_report(m, MPASOceanConfig())
        assert rep.level3_energy_joules > rep.level1_energy_joules
        assert rep.level1_efficiency > rep.level3_efficiency
        assert 0.0 < rep.storage_scope_penalty < 0.2

    def test_insitu_more_efficient_than_post(self, study):
        cfg = MPASOceanConfig()
        insitu = efficiency_report(study.metrics.get(IN_SITU, 8.0), cfg)
        post = efficiency_report(study.metrics.get(POST_PROCESSING, 8.0), cfg)
        # Same useful work, less energy: in-situ wins at both scopes.
        assert insitu.cell_steps == post.cell_steps
        assert insitu.level3_efficiency > post.level3_efficiency

    def test_summary_renders(self, study):
        rep = efficiency_report(study.metrics.get(IN_SITU, 24.0), MPASOceanConfig())
        assert "cell-steps/J" in rep.summary()

    def test_unmetered_run_rejected(self):
        from repro.core.metrics import Measurement
        m = Measurement(
            pipeline=IN_SITU, sample_interval_hours=24.0, execution_time=1.0,
            n_timesteps=10, storage_bytes=0, n_outputs=1,
        )
        with pytest.raises(ConfigurationError):
            efficiency_report(m, MPASOceanConfig())


class TestAllocator:
    def test_exclusive_allocation(self, sim):
        cluster = caddy(sim)
        alloc = Allocator(cluster)
        a = alloc.allocate("sim", 100)
        b = alloc.allocate("viz", 50)
        assert a.n_nodes == 100 and b.n_nodes == 50
        assert alloc.free_nodes == 0
        assert not any(node in b for node in a.nodes)

    def test_over_allocation_rejected(self, sim):
        alloc = Allocator(caddy(sim))
        alloc.allocate("big", 140)
        with pytest.raises(ResourceError):
            alloc.allocate("more", 11)

    def test_release_returns_nodes(self, sim):
        alloc = Allocator(caddy(sim))
        p = alloc.allocate("tmp", 30)
        alloc.release(p)
        assert alloc.free_nodes == 150
        assert p.released
        with pytest.raises(ResourceError):
            alloc.release(p)

    def test_release_idles_nodes(self, sim):
        alloc = Allocator(caddy(sim))
        p = alloc.allocate("busy", 10)
        p.set_utilization(1.0)
        alloc.release(p)
        assert all(n.utilization == 0.0 for n in p.nodes)

    def test_partition_utilization_and_power(self, sim):
        cluster = caddy(sim)
        alloc = Allocator(cluster)
        p = alloc.allocate("p", 10)
        p.set_utilization(1.0)
        assert p.current_power == pytest.approx(10 * cluster.node_model.peak_watts)
        # The rest of the machine stayed idle.
        assert cluster.current_power == pytest.approx(
            10 * cluster.node_model.peak_watts + 140 * cluster.node_model.idle_watts
        )

    def test_released_partition_unusable(self, sim):
        alloc = Allocator(caddy(sim))
        p = alloc.allocate("p", 5)
        alloc.release(p)
        with pytest.raises(ResourceError):
            p.set_utilization(0.5)

    def test_duplicate_name_rejected(self, sim):
        alloc = Allocator(caddy(sim))
        alloc.allocate("p", 5)
        with pytest.raises(ConfigurationError):
            alloc.allocate("p", 5)

    def test_allocate_fraction(self, sim):
        alloc = Allocator(caddy(sim))
        p = alloc.allocate_fraction("tenth", 0.1)
        assert p.n_nodes == 15
        with pytest.raises(ConfigurationError):
            alloc.allocate_fraction("bad", 0.0)

    def test_get_by_name(self, sim):
        alloc = Allocator(caddy(sim))
        p = alloc.allocate("p", 5)
        assert alloc.get("p") is p
        assert alloc.get("missing") is None
