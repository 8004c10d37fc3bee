"""End-to-end tests: the full Section V / VI / VII reproduction.

These run the complete experiment grid on the simulated platform and check
the paper's headline findings *in shape* — who wins, by roughly what factor,
where crossovers fall.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import paper
from repro.core.characterization import (
    CharacterizationStudy,
    run_characterization,
    storage_power_sweep,
)
from repro.core.metrics import IN_SITU, POST_PROCESSING, MetricSet
from repro.errors import ConfigurationError
from repro.exec.api import RunRequest, build_pipeline
from repro.pipelines.base import PipelineSpec
from repro.pipelines.platform import SimulatedPlatform
from repro.pipelines.sampling import SamplingPolicy
from repro.units import years


@pytest.fixture(scope="module")
def study() -> CharacterizationStudy:
    """The full 6-configuration grid (shared across tests; read-only)."""
    return run_characterization()


class TestSectionV:
    def test_grid_is_complete(self, study):
        assert len(study.metrics) == 6
        assert study.metrics.sample_intervals() == [8.0, 24.0, 72.0]
        assert study.metrics.pipelines() == [IN_SITU, POST_PROCESSING]

    def test_finding1_time_savings_shape(self, study):
        """Fig. 3: ~51 % / 38 % / 19 % faster at 8 / 24 / 72 h."""
        for hours, expected in paper.TIME_SAVINGS.items():
            got = study.metrics.time_savings(hours)
            assert got == pytest.approx(expected, abs=0.07), f"at {hours} h"

    def test_savings_diminish_with_coarser_sampling(self, study):
        s = [study.metrics.time_savings(h) for h in (8.0, 24.0, 72.0)]
        assert s == sorted(s, reverse=True)

    def test_finding3_power_practically_unchanged(self, study):
        """Fig. 5: no meaningful power difference between pipelines."""
        for hours in paper.SAMPLING_INTERVALS_HOURS:
            assert abs(study.metrics.power_change(hours)) < 0.05, f"at {hours} h"

    def test_finding4_energy_savings_shape(self, study):
        """Fig. 6: energy tracks execution time."""
        for hours, expected in paper.ENERGY_SAVINGS.items():
            got = study.metrics.energy_savings(hours)
            assert got == pytest.approx(expected, abs=0.07), f"at {hours} h"

    def test_fig7_storage_shape(self, study):
        """230 / 80 / 27 GB raw vs <1 GB of images; >=99.5 % reduction."""
        for hours, expected_gb in paper.POST_STORAGE_GB.items():
            post = study.metrics.get(POST_PROCESSING, hours)
            assert post.storage_gb == pytest.approx(expected_gb, rel=0.15), f"at {hours} h"
            insitu = study.metrics.get(IN_SITU, hours)
            assert insitu.storage_gb < paper.INSITU_STORAGE_GB_MAX
            assert study.metrics.storage_savings(hours) > paper.STORAGE_REDUCTION_MIN

    def test_fig7_output_counts(self, study):
        for hours, n in paper.N_OUTPUTS.items():
            assert study.metrics.get(IN_SITU, hours).n_outputs == n
            assert study.metrics.get(POST_PROCESSING, hours).n_outputs == n

    def test_compute_power_envelope(self, study):
        """Average power sits between idle (15 kW) and loaded (44 kW) + storage."""
        for m in study.metrics:
            assert 15_000.0 < m.average_power < 44_000.0 + 2_302.0

    def test_findings_narrative_renders(self, study):
        text = study.findings()
        assert "faster" in text and "energy" in text and "storage" in text

    def test_table_renders_all_rows(self, study):
        assert study.table().count("\n") == 5


class TestStoragePowerProportionality:
    def test_sweep_endpoints_match_paper(self):
        rows = storage_power_sweep()
        assert rows[0] == (0.0, pytest.approx(paper.STORAGE_IDLE_W))
        assert rows[-1][1] == pytest.approx(paper.STORAGE_FULL_W)

    def test_dynamic_range_is_1_3_percent(self):
        rows = storage_power_sweep()
        assert rows[-1][1] / rows[0][1] - 1.0 == pytest.approx(
            paper.STORAGE_PROPORTIONALITY, abs=0.002
        )

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            storage_power_sweep(fractions=[1.5])


class TestSectionVI:
    def test_calibration_recovers_eq5(self, study):
        """t_sim ≈ 603, α ≈ 6.3 s/GB, β ≈ 1.2 s/image from *measured* data."""
        result = study.calibrate()
        assert result.model.t_sim_ref == pytest.approx(paper.EQ5_T_SIM, rel=0.02)
        assert result.model.alpha == pytest.approx(paper.EQ5_ALPHA_S_PER_GB, rel=0.10)
        assert result.model.beta == pytest.approx(paper.EQ5_BETA_S_PER_IMAGE, rel=0.10)

    def test_fig8_validation_error_under_half_percent(self, study):
        """Model error on held-out configurations <0.5 % (Fig. 8)."""
        rows = study.validate()
        assert len(rows) == 3
        for point, _pred, rel in rows:
            assert abs(rel) < paper.MODEL_MAX_ERROR, point.label

    def test_training_points_are_the_paper_configs(self, study):
        labels = {p.label for p in study.training_points()}
        assert labels == {"in-situ@8h", "in-situ@72h", "post-processing@24h"}

    def test_average_power_flat_across_grid(self, study):
        p = study.average_power()
        for m in study.metrics:
            assert m.average_power == pytest.approx(p, rel=0.05)


class TestSectionVII:
    def test_fig9_post_forced_to_about_8_days(self, study):
        an = study.analyzer()
        h = an.finest_interval_for_storage(
            POST_PROCESSING, paper.WHATIF_STORAGE_BUDGET_GB, years(paper.WHATIF_YEARS)
        )
        assert h / 24.0 == pytest.approx(paper.WHATIF_POST_FORCED_INTERVAL_DAYS, rel=0.25)

    def test_fig9_insitu_fine_at_daily_or_better(self, study):
        an = study.analyzer()
        h = an.finest_interval_for_storage(
            IN_SITU, paper.WHATIF_STORAGE_BUDGET_GB, years(paper.WHATIF_YEARS)
        )
        assert h <= 24.0

    def test_fig10_energy_savings_callouts(self, study):
        an = study.analyzer()
        dur = years(paper.WHATIF_YEARS)
        for hours, expected in paper.WHATIF_ENERGY_SAVINGS.items():
            got = an.energy_savings(hours, dur)
            assert got == pytest.approx(expected, abs=0.05), f"at {hours} h"


class TestRunCharacterizationApi:
    def test_empty_interval_list_rejected(self):
        with pytest.raises(ConfigurationError):
            run_characterization(intervals_hours=())

    def test_custom_intervals(self):
        from repro.ocean.driver import MPASOceanConfig
        from repro.pipelines.base import PipelineSpec
        from repro.units import MONTH
        spec = PipelineSpec(ocean=MPASOceanConfig(duration_seconds=MONTH))
        small = run_characterization(intervals_hours=(72.0,), spec=spec)
        assert len(small.metrics) == 2
        assert small.metrics.sample_intervals() == [72.0]


def canonical_sha256(obj) -> str:
    """sha256 of ``obj``'s sorted-keys compact JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def fig3_cells() -> list:
    """Both pipelines at 8, 24 and 72 h on the default spec, each on its own
    platform: ``(result, events processed)`` per cell, in that order."""
    base = PipelineSpec()
    cells = []
    for hours in (8.0, 24.0, 72.0):
        for name in (IN_SITU, POST_PROCESSING):
            request = RunRequest(pipeline=name, spec=base.with_sampling(SamplingPolicy(hours)))
            platform = SimulatedPlatform()
            result = build_pipeline(request).execute(request, platform=platform)
            cells.append((result, platform.sim.events_processed))
    return cells


class TestFig3GridIsPinned:
    """Every event and every output byte of the Fig. 3 grid.

    A host-side speed-up may not add, drop or reorder a simulated event, nor
    move a float.  The digests are those the end-to-end benchmark's
    ``sweep-cache`` workload checks, computed the same way.
    """

    def test_events_processed(self, fig3_cells):
        events = [n for _, n in fig3_cells]
        assert events == [3_782, 9_724, 1_262, 3_244, 422, 1_084]
        assert sum(events) == 19_518

    def test_identity_payloads(self, fig3_cells):
        payloads = sorted(
            (result.identity_dict() for result, _ in fig3_cells),
            key=lambda d: json.dumps(d["request"], sort_keys=True),
        )
        assert canonical_sha256(payloads) == (
            "8849f72497574b05eaa78480ffe544fb74d04abc6cdcf12e61b9f892149cc1ad"
        )

    def test_calibration_and_fig9_fig10_rows(self, fig3_cells):
        study = CharacterizationStudy(
            MetricSet(result.measurement for result, _ in fig3_cells), PipelineSpec()
        )
        model = study.calibrate().model
        analyzer = study.analyzer()
        duration = study.spec.ocean.duration_seconds
        fig9 = analyzer.storage_vs_rate(
            intervals_hours=(1.0, 4.0, 8.0, 24.0, 72.0, 192.0, 384.0),
            duration_seconds=duration,
        )
        fig10 = analyzer.energy_vs_rate(
            intervals_hours=(1.0, 2.0, 4.0, 8.0, 12.0, 24.0, 48.0, 96.0),
            duration_seconds=duration,
        )
        assert canonical_sha256({
            "calibration": {"t_sim_ref": model.t_sim_ref, "alpha": model.alpha,
                            "beta": model.beta, "power_watts": model.power_watts},
            "fig9": [list(row) for row in fig9],
            "fig10": [list(row) for row in fig10],
        }) == "acce83b84aa2137aa28774a792252d152e2e17872c29135a9cdf77ec6beae57f"
