"""Tests for :mod:`repro.obs` — the unified telemetry layer."""

from __future__ import annotations

import itertools
import json
import os
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.characterization import run_characterization
from repro.errors import ConfigurationError
from repro.events.engine import Simulator
from repro.obs.cli import main as obs_cli_main
from repro.obs.cli import resolve_directory, summarize
from repro.obs.registry import DEFAULT_BUCKETS, Counter, Histogram, MetricsRegistry
from repro.ocean.driver import MPASOceanConfig
from repro.pipelines.base import PipelineSpec
from repro.units import MONTH


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts (and ends) with a fresh default registry."""
    obs.default_registry().reset()
    yield
    obs.default_registry().reset()
    assert obs.active() is None


@pytest.fixture
def small_spec() -> PipelineSpec:
    return PipelineSpec(ocean=MPASOceanConfig(duration_seconds=MONTH))


# ------------------------------------------------------------------ naming


class TestNaming:
    def test_valid_names_pass(self):
        for name in (
            "repro_storage_writes_total",
            "repro_pipeline_phase_seconds",
            "repro_power_meter_watts",
            "repro_io_buffer_bytes",
            "repro_model_error_ratio",
            "repro_cluster_energy_joules",
        ):
            obs.validate_metric_name(name)

    def test_invalid_names_rejected(self):
        for name in (
            "writes_total",               # missing repro_ prefix
            "repro_writes_total",         # missing <layer> segment
            "repro_storage_writes",       # missing unit suffix
            "repro_storage_writes_count", # unknown unit
            "repro_Storage_writes_total", # uppercase
            "repro_storage__writes_total",
            "",
        ):
            with pytest.raises(ConfigurationError):
                obs.validate_metric_name(name)

    def test_regexp_is_exported(self):
        assert obs.METRIC_NAME_RE.match("repro_storage_writes_total")
        assert not obs.METRIC_NAME_RE.match("repro_bad")


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_storage_writes_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("repro_storage_writes_total").inc(-1.0)

    @pytest.mark.parametrize("amount", [float("nan"), float("inf")])
    def test_counter_rejects_non_finite(self, amount):
        reg = MetricsRegistry()
        c = reg.counter("repro_storage_writes_total")
        c.inc(2.0)
        with pytest.raises(ConfigurationError):
            c.inc(amount)
        assert c.value == 2.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_histogram_rejects_non_finite_and_negative(self, value):
        reg = MetricsRegistry()
        h = reg.histogram("repro_pipeline_phase_seconds", buckets=(1.0, 10.0))
        h.observe(0.5)
        with pytest.raises(ConfigurationError):
            h.observe(value)
        assert h.cumulative() == [(1.0, 1), (10.0, 1), (float("inf"), 1)]
        assert (h.sum, h.count) == (0.5, 1)
        assert "nan" not in obs.to_prometheus(reg)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_cluster_utilization_ratio")
        g.set(0.75)
        g.inc(0.1)
        g.dec(0.05)
        assert g.value == pytest.approx(0.8)

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("repro_pipeline_runs_total", pipeline="in-situ").inc()
        reg.counter("repro_pipeline_runs_total", pipeline="post").inc(2)
        snap = reg.snapshot()
        values = {
            s["labels"]["pipeline"]: s["value"]
            for s in snap["repro_pipeline_runs_total"]["series"]
        }
        assert values == {"in-situ": 1.0, "post": 2.0}

    def test_same_labels_return_same_series(self):
        reg = MetricsRegistry()
        labels = {"pipeline": "x", "mode": "sim", "cached": "false"}
        first = reg.counter("repro_pipeline_runs_total", **labels)
        for _ in range(2):  # a label set seen before, in every keyword order
            for order in itertools.permutations(labels):
                assert reg.counter(
                    "repro_pipeline_runs_total", **{k: labels[k] for k in order}
                ) is first
        assert reg.counter("repro_pipeline_runs_total") is reg.counter("repro_pipeline_runs_total")
        assert len(reg.snapshot()["repro_pipeline_runs_total"]["series"]) == 2

    def test_label_values_name_series_by_their_text(self):
        # 1 and "1" read the same; 1 and True are equal as dict keys but
        # read "1" and "True", so they name two series.
        reg = MetricsRegistry()
        for _ in range(2):
            one = reg.counter("repro_pipeline_runs_total", node=1)
            assert reg.counter("repro_pipeline_runs_total", node="1") is one
            true = reg.counter("repro_pipeline_runs_total", node=True)
            assert true is not one
            assert reg.counter("repro_pipeline_runs_total", node=1) is one
            assert reg.counter("repro_pipeline_runs_total", node=True) is true
            one.inc()
            true.inc(2.0)
        text = obs.to_prometheus(reg)
        assert 'repro_pipeline_runs_total{node="1"} 2' in text
        assert 'repro_pipeline_runs_total{node="True"} 4' in text

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.tuples(
        st.dictionaries(st.sampled_from(["a", "b", "c"]),
                        st.sampled_from([1, "1", True, 1.0, "x", 0.0, -0.0])),
        st.floats(min_value=0.0, max_value=10.0),
    ), max_size=20))
    def test_lookups_match_sorted_key_lookups(self, lookups):
        # The reference finds every series by its sorted text key, with no
        # shortcut for a label set seen before.
        def sorted_key_child(family, labels):
            key = tuple(sorted((k, str(v)) for k, v in labels.items()))
            if key not in family.series:
                family.series[key] = (
                    Histogram(labels, family.bounds or DEFAULT_BUCKETS)
                    if family.kind == "histogram" else Counter(labels)
                )
            return family.series[key]

        reg, reference = MetricsRegistry(), MetricsRegistry()
        for labels, amount in lookups:
            reg.counter("repro_pipeline_runs_total", **labels).inc(amount)
            reg.histogram("repro_pipeline_phase_seconds", **labels).observe(amount)
            for name, kind in (("repro_pipeline_runs_total", "counter"),
                               ("repro_pipeline_phase_seconds", "histogram")):
                metric = sorted_key_child(reference._family(name, kind, ""), labels)
                if kind == "counter":
                    metric.inc(amount)
                else:
                    metric.observe(amount)

        def typed(snapshot):  # 1 == True as label values: compare their JSON
            return json.dumps(snapshot, sort_keys=True)

        assert typed(reg.snapshot()) == typed(reference.snapshot())
        assert obs.to_prometheus(reg) == obs.to_prometheus(reference)

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_pipeline_phase_seconds", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.cumulative() == [(1.0, 1), (10.0, 2), (float("inf"), 3)]
        assert h.sum == pytest.approx(55.5)
        assert h.count == 3

    def test_histogram_bucket_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("repro_pipeline_phase_seconds", buckets=(1.0, 10.0))
        with pytest.raises(ConfigurationError):
            reg.histogram("repro_pipeline_phase_seconds", buckets=(2.0, 20.0))
        with pytest.raises(ConfigurationError):
            reg.histogram("repro_io_wait_seconds", buckets=(10.0, 1.0))

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_storage_writes_total")
        with pytest.raises(ConfigurationError):
            reg.gauge("repro_storage_writes_total")

    def test_invalid_name_rejected_at_creation(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("writes")

    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("repro_storage_writes_total").inc()
        reg.histogram("repro_pipeline_phase_seconds", phase="io").observe(2.0)
        text = json.dumps(reg.snapshot())
        assert "+Inf" in text

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("repro_storage_writes_total").inc()
        reg.reset()
        assert len(reg) == 0


# ------------------------------------------------------------------- spans


class TestSpans:
    def test_noop_without_session(self):
        with obs.span("quiet", answer=42):
            pass
        obs.counter("repro_storage_writes_total")
        obs.phase("simulation", 0.0, 1.0)
        obs.event("nothing")
        assert not obs.enabled()

    def test_nesting_records_parents(self):
        with obs.session(keep_records=True) as sess:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        records = list(sess.records)
        inner = next(r for r in records if r["name"] == "inner")
        outer = next(r for r in records if r["name"] == "outer")
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert inner["domain"] == obs.WALL

    def test_sim_clock_domain(self):
        sim = Simulator()
        with obs.session(keep_records=True) as sess:
            with obs.span("des", clock=sim):
                sim.timeout(5.0)
                sim.run()
        (record,) = [r for r in sess.records if r["type"] == "span"]
        assert record["domain"] == obs.SIM
        assert record["dur"] == pytest.approx(5.0)

    def test_error_is_attributed(self):
        with obs.session(keep_records=True) as sess:
            with pytest.raises(ValueError):
                with obs.span("doomed"):
                    raise ValueError("boom")
        (record,) = [r for r in sess.records if r["type"] == "span"]
        assert record["attrs"]["error"] == "ValueError"

    def test_decorator_form(self):
        @obs.span("worker", flavor="decorated")
        def work(x):
            return x + 1

        with obs.session(keep_records=True) as sess:
            assert work(1) == 2
            assert work(2) == 3
        spans = [r for r in sess.records if r["type"] == "span"]
        assert len(spans) == 2
        assert all(s["attrs"]["flavor"] == "decorated" for s in spans)

    def test_phase_feeds_histogram_and_totals(self):
        with obs.session() as sess:
            obs.phase("simulation", 0.0, 10.0)
            obs.phase("simulation", 10.0, 15.0)
            obs.phase("viz", 15.0, 16.0)
        assert sess.phase_totals == {"simulation": 15.0, "viz": 1.0}
        snap = sess.registry.snapshot()
        series = snap[obs.PHASE_SECONDS_METRIC]["series"]
        by_phase = {s["labels"]["phase"]: s["count"] for s in series}
        assert by_phase == {"simulation": 2, "viz": 1}


# ---------------------------------------------------------------- sessions


class TestSession:
    def test_nested_sessions_rejected(self):
        with obs.session():
            with pytest.raises(ConfigurationError):
                with obs.session():
                    pass

    def test_directory_artifacts(self, tmp_path):
        d = str(tmp_path / "telemetry")
        with obs.session(d, label="unit", config={"seed": 7}):
            with obs.span("work"):
                obs.counter("repro_storage_writes_total")
            obs.event("checkpoint", step=1)
        assert sorted(os.listdir(d)) == [
            obs.EVENTS_FILENAME, obs.MANIFEST_FILENAME, obs.PROM_FILENAME,
        ]
        records = list(obs.read_jsonl(os.path.join(d, obs.EVENTS_FILENAME)))
        assert [r["type"] for r in records] == ["span", "event"]
        manifest = obs.RunManifest.load(d)
        assert manifest.label == "unit"
        assert manifest.n_events == 2
        assert manifest.provenance["seeds"] == {"seed": 7}
        with open(os.path.join(d, obs.PROM_FILENAME)) as fh:
            prom = fh.read()
        assert "# TYPE repro_storage_writes_total counter" in prom
        assert "repro_storage_writes_total 1" in prom

    def test_manifest_round_trip(self, tmp_path):
        with obs.session(str(tmp_path), label="rt") as sess:
            obs.phase("io", 0.0, 2.0)
            manifest = sess.manifest()
        loaded = obs.RunManifest.load(str(tmp_path))
        assert loaded.to_dict()["durations"] == manifest.to_dict()["durations"]
        assert loaded.run_id == sess.run_id
        assert loaded.schema_version == obs.manifest.SCHEMA_VERSION

    def test_malformed_manifest_rejected(self):
        with pytest.raises(ConfigurationError):
            obs.RunManifest.from_dict({"label": "x"})

    def test_session_cleared_after_exception(self):
        with pytest.raises(RuntimeError):
            with obs.session():
                raise RuntimeError("boom")
        assert not obs.enabled()


class TestGitLookup:
    def test_one_lookup_per_process(self, tmp_path, monkeypatch):
        from repro.obs.manifest import git_commit

        calls = []
        run = subprocess.run

        def counting(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        git_commit.cache_clear()
        monkeypatch.setattr(subprocess, "run", counting)
        for label in ("a", "b"):
            with obs.session(str(tmp_path / label), label=label):
                pass
        assert len(calls) == 1
        commits = {
            obs.RunManifest.load(str(tmp_path / label)).provenance["git_commit"]
            for label in ("a", "b")
        }
        assert commits == {git_commit()}

    def test_cache_code_version_is_the_commit(self):
        from repro.exec.cache import default_code_version
        from repro.obs.manifest import git_commit

        commit = git_commit()
        if commit is not None:
            assert default_code_version() == commit
        else:
            assert default_code_version().startswith("repro-")


# -------------------------------------------------- pipeline instrumentation


class TestPipelineIntegration:
    def test_characterize_emits_all_phases_for_both_pipelines(
        self, tmp_path, small_spec
    ):
        d = str(tmp_path / "telemetry")
        with obs.session(d, label="characterize"):
            run_characterization(intervals_hours=(72.0,), spec=small_spec)
        manifest = obs.RunManifest.load(d)
        assert {"simulation", "viz", "io"} <= set(manifest.durations)
        records = list(obs.read_jsonl(os.path.join(d, obs.EVENTS_FILENAME)))
        runs = [r for r in records if r["name"] == "pipeline.run"]
        assert {r["attrs"]["pipeline"] for r in runs} == {
            "in-situ", "post-processing",
        }
        assert all(r["domain"] == obs.SIM for r in runs)
        # Phase records nest under their pipeline.run span.
        run_ids = {r["id"] for r in runs}
        phases = [r for r in records if r["type"] == "phase"]
        assert phases and all(p["parent"] in run_ids for p in phases)
        for family in (
            "repro_events_processed_total",
            "repro_pipeline_runs_total",
            "repro_pipeline_storage_bytes",
            "repro_storage_writes_total",
            "repro_power_meter_reads_total",
            "repro_viz_images_total",
        ):
            assert family in manifest.metrics, family

    def test_results_bit_identical_with_telemetry_off_and_on(
        self, tmp_path, small_spec
    ):
        plain = run_characterization(intervals_hours=(72.0,), spec=small_spec)
        with obs.session(str(tmp_path)):
            telemetered = run_characterization(
                intervals_hours=(72.0,), spec=small_spec
            )
        a = [m.to_dict() for m in plain.metrics]
        b = [m.to_dict() for m in telemetered.metrics]
        assert a == b

    def test_event_counter_tracks_engine_steps(self, small_spec):
        with obs.session() as sess:
            run_characterization(intervals_hours=(72.0,), spec=small_spec)
        snap = sess.registry.snapshot()
        series = snap["repro_events_processed_total"]["series"]
        assert all(s["value"] > 0 for s in series)
        assert {s["labels"]["pipeline"] for s in series} == {
            "in-situ", "post-processing",
        }


# --------------------------------------------------------------------- CLI


class TestObsCli:
    def _run_session(self, directory: str) -> None:
        with obs.session(directory, label="cli", argv=["characterize"]):
            with obs.span("work"):
                obs.phase("simulation", 0.0, 3.0)
            obs.counter("repro_storage_writes_total")

    def test_resolve_directory_variants(self, tmp_path):
        d = str(tmp_path)
        self._run_session(d)
        assert resolve_directory(d) == d
        assert resolve_directory(os.path.join(d, obs.MANIFEST_FILENAME)) == d
        assert resolve_directory(os.path.join(d, obs.EVENTS_FILENAME)) == d
        with pytest.raises(ConfigurationError):
            resolve_directory(os.path.join(d, "nope.txt"))

    def test_summarize_round_trips(self, tmp_path):
        d = str(tmp_path)
        self._run_session(d)
        text = summarize(d)
        assert "run 'cli'" in text
        assert "simulation" in text
        assert "repro_storage_writes_total" in text

    def test_cli_summarize_and_dump(self, tmp_path, capsys):
        d = str(tmp_path)
        self._run_session(d)
        assert obs_cli_main(["summarize", d]) == 0
        assert "phase totals:" in capsys.readouterr().out
        assert obs_cli_main(["dump", d, "--limit", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert json.loads(out[0])["type"] == "phase"

    def test_cli_rejects_missing_directory(self, tmp_path, capsys):
        assert obs_cli_main(["summarize", str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_repro_obs_subcommand(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        d = str(tmp_path)
        self._run_session(d)
        assert repro_main(["obs", "summarize", d]) == 0
        assert "run 'cli'" in capsys.readouterr().out


class TestReproCliTelemetry:
    def test_characterize_telemetry_and_json(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main as repro_main
        from repro.core import characterization as char

        spec = PipelineSpec(ocean=MPASOceanConfig(duration_seconds=MONTH))
        original = char.run_characterization
        calls = []

        def one_month(**kwargs):
            calls.append(kwargs)
            return original(**{**kwargs, "spec": spec})

        # `repro characterize` reaches the grid through
        # repro.scenario.run._characterize, which looks the root's name up.
        monkeypatch.setattr("repro.run_characterization", one_month)
        d = str(tmp_path / "out")
        rc = repro_main(
            ["characterize", "--intervals", "72", "--json", "--telemetry", d]
        )
        assert rc == 0
        assert [call["intervals_hours"] for call in calls] == [(72.0,)]
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["measurements"]) == 2
        assert "72" in payload["comparisons"]
        manifest = obs.RunManifest.load(d)
        assert manifest.label == "characterize"
        assert manifest.config["intervals"] == [72.0]
        assert {"simulation", "viz", "io"} <= set(manifest.durations)
