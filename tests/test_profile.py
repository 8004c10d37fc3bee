"""Tests for cross-process tracing, the energy profiler and ``obs diff``."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.core.characterization import run_characterization
from repro.errors import ConfigurationError
from repro.exec.engine import ExecutionEngine
from repro.obs.cli import main as obs_cli_main
from repro.obs.diff import diff_documents, flatten_document, flatten_manifest
from repro.obs.exporters import read_jsonl, to_prometheus
from repro.obs.profile import (
    folded_stacks,
    profile_directory,
    profile_events,
    render_text,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.report import write_report
from repro.obs.trace import derive_trace_id
from repro.ocean.driver import MPASOceanConfig
from repro.pipelines.base import PipelineSpec
from repro.units import MONTH


@pytest.fixture(autouse=True)
def _clean_registry():
    obs.default_registry().reset()
    yield
    obs.default_registry().reset()
    assert obs.active() is None


@pytest.fixture
def small_spec() -> PipelineSpec:
    return PipelineSpec(ocean=MPASOceanConfig(duration_seconds=MONTH))


def _run_grid(directory, spec, engine=None, intervals=(24.0,)) -> None:
    with obs.session(str(directory), label="characterize"):
        run_characterization(intervals_hours=intervals, spec=spec, engine=engine)


# ------------------------------------------------------------ trace context


class TestTraceContext:
    def test_trace_id_is_deterministic(self):
        assert derive_trace_id("characterize") == derive_trace_id("characterize")
        assert derive_trace_id("a") != derive_trace_id("b")


# ------------------------------------------------------- shard merge/tracing


class TestParallelTelemetry:
    def test_parallel_events_byte_identical_to_serial(self, tmp_path, small_spec):
        _run_grid(tmp_path / "serial", small_spec)
        _run_grid(
            tmp_path / "par1", small_spec, engine=ExecutionEngine(max_workers=2)
        )
        _run_grid(
            tmp_path / "par2", small_spec, engine=ExecutionEngine(max_workers=2)
        )
        serial = (tmp_path / "serial" / "events.jsonl").read_bytes()
        par1 = (tmp_path / "par1" / "events.jsonl").read_bytes()
        par2 = (tmp_path / "par2" / "events.jsonl").read_bytes()
        assert serial == par1, "parallel merge lost or reordered records"
        assert par1 == par2, "parallel runs are not repeatable"

    def test_no_worker_spans_lost(self, tmp_path, small_spec):
        _run_grid(tmp_path / "serial", small_spec)
        _run_grid(
            tmp_path / "par", small_spec, engine=ExecutionEngine(max_workers=2)
        )
        count = lambda d: sum(  # noqa: E731
            1 for _ in read_jsonl(str(tmp_path / d / "events.jsonl"))
        )
        assert count("par") == count("serial")

    def test_shared_trace_id_on_every_record(self, tmp_path, small_spec):
        _run_grid(
            tmp_path / "par", small_spec, engine=ExecutionEngine(max_workers=2)
        )
        records = list(read_jsonl(str(tmp_path / "par" / "events.jsonl")))
        ids = {r["trace"] for r in records}
        assert ids == {derive_trace_id("characterize")}

    def test_worker_metrics_merged(self, tmp_path, small_spec):
        _run_grid(
            tmp_path / "par", small_spec, engine=ExecutionEngine(max_workers=2)
        )
        manifest = json.load(open(tmp_path / "par" / "manifest.json"))
        # Simulation-side counters only increment inside the workers.
        assert "repro_events_processed_total" in manifest["metrics"]
        assert manifest["trace_id"] == derive_trace_id("characterize")


# ------------------------------------------------------------- registry merge


class TestRegistryMerge:
    def test_counter_and_gauge_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("repro_storage_writes_total").inc(2)
        b.counter("repro_storage_writes_total").inc(3)
        b.gauge("repro_storage_queue_bytes").set(7.0)
        a.merge(b.snapshot())
        assert a.counter("repro_storage_writes_total").value == 5
        assert a.gauge("repro_storage_queue_bytes").value == 7.0

    def test_histogram_merge_preserves_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, value in ((a, 0.5), (b, 2.0)):
            reg.histogram("repro_exec_task_seconds", bounds=(1.0, 10.0)).observe(value)
        a.merge(b.snapshot())
        h = a.histogram("repro_exec_task_seconds", bounds=(1.0, 10.0))
        assert h.count == 2
        assert h.sum == 2.5


# ----------------------------------------------------------- energy profiler


class TestEnergyConservation:
    def test_profile_conserves_energy_both_pipelines(self, tmp_path, small_spec):
        _run_grid(tmp_path / "run", small_spec)
        result = profile_directory(str(tmp_path / "run"))
        assert len(result.roots) == 2  # in-situ + post-processing
        assert result.conservation_errors(rtol=0.01) == []
        for rp in result.roots:
            assert rp.trace is not None
            assert rp.root.joules == pytest.approx(rp.trace_joules, rel=0.01)
            # Children never sum to more than the parent.
            for node in rp.root.walk():
                if node.joules is not None:
                    assert node.self_joules() >= -1e-6 * abs(node.joules)

    def test_io_bytes_attributed(self, tmp_path, small_spec):
        _run_grid(tmp_path / "run", small_spec)
        result = profile_directory(str(tmp_path / "run"))
        for rp in result.roots:
            assert rp.root.bytes_written > 0

    def test_renderings_smoke(self, tmp_path, small_spec):
        _run_grid(tmp_path / "run", small_spec)
        result = profile_directory(str(tmp_path / "run"))
        text = render_text(result)
        assert "pipeline.run" in text and "conservation" in text
        folded = folded_stacks(result)
        assert folded.count("\n") > 2
        for line in folded.strip().splitlines():
            frames, value = line.rsplit(" ", 1)
            assert frames and int(value) > 0

    def test_unmetered_stream_degrades_gracefully(self):
        records = [
            {"type": "span", "id": 1, "name": "pipeline.run",
             "parent": None, "t0": 0.0, "t1": 10.0, "domain": "sim"},
            {"type": "phase", "id": 2, "name": "simulation",
             "parent": 1, "t0": 0.0, "t1": 8.0, "domain": "sim"},
        ]
        result = profile_events(records)
        assert len(result.roots) == 1
        assert result.roots[0].root.joules is None
        assert result.conservation_errors() == []

    def test_power_trace_before_root_rejected(self):
        with pytest.raises(ConfigurationError):
            profile_events([
                {"type": "event", "name": "power_trace", "fields": {}},
            ])


class TestHtmlReport:
    def test_report_is_self_contained(self, tmp_path, small_spec):
        _run_grid(tmp_path / "run", small_spec)
        path = write_report(str(tmp_path / "run"))
        html = open(path, encoding="utf-8").read()
        assert html.startswith("<!doctype html>")
        assert "<svg" in html and "pipeline.run" not in html.split("<svg")[0]
        assert "http://" not in html and "https://" not in html  # no CDN assets
        assert "in-situ@24h" in html


# ------------------------------------------------------------------- obs diff


class TestDiff:
    def test_flatten_manifest_drops_volatile_keys(self):
        flat = flatten_manifest({
            "run_id": "x-1", "created_unix": 123.0, "n_events": 4,
            "durations": {"simulation": 2.0},
            "metrics": {
                "repro_storage_writes_total": {
                    "kind": "counter",
                    "series": [{"labels": {"tier": "burst"}, "value": 9.0}],
                },
                "repro_exec_task_seconds": {
                    "kind": "histogram",
                    "series": [{"labels": {}, "sum": 1.5, "count": 3}],
                },
            },
        })
        assert flat["n_events"] == 4.0
        assert flat["durations.simulation"] == 2.0
        assert flat["metrics.repro_storage_writes_total{tier=burst}"] == 9.0
        assert flat["metrics.repro_exec_task_seconds.sum"] == 1.5
        assert not any("run_id" in k or "created" in k for k in flat)

    def test_rel_delta_and_zero_handling(self):
        result = diff_documents(
            {"a": 10.0, "b": 0.0, "gone": 1.0}, {"a": 12.0, "b": 5.0, "new": 1.0}
        )
        by_key = {d.key: d for d in result.deltas}
        assert by_key["a"].rel_delta == pytest.approx(0.2)
        assert by_key["b"].rel_delta == float("inf")
        assert result.only_baseline == ["gone"]
        assert result.only_candidate == ["new"]

    def test_cli_exit_codes(self, tmp_path):
        base = tmp_path / "base.json"
        same = tmp_path / "same.json"
        worse = tmp_path / "worse.json"
        base.write_text(json.dumps({"speedup": 2.0, "seconds": 10.0}))
        same.write_text(json.dumps({"speedup": 2.05, "seconds": 10.1}))
        worse.write_text(json.dumps({"speedup": 1.0, "seconds": 30.0}))
        assert obs_cli_main(["diff", str(base), str(same)]) == 0
        assert obs_cli_main(
            ["diff", str(base), str(worse), "--threshold", "0.2"]
        ) == 3
        assert obs_cli_main(["diff", str(base), str(tmp_path / "nope.json")]) == 2

    def test_manifest_vs_json_rejected(self, tmp_path, small_spec, capsys):
        _run_grid(tmp_path / "run", small_spec)
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"speedup": 2.0}))
        rc = obs_cli_main(["diff", str(tmp_path / "run"), str(bench)])
        assert rc == 2
        assert "cannot diff" in capsys.readouterr().err

    def test_flatten_document_nested(self):
        flat = flatten_document({"a": {"b": [1, 2]}, "s": "text", "ok": True})
        assert flat == {"a.b[0]": 1.0, "a.b[1]": 2.0}


# ------------------------------------------------------------------ exporters


class TestExporterHardening:
    def test_prometheus_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter(
            "repro_storage_writes_total",
            path='dir\\file "x"\nnext',
        ).inc()
        text = to_prometheus(reg)
        assert 'path="dir\\\\file \\"x\\"\\nnext"' in text
        assert "\n\n" not in text

    def test_read_jsonl_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"tru', encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="truncated"):
            records = list(read_jsonl(str(path)))
        assert records == [{"a": 1}, {"b": 2}]

    def test_read_jsonl_midfile_corruption_still_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"a": 1}\n{bad\n{"b": 2}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            list(read_jsonl(str(path)))


# ------------------------------------------------------------ metric naming


class TestNewMetricNames:
    def test_new_names_follow_convention(self):
        for name in (
            "repro_profile_roots_total",
            "repro_profile_spans_total",
            "repro_profile_unattributed_joules",
            "repro_obs_truncated_records_total",
            "repro_exec_bench_seconds",
        ):
            obs.validate_metric_name(name)

    def test_lint_covers_profile_metrics(self, tmp_path):
        from repro.lint.engine import run_lint

        bad = tmp_path / "bad.py"
        bad.write_text(
            "from repro import obs\n"
            'obs.counter("repro_profile_roots_count")\n'
            'obs.counter("repro_obs_truncated_records")\n'
        )
        findings = run_lint([str(bad)], select=["obs-naming"])
        assert len([f for f in findings if f.rule == "obs-naming"]) == 2


# ----------------------------------------------------------- cache-hit metrics


class TestCacheHitMetrics:
    def test_cache_hits_record_task_metrics(self, tmp_path, small_spec):
        from repro.exec.cache import DiskCache
        from repro.exec.engine import ExecutionEngine as Engine
        from repro.pipelines.sampling import SamplingPolicy

        engine = Engine(max_workers=1, cache=DiskCache(str(tmp_path / "cache")))
        from repro.exec.api import RunRequest

        request = RunRequest(
            pipeline="in-situ",
            spec=small_spec.with_sampling(SamplingPolicy(24.0)),
        )
        with obs.session(str(tmp_path / "tel"), label="cachehit"):
            engine.map([request])   # miss
            engine.map([request])   # hit
            snap = obs.default_registry().snapshot()
        series = snap["repro_exec_tasks_total"]["series"]
        by_cached = {s["labels"]["cached"]: s["value"] for s in series}
        assert by_cached == {"false": 1.0, "true": 1.0}
        hist = snap["repro_exec_task_seconds"]["series"]
        assert {s["labels"]["cached"] for s in hist} == {"false", "true"}
