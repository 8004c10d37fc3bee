"""Tests for :mod:`repro.obs.store` — the run registry and its analytics.

Covers the PR's acceptance criteria end to end: content-addressed ingest
(idempotent for re-ingests *and* seeded identical runs), byte-identical
query output across invocations, quarantine of damaged segments, the
histogram quantile estimator against known distributions, MAD-gated
trends (exit 2 on an injected regression, 0 clean), the machine-readable
``summarize --json`` mirror, and the lint rule that polices metric-name
literals at the store/query APIs.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.lint import run_lint
from repro.obs.cli import build_summary, main as obs_cli_main, summarize
from repro.obs.drift import check_value, mad_band
from repro.obs.registry import Histogram, MetricsRegistry, bucket_quantile
from repro.obs.store import RunStore
from repro.obs.store.core import QUARANTINE_DIRNAME, normalize_run
from repro.obs.store.query import (
    parse_since,
    parse_where,
    render_records,
    render_records_json,
    run_query,
    select_runs,
)
from repro.obs.store.report import render_store_html
from repro.obs.store.trend import compute_trend, run_metric_value


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts (and ends) with a fresh default registry."""
    obs.default_registry().reset()
    yield
    obs.default_registry().reset()
    assert obs.active() is None


def make_run(root, name, steps=100.0, label="demo", phase_seconds=10.0):
    """One recorded telemetry run with a controllable metric value."""
    directory = os.path.join(str(root), name)
    with obs.session(
        directory,
        label=label,
        registry=MetricsRegistry(),
        argv=["test"],
        config={"scenario": {"name": "unit", "digest": "f" * 64}},
    ):
        obs.phase("simulation", 0.0, phase_seconds)
        obs.counter("repro_engine_steps_total", steps)
        obs.observe("repro_pipeline_phase_seconds", phase_seconds, phase="sim")
    return directory


# ------------------------------------------------------------- quantiles


class TestBucketQuantile:
    def test_uniform_distribution_interpolates_exactly(self):
        # 10 observations uniform over unit buckets (0,1], (1,2], ... (9,10]:
        # the estimator must reproduce the exact uniform quantiles.
        hist = Histogram({}, bounds=[float(b) for b in range(1, 11)])
        for i in range(10):
            hist.observe(i + 0.5)
        assert hist.quantile(0.5) == pytest.approx(5.0)
        assert hist.quantile(0.95) == pytest.approx(9.5)
        assert hist.quantile(0.1) == pytest.approx(1.0)
        assert hist.quantile(1.0) == pytest.approx(10.0)

    def test_single_observation(self):
        hist = Histogram({}, bounds=[1.0, 2.0, 4.0])
        hist.observe(1.5)
        # The lone observation sits in (1, 2]; every quantile interpolates
        # inside that bucket.
        assert 1.0 < hist.quantile(0.5) <= 2.0

    def test_overflow_bucket_returns_last_finite_bound(self):
        hist = Histogram({}, bounds=[1.0, 2.0])
        hist.observe(100.0)
        assert hist.quantile(0.99) == pytest.approx(2.0)

    def test_empty_histogram_is_nan(self):
        hist = Histogram({}, bounds=[1.0])
        assert math.isnan(hist.quantile(0.5))

    def test_out_of_range_q_raises(self):
        with pytest.raises(ConfigurationError):
            bucket_quantile([(1.0, 1)], 1.5)

    def test_skewed_distribution(self):
        # 90 observations in (0,1], 10 in (9,10]: p50 inside the first
        # bucket, p99 inside the last.
        pairs = [(1.0, 90), (9.0, 90), (10.0, 100), (float("inf"), 100)]
        assert bucket_quantile(pairs, 0.5) == pytest.approx(50.0 / 90.0)
        assert bucket_quantile(pairs, 0.99) == pytest.approx(9.9)


# ---------------------------------------------------------------- ingest


class TestIngest:
    def test_ingest_same_run_twice_is_noop(self, tmp_path):
        run = make_run(tmp_path, "r1")
        store = RunStore(str(tmp_path / "store"))
        first = store.ingest(run)
        again = store.ingest(run)
        assert first.created and not again.created
        assert first.run_key == again.run_key
        assert len(store.runs()) == 1

    def test_seeded_identical_runs_collapse_to_one_key(self, tmp_path):
        # Two separate sessions with byte-identical telemetry content must
        # hash to the same run key: the digest excludes created_unix,
        # run_id and argv.
        a = make_run(tmp_path, "a")
        b = make_run(tmp_path, "b")
        store = RunStore(str(tmp_path / "store"))
        first = store.ingest(a)
        second = store.ingest(b)
        assert first.run_key == second.run_key
        assert first.created and not second.created
        assert len(store.runs()) == 1

    def test_distinct_runs_get_distinct_keys(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        k1 = store.ingest(make_run(tmp_path, "r1", steps=100.0)).run_key
        k2 = store.ingest(make_run(tmp_path, "r2", steps=200.0)).run_key
        assert k1 != k2
        assert len(store.runs()) == 2

    def test_counts_and_manifest_stamp(self, tmp_path):
        run = make_run(tmp_path, "r1")
        store = RunStore(str(tmp_path / "store"))
        result = store.ingest(run)
        assert result.counts["span"] == 1
        # steps counter + one phase-seconds series per phase label.
        assert result.counts["metric"] == 3
        assert result.n_rows == sum(result.counts.values())
        with open(os.path.join(run, "manifest.json")) as fh:
            manifest = json.load(fh)
        stamp = manifest["config"]["store"]
        assert stamp["run_key"] == result.run_key
        assert stamp["n_rows"] == result.n_rows
        assert stamp["counts"] == result.counts

    def test_stamp_does_not_change_the_run_key(self, tmp_path):
        # The stamp rewrites the manifest; a later re-ingest must still
        # dedupe (the key derives from records, not config).
        run = make_run(tmp_path, "r1")
        store = RunStore(str(tmp_path / "store"))
        first = store.ingest(run)
        again = store.ingest(run)
        assert first.run_key == again.run_key and not again.created

    def test_index_row_round_trip(self, tmp_path):
        run = make_run(tmp_path, "r1")
        store = RunStore(str(tmp_path / "store"))
        store.ingest(run)
        (row,) = store.runs()
        assert row.label == "demo"
        assert row.scenario_name == "unit"
        assert row.scenario_digest == "f" * 64
        assert row.trace_id
        assert row.segment.endswith(f"{row.run_key}.jsonl")

    def test_bench_report_ingests_as_run(self, tmp_path):
        path = tmp_path / "BENCH_exec.json"
        path.write_text(json.dumps({
            "serial_seconds": 4.0, "parallel_seconds": 2.0,
            "speedup_parallel": 2.0, "cache": {"hits": 3, "misses": 1},
        }))
        store = RunStore(str(tmp_path / "store"))
        result = store.ingest(str(path))
        assert result.created and result.counts == {"bench": 5}
        (row,) = store.runs()
        assert row.label == "bench-full"
        assert run_metric_value(store.records(row), "serial_seconds") == 4.0

    def test_nonexistent_path_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RunStore(str(tmp_path / "store")).ingest(str(tmp_path / "nope"))

    def test_normalize_flattens_timeline_and_alerts(self, tmp_path):
        directory = tmp_path / "run"
        with obs.session(
            str(directory), label="demo", registry=MetricsRegistry()
        ) as sess:
            sess.event(
                "obs.alert",
                rule="power_cap_exceeded", severity="critical",
                series="repro_timeline_power_compute_watts",
                t=3.0, value=999.0, threshold=500.0,
            )
        with open(directory / "timeline.jsonl", "w") as fh:
            fh.write(json.dumps({
                "type": "sample", "t": 1.0,
                "values": {"repro_timeline_power_compute_watts": 410.0},
            }) + "\n")
        meta, rows = normalize_run(str(directory))
        kinds = sorted(r["kind"] for r in rows)
        assert kinds == ["alert", "sample"]
        alert = next(r for r in rows if r["kind"] == "alert")
        assert alert["rule"] == "power_cap_exceeded"
        assert alert["severity"] == "critical"
        sample = next(r for r in rows if r["kind"] == "sample")
        assert sample["series"] == "repro_timeline_power_compute_watts"
        assert sample["value"] == 410.0


# ------------------------------------------------------------ quarantine


class TestQuarantine:
    def test_corrupt_segment_quarantines_cleanly(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        store.ingest(make_run(tmp_path, "r1"))
        (row,) = store.runs()
        segment = store.segment_path(row)
        lines = open(segment).read().splitlines()
        # Damage a MIDDLE line: that is corruption, not truncation.
        lines[1] = '{"kind": "met'
        with open(segment, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            records = store.records(row)
        assert records == []
        assert not os.path.exists(segment)
        quarantined = os.path.join(
            store.root, QUARANTINE_DIRNAME, os.path.basename(segment)
        )
        assert os.path.exists(quarantined)
        # Queries over the store survive, minus the damaged run.
        with pytest.warns(RuntimeWarning, match="missing"):
            assert run_query(store) == []

    def test_torn_final_segment_line_is_tolerated(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        store.ingest(make_run(tmp_path, "r1"))
        (row,) = store.runs()
        segment = store.segment_path(row)
        with open(segment, "a") as fh:
            fh.write('{"kind": "torn mid-wri')
        with pytest.warns(RuntimeWarning, match="dropping"):
            records = store.records(row)
        # All the intact rows survive; the torn tail is dropped.
        assert len(records) == row.n_rows
        assert os.path.exists(segment)

    def test_torn_final_index_line_is_tolerated(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        store.ingest(make_run(tmp_path, "r1", steps=1.0))
        store.ingest(make_run(tmp_path, "r2", steps=2.0))
        with open(store.index_path, "a") as fh:
            fh.write('{"run_key": "torn')
        with pytest.warns(RuntimeWarning, match="dropping"):
            rows = store.runs()
        assert len(rows) == 2


# ----------------------------------------------------------------- query


class TestQuery:
    def make_store(self, tmp_path, n=3):
        store = RunStore(str(tmp_path / "store"))
        for i in range(n):
            store.ingest(
                make_run(tmp_path, f"r{i}", steps=100.0 + i,
                         phase_seconds=10.0 + i)
            )
        return store

    def test_query_output_is_byte_identical_across_invocations(self, tmp_path):
        store = self.make_store(tmp_path)
        where = parse_where(["kind=metric,name=repro_*"])
        first = render_records(run_query(store, where=where))
        second = render_records(run_query(store, where=where))
        assert first == second
        assert render_records_json(run_query(store, where=where)) == \
            render_records_json(run_query(store, where=where))

    def test_cli_query_json_is_byte_identical(self, tmp_path, capsys):
        store = self.make_store(tmp_path)
        argv = ["query", "--store", store.root,
                "--where", "kind=metric", "--json"]
        assert obs_cli_main(argv) == 0
        first = capsys.readouterr().out
        assert obs_cli_main(argv) == 0
        assert capsys.readouterr().out == first
        assert len(first.splitlines()) == 9  # 3 runs x 3 metric series

    def test_where_filters(self, tmp_path):
        store = self.make_store(tmp_path)
        spans = run_query(store, where=parse_where(["kind=span"]))
        assert {r["name"] for _, r in spans} == {"simulation"}
        labelled = run_query(
            store, where=parse_where(["label.phase=sim"])
        )
        assert {r["name"] for _, r in labelled} == {
            "repro_pipeline_phase_seconds"
        }
        assert run_query(store, where=parse_where(["kind=alert"])) == []

    def test_prefix_wildcard_and_name_aliasing(self, tmp_path):
        store = self.make_store(tmp_path)
        prefixed = run_query(store, where=parse_where(["name=repro_engine_*"]))
        assert len(prefixed) == 3
        assert all(
            r["name"] == "repro_engine_steps_total" for _, r in prefixed
        )

    def test_run_level_filters(self, tmp_path):
        store = self.make_store(tmp_path)
        rows = store.runs()
        assert select_runs(store, scenario_digest="ff") == rows
        assert select_runs(store, scenario_digest="00") == []
        assert select_runs(store, label="demo") == rows
        assert select_runs(store, label="other") == []
        assert select_runs(store, run_key=rows[0].run_key[:10]) == [rows[0]]

    def test_limit_and_bad_where(self, tmp_path):
        store = self.make_store(tmp_path)
        assert len(run_query(store, limit=2)) == 2
        with pytest.raises(ConfigurationError):
            parse_where(["nonsense"])
        with pytest.raises(ConfigurationError):
            parse_where(["bogus_key=1"])
        with pytest.raises(ConfigurationError):
            run_query(store, limit=0)

    def test_parse_since_forms(self):
        assert parse_since("1700000000") == 1700000000.0
        assert parse_since("1970-01-01") == 0.0
        assert parse_since("1970-01-01T00:01:00") == 60.0
        with pytest.raises(ConfigurationError):
            parse_since("yesterday")

    def test_histogram_records_carry_quantile_columns(self, tmp_path):
        store = self.make_store(tmp_path, n=1)
        (pair,) = run_query(
            store,
            where=parse_where(
                ["name=repro_pipeline_phase_seconds,label.phase=sim"]
            ),
        )
        record = pair[1]
        assert record["metric_type"] == "histogram"
        assert record["count"] == 1
        for column in ("p50", "p95", "p99"):
            assert column in record


# ----------------------------------------------------------------- trend


class TestTrend:
    def build_store(self, tmp_path, values):
        store = RunStore(str(tmp_path / "store"))
        for i, value in enumerate(values):
            # Distinct phase times keep equal-valued runs from collapsing
            # into one content-addressed key.
            store.ingest(
                make_run(tmp_path, f"r{i}", steps=value,
                         phase_seconds=10.0 + i)
            )
        return store

    def test_clean_trajectory_passes(self, tmp_path):
        store = self.build_store(tmp_path, [100.0, 101.0, 99.0, 100.0, 100.5])
        trend = compute_trend(store, "repro_engine_steps_total")
        assert len(trend.points) == 5
        assert trend.check is not None and not trend.failed

    def test_injected_regression_fails(self, tmp_path):
        store = self.build_store(tmp_path, [100.0, 101.0, 99.0, 100.0, 300.0])
        trend = compute_trend(store, "repro_engine_steps_total")
        assert trend.failed
        assert trend.check.direction == "above"

    def test_direction_below(self, tmp_path):
        store = self.build_store(tmp_path, [100.0, 101.0, 99.0, 100.0, 10.0])
        above = compute_trend(store, "repro_engine_steps_total")
        below = compute_trend(
            store, "repro_engine_steps_total", direction="below"
        )
        assert not above.failed
        assert below.failed

    def test_short_history_is_informational(self, tmp_path):
        store = self.build_store(tmp_path, [100.0, 200.0])
        trend = compute_trend(store, "repro_engine_steps_total")
        assert trend.check is None and not trend.failed

    def test_absent_metric_has_no_points(self, tmp_path):
        store = self.build_store(tmp_path, [100.0])
        trend = compute_trend(store, "repro_storage_writes_total")
        assert trend.points == ()

    def test_cli_trend_check_exit_codes(self, tmp_path, capsys):
        clean = self.build_store(
            tmp_path / "clean", [100.0, 101.0, 99.0, 100.0, 100.5]
        )
        assert obs_cli_main(
            ["trend", "--store", clean.root, "--check",
             "repro_engine_steps_total"]
        ) == 0
        capsys.readouterr()
        bad = self.build_store(
            tmp_path / "bad", [100.0, 101.0, 99.0, 100.0, 300.0]
        )
        assert obs_cli_main(
            ["trend", "--store", bad.root, "--check",
             "repro_engine_steps_total"]
        ) == 2
        out = capsys.readouterr()
        assert "DRIFT" in out.out
        # Without --check the same regression only reports.
        assert obs_cli_main(
            ["trend", "--store", bad.root, "repro_engine_steps_total"]
        ) == 0

    def test_cli_trend_json(self, tmp_path, capsys):
        store = self.build_store(tmp_path, [100.0, 100.0, 100.0, 250.0])
        assert obs_cli_main(
            ["trend", "--store", store.root, "--json",
             "repro_engine_steps_total"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == ["repro_engine_steps_total"]
        (trend,) = payload["trends"]
        assert [p["value"] for p in trend["points"]] == [
            100.0, 100.0, 100.0, 250.0,
        ]

    def test_histogram_and_span_stats(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        for i in range(3):
            store.ingest(
                make_run(tmp_path, f"r{i}", phase_seconds=10.0 + i)
            )
        by_sum = compute_trend(
            store, "repro_pipeline_phase_seconds", stat="sum"
        )
        # The sum aggregates across both phase label series (phase=sim
        # observe + phase=simulation from obs.phase), each phase_seconds.
        assert [p.value for p in by_sum.points] == [20.0, 22.0, 24.0]
        spans = compute_trend(store, "simulation")
        assert [p.value for p in spans.points] == [10.0, 11.0, 12.0]
        with pytest.raises(ConfigurationError):
            compute_trend(store, "repro_pipeline_phase_seconds", stat="mean")

    def test_drift_primitives_shared_with_bench_ledger(self):
        median, halfwidth = mad_band([10.0, 10.0, 10.0, 10.0])
        assert median == 10.0
        assert halfwidth == pytest.approx(2.5)  # REL_FLOOR * |median|
        check = check_value("m", 13.0, [10.0, 10.0, 10.0, 10.0])
        assert check is not None and check.failed


# ------------------------------------------------------------ bench runs

#: The CI perf job's drift step: one trend gate over the bench-quick runs
#: per direction (wall times fail above the band, speedups below it).
BENCH_GATES = (
    ["--check", "serial_seconds", "parallel_seconds", "cached_seconds"],
    ["--check", "--direction", "below", "speedup_parallel", "speedup_cached"],
)


def write_bench(root, name, quick=True, scale=1.0, **overrides):
    """A ``BENCH_exec.json``-shaped report; ``scale`` moves the wall times."""
    report = {
        "quick": quick,
        "serial_seconds": 1.0 * scale,
        "parallel_seconds": 0.5 * scale,
        "cached_seconds": 0.005 * scale,
        "speedup_parallel": 2.0,
        "speedup_cached": 200.0,
    }
    report.update(overrides)
    path = os.path.join(str(root), f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return path


class TestBenchRuns:
    def bench_store(self, tmp_path, *extra):
        """Four in-band quick reports, then one per ``(name, kwargs)``."""
        tmp_path.mkdir(exist_ok=True)
        store = RunStore(str(tmp_path / "store"))
        for i, scale in enumerate((1.0, 1.02, 0.98, 1.01)):
            store.ingest(write_bench(tmp_path, f"q{i}", scale=scale))
        for name, overrides in extra:
            store.ingest(write_bench(tmp_path, name, **overrides))
        return store

    def gate(self, store, capsys, gate):
        """Exit code and DRIFT-flagged metrics of one CI trend call."""
        code = obs_cli_main(
            ["trend", "--store", store.root, "--label", "bench-quick", *gate]
        )
        out = capsys.readouterr().out
        drifted = [
            line.split()[0] for line in out.splitlines()
            if line.rstrip().endswith("DRIFT")
        ]
        return code, drifted

    def test_ci_gates_name_exactly_the_drifted_metrics(self, tmp_path, capsys):
        slow = self.bench_store(
            tmp_path / "slow",
            ("slow", {"serial_seconds": 2.0, "speedup_parallel": 1.0}),
        )
        walls, speedups = (self.gate(slow, capsys, g) for g in BENCH_GATES)
        assert walls == (2, ["serial_seconds"])
        assert speedups == (2, ["speedup_parallel"])
        # The opposite moves are improvements, not drift.
        fast = self.bench_store(
            tmp_path / "fast",
            ("fast", {"serial_seconds": 0.5, "speedup_parallel": 4.0}),
        )
        for gate in BENCH_GATES:
            assert self.gate(fast, capsys, gate) == (0, [])

    def test_full_sweep_stays_out_of_the_quick_trend(self, tmp_path, capsys):
        store = self.bench_store(
            tmp_path, ("full", {"quick": False, "scale": 10.0})
        )
        assert [r.label for r in store.runs()] == ["bench-quick"] * 4 + [
            "bench-full"
        ]
        assert obs_cli_main(
            ["trend", "--store", store.root, "--label", "bench-quick",
             "--json", "--check", "serial_seconds"]
        ) == 0
        (trend,) = json.loads(capsys.readouterr().out)["trends"]
        assert [p["value"] for p in trend["points"]] == [1.0, 1.02, 0.98, 1.01]
        assert trend["check"] is not None and not trend["failed"]

    def test_report_time_and_provenance_reach_the_index(self, tmp_path):
        path = write_bench(
            tmp_path, "stamped", created_unix=1_700_000_000.5,
            provenance={"git_commit": "0123abcd", "repro_version": "9.9.9"},
        )
        store = RunStore(str(tmp_path / "store"))
        store.ingest(path)
        (row,) = store.runs()
        assert row.label == "bench-quick"
        assert row.created_unix == 1_700_000_000.5
        assert row.git_commit == "0123abcd"
        assert row.repro_version == "9.9.9"

    def test_unsupported_stat_is_refused(self, tmp_path, capsys):
        store = self.bench_store(tmp_path)
        (row, *_) = store.runs()
        with pytest.raises(ConfigurationError, match="value or last"):
            run_metric_value(store.records(row), "serial_seconds", stat="max")
        assert obs_cli_main(
            ["trend", "--store", store.root, "--check", "--stat", "max",
             "serial_seconds"]
        ) == 2
        assert "does not apply to bench key" in capsys.readouterr().err

    def test_report_without_bench_keys_is_refused(self, tmp_path, capsys):
        path = tmp_path / "BENCH_exec.json"
        path.write_text(json.dumps({"quick": True, "workers": 2}))
        store_dir = str(tmp_path / "store")
        assert obs_cli_main(["ingest", "--store", store_dir, str(path)]) == 2
        assert "carries none of the bench metrics" in capsys.readouterr().err
        assert RunStore(store_dir).runs() == []


# ---------------------------------------------------------------- report


class TestStoreReport:
    def test_dashboard_renders_runs_and_regressions(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        for i, value in enumerate([100.0, 101.0, 99.0, 100.0, 300.0]):
            store.ingest(
                make_run(tmp_path, f"r{i}", steps=value,
                         phase_seconds=10.0 + i)
            )
        html = render_store_html(store)
        assert "repro run registry" in html
        assert "repro_engine_steps_total" in html
        assert "DRIFT" in html
        assert html.count("<circle") >= 5

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            render_store_html(RunStore(str(tmp_path / "store")))

    def test_cli_report_store_mode(self, tmp_path, capsys):
        store = RunStore(str(tmp_path / "store"))
        for i in range(2):
            store.ingest(make_run(tmp_path, f"r{i}", steps=100.0 + i))
        assert obs_cli_main(["report", "--store", store.root]) == 0
        assert os.path.exists(os.path.join(store.root, "trends.html"))
        # A run path and --store together are ambiguous.
        assert obs_cli_main(
            ["report", str(tmp_path / "r0"), "--store", store.root]
        ) == 2
        # Neither is unusable.
        assert obs_cli_main(["report"]) == 2


# ------------------------------------------------------- summarize --json


class TestSummarizeJson:
    def test_json_mirrors_text_facts(self, tmp_path, capsys):
        run = make_run(tmp_path, "r1")
        assert obs_cli_main(["summarize", run, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "demo"
        assert payload["scenario"]["name"] == "unit"
        assert payload["spans"] == {
            "simulation": {"count": 1, "seconds": 10.0}
        }
        assert payload["alerts"] == {"total": 0, "by_severity": {}}
        assert "repro_engine_steps_total" in payload["metrics"]
        assert payload["durations"]["simulation"] == 10.0

    def test_to_dict_and_render_agree(self, tmp_path):
        run = make_run(tmp_path, "r1")
        summary = build_summary(run)
        # The text path is unchanged: summarize() is render().
        assert summarize(run) == summary.render()
        data = summary.to_dict()
        assert data["n_events"] == summary.manifest.n_events
        assert f"run 'demo'" in summary.render()
        assert data["timeline"] is None


# ------------------------------------------------------------------ lint


class TestStoreLintRule:
    def lint(self, tmp_path, source):
        target = tmp_path / "snippet.py"
        target.write_text(source, encoding="utf-8")
        return [f for f in run_lint([str(target)]) if f.rule == "obs-naming"]

    def test_bad_trend_literal_is_flagged(self, tmp_path):
        findings = self.lint(
            tmp_path,
            "compute_trend(store, 'repro_bogus')\n",
        )
        assert len(findings) == 1
        assert "repro_bogus" in findings[0].message

    def test_good_trend_literals_pass(self, tmp_path):
        assert self.lint(
            tmp_path,
            "compute_trend(store, 'repro_engine_steps_total')\n"
            "compute_trends(store, ['repro_pipeline_phase_seconds',\n"
            "                       'repro_timeline_power_compute_watts'])\n"
            "run_metric_value(records, 'simulation')\n",
        ) == []

    def test_bad_name_in_trends_list_is_flagged(self, tmp_path):
        findings = self.lint(
            tmp_path,
            "compute_trends(store, ['repro_engine_steps_total',"
            " 'repro_typo'])\n",
        )
        assert len(findings) == 1
        assert "repro_typo" in findings[0].message

    def test_where_clause_names_are_checked(self, tmp_path):
        findings = self.lint(
            tmp_path,
            "parse_where(['kind=metric,name=repro_nope'])\n",
        )
        assert len(findings) == 1
        # The wildcard form is the documented prefix grammar, not a typo.
        assert self.lint(
            tmp_path, "parse_where(['name=repro_engine_*'])\n"
        ) == []
        # Non-name keys and non-repro values are out of scope.
        assert self.lint(
            tmp_path, "parse_where(['kind=metric,severity=critical'])\n"
        ) == []


# -------------------------------------------------------- scenario/CLI glue


class TestScenarioPlumbing:
    def test_store_requires_directory(self):
        from repro.scenario.schema import TelemetryConfig

        with pytest.raises(Exception, match="telemetry.store"):
            TelemetryConfig(store=".repro/store")
        config = TelemetryConfig(directory="out/t", store=".repro/store")
        assert config.to_dict()["store"] == ".repro/store"

    def test_to_dict_omits_store_when_unset(self):
        from repro.scenario.schema import TelemetryConfig

        # Byte-identity of pre-registry scenarios and manifests depends on
        # the key being absent, not null.
        assert "store" not in TelemetryConfig(directory="out/t").to_dict()

    def test_loader_accepts_store_key(self, tmp_path):
        from repro.scenario.loader import load_scenario

        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "name": "s",
            "experiment": {"kind": "characterize"},
            "telemetry": {"directory": "out/t", "store": ".repro/store"},
        }))
        scenario = load_scenario(str(path))
        assert scenario.telemetry.store == ".repro/store"
        # Transport sections stay out of the identity digest.
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({
            "schema_version": 1,
            "name": "s",
            "experiment": {"kind": "characterize"},
        }))
        assert (
            scenario.content_digest() == load_scenario(str(bare)).content_digest()
        )

    def test_cli_store_without_telemetry_is_an_error(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["characterize", "--store", "x"]) == 2
        assert "--store needs --telemetry" in capsys.readouterr().err

    def test_cli_ingest_command(self, tmp_path, capsys):
        run = make_run(tmp_path, "r1")
        store_dir = str(tmp_path / "store")
        assert obs_cli_main(["ingest", "--store", store_dir, run]) == 0
        first = capsys.readouterr().out
        assert "ingested" in first
        assert obs_cli_main(["ingest", "--store", store_dir, run]) == 0
        assert "already present" in capsys.readouterr().out
