"""Tests for supervised execution: crash recovery, deadlines, retries,
resumable sweeps, structured failure records, and the crash-safe write
helpers in ``repro.atomicio``."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.atomicio import append_jsonl_line, atomic_write_json, atomic_write_text
from repro.core.metrics import IN_SITU, POST_PROCESSING
from repro.errors import ConfigurationError, SweepError, TransientIOError
from repro.exec.api import RunRequest
from repro.exec.cache import DiskCache
from repro.exec.engine import ExecutionEngine, supervised_task
from repro.exec.supervise import (
    CHAOS_ENV,
    SweepJournal,
    TaskPolicy,
    parse_chaos,
)
from repro.faults.retry import RetryPolicy
from repro.obs.exporters import read_jsonl
from repro.obs.watch import default_exec_rules
from repro.ocean.driver import MPASOceanConfig
from repro.pipelines.base import PipelineSpec
from repro.pipelines.sampling import SamplingPolicy
from repro.units import MONTH


def tiny_spec(hours: float = 72.0) -> PipelineSpec:
    return PipelineSpec(
        ocean=MPASOceanConfig(duration_seconds=MONTH),
        sampling=SamplingPolicy(hours),
    )


def tiny_requests(n: int = 3) -> list:
    return [
        RunRequest(pipeline=IN_SITU, spec=tiny_spec(24.0 * (i + 1)))
        for i in range(n)
    ]


def fast_retry(attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=attempts,
        base_delay_seconds=0.001,
        max_delay_seconds=0.002,
        jitter=0.0,
    )


def supervisor(**kwargs) -> ExecutionEngine:
    kwargs.setdefault("sleeper", lambda _s: None)
    return ExecutionEngine(**kwargs)


@pytest.fixture(scope="module")
def serial_reference():
    """The serial identity dicts the supervised runs must reproduce."""
    return [r.identity_dict() for r in ExecutionEngine().map(tiny_requests())]


class TestTaskPolicy:
    def test_defaults_are_bounded(self):
        policy = TaskPolicy()
        assert policy.retry.max_attempts == 3
        assert policy.max_worker_crashes == 3
        assert policy.fail_policy == "abort"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TaskPolicy(deadline_seconds=0.0)
        with pytest.raises(ConfigurationError):
            TaskPolicy(max_worker_crashes=0)
        with pytest.raises(ConfigurationError):
            TaskPolicy(fail_policy="shrug")

    def test_to_dict_round_trips_json(self):
        assert json.loads(json.dumps(TaskPolicy().to_dict()))["fail_policy"] == "abort"


class TestChaosParsing:
    def test_clauses(self):
        plan = parse_chaos("exit=1,2;raise_once=3;dir=/tmp/x;hang=4;hang_seconds=9")
        assert plan["exit"] == {1, 2}
        assert plan["raise_once"] == {3}
        assert plan["hang"] == {4}
        assert plan["hang_seconds"] == 9.0
        assert plan["dir"] == "/tmp/x"

    def test_once_without_dir_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_chaos("exit_once=1")

    def test_malformed_clause_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_chaos("bogus")
        with pytest.raises(ConfigurationError):
            parse_chaos("frobnicate=1")

    def test_raise_injection_in_process(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "raise=0")
        with pytest.raises(TransientIOError):
            supervised_task(tiny_requests(1)[0], 0)

    def test_no_chaos_for_negative_index(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "raise=0")
        result = supervised_task(tiny_requests(1)[0], -1)
        assert result.measurement is not None


class TestCrashRecovery:
    def test_worker_exit_is_recovered(self, serial_reference, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, f"exit_once=1;dir={tmp_path / 'chaos'}")
        ex = supervisor(max_workers=2, policy=TaskPolicy(retry=fast_retry()))
        results = ex.map(tiny_requests())
        assert ex.worker_crashes >= 1
        assert ex.pool_restarts >= 1
        assert not ex.failures
        assert [r.identity_dict() for r in results] == serial_reference
        assert all(r.engine == "pool" for r in results)

    def test_transient_exception_is_retried(self, serial_reference, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, f"raise_once=0;dir={tmp_path / 'chaos'}")
        ex = supervisor(max_workers=2, policy=TaskPolicy(retry=fast_retry()))
        results = ex.map(tiny_requests())
        assert ex.retries >= 1
        assert not ex.failures
        assert [r.identity_dict() for r in results] == serial_reference

    def test_poison_task_is_quarantined_under_skip(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "exit=1")
        policy = TaskPolicy(
            retry=fast_retry(5), max_worker_crashes=2, fail_policy="skip"
        )
        ex = supervisor(max_workers=2, policy=policy)
        results = ex.map(tiny_requests())
        assert ex.quarantined == 1
        failed = [r for r in results if r.failure is not None]
        assert len(failed) == 1
        record = failed[0].failure
        assert record["kind"] == "poison"
        assert record["quarantined"] is True
        assert len(record["attempts"]) == 2
        assert all(a["kind"] == "worker-crash" for a in record["attempts"])
        # The innocent neighbors still finished with real measurements.
        assert sum(1 for r in results if r.ok) == 2

    def test_abort_policy_raises_sweep_error(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "exit=1")
        policy = TaskPolicy(retry=fast_retry(5), max_worker_crashes=2)
        ex = supervisor(max_workers=2, policy=policy)
        with pytest.raises(SweepError) as excinfo:
            ex.map(tiny_requests())
        assert excinfo.value.failures[0]["kind"] == "poison"

    def test_serial_fallback_runs_poison_inline(self, serial_reference, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "exit=1")
        policy = TaskPolicy(
            retry=fast_retry(5), max_worker_crashes=2, fail_policy="serial-fallback"
        )
        ex = supervisor(max_workers=2, policy=policy)
        results = ex.map(tiny_requests())
        # Chaos only applies inside pool workers, so the inline fallback
        # executes the "poison" task cleanly — and identically.
        assert ex.serial_fallbacks == 1
        assert not ex.failures
        assert [r.identity_dict() for r in results] == serial_reference
        assert results[1].engine == "serial-fallback"

    def test_deadline_expiry_becomes_failure(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "hang=1;hang_seconds=60")
        policy = TaskPolicy(
            deadline_seconds=1.5, retry=fast_retry(2), fail_policy="skip"
        )
        ex = supervisor(max_workers=2, policy=policy)
        results = ex.map(tiny_requests())
        assert ex.deadline_expiries == 2
        failed = [r for r in results if r.failure is not None]
        assert len(failed) == 1
        assert failed[0].failure["kind"] == "deadline"
        assert sum(1 for r in results if r.ok) == 2

    def test_abort_chains_the_task_exception(self, monkeypatch):
        import repro.exec.engine as engine_module

        boom = RuntimeError("boom")

        def explode(request):
            raise boom

        monkeypatch.setattr(engine_module, "execute_request", explode)
        with pytest.raises(SweepError) as excinfo:
            ExecutionEngine().run(tiny_requests(1)[0])
        assert excinfo.value.__cause__ is boom
        assert excinfo.value.failures[0]["kind"] == "exception"

    def test_abort_chains_a_worker_exception(self):
        bad = RunRequest(pipeline="no-such-pipeline", spec=tiny_spec())
        with pytest.raises(SweepError) as excinfo:
            supervisor(max_workers=2).map([bad, bad])
        cause = excinfo.value.__cause__
        assert isinstance(cause, ConfigurationError)
        # The worker's traceback rides along as the cause's own cause.
        assert "Traceback" in str(cause.__cause__)

    def test_inline_retries_without_pool(self, monkeypatch):
        # workers=1 routes through the supervised inline path; the chaos
        # hook never applies there, so this exercises plain retry logic via
        # a pipeline that fails deterministically... which must fail fast.
        ex = supervisor(policy=TaskPolicy(retry=fast_retry(), fail_policy="skip"))
        bad = RunRequest(pipeline="no-such-pipeline", spec=tiny_spec())
        results = ex.map([bad])
        assert results[0].failure is not None
        assert results[0].failure["kind"] == "exception"


class TestByteIdentity:
    def test_crash_free_supervised_run_matches_serial(
        self, serial_reference, monkeypatch
    ):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        ex = supervisor(max_workers=2, policy=TaskPolicy(deadline_seconds=300.0))
        results = ex.map(tiny_requests())
        assert ex.worker_crashes == 0 and ex.retries == 0
        assert [r.identity_dict() for r in results] == serial_reference

    def test_crash_free_telemetry_matches_unsupervised(self, tmp_path, monkeypatch):
        """A crash-free pooled sweep records the inline sweep's event stream."""
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        requests = tiny_requests(2)

        def run(directory, engine):
            with obs.session(str(directory), label="sweep", argv=["x"]):
                engine.map([RunRequest.from_dict(r.to_dict()) for r in requests])
            events = (directory / "events.jsonl").read_text().splitlines()
            # Drop volatile fields: timings and ids differ per process.
            scrubbed = []
            for line in events:
                rec = json.loads(line)
                for volatile in ("t_wall", "trace_id", "span_id", "parent_span_id",
                                 "duration_seconds", "pid"):
                    rec.pop(volatile, None)
                scrubbed.append(rec.get("name") or rec.get("type"))
            return scrubbed

        inline = run(tmp_path / "inline", supervisor(max_workers=1))
        pooled = run(tmp_path / "pool", supervisor(max_workers=2))
        assert pooled == inline


class TestJournalAndResume:
    def test_journal_records_every_outcome(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "exit=1")
        journal = tmp_path / "sweep.journal.jsonl"
        policy = TaskPolicy(
            retry=fast_retry(5), max_worker_crashes=2, fail_policy="skip"
        )
        ex = supervisor(max_workers=2, policy=policy, journal=str(journal))
        ex.map(tiny_requests())
        records = list(read_jsonl(str(journal)))
        assert records[0]["type"] == "sweep"
        assert records[0]["n_tasks"] == 3
        tasks = [r for r in records if r["type"] == "task"]
        assert sorted(r["status"] for r in tasks) == ["done", "done", "failed"]
        incidents = [r for r in records if r["type"] == "incident"]
        assert any(r["kind"] == "worker-crash" for r in incidents)
        assert any(r["kind"] == "quarantine" for r in incidents)

    def test_resume_skips_completed_work(self, serial_reference, tmp_path, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        journal = str(tmp_path / "sweep.journal.jsonl")
        cache = DiskCache(str(tmp_path / "cache"), code_version="v1")
        requests = tiny_requests()
        # A half-finished sweep: only the first two tasks ever ran.
        first = supervisor(max_workers=2, cache=cache, journal=journal)
        first.map(requests[:2])
        resumed = supervisor(
            max_workers=2, cache=cache, journal=journal, resume=True
        )
        results = resumed.map(requests)
        assert resumed.resumed_skips == 2
        assert resumed.cache_hits == 2
        assert [r.identity_dict() for r in results] == serial_reference

    def test_resume_reruns_corrupted_cache_entries(
        self, serial_reference, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        journal = str(tmp_path / "sweep.journal.jsonl")
        cache = DiskCache(str(tmp_path / "cache"), code_version="v1")
        requests = tiny_requests()
        supervisor(max_workers=2, cache=cache, journal=journal).map(requests)
        key = requests[0].cache_key("v1")
        payload = tmp_path / "cache" / key[:2] / f"{key}.pkl"
        with open(payload, "r+b") as fh:
            fh.write(b"\x00\x00\x00\x00")
        resumed = supervisor(
            max_workers=2, cache=cache, journal=journal, resume=True
        )
        results = resumed.map(requests)
        assert cache.corrupt_quarantined == 1
        assert [r.identity_dict() for r in results] == serial_reference
        # The corrupted entry re-ran; the intact two replayed.
        assert resumed.cache_hits == 2

    def test_resume_requires_journal_and_cache(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ExecutionEngine(resume=True)
        with pytest.raises(ConfigurationError):
            ExecutionEngine(resume=True, journal=str(tmp_path / "j.jsonl"))

    def test_journal_load_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(str(path))
        journal.begin(2, "v1")
        journal.record(index=0, digest="d0", status="done")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "task", "digest": "d1", "status"')
        with pytest.warns(RuntimeWarning):
            latest = SweepJournal.load(str(path))
        assert set(latest) == {"d0"}


class TestFailureObservability:
    def test_failure_records_flow_into_session(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "exit=1")
        policy = TaskPolicy(
            retry=fast_retry(5), max_worker_crashes=2, fail_policy="skip"
        )
        with obs.session(str(tmp_path), label="sweep", argv=["x"]) as session:
            ex = supervisor(max_workers=2, policy=policy)
            ex.map(tiny_requests())
            metrics = session.registry.snapshot()

        def total(name):
            family = metrics.get(name, {"series": []})
            return sum(s["value"] for s in family["series"])

        assert total("repro_exec_worker_crashes_total") >= 1
        assert total("repro_exec_quarantined_total") == 1
        assert total("repro_alert_exec_worker_crash_total") >= 1
        supervise = json.loads(
            (tmp_path / "manifest.json").read_text()
        )["config"]["exec"]["supervise"]
        assert supervise["quarantined"] == 1
        assert supervise["failures"] == 1
        # Incident samples landed on the exec timeline.
        samples = [
            rec for rec in read_jsonl(str(tmp_path / "timeline.jsonl"))
            if rec.get("label") == "exec"
        ]
        assert samples
        assert all(
            "repro_timeline_exec_worker_crashes_total" in rec["values"]
            for rec in samples
        )

    def test_manifest_counts_resumed_skips(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        journal = str(tmp_path / "sweep.journal.jsonl")
        cache = DiskCache(str(tmp_path / "cache"), code_version="v1")
        requests = tiny_requests(2)
        supervisor(cache=cache, journal=journal).map(requests)
        with obs.session(str(tmp_path / "run"), label="sweep", argv=["x"]):
            resumed = supervisor(cache=cache, journal=journal, resume=True)
            resumed.map(requests)
        supervise = json.loads(
            (tmp_path / "run" / "manifest.json").read_text()
        )["config"]["exec"]["supervise"]
        assert resumed.resumed_skips == 2
        assert supervise["resumed_skips"] == 2

    def test_default_exec_rules_fire_on_crash_series(self):
        from repro.obs.watch import Watchdog

        dog = Watchdog(default_exec_rules())
        alerts = dog.observe(1.0, {"repro_timeline_exec_worker_crashes_total": 1.0})
        assert [a.rule for a in alerts] == ["exec_worker_crash"]
        assert alerts[0].severity == "critical"


class TestAtomicIO:
    def test_atomic_write_text_and_json(self, tmp_path):
        path = tmp_path / "deep" / "out.json"
        atomic_write_json(str(path), {"b": 2, "a": 1})
        assert json.loads(path.read_text()) == {"a": 1, "b": 2}
        assert path.read_text().endswith("\n")
        atomic_write_text(str(path), "replaced")
        assert path.read_text() == "replaced"
        # No temp litter left behind.
        assert sorted(p.name for p in path.parent.iterdir()) == ["out.json"]

    def test_append_jsonl_line_appends_whole_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_jsonl_line(str(path), {"n": 1})
        append_jsonl_line(str(path), {"n": 2}, fsync=True)
        assert [r["n"] for r in read_jsonl(str(path))] == [1, 2]

    def test_manifest_written_atomically(self, tmp_path):
        with obs.session(str(tmp_path), label="t", argv=["x"]):
            pass
        assert not [
            p for p in tmp_path.iterdir() if ".tmp." in p.name
        ]
        assert (tmp_path / "manifest.json").exists()


def _engine_from_flags(**flags):
    """The engine ``repro report`` builds from these engine flags."""
    import argparse

    from repro.scenario.build import _execution_from_args, build_engine
    from repro.scenario.schema import Scenario

    execution = _execution_from_args(argparse.Namespace(**flags))
    return build_engine(Scenario(name="report", execution=execution))


class TestCliIntegration:
    def test_engine_builder_upgrades_to_supervised(self):
        engine = _engine_from_flags(
            workers=2, cache=None, deadline=10.0,
            task_retries=4, max_worker_crashes=2, fail_policy="skip",
            journal=None, resume=False,
        )
        assert engine.policy.deadline_seconds == 10.0
        assert engine.policy.retry.max_attempts == 4
        assert engine.policy.max_worker_crashes == 2
        assert engine.policy.fail_policy == "skip"

    def test_engine_builder_plain_without_supervision(self):
        engine = _engine_from_flags(
            workers=2, cache=None, deadline=None,
            task_retries=None, max_worker_crashes=None, fail_policy=None,
            journal=None, resume=False,
        )
        assert engine.policy == TaskPolicy()

    def test_resume_flag_validation(self, capsys):
        from repro.cli import main

        code = main(["characterize", "--resume"])
        assert code == 2
        assert "resume needs both" in capsys.readouterr().err

    def test_bench_takes_only_pool_flags(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench", "--journal", "j"])
        assert excinfo.value.code == 2
