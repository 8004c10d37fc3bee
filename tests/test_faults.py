"""Tests for the fault-injection and resilience subsystem (:mod:`repro.faults`).

Covers the declarative spec, the transient-error gate, retry/backoff, the
injector's capacity scaling, checkpoint/restart through the supervised
platform run, the analytic failure model, and the determinism guarantees
the chaos CI job relies on.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import (
    ConfigurationError,
    ModelError,
    NodeCrashError,
    OperationTimeoutError,
    RetryExhaustedError,
    TransientIOError,
)
from repro.events.engine import Simulator
from repro.exec.api import RunRequest
from repro.faults import (
    CheckpointPolicy,
    FailureModel,
    FaultEvent,
    FaultGate,
    FaultInjector,
    FaultSpec,
    ResumeState,
    RetryPolicy,
    run_fault_campaign,
)
from repro.faults.spec import IO_ERROR, NODE_CRASH, OST_DROPOUT, WRITE_BROWNOUT
from repro.ocean.driver import MPASOceanConfig
from repro.pipelines.base import PipelineSpec
from repro.pipelines.insitu import InSituPipeline
from repro.pipelines.postprocessing import PostProcessingPipeline
from repro.pipelines.sampling import SamplingPolicy
from repro.storage.lustre import LustreFileSystem
from repro.units import DAY, MB


def drive(sim: Simulator, gen):
    """Run a storage generator to completion, returning its value."""
    box = {}

    def wrapper():
        box["value"] = yield from gen

    sim.process(wrapper())
    sim.run()
    return box.get("value")


# --------------------------------------------------------------------- spec


class TestFaultSpec:
    def test_events_sorted_by_time(self):
        spec = FaultSpec(
            seed=1,
            events=(
                FaultEvent(at_seconds=9.0, kind=NODE_CRASH),
                FaultEvent(at_seconds=2.0, kind=NODE_CRASH),
            ),
        )
        assert [e.at_seconds for e in spec.events] == [2.0, 9.0]

    def test_round_trip(self):
        spec = FaultSpec.campaign(
            seed=11, horizon_seconds=7_200.0, mtbf_hours=0.2,
            brownout_rate_per_hour=3.0, io_error_rate_per_hour=3.0,
        )
        assert FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_campaign_is_deterministic(self):
        a = FaultSpec.campaign(seed=5, horizon_seconds=36_000.0, mtbf_hours=0.5)
        b = FaultSpec.campaign(seed=5, horizon_seconds=36_000.0, mtbf_hours=0.5)
        assert a == b
        c = FaultSpec.campaign(seed=6, horizon_seconds=36_000.0, mtbf_hours=0.5)
        assert a != c

    def test_campaign_respects_horizon(self):
        spec = FaultSpec.campaign(
            seed=2, horizon_seconds=1_000.0, mtbf_hours=0.01,
            brownout_rate_per_hour=50.0,
        )
        assert len(spec) > 0
        assert all(0 <= e.at_seconds < 1_000.0 for e in spec.events)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(at_seconds=0.0, kind="gamma-ray")

    def test_brownout_severity_must_be_fraction(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(
                at_seconds=0.0, kind=WRITE_BROWNOUT,
                duration_seconds=5.0, severity=1.5,
            )

    def test_io_error_needs_valid_target(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(at_seconds=0.0, kind=IO_ERROR, target="erase")

    def test_timed_kind_needs_duration(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(at_seconds=0.0, kind=OST_DROPOUT, severity=1.0)


# --------------------------------------------------------------------- gate


class TestFaultGate:
    def test_armed_errors_trip_then_clear(self):
        gate = FaultGate()
        gate.arm("write", 2)
        for _ in range(2):
            with pytest.raises(TransientIOError):
                gate.check("write", "f")
        gate.check("write", "f")  # disarmed: no-op
        assert gate.tripped == 2

    def test_ops_are_independent(self):
        gate = FaultGate()
        gate.arm("read", 1)
        gate.check("write", "f")  # unaffected
        with pytest.raises(TransientIOError):
            gate.check("read", "f")


# -------------------------------------------------------------------- retry


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(op_timeout_seconds=0.0)

    def test_backoff_is_deterministic_per_seed(self):
        policy = RetryPolicy(base_delay_seconds=1.0, jitter=0.25)
        a = [policy.backoff_delay(i, random.Random(9)) for i in range(3)]
        b = [policy.backoff_delay(i, random.Random(9)) for i in range(3)]
        assert a == b

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay_seconds=1.0, backoff_factor=4.0,
            max_delay_seconds=8.0, jitter=0.0,
        )
        rng = random.Random(0)
        assert [policy.backoff_delay(i, rng) for i in range(4)] == [1.0, 4.0, 8.0, 8.0]

    def test_succeeds_after_transient_failures(self, sim):
        attempts = []

        def op():
            attempts.append(sim.now)
            if len(attempts) < 3:
                raise TransientIOError("flaky")
            yield sim.timeout(1.0)
            return "done"

        policy = RetryPolicy(max_attempts=4, base_delay_seconds=2.0, jitter=0.0)
        result = drive(sim, policy.run(sim, op, random.Random(0)))
        assert result == "done"
        assert len(attempts) == 3
        assert sim.now > 2.0  # backoff consumed simulated time

    def test_exhaustion_raises_chained(self, sim):
        def op():
            raise TransientIOError("always")
            yield  # pragma: no cover - makes op a generator

        policy = RetryPolicy(max_attempts=2, base_delay_seconds=0.1, jitter=0.0)
        with pytest.raises(RetryExhaustedError) as info:
            drive(sim, policy.run(sim, op, random.Random(0)))
        assert isinstance(info.value.__cause__, TransientIOError)

    def test_non_retryable_propagates_immediately(self, sim):
        calls = []

        def op():
            calls.append(1)
            raise KeyError("permanent")
            yield  # pragma: no cover

        policy = RetryPolicy(max_attempts=5)
        with pytest.raises(KeyError):
            drive(sim, policy.run(sim, op, random.Random(0)))
        assert calls == [1]

    def test_op_timeout_interrupts_slow_attempt(self, sim):
        durations = iter([100.0, 1.0])

        def op():
            yield sim.timeout(next(durations))
            return "ok"

        policy = RetryPolicy(
            max_attempts=2, base_delay_seconds=0.0, jitter=0.0,
            op_timeout_seconds=10.0,
        )
        done = []

        def runner():
            result = yield from policy.run(sim, op, random.Random(0))
            done.append((result, sim.now))

        sim.process(runner())
        sim.run()
        # Timed out at t=10, the retry finished at t=11 (the abandoned
        # attempt's stale 100 s timeout drains later, harmlessly).
        assert done == [("ok", pytest.approx(11.0))]


# ----------------------------------------------------------------- injector


def small_fs(sim: Simulator, **kwargs) -> LustreFileSystem:
    kwargs.setdefault("capacity_bytes", 1_000 * MB)
    kwargs.setdefault("write_bandwidth", 100 * MB)
    kwargs.setdefault("read_bandwidth", 100 * MB)
    return LustreFileSystem(sim, **kwargs)


class TestFaultInjector:
    def test_brownout_degrades_then_restores_exactly(self, sim):
        fs = small_fs(sim)
        nominal = fs.write_pipe.capacity
        spec = FaultSpec(seed=0, events=(
            FaultEvent(at_seconds=5.0, kind=WRITE_BROWNOUT,
                       duration_seconds=10.0, severity=0.5),
        ))
        inj = FaultInjector(sim, fs, spec)
        inj.arm()
        seen = []

        def probe():
            yield sim.timeout(7.0)
            seen.append(fs.write_pipe.capacity)

        sim.process(probe())
        sim.run()
        assert seen == [0.5 * nominal]
        assert fs.write_pipe.capacity == nominal
        assert inj.counts == {WRITE_BROWNOUT: 1}

    def test_overlapping_faults_compose_multiplicatively(self, sim):
        fs = small_fs(sim)
        nominal = fs.write_pipe.capacity
        spec = FaultSpec(seed=0, events=(
            FaultEvent(at_seconds=0.0, kind=WRITE_BROWNOUT,
                       duration_seconds=20.0, severity=0.5),
            FaultEvent(at_seconds=5.0, kind=WRITE_BROWNOUT,
                       duration_seconds=5.0, severity=0.5),
        ))
        FaultInjector(sim, fs, spec).arm()
        seen = {}

        def probe():
            yield sim.timeout(7.0)
            seen["overlap"] = fs.write_pipe.capacity
            yield sim.timeout(5.0)
            seen["single"] = fs.write_pipe.capacity

        sim.process(probe())
        sim.run()
        assert seen["overlap"] == pytest.approx(0.25 * nominal)
        assert seen["single"] == pytest.approx(0.5 * nominal)
        assert fs.write_pipe.capacity == nominal

    def test_ost_dropout_scales_both_pipes(self, sim):
        fs = small_fs(sim, n_ost=8)
        spec = FaultSpec(seed=0, events=(
            FaultEvent(at_seconds=1.0, kind=OST_DROPOUT,
                       duration_seconds=4.0, severity=2.0),
        ))
        FaultInjector(sim, fs, spec).arm()
        seen = []

        def probe():
            yield sim.timeout(2.0)
            seen.append((fs.write_pipe.capacity, fs.read_pipe.capacity))

        sim.process(probe())
        sim.run()
        assert seen[0][0] == pytest.approx(0.75 * 100 * MB)
        assert seen[0][1] == pytest.approx(0.75 * 100 * MB)

    def test_io_error_arms_gate_and_write_fails(self, sim):
        fs = small_fs(sim)
        spec = FaultSpec(seed=0, events=(
            FaultEvent(at_seconds=0.0, kind=IO_ERROR, target="write", severity=1.0),
        ))
        FaultInjector(sim, fs, spec).arm()

        def writer():
            yield sim.timeout(1.0)
            with pytest.raises(TransientIOError):
                yield from fs.write("f", 10 * MB)
            yield from fs.write("f", 10 * MB)  # gate disarmed: succeeds

        sim.process(writer())
        sim.run()
        assert fs.exists("f")
        assert fs.fault_gate.tripped == 1

    def test_node_crash_interrupts_watched_process(self, sim):
        fs = small_fs(sim)
        spec = FaultSpec(seed=0, events=(
            FaultEvent(at_seconds=3.0, kind=NODE_CRASH),
        ))
        inj = FaultInjector(sim, fs, spec)
        inj.arm()
        outcome = []

        def victim():
            try:
                yield sim.timeout(100.0)
            except NodeCrashError as exc:
                outcome.append(str(exc))

        inj.watch(sim.process(victim()))
        sim.run()
        assert outcome and "t=3.0s" in outcome[0]

    def test_crash_with_no_watched_process_is_missed(self, sim):
        fs = small_fs(sim)
        spec = FaultSpec(seed=0, events=(
            FaultEvent(at_seconds=1.0, kind=NODE_CRASH),
        ))
        inj = FaultInjector(sim, fs, spec)
        inj.arm()
        sim.run()
        assert inj.missed_crashes == 1
        assert inj.summary()["missed_crashes"] == 1

    def test_disarm_neutralizes_pending_faults(self, sim):
        fs = small_fs(sim)
        nominal = fs.write_pipe.capacity
        spec = FaultSpec(seed=0, events=(
            FaultEvent(at_seconds=5.0, kind=WRITE_BROWNOUT,
                       duration_seconds=10.0, severity=0.5),
        ))
        inj = FaultInjector(sim, fs, spec)
        inj.arm()
        inj.disarm()
        sim.run()
        assert inj.total_injected == 0
        assert fs.write_pipe.capacity == nominal


# ------------------------------------------------------ storage resilience


class TestStorageResilience:
    def test_concurrent_writes_cannot_overcommit(self, sim):
        bw = 10 * MB  # repro-unit: bytes_per_s
        fs = LustreFileSystem(
            sim, capacity_bytes=100 * MB,
            write_bandwidth=bw, read_bandwidth=bw,
        )
        results = {}

        def writer(name):
            try:
                yield from fs.write(name, 60 * MB)
                results[name] = "ok"
            except Exception as exc:
                results[name] = type(exc).__name__

        sim.process(writer("a"))
        sim.process(writer("b"))
        sim.run()
        assert sorted(results.values()) == ["StorageFullError", "ok"]
        assert fs.used_bytes <= fs.capacity_bytes
        assert fs.reserved_bytes == 0.0

    def test_overwrite_replaces_not_appends(self, sim):
        fs = small_fs(sim)
        drive(sim, fs.write("ckpt", 50 * MB))
        drive(sim, fs.write("ckpt", 50 * MB, overwrite=True))
        assert fs.stat("ckpt").size == 50 * MB

    def test_overwrite_only_reserves_the_growth(self, sim):
        bw = 10 * MB  # repro-unit: bytes_per_s
        fs = LustreFileSystem(
            sim, capacity_bytes=100 * MB,
            write_bandwidth=bw, read_bandwidth=bw,
        )
        drive(sim, fs.write("ckpt", 80 * MB))
        # An append would need 80 more MB and die; a rewrite fits.
        drive(sim, fs.write("ckpt", 80 * MB, overwrite=True))
        assert fs.stat("ckpt").size == 80 * MB

    def test_interrupted_write_rolls_back_partial_bytes(self, sim):
        fs = small_fs(sim, write_bandwidth=10 * MB)
        outcome = []

        def writer():
            try:
                yield from fs.write("big", 100 * MB)  # would take 10 s
            except NodeCrashError:
                outcome.append("crashed")

        p = sim.process(writer())
        fuse = sim.timeout(5.0)
        fuse.callbacks.append(lambda _e: p.interrupt(NodeCrashError("die")))
        sim.run()
        assert outcome == ["crashed"]
        assert not fs.exists("big")
        assert fs.bytes_written == 0.0
        assert fs.reserved_bytes == 0.0

    def test_interrupt_during_metadata_op_releases_server(self, sim):
        fs = small_fs(sim, n_mds=1, metadata_latency=10.0)

        def writer():
            yield from fs.write("f", 1 * MB)

        p = sim.process(writer())
        fuse = sim.timeout(5.0)
        fuse.callbacks.append(lambda _e: p.interrupt(NodeCrashError("die")))
        with pytest.raises(NodeCrashError):
            sim.run()
        # The MDS slot must have been released: a follow-up write completes.
        assert drive(sim, fs.write("g", 1 * MB)).path == "g"

    def test_fs_retry_policy_rides_through_armed_errors(self, sim):
        fs = small_fs(sim)
        fs.retry_policy = RetryPolicy(max_attempts=3, base_delay_seconds=0.1, jitter=0.0)
        gate = FaultGate()
        gate.arm("write", 2)
        fs.fault_gate = gate
        record = drive(sim, fs.write("f", 10 * MB))
        assert record.path == "f"
        assert gate.tripped == 2

    def test_fs_retry_exhaustion_propagates(self, sim):
        fs = small_fs(sim)
        fs.retry_policy = RetryPolicy(max_attempts=2, base_delay_seconds=0.1, jitter=0.0)
        gate = FaultGate()
        gate.arm("write", 5)
        fs.fault_gate = gate

        def writer():
            yield from fs.write("f", 10 * MB)

        sim.process(writer())
        with pytest.raises(RetryExhaustedError):
            sim.run()


# -------------------------------------------------------- failure model


class TestFailureModel:
    def test_expected_time_exceeds_base(self):
        model = FailureModel(
            mtbf_seconds=21_600.0, checkpoint_write_seconds=30.0, restart_seconds=30.0
        )
        assert model.expected_time(10_000.0, 1_000.0) > 10_000.0

    def test_no_forward_progress_rejected(self):
        model = FailureModel(
            mtbf_seconds=100.0, checkpoint_write_seconds=1.0, restart_seconds=90.0
        )
        with pytest.raises(ModelError):
            model.expected_time(1_000.0, 50.0)

    def test_optimal_interval_is_youngs_formula(self):
        model = FailureModel(
            mtbf_seconds=20_000.0, checkpoint_write_seconds=10.0, restart_seconds=30.0
        )
        assert model.optimal_interval() == pytest.approx((2 * 10.0 * 20_000.0) ** 0.5)

    def test_optimum_minimizes_expected_time(self):
        model = FailureModel(
            mtbf_seconds=20_000.0, checkpoint_write_seconds=10.0, restart_seconds=30.0
        )
        best = model.optimal_interval()
        at_best = model.expected_time(10_000.0, best)
        assert at_best <= model.expected_time(10_000.0, best / 3)
        assert at_best <= model.expected_time(10_000.0, best * 3)

    def test_energy_scales_with_inflated_time(self):
        model = FailureModel(
            mtbf_seconds=21_600.0, checkpoint_write_seconds=30.0, restart_seconds=30.0
        )
        t = model.expected_time(5_000.0, 600.0)
        assert model.expected_energy(5_000.0, 600.0, 46_300.0) == pytest.approx(46_300.0 * t)


# ------------------------------------------------- checkpoint/restart runs


def tiny_spec() -> PipelineSpec:
    return PipelineSpec(
        ocean=MPASOceanConfig(duration_seconds=10 * DAY),
        sampling=SamplingPolicy(24.0),
    )


def crash_spec(at_seconds: float) -> FaultSpec:
    return FaultSpec(seed=0, events=(
        FaultEvent(at_seconds=at_seconds, kind=NODE_CRASH),
    ))


class TestCheckpointRestart:
    @pytest.mark.parametrize("pipeline_cls", [InSituPipeline, PostProcessingPipeline])
    def test_protected_run_survives_where_unprotected_aborts(self, pipeline_cls):
        spec = tiny_spec()
        baseline = pipeline_cls().execute(RunRequest(spec=spec)).measurement
        faults = crash_spec(0.5 * baseline.execution_time)

        with pytest.raises(NodeCrashError):
            pipeline_cls().execute(RunRequest(spec=spec, faults=faults))

        policy = CheckpointPolicy(every_n_outputs=2, restart_penalty_seconds=30.0)
        run = pipeline_cls().execute(
            RunRequest(spec=spec, faults=faults, checkpoints=policy)
        )
        protected = run.measurement
        assert protected.n_outputs == baseline.n_outputs
        assert protected.n_images == baseline.n_images
        assert protected.execution_time > baseline.execution_time
        assert run.fault_summary["recoveries"] == 1
        assert "recovery" in protected.timeline.by_phase()
        assert "checkpoint" in protected.timeline.by_phase()

    def test_checkpoint_cadence_bounds_rework(self):
        """Denser checkpoints => less lost work for the same crash."""
        spec = tiny_spec()
        baseline = InSituPipeline().execute(RunRequest(spec=spec)).measurement
        faults = crash_spec(0.75 * baseline.execution_time)
        times = {}
        for every in (2, 8):
            policy = CheckpointPolicy(every_n_outputs=every,
                                      restart_penalty_seconds=30.0)
            run = InSituPipeline().execute(
                RunRequest(spec=spec, faults=faults, checkpoints=policy)
            )
            times[every] = run.measurement.execution_time
        assert times[2] < times[8]

    def test_empty_fault_spec_matches_legacy_measurement(self):
        spec = tiny_spec()
        legacy = InSituPipeline().execute(RunRequest(spec=spec)).measurement
        supervised = InSituPipeline().execute(
            RunRequest(spec=spec, faults=FaultSpec(seed=0))
        ).measurement
        assert json.dumps(legacy.to_dict(), sort_keys=True) == json.dumps(
            supervised.to_dict(), sort_keys=True
        )

    def test_resume_state_round_trip(self):
        state = ResumeState(outputs_done=4, renders_done=8)
        assert state.to_dict() == {"outputs_done": 4, "renders_done": 8}
        with pytest.raises(ConfigurationError):
            ResumeState(outputs_done=-1)

    def test_checkpoint_policy_validation(self):
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(every_n_outputs=0)
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(restart_penalty_seconds=-1.0)


# ---------------------------------------------------------------- campaign


class TestCampaign:
    def test_campaign_is_bit_deterministic(self):
        spec = tiny_spec()

        def go():
            result = run_fault_campaign(
                spec, seed=3, mtbf_hours=0.05,
                checkpoint_every=2,
            )
            return json.dumps(result.to_dict(), sort_keys=True)

        assert go() == go()

    def test_campaign_reports_both_pipelines(self):
        result = run_fault_campaign(
            tiny_spec(), seed=3, mtbf_hours=0.05,
            checkpoint_every=2, include_unprotected=False,
        )
        assert {r.pipeline for r in result.reports} == {"in-situ", "post-processing"}
        for report in result.reports:
            assert report.protected is not None
            assert report.unprotected_outcome == "skipped"
            assert report.overhead_ratio >= 0.0
        assert "fault campaign" in result.table()

    def test_identical_fault_load_for_every_pipeline(self):
        result = run_fault_campaign(
            tiny_spec(), seed=3, mtbf_hours=0.05,
            checkpoint_every=2, include_unprotected=False,
        )
        seeds = {r.fault_summary["seed"] for r in result.reports}
        scheduled = {r.fault_summary["scheduled"] for r in result.reports}
        assert seeds == {3} and len(scheduled) == 1
