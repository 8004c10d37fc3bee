"""Tests for the execution engine: the RunRequest/RunResult API, the
content-addressed cache, parallel-vs-serial bit-identity, keyword-only
signatures, and the ``repro bench`` runner."""

from __future__ import annotations

import copy
import copyreg
import hashlib
import json
import os
import pickle
import pickletools
import time
from dataclasses import asdict, replace

import pytest

from repro import obs, paper
from repro.cluster.machine import ComputeCluster, caddy
from repro.core.metrics import IN_SITU, POST_PROCESSING, PhaseTimeline
from repro.core.model import DataModel, PerformanceModel, PipelinePredictor
from repro.core.whatif import (
    EnergyRateRow,
    FailureSweepResult,
    RateSweepResult,
    StorageRateRow,
    SweepResult,
    WhatIfAnalyzer,
)
from repro.errors import ConfigurationError
from repro.events.engine import Simulator
from repro.exec.api import (
    MODE_REAL,
    RunRequest,
    RunResult,
    _plain,
    build_pipeline,
    pipeline_factories,
)
from repro.exec.bench import (
    QUICK_INTERVALS,
    compare_to_baseline,
    run_bench,
    sweep_requests,
    write_report,
)
from repro.exec.cache import QUARANTINE_DIRNAME, DiskCache
from repro.exec.engine import ExecutionEngine, execute_request
from repro.faults.resilience import CheckpointPolicy
from repro.faults.spec import FaultSpec
from repro.obs.manifest import collect_provenance
from repro.obs.schema import SCHEMA_VERSION
from repro.obs.trace import TraceContext
from repro.ocean.driver import MPASOceanConfig
from repro.pipelines.base import PipelineSpec
from repro.pipelines.insitu import InSituPipeline
from repro.pipelines.intransit import InTransitPipeline
from repro.pipelines.platform import SimulatedPlatform
from repro.pipelines.real import RealPlatform, RealScale
from repro.pipelines.postprocessing import PostProcessingPipeline
from repro.pipelines.sampling import SamplingPolicy
from repro.scenario.schema import ClusterConfig, StorageConfig
from repro.storage.lustre import LustreFileSystem, StorageCluster
from repro.units import MB, MONTH, TB, years
from repro.viz.render import Camera, ImageSpec


def tiny_spec(hours: float = 72.0) -> PipelineSpec:
    """A 1-simulated-month campaign — fast enough to run many times."""
    return PipelineSpec(
        ocean=MPASOceanConfig(duration_seconds=MONTH),
        sampling=SamplingPolicy(hours),
    )


#: A topology off the paper's testbed on each axis.
SMALL_CLUSTER = ClusterConfig(nodes=12, nodes_per_cage=4)
FAST_STORAGE = StorageConfig(write_bandwidth=320 * MB)


def tiny_requests() -> list:
    return [
        RunRequest(pipeline=name, spec=tiny_spec(hours))
        for hours in (24.0, 72.0)
        for name in (IN_SITU, POST_PROCESSING)
    ]


class TestRunRequest:
    def test_defaults(self):
        request = RunRequest()
        assert request.spec is not None
        assert request.mode == "simulated"
        assert request.cacheable

    def test_mode_validation(self):
        with pytest.raises(ConfigurationError):
            RunRequest(mode="imaginary")

    def test_real_mode_rejects_fault_features(self):
        from repro.faults.spec import FaultSpec

        with pytest.raises(ConfigurationError):
            RunRequest(mode=MODE_REAL, faults=FaultSpec(seed=0), workdir="/tmp/x")

    def test_simulated_mode_rejects_workdir(self):
        with pytest.raises(ConfigurationError):
            RunRequest(workdir="/tmp/x")

    def test_real_mode_not_cacheable(self):
        assert not RunRequest(mode=MODE_REAL, workdir="/tmp/x").cacheable

    def test_pipeline_args_normalized(self):
        a = RunRequest(pipeline_args={"b": 2, "a": 1})
        b = RunRequest(pipeline_args=[("a", 1), ("b", 2)])
        assert a.pipeline_args == b.pipeline_args == (("a", 1), ("b", 2))

    def test_bound_to_fills_identity(self):
        request = RunRequest().bound_to(InTransitPipeline(n_staging_nodes=15))
        assert request.pipeline == "in-transit"
        assert request.pipeline_args == (("n_staging_nodes", 15),)

    def test_bound_to_rejects_name_mismatch(self):
        with pytest.raises(ConfigurationError):
            RunRequest(pipeline=IN_SITU).bound_to(PostProcessingPipeline())

    def test_cache_key_sensitivity(self):
        base = RunRequest(pipeline=IN_SITU, spec=tiny_spec())
        assert base.cache_key("v1") != base.cache_key("v2")
        for other in (
            RunRequest(pipeline=IN_SITU, spec=tiny_spec(), seed=1),
            RunRequest(pipeline=IN_SITU, spec=tiny_spec(), cluster=SMALL_CLUSTER),
            RunRequest(pipeline=IN_SITU, spec=tiny_spec(), storage=FAST_STORAGE),
        ):
            assert base.cache_key("v1") != other.cache_key("v1")

    def test_paper_platform_cache_key_pinned(self):
        spec = PipelineSpec().with_sampling(SamplingPolicy(72.0))
        pinned = "aef855deea73618ef77f5e4786c313c07b0c7e6ea2ae579edba349db528e8c29"
        implicit = RunRequest(pipeline=IN_SITU, spec=spec)
        explicit = RunRequest(
            pipeline=IN_SITU,
            spec=spec,
            cluster=ClusterConfig(),
            storage=StorageConfig(),
        )
        assert implicit.cache_key("v1") == pinned
        assert explicit.cache_key("v1") == pinned
        assert explicit == implicit

    def test_to_dict_matches_asdict(self):
        two_cameras = PipelineSpec(
            images=ImageSpec(cameras=(Camera(), Camera(center=(0.25, 0.75), zoom=2.0)))
        )
        requests = sweep_requests((1.0, 8.0, 24.0, 72.0)) + [
            RunRequest(pipeline=IN_SITU, spec=two_cameras),
            RunRequest(
                pipeline=IN_SITU, spec=tiny_spec(), cluster=SMALL_CLUSTER, storage=FAST_STORAGE
            ),
        ]
        for request in requests:
            out = request.to_dict()
            assert out["schema_version"] == SCHEMA_VERSION
            expected = {"spec": asdict(request.spec)}
            for name in ("cluster", "storage"):
                if getattr(request, name) is not None:
                    expected[name] = asdict(getattr(request, name))
            converted = {name: out[name] for name in expected}
            # Dict equality also tells tuples from lists; the JSON pins order.
            assert converted == expected
            assert json.dumps(converted) == json.dumps(expected)

    def test_to_dict_never_deep_copies(self, monkeypatch):
        from repro.faults.resilience import CheckpointPolicy
        from repro.faults.spec import FaultSpec

        def refuse(*args, **kwargs):
            raise AssertionError("RunRequest.to_dict deep-copied its configs")

        request = RunRequest(
            pipeline=IN_SITU,
            spec=tiny_spec(),
            faults=FaultSpec.campaign(seed=3, horizon_seconds=400.0, mtbf_hours=0.05),
            checkpoints=CheckpointPolicy(every_n_outputs=2),
            cluster=SMALL_CLUSTER,
            storage=FAST_STORAGE,
        )
        monkeypatch.setattr(copy, "deepcopy", refuse)
        assert request.to_dict()["spec"]["sampling"] == {"interval_hours": 72.0}

    def test_plain_matches_asdict(self):
        """The field names kept per class give ``asdict``'s dict: the same
        keys in the same order and the same values, bit for bit."""
        faults = FaultSpec.campaign(seed=3, horizon_seconds=400.0, mtbf_hours=0.05)
        checkpoints = CheckpointPolicy(every_n_outputs=2)
        requests = [
            RunRequest(pipeline=IN_SITU, spec=tiny_spec()),
            RunRequest(pipeline=IN_SITU, spec=tiny_spec(), cluster=SMALL_CLUSTER),
            RunRequest(pipeline=IN_SITU, spec=tiny_spec(), storage=FAST_STORAGE),
            RunRequest(pipeline=IN_SITU, spec=tiny_spec(), faults=faults),
            RunRequest(pipeline=IN_SITU, spec=tiny_spec(), checkpoints=checkpoints),
            RunRequest(
                pipeline=POST_PROCESSING, spec=tiny_spec(24.0), faults=faults,
                checkpoints=checkpoints, cluster=SMALL_CLUSTER, storage=FAST_STORAGE,
            ),
        ]
        assert faults.events
        for request in requests * 2:  # the second pass reads cached names
            assert repr(_plain(request)) == repr(asdict(request))

    def test_plain_passes_a_dataclass_class_through(self):
        assert _plain(ClusterConfig) is ClusterConfig
        assert _plain((PipelineSpec, 1.5)) == (PipelineSpec, 1.5)
        assert _plain(SMALL_CLUSTER) == asdict(SMALL_CLUSTER)

    def test_task_seed_deterministic(self):
        request = RunRequest(pipeline=IN_SITU, spec=tiny_spec())
        assert request.task_seed() == request.task_seed()
        assert 0 <= request.task_seed() < 2**31

    def test_registry_builds_pipelines(self):
        assert set(pipeline_factories()) == {IN_SITU, POST_PROCESSING, "in-transit"}
        pipeline = build_pipeline(
            RunRequest(pipeline="in-transit", pipeline_args={"n_staging_nodes": 5})
        )
        assert pipeline.n_staging_nodes == 5
        with pytest.raises(ConfigurationError):
            build_pipeline(RunRequest(pipeline="mystery"))


def _reference_key(request: RunRequest, code_version: str) -> str:
    """The cache key as ``json.dumps`` lays out the whole payload."""
    payload = {"request": request.to_dict(), "code_version": code_version}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Code versions whose JSON needs escapes: quotes, a backslash, non-ASCII.
CODE_VERSIONS = ("v1", "task-seed", "", 'say "hi" \\ bye', "v\u00e9rsion", "\u7248\u672c-\U0001f600")


def _keyed_requests() -> list:
    return sweep_requests(QUICK_INTERVALS) + [
        RunRequest(
            pipeline=POST_PROCESSING,
            spec=tiny_spec(24.0),
            faults=FaultSpec.campaign(seed=3, horizon_seconds=400.0, mtbf_hours=0.05),
            checkpoints=CheckpointPolicy(every_n_outputs=2),
            seed=11,
        ),
        RunRequest(pipeline=IN_SITU, spec=tiny_spec(), cluster=SMALL_CLUSTER,
                   storage=FAST_STORAGE),
    ]


class TestCanonicalText:
    """Keys composed from a request's memoised JSON text equal the keys of
    the whole payload serialised at once."""

    def test_keys_and_seeds_match_the_reference(self):
        requests = _keyed_requests()
        assert len(requests) == 14
        for request in requests:
            for code_version in CODE_VERSIONS:
                assert request.cache_key(code_version) == _reference_key(request, code_version)
            digest = _reference_key(request, "task-seed")
            assert request.task_seed() == (int(digest[:16], 16) ^ request.seed) & 0x7FFFFFFF
        keys = {request.cache_key("v1") for request in requests}
        assert len(keys) == len(requests)

    def test_a_mutated_dict_leaves_the_key(self):
        request = RunRequest(pipeline=IN_SITU, spec=tiny_spec())
        key = request.cache_key("v1")
        out = request.to_dict()
        out["seed"] = 99
        out["spec"]["sampling"]["interval_hours"] = 1.0
        assert request.cache_key("v1") == key == _reference_key(request, "v1")

    def test_derived_requests_are_keyed_by_their_own_fields(self):
        request = RunRequest(spec=tiny_spec())
        request.cache_key("v1")  # memoise the parent's text first
        derived = [
            replace(request, seed=5),
            request.with_spec(tiny_spec(24.0)),
            request.bound_to(InTransitPipeline(n_staging_nodes=15)),
            request.bound_to(InSituPipeline()),
        ]
        for other in derived:
            assert other.cache_key("v1") == _reference_key(other, "v1")
            assert other.cache_key("v1") != request.cache_key("v1")
        # The trace is transport, not identity.
        traced = replace(request, trace=TraceContext(trace_id="t" * 32))
        assert traced.cache_key("v1") == request.cache_key("v1")

    @pytest.mark.parametrize("memoised", [False, True])
    def test_a_pickled_request_keeps_its_key(self, memoised):
        for request in _keyed_requests()[-3:]:
            key = _reference_key(request, "v1")
            if memoised:
                assert request.cache_key("v1") == key
            clone = pickle.loads(pickle.dumps(request))
            assert clone == request
            assert clone.cache_key("v1") == key
            assert clone.task_seed() == request.task_seed()


class TestDiskCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = DiskCache(str(tmp_path), code_version="v1")
        cache.put("ab" + "0" * 62, {"x": 1}, meta={"request": {"seed": 0}})
        key = "ab" + "0" * 62
        assert key in cache
        assert cache.get(key) == {"x": 1}
        assert cache.meta(key)["code_version"] == "v1"
        assert cache.meta(key)["schema_version"] == SCHEMA_VERSION
        assert cache.keys() == [key]
        assert len(cache) == 1

    def test_miss_and_torn_entry(self, tmp_path):
        cache = DiskCache(str(tmp_path), code_version="v1")
        key = "cd" + "0" * 62
        assert cache.get(key) is None
        # A torn (half-written) payload is a miss, not a crash.
        shard = tmp_path / key[:2]
        shard.mkdir()
        (shard / f"{key}.pkl").write_bytes(b"\x80\x04 not a pickle")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = DiskCache(str(tmp_path), code_version="v1")
        cache.put("ef" + "0" * 62, [1, 2, 3])
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_empty_directory_rejected(self):
        with pytest.raises(ConfigurationError):
            DiskCache("")

    def test_sidecar_records_payload_digest(self, tmp_path):
        cache = DiskCache(str(tmp_path), code_version="v1")
        key = "ab" + "0" * 62
        cache.put(key, {"x": 1})
        meta = cache.meta(key)
        raw = (tmp_path / key[:2] / f"{key}.pkl").read_bytes()
        assert meta["payload_sha256"] == hashlib.sha256(raw).hexdigest()
        assert meta["payload_bytes"] == len(raw)

    def test_corrupt_payload_is_quarantined(self, tmp_path):
        cache = DiskCache(str(tmp_path), code_version="v1")
        key = "ab" + "0" * 62
        cache.put(key, {"x": 1})
        payload = tmp_path / key[:2] / f"{key}.pkl"
        with open(payload, "r+b") as fh:
            fh.write(b"\xde\xad\xbe\xef")
        assert cache.get(key) is None
        assert cache.corrupt_quarantined == 1
        # The entry moved aside — gone from the key listing, present in
        # quarantine, and a later get() is a plain miss (no re-hash loop).
        assert cache.keys() == []
        qdir = tmp_path / QUARANTINE_DIRNAME
        assert sorted(p.name for p in qdir.iterdir()) == [
            f"{key}.json", f"{key}.pkl",
        ]
        assert cache.get(key) is None
        assert cache.corrupt_quarantined == 1

    def test_keys_exclude_quarantine_and_are_sorted(self, tmp_path):
        cache = DiskCache(str(tmp_path), code_version="v1")
        keys = ["ff" + "0" * 62, "aa" + "0" * 62, "0f" + "0" * 62]
        for key in keys:
            cache.put(key, {"k": key})
        corrupt = keys[0]
        with open(tmp_path / corrupt[:2] / f"{corrupt}.pkl", "r+b") as fh:
            fh.write(b"\x00\x00")
        assert cache.get(corrupt) is None
        assert cache.keys() == sorted(keys[1:])

    def test_meta_tolerates_torn_sidecar(self, tmp_path):
        cache = DiskCache(str(tmp_path), code_version="v1")
        key = "ab" + "0" * 62
        cache.put(key, {"x": 1})
        sidecar = tmp_path / key[:2] / f"{key}.json"
        sidecar.write_text('{"schema_version": 1, "trunc')
        assert cache.meta(key) is None
        sidecar.write_text('["not", "an", "object"]')
        assert cache.meta(key) is None
        # With the sidecar's digest gone the payload cannot be verified, so
        # the entry is quarantined and read as a miss.
        assert cache.get(key) is None
        assert (tmp_path / QUARANTINE_DIRNAME / f"{key}.pkl").exists()
        assert cache.corrupt_quarantined == 1


    def test_unverifiable_payload_is_not_served(self, tmp_path):
        cache = DiskCache(str(tmp_path), code_version="v1")
        key = "ab" + "0" * 62
        cache.put(key, {"energy": 0.25})
        payload = tmp_path / key[:2] / f"{key}.pkl"
        raw = bytearray(payload.read_bytes())
        # Bit-rot in the last byte of the stored double: still a pickle.
        at = next(pos for op, _, pos in pickletools.genops(bytes(raw)) if op.name == "BINFLOAT")
        raw[at + 8] ^= 0x01
        payload.write_bytes(bytes(raw))
        assert pickle.loads(bytes(raw)) != {"energy": 0.25}
        (tmp_path / key[:2] / f"{key}.json").unlink()
        assert cache.get(key) is None
        assert cache.corrupt_quarantined == 1


class TestExecutionEngine:
    def test_single_run_inline(self):
        result = ExecutionEngine().run(RunRequest(pipeline=IN_SITU, spec=tiny_spec()))
        assert result.engine == "inline"
        assert not result.cache_hit
        assert result.measurement.pipeline == IN_SITU
        assert result.wall_seconds > 0

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            ExecutionEngine(max_workers=0)

    def test_parallel_bit_identical_to_serial(self):
        requests = tiny_requests()
        serial = ExecutionEngine(max_workers=1).map(requests)
        parallel = ExecutionEngine(max_workers=2).map(requests)
        assert [r.engine for r in parallel] == ["pool"] * len(requests)
        for s, p in zip(serial, parallel):
            assert s.identity_dict() == p.identity_dict()

    def test_cache_replay_bit_identical(self, tmp_path):
        requests = tiny_requests()
        engine = ExecutionEngine(cache=DiskCache(str(tmp_path), code_version="v1"))
        cold = engine.map(requests)
        warm = engine.map(requests)
        assert engine.cache_misses == len(requests)
        assert engine.cache_hits == len(requests)
        assert [r.engine for r in warm] == ["cache"] * len(requests)
        assert all(r.cache_hit for r in warm)
        for c, w in zip(cold, warm):
            assert c.identity_dict() == w.identity_dict()
            assert c.cache_key == w.cache_key

    def test_warm_replay_returns_the_cold_records(self, tmp_path):
        requests = sweep_requests((8.0,))
        engine = ExecutionEngine(cache=DiskCache(str(tmp_path), code_version="v1"))
        cold = engine.map(requests)
        warm = engine.map(requests)
        assert [r.cache_hit for r in warm] == [True, True]

        def records(result):
            return [
                (p, t0.hex(), t1.hex()) for p, t0, t1 in result.measurement.timeline.records
            ]

        for c, w in zip(cold, warm):
            assert len(records(c)) > 1_000
            assert records(w) == records(c)

    def test_hit_wall_seconds_times_the_replay(self, tmp_path, monkeypatch):
        request = RunRequest(pipeline=IN_SITU, spec=tiny_spec())
        engine = ExecutionEngine(cache=DiskCache(str(tmp_path), code_version="v1"))
        engine.run(request)
        get = DiskCache.get

        def slow_get(self, key):
            time.sleep(0.02)
            return get(self, key)

        monkeypatch.setattr(DiskCache, "get", slow_get)
        warm = engine.run(request)
        assert warm.cache_hit
        assert warm.wall_seconds >= 0.02

    def test_old_timeline_layout_entry_reruns(self, tmp_path, monkeypatch):
        request = RunRequest(pipeline=IN_SITU, spec=tiny_spec())
        fresh = execute_request(request)
        cache = DiskCache(str(tmp_path), code_version="v1")
        key = request.cache_key("v1")

        def old_layout(timeline, protocol):
            # The bytes the tuple-records PhaseTimeline dataclass pickled to.
            state = {"records": timeline.records, "domain": timeline.domain}
            return copyreg.__newobj__, (PhaseTimeline,), state

        def put_old_entry():
            with monkeypatch.context() as patch:
                patch.setattr(PhaseTimeline, "__reduce_ex__", old_layout)
                cache.put(
                    key,
                    {"measurement": fresh.measurement, "fault_summary": None, "recoveries": 0},
                    meta={"request": request.to_dict()},
                )

        put_old_entry()
        assert cache.get(key) is None
        assert cache.corrupt_quarantined == 1
        put_old_entry()
        engine = ExecutionEngine(cache=cache)
        rerun = engine.run(request)
        assert not rerun.cache_hit and engine.cache_misses == 1
        assert cache.corrupt_quarantined == 2
        assert rerun.identity_dict() == fresh.identity_dict()

    def test_code_version_invalidates_cache(self, tmp_path):
        request = RunRequest(pipeline=IN_SITU, spec=tiny_spec())
        old = ExecutionEngine(cache=DiskCache(str(tmp_path), code_version="v1"))
        old.run(request)
        new = ExecutionEngine(cache=DiskCache(str(tmp_path), code_version="v2"))
        new.run(request)
        assert new.cache_hits == 0 and new.cache_misses == 1

    def test_execute_request_is_deterministic(self):
        request = RunRequest(pipeline=POST_PROCESSING, spec=tiny_spec())
        a = execute_request(request)
        b = execute_request(request)
        assert a.identity_dict() == b.identity_dict()

    def test_session_config_records_provenance(self, tmp_path):
        engine = ExecutionEngine(
            max_workers=1, cache=DiskCache(str(tmp_path), code_version="v1")
        )
        with obs.session() as sess:
            engine.run(RunRequest(pipeline=IN_SITU, spec=tiny_spec()))
            recorded = sess.config["exec"]
        assert recorded["workers"] == 1
        assert recorded["cache"]["code_version"] == "v1"
        assert recorded["cache_misses"] == 1
        assert recorded["tasks_executed"] == 1

    @pytest.mark.parametrize("hours", [8.0, 72.0])
    def test_default_topology_builds_the_paper_platform(self, hours):
        request = RunRequest(spec=tiny_spec(hours))
        for pipeline in pipeline_factories().values():
            paper = pipeline().execute(request, platform=SimulatedPlatform())
            built = pipeline().execute(
                request,
                platform=SimulatedPlatform.from_topology(
                    ClusterConfig(), StorageConfig()
                ),
            )
            assert built.identity_dict() == paper.identity_dict()

    def test_faulted_runs_replay_with_summary(self, tmp_path):
        from repro.faults.resilience import CheckpointPolicy
        from repro.faults.spec import FaultSpec

        request = RunRequest(
            pipeline=IN_SITU,
            spec=tiny_spec(24.0),
            faults=FaultSpec.campaign(seed=3, horizon_seconds=400.0, mtbf_hours=0.05),
            checkpoints=CheckpointPolicy(every_n_outputs=2),
        )
        engine = ExecutionEngine(cache=DiskCache(str(tmp_path), code_version="v1"))
        cold = engine.run(request)
        warm = engine.run(request)
        assert warm.cache_hit
        assert warm.fault_summary == cold.fault_summary
        assert warm.recoveries == cold.recoveries


class ExplodingInSitu(InSituPipeline):
    """A subclass the engine would silently replace with its base class."""

    def simulated_process(self, *args, **kwargs):
        raise RuntimeError("the subclass ran")


class TestEngineRejectsSubclasses:
    """Engine paths name pipelines, so they refuse what they would rebuild."""

    def test_characterization_grid(self):
        from repro import run_characterization

        with pytest.raises(ConfigurationError, match="ExplodingInSitu"):
            run_characterization(
                intervals_hours=(72.0,),
                spec=tiny_spec(),
                pipelines=(ExplodingInSitu(), PostProcessingPipeline()),
            )

    def test_fault_campaign(self):
        from repro.faults.campaign import run_fault_campaign

        with pytest.raises(ConfigurationError, match="ExplodingInSitu"):
            run_fault_campaign(
                tiny_spec(24.0),
                seed=3,
                pipelines=(ExplodingInSitu(),),
                include_unprotected=False,
            )


#: One positional call per keyword-only builder and sweep method.  Each
#: takes a fresh simulator, the analyzer fixture and a scratch directory.
POSITIONAL_CALLS = {
    "ComputeCluster": lambda sim, analyzer, tmp: ComputeCluster(sim, 4),
    "LustreFileSystem": lambda sim, analyzer, tmp: LustreFileSystem(sim, 1 * TB),
    "StorageCluster": lambda sim, analyzer, tmp: StorageCluster(
        sim, LustreFileSystem(sim)
    ),
    "InTransitPipeline": lambda sim, analyzer, tmp: InTransitPipeline(15),
    "SimulatedPlatform": lambda sim, analyzer, tmp: SimulatedPlatform(caddy(sim)),
    "RealPlatform": lambda sim, analyzer, tmp: RealPlatform(str(tmp), RealScale()),
    "sweep": lambda sim, analyzer, tmp: analyzer.sweep([24.0]),
    "storage_vs_rate": lambda sim, analyzer, tmp: analyzer.storage_vs_rate(
        [24.0], years(1)
    ),
    "energy_vs_rate": lambda sim, analyzer, tmp: analyzer.energy_vs_rate(
        [24.0], years(1)
    ),
    "failure_aware_sweep": lambda sim, analyzer, tmp: analyzer.failure_aware_sweep(
        [24.0], years(1), 1_000.0, 60.0
    ),
}


class TestDeprecationShims:
    """Builders and sweep methods take their parameters as keywords only."""

    @pytest.mark.parametrize("name", sorted(POSITIONAL_CALLS))
    def test_positional_call_raises_type_error(self, name, analyzer, tmp_path):
        with pytest.raises(TypeError, match="positional argument"):
            POSITIONAL_CALLS[name](Simulator(), analyzer, tmp_path)

    def test_missing_keywords_raise_type_error(self, analyzer):
        with pytest.raises(TypeError, match="intervals_hours"):
            analyzer.sweep(duration_seconds=1.0)
        with pytest.raises(TypeError, match="mtbf_hours"):
            analyzer.failure_aware_sweep(
                intervals_hours=[24.0], duration_seconds=1.0
            )


@pytest.fixture
def analyzer() -> WhatIfAnalyzer:
    model = PerformanceModel(
        t_sim_ref=paper.EQ5_T_SIM,
        iter_ref=paper.CAMPAIGN_TIMESTEPS,
        alpha=paper.EQ5_ALPHA_S_PER_GB,
        beta=paper.EQ5_BETA_S_PER_IMAGE,
        power_watts=46_300.0,
    )
    insitu = PipelinePredictor(
        IN_SITU, model, DataModel(24.0, 0.2, 180.0, paper.CAMPAIGN_TIMESTEPS)
    )
    post = PipelinePredictor(
        POST_PROCESSING, model, DataModel(24.0, 80.0, 180.0, paper.CAMPAIGN_TIMESTEPS)
    )
    return WhatIfAnalyzer(insitu, post, timestep_seconds=paper.TIMESTEP_SECONDS)


class TestTypedSweepResults:
    def test_sweep_result_schema(self, analyzer):
        century = years(paper.WHATIF_YEARS)
        result = analyzer.sweep(intervals_hours=[24.0], duration_seconds=century)
        assert isinstance(result, SweepResult)
        data = result.to_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["kind"] == "sweep"
        assert len(data["rows"]) == 1

    def test_rate_rows_unpack_like_tuples(self, analyzer):
        century = years(paper.WHATIF_YEARS)
        storage = analyzer.storage_vs_rate(
            intervals_hours=[24.0], duration_seconds=century
        )
        assert isinstance(storage, RateSweepResult)
        (row,) = storage
        assert isinstance(row, StorageRateRow)
        hours, insitu_gb, post_gb = row
        assert hours == 24.0 and insitu_gb < post_gb
        energy = analyzer.energy_vs_rate(
            intervals_hours=[24.0], duration_seconds=century
        )
        assert isinstance(energy[0], EnergyRateRow)
        assert energy.to_dict()["schema_version"] == SCHEMA_VERSION

    def test_failure_sweep_result_schema(self, analyzer):
        century = years(paper.WHATIF_YEARS)
        result = analyzer.failure_aware_sweep(
            intervals_hours=[24.0], duration_seconds=century, mtbf_hours=6.0,
            checkpoint_write_seconds=60.0,
        )
        assert isinstance(result, FailureSweepResult)
        data = result.to_dict()
        assert data["kind"] == "failure-aware-sweep"
        assert data["mtbf_hours"] == 6.0


class TestBench:
    def test_quick_bench_report(self, tmp_path):
        out = str(tmp_path / "results")
        report = run_bench(quick=True, workers=1, output_dir=out)
        assert report["identical"]["parallel_vs_serial"]
        assert report["identical"]["cached_vs_serial"]
        assert report["speedup_cached"] > 1.0
        assert report["cache"]["hits"] == report["workload"]["n_tasks"]
        # Stamped like a run manifest, so the run store can place it.
        assert report["created_unix"] > 0
        assert report["provenance"] == collect_provenance()
        path = write_report(report, out)
        assert os.path.basename(path) == "BENCH_exec.json"
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["schema_version"] == SCHEMA_VERSION
        assert os.path.exists(os.path.join(out, "BENCH_exec.txt"))

    def test_compare_to_baseline_gates(self):
        report = {
            "identical": {"parallel_vs_serial": True, "cached_vs_serial": True},
            "cpus": 8,
            "speedup_parallel": 3.0,
            "speedup_cached": 50.0,
        }
        baseline = {"min_cpus": 2, "speedup_parallel": 3.0, "speedup_cached": 40.0}
        assert compare_to_baseline(report, baseline) == []
        # A >tolerance drop in parallel speedup fails the gate.
        slow = dict(report, speedup_parallel=1.0)
        assert any("parallel" in p for p in compare_to_baseline(slow, baseline))
        # The same drop on a 1-core host is not a regression.
        laptop = dict(slow, cpus=1)
        assert compare_to_baseline(laptop, baseline) == []
        # Bit-identity violations always fail.
        broken = dict(report, identical={"parallel_vs_serial": False,
                                         "cached_vs_serial": True})
        assert any("bit-identity" in p for p in compare_to_baseline(broken, baseline))
        # Cached-speedup regressions fail regardless of core count.
        slow_cache = dict(laptop, speedup_cached=10.0)
        assert any("cached" in p for p in compare_to_baseline(slow_cache, baseline))
