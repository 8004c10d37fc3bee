"""Tests for the declarative scenario system (``repro.scenario``)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.ocean.driver import MPASOceanConfig
from repro.scenario import (
    ClusterConfig,
    ExecutionConfig,
    ExperimentConfig,
    FaultsCampaignConfig,
    PipelineConfig,
    SamplingConfig,
    Scenario,
    ScenarioError,
    StorageConfig,
    TelemetryConfig,
    apply_overrides,
    load_scenario,
    parse_bandwidth,
    parse_bytes,
    parse_duration,
    parse_scenario,
    scenario_text,
    write_scenario,
)
from repro.scenario.build import (
    build_engine,
    build_pipelines,
    build_spec,
    scenario_from_args,
)
from repro.units import MONTH
from repro.viz.render import ImageSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
INF = float("inf")
NAN = float("nan")
GALLERY_DIR = REPO_ROOT / "scenarios"


def _minimal(**extra) -> dict:
    data = {"schema_version": 1}
    data.update(extra)
    return data


class TestSchemaRoundTrip:
    def test_parse_freeze_serialize_reparse_equal(self):
        data = _minimal(
            name="round-trip",
            experiment={"kind": "characterize"},
            sampling={"intervals_hours": [8, 24]},
            storage={"capacity": "7.7 TB", "write_bandwidth": "160 MB/s"},
            ocean={"duration": "6 months", "timestep": "1800 s"},
        )
        first = parse_scenario(data)
        second = parse_scenario(first.to_dict())
        assert first == second
        assert first.content_digest() == second.content_digest()

    def test_digest_stable_across_key_order(self):
        a = parse_scenario({"schema_version": 1, "name": "a",
                            "sampling": {"intervals_hours": [8, 24, 72]}})
        b = parse_scenario({"sampling": {"intervals_hours": [8, 24, 72]},
                            "name": "b", "schema_version": 1})
        assert a.content_digest() == b.content_digest()

    def test_digest_excludes_transport_sections(self):
        base = parse_scenario(_minimal(name="x"))
        renamed = parse_scenario(_minimal(name="y", description="other"))
        cached = parse_scenario(
            _minimal(name="x", execution={"workers": 2, "cache": "/tmp/c"})
        )
        telemetered = parse_scenario(
            _minimal(name="x", telemetry={"directory": "out/run"})
        )
        assert base.content_digest() == renamed.content_digest()
        assert base.content_digest() == cached.content_digest()
        assert base.content_digest() == telemetered.content_digest()

    def test_digest_tracks_identity_sections(self):
        base = parse_scenario(_minimal(name="x"))
        changed = parse_scenario(
            _minimal(name="x", sampling={"intervals_hours": [8]})
        )
        capped = parse_scenario(
            _minimal(name="x", power={"cap_watts": 10_000})
        )
        assert base.content_digest() != changed.content_digest()
        assert base.content_digest() != capped.content_digest()

    def test_every_ocean_and_images_key_is_pinned_in_the_digest(self):
        # Every key off its default; no template sets most of them.
        s = parse_scenario(_minimal(
            name="campaign",
            ocean={"resolution_km": 120, "vertical_levels": 30, "timestep": "1 hour",
                   "duration": "2 months", "bytes_per_value": 4},
            images={"width": 640, "height": 480},
        ))
        assert s.ocean == MPASOceanConfig(
            resolution_km=120.0, n_vertical_levels=30, timestep_seconds=3600.0,
            duration_seconds=2 * MONTH, bytes_per_value=4,
        )
        assert s.images == ImageSpec(width=640, height=480)
        assert s.content_digest() == (
            "6080b6a080d6cc1085eb4dbc8c256bd86a984d1d3445f86c909817ce7e18ffaa"
        )
        assert parse_scenario(s.to_dict()) == s

    def test_unit_strings_resolve_to_canonical_defaults(self):
        spelled = parse_scenario(_minimal(
            name="spelled",
            storage={"capacity": "7.7 TB", "write_bandwidth": "160 MB/s",
                     "metadata_latency": "1 ms"},
        ))
        assert spelled.storage == StorageConfig()

    def test_faults_scenario_autofills_campaign_section(self):
        s = parse_scenario(_minimal(
            name="f",
            experiment={"kind": "faults"},
            sampling={"intervals_hours": [24]},
        ))
        assert s.faults == FaultsCampaignConfig()

    def test_yaml_text_round_trips(self, tmp_path):
        s = parse_scenario(_minimal(name="t", sampling={"intervals_hours": [8]}))
        path = tmp_path / "t.yaml"
        write_scenario(s, str(path))
        again = load_scenario(str(path))
        assert again == s
        json_path = tmp_path / "t.json"
        write_scenario(s, str(json_path))
        assert load_scenario(str(json_path)) == s

    def test_scenario_text_json_is_sorted(self):
        s = parse_scenario(_minimal(name="t"))
        payload = json.loads(scenario_text(s, fmt="json"))
        assert payload["schema_version"] == 1
        assert payload["name"] == "t"


class TestValidationErrors:
    def test_missing_schema_version(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario({"name": "x"})
        assert exc.value.path == "schema_version"
        assert "add schema_version: 1" in str(exc.value)

    def test_unsupported_schema_version(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario({"schema_version": 99})
        assert "99" in str(exc.value)

    def test_unknown_top_level_key_suggests_close_match(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_minimal(samplng={"intervals_hours": [8]}))
        assert exc.value.path == "samplng"
        assert "sampling" in str(exc.value)

    def test_unknown_section_key_has_dotted_path(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_minimal(storage={"capcity": "1 TB"}))
        assert exc.value.path == "storage.capcity"
        assert "capacity" in str(exc.value)

    def test_bad_unit_names_offending_path(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_minimal(storage={"capacity": "7 parsecs"}))
        assert exc.value.path == "storage.capacity"
        assert "parsecs" in str(exc.value)

    def test_bad_type_names_offending_path(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_minimal(cluster={"nodes": "many"}))
        assert exc.value.path == "cluster.nodes"

    def test_whatif_only_keys_rejected_elsewhere(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_minimal(experiment={"kind": "characterize",
                                                "years": 10}))
        assert exc.value.path == "experiment.years"

    def test_faults_section_needs_faults_kind(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_minimal(name="x", faults={"seed": 1}))
        assert exc.value.path == "faults"

    def test_faults_kind_needs_single_cadence(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_minimal(
                experiment={"kind": "faults"},
                sampling={"intervals_hours": [8, 24]},
            ))
        assert exc.value.path == "sampling.intervals_hours"

    def test_whatif_grid_must_cover_training_cadences(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_minimal(
                experiment={"kind": "whatif"},
                sampling={"intervals_hours": [8, 24]},
            ))
        assert "72" in str(exc.value)

    def test_characterize_pipelines_need_comparison_pair(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_minimal(pipelines=["in-situ", "in-transit"]))
        assert exc.value.path == "pipelines"

    def test_duplicate_pipeline_kinds_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario(_minimal(pipelines=["in-situ", "in-situ",
                                               "post-processing"]))

    def test_staging_nodes_only_for_in_transit(self):
        with pytest.raises(ScenarioError) as exc:
            PipelineConfig(kind="in-situ", staging_nodes=5)
        assert exc.value.path == "pipelines.staging_nodes"

    def test_cage_larger_than_its_monitor_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_minimal(cluster={"nodes": 24, "nodes_per_cage": 12}))
        assert exc.value.path == "cluster.nodes_per_cage"
        parse_scenario(_minimal(cluster={"nodes": 24, "nodes_per_cage": 10}))

    def test_staging_must_leave_simulation_nodes(self):
        pipelines = ["in-situ", "post-processing", {"kind": "in-transit", "staging_nodes": 20}]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_minimal(cluster={"nodes": 20}, pipelines=pipelines))
        assert exc.value.path == "pipelines.2.staging_nodes"
        parse_scenario(_minimal(cluster={"nodes": 21}, pipelines=pipelines))

    def test_default_staging_partition_checked(self):
        pipelines = ["in-transit", "in-situ", "post-processing"]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_minimal(cluster={"nodes": 15}, pipelines=pipelines))
        assert exc.value.path == "pipelines.0.staging_nodes"
        assert "15 staging nodes" in str(exc.value)
        parse_scenario(_minimal(cluster={"nodes": 16}, pipelines=pipelines))

    def test_resume_needs_journal_and_cache(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario(name="x", execution=ExecutionConfig(resume=True))
        assert exc.value.path == "execution.resume"

    def test_unknown_experiment_kind(self):
        with pytest.raises(ScenarioError) as exc:
            ExperimentConfig(kind="bogus")
        assert exc.value.path == "experiment.kind"

    @pytest.mark.parametrize(
        "fields, key",
        [
            ({"sweep_intervals_hours": (0.0,)}, "sweep_intervals_hours"),
            ({"sweep_intervals_hours": (8.0, INF)}, "sweep_intervals_hours"),
            ({"sweep_intervals_hours": (NAN,)}, "sweep_intervals_hours"),
            ({"mtbf_hours": 0.0}, "mtbf_hours"),
            ({"mtbf_hours": INF}, "mtbf_hours"),
            ({"mtbf_hours": NAN}, "mtbf_hours"),
            ({"checkpoint_write_seconds": -1.0}, "checkpoint_write_seconds"),
            ({"checkpoint_write_seconds": INF}, "checkpoint_write_seconds"),
            ({"restart_seconds": NAN}, "restart_seconds"),
            ({"restart_seconds": -INF}, "restart_seconds"),
            ({"years": INF}, "years"),
            # The failure-aware sweep needs a checkpoint cost for Young's
            # optimum and forward progress at it: (30 + sqrt(2*60*36)/2)/36
            # is 1.75 of a 0.01 h MTBF.
            (
                {"mtbf_hours": 100.0, "checkpoint_write_seconds": 0.0},
                "checkpoint_write_seconds",
            ),
            ({"mtbf_hours": 0.01}, "mtbf_hours"),
            ({"mtbf_hours": 1.0, "restart_seconds": 3_600.0}, "mtbf_hours"),
        ],
    )
    def test_bad_whatif_input_names_its_path(self, fields, key):
        with pytest.raises(ScenarioError) as exc:
            ExperimentConfig(kind="whatif", **fields)
        assert exc.value.path == f"experiment.{key}"

    def test_whatif_inputs_at_their_bounds_accepted(self):
        ExperimentConfig(
            kind="whatif", mtbf_hours=None, checkpoint_write_seconds=0.0,
            restart_seconds=0.0,
        )
        ExperimentConfig(
            kind="whatif", mtbf_hours=0.1, checkpoint_write_seconds=1.0,
            restart_seconds=0.0,
        )

    @pytest.mark.parametrize(
        "mtbf_hours, restart_seconds",
        [(0.01, 0.0), (0.01, 30.0), (0.1, 250.0), (0.1, 300.0), (100.0, 30.0)],
    )
    def test_failure_inputs_accepted_exactly_when_the_model_progresses(
        self, mtbf_hours, restart_seconds
    ):
        from repro.errors import ModelError
        from repro.faults.model import FailureModel

        model = FailureModel(mtbf_hours * 3_600.0, 60.0, restart_seconds)
        try:
            model.expected_time(1.0, model.optimal_interval())
            progresses = True
        except ModelError:
            progresses = False
        try:
            ExperimentConfig(
                kind="whatif", mtbf_hours=mtbf_hours, restart_seconds=restart_seconds
            )
            accepted = True
        except ScenarioError as exc:
            assert exc.path == "experiment.mtbf_hours"
            accepted = False
        assert accepted == progresses

    @pytest.mark.parametrize(
        "section, path",
        [
            ({"sampling": {"intervals_hours": [8, INF]}}, "sampling.intervals_hours"),
            ({"experiment": {"kind": "whatif", "years": INF}}, "experiment.years"),
            ({"ocean": {"duration": INF}}, "ocean.duration"),
            ({"ocean": {"timestep": INF}}, "ocean.timestep"),
            ({"ocean": {"resolution_km": INF}}, "ocean.resolution_km"),
        ],
    )
    def test_infinite_cadence_or_length_rejected(self, section, path):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(_minimal(**section))
        assert exc.value.path == path
        assert "inf" in str(exc.value)

    @pytest.mark.parametrize(
        "config, field, value, path",
        [
            *((MPASOceanConfig, "resolution_km", v, "ocean.resolution_km")
              for v in (0.0, -60.0, NAN, INF)),
            *((MPASOceanConfig, "n_vertical_levels", v, "ocean.vertical_levels")
              for v in (0, -1)),
            *((MPASOceanConfig, "timestep_seconds", v, "ocean.timestep")
              for v in (0.0, -1800.0, NAN, INF)),
            *((MPASOceanConfig, "duration_seconds", v, "ocean.duration")
              for v in (0.0, -1.0, NAN, INF)),
            (MPASOceanConfig, "bytes_per_value", 3, "ocean.bytes_per_value"),
            *((ImageSpec, name, v, "images.width")
              for name in ("width", "height") for v in (0, -8, 7)),
        ],
    )
    def test_section_config_built_directly_names_its_key(
        self, config, field, value, path
    ):
        """The runtime configs are the scenario's sections, so they check
        themselves however they are built."""
        with pytest.raises(ScenarioError) as exc:
            config(**{field: value})
        assert exc.value.path == path

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["whatif", "--intervals", "0"], "experiment.sweep_intervals_hours"),
            (["whatif", "--mtbf-hours", "0"], "experiment.mtbf_hours"),
            (["whatif", "--checkpoint-write-seconds", "-1"],
             "experiment.checkpoint_write_seconds"),
            (["whatif", "--restart-seconds", "nan"], "experiment.restart_seconds"),
            (["whatif", "--mtbf-hours", "100", "--checkpoint-write-seconds", "0"],
             "experiment.checkpoint_write_seconds"),
            (["whatif", "--mtbf-hours", "0.01"], "experiment.mtbf_hours"),
            (["whatif", "--years", "inf"], "experiment.years"),
            (["characterize", "--intervals", "inf"], "sampling.intervals_hours"),
            (["faults", "--interval", "inf"], "sampling.intervals_hours"),
            (["faults", "--months", "inf"], "ocean.duration"),
        ],
    )
    def test_bad_flag_exits_2_before_any_simulation(self, argv, path, capsys, monkeypatch):
        from repro.cli import main
        from repro.exec.engine import ExecutionEngine

        def no_runs(self, requests):
            raise AssertionError("a simulation ran before the input was checked")

        monkeypatch.setattr(ExecutionEngine, "map", no_runs)
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: scenario.{path}: ")


class TestUnits:
    def test_durations(self):
        assert parse_duration(90) == 90.0
        assert parse_duration("1800 s") == 1800.0
        assert parse_duration("6 months") == 6 * 2_592_000.0
        assert parse_duration("1 ms") == 1e-3

    def test_bytes_and_bandwidth(self):
        assert parse_bytes("7.7 TB") == 7.7e12
        assert parse_bytes(1024) == 1024.0
        assert parse_bandwidth("160 MB/s") == 160e6
        assert parse_bandwidth(5e8) == 5e8

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ScenarioError):
            parse_duration(True, "x")


class TestOverrides:
    def test_dotted_path_sets_nested_value(self):
        data = _minimal(sampling={"intervals_hours": [8]})
        apply_overrides(data, ["sampling.intervals_hours=[8, 24]"])
        assert data["sampling"]["intervals_hours"] == [8, 24]

    def test_override_creates_missing_sections(self):
        data = _minimal()
        apply_overrides(data, ["cluster.nodes=75"])
        assert data["cluster"]["nodes"] == 75

    def test_override_indexes_lists(self):
        data = _minimal(pipelines=[
            "in-situ", "post-processing",
            {"kind": "in-transit", "staging_nodes": 15},
        ])
        apply_overrides(data, ["pipelines.2.staging_nodes=30"])
        assert data["pipelines"][2]["staging_nodes"] == 30
        scenario = parse_scenario(data)
        assert scenario.pipelines[2].staging_nodes == 30

    def test_malformed_override_rejected(self):
        with pytest.raises(ScenarioError):
            apply_overrides(_minimal(), ["no-equals-sign"])

    def test_out_of_range_index_rejected(self):
        data = _minimal(pipelines=["in-situ", "post-processing"])
        with pytest.raises(ScenarioError):
            apply_overrides(data, ["pipelines.7.kind=in-transit"])


#: ``--set`` values covering each scalar the YAML resolver tells apart, and
#: flow collections.
_SET_VALUES = [
    "3", "1e9", ".inf", ".nan", "~", "yes", "'3'", "0x10", "2024-02-29",
    "[8, 24]", "{kind: in-transit, staging_nodes: 15}",
]


class TestYamlLoaders:
    """libyaml's ``CSafeLoader`` builds what PyYAML's ``SafeLoader`` builds."""

    @pytest.fixture
    def yaml(self):
        yaml = pytest.importorskip("yaml")
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML has no libyaml loader")
        return yaml

    @staticmethod
    def _both(monkeypatch, yaml, load):
        """``repr(load())`` through ``CSafeLoader``, then through ``SafeLoader``."""
        with_c = repr(load())
        monkeypatch.delattr(yaml, "CSafeLoader")
        return with_c, repr(load())

    @pytest.mark.parametrize(
        "path", sorted(GALLERY_DIR.glob("*.yaml")), ids=lambda path: path.name
    )
    def test_every_template_loads_the_same(self, monkeypatch, yaml, path):
        with_c, pure = self._both(monkeypatch, yaml, lambda: load_scenario(str(path)))
        assert with_c == pure

    @pytest.mark.parametrize("text", _SET_VALUES)
    def test_every_set_value_parses_the_same(self, monkeypatch, yaml, text):
        from repro.scenario.loader import _parse_override_value

        with_c, pure = self._both(monkeypatch, yaml, lambda: _parse_override_value(text))
        assert with_c == pure == repr(yaml.load(text, Loader=yaml.SafeLoader))

    def test_libyaml_parses_files_and_set_values(self, monkeypatch, yaml):
        parsed = []

        class Recording(yaml.CSafeLoader):
            def __init__(self, stream):
                parsed.append(stream)
                super().__init__(stream)

        monkeypatch.setattr(yaml, "CSafeLoader", Recording)
        load_scenario(str(GALLERY_DIR / "powercap-stress.yaml"), ["faults.seed=3"])
        assert len(parsed) == 2 and parsed[1] == "3"

    def test_malformed_yaml_raises_with_either_loader(self, monkeypatch, yaml, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema_version: 1\nsampling: [8, 24\n")
        with pytest.raises(ScenarioError, match="invalid YAML"):
            load_scenario(str(bad))
        monkeypatch.delattr(yaml, "CSafeLoader")
        with pytest.raises(ScenarioError, match="invalid YAML"):
            load_scenario(str(bad))


class TestBuilders:
    def test_default_scenario_builds_all_none(self):
        from repro.exec.supervise import TaskPolicy
        from repro.pipelines.base import PipelineSpec

        s = parse_scenario(_minimal(name="default"))
        assert build_spec(s) == PipelineSpec()
        assert build_pipelines(s) is None
        engine = build_engine(s)
        assert engine.max_workers is None
        assert engine.cache is None
        assert engine.journal is None
        assert engine.policy == TaskPolicy()

    def test_faults_scenario_spec_matches_legacy_construction(self):
        from repro.pipelines.base import PipelineSpec
        from repro.pipelines.sampling import SamplingPolicy

        s = parse_scenario(_minimal(
            experiment={"kind": "faults"},
            sampling={"intervals_hours": [24]},
            ocean={"duration": "6 months"},
        ))
        legacy = PipelineSpec(
            ocean=MPASOceanConfig(duration_seconds=6 * MONTH),
            sampling=SamplingPolicy(24.0),
        )
        assert build_spec(s) == legacy

    @pytest.mark.parametrize("template", ["ci-small.yaml", "mtbf-campaign.yaml"])
    def test_spec_carries_the_scenario_sections(self, template):
        s = load_scenario(
            str(GALLERY_DIR / template),
            ["ocean.vertical_levels=30", "images.width=640"],
        )
        spec = build_spec(s)
        assert spec.ocean is s.ocean
        assert spec.images is s.images

    def test_custom_topology_builds_platform_factory(self):
        from repro.pipelines.platform import SimulatedPlatform

        # Every cluster/storage field is set off its default, so a field
        # from_topology drops on its way to the builders shows up here.
        s = parse_scenario(_minimal(
            cluster={
                "name": "tiny", "nodes": 12, "cores_per_socket": 4,
                "nodes_per_cage": 4,
            },
            storage={
                "capacity": 2e12, "write_bandwidth": 2e8, "read_bandwidth": 3e9,
                "mds": 3, "ost": 16, "metadata_latency": 0.005,
                "io_aggregators": 4,
            },
        ))
        platform = SimulatedPlatform.from_topology(s.cluster, s.storage)
        assert platform.cluster.name == "tiny"
        assert platform.cluster.n_nodes == 12
        assert platform.cluster.nodes[0].cores_per_socket == 4
        assert len(platform.cluster.cages) == 3
        fs = platform.storage.fs
        assert fs.capacity_bytes == 2e12
        assert fs.write_pipe.capacity == 2e8
        assert fs.read_pipe.capacity == 3e9
        assert fs.mds.capacity == 3
        assert len(fs.osts) == 16
        assert fs.metadata_latency == 0.005
        assert platform.pio.n_aggregators == 4

    def test_pipelines_built_in_declared_order(self):
        s = parse_scenario(_minimal(pipelines=[
            "post-processing", "in-situ",
            {"kind": "in-transit", "staging_nodes": 30},
        ]))
        built = build_pipelines(s)
        assert [p.name for p in built] == [
            "post-processing", "in-situ", "in-transit"
        ]
        assert built[2].n_staging_nodes == 30

    def test_engine_cache_namespaced_by_digest(self, tmp_path):
        s = parse_scenario(_minimal(
            name="cached", execution={"cache": str(tmp_path / "c")}
        ))
        engine = build_engine(s)
        stamp = f"scenario-{s.content_digest()[:12]}"
        assert engine.cache.code_version.endswith(f"+{stamp}")

    def test_supervised_engine_journal_label(self, tmp_path):
        s = parse_scenario(_minimal(
            name="sup",
            execution={"journal": str(tmp_path / "j.jsonl"), "task_retries": 2},
        ))
        engine = build_engine(s)
        assert engine.journal.label == f"scenario-{s.content_digest()[:12]}"
        assert engine.policy.retry.max_attempts == 2

    def test_scenario_from_args_matches_file_digest(self):
        import argparse

        args = argparse.Namespace(
            intervals=[72.0], json=False, telemetry=None,
            timeline_interval=None, no_timeline=False, power_cap=None,
            workers=None, cache=None, deadline=None,
            task_retries=None, max_worker_crashes=None, fail_policy=None,
            journal=None, resume=False, emit_scenario=None,
        )
        from_flags = scenario_from_args("characterize", args)
        from_file = load_scenario(str(GALLERY_DIR / "ci-small.yaml"))
        assert from_flags.content_digest() == from_file.content_digest()


class TestJournalLabel:
    def test_journal_records_custom_label(self, tmp_path):
        from repro.exec.supervise import SweepJournal

        path = tmp_path / "j.jsonl"
        journal = SweepJournal(str(path), label="scenario-abc123")
        assert journal.label == "scenario-abc123"
        journal.begin(3, "code", label=journal.label)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["label"] == "scenario-abc123"

    def test_default_label_is_sweep(self, tmp_path):
        from repro.exec.supervise import SweepJournal

        journal = SweepJournal(str(tmp_path / "j.jsonl"))
        assert journal.label == "sweep"


class TestSessionStamp:
    def test_run_scenario_stamps_active_session(self, tmp_path):
        from repro import obs
        from repro.scenario.run import _stamp_session

        s = parse_scenario(_minimal(name="stamped"))
        with obs.session(str(tmp_path / "run"), label="characterize"):
            _stamp_session(s)
            active = obs.active()
            assert active.config["scenario"]["name"] == "stamped"
            assert active.config["scenario"]["digest"] == s.content_digest()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["scenario"]["digest"] == s.content_digest()


class TestGallery:
    def test_committed_gallery_is_healthy(self):
        from repro.scenario.gallery import check_gallery

        problems = check_gallery(
            str(GALLERY_DIR), str(GALLERY_DIR / "TEMPLATES.json")
        )
        assert problems == []

    def test_gallery_has_expected_templates(self):
        from repro.scenario.gallery import gallery_paths

        names = [Path(p).name for p in gallery_paths(str(GALLERY_DIR))]
        assert names == sorted(names)
        assert {"paper-caddy-150.yaml", "ci-small.yaml",
                "intransit-staging.yaml", "mtbf-campaign.yaml",
                "powercap-stress.yaml"} <= set(names)

    def test_paper_template_is_the_default_characterization(self):
        """The paper template must reproduce the Section V grid exactly."""
        paper = load_scenario(str(GALLERY_DIR / "paper-caddy-150.yaml"))
        default = Scenario(name="characterize")
        assert paper.content_digest() == default.content_digest()
        assert paper.cluster == ClusterConfig()
        assert paper.storage == StorageConfig()
        assert paper.sampling == SamplingConfig()

    def test_digest_drift_detected(self, tmp_path):
        from repro.scenario.gallery import check_gallery, write_manifest

        gallery = tmp_path / "scenarios"
        gallery.mkdir()
        template = gallery / "t.yaml"
        template.write_text("schema_version: 1\nname: t\n")
        manifest = gallery / "TEMPLATES.json"
        write_manifest(str(gallery), str(manifest))
        assert check_gallery(str(gallery), str(manifest)) == []
        template.write_text(
            "schema_version: 1\nname: t\nsampling:\n  intervals_hours: [8]\n"
        )
        problems = check_gallery(str(gallery), str(manifest))
        assert len(problems) == 1 and "drifted" in problems[0]

    def test_unrecorded_template_detected(self, tmp_path):
        from repro.scenario.gallery import check_gallery, write_manifest

        gallery = tmp_path / "scenarios"
        gallery.mkdir()
        (gallery / "a.yaml").write_text("schema_version: 1\nname: a\n")
        manifest = gallery / "TEMPLATES.json"
        write_manifest(str(gallery), str(manifest))
        (gallery / "b.yaml").write_text("schema_version: 1\nname: b\n")
        problems = check_gallery(str(gallery), str(manifest))
        assert len(problems) == 1 and "b.yaml" in problems[0]


class TestCliScenarioCommands:
    def test_scenario_validate_and_hash(self, capsys):
        from repro.cli import main

        path = str(GALLERY_DIR / "ci-small.yaml")
        assert main(["scenario", "validate", path]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "ci-small" in out
        assert main(["scenario", "hash", path]) == 0
        digest = capsys.readouterr().out.split()[0]
        assert digest == load_scenario(path).content_digest()

    def test_scenario_validate_without_files_errors(self, capsys):
        from repro.cli import main

        assert main(["scenario", "validate"]) == 2

    def test_scenario_gallery_checks_committed_manifest(self, capsys):
        from repro.cli import main

        assert main(["scenario", "gallery"]) == 0
        assert "gallery ok" in capsys.readouterr().out

    def test_run_rejects_bad_scenario_with_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.yaml"
        bad.write_text("schema_version: 1\nsampling:\n  intervals_hors: [8]\n")
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "sampling.intervals_hors" in err
        assert "intervals_hours" in err  # the close-match hint

    def test_run_missing_file_exit_2(self, capsys):
        from repro.cli import main

        assert main(["run", "/nonexistent/scenario.yaml"]) == 2


class TestCustomTopology:
    """A non-default cluster/storage travels in every run request."""

    def test_characterization_runs_on_the_engine(self, tmp_path):
        """A custom topology gets the pool and the cache, same results."""
        from repro import run_characterization

        sections = dict(
            cluster={"nodes": 12, "nodes_per_cage": 4},
            storage={"write_bandwidth": "320 MB/s", "ost": 4},
            sampling={"intervals_hours": [72]},
            ocean={"duration": "1 months"},
        )
        inline = parse_scenario(_minimal(name="tiny", **sections))
        pooled = parse_scenario(_minimal(
            name="tiny",
            execution={"workers": 2, "cache": str(tmp_path / "cache")},
            **sections,
        ))

        def run(scenario):
            engine = build_engine(scenario)
            study = run_characterization(
                intervals_hours=scenario.sampling.intervals_hours,
                spec=build_spec(scenario),
                engine=engine,
                cluster=scenario.cluster,
                storage=scenario.storage,
            )
            return study.to_dict(), engine

        expected, _ = run(inline)
        paper, _ = run(parse_scenario(_minimal(
            name="tiny", sampling=sections["sampling"], ocean=sections["ocean"]
        )))
        assert expected != paper
        first, engine = run(pooled)
        assert first == expected
        assert (engine.cache_hits, engine.cache_misses) == (0, 2)
        again, engine = run(pooled)
        assert again == expected
        assert (engine.cache_hits, engine.cache_misses) == (2, 0)

    def test_fault_campaign_runs_on_its_topology(self, capsys):
        from repro.scenario.run import run_scenario

        sections = dict(
            experiment={"kind": "faults"},
            sampling={"intervals_hours": [24]},
            ocean={"duration": "0.3 months"},
            faults={"seed": 3, "mtbf_hours": 0.05, "checkpoint_every": 2},
        )
        reports = []
        for cluster in ({}, {"nodes": 12, "nodes_per_cage": 4}):
            scenario = parse_scenario(_minimal(name="f", cluster=cluster, **sections))
            assert run_scenario(scenario, json_output=True) == 0
            reports.append(json.loads(capsys.readouterr().out)["reports"])
        for paper, small in zip(*reports):
            assert small["baseline"] != paper["baseline"]
            assert small["protected"] != paper["protected"]


class TestByteIdentity:
    """`repro run scenario.yaml` == the equivalent legacy flags, byte for byte."""

    def test_characterize_flags_vs_scenario_file(self, tmp_path, capsys):
        from repro.cli import main

        leg_dir = tmp_path / "legacy"
        scn_dir = tmp_path / "scenario"
        assert main([
            "characterize", "--intervals", "72", "--json",
            "--telemetry", str(leg_dir),
        ]) == 0
        legacy_out = capsys.readouterr().out
        assert main([
            "run", str(GALLERY_DIR / "ci-small.yaml"), "--json",
            "--telemetry", str(scn_dir),
        ]) == 0
        scenario_out = capsys.readouterr().out
        assert scenario_out == legacy_out
        assert (scn_dir / "events.jsonl").read_bytes() == (
            leg_dir / "events.jsonl"
        ).read_bytes()
        assert (scn_dir / "timeline.jsonl").read_bytes() == (
            leg_dir / "timeline.jsonl"
        ).read_bytes()
        for directory in (leg_dir, scn_dir):
            manifest = json.loads((directory / "manifest.json").read_text())
            assert manifest["label"] == "characterize"
            assert manifest["config"]["scenario"]["digest"] == load_scenario(
                str(GALLERY_DIR / "ci-small.yaml")
            ).content_digest()

    def test_emit_scenario_round_trips_faults_invocation(self, tmp_path, capsys):
        from repro.cli import main

        emitted = tmp_path / "faults.yaml"
        argv = [
            "faults", "--months", "0.3", "--interval", "24",
            "--mtbf-hours", "0.05", "--checkpoint-every", "2", "--seed", "3",
        ]
        assert main(argv + ["--emit-scenario", str(emitted)]) == 0
        assert f"wrote {emitted}" in capsys.readouterr().out
        assert main(argv + ["--json"]) == 0
        legacy = capsys.readouterr().out
        assert main(["run", str(emitted), "--json"]) == 0
        assert capsys.readouterr().out == legacy
