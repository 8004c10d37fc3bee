"""Declarative scenarios: versioned schema, loader, builders and runner.

One :class:`Scenario` describes a whole experiment — cluster topology,
storage rack, ocean campaign, pipeline grid, sampling policy, fault
campaign, power cap, execution engine and telemetry — as frozen, validated
pure data.  Scenarios serialize canonically (``to_dict`` resolves every
unit and default) and hash stably (``content_digest`` over the identity
sections), so caches, sweep journals and run manifests all key on the
exact configuration that produced an artifact.

Entry points:

* :func:`load_scenario` — YAML/JSON file → validated :class:`Scenario`
  (with ``--set`` override support);
* :func:`run_scenario` — execute one, byte-identical to the legacy flags;
* :func:`scenario_from_args` — the legacy CLI's argparse namespace →
  the equivalent scenario (how byte-identity holds by construction);
* :mod:`repro.scenario.gallery` — validate the shipped template gallery
  and gate on content-digest drift.
"""

from repro.scenario.build import (
    build_engine,
    build_pipelines,
    build_spec,
    scenario_from_args,
)
from repro.scenario.loader import (
    apply_overrides,
    load_scenario,
    parse_bandwidth,
    parse_bytes,
    parse_duration,
    parse_scenario,
    scenario_text,
    write_scenario,
)
from repro.scenario.run import run_scenario
from repro.scenario.schema import (
    SCENARIO_SCHEMA_VERSION,
    ClusterConfig,
    ExecutionConfig,
    ExperimentConfig,
    FaultsCampaignConfig,
    ImagesConfig,
    OceanConfig,
    PipelineConfig,
    PowerConfig,
    SamplingConfig,
    Scenario,
    ScenarioError,
    StorageConfig,
    TelemetryConfig,
)

__all__ = [
    "SCENARIO_SCHEMA_VERSION",
    "Scenario",
    "ScenarioError",
    "ClusterConfig",
    "ExecutionConfig",
    "ExperimentConfig",
    "FaultsCampaignConfig",
    "ImagesConfig",
    "OceanConfig",
    "PipelineConfig",
    "PowerConfig",
    "SamplingConfig",
    "StorageConfig",
    "TelemetryConfig",
    "apply_overrides",
    "build_engine",
    "build_pipelines",
    "build_spec",
    "load_scenario",
    "parse_bandwidth",
    "parse_bytes",
    "parse_duration",
    "parse_scenario",
    "run_scenario",
    "scenario_from_args",
    "scenario_text",
    "write_scenario",
]
