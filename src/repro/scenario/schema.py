"""The versioned, frozen scenario schema.

A :class:`Scenario` is the declarative description of one experiment —
every knob the CLI exposes, as pure data: cluster topology, storage rack,
ocean-model configuration, pipeline choice, sampling policy, fault
campaign, power cap, and the supervision/telemetry options.  Scenarios are

* **versioned** — ``schema_version`` is checked on parse, so a file written
  against a future schema fails with a structured error instead of
  misbehaving silently;
* **frozen** — every section is an immutable dataclass, safe to share and
  to use as a dict key;
* **canonically serializable** — :meth:`Scenario.to_dict` resolves every
  quantity to its canonical unit (seconds, bytes, bytes/s) and every
  default to its value, so two files that *mean* the same experiment
  serialize identically;
* **content-hashable** — :meth:`Scenario.content_digest` is the sha256 of
  the canonical JSON of the *identity* sections (experiment, sampling,
  cluster, storage, ocean, pipelines, images, faults, power).  Transport
  concerns (``name``, ``description``, ``execution``, ``telemetry``) are
  excluded, so renaming a template or moving its cache directory never
  changes its digest.  The digest namespaces the
  :class:`~repro.exec.cache.DiskCache` code version and labels the sweep
  journal, so any artifact traces back to its exact configuration.

Validation failures raise :class:`ScenarioError` — a
:class:`~repro.errors.ConfigurationError` carrying the dotted path of the
offending key, what was expected, and (where possible) a hint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.paper import (
    CADDY_NODES,
    GRID_RESOLUTION_KM,
    SAMPLING_INTERVALS_HOURS,
    STORAGE_CAPACITY_BYTES,
    STORAGE_BANDWIDTH_BYTES_PER_S,
    TIMESTEP_SECONDS,
    WHATIF_YEARS,
)
from repro.pipelines.intransit import DEFAULT_STAGING_NODES
from repro.power.meter import CageMonitor
from repro.units import MB, MONTH

__all__ = [
    "SCENARIO_SCHEMA_VERSION",
    "EXPERIMENT_KINDS",
    "PIPELINE_KINDS",
    "ScenarioError",
    "ExperimentConfig",
    "SamplingConfig",
    "ClusterConfig",
    "StorageConfig",
    "OceanConfig",
    "PipelineConfig",
    "ImagesConfig",
    "FaultsCampaignConfig",
    "PowerConfig",
    "ExecutionConfig",
    "TelemetryConfig",
    "Scenario",
]

#: The scenario schema version this build reads and writes.
SCENARIO_SCHEMA_VERSION = 1

#: Experiment kinds ``repro run`` can dispatch.
EXPERIMENT_KINDS = ("characterize", "whatif", "faults")

#: Pipeline kinds a scenario may select.
PIPELINE_KINDS = ("in-situ", "post-processing", "in-transit")

#: Cadences the Eq. 5 calibration trains on — a what-if scenario's grid
#: must cover them (see :data:`repro.core.characterization.TRAINING_CONFIGS`).
_CALIBRATION_INTERVALS = frozenset(SAMPLING_INTERVALS_HOURS)


class ScenarioError(ConfigurationError):
    """A structured scenario validation failure: path + message + hint."""

    def __init__(self, path: str, message: str, hint: Optional[str] = None) -> None:
        self.path = path
        self.hint = hint
        where = f"scenario.{path}" if path else "scenario"
        full = f"{where}: {message}"
        if hint:
            full += f" (hint: {hint})"
        super().__init__(full)


def _require(condition: bool, path: str, message: str, hint: Optional[str] = None) -> None:
    if not condition:
        raise ScenarioError(path, message, hint)


def _canonical_numbers(value):
    """Collapse integral floats to ints, recursively, for digesting."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        return {key: _canonical_numbers(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_canonical_numbers(item) for item in value]
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Which experiment to run, plus the what-if-only knobs."""

    kind: str = "characterize"
    #: What-if only: campaign length in simulated years.
    years: float = WHATIF_YEARS
    #: What-if only: the cadence axis of the Figs. 9/10 sweeps.
    sweep_intervals_hours: Tuple[float, ...] = (1.0, 8.0, 24.0, 72.0, 192.0)
    #: What-if only: also print the failure-aware sweep at this node MTBF.
    mtbf_hours: Optional[float] = None
    #: What-if only: checkpoint write cost for the failure-aware sweep.
    checkpoint_write_seconds: float = 60.0
    #: What-if only: recovery cost for the failure-aware sweep.
    restart_seconds: float = 30.0

    def __post_init__(self) -> None:
        _require(
            self.kind in EXPERIMENT_KINDS,
            "experiment.kind",
            f"unknown experiment kind {self.kind!r}",
            f"expected one of {', '.join(EXPERIMENT_KINDS)}",
        )
        _require(self.years > 0, "experiment.years", f"must be positive, got {self.years}")
        _require(
            bool(self.sweep_intervals_hours),
            "experiment.sweep_intervals_hours",
            "must list at least one cadence",
        )

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "whatif":
            out.update(
                {
                    "years": self.years,
                    "sweep_intervals_hours": list(self.sweep_intervals_hours),
                    "mtbf_hours": self.mtbf_hours,
                    "checkpoint_write_seconds": self.checkpoint_write_seconds,
                    "restart_seconds": self.restart_seconds,
                }
            )
        return out


@dataclass(frozen=True)
class SamplingConfig:
    """The characterization grid's sampling cadences (simulated hours)."""

    intervals_hours: Tuple[float, ...] = SAMPLING_INTERVALS_HOURS

    def __post_init__(self) -> None:
        _require(
            bool(self.intervals_hours),
            "sampling.intervals_hours",
            "must list at least one cadence",
        )
        for h in self.intervals_hours:
            _require(
                h > 0,
                "sampling.intervals_hours",
                f"cadences must be positive simulated hours, got {h}",
            )

    def to_dict(self) -> dict:
        return {"intervals_hours": list(self.intervals_hours)}


@dataclass(frozen=True)
class ClusterConfig:
    """Compute-cluster topology (defaults: the paper's 150-node Caddy)."""

    name: str = "caddy"
    nodes: int = CADDY_NODES
    cores_per_socket: int = 8
    nodes_per_cage: int = 10

    def __post_init__(self) -> None:
        _require(self.nodes >= 1, "cluster.nodes", f"need >= 1 node, got {self.nodes}")
        _require(
            self.cores_per_socket >= 1,
            "cluster.cores_per_socket",
            f"need >= 1 core per socket, got {self.cores_per_socket}",
        )
        _require(
            self.nodes_per_cage >= 1,
            "cluster.nodes_per_cage",
            f"need >= 1 node per cage, got {self.nodes_per_cage}",
        )
        _require(
            self.nodes_per_cage <= CageMonitor.NODES_PER_CAGE,
            "cluster.nodes_per_cage",
            f"a cage monitor meters at most {CageMonitor.NODES_PER_CAGE} nodes, "
            f"got {self.nodes_per_cage}",
        )
        _require(bool(self.name), "cluster.name", "must be non-empty")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "nodes": self.nodes,
            "cores_per_socket": self.cores_per_socket,
            "nodes_per_cage": self.nodes_per_cage,
        }


@dataclass(frozen=True)
class StorageConfig:
    """Storage-rack configuration (defaults: the paper's Lustre rack).

    Quantities are stored in canonical units (bytes, bytes/s, seconds);
    the loader also accepts human-readable strings (``"7.7 TB"``,
    ``"160 MB/s"``, ``"1 ms"``).
    """

    capacity_bytes: float = STORAGE_CAPACITY_BYTES
    write_bandwidth: float = STORAGE_BANDWIDTH_BYTES_PER_S  # repro-unit: bytes_per_s
    read_bandwidth: float = 1_000 * MB  # repro-unit: bytes_per_s
    mds: int = 2
    ost: int = 8
    metadata_latency_seconds: float = 1e-3
    #: PIO aggregator count on the compute side of the I/O path.
    io_aggregators: int = 8

    def __post_init__(self) -> None:
        _require(
            self.capacity_bytes > 0,
            "storage.capacity",
            f"must be positive bytes, got {self.capacity_bytes}",
        )
        _require(
            self.write_bandwidth > 0 and self.read_bandwidth > 0,
            "storage.write_bandwidth",
            "bandwidths must be positive",
        )
        _require(self.mds >= 1, "storage.mds", f"need >= 1 MDS, got {self.mds}")
        _require(self.ost >= 1, "storage.ost", f"need >= 1 OST, got {self.ost}")
        _require(
            self.metadata_latency_seconds >= 0,
            "storage.metadata_latency",
            f"must be non-negative seconds, got {self.metadata_latency_seconds}",
        )
        _require(
            self.io_aggregators >= 1,
            "storage.io_aggregators",
            f"need >= 1 aggregator, got {self.io_aggregators}",
        )

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity_bytes,
            "write_bandwidth": self.write_bandwidth,
            "read_bandwidth": self.read_bandwidth,
            "mds": self.mds,
            "ost": self.ost,
            "metadata_latency": self.metadata_latency_seconds,
            "io_aggregators": self.io_aggregators,
        }


@dataclass(frozen=True)
class OceanConfig:
    """MPAS-Ocean campaign configuration (mirrors ``MPASOceanConfig``)."""

    resolution_km: float = GRID_RESOLUTION_KM
    vertical_levels: int = 60
    timestep_seconds: float = TIMESTEP_SECONDS
    duration_seconds: float = 6 * MONTH
    bytes_per_value: int = 8

    def __post_init__(self) -> None:
        _require(
            self.resolution_km > 0,
            "ocean.resolution_km",
            f"must be positive, got {self.resolution_km}",
        )
        _require(
            self.vertical_levels >= 1,
            "ocean.vertical_levels",
            f"need >= 1 level, got {self.vertical_levels}",
        )
        _require(
            self.timestep_seconds > 0,
            "ocean.timestep",
            f"must be positive seconds, got {self.timestep_seconds}",
        )
        _require(
            self.duration_seconds > 0,
            "ocean.duration",
            f"must be positive seconds, got {self.duration_seconds}",
        )
        _require(
            self.bytes_per_value in (4, 8),
            "ocean.bytes_per_value",
            f"expected 4 or 8, got {self.bytes_per_value}",
        )

    def to_dict(self) -> dict:
        return {
            "resolution_km": self.resolution_km,
            "vertical_levels": self.vertical_levels,
            "timestep": self.timestep_seconds,
            "duration": self.duration_seconds,
            "bytes_per_value": self.bytes_per_value,
        }


@dataclass(frozen=True)
class PipelineConfig:
    """One pipeline selection in the grid."""

    kind: str = "in-situ"
    #: In-transit only: staging-partition size (``None`` = builder default).
    staging_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        _require(
            self.kind in PIPELINE_KINDS,
            "pipelines.kind",
            f"unknown pipeline kind {self.kind!r}",
            f"expected one of {', '.join(PIPELINE_KINDS)}",
        )
        if self.staging_nodes is not None:
            _require(
                self.kind == "in-transit",
                "pipelines.staging_nodes",
                f"only the in-transit pipeline stages; {self.kind!r} does not",
            )
            _require(
                self.staging_nodes >= 1,
                "pipelines.staging_nodes",
                f"need >= 1 staging node, got {self.staging_nodes}",
            )

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.staging_nodes is not None:
            out["staging_nodes"] = self.staging_nodes
        return out


@dataclass(frozen=True)
class ImagesConfig:
    """Output image parameters (mirrors ``ImageSpec``; default cameras)."""

    width: int = 1920
    height: int = 1080

    def __post_init__(self) -> None:
        _require(
            self.width >= 8 and self.height >= 8,
            "images.width",
            f"image too small: {self.width}x{self.height}",
        )

    def to_dict(self) -> dict:
        return {"width": self.width, "height": self.height}


@dataclass(frozen=True)
class FaultsCampaignConfig:
    """The seeded fault campaign (``experiment.kind: faults`` only)."""

    seed: int = 57
    mtbf_hours: Optional[float] = 6.0
    checkpoint_every: int = 8
    restart_penalty_seconds: float = 30.0
    brownout_rate_per_hour: float = 0.0
    io_error_rate_per_hour: float = 0.0
    include_unprotected: bool = True

    def __post_init__(self) -> None:
        if self.mtbf_hours is not None:
            _require(
                self.mtbf_hours > 0,
                "faults.mtbf_hours",
                f"must be positive hours, got {self.mtbf_hours}",
            )
        _require(
            self.checkpoint_every >= 1,
            "faults.checkpoint_every",
            f"checkpoint cadence must be >= 1, got {self.checkpoint_every}",
        )
        _require(
            self.restart_penalty_seconds >= 0,
            "faults.restart_penalty",
            f"must be non-negative seconds, got {self.restart_penalty_seconds}",
        )
        for name, rate in (
            ("brownout_rate_per_hour", self.brownout_rate_per_hour),
            ("io_error_rate_per_hour", self.io_error_rate_per_hour),
        ):
            _require(
                rate >= 0, f"faults.{name}", f"must be non-negative, got {rate}"
            )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "mtbf_hours": self.mtbf_hours,
            "checkpoint_every": self.checkpoint_every,
            "restart_penalty": self.restart_penalty_seconds,
            "brownout_rate_per_hour": self.brownout_rate_per_hour,
            "io_error_rate_per_hour": self.io_error_rate_per_hour,
            "include_unprotected": self.include_unprotected,
        }


@dataclass(frozen=True)
class PowerConfig:
    """Power-watchdog configuration."""

    cap_watts: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cap_watts is not None:
            _require(
                self.cap_watts > 0,
                "power.cap_watts",
                f"must be positive watts, got {self.cap_watts}",
            )

    def to_dict(self) -> dict:
        return {"cap_watts": self.cap_watts}


@dataclass(frozen=True)
class ExecutionConfig:
    """Engine/supervision options (mirrors the ``--workers`` flag family)."""

    workers: Optional[int] = None
    cache: Optional[str] = None
    deadline_seconds: Optional[float] = None
    task_retries: Optional[int] = None
    max_worker_crashes: Optional[int] = None
    fail_policy: Optional[str] = None
    journal: Optional[str] = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.workers is not None:
            _require(
                self.workers >= 1,
                "execution.workers",
                f"need >= 1 worker, got {self.workers}",
            )
        if self.fail_policy is not None:
            _require(
                self.fail_policy in ("abort", "skip", "serial-fallback"),
                "execution.fail_policy",
                f"unknown fail policy {self.fail_policy!r}",
                "expected abort, skip or serial-fallback",
            )

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "cache": self.cache,
            "deadline": self.deadline_seconds,
            "task_retries": self.task_retries,
            "max_worker_crashes": self.max_worker_crashes,
            "fail_policy": self.fail_policy,
            "journal": self.journal,
            "resume": self.resume,
        }


@dataclass(frozen=True)
class TelemetryConfig:
    """Where (and whether) to record spans/metrics/timeline."""

    directory: Optional[str] = None
    timeline: bool = True
    interval_seconds: Optional[float] = None
    #: Run-registry root to ingest the finished run into (needs a directory).
    store: Optional[str] = None

    def __post_init__(self) -> None:
        if self.interval_seconds is not None:
            _require(
                self.interval_seconds > 0,
                "telemetry.timeline_interval",
                f"must be positive seconds, got {self.interval_seconds}",
            )
        if self.store is not None:
            _require(
                self.directory is not None,
                "telemetry.store",
                "needs telemetry.directory: only recorded runs can be "
                "ingested into the run registry",
            )

    def to_dict(self) -> dict:
        out = {
            "directory": self.directory,
            "timeline": self.timeline,
            "timeline_interval": self.interval_seconds,
        }
        # Emitted only when set: scenarios (and the manifests embedding
        # them) written before the run registry existed stay byte-identical.
        if self.store is not None:
            out["store"] = self.store
        return out


#: Scenario sections that are part of run identity (digested), in order.
_IDENTITY_SECTIONS = (
    "experiment",
    "sampling",
    "cluster",
    "storage",
    "ocean",
    "pipelines",
    "images",
    "faults",
    "power",
)


@dataclass(frozen=True)
class Scenario:
    """One fully-resolved, validated experiment description."""

    name: str
    description: str = ""
    schema_version: int = SCENARIO_SCHEMA_VERSION
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    storage: StorageConfig = field(default_factory=StorageConfig)
    ocean: OceanConfig = field(default_factory=OceanConfig)
    #: ``None`` means the experiment's default pipeline pair.
    pipelines: Optional[Tuple[PipelineConfig, ...]] = None
    images: ImagesConfig = field(default_factory=ImagesConfig)
    #: Present iff ``experiment.kind == "faults"``.
    faults: Optional[FaultsCampaignConfig] = None
    power: PowerConfig = field(default_factory=PowerConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    def __post_init__(self) -> None:
        _require(bool(self.name), "name", "must be non-empty")
        _require(
            self.schema_version == SCENARIO_SCHEMA_VERSION,
            "schema_version",
            f"unsupported scenario schema version {self.schema_version!r}",
            f"this build reads version {SCENARIO_SCHEMA_VERSION}",
        )
        kind = self.experiment.kind
        if kind == "faults":
            _require(
                len(self.sampling.intervals_hours) == 1,
                "sampling.intervals_hours",
                "a fault campaign runs one cadence; give exactly one interval",
            )
            if self.faults is None:
                object.__setattr__(self, "faults", FaultsCampaignConfig())
        else:
            _require(
                self.faults is None,
                "faults",
                f"a fault campaign section needs experiment.kind: faults "
                f"(this scenario is {kind!r})",
            )
        if kind == "whatif":
            _require(
                self.pipelines is None,
                "pipelines",
                "the what-if analyzer calibrates on the in-situ / "
                "post-processing pair; drop the pipelines section",
            )
            missing = _CALIBRATION_INTERVALS - set(self.sampling.intervals_hours)
            _require(
                not missing,
                "sampling.intervals_hours",
                "the what-if calibration grid must cover the training "
                f"cadences; missing {sorted(missing)}",
                f"include {sorted(_CALIBRATION_INTERVALS)}",
            )
        if self.pipelines is not None:
            _require(
                bool(self.pipelines),
                "pipelines",
                "must list at least one pipeline",
            )
            kinds = [p.kind for p in self.pipelines]
            _require(
                len(kinds) == len(set(kinds)),
                "pipelines",
                "each pipeline kind may appear once",
            )
            for i, pipeline in enumerate(self.pipelines):
                if pipeline.kind == "in-transit":
                    staging = pipeline.staging_nodes
                    if staging is None:
                        staging = DEFAULT_STAGING_NODES
                    _require(
                        staging < self.cluster.nodes,
                        f"pipelines.{i}.staging_nodes",
                        f"{staging} staging nodes leave no simulation nodes on a "
                        f"{self.cluster.nodes}-node cluster",
                        f"set staging_nodes below {self.cluster.nodes} "
                        f"(the default is {DEFAULT_STAGING_NODES})",
                    )
            if kind == "characterize":
                for required in ("in-situ", "post-processing"):
                    _require(
                        required in kinds,
                        "pipelines",
                        f"the characterization comparisons need the "
                        f"{required!r} pipeline in the grid",
                    )
        if self.execution.resume:
            _require(
                self.execution.journal is not None
                and self.execution.cache is not None,
                "execution.resume",
                "resume needs both execution.journal and execution.cache",
            )

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Fully-resolved canonical representation (defaults materialized)."""
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "description": self.description,
            "experiment": self.experiment.to_dict(),
            "sampling": self.sampling.to_dict(),
            "cluster": self.cluster.to_dict(),
            "storage": self.storage.to_dict(),
            "ocean": self.ocean.to_dict(),
            "pipelines": (
                None
                if self.pipelines is None
                else [p.to_dict() for p in self.pipelines]
            ),
            "images": self.images.to_dict(),
            "faults": None if self.faults is None else self.faults.to_dict(),
            "power": self.power.to_dict(),
            "execution": self.execution.to_dict(),
            "telemetry": self.telemetry.to_dict(),
        }

    def identity_dict(self) -> dict:
        """The digested subset of :meth:`to_dict` — run identity only."""
        full = self.to_dict()
        return {
            "schema_version": full["schema_version"],
            **{section: full[section] for section in _IDENTITY_SECTIONS},
        }

    def canonical_json(self) -> str:
        """Canonical JSON of the identity sections (sorted keys, no spaces).

        Integral floats are digested as ints so the hash is invariant to
        YAML's int/float ambiguity (``160e6`` vs ``160000000``).
        """
        return json.dumps(
            _canonical_numbers(self.identity_dict()),
            sort_keys=True,
            separators=(",", ":"),
        )

    def content_digest(self) -> str:
        """sha256 hex digest of :meth:`canonical_json` — the scenario's id."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
