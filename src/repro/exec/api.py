"""The unified run API: :class:`RunRequest` in, :class:`RunResult` out.

Every way of executing a pipeline — serial, fanned out over a process pool,
or replayed from the on-disk cache — goes through the same two frozen
dataclasses.  A request is *pure data*: the pipeline is named (not held as
an object), its constructor arguments are a normalized tuple of pairs, and
the spec/faults/checkpoints/topology payloads are the existing frozen
config objects, serialised by :meth:`RunRequest.to_dict`.  That buys three
properties at once:

* **picklability** — requests cross the ``ProcessPoolExecutor`` boundary
  without dragging simulator state along;
* **canonical hashing** — :meth:`RunRequest.cache_key` is a sha256 over the
  sorted-keys JSON of ``(request, code_version)``, the content address of
  the memoized result;
* **provenance** — the same dict lands verbatim in the
  :class:`~repro.obs.manifest.RunManifest`, versioned by the shared
  :data:`~repro.obs.schema.SCHEMA_VERSION`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.errors import ConfigurationError
from repro.obs.schema import SCHEMA_VERSION

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.metrics import Measurement
    from repro.faults.resilience import CheckpointPolicy
    from repro.faults.spec import FaultSpec
    from repro.obs.trace import TraceContext
    from repro.pipelines.base import Pipeline, PipelineSpec
    from repro.scenario.schema import ClusterConfig, StorageConfig

__all__ = [
    "MODE_REAL",
    "MODE_SIMULATED",
    "RunRequest",
    "RunResult",
    "build_pipeline",
    "pipeline_factories",
    "require_registered",
]

MODE_SIMULATED = "simulated"
MODE_REAL = "real"

_MODES = (MODE_SIMULATED, MODE_REAL)

#: The request fields naming the simulated platform's topology.
_TOPOLOGY = ("cluster", "storage")


# ------------------------------------------------------------- serialization


#: Field names of each dataclass type :func:`_plain` has met, in
#: definition order: ``dataclasses.fields`` rebuilds its tuple on every call.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _plain(value: Any) -> Any:
    """``dataclasses.asdict`` of a frozen config, without its deep copy.

    Dataclasses become dicts of their fields in definition order, tuples
    and lists keep their type, and the immutable leaves (str, int, float)
    are shared instead of copied, as is anything else (a dataclass *class*
    included, as ``asdict`` leaves it).
    """
    if isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (tuple, list)):
        return type(value)([_plain(item) for item in value])
    cls = type(value)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        if not is_dataclass(cls):
            return value
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return {name: _plain(getattr(value, name)) for name in names}


def _normalize_args(args: Any) -> tuple:
    """Normalize pipeline constructor arguments to a sorted tuple of pairs."""
    if args is None:
        return ()
    if isinstance(args, Mapping):
        items = args.items()
    else:
        items = tuple(args)
    normalized = []
    for pair in sorted(items):
        key, value = pair
        if not isinstance(key, str):
            raise ConfigurationError(f"pipeline_args keys must be strings: {key!r}")
        normalized.append((key, value))
    return tuple(normalized)


# ------------------------------------------------------------------- request


@dataclass(frozen=True)
class RunRequest:
    """Everything needed to execute one pipeline run, as pure data."""

    #: Canonical pipeline name ("in-situ" / "post-processing" / "in-transit").
    #: Empty means "filled in from the pipeline instance by
    #: :meth:`~repro.pipelines.base.Pipeline.execute`".
    pipeline: str = ""
    #: Pipeline constructor arguments as a normalized tuple of ``(name,
    #: value)`` pairs (a dict is accepted and normalized).
    pipeline_args: tuple = ()
    #: Campaign configuration, cadence and image parameters.
    spec: "PipelineSpec" = None  # type: ignore[assignment]
    #: ``"simulated"`` (campaign-scale DES) or ``"real"`` (laptop-scale).
    mode: str = MODE_SIMULATED
    #: Chaos schedule for the supervised simulated path.
    faults: Optional[FaultSpec] = None
    #: Checkpoint/restart policy for the supervised simulated path.
    checkpoints: Optional[CheckpointPolicy] = None
    #: Deterministic per-task seed material (folded into the cache key and
    #: the worker's RNG seeding).
    seed: int = 0
    #: Real mode only: working directory for the miniature run's files.
    workdir: Optional[str] = None
    #: Telemetry propagation capsule, attached by the engine when a session
    #: is active.  Like ``workdir`` it is transport, not identity: excluded
    #: from :meth:`to_dict`, the cache key and request equality.
    trace: Optional[TraceContext] = field(default=None, compare=False)
    #: Compute-cluster topology of the simulated platform; ``None`` is the
    #: paper's 150-node Caddy cluster.
    cluster: Optional["ClusterConfig"] = None
    #: Storage-rack configuration of the simulated platform; ``None`` is
    #: the paper's Lustre rack.
    storage: Optional["StorageConfig"] = None

    def __post_init__(self) -> None:
        if self.spec is None:
            from repro.pipelines.base import PipelineSpec

            object.__setattr__(self, "spec", PipelineSpec())
        object.__setattr__(self, "pipeline_args", _normalize_args(self.pipeline_args))
        for name in _TOPOLOGY:
            config = getattr(self, name)
            # The paper's testbed is always spelled ``None``, so spelling its
            # defaults out changes neither equality nor the cache key.
            if config is not None and config == type(config)():
                object.__setattr__(self, name, None)
        if self.mode not in _MODES:
            raise ConfigurationError(
                f"unknown run mode {self.mode!r}; expected one of {_MODES}"
            )
        if self.mode == MODE_REAL and (
            self.faults is not None or self.checkpoints is not None
        ):
            raise ConfigurationError(
                "faults/checkpoints are simulated-mode features; real-mode "
                "requests cannot carry them"
            )
        if self.mode == MODE_SIMULATED and self.workdir is not None:
            raise ConfigurationError("workdir is a real-mode parameter")

    # ------------------------------------------------------------- properties

    @property
    def cacheable(self) -> bool:
        """Only simulated runs are deterministic functions of the request."""
        return self.mode == MODE_SIMULATED

    # ----------------------------------------------------------- construction

    def bound_to(self, pipeline: "Pipeline") -> "RunRequest":
        """This request with pipeline identity filled in from an instance."""
        if self.pipeline and self.pipeline != pipeline.name:
            raise ConfigurationError(
                f"request names pipeline {self.pipeline!r} but is executing "
                f"on {pipeline.name!r}"
            )
        return replace(
            self,
            pipeline=pipeline.name,
            pipeline_args=_normalize_args(pipeline.request_args()),
        )

    def with_spec(self, spec: "PipelineSpec") -> "RunRequest":
        """The same request over a different spec."""
        return replace(self, spec=spec)

    # -------------------------------------------------------------- hash/seed

    def to_dict(self) -> dict:
        """JSON-safe representation (manifest / cache meta / ``--json``).

        The ``cluster``/``storage`` keys appear only off the paper's
        testbed, so every request on it keeps a stable cache key.
        """
        out = {
            "schema_version": SCHEMA_VERSION,
            "pipeline": self.pipeline,
            "pipeline_args": [list(pair) for pair in self.pipeline_args],
            "spec": _plain(self.spec),
            "mode": self.mode,
            "faults": None if self.faults is None else self.faults.to_dict(),
            "checkpoints": (
                None if self.checkpoints is None else self.checkpoints.to_dict()
            ),
            "seed": self.seed,
        }
        for name in _TOPOLOGY:
            config = getattr(self, name)
            if config is not None:
                out[name] = _plain(config)
        return out

    @cached_property
    def _canonical_text(self) -> str:
        """The canonical JSON text of :meth:`to_dict`, built on first use.

        The request is frozen, so its text never changes.  Only the text is
        kept: a memoised dict could be mutated by whoever it was handed to.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def cache_key(self, code_version: str) -> str:
        """Content address: sha256 of the canonical (request, code) JSON.

        The text is ``json.dumps({"request": self.to_dict(), "code_version":
        code_version}, sort_keys=True, separators=(",", ":"))``, composed
        from the request's memoised text.
        """
        canonical = (
            f'{{"code_version":{json.dumps(code_version)},'
            f'"request":{self._canonical_text}}}'
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def task_seed(self) -> int:
        """Deterministic per-task RNG seed derived from the request alone."""
        digest = self.cache_key(code_version="task-seed")
        return (int(digest[:16], 16) ^ self.seed) & 0x7FFFFFFF


# -------------------------------------------------------------------- result


@dataclass(frozen=True)
class RunResult:
    """One executed (or replayed) run: the request plus everything measured.

    A *failed* supervised run is still a :class:`RunResult`: ``measurement``
    is ``None`` and ``failure`` carries the structured record (error kind,
    per-attempt elapsed times, quarantine flag) instead of an exception
    unwinding the whole sweep.  Failed results are never cached.
    """

    request: RunRequest
    measurement: Optional["Measurement"]
    #: Whether this result came out of the on-disk cache.
    cache_hit: bool = False
    #: Content address of the run, when caching was in play.
    cache_key: Optional[str] = None
    #: How the run was produced: ``"inline"``, ``"pool"`` or ``"cache"``.
    engine: str = "inline"
    #: Wall-clock seconds this process spent obtaining the result.  *Not*
    #: part of the deterministic payload — excluded from :meth:`to_dict`'s
    #: ``identity`` sub-dict and from bit-identity comparisons.
    wall_seconds: float = 0.0
    #: Injection tally of a faulted simulated run (``None`` otherwise).
    fault_summary: Optional[dict] = None
    #: Crash recoveries performed during the run.
    recoveries: int = 0
    #: Worker shard payload (events + metric snapshot) carried back across
    #: the pool boundary; the engine merges and clears it.  Transport, not
    #: identity — excluded from :meth:`identity_dict` and :meth:`to_dict`.
    telemetry: Optional[dict] = field(default=None, compare=False)
    #: Structured failure record of a task that exhausted supervision
    #: (``None`` for a successful run).  JSON-safe: ``{"kind", "error",
    #: "attempts": [...], "quarantined"}`` — see :mod:`repro.exec.engine`.
    #: Excluded from :meth:`identity_dict`: attempt timings are wall-clock
    #: diagnostics.
    failure: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """True when the run produced a measurement (no failure record)."""
        return self.failure is None

    def identity_dict(self) -> dict:
        """The deterministic payload used for bit-identity comparisons."""
        return {
            "request": self.request.to_dict(),
            "measurement": (
                None if self.measurement is None else self.measurement.to_dict()
            ),
            "fault_summary": self.fault_summary,
            "recoveries": self.recoveries,
        }

    def to_dict(self) -> dict:
        """JSON-safe representation (manifest / ``--json`` output)."""
        out = {"schema_version": SCHEMA_VERSION}
        out.update(self.identity_dict())
        out.update(
            {
                "cache": {"hit": self.cache_hit, "key": self.cache_key},
                "engine": self.engine,
                "wall_seconds": self.wall_seconds,
                "failure": self.failure,
            }
        )
        return out


# ------------------------------------------------------------------ registry


#: Pipeline name -> (module, class) the engine builds for a request naming
#: it.  Building imports only the named pipeline's module.
_PIPELINES = {
    "in-situ": ("repro.pipelines.insitu", "InSituPipeline"),
    "post-processing": ("repro.pipelines.postprocessing", "PostProcessingPipeline"),
    "in-transit": ("repro.pipelines.intransit", "InTransitPipeline"),
}


def _registered(name: str) -> Optional[type]:
    """The class registered under pipeline ``name``, or None."""
    entry = _PIPELINES.get(name)
    if entry is None:
        return None
    module, attr = entry
    __import__(module)
    return getattr(sys.modules[module], attr)


def pipeline_factories() -> dict:
    """Name → class for every pipeline the engine can instantiate."""
    return {name: _registered(name) for name in _PIPELINES}


def require_registered(pipeline: "Pipeline") -> None:
    """Reject a pipeline the engine would not rebuild as itself.

    Requests name their pipeline, and the engine rebuilds the class
    registered under that name (:func:`build_pipeline`), so a subclass or an
    unregistered pipeline would silently run as something else.  Such a
    pipeline can still run through its own
    :meth:`~repro.pipelines.base.Pipeline.execute`.
    """
    registered = _registered(pipeline.name)
    if type(pipeline) is not registered:
        raise ConfigurationError(
            f"{type(pipeline).__qualname__} cannot run on the execution "
            f"engine: it rebuilds pipeline {pipeline.name!r} from its name, "
            f"which registers {getattr(registered, '__qualname__', 'nothing')}"
        )


def build_pipeline(request: RunRequest) -> "Pipeline":
    """Instantiate the pipeline a request names (with its stored args)."""
    factory = _registered(request.pipeline)
    if factory is None:
        raise ConfigurationError(
            f"unknown pipeline {request.pipeline!r}; expected one of "
            f"{sorted(_PIPELINES)}"
        )
    return factory(**dict(request.pipeline_args))
