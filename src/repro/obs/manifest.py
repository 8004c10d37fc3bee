"""Per-run manifests: what ran, how long each phase took, and where.

A :class:`RunManifest` is the durable record a telemetry session leaves next
to its benchmark results: the exact configuration, per-phase duration
totals, a full metric snapshot, and provenance (git commit, library
version, python/platform, seeds found in the config).  It is plain JSON so
any downstream tool — or ``repro obs summarize`` — can round-trip it.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.schema import SCHEMA_VERSION

__all__ = [
    "EVENTS_FILENAME",
    "MANIFEST_FILENAME",
    "PROM_FILENAME",
    "RunManifest",
    "TIMELINE_FILENAME",
    "collect_provenance",
    "git_commit",
]

#: File names a session writes inside its telemetry directory.
MANIFEST_FILENAME = "manifest.json"
EVENTS_FILENAME = "events.jsonl"
PROM_FILENAME = "metrics.prom"
#: Sampled time series (present only when timeline sampling is enabled).
TIMELINE_FILENAME = "timeline.jsonl"


@functools.lru_cache(maxsize=None)
def git_commit() -> Optional[str]:
    """The checkout's ``git rev-parse HEAD``, or None outside a git checkout.

    Looked up once per process: the commit cannot change under a running
    program, and each lookup starts a subprocess.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def collect_provenance(config: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Best-effort provenance: versions, platform, git commit, seeds.

    Any key of ``config`` containing ``seed`` is copied through, so run
    manifests record the RNG state that produced their results.
    """
    from repro import __version__

    out: Dict[str, Any] = {
        "repro_version": __version__,
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "git_commit": git_commit(),
    }
    seeds = {
        k: v for k, v in (config or {}).items() if "seed" in k.lower()
    }
    if seeds:
        out["seeds"] = seeds
    return out


@dataclass
class RunManifest:
    """Everything recorded about one telemetry session."""

    label: str
    run_id: str
    created_unix: float
    argv: List[str] = field(default_factory=list)
    config: Dict[str, Any] = field(default_factory=dict)
    #: Per-phase duration totals in seconds (``{"simulation": 1210.4, ...}``).
    durations: Dict[str, float] = field(default_factory=dict)
    #: Metric snapshot (see :meth:`MetricsRegistry.snapshot`).
    metrics: Dict[str, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    n_events: int = 0
    events_file: str = EVENTS_FILENAME
    #: Timeline samples emitted (0 when sampling was off — no timeline file).
    n_timeline: int = 0
    schema_version: int = SCHEMA_VERSION
    #: Deterministic trace id shared by every record (and worker shard) of
    #: the session; ``None`` only for manifests predating tracing.
    trace_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """The manifest as a JSON-safe dict."""
        return {
            "schema_version": self.schema_version,
            "label": self.label,
            "run_id": self.run_id,
            "created_unix": self.created_unix,
            "argv": list(self.argv),
            "config": dict(self.config),
            "durations": dict(self.durations),
            "metrics": self.metrics,
            "provenance": dict(self.provenance),
            "n_events": self.n_events,
            "events_file": self.events_file,
            "n_timeline": self.n_timeline,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output."""
        try:
            return cls(
                label=data["label"],
                run_id=data["run_id"],
                created_unix=float(data["created_unix"]),
                argv=list(data.get("argv", [])),
                config=dict(data.get("config", {})),
                durations={k: float(v) for k, v in data.get("durations", {}).items()},
                metrics=dict(data.get("metrics", {})),
                provenance=dict(data.get("provenance", {})),
                n_events=int(data.get("n_events", 0)),
                events_file=data.get("events_file", EVENTS_FILENAME),
                n_timeline=int(data.get("n_timeline", 0)),
                schema_version=int(data.get("schema_version", SCHEMA_VERSION)),
                trace_id=data.get("trace_id"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed run manifest: {exc}") from exc

    def write(self, directory: str) -> str:
        """Write ``manifest.json`` into ``directory`` atomically.

        Write-to-temp + ``os.replace``: a crash mid-write leaves the old
        manifest (or none), never a torn one that breaks every later
        ``summarize`` / ``report`` over the directory.
        """
        from repro.atomicio import atomic_write_json

        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, MANIFEST_FILENAME)
        atomic_write_json(path, self.to_dict())
        return path

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        """Load from a manifest file or a directory containing one."""
        if os.path.isdir(path):
            path = os.path.join(path, MANIFEST_FILENAME)
        if not os.path.exists(path):
            raise ConfigurationError(f"no run manifest at {path!r}")
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
