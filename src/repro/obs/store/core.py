"""The content-addressed run registry: ingest + durable layout.

A :class:`RunStore` turns ad-hoc telemetry directories into a queryable,
append-only archive under one root (``.repro/store`` by default)::

    .repro/store/
      index.jsonl            # one RunRow per ingested run, append-only
      segments/<key>.jsonl   # that run's normalized records, write-once
      quarantine/            # segments that failed to parse, moved aside

Ingestion parses a run's ``manifest.json`` + ``events.jsonl`` +
``timeline.jsonl`` (plus any ``BENCH_exec.json`` beside them) into flat,
self-describing *records* — spans, metric samples with p50/p95/p99
columns, timeline points, watchdog alerts, bench rows — and addresses the
whole batch by content: the **run key** is the sha256 of the normalized
records plus the run's identity (trace id, label, scenario digest).  Two
seeded runs that produced byte-identical telemetry therefore collapse to
one key, and re-ingesting any run is a no-op — the registry is idempotent
by construction, never deduplicated by mtime or path.

Durability follows :mod:`repro.atomicio`: segments land whole via
write-to-temp + ``os.replace`` *before* their index row is appended as a
single ``O_APPEND`` write, so a crash can at worst leave an unreferenced
segment or a torn final index line — both tolerated on read.  A segment
that later fails to parse mid-file (damage, not truncation) is moved to
``quarantine/`` and its run skipped, instead of poisoning every query.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.atomicio import append_jsonl_line, atomic_write_text
from repro.errors import ConfigurationError
from repro.obs.exporters import read_jsonl
from repro.obs.manifest import (
    EVENTS_FILENAME,
    MANIFEST_FILENAME,
    TIMELINE_FILENAME,
    RunManifest,
)
from repro.obs.registry import bucket_quantile

__all__ = [
    "BENCH_FILENAME",
    "DEFAULT_STORE_DIR",
    "INDEX_FILENAME",
    "IngestResult",
    "QUARANTINE_DIRNAME",
    "RECORD_KINDS",
    "RunRow",
    "RunStore",
    "SEGMENTS_DIRNAME",
    "STORE_SCHEMA_VERSION",
]

#: Default registry root, relative to the working directory.
DEFAULT_STORE_DIR = os.path.join(".repro", "store")

#: Bump when the normalized record layout changes incompatibly.
STORE_SCHEMA_VERSION = 1

INDEX_FILENAME = "index.jsonl"
SEGMENTS_DIRNAME = "segments"
QUARANTINE_DIRNAME = "quarantine"

#: A bench report ingested standalone or found beside a run's telemetry.
BENCH_FILENAME = "BENCH_exec.json"

#: Normalized record kinds a segment may contain.
RECORD_KINDS = ("span", "metric", "sample", "alert", "event", "bench")

#: Quantile columns stamped onto every normalized histogram record.
_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

_SCALARS = (bool, int, float, str)


@dataclass(frozen=True)
class RunRow:
    """One ingested run as the index records it."""

    run_key: str
    label: str
    trace_id: Optional[str] = None
    scenario_name: Optional[str] = None
    scenario_digest: Optional[str] = None
    created_unix: float = 0.0
    git_commit: Optional[str] = None
    repro_version: Optional[str] = None
    counts: Dict[str, int] = field(default_factory=dict)
    n_rows: int = 0
    segment: str = ""
    source: str = ""
    schema_version: int = STORE_SCHEMA_VERSION
    #: Ingest order within the store (assigned on load, not persisted).
    seq: int = 0

    def to_dict(self) -> dict:
        """The persisted index row (``seq`` is derived, not stored)."""
        return {
            "schema_version": self.schema_version,
            "run_key": self.run_key,
            "label": self.label,
            "trace_id": self.trace_id,
            "scenario_name": self.scenario_name,
            "scenario_digest": self.scenario_digest,
            "created_unix": self.created_unix,
            "git_commit": self.git_commit,
            "repro_version": self.repro_version,
            "counts": dict(self.counts),
            "n_rows": self.n_rows,
            "segment": self.segment,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: dict, seq: int = 0) -> "RunRow":
        """Rebuild an index row; raises on a structurally broken one."""
        try:
            return cls(
                run_key=str(data["run_key"]),
                label=str(data.get("label", "")),
                trace_id=data.get("trace_id"),
                scenario_name=data.get("scenario_name"),
                scenario_digest=data.get("scenario_digest"),
                created_unix=float(data.get("created_unix", 0.0)),
                git_commit=data.get("git_commit"),
                repro_version=data.get("repro_version"),
                counts={
                    str(k): int(v) for k, v in (data.get("counts") or {}).items()
                },
                n_rows=int(data.get("n_rows", 0)),
                segment=str(data.get("segment", "")),
                source=str(data.get("source", "")),
                schema_version=int(data.get("schema_version", STORE_SCHEMA_VERSION)),
                seq=seq,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed store index row: {exc}") from exc


@dataclass(frozen=True)
class IngestResult:
    """What one :meth:`RunStore.ingest` call did."""

    run_key: str
    created: bool
    n_rows: int
    counts: Dict[str, int]

    def describe(self) -> str:
        """One human-readable line."""
        verb = "ingested" if self.created else "already present"
        per_kind = " ".join(
            f"{kind}={self.counts[kind]}" for kind in sorted(self.counts)
        )
        return f"{verb} {self.run_key[:12]} ({self.n_rows} record(s): {per_kind})"


# ------------------------------------------------------------- normalization


def _scalar_fields(fields: dict) -> dict:
    """Only the JSON-scalar fields (arrays etc. stay in the raw stream)."""
    return {
        str(k): v for k, v in fields.items() if isinstance(v, _SCALARS)
    }


def _normalize_events(events: Sequence[dict]) -> List[dict]:
    rows: List[dict] = []
    for record in events:
        kind = record.get("type")
        if kind in ("span", "phase"):
            row = {
                "kind": "span",
                "name": str(record.get("name", "")),
                "domain": str(record.get("domain", "")),
                "t0": float(record.get("t0", 0.0)),
                "t1": float(record.get("t1", 0.0)),
                "dur": float(record.get("dur", 0.0)),
            }
            attrs = _scalar_fields(record.get("attrs") or {})
            if attrs:
                row["attrs"] = attrs
            rows.append(row)
        elif kind == "event" and record.get("name") == "obs.alert":
            fields = dict(record.get("fields") or {})
            rows.append(
                {
                    "kind": "alert",
                    "rule": str(fields.get("rule", "")),
                    "severity": str(fields.get("severity", "warning")),
                    "series": str(fields.get("series", "")),
                    "t": float(fields.get("t", 0.0)),
                    "value": float(fields.get("value", 0.0)),
                    "threshold": float(fields.get("threshold", 0.0)),
                }
            )
        elif kind == "event":
            row = {"kind": "event", "name": str(record.get("name", ""))}
            fields = _scalar_fields(record.get("fields") or {})
            if fields:
                row["fields"] = fields
            rows.append(row)
    return rows


def _normalize_metrics(snapshot: dict) -> List[dict]:
    rows: List[dict] = []
    for name in sorted(snapshot):
        family = snapshot[name] or {}
        metric_type = str(family.get("kind", ""))
        for series in family.get("series", []):
            labels = {
                str(k): str(v) for k, v in (series.get("labels") or {}).items()
            }
            row: dict = {
                "kind": "metric",
                "name": str(name),
                "metric_type": metric_type,
                "labels": labels,
            }
            if metric_type == "histogram":
                pairs = [
                    (
                        float("inf") if le == "+Inf" else float(le),
                        int(cumulative),
                    )
                    for le, cumulative in (series.get("buckets") or [])
                ]
                row["count"] = int(series.get("count", 0))
                row["sum"] = float(series.get("sum", 0.0))
                for column, q in _QUANTILES:
                    value = bucket_quantile(pairs, q)
                    # NaN is not valid JSON; an empty histogram simply has
                    # no quantile columns.
                    if value == value:
                        row[column] = value
            else:
                row["value"] = float(series.get("value", 0.0))
            rows.append(row)
    return rows


def _normalize_timeline(samples: Sequence[dict]) -> List[dict]:
    rows: List[dict] = []
    for record in samples:
        if record.get("type") != "sample":
            continue
        t = float(record.get("t", 0.0))
        for name, value in sorted((record.get("values") or {}).items()):
            rows.append(
                {
                    "kind": "sample",
                    "series": str(name),
                    "t": t,
                    "value": float(value),
                }
            )
    return rows


#: Bench report keys worth trending: stage wall times and speedups.
_BENCH_KEYS = (
    "serial_seconds",
    "parallel_seconds",
    "cached_seconds",
    "speedup_parallel",
    "speedup_cached",
)


def _normalize_bench(report: dict) -> List[dict]:
    rows: List[dict] = []
    for key in _BENCH_KEYS:
        if key in report:
            rows.append(
                {"kind": "bench", "name": key, "value": float(report[key])}
            )
    cache = report.get("cache") or {}
    for key in ("entries", "hits", "misses"):
        if key in cache and cache[key] is not None:
            rows.append(
                {
                    "kind": "bench",
                    "name": f"cache_{key}",
                    "value": float(cache[key]),
                }
            )
    return rows


def _read_optional_jsonl(path: str) -> List[dict]:
    if not os.path.exists(path):
        return []
    return list(read_jsonl(path))


def normalize_run(path: str) -> Tuple[dict, List[dict]]:
    """``(meta, records)`` for a telemetry directory or a bench report file.

    ``meta`` carries the identity the index row needs (label, trace id,
    scenario name/digest, created_unix, provenance); ``records`` is the
    flat normalized row list a segment persists.
    """
    if os.path.isfile(path) and path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        rows = _normalize_bench(report)
        if not rows:
            raise ConfigurationError(
                f"{path!r} carries none of the bench metrics {_BENCH_KEYS}"
            )
        # Quick and full sweeps time different request sets, so only runs
        # of one label compare in a trend.
        provenance = report.get("provenance") or {}
        meta = {
            "label": "bench-quick" if report.get("quick") else "bench-full",
            "trace_id": None,
            "scenario_name": None,
            "scenario_digest": None,
            "created_unix": float(report.get("created_unix", 0.0)),
            "git_commit": provenance.get("git_commit"),
            "repro_version": provenance.get("repro_version"),
        }
        return meta, rows
    if not os.path.isdir(path):
        raise ConfigurationError(
            f"{path!r} is neither a telemetry directory nor a bench JSON report"
        )
    manifest = RunManifest.load(path)
    rows = _normalize_events(
        _read_optional_jsonl(os.path.join(path, EVENTS_FILENAME))
    )
    rows.extend(_normalize_metrics(manifest.metrics))
    rows.extend(
        _normalize_timeline(
            _read_optional_jsonl(os.path.join(path, TIMELINE_FILENAME))
        )
    )
    bench_path = os.path.join(path, BENCH_FILENAME)
    if os.path.exists(bench_path):
        with open(bench_path, "r", encoding="utf-8") as fh:
            rows.extend(_normalize_bench(json.load(fh)))
    scenario = manifest.config.get("scenario")
    scenario = scenario if isinstance(scenario, dict) else {}
    meta = {
        "label": manifest.label,
        "trace_id": manifest.trace_id,
        "scenario_name": scenario.get("name"),
        "scenario_digest": scenario.get("digest"),
        "created_unix": manifest.created_unix,
        "git_commit": manifest.provenance.get("git_commit"),
        "repro_version": manifest.provenance.get("repro_version"),
    }
    return meta, rows


def _run_key(meta: dict, rows: Sequence[dict]) -> str:
    """Content address of a normalized run.

    Deliberately excludes volatile identity (``created_unix``, pids, argv):
    two seeded runs with byte-identical telemetry hash to the same key.
    """
    payload = {
        "store_schema": STORE_SCHEMA_VERSION,
        "label": meta.get("label"),
        "trace_id": meta.get("trace_id"),
        "scenario_digest": meta.get("scenario_digest"),
        "rows": list(rows),
    }
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _count_kinds(rows: Sequence[dict]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for row in rows:
        kind = str(row.get("kind", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    return counts


# --------------------------------------------------------------------- store


class RunStore:
    """The append-only, content-addressed registry of ingested runs."""

    def __init__(self, root: str = DEFAULT_STORE_DIR) -> None:
        self.root = root

    # ---------------------------------------------------------------- paths

    @property
    def index_path(self) -> str:
        """The append-only run index."""
        return os.path.join(self.root, INDEX_FILENAME)

    def segment_path(self, row: RunRow) -> str:
        """Absolute path of a run's segment file."""
        return os.path.join(self.root, row.segment)

    # --------------------------------------------------------------- ingest

    def ingest(self, path: str, stamp_manifest: bool = True) -> IngestResult:
        """Ingest one run directory (or bench JSON); idempotent by content.

        The segment is written atomically before its index row is appended,
        so a crash between the two leaves an unreferenced segment — garbage,
        never corruption.  With ``stamp_manifest`` (telemetry runs only) the
        run's ``manifest.json`` is rewritten with the store verdict (run
        key + per-kind row counts), so the run itself records where it is
        registered.
        """
        meta, rows = normalize_run(path)
        run_key = _run_key(meta, rows)
        counts = _count_kinds(rows)
        existing = {row.run_key for row in self.runs()}
        created = run_key not in existing
        if created:
            segment_rel = os.path.join(SEGMENTS_DIRNAME, f"{run_key}.jsonl")
            text = "".join(
                json.dumps(row, sort_keys=True, default=str) + "\n"
                for row in rows
            )
            atomic_write_text(os.path.join(self.root, segment_rel), text)
            index_row = RunRow(
                run_key=run_key,
                label=str(meta.get("label", "")),
                trace_id=meta.get("trace_id"),
                scenario_name=meta.get("scenario_name"),
                scenario_digest=meta.get("scenario_digest"),
                created_unix=float(meta.get("created_unix") or 0.0),
                git_commit=meta.get("git_commit"),
                repro_version=meta.get("repro_version"),
                counts=counts,
                n_rows=len(rows),
                segment=segment_rel,
                source=os.path.basename(os.path.normpath(path)),
            )
            append_jsonl_line(self.index_path, index_row.to_dict())
        result = IngestResult(
            run_key=run_key, created=created, n_rows=len(rows), counts=counts
        )
        from repro import obs as _obs

        _obs.counter(
            "repro_store_ingested_runs_total",
            outcome="created" if created else "skipped",
        )
        if stamp_manifest and os.path.isdir(path):
            self._stamp_manifest(path, result)
        return result

    def _stamp_manifest(self, run_dir: str, result: IngestResult) -> None:
        """Record the store verdict inside the run's own manifest."""
        manifest = RunManifest.load(run_dir)
        manifest.config["store"] = {
            "root": self.root,
            "run_key": result.run_key,
            "n_rows": result.n_rows,
            "counts": dict(result.counts),
        }
        manifest.write(run_dir)

    # -------------------------------------------------------------- reading

    def runs(self) -> List[RunRow]:
        """Index rows in ingest order, deduplicated by run key (first wins)."""
        if not os.path.exists(self.index_path):
            return []
        rows: List[RunRow] = []
        seen = set()
        for record in read_jsonl(self.index_path):
            key = record.get("run_key")
            if not key or key in seen:
                continue
            seen.add(key)
            rows.append(RunRow.from_dict(record, seq=len(rows)))
        return rows

    def records(self, row: RunRow) -> List[dict]:
        """A run's normalized records, or ``[]`` after quarantining damage.

        A torn *final* line (crash during ingest) is dropped by
        :func:`~repro.obs.exporters.read_jsonl` as usual; corruption
        anywhere else moves the whole segment into ``quarantine/`` so one
        damaged file cannot poison every later query.
        """
        path = self.segment_path(row)
        if not os.path.exists(path):
            warnings.warn(
                f"store segment missing for run {row.run_key[:12]}: {path!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            return []
        try:
            return list(read_jsonl(path))
        except ValueError:
            self._quarantine(path)
            return []

    def _quarantine(self, path: str) -> None:
        from repro.obs.registry import default_registry

        destination = os.path.join(
            self.root, QUARANTINE_DIRNAME, os.path.basename(path)
        )
        os.makedirs(os.path.dirname(destination), exist_ok=True)
        os.replace(path, destination)
        warnings.warn(
            f"quarantined corrupt store segment {path!r} -> {destination!r}",
            RuntimeWarning,
            stacklevel=3,
        )
        # Straight to the default registry (the summarize idiom): quarantine
        # usually happens outside any telemetry session.
        default_registry().counter(
            "repro_store_quarantined_segments_total"
        ).inc()

    def describe(self) -> str:
        """One-line store summary."""
        rows = self.runs()
        n_rows = sum(r.n_rows for r in rows)
        return (
            f"store {self.root}: {len(rows)} run(s), {n_rows} record(s)"
        )
