"""repro.obs — the unified telemetry layer.

Zero-dependency observability for every layer of the reproduction:

* **Spans** (:func:`span`) — nested wall-clock *or* simulated-time phase
  timings with attributes, usable as context managers or decorators.
* **Metrics** (:class:`MetricsRegistry`, :func:`counter` / :func:`gauge` /
  :func:`observe`) — process-wide counters, gauges and fixed-bucket
  histograms named ``repro_<layer>_<name>_<unit>``, with snapshot/reset.
* **Exporters** — JSONL event streams, Prometheus text exposition, and the
  per-run :class:`RunManifest` (config, durations, metric snapshot,
  provenance) written next to benchmark results.
* **Timelines** (:class:`TimelineSampler`, :class:`TimelineConfig`) —
  sim-clock-gridded snapshots of live engine/storage/power gauges, written
  by the session to a ``timeline.jsonl`` stream.
* **Watchdogs** (:class:`WatchRule`, :class:`Watchdog`) — declarative SLO
  rules evaluated at every timeline sample, emitting ``obs.alert`` events
  and ``repro_alert_<name>_total`` counters.

Everything is a no-op until a :func:`session` is active, so instrumented
code paths are bit-identical with telemetry disabled.  The helpers live in
:mod:`repro.obs.telemetry`, which imports nothing else of the layer; the
session, its writers, registry, timeline and trace load on the first
``obs.session`` lookup.  See
``docs/OBSERVABILITY.md`` and ``examples/telemetry_demo.py``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.drift import DriftCheck, check_value, mad_band
    from repro.obs.exporters import JsonlWriter, read_jsonl, to_prometheus, write_prometheus
    from repro.obs.manifest import (
        EVENTS_FILENAME,
        MANIFEST_FILENAME,
        PROM_FILENAME,
        TIMELINE_FILENAME,
        RunManifest,
        collect_provenance,
    )
    from repro.obs.naming import (
        ALERT_METRIC_RE,
        METRIC_NAME_RE,
        METRIC_UNITS,
        TIMELINE_SERIES_RE,
        TIMELINE_UNITS,
        alert_metric_name,
        validate_metric_name,
        validate_timeline_series_name,
    )
    from repro.obs.registry import (
        Counter,
        DEFAULT_BUCKETS,
        Gauge,
        Histogram,
        MetricsRegistry,
        bucket_quantile,
        default_registry,
    )
    from repro.obs.sessions import TelemetrySession, session, shard_session
    from repro.obs.telemetry import (
        PHASE_SECONDS_METRIC,
        SHARDS_DIRNAME,
        SIM,
        WALL,
        Span,
        active,
        counter,
        enabled,
        event,
        gauge,
        observe,
        phase,
        span,
    )
    from repro.obs.timeline import (
        DEFAULT_TIMELINE_POINTS,
        TimelineConfig,
        TimelineSampler,
        engine_probes,
        power_probes,
        resource_probes,
        storage_probes,
    )
    from repro.obs.trace import TraceContext, derive_trace_id
    from repro.obs.watch import (
        SEVERITIES,
        Alert,
        WatchRule,
        Watchdog,
        default_rules,
        severity_rank,
    )

__all__ = [
    "ALERT_METRIC_RE",
    "Alert",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_TIMELINE_POINTS",
    "DriftCheck",
    "EVENTS_FILENAME",
    "Gauge",
    "Histogram",
    "JsonlWriter",
    "MANIFEST_FILENAME",
    "METRIC_NAME_RE",
    "METRIC_UNITS",
    "MetricsRegistry",
    "PHASE_SECONDS_METRIC",
    "PROM_FILENAME",
    "RunManifest",
    "SEVERITIES",
    "SHARDS_DIRNAME",
    "SIM",
    "Span",
    "TIMELINE_FILENAME",
    "TIMELINE_SERIES_RE",
    "TIMELINE_UNITS",
    "TelemetrySession",
    "TimelineConfig",
    "TimelineSampler",
    "TraceContext",
    "WALL",
    "WatchRule",
    "Watchdog",
    "active",
    "alert_metric_name",
    "bucket_quantile",
    "check_value",
    "collect_provenance",
    "counter",
    "default_registry",
    "default_rules",
    "derive_trace_id",
    "enabled",
    "engine_probes",
    "event",
    "gauge",
    "mad_band",
    "observe",
    "phase",
    "power_probes",
    "read_jsonl",
    "resource_probes",
    "session",
    "severity_rank",
    "shard_session",
    "span",
    "storage_probes",
    "to_prometheus",
    "validate_metric_name",
    "validate_timeline_series_name",
    "write_prometheus",
]

__getattr__, __dir__ = lazy_exports(__name__)
