"""The ``repro obs`` subcommand: inspect telemetry directories.

* ``repro obs summarize PATH`` — round-trip a run's ``manifest.json`` +
  ``events.jsonl`` and print the human summary (phases, spans, metrics,
  timeline coverage, alerts, provenance); ``--json`` for the machine form.
* ``repro obs dump PATH`` — stream the raw JSONL records to stdout.
* ``repro obs diff BASELINE CANDIDATE`` — per-metric relative deltas of two
  manifests (or any numeric JSON, e.g. BENCH reports); exit 3 beyond
  ``--threshold`` (see :mod:`repro.obs.diff`).
* ``repro obs report DIR`` — one self-contained HTML file: phase timeline,
  per-span energy table, timeline sparklines with alert markers, optional
  diff summary (see :mod:`repro.obs.report`); ``--store`` renders the
  cross-run trend dashboard instead (see :mod:`repro.obs.store.report`).
* ``repro obs check PATH`` — gate on watchdog alerts: exit 2 when the run
  recorded any ``obs.alert`` at or above ``--min-severity``.
* ``repro obs ingest PATH...`` — register runs (or bench reports) in the
  content-addressed run registry (see :mod:`repro.obs.store`).
* ``repro obs query`` — select normalized records across every ingested
  run, with run- and record-level filters; deterministic text/JSON output.
* ``repro obs trend METRIC...`` — per-metric trajectories across runs,
  MAD-band gated; ``--check`` exits 2 on a regression, like ``obs check``.

``PATH`` may be the telemetry directory, the manifest file, or the events
file; the other artifacts are found beside it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import obs as _obs
from repro.errors import ConfigurationError, ReproError
from repro.obs.exporters import read_jsonl
from repro.obs.manifest import (
    EVENTS_FILENAME,
    MANIFEST_FILENAME,
    TIMELINE_FILENAME,
    RunManifest,
)
from repro.obs.watch import SEVERITIES, severity_rank

__all__ = [
    "RunSummary",
    "build_parser",
    "build_summary",
    "collect_alerts",
    "main",
    "resolve_directory",
    "summarize",
]

#: Record types the summary knows how to roll up.
_KNOWN_RECORD_TYPES = ("span", "phase", "event", "sample")


def resolve_directory(path: str) -> str:
    """The telemetry directory designated by ``path`` (dir or member file)."""
    if os.path.isdir(path):
        return path
    if os.path.basename(path) in (MANIFEST_FILENAME, EVENTS_FILENAME):
        return os.path.dirname(path) or "."
    raise ConfigurationError(
        f"{path!r} is not a telemetry directory, {MANIFEST_FILENAME} "
        f"or {EVENTS_FILENAME}"
    )


def _load_events(directory: str) -> List[dict]:
    events_path = os.path.join(directory, EVENTS_FILENAME)
    if not os.path.exists(events_path):
        return []
    return list(read_jsonl(events_path))


def _span_rollup(events: Sequence[dict]) -> Dict[str, List[float]]:
    """``{name: [count, total_duration]}`` over span/phase records."""
    rollup: Dict[str, List[float]] = {}
    for record in events:
        if record.get("type") not in ("span", "phase"):
            continue
        entry = rollup.setdefault(record["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += float(record.get("dur", 0.0))
    return rollup


def _unknown_kinds(events: Sequence[dict]) -> Dict[str, int]:
    """Counts of record types the summary does not understand.

    Each sighting also increments ``repro_obs_unknown_records_total`` (a
    no-op outside a session, same idiom as the truncation counter) so an
    instrumented caller sees schema drift in its metrics, not just stderr.
    """
    unknown: Dict[str, int] = {}
    for record in events:
        kind = str(record.get("type"))
        if kind in _KNOWN_RECORD_TYPES:
            continue
        unknown[kind] = unknown.get(kind, 0) + 1
        # Straight to the default registry: summarize runs outside any
        # session, where the no-op `obs.counter` helper would drop the count.
        _obs.default_registry().counter(
            "repro_obs_unknown_records_total", kind=kind
        ).inc()
    return unknown


def collect_alerts(events: Sequence[dict]) -> List[dict]:
    """The ``obs.alert`` payloads of an event stream, in emission order."""
    alerts = []
    for record in events:
        if record.get("type") == "event" and record.get("name") == "obs.alert":
            alerts.append(dict(record.get("fields") or {}))
    return alerts


def _load_timeline(directory: str) -> List[dict]:
    path = os.path.join(directory, TIMELINE_FILENAME)
    if not os.path.exists(path):
        return []
    return list(read_jsonl(path))


def _timeline_lines(samples: Sequence[dict]) -> List[str]:
    if not samples:
        return []
    series: set = set()
    for sample in samples:
        series.update((sample.get("values") or {}).keys())
    t0 = float(samples[0].get("t", 0.0))
    t1 = float(samples[-1].get("t", 0.0))
    return [
        f"timeline: {len(samples)} samples across {len(series)} series "
        f"(t = {t0:g} .. {t1:g} s)"
    ]


def _alert_lines(alerts: Sequence[dict]) -> List[str]:
    if not alerts:
        return []
    by_severity: Dict[str, int] = {}
    for alert in alerts:
        severity = str(alert.get("severity", "warning"))
        by_severity[severity] = by_severity.get(severity, 0) + 1
    ordered = ", ".join(
        f"{sev}: {by_severity[sev]}"
        for sev in reversed(SEVERITIES)
        if sev in by_severity
    )
    lines = [f"alerts: {len(alerts)} ({ordered})"]
    seen: set = set()
    for alert in alerts:
        key = (alert.get("rule"), alert.get("series"))
        if key in seen:
            continue
        seen.add(key)
        lines.append(
            f"  [{alert.get('severity', '?'):8s}] {alert.get('rule', '?')} "
            f"on {alert.get('series', '?')} at t={float(alert.get('t', 0.0)):g} "
            f"(value {float(alert.get('value', 0.0)):g} vs "
            f"{float(alert.get('threshold', 0.0)):g})"
        )
    return lines


def _metric_lines(manifest: RunManifest) -> List[str]:
    lines = []
    for name in sorted(manifest.metrics):
        family = manifest.metrics[name]
        for series in family.get("series", []):
            labels = series.get("labels", {})
            rendered = (
                "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            if family.get("kind") == "histogram":
                lines.append(
                    f"  {name}{rendered} count={series.get('count', 0)} "
                    f"sum={series.get('sum', 0.0):g}"
                )
            else:
                lines.append(f"  {name}{rendered} {series.get('value', 0.0):g}")
    return lines


@dataclass
class RunSummary:
    """Everything ``repro obs summarize`` reports about one run.

    :meth:`render` produces the human text (byte-identical to the historic
    ``summarize`` output); :meth:`to_dict` mirrors the same facts —
    identity, phase totals, span rollup, timeline coverage, alert counts,
    metric snapshot — in machine-readable form for ``--json``.
    """

    directory: str
    manifest: RunManifest
    span_rollup: Dict[str, List[float]] = field(default_factory=dict)
    timeline_samples: List[dict] = field(default_factory=list)
    alerts: List[dict] = field(default_factory=list)
    unknown_kinds: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        """The human-readable summary text."""
        manifest = self.manifest
        created = time.strftime(
            "%Y-%m-%d %H:%M:%S UTC", time.gmtime(manifest.created_unix)
        )
        lines = [
            f"run {manifest.label!r} ({manifest.run_id})",
            f"created {created}   schema v{manifest.schema_version}   "
            f"{manifest.n_events} events",
        ]
        if manifest.argv:
            lines.append("argv: " + " ".join(manifest.argv))
        scenario = manifest.config.get("scenario")
        if isinstance(scenario, dict) and scenario.get("digest"):
            lines.append(
                f"scenario: {scenario.get('name', '?')} "
                f"(digest {str(scenario['digest'])[:12]})"
            )
        prov = manifest.provenance
        if prov:
            commit = prov.get("git_commit")
            lines.append(
                "provenance: repro "
                f"{prov.get('repro_version', '?')}, python {prov.get('python', '?')}, "
                f"commit {commit[:12] if commit else 'n/a'}"
            )

        if manifest.durations:
            total = sum(manifest.durations.values())
            lines.append("phase totals:")
            for name, seconds in sorted(
                manifest.durations.items(), key=lambda kv: -kv[1]
            ):
                share = 100.0 * seconds / total if total else 0.0
                lines.append(f"  {name:14s} {seconds:12.2f} s  {share:5.1f}%")

        rollup = self.span_rollup
        if rollup:
            lines.append(f"spans/phases: {sum(int(v[0]) for v in rollup.values())} "
                         f"records across {len(rollup)} names")
            for name, (count, dur) in sorted(
                rollup.items(), key=lambda kv: -kv[1][1]
            )[:10]:
                lines.append(f"  {name:24s} x{int(count):<6d} {dur:12.2f} s")

        lines.extend(_timeline_lines(self.timeline_samples))
        lines.extend(_alert_lines(self.alerts))

        metric_lines = _metric_lines(manifest)
        if metric_lines:
            lines.append(f"metrics: {len(manifest.metrics)} families")
            lines.extend(metric_lines)

        unknown = self.unknown_kinds
        if unknown:
            kinds = ", ".join(f"{k} (x{unknown[k]})" for k in sorted(unknown))
            lines.append(
                f"ignored {sum(unknown.values())} record(s) of unknown kind: {kinds}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The machine-readable mirror of :meth:`render` (``--json``)."""
        manifest = self.manifest
        scenario = manifest.config.get("scenario")
        timeline = None
        if self.timeline_samples:
            series: set = set()
            for sample in self.timeline_samples:
                series.update((sample.get("values") or {}).keys())
            timeline = {
                "n_samples": len(self.timeline_samples),
                "n_series": len(series),
                "t0": float(self.timeline_samples[0].get("t", 0.0)),
                "t1": float(self.timeline_samples[-1].get("t", 0.0)),
            }
        by_severity: Dict[str, int] = {}
        for alert in self.alerts:
            severity = str(alert.get("severity", "warning"))
            by_severity[severity] = by_severity.get(severity, 0) + 1
        return {
            "label": manifest.label,
            "run_id": manifest.run_id,
            "trace_id": manifest.trace_id,
            "created_unix": manifest.created_unix,
            "schema_version": manifest.schema_version,
            "n_events": manifest.n_events,
            "argv": list(manifest.argv),
            "scenario": dict(scenario) if isinstance(scenario, dict) else None,
            "provenance": dict(manifest.provenance),
            "durations": dict(manifest.durations),
            "spans": {
                name: {"count": int(count), "seconds": float(dur)}
                for name, (count, dur) in sorted(self.span_rollup.items())
            },
            "timeline": timeline,
            "alerts": {
                "total": len(self.alerts),
                "by_severity": by_severity,
            },
            "metrics": manifest.metrics,
            "unknown_record_kinds": dict(self.unknown_kinds),
        }


def build_summary(path: str) -> RunSummary:
    """Gather everything the summary reports for one telemetry directory."""
    directory = resolve_directory(path)
    manifest = RunManifest.load(directory)
    events = _load_events(directory)
    return RunSummary(
        directory=directory,
        manifest=manifest,
        span_rollup=_span_rollup(events),
        timeline_samples=_load_timeline(directory),
        alerts=collect_alerts(events),
        unknown_kinds=_unknown_kinds(events),
    )


def summarize(path: str) -> str:
    """The human-readable summary of one telemetry directory."""
    return build_summary(path).render()


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro obs``."""
    from repro.obs.drift import DIRECTIONS
    from repro.obs.store.core import DEFAULT_STORE_DIR
    from repro.obs.store.trend import STATS, TREND_WINDOW

    parser = argparse.ArgumentParser(
        prog="repro obs", description="inspect telemetry run directories"
    )
    sub = parser.add_subparsers(dest="action", required=True)

    p = sub.add_parser("summarize", help="print the human run summary")
    p.add_argument(
        "path", help="telemetry directory (or its manifest/events file)"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("dump", help="stream the raw JSONL records to stdout")
    p.add_argument(
        "path", help="telemetry directory (or its manifest/events file)"
    )
    p.add_argument(
        "--limit", type=int, default=None,
        help="print at most this many records",
    )

    p = sub.add_parser(
        "diff", help="per-metric relative deltas of two manifests/JSON files"
    )
    p.add_argument("baseline", help="baseline manifest/directory/JSON file")
    p.add_argument("candidate", help="candidate manifest/directory/JSON file")
    p.add_argument(
        "--threshold", type=float, default=0.2,
        help="allowed relative delta before exiting 3 (default 0.2)",
    )
    p.add_argument(
        "--all", action="store_true", dest="show_all",
        help="list every shared key, not just the offenders",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser(
        "report", help="write a self-contained HTML report of a run "
        "(or, with --store, the cross-run trend dashboard)"
    )
    p.add_argument(
        "path", nargs="?", default=None,
        help="telemetry directory (omit when using --store)",
    )
    p.add_argument(
        "--output", default=None, metavar="PATH",
        help="output file (default: <dir>/report.html, <store>/trends.html)",
    )
    p.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="also embed a regression diff against this manifest/JSON",
    )
    p.add_argument(
        "--threshold", type=float, default=0.2,
        help="diff threshold for the embedded comparison",
    )
    p.add_argument(
        "--store", default=None, metavar="DIR",
        help="render the cross-run trend dashboard of this run registry",
    )
    p.add_argument(
        "--metric", action="append", default=[], metavar="NAME",
        help="trend this metric in the --store dashboard (repeatable; "
        "default: every metric shared by >= 2 runs)",
    )

    p = sub.add_parser(
        "check", help="exit 2 when the run recorded watchdog alerts"
    )
    p.add_argument(
        "path", help="telemetry directory (or its manifest/events file)"
    )
    p.add_argument(
        "--min-severity", default="warning", choices=SEVERITIES,
        help="lowest severity that fails the check (default: warning)",
    )

    p = sub.add_parser(
        "ingest", help="register telemetry runs / bench reports in the run "
        "registry (idempotent by content digest)"
    )
    p.add_argument(
        "paths", nargs="+",
        help="telemetry directories (or BENCH_*.json reports) to ingest",
    )
    p.add_argument(
        "--store", default=DEFAULT_STORE_DIR, metavar="DIR",
        help=f"registry root (default: {DEFAULT_STORE_DIR})",
    )
    p.add_argument(
        "--no-stamp", action="store_true",
        help="do not write the store verdict back into the run manifest",
    )

    p = sub.add_parser(
        "query", help="select normalized records across ingested runs"
    )
    p.add_argument(
        "--store", default=DEFAULT_STORE_DIR, metavar="DIR",
        help=f"registry root (default: {DEFAULT_STORE_DIR})",
    )
    p.add_argument(
        "--where", action="append", default=[], metavar="K=V[,K=V...]",
        help="record filter clauses (kind/name/series/rule/severity/domain/"
        "metric_type/label.<name>; trailing * = prefix match; repeatable, "
        "all must hold)",
    )
    p.add_argument(
        "--scenario-digest", default=None, metavar="HEX",
        help="only runs of this scenario content digest (prefix ok)",
    )
    p.add_argument("--label", default=None, help="only runs with this label")
    p.add_argument(
        "--trace", default=None, metavar="HEX",
        help="only runs with this trace id (prefix ok)",
    )
    p.add_argument(
        "--run", default=None, metavar="HEX", dest="run_key",
        help="only this run key (prefix ok)",
    )
    p.add_argument(
        "--since", default=None, metavar="WHEN",
        help="only runs created at/after WHEN (unix seconds, YYYY-MM-DD, "
        "or YYYY-MM-DDTHH:MM:SS, UTC)",
    )
    p.add_argument(
        "--limit", type=int, default=None,
        help="stop after this many matching records",
    )
    p.add_argument(
        "--runs", action="store_true",
        help="list the matching run index rows instead of records",
    )
    p.add_argument("--json", action="store_true", help="JSON-lines output")

    p = sub.add_parser(
        "trend", help="per-metric trajectories across ingested runs, "
        f"gated on the MAD band of the {TREND_WINDOW} runs before the latest "
        "(exit 2 on regression with --check)"
    )
    p.add_argument(
        "metrics", nargs="+", metavar="METRIC",
        help="registry metric, timeline series, span name, or bench key",
    )
    p.add_argument(
        "--store", default=DEFAULT_STORE_DIR, metavar="DIR",
        help=f"registry root (default: {DEFAULT_STORE_DIR})",
    )
    p.add_argument(
        "--stat", default="auto", choices=STATS,
        help="per-run aggregation (default: auto)",
    )
    p.add_argument(
        "--direction", default="above", choices=DIRECTIONS,
        help="which side of the band counts as regression (default: above)",
    )
    p.add_argument(
        "--scenario-digest", default=None, metavar="HEX",
        help="only runs of this scenario content digest (prefix ok)",
    )
    p.add_argument("--label", default=None, help="only runs with this label")
    p.add_argument(
        "--since", default=None, metavar="WHEN",
        help="only runs created at/after WHEN (unix seconds or UTC date)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="exit 2 when any trended metric regressed",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def _cmd_dump(args: argparse.Namespace) -> int:
    directory = resolve_directory(args.path)
    events_path = os.path.join(directory, EVENTS_FILENAME)
    if not os.path.exists(events_path):
        raise ConfigurationError(f"no {EVENTS_FILENAME} in {directory!r}")
    import json

    for i, record in enumerate(read_jsonl(events_path)):
        if args.limit is not None and i >= args.limit:
            break
        print(json.dumps(record, sort_keys=True))
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    summary = build_summary(args.path)
    if args.json:
        import json

        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        print(summary.render())
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs.diff import diff_paths, render_diff

    result = diff_paths(args.baseline, args.candidate)
    exceeded = result.exceeding(args.threshold)
    if args.json:
        print(json.dumps(
            {
                "threshold": args.threshold,
                "max_rel_delta": result.max_rel_delta(),
                "exceeded": [
                    {
                        "key": d.key,
                        "baseline": d.baseline,
                        "candidate": d.candidate,
                        "rel_delta": d.rel_delta,
                    }
                    for d in exceeded
                ],
                "only_baseline": result.only_baseline,
                "only_candidate": result.only_candidate,
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(render_diff(result, args.threshold, show_all=args.show_all))
    return 3 if exceeded else 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.store is not None and args.path is not None:
        raise ConfigurationError(
            "give either a run directory or --store, not both"
        )
    if args.store is not None:
        from repro.obs.store.core import RunStore
        from repro.obs.store.report import write_store_report

        path = write_store_report(
            RunStore(args.store),
            output=args.output,
            metrics=args.metric or None,
        )
        print(f"wrote {path}", file=sys.stderr)
        return 0
    if args.path is None:
        raise ConfigurationError("report needs a run directory or --store DIR")
    from repro.obs.report import write_report

    path = write_report(
        resolve_directory(args.path),
        output=args.output,
        baseline=args.baseline,
        threshold=args.threshold,
    )
    print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    directory = resolve_directory(args.path)
    alerts = collect_alerts(_load_events(directory))
    floor = severity_rank(args.min_severity)
    failing = [
        a for a in alerts
        if severity_rank(str(a.get("severity", "warning"))) >= floor
    ]
    for line in _alert_lines(alerts):
        print(line)
    if failing:
        print(
            f"check failed: {len(failing)} alert(s) at or above "
            f"{args.min_severity!r}",
            file=sys.stderr,
        )
        return 2
    print(f"check passed: no alerts at or above {args.min_severity!r}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.obs.store.core import RunStore

    store = RunStore(args.store)
    for path in args.paths:
        result = store.ingest(path, stamp_manifest=not args.no_stamp)
        print(f"{result.describe()} from {path}")
    print(store.describe())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.obs.store.core import RunStore
    from repro.obs.store.query import (
        parse_since,
        parse_where,
        record_to_dict,
        render_records,
        render_runs,
        run_query,
        select_runs,
    )

    store = RunStore(args.store)
    since = parse_since(args.since) if args.since is not None else None
    if args.runs:
        rows = select_runs(
            store,
            scenario_digest=args.scenario_digest,
            label=args.label,
            trace=args.trace,
            run_key=args.run_key,
            since=since,
        )
        if args.json:
            for row in rows:
                print(json.dumps(row.to_dict(), sort_keys=True))
        else:
            print(render_runs(rows))
        return 0
    results = run_query(
        store,
        where=parse_where(args.where),
        scenario_digest=args.scenario_digest,
        label=args.label,
        trace=args.trace,
        run_key=args.run_key,
        since=since,
        limit=args.limit,
    )
    if args.json:
        for row, record in results:
            print(json.dumps(record_to_dict(row, record), sort_keys=True))
    else:
        print(render_records(results))
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    import json

    from repro.obs.store.core import RunStore
    from repro.obs.store.query import parse_since, select_runs
    from repro.obs.store.trend import compute_trends, render_trends

    store = RunStore(args.store)
    since = parse_since(args.since) if args.since is not None else None
    rows = select_runs(
        store,
        scenario_digest=args.scenario_digest,
        label=args.label,
        since=since,
    )
    trends = compute_trends(
        store,
        args.metrics,
        runs=rows,
        stat=args.stat,
        direction=args.direction,
    )
    failed = [t for t in trends if t.failed]
    if args.json:
        print(json.dumps(
            {
                "trends": [t.to_dict() for t in trends],
                "failed": [t.metric for t in failed],
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(render_trends(trends))
    if args.check and failed:
        print(
            f"trend check failed: {len(failed)} metric(s) regressed",
            file=sys.stderr,
        )
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro obs``; returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.action == "summarize":
            return _cmd_summarize(args)
        if args.action == "dump":
            return _cmd_dump(args)
        if args.action == "diff":
            return _cmd_diff(args)
        if args.action == "check":
            return _cmd_check(args)
        if args.action == "ingest":
            return _cmd_ingest(args)
        if args.action == "query":
            return _cmd_query(args)
        if args.action == "trend":
            return _cmd_trend(args)
        return _cmd_report(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `repro obs dump ... | head`
        return 0
