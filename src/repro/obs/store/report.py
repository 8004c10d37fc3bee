"""The cross-run HTML trend dashboard: ``repro obs report --store``.

Where :mod:`repro.obs.report` renders one run in depth, this renders the
*registry*: a run index table plus one sparkline strip per trended metric
— x axis is ingest order, one dot per run, with the MAD gate's band edge
and a red marker on the latest point when it regressed.  Same constraints
as the per-run report: one static file, inline CSS + SVG, zero external
assets, safe to attach as a CI artifact.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs.report import _STYLE, _esc
from repro.obs.store.core import RunRow, RunStore
from repro.obs.store.trend import MetricTrend, compute_trends

__all__ = [
    "DEFAULT_STORE_REPORT_FILENAME",
    "default_trend_metrics",
    "render_store_html",
    "write_store_report",
]

DEFAULT_STORE_REPORT_FILENAME = "trends.html"

#: Cap on auto-selected metrics so a big store still renders quickly.
_MAX_AUTO_METRICS = 24


def default_trend_metrics(store: RunStore, runs: Sequence[RunRow]) -> List[str]:
    """Metrics worth trending when none were named: everything that appears
    in at least two runs (registry metrics and timeline series), name order,
    capped at :data:`_MAX_AUTO_METRICS`."""
    seen_in: dict = {}
    for row in runs:
        names = set()
        for record in store.records(row):
            if record.get("kind") == "metric":
                names.add(str(record.get("name")))
            elif record.get("kind") == "sample":
                names.add(str(record.get("series")))
        for name in names:
            seen_in[name] = seen_in.get(name, 0) + 1
    shared = sorted(name for name, n in seen_in.items() if n >= 2)
    return shared[:_MAX_AUTO_METRICS]


def _run_table(runs: Sequence[RunRow]) -> str:
    out = [
        "<table><tr><th>#</th><th>run</th><th>label</th><th>scenario</th>"
        "<th>digest</th><th class=num>rows</th><th>ingested from</th>"
        "<th>created (UTC)</th></tr>"
    ]
    for row in runs:
        created = (
            time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(row.created_unix))
            if row.created_unix
            else "—"
        )
        out.append(
            f"<tr><td class=num>{row.seq}</td>"
            f"<td><code>{_esc(row.run_key[:12])}</code></td>"
            f"<td>{_esc(row.label)}</td>"
            f"<td>{_esc(row.scenario_name or '—')}</td>"
            f"<td><code>{_esc((row.scenario_digest or '—')[:12])}</code></td>"
            f"<td class=num>{row.n_rows}</td>"
            f"<td>{_esc(row.source or '—')}</td>"
            f"<td class=meta>{created}</td></tr>"
        )
    out.append("</table>")
    return "".join(out)


def _trend_svg(trend: MetricTrend, width: int = 920, height: int = 48) -> str:
    """One metric trajectory: dots per run, band edge, red drift marker."""
    values = [p.value for p in trend.points]
    vmin, vmax = min(values), max(values)
    check = trend.check
    if check is not None:
        edge_hi = check.median + check.halfwidth
        edge_lo = check.median - check.halfwidth
        vmin = min(vmin, edge_lo)
        vmax = max(vmax, edge_hi)
    v_span = (vmax - vmin) or 1.0
    pad = 5.0
    n = len(values)

    def x_of(i: int) -> float:
        if n == 1:
            return width / 2.0
        return pad + (width - 2 * pad) * i / (n - 1)

    def y_of(v: float) -> float:
        return pad + (height - 2 * pad) * (1.0 - (v - vmin) / v_span)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" height="{height}" '
        f'role="img" aria-label="trend {_esc(trend.metric)}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#f6f6f8"/>',
    ]
    if check is not None:
        for edge, dash in (
            (check.median + check.halfwidth, "4 3"),
            (check.median - check.halfwidth, "4 3"),
        ):
            parts.append(
                f'<line x1="0" y1="{y_of(edge):.1f}" x2="{width}" '
                f'y2="{y_of(edge):.1f}" stroke="#b0b0c0" stroke-width="1" '
                f'stroke-dasharray="{dash}"/>'
            )
        parts.append(
            f'<line x1="0" y1="{y_of(check.median):.1f}" x2="{width}" '
            f'y2="{y_of(check.median):.1f}" stroke="#9aa5b1" stroke-width="1"/>'
        )
    poly = " ".join(
        f"{x_of(i):.1f},{y_of(v):.1f}" for i, v in enumerate(values)
    )
    if n > 1:
        parts.append(
            f'<polyline points="{poly}" fill="none" stroke="#4e79a7" '
            f'stroke-width="1.2"/>'
        )
    for i, point in enumerate(trend.points):
        last = i == n - 1
        color = "#c0392b" if (last and trend.failed) else "#4e79a7"
        radius = 3.5 if last else 2.5
        title = (
            f"{point.label} · run {point.run_key[:12]} · "
            f"{trend.metric} = {point.value:g}"
        )
        parts.append(
            f'<circle cx="{x_of(i):.1f}" cy="{y_of(point.value):.1f}" '
            f'r="{radius}" fill="{color}">'
            f"<title>{_esc(title)}</title></circle>"
        )
    parts.append("</svg>")
    if check is None:
        verdict = '<span class=meta>no gate (not enough prior points)</span>'
    elif check.failed:
        verdict = (
            f'<span class=bad>DRIFT: {check.value:g} beyond '
            f"{check.direction}-edge of median {check.median:g} "
            f"&plusmn; {check.halfwidth:g} (n={check.n})</span>"
        )
    else:
        verdict = (
            f'<span class=ok>ok: {check.value:g} within median '
            f"{check.median:g} &plusmn; {check.halfwidth:g} (n={check.n})</span>"
        )
    label = (
        f'<div class=sparklabel>{_esc(trend.metric)} '
        f'<span class=meta>[{_esc(trend.stat)}] · {n} run(s) · '
        f"last {values[-1]:g}</span> · {verdict}</div>"
    )
    return f'<div class=spark>{label}{"".join(parts)}</div>'


def render_store_html(
    store: RunStore,
    runs: Optional[Sequence[RunRow]] = None,
    metrics: Optional[Sequence[str]] = None,
) -> str:
    """The full dashboard document for a store (optionally pre-filtered)."""
    rows = store.runs() if runs is None else list(runs)
    if not rows:
        raise ConfigurationError(
            f"store {store.root!r} holds no ingested runs to report on"
        )
    names = list(metrics) if metrics else default_trend_metrics(store, rows)
    trends = [t for t in compute_trends(store, names, runs=rows) if t.points]
    failures = [t for t in trends if t.failed]
    body = [
        f"<h1>repro run registry — {len(rows)} run(s)</h1>",
        f'<p class=meta>store {_esc(store.root)} · '
        f"{sum(r.n_rows for r in rows)} record(s) · "
        f"{len(trends)} trended metric(s)</p>",
    ]
    if failures:
        body.append(
            '<p class=bad>'
            + f"{len(failures)} metric(s) regressed on the latest run:<br>"
            + "<br>".join(_esc(t.check.describe()) for t in failures)
            + "</p>"
        )
    else:
        body.append('<p class=ok>No metric regressions on the latest run.</p>')
    body.append("<h2>Runs</h2>")
    body.append(_run_table(rows))
    body.append("<h2>Trends</h2>")
    if trends:
        body.extend(_trend_svg(t) for t in trends)
    else:
        body.append('<p class=meta>No metric appears in two or more runs yet.</p>')
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        "<title>repro run registry</title>"
        f"<style>{_STYLE}</style></head><body>"
        + "".join(body)
        + "</body></html>\n"
    )


def write_store_report(
    store: RunStore,
    output: Optional[str] = None,
    runs: Optional[Sequence[RunRow]] = None,
    metrics: Optional[Sequence[str]] = None,
) -> str:
    """Render and write the dashboard; returns the output path."""
    path = output or os.path.join(store.root, DEFAULT_STORE_REPORT_FILENAME)
    doc = render_store_html(store, runs=runs, metrics=metrics)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)
    return path
