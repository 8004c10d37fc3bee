"""Per-metric trajectories across ingested runs: ``repro obs trend``.

A *trend* is one metric's value extracted from every selected run, in
ingest order, gated: the latest value is compared against the MAD band
(:mod:`repro.obs.drift`) of the :data:`TREND_WINDOW` values before it.
Ingested ``repro bench`` reports are runs like any other (labelled
``bench-quick`` or ``bench-full``), so "this bench run drifted" is a trend
check too.

Metric names resolve in priority order against a run's records:

1. a **registry metric** (``kind=metric``) — stat ``value`` for
   counters/gauges (summed over label series), ``sum``/``count``/
   ``p50``/``p95``/``p99`` for histograms (quantile stats take the
   worst — largest — series, the conservative choice for gating);
2. a **timeline series** (``kind=sample``) — stats ``mean``/``max``/
   ``last`` over the run's samples;
3. a **span name** (``kind=span``) — total duration across occurrences;
4. a **bench row** (``kind=bench``) — stats ``value``/``last``, its
   recorded value.

``stat="auto"`` picks value/sum/mean/sum/value respectively.  Runs where
the metric is absent are skipped (they contribute no point), so mixed
stores gate cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.drift import DriftCheck, check_value
from repro.obs.store.core import RunRow, RunStore

__all__ = [
    "MetricTrend",
    "STATS",
    "TREND_WINDOW",
    "TrendPoint",
    "compute_trend",
    "compute_trends",
    "render_trends",
    "run_metric_value",
]

#: Supported per-run aggregation stats.
STATS = ("auto", "value", "sum", "count", "mean", "max", "last", "p50", "p95", "p99")

#: How many trailing points form the reference window for gating.
TREND_WINDOW = 10

_HISTOGRAM_STATS = ("sum", "count", "p50", "p95", "p99")


@dataclass(frozen=True)
class TrendPoint:
    """One run's contribution to a metric trajectory."""

    run_key: str
    seq: int
    value: float
    label: str
    scenario_digest: Optional[str] = None

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "run_key": self.run_key,
            "seq": self.seq,
            "value": self.value,
            "label": self.label,
            "scenario_digest": self.scenario_digest,
        }


@dataclass(frozen=True)
class MetricTrend:
    """A metric's trajectory plus its (optional) gate verdict."""

    metric: str
    stat: str
    points: Tuple[TrendPoint, ...]
    check: Optional[DriftCheck] = None

    @property
    def failed(self) -> bool:
        """Whether the gate flagged the latest point as drift."""
        return self.check is not None and self.check.failed

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "metric": self.metric,
            "stat": self.stat,
            "points": [p.to_dict() for p in self.points],
            "check": self.check.to_dict() if self.check else None,
            "failed": self.failed,
        }


def run_metric_value(
    records: Sequence[dict], metric: str, stat: str = "auto"
) -> Optional[float]:
    """``metric`` aggregated to one number for a run, or ``None`` if absent."""
    if stat not in STATS:
        raise ConfigurationError(
            f"unknown trend stat {stat!r}; expected one of {STATS}"
        )
    metric_rows = [
        r for r in records
        if r.get("kind") == "metric" and r.get("name") == metric
    ]
    if metric_rows:
        if metric_rows[0].get("metric_type") == "histogram":
            wanted = "sum" if stat == "auto" else stat
            if wanted not in _HISTOGRAM_STATS:
                raise ConfigurationError(
                    f"stat {stat!r} does not apply to histogram {metric!r}; "
                    f"expected one of {_HISTOGRAM_STATS}"
                )
            values = [
                float(r[wanted]) for r in metric_rows if wanted in r
            ]
            if not values:
                return None
            if wanted in ("sum", "count"):
                return sum(values)
            # Quantile columns cannot be summed across label series; the
            # largest one is the conservative estimate for a cost gate.
            return max(values)
        if stat not in ("auto", "value", "sum"):
            raise ConfigurationError(
                f"stat {stat!r} does not apply to "
                f"{metric_rows[0].get('metric_type')} {metric!r}"
            )
        return sum(float(r.get("value", 0.0)) for r in metric_rows)
    samples = [
        float(r.get("value", 0.0))
        for r in records
        if r.get("kind") == "sample" and r.get("series") == metric
    ]
    if samples:
        wanted = "mean" if stat == "auto" else stat
        if wanted == "mean":
            return sum(samples) / len(samples)
        if wanted == "max":
            return max(samples)
        if wanted == "last":
            return samples[-1]
        if wanted == "sum":
            return sum(samples)
        raise ConfigurationError(
            f"stat {stat!r} does not apply to timeline series {metric!r}; "
            "expected mean, max, last, or sum"
        )
    spans = [
        float(r.get("dur", 0.0))
        for r in records
        if r.get("kind") == "span" and r.get("name") == metric
    ]
    if spans:
        if stat in ("auto", "sum"):
            return sum(spans)
        if stat == "max":
            return max(spans)
        if stat == "mean":
            return sum(spans) / len(spans)
        if stat == "count":
            return float(len(spans))
        raise ConfigurationError(
            f"stat {stat!r} does not apply to span {metric!r}; "
            "expected sum, max, mean, or count"
        )
    bench = [
        float(r.get("value", 0.0))
        for r in records
        if r.get("kind") == "bench" and r.get("name") == metric
    ]
    if bench:
        if stat in ("auto", "value", "last"):
            return bench[-1]
        raise ConfigurationError(
            f"stat {stat!r} does not apply to bench key {metric!r}; "
            "expected value or last"
        )
    return None


def compute_trend(
    store: RunStore,
    metric: str,
    runs: Optional[Sequence[RunRow]] = None,
    stat: str = "auto",
    direction: str = "above",
) -> MetricTrend:
    """One metric's trajectory over ``runs`` (default: every run), gated.

    The gate compares the *latest* point against the MAD band of the
    :data:`TREND_WINDOW` points before it; fewer than
    :data:`~repro.obs.drift.MIN_RECORDS` prior points means no verdict
    (``check is None``) — an informational pass.
    """
    rows = store.runs() if runs is None else list(runs)
    points: List[TrendPoint] = []
    for row in rows:
        value = run_metric_value(store.records(row), metric, stat=stat)
        if value is None:
            continue
        points.append(
            TrendPoint(
                run_key=row.run_key,
                seq=row.seq,
                value=value,
                label=row.label,
                scenario_digest=row.scenario_digest,
            )
        )
    check: Optional[DriftCheck] = None
    if points:
        history = [p.value for p in points[:-1]][-TREND_WINDOW:]
        check = check_value(metric, points[-1].value, history, direction=direction)
    return MetricTrend(metric=metric, stat=stat, points=tuple(points), check=check)


def compute_trends(
    store: RunStore,
    metrics: Sequence[str],
    runs: Optional[Sequence[RunRow]] = None,
    stat: str = "auto",
    direction: str = "above",
) -> List[MetricTrend]:
    """:func:`compute_trend` for each metric, sharing the run selection."""
    rows = store.runs() if runs is None else list(runs)
    return [
        compute_trend(store, metric, runs=rows, stat=stat, direction=direction)
        for metric in metrics
    ]


def render_trends(trends: Sequence[MetricTrend]) -> str:
    """Trajectories + verdicts as deterministic text."""
    lines: List[str] = []
    failures = 0
    for trend in trends:
        values = " ".join(f"{p.value:g}" for p in trend.points)
        lines.append(
            f"trend {trend.metric} [{trend.stat}]: "
            f"{len(trend.points)} point(s): {values}"
        )
        if trend.check is None:
            lines.append(
                "  no gate verdict (not enough prior points) -- informational pass"
            )
        else:
            lines.append("  " + trend.check.describe())
            if trend.check.failed:
                failures += 1
    lines.append(
        f"trend: {failures} regression(s) across {len(trends)} metric(s)"
        if failures
        else f"trend: ok ({len(trends)} metric(s))"
    )
    return "\n".join(lines)
