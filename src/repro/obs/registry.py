"""The process-wide metrics registry: counters, gauges and histograms.

Zero-dependency, deliberately small.  A registry holds *families* keyed by
metric name; each family holds labelled *series* (children), Prometheus
style::

    reg = MetricsRegistry()
    reg.counter("repro_storage_writes_total").inc()
    reg.histogram("repro_pipeline_phase_seconds", phase="viz").observe(3.2)
    snap = reg.snapshot()          # plain nested dict, JSON-safe
    reg.reset()                    # tests start from a clean slate

Metric names must follow the ``repro_<layer>_<name>_<unit>`` convention
(:mod:`repro.obs.naming`); violations raise at creation time.  Histograms
use *fixed* bucket bounds chosen at family creation, so observation is O(len
buckets) with no allocation.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.naming import validate_metric_name

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
    "default_registry",
]

#: Default histogram bucket upper bounds (seconds-oriented, wide enough for
#: both wall-clock phases and simulated campaign phases).  ``+inf`` implied.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0, 3600.0, 86400.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]

_INF = float("inf")


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def bucket_quantile(
    cumulative: Sequence[Tuple[float, int]], q: float
) -> float:
    """Quantile ``q`` estimated from ``(upper_bound, cumulative_count)`` pairs.

    The Prometheus ``histogram_quantile`` estimator: locate the bucket the
    rank falls into and interpolate linearly inside it, taking the bucket's
    lower edge from the previous bound (0 for the first bucket — the
    project's histograms record non-negative quantities).  A rank landing
    in the ``+inf`` overflow bucket returns the last finite bound, the only
    honest point estimate available.  ``nan`` for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
    if not cumulative:
        return float("nan")
    total = cumulative[-1][1]
    if total == 0:
        return float("nan")
    rank = q * total
    lower = 0.0
    prev_count = 0
    for bound, count in cumulative:
        if count >= rank and count > prev_count:
            if bound == float("inf"):
                return lower
            return lower + (bound - lower) * (rank - prev_count) / (
                count - prev_count
            )
        if bound != float("inf"):
            lower = bound
        prev_count = count
    return lower


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: Dict[str, str]) -> None:
        self.labels = dict(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be finite and >= 0)."""
        # NaN and inf too: either would poison the counter for good.
        if not 0 <= amount < _INF:
            raise ConfigurationError(
                f"counter increment must be finite and >= 0, got {amount}"
            )
        self.value += float(amount)


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: Dict[str, str]) -> None:
        self.labels = dict(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.value -= float(amount)


class Histogram:
    """Fixed-bucket histogram with cumulative-count exposition."""

    __slots__ = ("labels", "bounds", "bucket_counts", "sum", "count")

    def __init__(self, labels: Dict[str, str], bounds: Sequence[float]) -> None:
        self.labels = dict(labels)
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # last = +inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (must be finite and >= 0)."""
        value = float(value)
        # A NaN would land in the first bucket and turn the sum into NaN.
        if not 0 <= value < _INF:
            raise ConfigurationError(
                f"histogram observation must be finite and >= 0, got {value}"
            )
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Quantile ``q`` by linear interpolation within the fixed buckets.

        See :func:`bucket_quantile` for the estimator; ``nan`` before the
        first observation.
        """
        return bucket_quantile(self.cumulative(), q)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All series sharing one metric name."""

    __slots__ = ("name", "kind", "help", "bounds", "series", "_by_items")

    def __init__(self, name: str, kind: str, help: str, bounds: Optional[Sequence[float]]) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.bounds = tuple(bounds) if bounds is not None else None
        self.series: Dict[_LabelKey, object] = {}
        #: Series by a text-only label set's items in the order given, so
        #: that a label set is sorted into its key only when first seen.
        self._by_items: Dict[tuple, object] = {}

    def child(self, labels: Dict[str, str]):
        items = tuple(labels.items())
        metric = self._by_items.get(items)
        if metric is not None:
            return metric
        key = _label_key(labels)
        metric = self.series.get(key)
        if metric is None:
            if self.kind == "histogram":
                metric = Histogram(labels, self.bounds or DEFAULT_BUCKETS)
            else:
                metric = _KINDS[self.kind](labels)
            self.series[key] = metric
        # Only text: items equal as tuples can differ in text (1 == True).
        if all(type(k) is str and type(v) is str for k, v in items):
            self._by_items[items] = metric
        return metric


class MetricsRegistry:
    """A named collection of metric families with snapshot/reset semantics."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -------------------------------------------------------------- creation

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        bounds: Optional[Sequence[float]] = None,
    ) -> _Family:
        family = self._families.get(name)
        if family is None:
            validate_metric_name(name)
            family = _Family(name, kind, help, bounds)
            self._families[name] = family
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} is a {family.kind}, requested as {kind}"
            )
        return family

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """The counter series for ``name`` + ``labels`` (created on first use)."""
        return self._family(name, "counter", help).child(labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """The gauge series for ``name`` + ``labels``."""
        return self._family(name, "gauge", help).child(labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        help: str = "",
        **labels: str,
    ) -> Histogram:
        """The histogram series for ``name`` + ``labels``.

        ``buckets`` (ascending upper bounds, ``+inf`` implied) is fixed by
        the first call that creates the family; later calls must pass the
        same bounds or ``None``.
        """
        if buckets is not None and sorted(buckets) != list(buckets):
            raise ConfigurationError(f"histogram buckets must ascend: {buckets}")
        family = self._family(name, "histogram", help, bounds=buckets)
        if buckets is not None and family.bounds is not None \
                and tuple(buckets) != family.bounds:
            raise ConfigurationError(
                f"metric {name!r} already has buckets {family.bounds}"
            )
        return family.child(labels)

    # --------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._families)

    def families(self) -> Iterator[_Family]:
        """Families in name order (for exposition)."""
        for name in sorted(self._families):
            yield self._families[name]

    def snapshot(self) -> Dict[str, dict]:
        """The whole registry as a plain, JSON-safe nested dict."""
        out: Dict[str, dict] = {}
        for family in self.families():
            series = []
            for metric in family.series.values():
                if isinstance(metric, Histogram):
                    series.append(
                        {
                            "labels": dict(metric.labels),
                            "count": metric.count,
                            "sum": metric.sum,
                            "buckets": [
                                ["+Inf" if le == float("inf") else le, n]
                                for le, n in metric.cumulative()
                            ],
                        }
                    )
                else:
                    series.append(
                        {"labels": dict(metric.labels), "value": metric.value}
                    )
            out[family.name] = {"kind": family.kind, "series": series}
        return out

    def merge(self, snapshot: Dict[str, dict]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Counters and histogram contents add; gauges take the incoming value
        (last write wins, matching in-order shard merging).  Families are
        created on demand; kind or bucket-bound mismatches raise, since a
        shard disagreeing with its parent about a metric's shape is a bug.
        """
        for name in sorted(snapshot):
            data = snapshot[name]
            kind = str(data.get("kind", ""))
            if kind not in _KINDS:
                raise ConfigurationError(
                    f"cannot merge metric {name!r} of unknown kind {kind!r}"
                )
            # Create the family even when the snapshot carries no series yet
            # — dropping it would make the merged exposition lose the
            # family's TYPE declaration (and, for histograms, its zero
            # _sum/_count baseline), leaving scrape deltas ill-defined.
            self._family(name, kind, "")
            for series in data.get("series", []):
                labels = {
                    str(k): str(v) for k, v in (series.get("labels") or {}).items()
                }
                if kind == "counter":
                    self._family(name, kind, "").child(labels).inc(
                        float(series.get("value", 0.0))
                    )
                elif kind == "gauge":
                    self._family(name, kind, "").child(labels).set(
                        float(series.get("value", 0.0))
                    )
                else:
                    buckets = series.get("buckets") or []
                    bounds = tuple(
                        float(le) for le, _ in buckets if le != "+Inf"
                    )
                    family = self._family(name, kind, "", bounds=bounds or None)
                    hist = family.child(labels)
                    if bounds and bounds != hist.bounds:
                        raise ConfigurationError(
                            f"metric {name!r} bucket bounds {bounds} do not "
                            f"match existing {hist.bounds}"
                        )
                    if len(buckets) != len(hist.bucket_counts):
                        raise ConfigurationError(
                            f"metric {name!r} has {len(buckets)} buckets in the "
                            f"snapshot but {len(hist.bucket_counts)} here"
                        )
                    previous = 0
                    for i, (_, cumulative) in enumerate(buckets):
                        hist.bucket_counts[i] += int(cumulative) - previous
                        previous = int(cumulative)
                    hist.sum += float(series.get("sum", 0.0))
                    hist.count += int(series.get("count", 0))

    def reset(self) -> None:
        """Drop every family — tests start from a clean registry."""
        self._families.clear()


#: The process-wide registry used by the instrumentation helpers.
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT
