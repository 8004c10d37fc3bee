"""The benchmark's metric catalogue, its summary statistics and ``compare``.

Every metric the harness reports is declared once here, with its unit, its
direction and — for end-to-end metrics — the share of the base median by
which it may worsen before a change counts as a regression.  Metrics marked
``contract`` are the ones ``BENCHMARK.json`` lists (the test suite checks
that the two agree); the rest apply to one workload only, or read zero on
workloads that never reach their layer, so they appear in ``report.json``
but not in the one-line result.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "E2E",
    "LAYER",
    "METRICS",
    "NAME_RE",
    "Metric",
    "by_name",
    "compare_reports",
    "merge_reports",
    "summarize",
    "verdict",
]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

E2E = "e2e"
LAYER = "layer"


@dataclass(frozen=True)
class Metric:
    """One reported number: what it is, and which way is better."""

    name: str
    unit: str
    kind: str
    better: str = "lower"
    #: End-to-end only: allowed worsening, as a share of the base median.
    bound: Optional[float] = None
    #: Listed in ``BENCHMARK.json`` (reported on every workload).
    contract: bool = True
    #: Workloads the metric applies to; empty means every workload.
    workloads: Tuple[str, ...] = ()

    @property
    def exact(self) -> bool:
        """Counts repeat exactly for a seed, so compare them exactly."""
        return self.unit == "count"


def _layer(name: str, unit: str, contract: bool = True, better: str = "lower") -> Metric:
    return Metric(name, unit, LAYER, better=better, contract=contract)


METRICS: Tuple[Metric, ...] = (
    # End to end: what a user of the program waits for or pays.
    Metric("wall_s", "s", E2E, bound=0.15),
    Metric("cpu_s", "s", E2E, bound=0.15),
    Metric("setup_s", "s", E2E, bound=0.25),
    Metric("peak_rss_mb", "MiB", E2E, bound=0.1),
    # A replay is a few milliseconds of cache-file reads, which the host's
    # CPU speed explains less well: its run medians spread by 13 %.
    Metric("replay_s", "s", E2E, bound=0.25, contract=False, workloads=("sweep-cache",)),
    # Zero whenever the run is correct, so it is reported through the
    # result line's attempted/failed counts instead; any increase is worse.
    Metric("failed_frac", "ratio", E2E, bound=0.0, contract=False),
    # Per layer, from the traced rep.
    _layer("import.cli_s", "s"),
    _layer("import.modules", "count"),
    _layer("import.interpreter_s", "s"),
    _layer("events.dispatched", "count"),
    _layer("events.run_s", "s"),
    _layer("events.self_s", "s"),
    _layer("events.host_us_per_event", "us"),
    _layer("cluster.set_utilization.calls", "count"),
    _layer("cluster.set_utilization_s", "s"),
    _layer("cluster.node_updates", "count"),
    _layer("cluster.power_query.calls", "count"),
    _layer("cluster.power_query_s", "s", contract=False),
    _layer("power.signal_breakpoints", "count"),
    _layer("power.meter_read.calls", "count"),
    _layer("power.meter_read_s", "s"),
    _layer("power.aligned_sum_s", "s"),
    _layer("storage.write.calls", "count"),
    _layer("storage.write_s", "s"),
    _layer("storage.read.calls", "count"),
    _layer("storage.read_s", "s"),
    _layer("storage.bytes_written_gb", "GB"),
    _layer("storage.metadata_ops", "count"),
    _layer("pipelines.cells", "count"),
    _layer("pipelines.cell_s_p50", "s"),
    _layer("pipelines.cell_s_p75", "s"),
    _layer("exec.map_s", "s"),
    _layer("exec.cache_put.calls", "count"),
    _layer("exec.cache_put_s", "s", contract=False),
    _layer("exec.cache_mb", "MiB"),
    _layer("exec.cache_get.calls", "count"),
    _layer("exec.cache_get_s", "s", contract=False),
    _layer("exec.cache_hit_ratio", "ratio", contract=False, better="higher"),
    _layer("core.calibrate_s", "s", contract=False),
    _layer("core.whatif_s", "s", contract=False),
    _layer("obs.overhead_ratio", "ratio", contract=False),
    _layer("obs.jsonl_write.calls", "count"),
    _layer("obs.jsonl_write_s", "s", contract=False),
    _layer("obs.probe_s", "s", contract=False),
    _layer("obs.watchdog_s", "s", contract=False),
    _layer("obs.session_close_s", "s", contract=False),
    _layer("obs.timeline_samples", "count"),
    _layer("obs.events_mb", "MiB"),
    _layer("obs.timeline_mb", "MiB"),
    _layer("faults.injected", "count"),
    _layer("faults.recoveries", "count"),
    _layer("faults.checkpoints", "count"),
    _layer("scenario.load_s", "s", contract=False),
    _layer("trace.spans", "count", contract=False),
    _layer("trace.overhead_ratio", "ratio"),
    _layer("trace.attributed_frac", "ratio", better="higher"),
)


def by_name() -> Dict[str, Metric]:
    """The catalogue keyed by metric name."""
    return {metric.name: metric for metric in METRICS}


# ---------------------------------------------------------------- statistics

#: A tail percentile is reported only when this many samples lie beyond it.
TAIL_SAMPLES = 10


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles, count, and the highest well-supported percentile.

    The percentile is the highest one with at least ten samples beyond it;
    with too few samples for any percentile above the median, ``tail`` is
    ``None`` and the count says why.
    """
    in_order = [float(v) for v in values]
    values = sorted(in_order)
    n = len(values)
    if n == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    tail = None
    if n > 2 * TAIL_SAMPLES:
        # Nearest-rank percentile p sits at rank ceil(p*n/100); keep
        # n - rank >= TAIL_SAMPLES.
        pct = (100 * (n - TAIL_SAMPLES)) // n
        tail = {"pct": pct, "value": values[math.ceil(pct * n / 100) - 1]}
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": n,
        "tail": tail,
        # In run order: compare pairs the i-th samples of two reports.
        "samples": in_order,
    }


# ------------------------------------------------------------------- compare

WORSE = "worse"
NO_WORSE = "no worse"
BETTER = "better"
UNRESOLVED = "unresolved"
MATCH = "match"
MISMATCH = "mismatch"

#: Fewest sample pairs on which a gain may be claimed.
MIN_PAIRS = 10


def _is_better(metric: Metric, a: float, b: float) -> bool:
    """``a`` reads better than ``b``."""
    return a < b if metric.better == "lower" else a > b


def verdict(metric: Metric, base: Sequence[float], change: Sequence[float]) -> Tuple[str, dict]:
    """Verdict of ``change`` against ``base`` for one end-to-end metric.

    * ``better`` — the gain rule: over at least ten index-paired samples,
      the change wins at least nine tenths of the pairs (ties count for
      neither side) and the medians differ by more than the base's
      interquartile range;
    * ``unresolved`` — the base's quartile spread, as a share of its
      median, is wider than the bound, unless every change sample reads
      better than every base sample;
    * ``worse`` — the change median is worse than the base median by more
      than the bound;
    * ``no worse`` — otherwise.
    """
    b, c = summarize(base), summarize(change)
    pairs = list(zip(base, change))
    wins = sum(1 for x, y in pairs if _is_better(metric, y, x))
    diff = c["value"] - b["value"]
    if metric.better == "higher":
        diff = -diff
    iqr = b["q3"] - b["q1"]
    scale = abs(b["value"]) or 1.0
    detail = {
        "base": b["value"], "change": c["value"], "worse_by": diff / scale,
        "spread": iqr / scale, "wins": wins, "pairs": len(pairs),
    }
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and -diff > iqr:
        return BETTER, detail
    all_better = all(_is_better(metric, y, x) for x in base for y in change)
    if iqr / scale > metric.bound and not all_better:
        return UNRESOLVED, detail
    if diff / scale > metric.bound:
        return WORSE, detail
    return NO_WORSE, detail


def merge_reports(reports: List[dict]) -> dict:
    """Several runs of one side as one report.

    Each end-to-end metric's samples become the runs' medians, in the
    order given, so ``compare`` pairs the i-th run of each side.  Counts
    are the first run's.
    """
    if len(reports) == 1:
        return reports[0]
    names = set.intersection(*(set(r["workloads"]) for r in reports))
    merged = {"seed": [r["seed"] for r in reports], "workloads": {}}
    for name in sorted(names):
        runs = [r["workloads"][name] for r in reports]
        metric_names = set.intersection(*(set(w["e2e"]) for w in runs))
        merged["workloads"][name] = {
            "e2e": {m: dict(summarize([w["e2e"][m]["value"] for w in runs]),
                            unit=runs[0]["e2e"][m]["unit"])
                    for m in sorted(metric_names)},
            "layer": runs[0].get("layer", {}),
        }
    return merged


def compare_reports(base: dict, change: dict) -> Tuple[List[dict], bool]:
    """Rows of verdicts for every workload and metric; ``ok`` is False on
    any ``worse`` or count ``mismatch``."""
    catalogue = by_name()
    rows: List[dict] = []
    ok = True
    for name in sorted(set(base["workloads"]) & set(change["workloads"])):
        bw, cw = base["workloads"][name], change["workloads"][name]
        for metric_name in sorted(set(bw["e2e"]) & set(cw["e2e"])):
            metric = catalogue[metric_name]
            bs, cs = bw["e2e"][metric_name], cw["e2e"][metric_name]
            if metric.bound == 0.0:
                worse = cs["value"] > bs["value"]
                row = {"verdict": WORSE if worse else NO_WORSE,
                       "detail": {"base": bs["value"], "change": cs["value"]}}
            else:
                v, detail = verdict(metric, bs["samples"], cs["samples"])
                row = {"verdict": v, "detail": detail}
            row.update(workload=name, metric=metric_name, unit=metric.unit,
                       base=bs, change=cs)
            ok = ok and row["verdict"] != WORSE
            rows.append(row)
        if base.get("seed") != change.get("seed"):
            continue
        for metric_name in sorted(set(bw.get("layer", {})) & set(cw.get("layer", {}))):
            metric = catalogue.get(metric_name)
            if metric is None or not metric.exact:
                continue
            bv, cv = bw["layer"][metric_name]["value"], cw["layer"][metric_name]["value"]
            row = {"workload": name, "metric": metric_name, "unit": metric.unit,
                   "verdict": MATCH if bv == cv else MISMATCH,
                   "detail": {"base": bv, "change": cv}}
            ok = ok and bv == cv
            rows.append(row)
    return rows, ok
