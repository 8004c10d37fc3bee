"""The ``repro bench`` runner: the fig3/fig9/fig10 sweep set, metered.

Executes the paper's characterization grid plus the Fig. 9/Fig. 10 cadence
axes through the :class:`~repro.exec.engine.ExecutionEngine` three times —
serial, parallel, cached — verifies the three produce bit-identical
measurements, and emits a machine-readable ``BENCH_exec.json`` (wall times,
speedups, cache stats, creation time and provenance) next to a
human-readable summary; ``repro obs ingest`` records it in the run store
as a ``bench-quick`` or ``bench-full`` run.  A committed
baseline JSON turns the report into a CI gate:
:func:`compare_to_baseline` fails the run on a >20 % speedup regression.

Speedup numbers are machine-dependent, so the parallel gate only applies
when the host has at least the baseline's ``min_cpus`` cores — a laptop or
a single-core container still runs the bench (and the bit-identity checks)
without failing on hardware it doesn't have.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Sequence

from repro import obs
from repro.core.characterization import run_characterization
from repro.core.metrics import IN_SITU, POST_PROCESSING
from repro.errors import ConfigurationError
from repro.exec.api import RunRequest
from repro.exec.cache import DiskCache
from repro.exec.engine import ExecutionEngine
from repro.obs.manifest import SCHEMA_VERSION, collect_provenance
from repro.pipelines.base import PipelineSpec
from repro.pipelines.sampling import SamplingPolicy

__all__ = [
    "FULL_INTERVALS",
    "QUICK_INTERVALS",
    "compare_to_baseline",
    "run_bench",
    "sweep_requests",
    "write_report",
]

#: The fig3 grid (8/24/72) plus nearby fig9/fig10 cadences — small enough
#: for a CI quick gate, large enough to amortize pool start-up.
QUICK_INTERVALS: tuple = (4.0, 8.0, 12.0, 24.0, 48.0, 72.0)

#: The union of the fig3 grid and the full Fig. 9 (1,4,8,24,72,192,384) and
#: Fig. 10 (1,2,4,8,12,24,48,96) sweep axes.
FULL_INTERVALS: tuple = (1.0, 2.0, 4.0, 8.0, 12.0, 24.0, 48.0, 72.0, 96.0, 192.0, 384.0)

#: Default regression tolerance: fail CI when a speedup drops more than
#: 20 % below the committed baseline.
DEFAULT_TOLERANCE = 0.2


def sweep_requests(intervals_hours: Sequence[float]) -> list:
    """Both pipelines at every cadence, as engine-ready requests."""
    base = PipelineSpec()
    return [
        RunRequest(pipeline=name, spec=base.with_sampling(SamplingPolicy(hours)))
        for hours in intervals_hours
        for name in (IN_SITU, POST_PROCESSING)
    ]


def _identical(a: Sequence, b: Sequence) -> bool:
    """Bit-identity of two result batches (deterministic payloads only)."""
    if len(a) != len(b):
        return False
    return all(x.identity_dict() == y.identity_dict() for x, y in zip(a, b))


def run_bench(
    quick: bool = False,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    output_dir: str = os.path.join("benchmarks", "results"),
) -> dict:
    """Run the sweep set serial → parallel → cached and report.

    ``cache_dir=None`` puts the cache inside ``output_dir`` (wiped first so
    the "parallel" phase is a genuine cold run and "cached" a warm one).
    """
    intervals = QUICK_INTERVALS if quick else FULL_INTERVALS
    requests = sweep_requests(intervals)
    n_workers = workers if workers is not None else min(8, os.cpu_count() or 1)
    if n_workers < 1:
        raise ConfigurationError(f"workers must be >= 1: {n_workers}")
    if cache_dir is None:
        cache_dir = os.path.join(output_dir, "exec-cache")
    cache = DiskCache(cache_dir)
    cache.clear()

    serial_engine = ExecutionEngine(max_workers=1)
    t0 = time.perf_counter()
    serial = serial_engine.map(requests)
    serial_seconds = time.perf_counter() - t0
    obs.observe("repro_exec_bench_seconds", serial_seconds, stage="serial")

    parallel_engine = ExecutionEngine(max_workers=n_workers, cache=cache)
    t0 = time.perf_counter()
    parallel = parallel_engine.map(requests)
    parallel_seconds = time.perf_counter() - t0
    obs.observe("repro_exec_bench_seconds", parallel_seconds, stage="parallel")

    t0 = time.perf_counter()
    cached = parallel_engine.map(requests)
    cached_seconds = time.perf_counter() - t0
    obs.observe("repro_exec_bench_seconds", cached_seconds, stage="cached")

    # The paper's derived analyses on top of the (now warm) grid: the fig3
    # characterization study and the fig9/fig10 model sweeps.
    study = run_characterization(
        engine=ExecutionEngine(max_workers=1, cache=cache)
    )
    analyzer = study.analyzer()
    duration = study.spec.ocean.duration_seconds
    fig9 = analyzer.storage_vs_rate(
        intervals_hours=(1.0, 4.0, 8.0, 24.0, 72.0, 192.0, 384.0),
        duration_seconds=duration,
    )
    fig10 = analyzer.energy_vs_rate(
        intervals_hours=(1.0, 2.0, 4.0, 8.0, 12.0, 24.0, 48.0, 96.0),
        duration_seconds=duration,
    )

    report = {
        "schema_version": SCHEMA_VERSION,
        "name": "exec",
        "created_unix": time.time(),
        "provenance": collect_provenance(),
        "quick": quick,
        "workload": {
            "n_tasks": len(requests),
            "intervals_hours": list(intervals),
            "pipelines": [IN_SITU, POST_PROCESSING],
        },
        "workers": n_workers,
        "cpus": os.cpu_count() or 1,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "cached_seconds": cached_seconds,
        "speedup_parallel": serial_seconds / parallel_seconds,
        "speedup_cached": serial_seconds / cached_seconds,
        "identical": {
            "parallel_vs_serial": _identical(parallel, serial),
            "cached_vs_serial": _identical(cached, serial),
        },
        "cache": {
            "entries": len(cache),
            "hits": parallel_engine.cache_hits,
            "misses": parallel_engine.cache_misses,
            "code_version": cache.code_version,
        },
        "fig9_storage_gb": [list(row) for row in fig9],
        "fig10_energy_savings_24h": analyzer.energy_savings(
            interval_hours=24.0, duration_seconds=duration
        ),
        "fig10_rows": [list(row) for row in fig10],
    }
    return report


def write_report(report: dict, output_dir: str) -> str:
    """Write ``BENCH_exec.json`` (and a text summary) atomically."""
    from repro.atomicio import atomic_write_json, atomic_write_text

    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, "BENCH_exec.json")
    atomic_write_json(path, report)
    atomic_write_text(os.path.join(output_dir, "BENCH_exec.txt"), summary(report) + "\n")
    return path


def summary(report: dict) -> str:
    """Human-readable one-screen bench summary."""
    ident = report["identical"]
    cache = report["cache"]
    return "\n".join(
        [
            f"repro bench ({'quick' if report['quick'] else 'full'}): "
            f"{report['workload']['n_tasks']} tasks, "
            f"{report['workers']} worker(s) on {report['cpus']} cpu(s)",
            f"  serial    {report['serial_seconds']:8.2f} s",
            f"  parallel  {report['parallel_seconds']:8.2f} s  "
            f"({report['speedup_parallel']:.2f}x)",
            f"  cached    {report['cached_seconds']:8.2f} s  "
            f"({report['speedup_cached']:.2f}x)",
            f"  identical: parallel={ident['parallel_vs_serial']} "
            f"cached={ident['cached_vs_serial']}",
            f"  cache: {cache['entries']} entries, "
            f"{cache['hits']} hit(s), {cache['misses']} miss(es)",
        ]
    )


def compare_to_baseline(
    report: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list:
    """Regression messages vs a committed baseline (empty = pass).

    Bit-identity must always hold.  Speedup floors apply with ``tolerance``
    slack; the parallel floor is skipped on hosts with fewer than the
    baseline's ``min_cpus`` cores (a speedup a 1-core runner cannot show is
    not a regression).
    """
    problems = []
    for check, ok in report["identical"].items():
        if not ok:
            problems.append(f"bit-identity violated: {check}")
    min_cpus = baseline.get("min_cpus", 2)
    floor = baseline.get("speedup_parallel")
    if floor is not None and report["cpus"] >= min_cpus:
        allowed = floor * (1.0 - tolerance)
        if report["speedup_parallel"] < allowed:
            problems.append(
                f"parallel speedup regressed: {report['speedup_parallel']:.2f}x "
                f"< {allowed:.2f}x (baseline {floor:.2f}x - {tolerance:.0%})"
            )
    floor = baseline.get("speedup_cached")
    if floor is not None:
        allowed = floor * (1.0 - tolerance)
        if report["speedup_cached"] < allowed:
            problems.append(
                f"cached speedup regressed: {report['speedup_cached']:.2f}x "
                f"< {allowed:.2f}x (baseline {floor:.2f}x - {tolerance:.0%})"
            )
    return problems
