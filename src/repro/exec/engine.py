"""The experiment-execution engine: fan-out, memoization, determinism.

:class:`ExecutionEngine` takes :class:`~repro.exec.api.RunRequest` objects
and produces :class:`~repro.exec.api.RunResult` objects three ways:

* **inline** — execute in this process (``max_workers=None`` or ``1``);
* **pool** — fan simulated requests out over a ``ProcessPoolExecutor``.
  Results are collected in *submission order* and every worker seeds its
  RNGs deterministically from the request, so a parallel sweep is
  bit-identical to the same sweep run serially;
* **cache** — replay a prior run from the content-addressed
  :class:`~repro.exec.cache.DiskCache` when the (config, code version,
  seed) hash matches.

Real-mode requests always execute inline and are never cached: their
measurements are wall-clock timings, not deterministic functions of the
request.  Hit/miss/task counters flow through the obs layer and the cache
configuration lands in the active session's manifest config.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Optional, Sequence

from repro import obs
from repro.errors import ConfigurationError
from repro.exec.api import RunRequest, RunResult, build_pipeline
from repro.exec.cache import DiskCache
from repro.obs.telemetry import SHARDS_DIRNAME, TelemetrySession
from repro.obs.trace import TraceContext

__all__ = ["ExecutionEngine", "execute_request"]


def _seed_rngs(request: RunRequest) -> None:
    """Seed the process-global RNGs deterministically for one task.

    The simulated platform draws from its own seeded generators, so this is
    defense-in-depth: any code that reaches for the global ``random`` /
    ``numpy.random`` state sees the same stream serially and in a worker.
    """
    seed = request.task_seed()
    random.seed(seed)
    try:
        import numpy as np

        np.random.seed(seed % 2**32)
    except ImportError:  # pragma: no cover - numpy is a hard dep in practice
        pass


def execute_request(request: RunRequest) -> RunResult:
    """Execute one request in this process (the pool's task function).

    Top-level (hence picklable), builds the pipeline from the request's
    registry name, seeds the RNGs, and routes through the unified
    :meth:`~repro.pipelines.base.Pipeline.execute` entry point.
    """
    _seed_rngs(request)
    pipeline = build_pipeline(request)
    return pipeline.execute(request)


class ExecutionEngine:
    """Runs requests inline, over a process pool, or out of the cache."""

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[DiskCache] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1: {max_workers}")
        self.max_workers = max_workers
        self.cache = cache
        #: Cumulative tallies across this engine's lifetime.
        self.tasks_executed = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------- api

    def run(self, request: RunRequest) -> RunResult:
        """Execute (or replay) a single request."""
        return self.map([request])[0]

    def map(self, requests: Sequence[RunRequest]) -> list:
        """Execute a batch; results are ordered exactly like ``requests``.

        Cache hits are satisfied immediately; the misses run inline (one
        worker) or across the pool, and are stored back.  The output order
        never depends on completion order, so downstream tables and
        manifests are bit-identical however the batch was scheduled.
        """
        requests = list(requests)
        results: list = [None] * len(requests)
        pending: list = []
        for index, request in enumerate(requests):
            # A hit's clock covers its key, the verified read and the unpickle.
            t0 = time.perf_counter()
            key = self._cache_key(request)
            hit = self.cache.get(key) if key is not None else None
            if hit is not None:
                # wall_seconds is a diagnostic only: excluded from cache
                # keys and from bit-identity replay comparisons.
                result = RunResult(  # repro-lint: disable=det-clock
                    request=request,
                    measurement=hit["measurement"],
                    cache_hit=True,
                    cache_key=key,
                    engine="cache",
                    wall_seconds=time.perf_counter() - t0,
                    fault_summary=hit.get("fault_summary"),
                    recoveries=hit.get("recoveries", 0),
                )
                results[index] = result
                self.cache_hits += 1
                obs.counter("repro_exec_cache_hits_total")
                # Replays count as tasks too (labelled), so hit/miss and
                # task tallies reconcile: tasks_total{cached=*} sums to the
                # number of requests.
                obs.counter(
                    "repro_exec_tasks_total",
                    pipeline=request.pipeline,
                    cached="true",
                )
                obs.observe(
                    "repro_exec_task_seconds", result.wall_seconds, cached="true"
                )
            else:
                if key is not None:
                    self.cache_misses += 1
                    obs.counter("repro_exec_cache_misses_total")
                pending.append((index, request, key))

        if len(pending) > 1 and (self.max_workers or 1) > 1:
            self._run_pool(pending, results)
        else:
            self._run_inline(pending, results)
        self._record_session()
        return results

    # -------------------------------------------------------------- internals

    def _cache_key(self, request: RunRequest) -> Optional[str]:
        if self.cache is None or not request.cacheable:
            return None
        return request.cache_key(self.cache.code_version)

    def _run_inline(self, pending: list, results: list) -> None:
        """Execute the pending tasks one by one in this process.

        A hook point: :class:`~repro.exec.supervise.SupervisedExecutor`
        overrides this to convert exceptions into structured failure
        records instead of unwinding the sweep.
        """
        for index, request, key in pending:
            results[index] = self._finish(request, key, execute_request(request))

    def _run_pool(self, pending: list, results: list) -> None:
        workers = min(self.max_workers, len(pending))
        session = obs.active()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                (
                    index,
                    request,
                    key,
                    pool.submit(
                        execute_request,
                        self._with_trace(request, session, task_index),
                    ),
                )
                for task_index, (index, request, key) in enumerate(pending)
            ]
            # Collect in submission order — deterministic regardless of
            # which worker finishes first.  Shards merge in the same order,
            # so the parent's event stream is byte-identical to an inline
            # run of the same batch.
            for index, request, key, future in futures:
                # The unsupervised pool is deliberately deadline-free: a
                # hung worker hangs the sweep (use SupervisedExecutor for
                # deadlines, crash recovery and retries).
                result = replace(future.result(timeout=None), engine="pool")
                if session is not None and result.telemetry is not None:
                    session.merge_shard(result.telemetry)
                if result.telemetry is not None:
                    result = replace(result, telemetry=None)
                results[index] = self._finish(request, key, result)

    @staticmethod
    def _with_trace(
        request: RunRequest,
        session: Optional[TelemetrySession],
        task_index: int,
    ) -> RunRequest:
        """The request as submitted to a worker: trace attached if tracing."""
        if session is None:
            return request
        shard_dir = None
        if session.directory is not None:
            shard_dir = os.path.join(session.directory, SHARDS_DIRNAME)
        return replace(
            request,
            trace=TraceContext(
                trace_id=session.trace_id,
                parent_span_id=session.current_span_id,
                label=session.label,
                task_index=task_index,
                shard_dir=shard_dir,
                timeline=session.timeline,
            ),
        )

    def _finish(self, request: RunRequest, key: Optional[str], result: RunResult) -> RunResult:
        self.tasks_executed += 1
        obs.counter("repro_exec_tasks_total", pipeline=request.pipeline, cached="false")
        obs.observe("repro_exec_task_seconds", result.wall_seconds, cached="false")
        if result.failure is not None:
            # Failed runs carry no measurement and must never be memoized:
            # a later sweep should re-attempt them, not replay the failure.
            obs.counter(
                "repro_exec_task_failures_total",
                pipeline=request.pipeline,
                kind=str(result.failure.get("kind", "unknown")),
            )
            return replace(result, cache_key=key) if key is not None else result
        if key is not None:
            result = replace(result, cache_key=key)
            self.cache.put(
                key,
                {
                    "measurement": result.measurement,
                    "fault_summary": result.fault_summary,
                    "recoveries": result.recoveries,
                },
                meta={"request": request.to_dict()},
            )
        return result

    def _record_session(self) -> None:
        """Fold engine/cache provenance into the active manifest config."""
        session = obs.active()
        if session is None:
            return
        session.config["exec"] = {
            "workers": self.max_workers or 1,
            "cache": (
                None
                if self.cache is None
                else {
                    "directory": self.cache.directory,
                    "code_version": self.cache.code_version,
                    "corrupt_quarantined": self.cache.corrupt_quarantined,
                }
            ),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "tasks_executed": self.tasks_executed,
        }
