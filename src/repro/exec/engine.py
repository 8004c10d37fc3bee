"""The experiment-execution engine: fan-out, memoization, supervision.

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

Every task runs supervised, with the failure semantics a real cluster
sweep needs — the same checkpoint/restart economics the paper models for
the simulated platform (Eq. 4), applied to our own harness.  Each request
runs on a fresh platform, so a task is a pure function of its request and
retrying or replaying it is always safe.  The
:class:`~repro.exec.supervise.TaskPolicy` sets the limits:

* **Deadlines** — every pooled task gets a wall-clock deadline; a hung
  worker is terminated, the pool respawned and the task re-attempted.
* **Worker-crash recovery** — a worker dying mid-task (segfault,
  ``os._exit``, OOM kill) surfaces as ``BrokenProcessPool``; the engine
  respawns the pool, requeues in-flight tasks, and isolates suspects so a
  single *poison* task is identified and quarantined after
  ``max_worker_crashes`` strikes instead of livelocking the sweep.
* **Bounded retries** — transient errors re-attempt under the frozen
  :class:`~repro.faults.retry.RetryPolicy` machinery: a hard attempt
  ceiling and exponential backoff with deterministic per-task jitter
  (seeded from :meth:`RunRequest.task_seed`).
* **Resumable sweeps** — an append-only
  :class:`~repro.exec.supervise.SweepJournal` records each request digest
  and outcome as it settles, so ``resume`` replays completed work through
  the verified cache and re-runs only the failures.
* **Graceful degradation** — exhausted tasks become structured failure
  records on :class:`~repro.exec.api.RunResult` (error kind, per-attempt
  elapsed times) under the ``skip`` / ``serial-fallback`` fail policies, or
  raise :class:`~repro.errors.SweepError` under ``abort``, the default.

Supervision incidents flow into ``repro_exec_*`` counters, an ``exec``
timeline sample per incident, and the
:func:`~repro.obs.watch.default_exec_rules` watchdog (``exec_retry_storm``,
``exec_worker_crash``).  A crash-free sweep has no incident, so its results
and telemetry are byte-identical to a serial run.

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
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import List, Optional, Sequence, Union

from repro import obs
from repro.errors import ConfigurationError, SweepError
from repro.exec.api import RunRequest, RunResult, build_pipeline
from repro.exec.cache import DiskCache
from repro.exec.supervise import (
    FAIL_ABORT,
    FAIL_SERIAL,
    SweepJournal,
    TaskPolicy,
    _apply_chaos,
)
from repro.faults.retry import DEFAULT_RETRYABLE
from repro.obs.naming import alert_metric_name
from repro.obs.telemetry import SHARDS_DIRNAME, TelemetrySession
from repro.obs.trace import TraceContext
from repro.obs.watch import Watchdog, default_exec_rules

__all__ = ["ExecutionEngine", "execute_request", "supervised_task"]

#: Floor on a deadline wait so an already-late task still gets collected.
_MIN_WAIT_SECONDS = 0.05


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
    """Execute one request in this process.

    Top-level (hence picklable), builds the pipeline from the request's
    registry name, seeds the RNGs, and routes through the unified
    :meth:`~repro.pipelines.base.Pipeline.execute` entry point.
    """
    _seed_rngs(request)
    pipeline = build_pipeline(request)
    return pipeline.execute(request)


def supervised_task(request: RunRequest, task_index: int = -1) -> RunResult:
    """The pool's task function: the chaos hook, then :func:`execute_request`.

    The :data:`~repro.exec.supervise.CHAOS_ENV` failure-injection hook runs
    *only* here, in pool workers, so injected crashes can never take down
    the supervising parent (or an inline serial fallback).
    """
    _apply_chaos(task_index)
    return execute_request(request)


class _TaskState:
    """Mutable supervision bookkeeping for one pending task."""

    __slots__ = (
        "index",
        "task_index",
        "request",
        "key",
        "attempts",
        "crashes",
        "_rng",
        "submit_t",
        "attempt_log",
    )

    def __init__(
        self, index: int, task_index: int, request: RunRequest, key: Optional[str]
    ) -> None:
        self.index = index            # slot in the results list
        self.task_index = task_index  # submission order (trace + chaos id)
        self.request = request
        self.key = key
        self.attempts = 0
        self.crashes = 0
        self._rng: Optional[random.Random] = None
        self.submit_t = 0.0
        self.attempt_log: List[dict] = []

    @property
    def rng(self) -> random.Random:
        """Deterministic backoff jitter, a pure function of the request.

        Seeded on first use: a task that never retries never hashes its
        request for it.
        """
        if self._rng is None:
            self._rng = random.Random(self.request.task_seed())
        return self._rng

    @property
    def digest(self) -> str:
        """The task's journal id: its cache key, or an unversioned one."""
        return self.key if self.key is not None else self.request.cache_key("unversioned")

    def note_attempt(self, kind: str, error: str) -> None:
        self.attempts += 1
        # Elapsed wall time is a diagnostic only: failure records are
        # excluded from identity_dict / bit-identity comparisons.
        elapsed = time.monotonic() - self.submit_t
        self.attempt_log.append(
            {"kind": kind, "error": error, "elapsed_seconds": elapsed}
        )


class ExecutionEngine:
    """Runs requests inline, over a process pool, or out of the cache.

    Every task is supervised by ``policy`` (default :class:`TaskPolicy`):
    deadline, retries, poison quarantine and fail policy.  ``journal`` (a
    path or a :class:`SweepJournal`) records every settled task; with
    ``resume``, the tasks it records as done replay from ``cache``.
    ``sleeper`` replaces the backoff sleep and ``watch_rules`` the incident
    watchdog's rule set (test hooks).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[DiskCache] = None,
        policy: Optional[TaskPolicy] = None,
        journal: Union[None, str, SweepJournal] = None,
        resume: bool = False,
        sleeper=None,
        watch_rules=None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1: {max_workers}")
        self.max_workers = max_workers
        self.cache = cache
        self.policy = policy if policy is not None else TaskPolicy()
        self.journal = SweepJournal(journal) if isinstance(journal, str) else journal
        self.resume = resume
        if resume and self.journal is None:
            raise ConfigurationError("resume needs a journal path")
        if resume and cache is None:
            raise ConfigurationError(
                "resume needs a cache: completed results replay from it"
            )
        #: Production sleeps real wall time between retry rounds
        #: (deterministically jittered via RetryPolicy).
        self._sleep = sleeper if sleeper is not None else time.sleep
        #: Cumulative tallies across this engine's lifetime.
        self.tasks_executed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.retries = 0
        self.worker_crashes = 0
        self.deadline_expiries = 0
        self.quarantined = 0
        self.pool_restarts = 0
        self.resumed_skips = 0
        self.serial_fallbacks = 0
        #: Structured failure records of tasks that exhausted supervision.
        self.failures: List[dict] = []
        self._watchdog = Watchdog(
            default_exec_rules() if watch_rules is None else watch_rules
        )
        self._incidents = 0
        self._workers = 1

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

        With a journal, every settled task is recorded as it settles (so a
        killed sweep leaves a half-finished journal a later ``resume`` run
        picks up); with ``resume``, completed digests replay from the
        verified cache and only failures re-run.
        """
        requests = list(requests)
        journal_done: set = set()
        if self.resume:
            journal_done = {
                digest
                for digest, rec in SweepJournal.load(self.journal.path).items()
                if rec.get("status") == "done"
            }
        if self.journal is not None:
            code = self.cache.code_version if self.cache is not None else "unversioned"
            self.journal.begin(len(requests), code, label=self.journal.label)
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
        if self.journal is not None:
            for index, result in enumerate(results):
                if result.engine == "cache":
                    self.journal.record(
                        index=index,
                        digest=result.cache_key,
                        status="done",
                        attempts=0,
                        origin="cache",
                    )
                    if result.cache_key in journal_done:
                        self.resumed_skips += 1
                        obs.counter("repro_exec_resumed_skips_total")
        self._record_session()
        return results

    # -------------------------------------------------------------- internals

    def _cache_key(self, request: RunRequest) -> Optional[str]:
        if self.cache is None or not request.cacheable:
            return None
        return request.cache_key(self.cache.code_version)

    def _run_inline(self, pending: list, results: list) -> None:
        """Execute the pending tasks one by one in this process.

        No deadline enforcement — an in-process task cannot be preempted;
        use workers for deadline coverage.  The chaos hook never applies
        inline, so injected crashes cannot kill the engine.
        """
        for task_index, (index, request, key) in enumerate(pending):
            state = _TaskState(index, task_index, request, key)
            for attempt in range(self.policy.retry.max_attempts):
                state.submit_t = time.monotonic()
                try:
                    result = execute_request(request)
                except Exception as exc:
                    state.note_attempt(type(exc).__name__, str(exc))
                    if self._retryable(exc) and attempt + 1 < self.policy.retry.max_attempts:
                        self._note_retry(state, "exception")
                        self._backoff([state])
                        continue
                    self._fail(
                        state,
                        "exception",
                        f"{type(exc).__name__}: {exc}",
                        results,
                        cause=exc,
                    )
                    break
                self._settle_success(state, result, results, None, pooled=False)
                break

    def _run_pool(self, pending: list, results: list) -> None:
        """Pooled execution with crash recovery, deadlines and quarantine."""
        states = [
            _TaskState(index, task_index, request, key)
            for task_index, (index, request, key) in enumerate(pending)
        ]
        self._workers = min(self.max_workers, len(pending))
        pool: Optional[ProcessPoolExecutor] = None
        work = states
        first_round = True
        try:
            while work:
                retry_next: List[_TaskState] = []
                # After any pool breakage, suspects (tasks that were in
                # flight during a crash) run one at a time: a further crash
                # then attributes to exactly one request, so poison tasks
                # are identified without condemning innocent bystanders.
                suspects = [] if first_round else [s for s in work if s.crashes > 0]
                rest = [s for s in work if s not in suspects]
                for state in suspects:
                    pool = self._ensure_pool(pool)
                    pool = self._run_batch(pool, [state], results, retry_next)
                if rest:
                    pool = self._ensure_pool(pool)
                    pool = self._run_batch(pool, rest, results, retry_next)
                first_round = False
                work = retry_next
                if work:
                    self._backoff(work)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _ensure_pool(self, pool: Optional[ProcessPoolExecutor]) -> ProcessPoolExecutor:
        if pool is not None:
            return pool
        return ProcessPoolExecutor(max_workers=self._workers)

    def _respawn(self) -> None:
        self.pool_restarts += 1
        obs.counter("repro_exec_pool_restarts_total")

    def _submit(self, pool: ProcessPoolExecutor, state: _TaskState, session):
        state.submit_t = time.monotonic()
        return pool.submit(
            supervised_task,
            self._with_trace(state.request, session, state.task_index),
            state.task_index,
        )

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

    def _run_batch(
        self,
        pool: ProcessPoolExecutor,
        batch: List[_TaskState],
        results: list,
        retry_next: List[_TaskState],
    ) -> Optional[ProcessPoolExecutor]:
        """Submit a batch, collect in submission order, survive breakage.

        Collecting in submission order, whichever worker finishes first,
        merges the workers' telemetry shards in that order too, so the
        parent's event stream is byte-identical to an inline run.
        """
        session = obs.active()
        futures = [self._submit(pool, state, session) for state in batch]
        broken = None  # None | "deadline" | "crash"
        for state, future in zip(batch, futures):
            if broken is not None:
                # The pool died while this future was outstanding: harvest
                # it if it finished in time.  Otherwise, a deadline kill has
                # a known culprit — collateral tasks requeue penalty-free —
                # while a worker crash has an unknown one, so everything in
                # flight becomes a crash suspect (isolation exonerates the
                # innocent next round).
                if (
                    future.done()
                    and not future.cancelled()
                    and future.exception(timeout=0) is None
                ):
                    self._settle_success(
                        state, future.result(timeout=0), results, session
                    )
                elif broken == "deadline":
                    self._note_interrupted(state, retry_next)
                else:
                    self._note_crash(state, results, retry_next)
                continue
            try:
                result = future.result(timeout=self._remaining(state))
            except FuturesTimeoutError:
                self._note_deadline(state, results, retry_next)
                self._kill_pool(pool)
                pool = None
                broken = "deadline"
            except BrokenProcessPool:
                self._note_crash(state, results, retry_next)
                broken = "crash"
            except Exception as exc:
                self._note_task_error(state, exc, results, retry_next)
            else:
                self._settle_success(state, result, results, session)
        if broken is not None:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            self._respawn()
            return None
        return pool

    # -------------------------------------------------------------- settling

    def _remaining(self, state: _TaskState) -> Optional[float]:
        if self.policy.deadline_seconds is None:
            return None
        left = state.submit_t + self.policy.deadline_seconds - time.monotonic()
        return max(_MIN_WAIT_SECONDS, left)

    def _kill_pool(self, pool: ProcessPoolExecutor) -> None:
        """Terminate the pool's workers (the only way to evict a hung task)."""
        try:
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.terminate()
                except OSError:
                    continue
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            # Teardown of an already-broken pool must never mask the
            # supervision decision that triggered it.
            pass

    def _settle_success(
        self,
        state: _TaskState,
        result: RunResult,
        results: list,
        session,
        pooled: bool = True,
    ) -> None:
        if pooled:
            if session is None:
                session = obs.active()
            if result.telemetry is not None:
                if session is not None:
                    session.merge_shard(result.telemetry)
                result = replace(result, telemetry=None)
            result = replace(result, engine="pool")
        results[state.index] = self._finish(state.request, state.key, result)
        if state.attempts > 0:
            obs.counter("repro_exec_recoveries_total")
        if self.journal is not None:
            self.journal.record(
                index=state.index,
                digest=state.digest,
                status="done",
                attempts=state.attempts + 1,
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

    def _note_retry(self, state: _TaskState, kind: str) -> None:
        self.retries += 1
        obs.counter("repro_exec_retries_total", kind=kind)
        self._incident()

    def _note_interrupted(
        self, state: _TaskState, retry_next: List[_TaskState]
    ) -> None:
        """Collateral requeue: the pool died for a *known other* task.

        No attempt or crash penalty — this task did nothing wrong and must
        not drift toward its retry ceiling because a neighbor hung.
        """
        obs.counter("repro_exec_interrupted_total")
        retry_next.append(state)

    def _note_crash(
        self, state: _TaskState, results: list, retry_next: List[_TaskState]
    ) -> None:
        state.crashes += 1
        state.note_attempt("worker-crash", "worker process died mid-task")
        self.worker_crashes += 1
        obs.counter("repro_exec_worker_crashes_total")
        if self.journal is not None:
            self.journal.event(
                "worker-crash", index=state.index, crashes=state.crashes
            )
        self._incident()
        if state.crashes >= self.policy.max_worker_crashes:
            self.quarantined += 1
            obs.counter("repro_exec_quarantined_total")
            if self.journal is not None:
                self.journal.event("quarantine", index=state.index)
            self._incident()
            self._fail(
                state,
                "poison",
                f"task crashed its worker {state.crashes} time(s); quarantined",
                results,
                quarantined=True,
            )
        elif state.attempts >= self.policy.retry.max_attempts:
            self._fail(
                state,
                "worker-crash",
                f"worker crashed on every one of {state.attempts} attempt(s)",
                results,
            )
        else:
            self._note_retry(state, "worker-crash")
            retry_next.append(state)

    def _note_deadline(
        self, state: _TaskState, results: list, retry_next: List[_TaskState]
    ) -> None:
        state.note_attempt(
            "deadline",
            f"no result within the {self.policy.deadline_seconds}s deadline",
        )
        self.deadline_expiries += 1
        obs.counter("repro_exec_deadline_expired_total")
        if self.journal is not None:
            self.journal.event("deadline", index=state.index)
        self._incident()
        if state.attempts >= self.policy.retry.max_attempts:
            self._fail(
                state,
                "deadline",
                f"deadline expired on every one of {state.attempts} attempt(s)",
                results,
            )
        else:
            self._note_retry(state, "deadline")
            retry_next.append(state)

    def _note_task_error(
        self,
        state: _TaskState,
        exc: BaseException,
        results: list,
        retry_next: List[_TaskState],
    ) -> None:
        state.note_attempt(type(exc).__name__, str(exc))
        if self._retryable(exc) and state.attempts < self.policy.retry.max_attempts:
            self._note_retry(state, "exception")
            retry_next.append(state)
            return
        self._fail(
            state, "exception", f"{type(exc).__name__}: {exc}", results, cause=exc
        )

    @staticmethod
    def _retryable(exc: BaseException) -> bool:
        """Transient I/O and OS-level failures retry; deterministic
        simulation errors fail fast (re-running a pure function of the
        request would fail identically)."""
        return isinstance(exc, DEFAULT_RETRYABLE + (OSError,))

    def _fail(
        self,
        state: _TaskState,
        kind: str,
        error: str,
        results: list,
        quarantined: bool = False,
        cause: Optional[BaseException] = None,
    ) -> None:
        """Task exhausted supervision: apply the fail policy.

        Under ``abort`` the :class:`SweepError` chains ``cause``, the task's
        own exception (a pooled one carries its worker's traceback), so a
        bug in the simulator still reads as that bug.
        """
        record = {
            "kind": kind,
            "error": error,
            "attempts": list(state.attempt_log),
            "quarantined": quarantined,
        }
        if self.policy.fail_policy == FAIL_SERIAL and kind in ("poison", "worker-crash"):
            # Last resort for infrastructure failures: run the task inline
            # in the parent.  The chaos hook does not apply here; a task
            # that genuinely segfaults native code would take the parent
            # down, which is the documented risk of this policy.
            try:
                result = execute_request(state.request)
            except Exception as exc:
                record["serial_fallback_error"] = f"{type(exc).__name__}: {exc}"
            else:
                self.serial_fallbacks += 1
                obs.counter("repro_exec_serial_fallback_total")
                result = replace(result, engine="serial-fallback")
                results[state.index] = self._finish(state.request, state.key, result)
                if self.journal is not None:
                    self.journal.record(
                        index=state.index,
                        digest=state.digest,
                        status="done",
                        attempts=state.attempts + 1,
                        origin="serial-fallback",
                    )
                return
        self.failures.append(record)
        failure_result = RunResult(
            request=state.request,
            measurement=None,
            cache_key=state.key,
            engine="supervised",
            failure=record,
        )
        results[state.index] = self._finish(state.request, state.key, failure_result)
        if self.journal is not None:
            self.journal.record(
                index=state.index,
                digest=state.digest,
                status="failed",
                attempts=state.attempts,
                error=kind,
            )
        if self.policy.fail_policy == FAIL_ABORT:
            error = SweepError(
                f"task {state.index} failed ({kind}: {error}) under "
                f"fail-policy=abort",
                failures=[record],
            )
            if cause is None:
                raise error
            raise error from cause

    def _backoff(self, states: List[_TaskState]) -> None:
        """Sleep out the longest due backoff (retries wait concurrently).

        Each task's delay comes from the frozen retry policy with jitter
        drawn from the task's own seeded rng, so the backoff schedule is a
        deterministic function of (request, attempt number).
        """
        delays = [
            self.policy.retry.backoff_delay(max(0, s.attempts - 1), s.rng)
            for s in states
        ]
        delay = max(delays, default=0.0)
        if delay > 0.0:
            self._sleep(delay)

    # ------------------------------------------------------------- telemetry

    def _incident(self) -> None:
        """One supervision incident: timeline sample + watchdog sweep.

        Samples land on the incident sequence number (deterministic for a
        given failure pattern) — a crash-free run emits none, keeping its
        telemetry byte-identical to a serial run's.
        """
        self._incidents += 1
        values = {
            "repro_timeline_exec_deadline_expiries_total": float(
                self.deadline_expiries
            ),
            "repro_timeline_exec_quarantined_total": float(self.quarantined),
            "repro_timeline_exec_retries_total": float(self.retries),
            "repro_timeline_exec_worker_crashes_total": float(self.worker_crashes),
        }
        t = float(self._incidents)
        session = obs.active()
        if session is not None:
            session.emit_timeline(
                {"type": "sample", "t": t, "label": "exec", "values": values}
            )
            session.registry.counter(
                "repro_obs_timeline_samples_total", label="exec"
            ).inc()
        for alert in self._watchdog.observe(t, values):
            if session is not None:
                session.event("obs.alert", **alert.to_fields())
                session.registry.counter(
                    alert_metric_name(alert.rule), severity=alert.severity
                ).inc()

    def _record_session(self) -> None:
        """Fold engine, cache and supervision provenance into the active
        manifest config."""
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
            "supervise": {
                "policy": self.policy.to_dict(),
                "journal": None if self.journal is None else self.journal.path,
                "resume": self.resume,
                "retries": self.retries,
                "worker_crashes": self.worker_crashes,
                "deadline_expiries": self.deadline_expiries,
                "quarantined": self.quarantined,
                "pool_restarts": self.pool_restarts,
                "resumed_skips": self.resumed_skips,
                "serial_fallbacks": self.serial_fallbacks,
                "failures": len(self.failures),
            },
        }
