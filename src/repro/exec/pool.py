"""The execution engine's process pool: fan-out, deadlines, crash recovery.

:meth:`~repro.exec.engine.ExecutionEngine.map` imports this module when a
batch has more than one task to run and the engine more than one worker;
an inline or fully cached sweep never loads the pool (``concurrent.futures``,
``multiprocessing``) or the telemetry trace it propagates.

Each task is submitted to a ``ProcessPoolExecutor`` as
:func:`~repro.exec.engine.supervised_task` and collected in submission
order.  A hung task is evicted by killing the pool at its deadline; a worker
dying mid-task breaks the pool, which is respawned with the in-flight tasks
requeued as crash suspects.  Settling a task — the cache, the journal, the
fail policy, the incident watchdog — stays with the engine.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional

from repro import obs
from repro.exec.api import RunRequest
from repro.exec.engine import _TaskState, supervised_task
from repro.obs.telemetry import SHARDS_DIRNAME
from repro.obs.trace import TraceContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.engine import ExecutionEngine
    from repro.obs.sessions import TelemetrySession

__all__ = ["run_pool"]

#: Floor on a deadline wait so an already-late task still gets collected.
_MIN_WAIT_SECONDS = 0.05


def run_pool(engine: "ExecutionEngine", pending: list, results: list) -> None:
    """Pooled execution with crash recovery, deadlines and quarantine."""
    states = [
        _TaskState(index, task_index, request, key)
        for task_index, (index, request, key) in enumerate(pending)
    ]
    workers = min(engine.max_workers, len(pending))
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
                pool = _ensure_pool(pool, workers)
                pool = _run_batch(engine, pool, [state], results, retry_next)
            if rest:
                pool = _ensure_pool(pool, workers)
                pool = _run_batch(engine, pool, rest, results, retry_next)
            first_round = False
            work = retry_next
            if work:
                engine._backoff(work)
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


def _ensure_pool(pool: Optional[ProcessPoolExecutor], workers: int) -> ProcessPoolExecutor:
    if pool is not None:
        return pool
    return ProcessPoolExecutor(max_workers=workers)


def _respawn(engine: "ExecutionEngine") -> None:
    engine.pool_restarts += 1
    obs.counter("repro_exec_pool_restarts_total")


def _submit(pool: ProcessPoolExecutor, state: _TaskState, session):
    state.submit_t = time.monotonic()
    return pool.submit(
        supervised_task,
        _with_trace(state.request, session, state.task_index),
        state.task_index,
    )


def _with_trace(
    request: RunRequest,
    session: Optional["TelemetrySession"],
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
    engine: "ExecutionEngine",
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
    futures = [_submit(pool, state, session) for state in batch]
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
                engine._settle_success(
                    state, future.result(timeout=0), results, session
                )
            elif broken == "deadline":
                _note_interrupted(state, retry_next)
            else:
                _note_crash(engine, state, results, retry_next)
            continue
        try:
            result = future.result(timeout=_remaining(engine, state))
        except FuturesTimeoutError:
            _note_deadline(engine, state, results, retry_next)
            _kill_pool(pool)
            pool = None
            broken = "deadline"
        except BrokenProcessPool:
            _note_crash(engine, state, results, retry_next)
            broken = "crash"
        except Exception as exc:
            _note_task_error(engine, state, exc, results, retry_next)
        else:
            engine._settle_success(state, result, results, session)
    if broken is not None:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        _respawn(engine)
        return None
    return pool


def _remaining(engine: "ExecutionEngine", state: _TaskState) -> Optional[float]:
    if engine.policy.deadline_seconds is None:
        return None
    left = state.submit_t + engine.policy.deadline_seconds - time.monotonic()
    return max(_MIN_WAIT_SECONDS, left)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
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


def _note_interrupted(state: _TaskState, retry_next: List[_TaskState]) -> None:
    """Collateral requeue: the pool died for a *known other* task.

    No attempt or crash penalty — this task did nothing wrong and must
    not drift toward its retry ceiling because a neighbor hung.
    """
    obs.counter("repro_exec_interrupted_total")
    retry_next.append(state)


def _note_crash(
    engine: "ExecutionEngine",
    state: _TaskState,
    results: list,
    retry_next: List[_TaskState],
) -> None:
    state.crashes += 1
    state.note_attempt("worker-crash", "worker process died mid-task")
    engine.worker_crashes += 1
    obs.counter("repro_exec_worker_crashes_total")
    if engine.journal is not None:
        engine.journal.event(
            "worker-crash", index=state.index, crashes=state.crashes
        )
    engine._incident()
    if state.crashes >= engine.policy.max_worker_crashes:
        engine.quarantined += 1
        obs.counter("repro_exec_quarantined_total")
        if engine.journal is not None:
            engine.journal.event("quarantine", index=state.index)
        engine._incident()
        engine._fail(
            state,
            "poison",
            f"task crashed its worker {state.crashes} time(s); quarantined",
            results,
            quarantined=True,
        )
    elif state.attempts >= engine.policy.retry.max_attempts:
        engine._fail(
            state,
            "worker-crash",
            f"worker crashed on every one of {state.attempts} attempt(s)",
            results,
        )
    else:
        engine._note_retry(state, "worker-crash")
        retry_next.append(state)


def _note_deadline(
    engine: "ExecutionEngine",
    state: _TaskState,
    results: list,
    retry_next: List[_TaskState],
) -> None:
    state.note_attempt(
        "deadline",
        f"no result within the {engine.policy.deadline_seconds}s deadline",
    )
    engine.deadline_expiries += 1
    obs.counter("repro_exec_deadline_expired_total")
    if engine.journal is not None:
        engine.journal.event("deadline", index=state.index)
    engine._incident()
    if state.attempts >= engine.policy.retry.max_attempts:
        engine._fail(
            state,
            "deadline",
            f"deadline expired on every one of {state.attempts} attempt(s)",
            results,
        )
    else:
        engine._note_retry(state, "deadline")
        retry_next.append(state)


def _note_task_error(
    engine: "ExecutionEngine",
    state: _TaskState,
    exc: BaseException,
    results: list,
    retry_next: List[_TaskState],
) -> None:
    state.note_attempt(type(exc).__name__, str(exc))
    if engine._retryable(exc) and state.attempts < engine.policy.retry.max_attempts:
        engine._note_retry(state, "exception")
        retry_next.append(state)
        return
    engine._fail(
        state, "exception", f"{type(exc).__name__}: {exc}", results, cause=exc
    )
