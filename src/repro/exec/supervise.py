"""Supervision policy, sweep journal and chaos hook of the execution engine.

:class:`~repro.exec.engine.ExecutionEngine` supervises every task it runs.
This module holds what it works from: :class:`TaskPolicy` (deadline,
retries, poison threshold, fail policy) and :class:`SweepJournal`, the
append-only ``sweep.journal.jsonl`` that makes a sweep resumable.

Chaos hook (tests and the CI ``chaos-exec`` job): setting the
:data:`CHAOS_ENV` environment variable injects failures *inside pool
workers only* — e.g. ``REPRO_EXEC_CHAOS="exit_once=1;dir=/tmp/chaos"``
crashes the worker running submission index 1 exactly once.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.atomicio import append_jsonl_line
from repro.errors import ConfigurationError, TransientIOError
from repro.faults.retry import RetryPolicy

__all__ = [
    "CHAOS_ENV",
    "FAIL_ABORT",
    "FAIL_POLICIES",
    "FAIL_SERIAL",
    "FAIL_SKIP",
    "JOURNAL_FILENAME",
    "SweepJournal",
    "TaskPolicy",
]

#: Fail-policy spellings: abort the sweep on the first exhausted task, skip
#: it (structured failure record in its slot), or fall back to running the
#: task inline in the parent as a last resort.
FAIL_ABORT = "abort"
FAIL_SKIP = "skip"
FAIL_SERIAL = "serial-fallback"
FAIL_POLICIES = (FAIL_ABORT, FAIL_SKIP, FAIL_SERIAL)

#: Default journal filename for resumable sweeps.
JOURNAL_FILENAME = "sweep.journal.jsonl"

#: Journal record layout version.
JOURNAL_SCHEMA_VERSION = 1

#: Environment variable carrying the chaos-injection plan (workers only).
CHAOS_ENV = "REPRO_EXEC_CHAOS"

#: Exit status used by the chaos hook's injected worker crashes.
_CHAOS_EXIT_STATUS = 17

# ------------------------------------------------------------------- policy


def _default_retry() -> RetryPolicy:
    """Supervisor default: 3 attempts, fast seeded-jitter backoff."""
    return RetryPolicy(
        max_attempts=3,
        base_delay_seconds=0.05,
        backoff_factor=2.0,
        max_delay_seconds=1.0,
        jitter=0.25,
    )


@dataclass(frozen=True)
class TaskPolicy:
    """How one sweep's tasks are supervised (pure data, frozen)."""

    #: Per-task wall-clock deadline in seconds, measured from submission
    #: (queueing included); ``None`` disables deadline enforcement.
    deadline_seconds: Optional[float] = None
    #: Attempt ceiling and backoff schedule (the frozen retry machinery
    #: shared with the simulated platform's I/O supervision).
    retry: RetryPolicy = field(default_factory=_default_retry)
    #: Worker crashes a single task may cause before it is quarantined as
    #: poison (one bad request must not livelock the sweep).
    max_worker_crashes: int = 3
    #: What an exhausted task does to the sweep (see :data:`FAIL_POLICIES`).
    fail_policy: str = FAIL_ABORT

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError(
                f"deadline must be positive: {self.deadline_seconds}"
            )
        if self.max_worker_crashes < 1:
            raise ConfigurationError(
                f"max_worker_crashes must be >= 1: {self.max_worker_crashes}"
            )
        if self.fail_policy not in FAIL_POLICIES:
            raise ConfigurationError(
                f"unknown fail policy {self.fail_policy!r}; "
                f"expected one of {FAIL_POLICIES}"
            )

    def to_dict(self) -> dict:
        """JSON-safe form (manifest provenance)."""
        return {
            "deadline_seconds": self.deadline_seconds,
            "max_attempts": self.retry.max_attempts,
            "base_delay_seconds": self.retry.base_delay_seconds,
            "max_worker_crashes": self.max_worker_crashes,
            "fail_policy": self.fail_policy,
        }


# -------------------------------------------------------------- chaos hook


def parse_chaos(spec: str) -> dict:
    """Parse a :data:`CHAOS_ENV` plan.

    Semicolon-separated clauses; index lists are comma-separated submission
    indices (the position in the sweep's non-cached pending order):

    * ``exit=I,J`` — the worker running the task calls ``os._exit`` every
      attempt (a poison task);
    * ``exit_once=I`` — same, but only the first time (requires ``dir=``,
      where a marker file arbitrates "first");
    * ``raise=I`` / ``raise_once=I`` — raise a retryable
      :class:`~repro.errors.TransientIOError` inside the task;
    * ``hang=I`` — sleep ``hang_seconds`` (default 3600) so the task blows
      its deadline;
    * ``dir=PATH`` — marker directory for the ``*_once`` clauses;
    * ``hang_seconds=S`` — how long ``hang`` sleeps.
    """
    plan: dict = {
        "exit": set(),
        "exit_once": set(),
        "raise": set(),
        "raise_once": set(),
        "hang": set(),
        "dir": None,
        "hang_seconds": 3600.0,
    }
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ConfigurationError(f"malformed chaos clause {clause!r}")
        kind, _, value = clause.partition("=")
        kind = kind.strip()
        value = value.strip()
        if kind == "dir":
            plan["dir"] = value
        elif kind == "hang_seconds":
            plan["hang_seconds"] = float(value)
        elif kind in ("exit", "exit_once", "raise", "raise_once", "hang"):
            plan[kind].update(int(v) for v in value.split(",") if v)
        else:
            raise ConfigurationError(f"unknown chaos clause kind {kind!r}")
    needs_dir = plan["exit_once"] or plan["raise_once"]
    if needs_dir and plan["dir"] is None:
        raise ConfigurationError("chaos *_once clauses need a dir= clause")
    return plan


def _claim_marker(directory: str, kind: str, index: int) -> bool:
    """Atomically claim a once-only chaos slot; True on first claim."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{kind}-{index:05d}")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _apply_chaos(task_index: int) -> None:
    spec = os.environ.get(CHAOS_ENV)
    if not spec or task_index < 0:
        return
    plan = parse_chaos(spec)
    if task_index in plan["exit"]:
        os._exit(_CHAOS_EXIT_STATUS)
    if task_index in plan["exit_once"] and _claim_marker(
        plan["dir"], "exit", task_index
    ):
        os._exit(_CHAOS_EXIT_STATUS)
    if task_index in plan["raise"]:
        raise TransientIOError(f"chaos: injected I/O error on task {task_index}")
    if task_index in plan["raise_once"] and _claim_marker(
        plan["dir"], "raise", task_index
    ):
        raise TransientIOError(f"chaos: injected I/O error on task {task_index}")
    if task_index in plan["hang"]:
        time.sleep(plan["hang_seconds"])


# ----------------------------------------------------------------- journal


class SweepJournal:
    """Append-only record of a sweep's per-task outcomes.

    One JSON record per line in ``sweep.journal.jsonl``; every append is a
    single fsynced ``O_APPEND`` write (see
    :func:`repro.atomicio.append_jsonl_line`), so a killed sweep leaves at
    most one torn final line — which the tolerant JSONL reader drops.  The
    journal is the durable half of ``--resume``: completed digests are
    skipped (replayed from the verified cache) and failures re-run.
    """

    def __init__(self, path: str, label: str = "sweep") -> None:
        if not path:
            raise ConfigurationError("journal path must be non-empty")
        self.path = path
        self.label = label

    def begin(self, n_tasks: int, code_version: str, label: str = "sweep") -> None:
        """Append the sweep header record."""
        append_jsonl_line(
            self.path,
            {
                "type": "sweep",
                "schema_version": JOURNAL_SCHEMA_VERSION,
                "label": label,
                "n_tasks": n_tasks,
                "code_version": code_version,
            },
            fsync=True,
        )

    def record(
        self,
        index: int,
        digest: str,
        status: str,
        attempts: int = 1,
        error: Optional[str] = None,
        origin: str = "run",
    ) -> None:
        """Append one settled-task record (``status`` done/failed)."""
        append_jsonl_line(
            self.path,
            {
                "type": "task",
                "index": index,
                "digest": digest,
                "status": status,
                "attempts": attempts,
                "error": error,
                "origin": origin,
            },
            fsync=True,
        )

    def event(self, kind: str, **fields) -> None:
        """Append one supervision incident (worker-crash, quarantine...)."""
        record = {"type": "incident", "kind": kind}
        record.update(fields)
        append_jsonl_line(self.path, record, fsync=True)

    @staticmethod
    def load(path: str) -> Dict[str, dict]:
        """Latest task record per digest; ``{}`` for a missing journal."""
        if not os.path.exists(path):
            return {}
        from repro.obs.exporters import read_jsonl

        latest: Dict[str, dict] = {}
        for record in read_jsonl(path):
            if record.get("type") == "task" and record.get("digest"):
                latest[record["digest"]] = record
        return latest
