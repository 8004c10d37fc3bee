"""Cross-process trace propagation.

A *trace* is one logical telemetry activation, possibly spanning several
processes: the parent session plus every worker shard it fans tasks out to.
The :class:`TraceContext` is the tiny, picklable capsule that crosses the
``ProcessPoolExecutor`` boundary inside a
:class:`~repro.exec.api.RunRequest`: it carries the parent's ``trace_id``,
the span under which the task was submitted, and where (if anywhere) the
worker should stream its shard artifacts.

Trace ids are *deterministic* — derived from the session label alone — so
two identically configured runs produce byte-identical event streams (the
property the chaos CI job asserts).  Volatile inputs (pids, timestamps,
telemetry paths) are deliberately excluded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.obs.timeline import TimelineConfig

__all__ = ["TraceContext", "derive_trace_id"]


def derive_trace_id(label: str) -> str:
    """Deterministic 16-hex-digit trace id derived from the session label."""
    return hashlib.sha256(label.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """What a worker needs to join its parent's trace."""

    #: The parent session's trace id (every shard record carries it).
    trace_id: str
    #: Span open in the parent when the task was submitted (``None`` when
    #: the task was submitted at top level); worker root spans are
    #: re-parented under it at merge time.
    parent_span_id: Optional[int] = None
    #: The parent session's label (worker shards reuse it, suffixed).
    label: str = "run"
    #: Submission index of the task within its batch.
    task_index: int = 0
    #: Directory the worker writes its shard artifacts under (``None`` for
    #: directory-less parent sessions).
    shard_dir: Optional[str] = None
    #: The parent session's sampling policy, so worker shards sample their
    #: runs on the same grid (``None`` when the parent has sampling off).
    timeline: Optional[TimelineConfig] = None
