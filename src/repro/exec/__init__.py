"""The experiment-execution engine (``repro.exec``).

One unified API for running pipelines — :class:`RunRequest` in,
:class:`RunResult` out — behind three interchangeable execution strategies:
inline, fanned out over a process pool (bit-identical to serial), or
replayed from a content-addressed on-disk cache.  One engine,
:class:`ExecutionEngine`, runs them all and supervises every task under a
:class:`TaskPolicy`, with an optional :class:`SweepJournal` for resumable
sweeps.
"""

from repro.exec.api import (
    MODE_REAL,
    MODE_SIMULATED,
    RunRequest,
    RunResult,
    build_pipeline,
    pipeline_factories,
)
from repro.exec.cache import QUARANTINE_DIRNAME, DiskCache, default_code_version
from repro.exec.engine import ExecutionEngine, execute_request
from repro.exec.supervise import (
    FAIL_POLICIES,
    JOURNAL_FILENAME,
    SweepJournal,
    TaskPolicy,
)

__all__ = [
    "FAIL_POLICIES",
    "JOURNAL_FILENAME",
    "MODE_REAL",
    "MODE_SIMULATED",
    "QUARANTINE_DIRNAME",
    "DiskCache",
    "ExecutionEngine",
    "RunRequest",
    "RunResult",
    "SweepJournal",
    "TaskPolicy",
    "build_pipeline",
    "default_code_version",
    "execute_request",
    "pipeline_factories",
]
