"""Sessions, spans and the module-level instrumentation helpers.

This is the layer the rest of the library talks to.  Instrumentation points
call the module-level helpers (:func:`span`, :func:`phase`, :func:`event`,
:func:`counter`, :func:`gauge`, :func:`observe`); when no session is active
every helper is a cheap no-op, so telemetry-off runs are bit-identical to
uninstrumented ones.  Activating a session::

    from repro import obs

    with obs.session(directory="out/telemetry", label="characterize") as tel:
        ...instrumented work...

writes three artifacts into the directory: ``events.jsonl`` (the span/event
stream), ``manifest.json`` (the :class:`~repro.obs.manifest.RunManifest`)
and ``metrics.prom`` (Prometheus text exposition of the registry).

Spans nest: each open span becomes the parent of spans and phases recorded
inside it, and each record carries its clock *domain* — ``"wall"`` for real
(perf-counter) time, ``"sim"`` for discrete-event simulated time — because
this library routinely times both in one process.  Sessions are
single-threaded by design, matching the library's execution model.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.exporters import JsonlWriter, write_prometheus
from repro.obs.manifest import (
    EVENTS_FILENAME,
    PROM_FILENAME,
    TIMELINE_FILENAME,
    RunManifest,
    collect_provenance,
)
from repro.obs.registry import MetricsRegistry, default_registry
from repro.obs.timeline import TimelineConfig
from repro.obs.trace import TraceContext, derive_trace_id

__all__ = [
    "PHASE_SECONDS_METRIC",
    "SHARDS_DIRNAME",
    "SIM",
    "Span",
    "TelemetrySession",
    "WALL",
    "active",
    "counter",
    "enabled",
    "event",
    "gauge",
    "observe",
    "phase",
    "session",
    "shard_session",
    "span",
]

#: Clock-domain labels carried by every span/phase record.
WALL = "wall"
SIM = "sim"

#: Histogram fed by every recorded phase (labelled by phase name).
PHASE_SECONDS_METRIC = "repro_pipeline_phase_seconds"

#: Subdirectory of a session's telemetry directory holding worker shards.
SHARDS_DIRNAME = "shards"


class TelemetrySession:
    """One activation of the telemetry layer.

    Owns the JSONL writer, the span stack, per-phase duration totals and a
    reference to the metrics registry (the process-wide default unless a
    private one is injected for tests).
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        label: str = "run",
        registry: Optional[MetricsRegistry] = None,
        argv: Optional[List[str]] = None,
        config: Optional[Dict[str, Any]] = None,
        trace: Optional[TraceContext] = None,
        keep_records: bool = False,
        timeline: Optional[TimelineConfig] = None,
    ) -> None:
        self.directory = directory
        self.label = label
        self.registry = registry if registry is not None else default_registry()
        self.argv = list(argv) if argv is not None else []
        self.config = dict(config) if config is not None else {}
        self.created_unix = time.time()
        #: Owning process.  Forked pool workers inherit ``_ACTIVE`` (and its
        #: open file handle); the helpers treat a session from another pid
        #: as absent, so workers fall through to their own shard sessions
        #: instead of corrupting the parent's stream.
        self.pid = os.getpid()
        self.run_id = f"{label}-{self.pid}-{int(self.created_unix)}"
        #: The trace this session belongs to.  Root sessions derive a
        #: deterministic id from their label; shard sessions join the
        #: parent's trace via the propagated :class:`TraceContext`.
        self.trace = trace
        self.trace_id = trace.trace_id if trace is not None else derive_trace_id(label)
        self.phase_totals: Dict[str, float] = {}
        #: Full record retention (shard sessions keep everything so the
        #: parent can merge them; root sessions keep none).
        self.records: Optional[List[dict]] = [] if keep_records else None
        self.closed = False
        self._writer: Optional[JsonlWriter] = None
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._writer = JsonlWriter(os.path.join(directory, EVENTS_FILENAME))
        self._seq = 0
        self._n_spans = 0
        self._stack: List[int] = []
        #: Sampling policy for this session.  Shard sessions inherit the
        #: parent's via the propagated trace unless given one explicitly.
        self.timeline = (
            timeline
            if timeline is not None
            else (trace.timeline if trace is not None else None)
        )
        #: Timeline samples keep their own sequence counter and their own
        #: ``timeline.jsonl`` stream (created lazily, on the first sample):
        #: with sampling off, no timeline file exists and ``events.jsonl``
        #: is byte-identical to a pre-timeline session.
        self._timeline_seq = 0
        self.timeline_records: Optional[List[dict]] = [] if keep_records else None
        self._timeline_writer: Optional[JsonlWriter] = None

    # ------------------------------------------------------------- emission

    @property
    def n_events(self) -> int:
        """Records emitted so far."""
        return self._seq

    @property
    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span, or None at top level."""
        return self._stack[-1] if self._stack else None

    def _emit(self, record: dict) -> None:
        self._seq += 1
        record["seq"] = self._seq
        record["trace"] = self.trace_id
        if self.records is not None:
            self.records.append(record)
        if self._writer is not None:
            self._writer.write(record)

    @property
    def n_timeline(self) -> int:
        """Timeline samples emitted so far."""
        return self._timeline_seq

    def emit_timeline(self, record: dict, values_json: Optional[str] = None) -> None:
        """Append one timeline sample (``values_json``: see :meth:`JsonlWriter.write`)."""
        self._timeline_seq += 1
        record["seq"] = self._timeline_seq
        record["trace"] = self.trace_id
        if self.timeline_records is not None:
            self.timeline_records.append(record)
        if self._timeline_writer is None and self.directory is not None:
            self._timeline_writer = JsonlWriter(
                os.path.join(self.directory, TIMELINE_FILENAME)
            )
        if self._timeline_writer is not None:
            self._timeline_writer.write(record, values_json)

    def open_span(self) -> tuple:
        """Allocate a span id; returns ``(span_id, parent_id)``."""
        self._n_spans += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(self._n_spans)
        return self._n_spans, parent

    def close_span(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        t0: float,
        t1: float,
        domain: str,
        attrs: Dict[str, Any],
    ) -> None:
        """Pop ``span_id`` and emit its record."""
        if self._stack and self._stack[-1] == span_id:
            self._stack.pop()
        record = {
            "type": "span",
            "name": name,
            "domain": domain,
            "t0": t0,
            "t1": t1,
            "dur": t1 - t0,
            "id": span_id,
            "parent": parent_id,
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def phase(
        self, name: str, t0: float, t1: float, domain: str = SIM, **attrs: Any
    ) -> None:
        """Record one explicit-times phase segment (and feed the metrics)."""
        duration = t1 - t0
        self.phase_totals[name] = self.phase_totals.get(name, 0.0) + duration
        self.registry.histogram(PHASE_SECONDS_METRIC, phase=name).observe(duration)
        self._n_spans += 1
        record = {
            "type": "phase",
            "name": name,
            "domain": domain,
            "t0": t0,
            "t1": t1,
            "dur": duration,
            "id": self._n_spans,
            "parent": self._stack[-1] if self._stack else None,
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def event(self, name: str, **fields: Any) -> None:
        """Record one point event (parented to the innermost open span)."""
        record: dict = {"type": "event", "name": name}
        if self._stack:
            record["parent"] = self._stack[-1]
        if fields:
            record["fields"] = fields
        self._emit(record)

    # --------------------------------------------------------------- sharding

    def shard_payload(self) -> dict:
        """This shard session's full state, ready to cross a process boundary.

        Returned inside :class:`~repro.exec.api.RunResult` by pool workers;
        the parent folds it back in with :meth:`merge_shard`.  Requires a
        ``keep_records=True`` session.
        """
        if self.records is None:
            raise ConfigurationError(
                "shard_payload() needs a keep_records=True session"
            )
        return {
            "trace_id": self.trace_id,
            "parent_span_id": (
                self.trace.parent_span_id if self.trace is not None else None
            ),
            "events": list(self.records),
            "timeline": list(self.timeline_records or ()),
            "metrics": self.registry.snapshot(),
            "n_spans": self._n_spans,
            "phase_totals": dict(self.phase_totals),
        }

    def merge_shard(self, payload: dict) -> None:
        """Fold one worker shard into this session, loss-free.

        Worker-local span ids are remapped by a base offset (this session's
        current span count), worker root spans are re-parented under the
        span that was open at submission time, and every record is
        re-emitted here — so merging shards *in submission order* yields a
        stream byte-identical to the same tasks run inline.  Metrics merge
        additively into this session's registry; phase totals accumulate.
        """
        trace_id = payload.get("trace_id")
        if trace_id is not None and trace_id != self.trace_id:
            raise ConfigurationError(
                f"shard belongs to trace {trace_id!r}, not {self.trace_id!r}"
            )
        parent_id = payload.get("parent_span_id")
        base = self._n_spans
        for rec in payload.get("events", ()):
            rec = dict(rec)
            if rec.get("id") is not None:
                rec["id"] = int(rec["id"]) + base
            if rec.get("parent") is not None:
                rec["parent"] = int(rec["parent"]) + base
            elif parent_id is not None:
                rec["parent"] = parent_id
            self._emit(rec)
        for rec in payload.get("timeline", ()):
            # Re-stamped with this session's timeline seq + trace; merging
            # shards in submission order keeps parallel == serial.
            self.emit_timeline(dict(rec))
        self._n_spans = base + int(payload.get("n_spans", 0))
        for name, seconds in (payload.get("phase_totals") or {}).items():
            self.phase_totals[name] = self.phase_totals.get(name, 0.0) + float(seconds)
        self.registry.merge(payload.get("metrics") or {})

    # --------------------------------------------------------------- closing

    def manifest(self) -> RunManifest:
        """The session's current state as a :class:`RunManifest`."""
        return RunManifest(
            label=self.label,
            run_id=self.run_id,
            created_unix=self.created_unix,
            argv=self.argv,
            config=self.config,
            durations=dict(self.phase_totals),
            metrics=self.registry.snapshot(),
            provenance=collect_provenance(self.config),
            n_events=self._seq,
            n_timeline=self._timeline_seq,
            trace_id=self.trace_id,
        )

    def close(self) -> Optional[str]:
        """Write the manifest + exposition and close the stream.

        Returns the manifest path (None for directory-less sessions).
        Idempotent.
        """
        if self.closed:
            return None
        self.closed = True
        if self._writer is not None:
            self._writer.close()
        if self._timeline_writer is not None:
            self._timeline_writer.close()
        if self.directory is None:
            return None
        write_prometheus(self.registry, os.path.join(self.directory, PROM_FILENAME))
        return self.manifest().write(self.directory)


#: The active session, if any.  Single-threaded by design; process-local
#: (a forked worker sees its parent's session here but must not use it).
_ACTIVE: Optional[TelemetrySession] = None


def active() -> Optional[TelemetrySession]:
    """The active session owned by *this* process, or None."""
    sess = _ACTIVE
    if sess is not None and sess.pid != os.getpid():
        return None
    return sess


def enabled() -> bool:
    """True while this process owns an active telemetry session."""
    return active() is not None


@contextmanager
def session(
    directory: Optional[str] = None,
    label: str = "run",
    registry: Optional[MetricsRegistry] = None,
    argv: Optional[List[str]] = None,
    config: Optional[Dict[str, Any]] = None,
    trace: Optional[TraceContext] = None,
    keep_records: bool = False,
    timeline: Optional[TimelineConfig] = None,
) -> Iterator[TelemetrySession]:
    """Activate telemetry for the dynamic extent of the block."""
    global _ACTIVE
    if active() is not None:
        raise ConfigurationError(
            f"telemetry session {_ACTIVE.run_id!r} is already active"
        )
    sess = TelemetrySession(
        directory=directory, label=label, registry=registry, argv=argv,
        config=config, trace=trace, keep_records=keep_records,
        timeline=timeline,
    )
    _ACTIVE = sess
    try:
        yield sess
    finally:
        _ACTIVE = None
        sess.close()


@contextmanager
def shard_session(trace: TraceContext) -> Iterator[TelemetrySession]:
    """Activate a worker-side shard session joined to ``trace``.

    The shard uses a *private* registry (the parent merges the snapshot, so
    sharing the process default would double-count when workers are reused)
    and retains every record for :meth:`TelemetrySession.shard_payload`.
    With a ``shard_dir`` in the context it also streams its own
    ``events.jsonl``/manifest under ``shard_dir/task-NNNNN`` for post-mortem
    inspection of killed runs.
    """
    directory = None
    if trace.shard_dir is not None:
        directory = os.path.join(trace.shard_dir, f"task-{trace.task_index:05d}")
    with session(
        directory=directory,
        label=f"{trace.label}-task{trace.task_index:05d}",
        registry=MetricsRegistry(),
        trace=trace,
        keep_records=True,
    ) as sess:
        yield sess


ClockLike = Union[Callable[[], float], Any]


class Span:
    """A named, attributed, nestable timing scope.

    Context manager *and* decorator.  ``clock`` may be a zero-argument
    callable or any object with a ``now`` attribute (e.g. a
    :class:`~repro.events.engine.Simulator`); when given, the span is
    recorded in the ``"sim"`` domain unless ``domain`` overrides it.
    When no session is active, entry and exit are near-free no-ops.
    """

    __slots__ = ("name", "clock", "domain", "attrs", "_session", "_sid", "_parent", "_t0")

    def __init__(
        self,
        name: str,
        clock: Optional[ClockLike] = None,
        domain: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        self.name = name
        self.clock = clock
        self.domain = domain if domain is not None else (WALL if clock is None else SIM)
        self.attrs = attrs
        self._session: Optional[TelemetrySession] = None

    def _now(self) -> float:
        if self.clock is None:
            return time.perf_counter()
        if callable(self.clock):
            return float(self.clock())
        return float(self.clock.now)

    def __enter__(self) -> "Span":
        sess = active()
        self._session = sess
        if sess is None:
            return self
        self._sid, self._parent = sess.open_span()
        self._t0 = self._now()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        sess = self._session
        self._session = None
        if sess is None:
            return False
        attrs = dict(self.attrs)
        if exc_type is not None:
            attrs["error"] = exc_type.__name__
        sess.close_span(
            self._sid, self._parent, self.name, self._t0, self._now(),
            self.domain, attrs,
        )
        return False

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with Span(self.name, clock=self.clock, domain=self.domain, **self.attrs):
                return fn(*args, **kwargs)

        return wrapper


def span(
    name: str,
    clock: Optional[ClockLike] = None,
    domain: Optional[str] = None,
    **attrs: Any,
) -> Span:
    """A :class:`Span` — use as ``with obs.span(...)`` or ``@obs.span(...)``."""
    return Span(name, clock=clock, domain=domain, **attrs)


def phase(name: str, t0: float, t1: float, domain: str = SIM, **attrs: Any) -> None:
    """Record an explicit-times phase segment (no-op when disabled)."""
    sess = active()
    if sess is not None:
        sess.phase(name, t0, t1, domain, **attrs)


def event(name: str, **fields: Any) -> None:
    """Record a point event (no-op when disabled)."""
    sess = active()
    if sess is not None:
        sess.event(name, **fields)


def counter(name: str, value: float = 1.0, **labels: str) -> None:
    """Increment a counter in the session registry (no-op when disabled)."""
    sess = active()
    if sess is not None:
        sess.registry.counter(name, **labels).inc(value)


def gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge in the session registry (no-op when disabled)."""
    sess = active()
    if sess is not None:
        sess.registry.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels: str) -> None:
    """Observe into a histogram in the session registry (no-op when disabled)."""
    sess = active()
    if sess is not None:
        sess.registry.histogram(name, **labels).observe(value)
