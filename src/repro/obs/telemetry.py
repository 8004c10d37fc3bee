"""Spans and the module-level instrumentation helpers.

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
and ``metrics.prom`` (Prometheus text exposition of the registry).  The
session itself — :class:`~repro.obs.sessions.TelemetrySession`,
:func:`~repro.obs.sessions.session` and
:func:`~repro.obs.sessions.shard_session` — lives in
:mod:`repro.obs.sessions` with the writers, registry, timeline and trace it
needs, so a run with telemetry off imports none of them; this module only
holds the active session it installs.

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
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.sessions import TelemetrySession

__all__ = [
    "PHASE_SECONDS_METRIC",
    "SHARDS_DIRNAME",
    "SIM",
    "Span",
    "WALL",
    "active",
    "counter",
    "enabled",
    "event",
    "gauge",
    "observe",
    "phase",
    "span",
]

#: Clock-domain labels carried by every span/phase record.
WALL = "wall"
SIM = "sim"

#: Histogram fed by every recorded phase (labelled by phase name).
PHASE_SECONDS_METRIC = "repro_pipeline_phase_seconds"

#: Subdirectory of a session's telemetry directory holding worker shards.
SHARDS_DIRNAME = "shards"


#: The active session, if any (installed by
#: :func:`~repro.obs.sessions.session`).  Single-threaded by design;
#: process-local (a forked worker sees its parent's session here but must
#: not use it).
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


def __getattr__(name: str) -> Any:
    """``TelemetrySession`` at its former address, imported on first lookup.

    The benchmark harness (``benchmarks/e2e/spans.py``) wraps the class's
    methods after ``from repro.obs.telemetry import TelemetrySession``.
    """
    if name == "TelemetrySession":
        from repro.obs.sessions import TelemetrySession

        return TelemetrySession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
