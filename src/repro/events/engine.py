"""Core of the discrete-event simulation engine.

The engine is deliberately small but complete enough for the cluster and
storage models built on top of it:

* :class:`Simulator` — the event loop.  Time is a ``float`` in seconds and
  only ever moves forward.
* :class:`Event` — one-shot occurrence with callbacks and a value.
* :class:`Timeout` — an event scheduled at ``now + delay``.
* :class:`Process` — a generator that yields events; the engine resumes it
  when the yielded event fires, sending the event's value back in (or
  throwing, if the event failed).
* :class:`AllOf` / :class:`AnyOf` — composite events for fan-in.

Determinism: events scheduled for the same time fire in scheduling order
(FIFO), which makes every simulation in this library reproducible.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import DeadlockError, Interrupt, SimulationError

__all__ = ["Event", "Timeout", "Process", "AllOf", "AnyOf", "Simulator"]

_PENDING = object()
_INF = float("inf")


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it, after which the simulator invokes its callbacks in order.
    Triggering an already-triggered event is an error.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        #: set True when a failure was handled (prevents the "unhandled
        #: failed event" crash at the end of the run)
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        # Simulator._enqueue, inlined: the most frequent trigger.
        sim = self.sim
        sim._counter += 1
        heappush(sim._heap, (sim._now, sim._counter, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception`` raised."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after it is created."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        # ``not`` of the chain also rejects NaN, which would stall the clock
        # at NaN, and inf, which would move it to inf.
        if not 0 <= delay < _INF:
            raise SimulationError(f"timeout delay must be finite and >= 0, got {delay}")
        # Event.__init__ and Simulator._enqueue, inlined: every simulated
        # duration is a timeout.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay
        sim._counter += 1
        heappush(sim._heap, (sim._now + delay, sim._counter, self))


class Process(Event):
    """Wraps a generator; the process *is* an event that fires on return.

    The generator yields :class:`Event` instances.  When a yielded event
    triggers, the generator is resumed with the event's value (``throw`` if
    the event failed).  The value of the process-event is the generator's
    return value.

    Failure semantics: an exception the generator does not catch *fails* the
    process-event, so supervisors can ``yield proc`` and handle it; if nobody
    handles (defuses) the failure, the exception propagates out of
    :meth:`Simulator.run` exactly as before.  :meth:`interrupt` throws an
    exception into the generator at the current simulated time, detaching it
    from whatever it was waiting on — ``try/finally`` blocks in the generator
    run, so resources can be cleaned up mid-flight.
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Bootstrap: resume the process at the current time.
        init = Event(sim)
        init.callbacks.append(self._resume)
        init.succeed()
        sim._active_processes += 1

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, exception: Optional[BaseException] = None) -> None:
        """Throw ``exception`` into the process at the current simulated time.

        The process is detached from the event it is waiting on and resumed
        with the exception raised at its current ``yield``; ``try/finally``
        blocks run, so in-flight operations can release resources.  The
        default exception is :class:`~repro.errors.Interrupt`.  Delivery is
        an ordinary scheduled event (FIFO at the current time), so interrupts
        are deterministic; if the process finishes before delivery the
        interrupt is silently dropped.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt {self!r}: process already finished")
        exc = exception if exception is not None else Interrupt(f"process {self.name!r} interrupted")
        if not isinstance(exc, BaseException):
            raise TypeError(f"interrupt() requires an exception, got {exc!r}")
        delivery = Event(self.sim)
        delivery.callbacks.append(self._deliver_interrupt)
        delivery.fail(exc)

    def _deliver_interrupt(self, delivery: Event) -> None:
        delivery.defused = True
        if self.triggered:
            return  # completed (or crashed) between scheduling and delivery
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._target = None
        self._resume(delivery)

    def _resume(self, trigger: Event) -> None:
        sim = self.sim
        event: Any = trigger
        while True:
            try:
                if event._ok:
                    target = self.generator.send(event._value if event._value is not _PENDING else None)
                else:
                    event.defused = True
                    target = self.generator.throw(event._value)
            except StopIteration as stop:
                sim._active_processes -= 1
                self._value = stop.value
                sim._enqueue(self)
                return
            except Exception as exc:
                # The generator died: fail the process-event so supervisors
                # waiting on it can handle the failure.  If nobody defuses
                # it, step() re-raises — the pre-existing crash behaviour.
                sim._active_processes -= 1
                self._ok = False
                self._value = exc
                sim._enqueue(self)
                return
            except BaseException:
                # KeyboardInterrupt / SystemExit abort the run outright.
                sim._active_processes -= 1
                raise
            if not isinstance(target, Event):
                self.generator.throw(
                    SimulationError(f"process {self.name!r} yielded {target!r}, not an Event")
                )
                continue
            if target.sim is not sim:
                self.generator.throw(
                    SimulationError("yielded an event belonging to another Simulator")
                )
                continue
            if target.processed:
                # Already fired and delivered: resume immediately with its value.
                event = target
                continue
            target.callbacks.append(self._resume)
            self._target = target
            return


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = tuple(events)
        self._n_fired = 0
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        if not self.events:
            self.succeed(self._result())
            return
        for ev in self.events:
            if ev.processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _result(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.triggered and ev._ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when all constituent events have fired (fails fast on failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed(self._result())


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self.succeed(self._result())


class Simulator:
    """The discrete-event loop.

    Usage::

        sim = Simulator()
        sim.process(gen)      # register processes
        sim.run()             # run to quiescence (or run(until=t))
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = 0
        self._active_processes = 0
        self._n_processed = 0
        self._step_listeners: list[Callable[[Event, float], None]] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def queue_depth(self) -> int:
        """Events currently scheduled (the live heap size)."""
        return len(self._heap)

    @property
    def active_processes(self) -> int:
        """Processes started and not yet finished."""
        return self._active_processes

    @property
    def events_processed(self) -> int:
        """Events processed since the simulator was created."""
        return self._n_processed

    def _enqueue(self, event: Event) -> None:
        """Schedule a triggered ``event`` at the current time."""
        self._counter += 1
        heappush(self._heap, (self._now, self._counter, event))

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a process starting now."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when every event in ``events`` fires."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when the first event in ``events`` fires."""
        return AnyOf(self, events)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._heap[0][0] if self._heap else float("inf")

    def peek_event(self) -> Optional[Event]:
        """The next event to be processed, or ``None`` when idle."""
        return self._heap[0][2] if self._heap else None

    def add_step_listener(self, listener: Callable[[Event, float], None]) -> Callable:
        """Observe every processed event: ``listener(event, now)``.

        Listeners run *after* an event's callbacks, strictly observationally
        — they cannot change event order or timing.  This is the engine-level
        hook that :class:`~repro.events.tracing.EventTracer` and the
        telemetry layer (:mod:`repro.obs`) both consume.  Returns the
        listener for symmetric use with :meth:`remove_step_listener`.
        """
        self._step_listeners.append(listener)
        return listener

    def remove_step_listener(self, listener: Callable[[Event, float], None]) -> None:
        """Stop notifying ``listener``; unknown listeners are ignored."""
        try:
            self._step_listeners.remove(listener)
        except ValueError:
            pass

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        time, _, event = heappop(self._heap)
        if time < self._now:  # pragma: no cover - guarded by _enqueue
            raise SimulationError("event scheduled in the past")
        self._now = time
        self._n_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            raise event._value
        if self._step_listeners:
            for listener in tuple(self._step_listeners):
                listener(event, self._now)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        Raises
        ------
        SimulationError
            If ``until`` is before the current time, infinite or NaN.
        DeadlockError
            If the queue drains while processes are still alive (they are
            waiting on events nobody will trigger).
        """
        # ``not`` of the chain also rejects NaN, which would leave ``now`` at
        # NaN, and inf, which would move it to inf once the queue drains.
        if until is not None and not self._now <= until < _INF:
            raise SimulationError(
                f"run(until={until}) needs a finite time at or after now={self._now}"
            )
        while self._heap:
            if until is not None and self.peek() > until:
                self._now = until
                return
            self.step()
        if self._active_processes > 0:
            raise DeadlockError(
                f"event queue drained with {self._active_processes} process(es) still waiting"
            )
        if until is not None:
            self._now = until
