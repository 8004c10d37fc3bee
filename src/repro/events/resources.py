"""Shared-resource primitives for the event engine.

* :class:`Resource` — a counted resource with a FIFO wait queue (used for
  e.g. metadata-server request slots and I/O aggregator slots).
* :class:`Store` — an unbounded FIFO of Python objects with blocking ``get``.
* :class:`BandwidthPipe` — the workhorse of the storage model: a link of
  fixed capacity shared by concurrent transfers under processor sharing
  (max-min fair with optional per-transfer rate caps).  This is how the
  Lustre OSS backend's ~160 MB/s aggregate bandwidth is modelled.

All completion times are exact (piecewise-linear progress, no polling): the
pipe reprograms a single wake-up event whenever its membership changes.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Optional

from repro.errors import ResourceError
from repro.events.engine import Event, Simulator

__all__ = ["Resource", "Store", "Transfer", "BandwidthPipe"]

#: Residual bytes below which a transfer is considered complete (guards
#: against float round-off in progress accounting).  This floor is widened
#: dynamically with the clock's float resolution — see
#: :meth:`BandwidthPipe._completion_epsilon`.
_EPSILON_BYTES = 1e-6


class Resource:
    """A counted resource with FIFO queueing.

    Usage inside a process::

        req = resource.request()
        yield req
        ...  # critical section
        resource.release(req)
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ResourceError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        #: Optional human-readable identity (used by timeline probes).
        self.name = name
        self._in_use = 0
        self._queue: deque[Event] = deque()
        self._granted: set[int] = set()

    @property
    def in_use(self) -> int:
        """Number of grants currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting."""
        return len(self._queue)

    @property
    def utilization(self) -> float:
        """Fraction of slots currently granted, in [0, 1]."""
        return self._in_use / self.capacity

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        event = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            self._granted.add(id(event))
            event.succeed()
        else:
            self._queue.append(event)
        return event

    def release(self, request: Event) -> None:
        """Release the slot held by ``request``.

        A request that is still *queued* (never granted) is cancelled
        instead — it is removed from the wait queue without touching the
        grant count.  This makes ``try/finally`` release correct for
        processes interrupted while waiting on the resource.
        """
        if id(request) in self._granted:
            self._granted.remove(id(request))
            if self._queue:
                nxt = self._queue.popleft()
                self._granted.add(id(nxt))
                nxt.succeed()
            else:
                self._in_use -= 1
            return
        try:
            self._queue.remove(request)
        except ValueError:
            raise ResourceError(
                "release() of a request that does not hold the resource"
            ) from None


class Store:
    """An unbounded FIFO store of arbitrary items with blocking ``get``."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event whose value is the next item."""
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class Transfer(Event):
    """A single in-flight transfer on a :class:`BandwidthPipe`.

    The transfer *is* an event: it fires (with value = size in bytes) when
    the last byte has moved.  ``rate`` is the instantaneous share of the pipe
    assigned to this transfer; it changes as other transfers come and go.
    """

    __slots__ = ("size", "remaining", "cap", "rate", "started_at", "tag")

    def __init__(self, sim: Simulator, size: float, cap: Optional[float], tag: str) -> None:
        super().__init__(sim)
        self.size = float(size)
        self.remaining = float(size)
        self.cap = cap
        self.rate = 0.0
        self.started_at = sim.now
        self.tag = tag


class BandwidthPipe:
    """A shared link with max-min fair bandwidth allocation.

    Parameters
    ----------
    sim:
        The owning simulator.
    capacity:
        Aggregate link bandwidth in bytes/second.
    on_rate_change:
        Optional callback ``f(time, total_rate)`` invoked whenever the
        aggregate throughput changes — this is how power models observe
        storage utilization without polling.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float,
        on_rate_change: Optional[Callable[[float, float], None]] = None,
    ) -> None:
        if capacity <= 0:
            raise ResourceError(f"pipe capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = float(capacity)
        self.on_rate_change = on_rate_change
        self._active: list[Transfer] = []
        #: ``sum()`` of the active transfers' rates, kept by :meth:`_reprogram`
        #: (the only place rates change); int 0 while idle.
        self._rate = 0
        self._last_update = sim.now
        self._wakeup_token = 0
        self._bytes_moved = 0.0

    # ------------------------------------------------------------------ API

    @property
    def active_transfers(self) -> int:
        """Number of in-flight transfers."""
        return len(self._active)

    @property
    def current_rate(self) -> float:
        """Aggregate instantaneous throughput in bytes/second."""
        return self._rate

    @property
    def utilization(self) -> float:
        """Fraction of link capacity currently in use, in [0, 1]."""
        return self.current_rate / self.capacity

    @property
    def bytes_moved(self) -> float:
        """Total bytes that have completed moving through the pipe."""
        self._advance()
        return self._bytes_moved

    def transfer(self, size: float, cap: Optional[float] = None, tag: str = "") -> Transfer:
        """Start moving ``size`` bytes; returns the completion event.

        ``cap`` optionally limits this transfer's rate (bytes/s), modelling a
        slow client NIC or a single-OST stripe limit.
        """
        if size < 0:
            raise ResourceError(f"negative transfer size: {size}")
        if cap is not None and cap <= 0:
            raise ResourceError(f"transfer cap must be positive, got {cap}")
        t = Transfer(self.sim, size, cap, tag)
        if size <= _EPSILON_BYTES:
            t.succeed(0.0)
            return t
        self._advance()
        self._active.append(t)
        self._reprogram()
        return t

    def cancel(self, transfer: Transfer) -> float:
        """Abort an in-flight transfer, discarding its partial progress.

        The bytes the transfer had already moved are rolled back out of
        :attr:`bytes_moved` — an aborted write never becomes durable data,
        so the byte counter stays consistent with the committed namespace.
        Returns the discarded byte count; cancelling a transfer that is not
        in flight (already complete, or never started) is a no-op returning
        0.0, so cleanup paths may call it unconditionally.
        """
        if transfer not in self._active:
            return 0.0
        self._advance()
        self._active.remove(transfer)
        discarded = transfer.size - transfer.remaining
        self._bytes_moved -= discarded
        transfer.remaining = 0.0
        transfer.rate = 0.0
        self._reprogram()
        return discarded

    def set_capacity(self, capacity: float) -> None:
        """Reprogram the link to a new aggregate bandwidth, effective now.

        Progress under the old rates is applied first, then every in-flight
        transfer's share is recomputed — this is how injected OST dropouts
        and bandwidth brownouts act on the storage model.
        """
        if capacity <= 0:
            raise ResourceError(f"pipe capacity must be positive, got {capacity}")
        self._advance()
        self.capacity = float(capacity)
        self._reprogram()

    # ------------------------------------------------------------ internals

    def _advance(self) -> None:
        """Apply progress at current rates from the last update to now."""
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0.0:
            for t in self._active:
                moved = min(t.rate * dt, t.remaining)
                t.remaining -= moved
                self._bytes_moved += moved
            self._last_update = now
        else:
            self._last_update = now

    def _allocate(self) -> None:
        """Max-min fair allocation with per-transfer caps (water-filling)."""
        pending = list(self._active)
        budget = self.capacity
        # Repeatedly grant capped transfers less than the fair share, then
        # split the remainder equally among the rest.
        while pending:
            share = budget / len(pending)
            constrained = [t for t in pending if t.cap is not None and t.cap < share]
            if not constrained:
                for t in pending:
                    t.rate = share
                return
            for t in constrained:
                t.rate = t.cap
                budget -= t.cap
                pending.remove(t)
        # All transfers were capped; leftover budget simply goes unused.

    def _completion_epsilon(self) -> float:
        """Residual-byte threshold below which a transfer counts as done.

        The simulated clock is a float: once ``now`` is large, a wake-up
        scheduled at ``now + remaining/rate`` lands on a grid coarser than
        the exact completion time, leaving a residual of up to
        ``capacity * ulp(now)`` bytes.  Treat anything inside a few ulps'
        worth of bytes as complete, or the pipe would re-arm zero-length
        wake-ups forever.
        """
        return max(_EPSILON_BYTES, 4.0 * self.capacity * math.ulp(max(self.sim.now, 1.0)))

    def _complete(self, t: Transfer) -> None:
        """Fire a transfer that :meth:`_reprogram` found done."""
        self._bytes_moved += t.remaining  # account the rounded-off tail
        t.remaining = 0.0
        t.rate = 0.0
        t.succeed(t.size)

    def _reprogram(self) -> None:
        """Recompute rates and schedule the next completion wake-up."""
        active = self._active
        now = self.sim.now
        if len(active) == 1:
            # The general branch for a lone transfer, the pipes' usual load:
            # water-filling gives it the fair share ``capacity / 1``, which
            # is ``capacity`` exactly, or its cap if that is lower; the
            # ``sum`` of one rate and the ``min`` of one horizon are those
            # values themselves.
            t = active[0]
            if t.remaining <= self._completion_epsilon():
                active.clear()
                self._complete(t)
                self._rate = 0
            else:
                t.rate = t.cap if t.cap is not None and t.cap < self.capacity else self.capacity
                self._rate = t.rate
        elif active:
            # Drop completed transfers and fire their events.
            eps = self._completion_epsilon()
            for t in [t for t in active if t.remaining <= eps]:
                active.remove(t)
                self._complete(t)
            self._allocate()
            self._rate = sum(t.rate for t in active)
        else:
            self._rate = 0  # what ``sum`` of no rates gives
        if self.on_rate_change is not None:
            self.on_rate_change(now, self._rate)
        if not active:
            return
        if len(active) == 1:
            horizon = active[0].remaining / active[0].rate
        else:
            horizon = min(t.remaining / t.rate for t in active if t.rate > 0.0)
        # Never arm a wake-up the float clock cannot distinguish from "now".
        horizon = max(horizon, 2.0 * math.ulp(max(now, 1.0)))
        self._wakeup_token += 1
        token = self._wakeup_token
        wake = self.sim.timeout(horizon)
        wake.callbacks.append(lambda _ev, tok=token: self._on_wakeup(tok))

    def _on_wakeup(self, token: int) -> None:
        if token != self._wakeup_token:
            return  # stale wake-up; membership changed since it was armed
        self._advance()
        self._reprogram()
