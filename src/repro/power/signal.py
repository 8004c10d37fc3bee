"""Piecewise-constant power signals.

A :class:`PowerSignal` records the *true* instantaneous power of a simulated
component as a sequence of ``(time, watts)`` breakpoints: the component draws
``watts[i]`` from ``time[i]`` until ``time[i+1]``.  Components append a new
breakpoint whenever their state changes (a node going busy, the storage pipe
changing throughput), so the signal is exact — no polling, no aliasing.

Meters then *sample* these signals with their own (coarse) averaging windows;
see :mod:`repro.power.meter`.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError, MeterError

__all__ = ["PowerSignal"]

_INF = float("inf")


class PowerSignal:
    """An append-only piecewise-constant function of time (seconds → watts)."""

    def __init__(self, initial_watts: float = 0.0, start_time: float = 0.0, name: str = "") -> None:
        # repro-unit: initial_watts=watts, start_time=seconds
        if not 0 <= initial_watts < _INF:  # NaN and inf too, as in set()
            raise ConfigurationError(f"power must be finite and >= 0 W, got {initial_watts}")
        # A NaN start rejects every later set(); an infinite one any finite one.
        if not math.isfinite(start_time):
            raise ConfigurationError(f"start time must be finite, got {start_time}")
        self.name = name
        self._times: list[float] = [float(start_time)]
        self._watts: list[float] = [float(initial_watts)]

    # ------------------------------------------------------------- recording

    def set(self, time: float, watts: float) -> None:
        # repro-unit: time=seconds, watts=watts
        """Record that the component draws ``watts`` from ``time`` onwards.

        ``time`` must be >= the last recorded breakpoint (simulated time only
        moves forward).  Setting the same value twice is a no-op; setting a
        new value at exactly the last breakpoint's time overwrites it.
        """
        # ``not`` of the chain also rejects NaN and inf, which would poison
        # every integral; ``not >=`` rejects a NaN time, which would let the
        # next update go back in time.
        if not 0 <= watts < _INF:
            raise ConfigurationError(f"power must be finite and >= 0 W, got {watts}")
        last_t = self._times[-1]
        if not time >= last_t:
            raise MeterError(f"power signal update at {time} precedes the last one at {last_t}")
        if watts == self._watts[-1]:
            return
        if time == last_t:
            self._watts[-1] = float(watts)
            # collapse with the previous segment if the overwrite made it equal
            if len(self._watts) >= 2 and self._watts[-2] == self._watts[-1]:
                self._times.pop()
                self._watts.pop()
        else:
            self._times.append(float(time))
            self._watts.append(float(watts))

    def copy(self, name: str = "") -> "PowerSignal":
        """An independent signal with the same breakpoints."""
        out = PowerSignal(self._watts[0], start_time=self._times[0], name=name or self.name)
        out._times = list(self._times)
        out._watts = list(self._watts)
        return out

    # --------------------------------------------------------------- queries

    @property
    def start_time(self) -> float:
        """Time of the first breakpoint."""
        return self._times[0]

    @property
    def last_time(self) -> float:
        """Time of the most recent breakpoint."""
        return self._times[-1]

    @property
    def breakpoints(self) -> list[tuple[float, float]]:
        """A copy of the ``(time, watts)`` breakpoint list."""
        return list(zip(self._times, self._watts))

    def value_at(self, time: float) -> float:  # repro-unit: watts, time=seconds
        """Instantaneous power at ``time`` (right-continuous)."""
        if time < self._times[0]:
            raise MeterError(f"query at {time} precedes signal start {self._times[0]}")
        idx = bisect.bisect_right(self._times, time) - 1
        return self._watts[idx]

    def integrate(self, t0: float, t1: float) -> float:
        # repro-unit: joules, t0=seconds, t1=seconds
        """Energy in joules over the window ``[t0, t1]``.

        The last breakpoint's power is extrapolated forward (a component
        holds its state until it changes it), so ``t1`` may exceed
        :attr:`last_time`.
        """
        return _integral(np.asarray(self._times), np.asarray(self._watts), t0, t1)

    def mean(self, t0: float, t1: float) -> float:
        # repro-unit: watts, t0=seconds, t1=seconds
        """Time-averaged power over ``[t0, t1]`` in watts."""
        return self.means((t0, t1))[0]

    def means(self, edges: Sequence[float]) -> list[float]:
        """:meth:`mean` over each window ``[edges[i], edges[i + 1]]``.

        The breakpoint lists become arrays once for all the windows; each
        window's arithmetic is :meth:`integrate`'s, so a window's mean does
        not depend on the other windows, bit for bit.
        """
        times = np.asarray(self._times)
        watts = np.asarray(self._watts)
        out = []
        for t0, t1 in zip(edges[:-1], edges[1:]):
            if t1 <= t0:
                raise MeterError(f"degenerate averaging window [{t0}, {t1}]")
            out.append(_integral(times, watts, t0, t1) / (t1 - t0))
        return out

    def max_over(self, t0: float, t1: float) -> float:
        # repro-unit: watts, t0=seconds, t1=seconds
        """Peak instantaneous power over ``[t0, t1]``."""
        if t1 < t0:
            raise MeterError(f"reversed window [{t0}, {t1}]")
        i0 = bisect.bisect_right(self._times, t0) - 1
        i1 = bisect.bisect_right(self._times, t1) - 1
        return float(max(self._watts[max(i0, 0) : i1 + 1]))

    # ------------------------------------------------------------ arithmetic

    @staticmethod
    def total(signals: Iterable["PowerSignal"], name: str = "total") -> "PowerSignal":
        """Sum of several signals as a new signal.

        The result starts at the latest of the inputs' start times (before
        that, at least one component's power is undefined).  A signal may
        appear more than once (every node of a group follows the group's
        signal); it is sampled once and added once per appearance, in order.
        """
        signals = list(signals)
        if not signals:
            raise ConfigurationError("total() of zero signals")
        distinct = list({id(s): s for s in signals}.values())
        start = max(s.start_time for s in distinct)
        merged = _sorted_unique(
            np.concatenate(
                [np.asarray(s._times)[np.asarray(s._times) >= start] for s in distinct]
                + [np.array([start])]
            )
        )
        # Vectorized sum: sample every signal at every merged breakpoint.
        samples = {id(s): s.samples(merged) for s in distinct}
        total_watts = np.zeros(merged.size)
        for s in signals:
            total_watts += samples[id(s)]
        out = PowerSignal(float(total_watts[0]), start_time=float(merged[0]), name=name)
        for t, w in zip(merged[1:], total_watts[1:]):
            out.set(float(t), float(w))
        return out

    def samples(self, times: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`value_at` for plotting/benchmark output."""
        times_arr = np.asarray(times, dtype=float)
        if times_arr.size and times_arr.min() < self._times[0]:
            raise MeterError("sample precedes signal start")
        idx = np.searchsorted(self._times, times_arr, side="right") - 1
        return np.asarray(self._watts)[idx]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PowerSignal {self.name!r} {len(self._times)} breakpoints, "
            f"last {self._watts[-1]:.0f} W @ {self._times[-1]:.1f}s>"
        )


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a 1-D array of finite floats; sorts in place.

    The same sort and mask as ``np.unique``, without the ``numpy.ma``
    import that ``np.unique`` makes on its first call.
    """
    values.sort()
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _integral(times: np.ndarray, watts: np.ndarray, t0: float, t1: float) -> float:
    # repro-unit: joules, t0=seconds, t1=seconds
    """Energy over ``[t0, t1]`` of the signal with breakpoint arrays
    ``times``/``watts``; see :meth:`PowerSignal.integrate`."""
    if t1 < t0:
        raise MeterError(f"reversed integration window [{t0}, {t1}]")
    if t0 < times[0]:
        raise MeterError(f"window starts at {t0}, before signal start {times[0]}")
    if t1 == t0:
        return 0.0
    # Segment i covers [times[i], times[i+1]) with power watts[i]; the final
    # segment extends to t1.
    edges = np.append(times, max(t1, times[-1]))
    lo = np.clip(edges[:-1], t0, t1)
    hi = np.clip(edges[1:], t0, t1)
    return float(np.sum((hi - lo) * watts))
