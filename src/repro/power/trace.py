"""Sampled power traces.

A :class:`PowerTrace` is what a meter reports: a uniform grid of averaging
intervals of width ``dt`` starting at ``start``, where ``watts[i]`` is the
*average* power over interval ``i``.  This matches the paper's instruments,
which report one averaged value per minute.

A run rarely ends exactly on a minute boundary, so the *final* interval may
be shorter than ``dt``; the trace records its true width (``final_dt``) so
that energy integration is exact: ``energy = dt * sum(watts[:-1]) +
final_dt * watts[-1]``.  No quadrature error is ever introduced by the trace
itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, MeterError

if TYPE_CHECKING:  # pragma: no cover
    from repro.power.signal import PowerSignal

__all__ = ["PowerTrace"]

_INF = float("inf")


class PowerTrace:
    """A uniformly sampled, interval-averaged power trace."""

    def __init__(
        self,
        start: float,  # repro-unit: start=seconds, dt=seconds, final_dt=seconds
        dt: float,
        watts: Sequence[float],
        name: str = "",
        final_dt: Optional[float] = None,
    ) -> None:
        if dt <= 0:
            raise ConfigurationError(f"trace interval must be positive, got {dt}")
        self.start = float(start)
        self.dt = float(dt)
        self.watts = np.asarray(watts, dtype=float)
        if self.watts.ndim != 1:
            raise ConfigurationError("trace samples must be a 1-D sequence")
        if self.watts.size and self.watts.min() < 0:
            raise ConfigurationError("trace contains negative power samples")
        self.final_dt = float(dt if final_dt is None else final_dt)
        # Window edges are absolute times from np.arange, which steps by
        # fl(start + dt) - start: edge k may be off by k half-ulps of the
        # trace's end, so a full final window may exceed dt by up to
        # n_samples of them.  Allow twice that.
        end = abs(self.start) + self.dt * self.watts.size
        slack = max(self.watts.size, 1) * float(np.spacing(end))
        if not 0.0 < self.final_dt <= self.dt + slack:
            raise ConfigurationError(
                f"final interval width {self.final_dt} outside (0, dt={self.dt}]"
            )
        if self.watts.size == 0:
            self.final_dt = self.dt
        self.name = name

    # ----------------------------------------------------------- constructors

    @classmethod
    def from_signal(
        cls, signal: "PowerSignal", t0: float, t1: float, dt: float, name: str = ""
        # repro-unit: t0=seconds, t1=seconds, dt=seconds
    ) -> "PowerTrace":
        """Sample ``signal`` over ``[t0, t1]`` with averaging windows of ``dt``.

        The final window (if ``t1 - t0`` is not a multiple of ``dt``) is
        averaged over its actual extent and its true width is recorded, as
        real meters do when a run ends mid-interval.
        """
        if not -_INF < t0 < t1 < _INF:  # NaN and inf too
            kind = "empty" if t1 <= t0 else "non-finite"
            raise MeterError(f"{kind} sampling window [{t0}, {t1}]")
        if not 0 < dt < _INF:
            raise MeterError(f"sampling interval must be finite and > 0 s, got {dt}")
        edges = np.arange(t0, t1, dt)
        edges = np.append(edges, t1)
        watts = signal.means(edges)
        obs.counter(
            "repro_power_trace_intervals_total", len(watts), signal=name or signal.name
        )
        return cls(
            t0, dt, watts, name=name or signal.name, final_dt=float(edges[-1] - edges[-2])
        )

    # ---------------------------------------------------------------- queries

    @property
    def n_samples(self) -> int:
        """Number of averaging intervals."""
        return int(self.watts.size)

    @property
    def end(self) -> float:
        """End time of the last interval."""
        if self.n_samples == 0:
            return self.start
        return self.start + self.dt * (self.n_samples - 1) + self.final_dt

    @property
    def duration(self) -> float:
        """Total covered duration in seconds."""
        return self.end - self.start

    @property
    def widths(self) -> np.ndarray:
        """Per-interval widths (all ``dt`` except possibly the last)."""
        w = np.full(self.n_samples, self.dt)
        if self.n_samples:
            w[-1] = self.final_dt
        return w

    @property
    def times(self) -> np.ndarray:
        """Midpoints of the averaging intervals (for plotting)."""
        lefts = self.start + self.dt * np.arange(self.n_samples)
        return lefts + self.widths / 2.0

    def energy(self) -> float:  # repro-unit: joules
        """Total energy in joules (exact, including the partial tail)."""
        return float(np.dot(self.watts, self.widths))

    def energy_between(self, t0: float, t1: float) -> float:
        # repro-unit: joules, t0=seconds, t1=seconds
        """Energy in joules over ``[t0, t1]`` (exact piecewise integral).

        The window is clipped to the trace extent.  Because the trace is
        piecewise-constant, the integral is additive: windows that partition
        the trace sum exactly to :meth:`energy` — the invariant the span
        profiler's conservation check leans on.
        """
        if t1 < t0:
            raise ConfigurationError(f"empty attribution window [{t0}, {t1}]")
        if self.n_samples == 0:
            return 0.0
        lefts = self.start + self.dt * np.arange(self.n_samples)
        rights = lefts + self.widths
        overlap = np.clip(np.minimum(rights, t1) - np.maximum(lefts, t0), 0.0, None)
        return float(np.dot(self.watts, overlap))

    def average_power(self) -> float:  # repro-unit: watts
        """Duration-weighted mean power in watts."""
        if self.n_samples == 0:
            raise MeterError("average of an empty trace")
        return self.energy() / self.duration

    def peak_power(self) -> float:  # repro-unit: watts
        """Largest interval-average sample in watts."""
        if self.n_samples == 0:
            raise MeterError("peak of an empty trace")
        return float(self.watts.max())

    # ----------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """JSON-safe representation (telemetry ``power_trace`` events)."""
        return {
            "start": self.start,
            "dt": self.dt,
            "final_dt": self.final_dt,
            "watts": [float(w) for w in self.watts],
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PowerTrace":
        """Inverse of :meth:`to_dict`."""
        return cls(
            start=float(data["start"]),
            dt=float(data["dt"]),
            watts=data.get("watts", ()),
            name=str(data.get("name", "")),
            final_dt=(
                None if data.get("final_dt") is None else float(data["final_dt"])
            ),
        )

    # ------------------------------------------------------------- transforms

    def resample(self, dt: float) -> "PowerTrace":  # repro-unit: dt=seconds
        """Re-average onto a coarser or finer uniform grid of width ``dt``.

        ``dt`` must tile the trace's *uniform* portion; the trailing partial
        interval keeps its energy exactly.  Energy is conserved.
        """
        if dt <= 0:
            raise ConfigurationError(f"resample interval must be positive, got {dt}")
        n_new = self.duration / dt
        if n_new < 1:
            raise ConfigurationError(
                f"resample dt={dt} exceeds the trace duration {self.duration}"
            )
        old_edges = np.append(
            self.start + self.dt * np.arange(self.n_samples), self.end
        )
        new_edges = np.arange(self.start, self.end, dt)
        new_edges = np.append(new_edges, self.end)
        out = np.empty(new_edges.size - 1)
        for i, (a, b) in enumerate(zip(new_edges[:-1], new_edges[1:])):
            lo = np.clip(old_edges[:-1], a, b)
            hi = np.clip(old_edges[1:], a, b)
            out[i] = np.sum((hi - lo) * self.watts) / (b - a)
        return PowerTrace(
            self.start, dt, out, name=self.name,
            final_dt=float(new_edges[-1] - new_edges[-2]),
        )

    def shifted(self, offset: float) -> "PowerTrace":  # repro-unit: offset=seconds
        """The same trace translated in time by ``offset`` seconds."""
        return PowerTrace(
            self.start + offset, self.dt, self.watts.copy(), name=self.name,
            final_dt=self.final_dt,
        )

    def __add__(self, other: "PowerTrace") -> "PowerTrace":
        """Sample-wise sum of two aligned traces (e.g. compute + storage).

        Both traces must share ``start`` and ``dt``; the shorter one is
        zero-extended, modelling a component that was powered off (or not
        attributed to this run) outside its recorded window.  The longer
        trace's final width wins.
        """
        if not isinstance(other, PowerTrace):
            return NotImplemented
        if abs(self.start - other.start) > 1e-9 or abs(self.dt - other.dt) > 1e-12:
            raise MeterError(
                "cannot add misaligned traces "
                f"(start {self.start} vs {other.start}, dt {self.dt} vs {other.dt})"
            )
        longer = self if (self.n_samples, self.final_dt) >= (other.n_samples, other.final_dt) else other
        n = max(self.n_samples, other.n_samples)
        a = np.zeros(n)
        b = np.zeros(n)
        a[: self.n_samples] = self.watts
        b[: other.n_samples] = other.watts
        return PowerTrace(
            self.start, self.dt, a + b, name=f"{self.name}+{other.name}",
            final_dt=longer.final_dt if n else None,
        )

    @staticmethod
    def aligned_sum(traces: Iterable["PowerTrace"], name: str = "total") -> "PowerTrace":
        """Sum several aligned traces (see :meth:`__add__`)."""
        traces = list(traces)
        if not traces:
            raise MeterError("aligned_sum of zero traces")
        acc = traces[0]
        for t in traces[1:]:
            acc = acc + t
        acc.name = name
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.n_samples:
            return (
                f"<PowerTrace {self.name!r} {self.n_samples} x {self.dt:.0f}s, "
                f"avg {self.average_power():.0f} W>"
            )
        return f"<PowerTrace {self.name!r} empty>"
