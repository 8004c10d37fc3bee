"""Meter models: how the paper's instruments observe true power.

Two instruments are modelled after Section IV-B of the paper:

* :class:`MeteredPDU` — the Raritan intelligent rack feeding the Lustre
  storage cluster.  Reports one averaged power value per minute, measured at
  the power inlet (so an efficiency loss factor can be applied).
* :class:`CageMonitor` — the Appro GreenBlade monitoring interface on the
  compute side.  One monitor covers a *cage* of ten nodes; fifteen monitors
  cover all 150 nodes.  Also one averaged value per minute.

Both specialize :class:`PowerMeter`, which turns a set of attached
:class:`~repro.power.signal.PowerSignal` objects into a
:class:`~repro.power.trace.PowerTrace` over a measurement window.  Within
each interval the meter averages the signal exactly — the limit of the real
hardware's "multiple measurements per interval, report the mean".
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro import obs
from repro.errors import ConfigurationError, MeterError
from repro.power.signal import PowerSignal
from repro.power.trace import PowerTrace
from repro.units import MINUTE

__all__ = ["PowerMeter", "MeteredPDU", "CageMonitor"]


class PowerMeter:
    """Base meter: interval-averaged sampling of attached power signals.

    Parameters
    ----------
    interval:
        Averaging window width in seconds (default one minute, the maximum
        rate of both instruments in the paper).
    loss_factor:
        Multiplier applied to the measured power, modelling inlet-side
        overhead (PSU inefficiency); 1.0 means the meter reads true power.
    """

    def __init__(
        self,
        name: str,
        interval: float = MINUTE,  # repro-unit: interval=seconds
        loss_factor: float = 1.0,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"meter interval must be positive, got {interval}")
        if loss_factor < 1.0:
            raise ConfigurationError(
                f"loss factor below 1.0 would create energy, got {loss_factor}"
            )
        self.name = name
        self.interval = float(interval)
        self.loss_factor = float(loss_factor)
        self._signals: list[PowerSignal] = []

    def attach(self, signal: PowerSignal) -> None:
        """Put ``signal`` behind this meter's inlet."""
        self._signals.append(signal)

    def attach_all(self, signals: Iterable[PowerSignal]) -> None:
        """Attach several signals at once."""
        for s in signals:
            self.attach(s)

    @property
    def n_signals(self) -> int:
        """Number of attached component signals."""
        return len(self._signals)

    def read(self, t0: float, t1: float, interval: Optional[float] = None) -> PowerTrace:
        # repro-unit: t0=seconds, t1=seconds, interval=seconds
        """Produce the meter's trace for the window ``[t0, t1]``."""
        if not self._signals:
            raise MeterError(f"meter {self.name!r} has no attached signals")
        combined = PowerSignal.total(self._signals, name=self.name)
        trace = PowerTrace.from_signal(
            combined, t0, t1, interval if interval is not None else self.interval, name=self.name
        )
        if self.loss_factor != 1.0:
            trace = PowerTrace(
                trace.start, trace.dt, trace.watts * self.loss_factor, name=self.name
            )
        self._count_read(trace)
        return trace

    def _count_read(self, trace: PowerTrace) -> None:
        obs.counter("repro_power_meter_reads_total", meter=self.name)
        obs.counter(
            "repro_power_samples_total", len(trace.watts), meter=self.name
        )

    def instantaneous(self, time: float) -> float:  # repro-unit: watts, time=seconds
        """True total power behind the inlet at ``time`` (watts)."""
        obs.counter("repro_power_instantaneous_reads_total", meter=self.name)
        if not self._signals:
            raise MeterError(f"meter {self.name!r} has no attached signals")
        return self.loss_factor * sum(s.value_at(time) for s in self._signals)


class MeteredPDU(PowerMeter):
    """The Raritan rack PDU feeding the storage cluster."""

    def __init__(self, name: str = "storage-pdu", interval: float = MINUTE) -> None:
        super().__init__(name, interval=interval)


class CageMonitor(PowerMeter):
    """An Appro cage-level monitor covering a group of ten compute nodes."""

    #: Nodes per cage on the paper's Appro GreenBlade system.
    NODES_PER_CAGE = 10

    def __init__(self, cage_index: int, interval: float = MINUTE) -> None:
        if cage_index < 0:
            raise ConfigurationError(f"negative cage index: {cage_index}")
        super().__init__(f"cage-{cage_index:02d}", interval=interval)
        self.cage_index = cage_index

    def attach(self, signal: PowerSignal) -> None:
        if self.n_signals >= self.NODES_PER_CAGE:
            raise ConfigurationError(
                f"cage {self.cage_index} already monitors {self.NODES_PER_CAGE} nodes"
            )
        super().attach(signal)

    def share(self, trace: PowerTrace) -> PowerTrace:
        """Report another cage's ``trace`` as this monitor's own read.

        For a cage whose nodes follow the same signals as the cage that
        read ``trace`` over the same window: the copy takes this monitor's
        name and counts as one of its reads, so a cluster integrates each
        distinct cage composition once.
        """
        # The interval count PowerTrace.from_signal records for a read.
        obs.counter(
            "repro_power_trace_intervals_total", len(trace.watts), signal=self.name
        )
        shared = PowerTrace(
            trace.start, trace.dt, trace.watts.copy(), name=self.name,
            final_dt=trace.final_dt,
        )
        self._count_read(shared)
        return shared
