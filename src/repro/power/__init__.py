"""Power instrumentation: the measurement methodology of the paper.

The *true* power draw of each simulated component is a piecewise-constant
:class:`~repro.power.signal.PowerSignal`.  Meters — the Raritan metered PDU
on the storage rack and the Appro cage-level monitors on the compute
cluster — observe those signals and report one *averaged* sample per minute,
exactly as in the paper.  :class:`~repro.power.trace.PowerTrace` holds the
sampled result and provides energy integration, alignment and summing.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.power.meter import CageMonitor, MeteredPDU, PowerMeter
    from repro.power.report import PowerReport
    from repro.power.signal import PowerSignal
    from repro.power.states import IdlePeriodManager, IdleSavings, LowPowerState, default_states
    from repro.power.trace import PowerTrace

__all__ = [
    "CageMonitor",
    "IdlePeriodManager",
    "IdleSavings",
    "LowPowerState",
    "MeteredPDU",
    "PowerMeter",
    "PowerReport",
    "PowerSignal",
    "PowerTrace",
    "default_states",
]

__getattr__, __dir__ = lazy_exports(__name__)
