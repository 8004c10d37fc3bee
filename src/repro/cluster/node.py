"""Node groups: compute nodes that move in lockstep.

A :class:`NodeGroup` is a contiguous run of node ids that share one
utilization (set by the workflow phases running on the cluster), one DVFS
frequency and so one power draw, which every member follows through the
group's exact :class:`~repro.power.signal.PowerSignal`.  The group also
accumulates each member's busy-core-seconds so CPU-utilization statistics
can be reported per run.  A one-node group is a single node.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, Optional

from repro.cluster.power import NodePowerModel
from repro.errors import ConfigurationError
from repro.events.engine import Simulator
from repro.power.signal import PowerSignal

__all__ = ["NodeGroup", "node_sum"]


class NodeGroup:
    """``count`` identical nodes from id ``first`` on, driven as one."""

    def __init__(
        self,
        sim: Simulator,
        first: int,
        power_model: NodePowerModel,
        *,
        count: int = 1,
        cores_per_socket: int = 8,
        memory_gb: float = 64.0,
    ) -> None:
        if first < 0:
            raise ConfigurationError(f"negative node id: {first}")
        if count < 1:
            raise ConfigurationError(f"a node group needs >= 1 node, got {count}")
        if cores_per_socket < 1:
            raise ConfigurationError(f"cores_per_socket must be >= 1, got {cores_per_socket}")
        if memory_gb <= 0:
            raise ConfigurationError(f"memory must be positive, got {memory_gb}")
        self.sim = sim
        self.first = first
        self.count = count
        self.power_model = power_model
        self.cores_per_socket = cores_per_socket
        #: Core count of one member node.
        self.n_cores = power_model.n_sockets * cores_per_socket
        self.memory_gb = memory_gb
        #: ``power_model.power(u, f)`` per ``(u, f)`` met so far: the
        #: phases use a handful of levels, each set thousands of times.
        self._watts: dict[tuple[float, Optional[float]], float] = {}
        self._utilization = 0.0
        self._frequency_ghz: Optional[float] = None
        self._busy_core_seconds = 0.0
        self._last_change = sim.now
        self.power_signal = PowerSignal(
            power_model.idle_watts, start_time=sim.now, name=f"nodes-{first:03d}"
        )

    # --------------------------------------------------------------- queries

    @property
    def node_ids(self) -> range:
        """The member node ids."""
        return range(self.first, self.first + self.count)

    @property
    def utilization(self) -> float:
        """Current utilization in [0, 1]."""
        return self._utilization

    @property
    def frequency_ghz(self) -> float:
        """Current operating frequency (base frequency unless DVFS'd)."""
        if self._frequency_ghz is not None:
            return self._frequency_ghz
        return self.power_model.cpu.base_frequency_ghz

    @property
    def current_power(self) -> float:
        """Instantaneous power draw of one member node in watts."""
        return self._draw(self._utilization, self._frequency_ghz)

    def _draw(self, utilization: float, frequency_ghz: Optional[float]) -> float:
        """``power_model.power(utilization, frequency_ghz)``, from the table."""
        key = (utilization, frequency_ghz)
        watts = self._watts.get(key)
        if watts is None:
            watts = self._watts[key] = self.power_model.power(*key)
        return watts

    def busy_core_seconds(self) -> float:
        """One member node's core-busy-seconds up to the current simulated time."""
        return self._busy_core_seconds + self._utilization * self.n_cores * (
            self.sim.now - self._last_change
        )

    # --------------------------------------------------------------- control

    def set_utilization(self, utilization: float, frequency_ghz: Optional[float] = None) -> None:
        """Change every member's utilization (and optionally DVFS frequency) *now*."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(f"utilization outside [0, 1]: {utilization}")
        # The draw first: ``power_model.power`` validates the frequency, and
        # a rejected set must leave the group as it was.
        watts = self._draw(utilization, frequency_ghz)
        now = self.sim.now
        self._busy_core_seconds += self._utilization * self.n_cores * (now - self._last_change)
        self._last_change = now
        self._utilization = utilization
        self._frequency_ghz = frequency_ghz
        self.power_signal.set(now, watts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NodeGroup {self.first}+{self.count} util={self._utilization:.2f} "
            f"{self.current_power:.0f} W/node @ {self.sim.now:.1f}s>"
        )


def node_sum(groups: Iterable[NodeGroup], value: Callable[[NodeGroup], float]) -> float:
    """The sum of ``value(group)`` over every member node, in node order.

    Adds the same floats in the same order as a node-by-node ``sum`` while
    calling ``value`` once per group: ``sum`` continues its accumulator from
    ``start`` with plain additions, and the per-node steps run in C.  (That
    holds through CPython 3.11, the version CI runs; from 3.12 ``sum``
    compensates each call's float additions, so the last bits can differ.)
    """
    total = 0
    for group in groups:
        total = sum(repeat(value(group), group.count), total)
    return total
