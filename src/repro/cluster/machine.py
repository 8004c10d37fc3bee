"""The :class:`ComputeCluster` facade and the *Caddy* factory.

Workflows drive the cluster through *phases*: a phase sets every allocated
node to a utilization level for its duration (e.g. simulation at 0.95,
rendering at 0.92, I/O wait at 0.85 — MPI implementations busy-poll while
waiting on collective I/O, which is why I/O phases are *not* near idle and
why the paper measured essentially flat power across pipelines).

Phase utilization defaults live in :class:`PhaseProfile` so studies can
ablate them (e.g. "what if MPI blocked instead of polling?").
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from operator import attrgetter
from typing import Generator, Iterable, Optional

from repro.cluster.node import NodeGroup, node_sum
from repro.cluster.power import NodePowerModel, e5_2670_node
from repro.cluster.topology import Interconnect
from repro.errors import ConfigurationError
from repro.events.engine import Simulator
from repro.power.meter import CageMonitor
from repro.power.trace import PowerTrace

__all__ = ["PhaseProfile", "ComputeCluster", "caddy"]


@dataclass(frozen=True)
class PhaseProfile:
    """Utilization levels for the workflow phases.

    ``io_wait`` defaults to 0.85: parallel-netCDF collectives keep ranks
    spin-polling during writes, so CPUs stay hot.  Set it near 0.05 to model
    a blocking MPI and watch Hypothesis 3 (in-situ harnesses trapped
    capacity) come *true* — one of the ablations in DESIGN.md.
    """

    simulation: float = 0.95
    render: float = 0.92
    io_wait: float = 0.85
    idle: float = 0.0

    def __post_init__(self) -> None:
        for name in ("simulation", "render", "io_wait", "idle"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"phase utilization {name}={v} outside [0, 1]")


class ComputeCluster:
    """A simulated compute cluster: node groups in cages plus an interconnect.

    ``groups`` lists the node groups in node-id order.  They start as one
    group, and only an :class:`~repro.cluster.allocation.Allocator`
    partition splits one (:meth:`split`).  ``nodes[i]`` is the group of
    node ``i``.  ``cages`` are ranges of node ids; ``monitors[c]`` meters
    cage ``c`` by attaching each node's group signal.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        n_nodes: int,
        node_model: Optional[NodePowerModel] = None,
        cores_per_socket: int = 8,
        nodes_per_cage: int = CageMonitor.NODES_PER_CAGE,
        interconnect: Optional[Interconnect] = None,
        phase_profile: Optional[PhaseProfile] = None,
        name: str = "cluster",
    ) -> None:
        if n_nodes < 1:
            raise ConfigurationError(f"cluster needs >= 1 node, got {n_nodes}")
        if not 1 <= nodes_per_cage <= CageMonitor.NODES_PER_CAGE:
            raise ConfigurationError(
                f"nodes_per_cage must be in [1, {CageMonitor.NODES_PER_CAGE}], "
                f"got {nodes_per_cage}"
            )
        self.sim = sim
        self.name = name
        model = node_model if node_model is not None else e5_2670_node()
        self.node_model = model
        self.n_nodes = n_nodes
        self.groups = [
            NodeGroup(sim, 0, model, count=n_nodes, cores_per_socket=cores_per_socket)
        ]
        self.cages = [
            range(first, min(first + nodes_per_cage, n_nodes))
            for first in range(0, n_nodes, nodes_per_cage)
        ]
        self._reindex()
        self.interconnect = interconnect if interconnect is not None else Interconnect()
        self.phases = phase_profile if phase_profile is not None else PhaseProfile()

    def _reindex(self) -> None:
        """Index each node's group and meter the cages over the groups."""
        self.nodes = tuple(g for g in self.groups for _ in g.node_ids)
        self.monitors = [CageMonitor(c) for c in range(len(self.cages))]
        for monitor, cage in zip(self.monitors, self.cages):
            monitor.attach_all(self.nodes[i].power_signal for i in cage)

    # --------------------------------------------------------------- queries

    @property
    def n_cores(self) -> int:
        """Total core count."""
        return sum(g.n_cores * g.count for g in self.groups)

    @property
    def idle_watts(self) -> float:
        """Whole-cluster power at idle."""
        return self.node_model.idle_watts * self.n_nodes

    @property
    def peak_watts(self) -> float:
        """Whole-cluster power at full utilization."""
        return self.node_model.peak_watts * self.n_nodes

    @property
    def current_power(self) -> float:
        """Instantaneous cluster power in watts."""
        return node_sum(self.groups, attrgetter("current_power"))

    # --------------------------------------------------------------- control

    def set_utilization(
        self, utilization: float, groups: Optional[Iterable[NodeGroup]] = None
    ) -> None:
        """Set utilization on ``groups`` (default: all) at the current time."""
        for group in self.groups if groups is None else groups:
            group.set_utilization(utilization)

    def split(self, group: NodeGroup, count: int) -> NodeGroup:
        """Split ``group`` after its first ``count`` nodes; returns the rest.

        The rest carries on the group's state and a copy of its signal
        history, so every node's record reads as before, and the cages are
        re-metered.  Allocation partitions are the only caller.
        """
        if not 0 < count < group.count:
            raise ConfigurationError(f"cannot split {group.count} nodes after {count}")
        rest = copy.copy(group)
        rest.first, rest.count = group.first + count, group.count - count
        rest.power_signal = group.power_signal.copy(name=f"nodes-{rest.first:03d}")
        group.count = count
        self.groups.insert(self.groups.index(group) + 1, rest)
        self._reindex()
        return rest

    def run_phase(
        self, duration: float, utilization: float, after: Optional[float] = None
    ) -> Generator:
        """DES process: hold the whole cluster at ``utilization`` for ``duration``.

        Afterwards utilization returns to ``after`` (default: the phase
        profile's idle level).  Yield this from a workflow process::

            yield from cluster.run_phase(603.0, cluster.phases.simulation)
        """
        if duration < 0:
            raise ConfigurationError(f"negative phase duration: {duration}")
        self.set_utilization(utilization)
        yield self.sim.timeout(duration)
        self.set_utilization(self.phases.idle if after is None else after)

    # ------------------------------------------------------------ measurement

    def read_monitors(self, t0: float, t1: float) -> list[PowerTrace]:
        """One trace per cage monitor over ``[t0, t1]`` (1-minute averages).

        Cages whose nodes fall in the same groups read the same power, so
        the first such cage reads and the others share its trace.
        """
        readings: dict[tuple, PowerTrace] = {}
        traces = []
        for monitor, cage in zip(self.monitors, self.cages):
            members = self.nodes[cage.start : cage.stop]
            if members in readings:
                trace = monitor.share(readings[members])
            else:
                trace = readings[members] = monitor.read(t0, t1)
            traces.append(trace)
        return traces

    def read_total(self, t0: float, t1: float) -> PowerTrace:
        """Whole-cluster trace: the sum of all cage monitors."""
        return PowerTrace.aligned_sum(self.read_monitors(t0, t1), name=f"{self.name}-compute")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ComputeCluster {self.name!r}: {self.n_nodes} nodes / {self.n_cores} cores, "
            f"{self.idle_watts / 1e3:.1f}-{self.peak_watts / 1e3:.1f} kW>"
        )


def caddy(sim: Simulator, phase_profile: Optional[PhaseProfile] = None) -> ComputeCluster:
    """The paper's test system: 150 nodes / 2400 cores, 15 cages, QDR IB.

    Idle 15 kW, loaded 44 kW, matching Section V's measurements.
    """
    return ComputeCluster(
        sim,
        n_nodes=150,
        node_model=e5_2670_node(),
        cores_per_socket=8,
        nodes_per_cage=10,
        interconnect=Interconnect(),
        phase_profile=phase_profile,
        name="caddy",
    )
