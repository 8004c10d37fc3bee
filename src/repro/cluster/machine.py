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

from dataclasses import dataclass
from typing import Generator, Iterable, Optional

from repro.cluster.node import Node
from repro.cluster.power import NodePowerModel, e5_2670_node
from repro.cluster.topology import Cage, Interconnect
from repro.errors import ConfigurationError
from repro.events.engine import Simulator
from repro.power.meter import CageMonitor
from repro.power.signal import PowerSignal
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
    """A simulated compute cluster: nodes in cages plus an interconnect."""

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
        if nodes_per_cage < 1:
            raise ConfigurationError(f"nodes_per_cage must be >= 1, got {nodes_per_cage}")
        self.sim = sim
        self.name = name
        model = node_model if node_model is not None else e5_2670_node()
        self.node_model = model
        self.nodes = [
            Node(sim, i, model, cores_per_socket=cores_per_socket) for i in range(n_nodes)
        ]
        self.cages = [
            Cage(c, self.nodes[c * nodes_per_cage : (c + 1) * nodes_per_cage])
            for c in range((n_nodes + nodes_per_cage - 1) // nodes_per_cage)
        ]
        self.interconnect = interconnect if interconnect is not None else Interconnect()
        self.phases = phase_profile if phase_profile is not None else PhaseProfile()

    # --------------------------------------------------------------- queries

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the cluster."""
        return len(self.nodes)

    @property
    def n_cores(self) -> int:
        """Total core count."""
        return sum(n.n_cores for n in self.nodes)

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
        return sum(n.current_power for n in self.nodes)

    @property
    def monitors(self) -> list[CageMonitor]:
        """The cage-level power monitors (15 on Caddy)."""
        return [c.monitor for c in self.cages]

    def power_signals(self) -> list[PowerSignal]:
        """Per-node true power signals."""
        return [n.power_signal for n in self.nodes]

    # --------------------------------------------------------------- control

    def set_utilization(self, utilization: float, nodes: Optional[Iterable[Node]] = None) -> None:
        """Set utilization on ``nodes`` (default: all) at the current time."""
        for node in self.nodes if nodes is None else nodes:
            node.set_utilization(utilization)

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
        """One trace per cage monitor over ``[t0, t1]`` (1-minute averages)."""
        return [m.read(t0, t1) for m in self.monitors]

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
