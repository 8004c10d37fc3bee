"""Compute-cluster simulator (the paper's *Caddy* machine).

Nodes live in :class:`~repro.cluster.node.NodeGroup` objects: runs of node
ids that share one utilization and one exact
:class:`~repro.power.signal.PowerSignal`.  A whole-machine job keeps one
group; an allocation partition (the in-transit split) is the only thing that
splits one.  Cages of ten node ids each carry a power monitor.  Workflows
drive the cluster through *phases* (simulation, rendering, I/O wait), each
with a utilization level; node power follows utilization, which is how the
paper's 15 kW-idle / 44 kW-loaded dynamic range — and the flat power profile
of Fig. 5 — arise.
"""

from repro.cluster.machine import ComputeCluster, caddy
from repro.cluster.node import NodeGroup
from repro.cluster.power import CpuPowerModel, NodePowerModel, PState
from repro.cluster.topology import Interconnect

__all__ = [
    "ComputeCluster",
    "CpuPowerModel",
    "Interconnect",
    "NodeGroup",
    "NodePowerModel",
    "PState",
    "caddy",
]
