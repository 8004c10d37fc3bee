"""Node allocation: exclusive partitions of the cluster.

The paper runs whole-machine ("we ran our test application on the entire
cluster"), but the in-transit extension and co-scheduling studies need to
split the machine into named, non-overlapping partitions.  The
:class:`Allocator` hands out :class:`Partition` objects, enforces
exclusivity, and reports per-partition power.  A partition is a list of
node groups; carving one out is the only place a group splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from repro.cluster.machine import ComputeCluster
from repro.cluster.node import NodeGroup, node_sum
from repro.errors import ConfigurationError, ResourceError

__all__ = ["Partition", "Allocator"]


@dataclass
class Partition:
    """A named, exclusive set of node groups."""

    name: str
    cluster: ComputeCluster = field(repr=False)
    groups: list[NodeGroup]
    _released: bool = field(default=False, repr=False)

    @property
    def n_nodes(self) -> int:
        """Node count of the partition."""
        return sum(g.count for g in self.groups)

    @property
    def nodes(self) -> list[NodeGroup]:
        """The group of each member node, in node order."""
        return [g for g in self.groups for _ in g.node_ids]

    @property
    def released(self) -> bool:
        """True once the partition has been handed back."""
        return self._released

    @property
    def current_power(self) -> float:
        """Instantaneous power of this partition's nodes (watts)."""
        return node_sum(self.groups, attrgetter("current_power"))

    def set_utilization(self, utilization: float) -> None:
        """Drive every node of the partition to ``utilization``."""
        if self._released:
            raise ResourceError(f"partition {self.name!r} was already released")
        self.cluster.set_utilization(utilization, self.groups)

    def __contains__(self, group: NodeGroup) -> bool:
        return any(g is group for g in self.groups)


class Allocator:
    """Exclusive partitioning of a :class:`ComputeCluster`."""

    def __init__(self, cluster: ComputeCluster) -> None:
        self.cluster = cluster
        self._free: list[NodeGroup] = list(cluster.groups)
        self._partitions: dict[str, Partition] = {}

    @property
    def free_nodes(self) -> int:
        """Nodes not currently in any partition."""
        return sum(g.count for g in self._free)

    @property
    def partitions(self) -> list[Partition]:
        """All live partitions."""
        return list(self._partitions.values())

    def allocate(self, name: str, n_nodes: int) -> Partition:
        """Carve out ``n_nodes`` free nodes as a named partition.

        Nodes are taken from the front of the free pool; a group that
        straddles the boundary is split, the remainder staying free.
        """
        if not name:
            raise ConfigurationError("partition name must be non-empty")
        if name in self._partitions:
            raise ConfigurationError(f"partition {name!r} already exists")
        if n_nodes < 1:
            raise ConfigurationError(f"need >= 1 node, got {n_nodes}")
        if n_nodes > self.free_nodes:
            raise ResourceError(
                f"requested {n_nodes} nodes but only {self.free_nodes} are free"
            )
        taken: list[NodeGroup] = []
        while n_nodes:
            group = self._free.pop(0)
            if group.count > n_nodes:
                self._free.insert(0, self.cluster.split(group, n_nodes))
            taken.append(group)
            n_nodes -= group.count
        partition = Partition(name=name, cluster=self.cluster, groups=taken)
        self._partitions[name] = partition
        return partition

    def allocate_fraction(self, name: str, fraction: float) -> Partition:
        """Allocate a fraction of the whole machine (rounded, at least 1)."""
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction outside (0, 1]: {fraction}")
        return self.allocate(name, max(1, round(fraction * self.cluster.n_nodes)))

    def release(self, partition: Partition, idle: bool = True) -> None:
        """Return a partition's nodes to the free pool."""
        if partition.released:
            raise ResourceError(f"partition {partition.name!r} already released")
        if self._partitions.get(partition.name) is not partition:
            raise ResourceError(f"partition {partition.name!r} is not from this allocator")
        if idle:
            partition.set_utilization(0.0)
        partition._released = True
        del self._partitions[partition.name]
        self._free.extend(partition.groups)

    def get(self, name: str) -> Optional[Partition]:
        """Look up a live partition by name."""
        return self._partitions.get(name)
