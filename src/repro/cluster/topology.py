"""Cluster topology: the InfiniBand interconnect.

*Cages* follow the paper's Appro GreenBlade layout — ten nodes per cage, one
power monitor per cage, fifteen cages covering all 150 nodes.  A cage is a
range of node ids (:attr:`ComputeCluster.cages
<repro.cluster.machine.ComputeCluster>`).

The :class:`Interconnect` is an analytical QLogic QDR InfiniBand model used
for collective-cost estimates (image compositing in the renderer, aggregation
in the parallel I/O layer).  It uses the standard latency/bandwidth (Hockney)
model with log-rounds collectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["Interconnect"]


@dataclass(frozen=True)
class Interconnect:
    """Hockney-model InfiniBand fabric.

    Defaults approximate QLogic QDR (4 × 10 Gb/s signalling, ~3.2 GB/s
    effective per link after 8b/10b encoding and protocol overhead, ~1.3 µs
    MPI latency).
    """

    latency_s: float = 1.3e-6
    bandwidth_bytes_per_s: float = 3.2e9

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ConfigurationError(f"negative latency: {self.latency_s}")
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError(f"non-positive bandwidth: {self.bandwidth_bytes_per_s}")

    def point_to_point_time(self, nbytes: float) -> float:
        """Time to move ``nbytes`` between two nodes."""
        if nbytes < 0:
            raise ConfigurationError(f"negative message size: {nbytes}")
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s

    def _rounds(self, n_ranks: int) -> int:
        if n_ranks < 1:
            raise ConfigurationError(f"need >= 1 rank, got {n_ranks}")
        return max(1, math.ceil(math.log2(n_ranks))) if n_ranks > 1 else 0

    def allreduce_time(self, nbytes: float, n_ranks: int) -> float:
        """Recursive-doubling allreduce of an ``nbytes`` buffer."""
        r = self._rounds(n_ranks)
        return r * self.point_to_point_time(nbytes) if r else 0.0

    def gather_time(self, nbytes_per_rank: float, n_ranks: int) -> float:
        """Binomial-tree gather; the root ends up receiving everything."""
        if n_ranks <= 1:
            return 0.0
        r = self._rounds(n_ranks)
        # Data volume at the root doubles each round; total receive time is
        # dominated by the final rounds.
        total = 0.0
        for k in range(r):
            total += self.point_to_point_time(nbytes_per_rank * 2**k)
        return total

    def binary_swap_composite_time(self, image_bytes: float, n_ranks: int) -> float:
        """Binary-swap image compositing (the sort-last render pattern).

        Each of ``log2 p`` rounds exchanges half of the remaining image, so
        the per-rank traffic is bounded by the full image size; a final
        gather reassembles the image at the root.
        """
        if n_ranks <= 1:
            return 0.0
        r = self._rounds(n_ranks)
        time = 0.0
        remaining = image_bytes / 2.0
        for _ in range(r):
            time += self.point_to_point_time(remaining)
            remaining /= 2.0
        # Final gather of the fully composited tiles to rank 0.
        time += self.gather_time(image_bytes / n_ranks, n_ranks)
        return time
