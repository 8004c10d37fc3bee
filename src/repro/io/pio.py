"""PIO-style parallel I/O aggregation.

The paper's post-processing pipeline "uses the PIO library, which in turn
uses parallel netCDF so that the output can be written to the parallel file
system faster".  PIO's core idea is *aggregation*: rather than all N compute
ranks hitting the filesystem, data funnels over the interconnect to a small
number of I/O aggregator ranks that issue large, well-formed writes.

:class:`PIOWriter` models exactly that: an interconnect-cost gather stage
followed by a backend write.  Two backends share the interface:

* :class:`~repro.pipelines.real.RealIOBackend` — writes actual bytes into
  a real directory (real-mode pipelines, examples, tests), part of the real
  platform;
* :class:`SimulatedIOBackend` — a DES process writing through the simulated
  Lustre filesystem (campaign-scale runs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Interconnect
    from repro.pipelines.real import RealIOBackend
    from repro.storage.lustre import LustreFileSystem

__all__ = ["SimulatedIOBackend", "PIOWriter"]


class SimulatedIOBackend:
    """Backend accounting writes through the simulated Lustre filesystem."""

    def __init__(self, filesystem: "LustreFileSystem") -> None:
        self.fs = filesystem
        self.bytes_written = 0.0
        self.files_written = 0

    def write_bytes(self, relpath: str, nbytes: float, overwrite: bool = False) -> Generator:
        """DES process: write ``nbytes`` to ``relpath`` through Lustre.

        ``overwrite=True`` replaces an existing file instead of extending it
        (restart-safe rewrites after a checkpoint recovery).
        """
        yield from self.fs.write(relpath, nbytes, overwrite=overwrite)
        self.bytes_written += nbytes
        self.files_written += 1

    def read_bytes(self, relpath: str) -> Generator:
        """DES process: read the whole file back."""
        yield from self.fs.read(relpath)


class PIOWriter:
    """Aggregating writer: compute ranks → aggregators → filesystem.

    ``aggregation_seconds`` estimates the cost of funnelling one sample's
    data from all compute ranks to the aggregators over the interconnect.
    On QDR IB this is small relative to the Lustre write itself — which is
    why the paper's α is dominated by storage bandwidth — but it is not
    zero, and it scales with data volume, so it is modelled explicitly.
    """

    def __init__(self, n_ranks: int, n_aggregators: int, interconnect: "Interconnect") -> None:
        if n_ranks < 1:
            raise ConfigurationError(f"need >= 1 rank, got {n_ranks}")
        if not 1 <= n_aggregators <= n_ranks:
            raise ConfigurationError(
                f"n_aggregators must be in [1, {n_ranks}], got {n_aggregators}"
            )
        self.n_ranks = n_ranks
        self.n_aggregators = n_aggregators
        self.interconnect = interconnect

    def aggregation_seconds(self, nbytes: float) -> float:
        """Interconnect time to funnel ``nbytes`` to the aggregators.

        Each aggregator collects from ``n_ranks / n_aggregators`` senders in
        sequence (they share the aggregator's link); aggregators work in
        parallel.
        """
        if nbytes < 0:
            raise ConfigurationError(f"negative data volume: {nbytes}")
        senders_per_agg = max(1, self.n_ranks // self.n_aggregators)
        bytes_per_sender = nbytes / self.n_ranks
        per_message = self.interconnect.point_to_point_time(bytes_per_sender)
        return senders_per_agg * per_message

    def write_simulated(
        self, backend: SimulatedIOBackend, relpath: str, nbytes: float, overwrite: bool = False
    ) -> Generator:
        """DES process: aggregate then write ``nbytes`` through the backend."""
        agg = self.aggregation_seconds(nbytes)
        if agg > 0:
            yield backend.fs.sim.timeout(agg)
        yield from backend.write_bytes(relpath, nbytes, overwrite=overwrite)

    def write_real(
        self,
        backend: "RealIOBackend",
        relpath: str,
        fields: Mapping[str, np.ndarray],
        attrs: Optional[Mapping[str, object]] = None,
    ) -> int:
        """Aggregate (a no-op in-process) then write real bytes."""
        return backend.write_fields(relpath, fields, attrs)
