"""The Lustre-like parallel filesystem and the storage-cluster facade.

Architecture (mirroring the paper's rack):

* **MDS** — metadata servers; every open/create costs a metadata round-trip
  through a counted :class:`~repro.events.resources.Resource` (2 servers,
  one op in service per server at a time).
* **OSS/OST** — object storage; all data moves through two shared
  :class:`~repro.events.resources.BandwidthPipe` objects (write path capped
  at the measured ~160 MB/s aggregate; read path faster, since the OSS page
  cache and sequential layout make post-hoc reads cheaper than the random
  writes the 160 MB/s figure describes).
* **StorageCluster** — binds the filesystem to its power model and the
  Raritan metered PDU.

Writes and reads are DES generator processes::

    yield from fs.write(path, nbytes)      # inside a Simulator process
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro import obs
from repro.errors import ConfigurationError, StorageError, StorageFullError
from repro.events.engine import Simulator
from repro.events.resources import BandwidthPipe, Resource
from repro.power.meter import MeteredPDU
from repro.power.signal import PowerSignal
from repro.storage.devices import OstDevice
from repro.storage.power import StoragePowerModel
from repro.units import MB, TB

__all__ = ["FileRecord", "LustreFileSystem", "StorageCluster"]


@dataclass
class FileRecord:
    """Namespace entry for one file."""

    path: str
    size: float = 0.0
    created_at: float = 0.0
    stripe_count: int = 1
    #: First OST of this file's stripe set (round-robin at creation); the
    #: file's bytes spread evenly over ``stripe_count`` OSTs from here.
    stripe_start: int = 0
    closed: bool = True
    n_writes: int = field(default=0, repr=False)
    n_reads: int = field(default=0, repr=False)


class LustreFileSystem:
    """Simulated parallel filesystem with shared-bandwidth data paths."""

    def __init__(
        self,
        sim: Simulator,
        *,
        capacity_bytes: float = 7.7 * TB,
        # repro-unit: write_bandwidth=bytes_per_s, read_bandwidth=bytes_per_s, metadata_latency=seconds
        write_bandwidth: float = 160 * MB,
        read_bandwidth: float = 1_000 * MB,
        n_mds: int = 2,
        n_ost: int = 8,
        metadata_latency: float = 1e-3,
        default_stripe_count: Optional[int] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError(f"capacity must be positive: {capacity_bytes}")
        if write_bandwidth <= 0 or read_bandwidth <= 0:
            raise ConfigurationError("bandwidths must be positive")
        if n_mds < 1 or n_ost < 1:
            raise ConfigurationError("need at least one MDS and one OST")
        if metadata_latency < 0:
            raise ConfigurationError(f"negative metadata latency: {metadata_latency}")
        self.sim = sim
        self.capacity_bytes = float(capacity_bytes)
        self.metadata_latency = float(metadata_latency)
        self.default_stripe_count = default_stripe_count or n_ost
        self.mds = Resource(sim, capacity=n_mds, name="mds")
        self.osts = [
            OstDevice(
                i,
                capacity_bytes / n_ost,
                write_bandwidth / n_ost,
                read_bandwidth / n_ost,
            )
            for i in range(n_ost)
        ]
        self.write_pipe = BandwidthPipe(sim, write_bandwidth)
        self.read_pipe = BandwidthPipe(sim, read_bandwidth)
        self._files: dict[str, FileRecord] = {}
        #: Running namespace totals: used bytes (``sum()`` of no sizes is int
        #: 0) and used bytes per OST.  A create adds its file to them; an
        #: append, an overwrite or a delete sets them to ``None``, and the
        #: next read rescans the namespace.
        self._used: Optional[float] = 0
        self._ost_used: Optional[list[float]] = [0.0] * n_ost
        #: :meth:`ost_fill_fractions` as last derived; ``None`` once stale.
        self._fills: Optional[tuple[float, ...]] = None
        self._metadata_ops = 0
        #: Round-robin cursor assigning each new file's ``stripe_start``.
        self._stripe_cursor = 0
        #: Bytes reserved by in-flight writes; counted against free space so
        #: concurrent writers cannot both pass the capacity check and
        #: overfill the filesystem.
        self._reserved_bytes = 0.0
        #: Optional fault hook (``check(op, path)`` raises TransientIOError
        #: when an injected error is armed).  Duck-typed — this module never
        #: imports :mod:`repro.faults`, which sits above it.
        self.fault_gate: Optional[Any] = None
        #: Optional retry hook (a :class:`repro.faults.RetryPolicy`) applied
        #: to whole write/read operations; ``None`` (the default) keeps the
        #: legacy single-attempt path bit-identical.
        self.retry_policy: Optional[Any] = None
        #: Seeded randomness for retry backoff jitter (deterministic runs).
        self.retry_rng: random.Random = random.Random(0)

    # --------------------------------------------------------------- queries

    @property
    def used_bytes(self) -> float:
        """Bytes currently stored."""
        if self._used is None:
            self._used = sum(f.size for f in self._files.values())
        return self._used

    @property
    def free_bytes(self) -> float:
        """Remaining capacity, net of reservations held by in-flight writes."""
        return self.capacity_bytes - self.used_bytes - self._reserved_bytes

    @property
    def reserved_bytes(self) -> float:
        """Bytes reserved by writes currently in flight."""
        return self._reserved_bytes

    @property
    def n_files(self) -> int:
        """Number of files in the namespace."""
        return len(self._files)

    @property
    def metadata_ops(self) -> int:
        """Total metadata operations served."""
        return self._metadata_ops

    @property
    def bytes_written(self) -> float:
        """Total bytes ever moved through the write path."""
        return self.write_pipe.bytes_moved

    @property
    def bytes_read(self) -> float:
        """Total bytes ever moved through the read path."""
        return self.read_pipe.bytes_moved

    @property
    def current_throughput(self) -> float:
        """Instantaneous aggregate data rate (read + write) in bytes/s."""
        return self.write_pipe.current_rate + self.read_pipe.current_rate

    @property
    def fill_ratio(self) -> float:
        """Fraction of total capacity holding committed data, in [0, 1]."""
        return self.used_bytes / self.capacity_bytes

    def ost_fill_fractions(self) -> tuple[float, ...]:
        """Per-OST fill fraction, derived from the live namespace.

        Each file spreads its bytes evenly over the ``stripe_count`` OSTs
        starting at its ``stripe_start`` (mod the OST count), so deletes and
        overwrites stay consistent with :attr:`used_bytes` by construction.
        """
        if self._fills is None:
            if self._ost_used is None:
                self._ost_used = [0.0] * len(self.osts)
                for record in self._files.values():
                    self._add_stripes(record)
            self._fills = tuple(
                used / ost.capacity_bytes for used, ost in zip(self._ost_used, self.osts)
            )
        return self._fills

    def _add_stripes(self, record: FileRecord) -> None:
        """Add ``record``'s bytes to the per-OST totals, evenly per stripe."""
        n = len(self.osts)
        per_stripe = record.size / record.stripe_count
        for k in range(record.stripe_count):
            self._ost_used[(record.stripe_start + k) % n] += per_stripe

    def _add_created(self, record: FileRecord) -> None:
        """Add a file that a write just created to the running totals.

        The new file is last in the namespace, so this repeats exactly the
        additions, in the same order, that a rescan makes.
        """
        if self._used is not None:
            self._used += record.size
        if self._ost_used is not None:
            self._add_stripes(record)
        self._fills = None

    def _drop_totals(self) -> None:
        """After an append, an overwrite or a delete: rescan at the next read."""
        self._used = self._ost_used = self._fills = None

    def stat(self, path: str) -> FileRecord:
        """Namespace record for ``path``."""
        try:
            return self._files[path]
        except KeyError:
            raise StorageError(f"no such file: {path!r}") from None

    def exists(self, path: str) -> bool:
        """True if ``path`` is in the namespace."""
        return path in self._files

    def listdir(self, prefix: str = "") -> list[str]:
        """All paths starting with ``prefix``, sorted."""
        return sorted(p for p in self._files if p.startswith(prefix))

    # ------------------------------------------------------------- processes

    def _metadata_op(self) -> Generator:
        req = self.mds.request()
        try:
            yield req
            yield self.sim.timeout(self.metadata_latency)
        finally:
            # Runs even when the waiting process is interrupted mid-flight:
            # a granted slot is handed to the next waiter, a still-queued
            # request is cancelled — the server slot never leaks.
            self.mds.release(req)
        self._metadata_ops += 1
        obs.counter("repro_storage_metadata_ops_total")

    def write(
        self,
        path: str,
        nbytes: float,  # repro-unit: nbytes=bytes
        stripe_count: Optional[int] = None,
        overwrite: bool = False,
    ) -> Generator[object, object, FileRecord]:
        """DES process: create/extend ``path`` with ``nbytes`` of data.

        With ``overwrite=True`` the file's contents are *replaced* rather
        than appended — the restart-safe mode checkpoint rewrites use.
        Returns the file's namespace record.  Raises
        :class:`~repro.errors.StorageFullError` *before* moving any data if
        the write cannot fit.  When a :attr:`retry_policy` is installed,
        transient failures re-attempt the whole operation with backoff.
        """
        if nbytes < 0:
            raise StorageError(f"negative write size: {nbytes}")
        stripes = stripe_count or self.default_stripe_count
        if not 1 <= stripes <= len(self.osts):
            raise StorageError(
                f"stripe_count {stripes} outside [1, {len(self.osts)}]"
            )
        if self.retry_policy is None:
            record = yield from self._write_attempt(path, nbytes, stripes, overwrite)
        else:
            record = yield from self.retry_policy.run(
                self.sim,
                lambda: self._write_attempt(path, nbytes, stripes, overwrite),
                self.retry_rng,
                op="write",
            )
        return record

    def _write_attempt(
        self, path: str, nbytes: float, stripes: int, overwrite: bool
    ) -> Generator[object, object, FileRecord]:
        """One crash-consistent write attempt.

        Capacity is *reserved* before any data moves and released when the
        attempt leaves (success or failure), so concurrent writes cannot
        jointly overcommit; on interrupt/failure the in-flight transfer is
        cancelled, rolling its partial bytes back out of ``bytes_written``
        so the byte counters and the namespace never disagree.
        """
        if self.fault_gate is not None:
            self.fault_gate.check("write", path)
        existing = self._files.get(path)
        replaced = existing.size if (overwrite and existing is not None) else 0.0
        needed = max(0.0, nbytes - replaced)
        if needed > self.free_bytes:
            raise StorageFullError(
                f"write of {nbytes:.3e} B exceeds free capacity {self.free_bytes:.3e} B"
            )
        self._reserved_bytes += needed
        transfer = None
        try:
            yield from self._metadata_op()
            cap = self.osts[0].stripe_cap(stripes, write=True)
            if nbytes > 0:
                transfer = self.write_pipe.transfer(nbytes, cap=cap, tag=path)
                yield transfer
        except BaseException:
            if transfer is not None:
                self.write_pipe.cancel(transfer)
            raise
        finally:
            self._reserved_bytes -= needed
        record = self._files.get(path)
        created = record is None
        if created:
            record = FileRecord(
                path,
                created_at=self.sim.now,
                stripe_count=stripes,
                stripe_start=self._stripe_cursor,
            )
            self._stripe_cursor = (self._stripe_cursor + stripes) % len(self.osts)
            self._files[path] = record
        if overwrite:
            record.size = float(nbytes)
        else:
            record.size += nbytes
        if created:
            self._add_created(record)
        else:
            self._drop_totals()
        record.n_writes += 1
        obs.counter("repro_storage_writes_total")
        obs.counter("repro_storage_written_bytes", nbytes)
        # Timestamped (sim-clock) completion event so the span profiler can
        # attribute written bytes to the enclosing span/phase window.
        obs.event("storage_write", t=self.sim.now, path=path, bytes=float(nbytes))
        return record

    def read(self, path: str, nbytes: Optional[float] = None) -> Generator[object, object, float]:
        # repro-unit: nbytes=bytes
        """DES process: read ``nbytes`` (default: whole file) from ``path``."""
        record = self.stat(path)
        size = record.size if nbytes is None else float(nbytes)
        if size < 0:
            raise StorageError(f"negative read size: {size}")
        if size > record.size:
            raise StorageError(
                f"read of {size:.3e} B beyond EOF of {path!r} ({record.size:.3e} B)"
            )
        if self.retry_policy is None:
            result = yield from self._read_attempt(path, record, size)
        else:
            result = yield from self.retry_policy.run(
                self.sim,
                lambda: self._read_attempt(path, record, size),
                self.retry_rng,
                op="read",
            )
        return result

    def _read_attempt(
        self, path: str, record: FileRecord, size: float
    ) -> Generator[object, object, float]:
        if self.fault_gate is not None:
            self.fault_gate.check("read", path)
        transfer = None
        try:
            yield from self._metadata_op()
            cap = self.osts[0].stripe_cap(record.stripe_count, write=False)
            if size > 0:
                transfer = self.read_pipe.transfer(size, cap=cap, tag=path)
                yield transfer
        except BaseException:
            if transfer is not None:
                self.read_pipe.cancel(transfer)
            raise
        record.n_reads += 1
        obs.counter("repro_storage_reads_total")
        obs.counter("repro_storage_read_bytes", size)
        obs.event("storage_read", t=self.sim.now, path=path, bytes=float(size))
        return size

    def delete(self, path: str) -> Generator:
        """DES process: remove ``path`` (metadata-only cost)."""
        self.stat(path)
        yield from self._metadata_op()
        del self._files[path]
        self._drop_totals()


class StorageCluster:
    """Filesystem + power model + metered PDU, as racked in the paper."""

    def __init__(
        self,
        sim: Simulator,
        *,
        filesystem: Optional[LustreFileSystem] = None,
        power_model: Optional[StoragePowerModel] = None,
        name: str = "storage",
    ) -> None:
        self.sim = sim
        self.name = name
        self.fs = filesystem if filesystem is not None else LustreFileSystem(sim)
        self.power_model = power_model if power_model is not None else StoragePowerModel(
            rated_bandwidth=self.fs.write_pipe.capacity
        )
        self.power_signal = PowerSignal(
            self.power_model.power(0.0), start_time=sim.now, name=name
        )
        self.pdu = MeteredPDU(f"{name}-pdu")
        self.pdu.attach(self.power_signal)
        # Observe both pipes; either change re-evaluates total throughput.
        self.fs.write_pipe.on_rate_change = self._on_rate_change
        self.fs.read_pipe.on_rate_change = self._on_rate_change

    def _on_rate_change(self, time: float, _rate: float) -> None:
        self.power_signal.set(time, self.power_model.power(self.fs.current_throughput))

    @property
    def current_power(self) -> float:
        """Instantaneous rack power in watts."""
        return self.power_model.power(self.fs.current_throughput)

    def read_pdu(self, t0: float, t1: float):
        """The Raritan PDU's 1-minute-averaged trace over ``[t0, t1]``."""
        return self.pdu.read(t0, t1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StorageCluster {self.name!r}: {self.fs.n_files} files, "
            f"{self.fs.used_bytes / TB:.2f}/{self.fs.capacity_bytes / TB:.1f} TB>"
        )
