"""Tests for the Lustre-like storage simulator (:mod:`repro.storage`)."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    NodeCrashError,
    StorageError,
    StorageFullError,
    TransientIOError,
)
from repro.events.engine import Simulator
from repro.faults import FaultGate
from repro.storage.devices import OstDevice
from repro.storage.lustre import LustreFileSystem, StorageCluster
from repro.storage.power import StoragePowerModel
from repro.units import GB, MB, TB


def run_process(sim, gen):
    """Drive one generator process to completion, returning its value."""
    proc = sim.process(gen)
    sim.run()
    return proc.value


class TestOstDevice:
    def test_stripe_cap_scales_with_count(self):
        ost = OstDevice(0, capacity_bytes=1 * TB, write_bandwidth=20 * MB, read_bandwidth=125 * MB)
        assert ost.stripe_cap(1, write=True) == 20 * MB
        assert ost.stripe_cap(8, write=True) == 160 * MB
        assert ost.stripe_cap(2, write=False) == 250 * MB

    def test_invalid_stripe_count(self):
        ost = OstDevice(0, 1 * TB, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            ost.stripe_cap(0, write=True)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            OstDevice(-1, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            OstDevice(0, 0.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            OstDevice(0, 1.0, 0.0, 1.0)


class TestStoragePowerModel:
    def test_paper_endpoints(self):
        m = StoragePowerModel()
        assert m.power(0.0) == 2_273.0
        rated = 160 * MB  # repro-unit: bytes_per_s
        assert m.power(rated) == 2_302.0

    def test_proportionality_is_1_3_percent(self):
        assert StoragePowerModel().proportionality() == pytest.approx(0.0128, abs=0.001)

    def test_linear_interpolation(self):
        m = StoragePowerModel()
        half_rated = 80 * MB  # repro-unit: bytes_per_s
        assert m.power(half_rated) == pytest.approx(2_287.5)

    def test_saturates_above_rated(self):
        m = StoragePowerModel()
        assert m.power(1e12) == m.full_load_watts

    def test_negative_throughput_rejected(self):
        with pytest.raises(ConfigurationError):
            StoragePowerModel().power(-1.0)

    def test_five_nodes(self):
        m = StoragePowerModel()
        assert m.n_nodes == 5
        split = m.per_node_idle()
        assert sum(split.values()) == pytest.approx(m.idle_watts)

    def test_full_below_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            StoragePowerModel(idle_watts=100.0, full_load_watts=50.0)


class TestLustreFileSystem:
    def test_write_takes_bandwidth_time(self, sim):
        fs = LustreFileSystem(sim, metadata_latency=0.0)
        run_process(sim, fs.write("/a", 1.6e9))
        assert sim.now == pytest.approx(10.0)  # 1.6 GB at 160 MB/s

    def test_metadata_latency_added(self, sim):
        fs = LustreFileSystem(sim, metadata_latency=0.5)
        run_process(sim, fs.write("/a", 0.0))
        assert sim.now == pytest.approx(0.5)

    def test_write_records_file(self, sim):
        fs = LustreFileSystem(sim)
        rec = run_process(sim, fs.write("/out/a.nc", 5 * GB))
        assert rec.size == 5 * GB
        assert fs.exists("/out/a.nc")
        assert fs.used_bytes == 5 * GB
        assert fs.n_files == 1

    def test_append_extends_file(self, sim):
        fs = LustreFileSystem(sim)
        run_process(sim, fs.write("/a", 1 * GB))
        rec = run_process(sim, fs.write("/a", 1 * GB))
        assert rec.size == 2 * GB
        assert rec.n_writes == 2
        assert fs.n_files == 1

    def test_capacity_enforced_before_moving_data(self, sim):
        fs = LustreFileSystem(sim, capacity_bytes=1 * GB)
        with pytest.raises(StorageFullError):
            run_process(sim, fs.write("/a", 2 * GB))
        assert fs.used_bytes == 0
        assert fs.bytes_written == 0

    def test_read_whole_file(self, sim):
        fs = LustreFileSystem(sim, metadata_latency=0.0)
        run_process(sim, fs.write("/a", 1e9))
        t0 = sim.now
        n = run_process(sim, fs.read("/a"))
        assert n == 1e9
        assert sim.now - t0 == pytest.approx(1.0)  # 1 GB at 1 GB/s read path

    def test_read_beyond_eof_rejected(self, sim):
        fs = LustreFileSystem(sim)
        run_process(sim, fs.write("/a", 100.0))
        with pytest.raises(StorageError):
            run_process(sim, fs.read("/a", 200.0))

    def test_read_missing_file_rejected(self, sim):
        fs = LustreFileSystem(sim)
        with pytest.raises(StorageError):
            run_process(sim, fs.read("/nope"))

    def test_delete(self, sim):
        fs = LustreFileSystem(sim)
        run_process(sim, fs.write("/a", 100.0))
        run_process(sim, fs.delete("/a"))
        assert not fs.exists("/a")
        assert fs.used_bytes == 0

    def test_delete_missing_rejected(self, sim):
        fs = LustreFileSystem(sim)
        with pytest.raises(StorageError):
            run_process(sim, fs.delete("/nope"))

    def test_listdir_prefix(self, sim):
        fs = LustreFileSystem(sim)
        for p in ("/run/a", "/run/b", "/other/c"):
            run_process(sim, fs.write(p, 1.0))
        assert fs.listdir("/run/") == ["/run/a", "/run/b"]

    def test_concurrent_writers_share_bandwidth(self, sim):
        fs = LustreFileSystem(sim, metadata_latency=0.0)
        done = []

        def writer(path):
            yield from fs.write(path, 0.8e9)
            done.append(sim.now)

        sim.process(writer("/a"))
        sim.process(writer("/b"))
        sim.run()
        # Two 0.8 GB writes sharing 160 MB/s finish together at 10 s.
        assert done == pytest.approx([10.0, 10.0])

    def test_stripe_count_caps_single_stream(self, sim):
        fs = LustreFileSystem(sim, n_ost=8, metadata_latency=0.0)
        run_process(sim, fs.write("/narrow", 0.16e9, stripe_count=1))
        # One stripe = 1/8 of the aggregate: 20 MB/s -> 8 s.
        assert sim.now == pytest.approx(8.0)

    def test_invalid_stripe_count_rejected(self, sim):
        fs = LustreFileSystem(sim, n_ost=8)
        with pytest.raises(StorageError):
            run_process(sim, fs.write("/a", 1.0, stripe_count=9))

    def test_negative_write_rejected(self, sim):
        fs = LustreFileSystem(sim)
        with pytest.raises(StorageError):
            run_process(sim, fs.write("/a", -1.0))

    def test_metadata_ops_counted(self, sim):
        fs = LustreFileSystem(sim)
        run_process(sim, fs.write("/a", 1.0))
        run_process(sim, fs.read("/a"))
        run_process(sim, fs.delete("/a"))
        assert fs.metadata_ops == 3

    def test_mds_concurrency_limit(self, sim):
        """Metadata ops queue on the two MDS servers."""
        fs = LustreFileSystem(sim, n_mds=2, metadata_latency=1.0)

        def op(i):
            yield from fs.write(f"/f{i}", 0.0)

        for i in range(4):
            sim.process(op(i))
        sim.run()
        # 4 ops, 2 servers, 1 s each -> 2 s total.
        assert sim.now == pytest.approx(2.0)

    @settings(deadline=None, max_examples=25)
    @given(
        sizes=st.lists(
            st.floats(min_value=0.0, max_value=5e9, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_used_bytes_equals_sum_of_writes(self, sizes):
        sim = Simulator()
        fs = LustreFileSystem(sim)

        def writer():
            for i, s in enumerate(sizes):
                yield from fs.write(f"/f{i}", s)

        sim.process(writer())
        sim.run()
        assert fs.used_bytes == pytest.approx(sum(sizes))
        assert fs.bytes_written == pytest.approx(sum(sizes), rel=1e-9, abs=1e-3)


def _bits(used: float, ratio: float, fills) -> tuple:
    return (float(used).hex(), float(ratio).hex(), tuple(f.hex() for f in fills))


def _totals(fs: LustreFileSystem) -> tuple:
    """The three namespace totals as the filesystem reports them."""
    return _bits(fs.used_bytes, fs.fill_ratio, fs.ost_fill_fractions())


def _scan(fs: LustreFileSystem) -> tuple:
    """The same totals from a fresh scan of the namespace, in its order."""
    records = list(fs._files.values())
    used = sum(r.size for r in records)
    n = len(fs.osts)
    per_ost = [0.0] * n
    for r in records:
        share = r.size / r.stripe_count
        for k in range(r.stripe_count):
            per_ost[(r.stripe_start + k) % n] += share
    fills = tuple(per_ost[i] / fs.osts[i].capacity_bytes for i in range(n))
    return _bits(used, used / fs.capacity_bytes, fills)


def _uncounted_scan(fs: LustreFileSystem) -> tuple:
    """:func:`_scan` over a plain copy of the namespace, so that a counting
    namespace counts only the filesystem's own scans."""
    return _scan(SimpleNamespace(
        _files=dict(fs._files.items()), osts=fs.osts, capacity_bytes=fs.capacity_bytes
    ))


class _CountingFiles(dict):
    """A namespace dict that counts full scans (``values()`` calls)."""

    scans = 0

    def values(self):
        self.scans += 1
        return super().values()


class TestNamespaceTotals:
    """The totals are rescanned only after an append, an overwrite or a delete."""

    def test_totals_follow_every_namespace_change(self, sim):
        fs = LustreFileSystem(sim, capacity_bytes=10 * GB)
        changes = [
            ("create", lambda: fs.write("/a", 123_456_789.0, stripe_count=3)),
            ("create", lambda: fs.write("/b", 0.7 * GB, stripe_count=5)),
            ("append", lambda: fs.write("/a", 98_765.4321)),
            ("overwrite", lambda: fs.write("/b", 0.3 * GB, overwrite=True)),
            ("delete", lambda: fs.delete("/a")),
        ]
        for what, change in changes:
            before = _totals(fs)
            run_process(sim, change())
            assert _totals(fs) == _scan(fs), what
            assert _totals(fs) != before, what

    def test_failed_writes_leave_totals_unchanged(self, sim):
        rate = 100 * MB  # repro-unit: bytes_per_s
        fs = LustreFileSystem(sim, capacity_bytes=1 * GB, write_bandwidth=rate)
        run_process(sim, fs.write("/a", 0.3 * GB, stripe_count=3))
        before = _totals(fs)

        with pytest.raises(StorageFullError):
            run_process(sim, fs.write("/big", 2 * GB))
        assert _totals(fs) == before == _scan(fs)

        fs.fault_gate = FaultGate()
        fs.fault_gate.arm("write")
        with pytest.raises(TransientIOError):
            run_process(sim, fs.write("/a", 0.1 * GB))
        assert _totals(fs) == before == _scan(fs)

        outcome = []

        def writer():
            try:
                yield from fs.write("/a", 0.2 * GB)  # 2 s on the write pipe
            except NodeCrashError:
                outcome.append("crashed")

        proc = sim.process(writer())
        fuse = sim.timeout(1.0)
        fuse.callbacks.append(lambda _e: proc.interrupt(NodeCrashError("die")))
        sim.run()
        assert outcome == ["crashed"]
        assert _totals(fs) == before == _scan(fs)

    def test_two_reads_scan_the_namespace_once(self, sim):
        fs = LustreFileSystem(sim)
        files = fs._files = _CountingFiles(fs._files)
        run_process(sim, fs.write("/a", 1 * GB))
        run_process(sim, fs.write("/b", 2 * GB, stripe_count=3))
        reads = [fs.used_bytes, fs.fill_ratio, fs.used_bytes]
        assert reads == [3 * GB, 3 * GB / fs.capacity_bytes, 3 * GB]
        assert fs.ost_fill_fractions() == fs.ost_fill_fractions()
        run_process(sim, fs.write("/c", 1 * GB))
        assert fs.used_bytes == fs.used_bytes == 4 * GB
        assert fs.ost_fill_fractions() == fs.ost_fill_fractions()
        assert files.scans == 0
        run_process(sim, fs.write("/a", 1 * GB))  # an append
        assert fs.used_bytes == fs.used_bytes == 5 * GB
        assert files.scans == 1
        assert fs.ost_fill_fractions() == fs.ost_fill_fractions()
        assert files.scans == 2

    def test_creates_add_to_the_totals_without_a_scan(self, sim):
        rng = random.Random(16)
        fs = LustreFileSystem(sim)
        files = fs._files = _CountingFiles()
        paths = []
        for i in range(300):
            size = rng.uniform(0.0, 2 * GB) / rng.choice((1, 3, 7, 11))
            assert fs.free_bytes > size
            # Post-processing writes new files with overwrite=True.
            paths.append(f"/f{i:03d}")
            run_process(sim, fs.write(
                paths[-1], size, stripe_count=rng.randint(1, 8),
                overwrite=rng.random() < 0.3,
            ))
            assert _totals(fs) == _uncounted_scan(fs), paths[-1]
        assert files.scans == 0
        changes = [
            ("append", lambda: fs.write(paths[7], 98_765.4321)),
            ("overwrite", lambda: fs.write(paths[11], 0.1 * GB / 3, overwrite=True)),
            ("delete", lambda: fs.delete(paths[13])),
        ]
        for what, change in changes:
            run_process(sim, change())
            assert _totals(fs) == _uncounted_scan(fs), what
        # A create while the per-OST totals wait for their rescan.
        run_process(sim, fs.write(paths[17], 5.5))
        run_process(sim, fs.write("/late", GB / 3, stripe_count=5))
        assert _totals(fs) == _uncounted_scan(fs)


class TestStorageCluster:
    def test_power_signal_follows_load(self, sim):
        sc = StorageCluster(sim)

        def proc():
            yield from sc.fs.write("/a", 1.6e9)

        sim.process(proc())
        assert sc.current_power == pytest.approx(2_273.0)
        sim.run()
        trace = sc.read_pdu(0.0, 60.0)
        # 10 s of full-rate writing inside one 60 s window:
        expected = 2_273.0 + (2_302.0 - 2_273.0) * (10.0 / 60.0)
        assert trace.average_power() == pytest.approx(expected, rel=1e-2)

    def test_idle_cluster_power(self, sim):
        sc = StorageCluster(sim)
        sim.timeout(120.0)
        sim.run()
        trace = sc.read_pdu(0.0, 120.0)
        assert trace.average_power() == pytest.approx(2_273.0)

    def test_mismatched_simulators_rejected(self):
        from repro.pipelines.platform import SimulatedPlatform
        sim_a, sim_b = Simulator(), Simulator()
        from repro.cluster.machine import caddy
        cluster = caddy(sim_a)
        storage = StorageCluster(sim_b)
        with pytest.raises(ConfigurationError):
            SimulatedPlatform(cluster=cluster, storage=storage)

    def test_default_capacity_and_bandwidth_match_paper(self, sim):
        sc = StorageCluster(sim)
        assert sc.fs.capacity_bytes == pytest.approx(7.7 * TB)
        assert sc.fs.write_pipe.capacity == pytest.approx(160 * MB)
