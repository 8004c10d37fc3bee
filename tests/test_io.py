"""Tests for the nclite container and PIO aggregation layer."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import Interconnect
from repro.errors import ConfigurationError, FileFormatError
from repro.events.engine import Simulator
from repro.io.ncformat import NcliteFile, nclite_nbytes, read_nclite, write_nclite
from repro.io.pio import PIOWriter, SimulatedIOBackend
from repro.pipelines.real import RealIOBackend
from repro.storage.lustre import LustreFileSystem


class TestNcliteFile:
    def _dataset(self):
        ds = NcliteFile(attrs={"model": "mini"})
        ds.add_dim("y", 4)
        ds.add_dim("x", 6)
        ds.add_dim("z", 2)
        ds.add_variable("temp", np.arange(24, dtype=np.float64).reshape(4, 6), ("y", "x"),
                        attrs={"units": "degC"})
        ds.add_variable("mask", np.ones((4, 6), dtype=np.uint8), ("y", "x"))
        ds.add_variable("column", np.zeros((2, 4, 6), dtype=np.float32), ("z", "y", "x"))
        return ds

    def test_round_trip_through_bytes(self):
        ds = self._dataset()
        buf = io.BytesIO()
        ds.write(buf)
        back = NcliteFile.read(buf.getvalue())
        assert back.dims == ds.dims
        assert back.attrs == {"model": "mini"}
        assert back.var_attrs["temp"] == {"units": "degC"}
        for name in ds.variables:
            np.testing.assert_array_equal(back.variables[name], ds.variables[name])
            assert back.variables[name].dtype == ds.variables[name].dtype
            assert back.var_dims[name] == ds.var_dims[name]

    def test_round_trip_through_file(self, tmp_path):
        ds = self._dataset()
        path = str(tmp_path / "data.ncl")
        n = ds.write(path)
        assert n == (tmp_path / "data.ncl").stat().st_size
        back = NcliteFile.read(path)
        np.testing.assert_array_equal(back.variables["temp"], ds.variables["temp"])

    def test_nbytes_is_exact(self, tmp_path):
        ds = self._dataset()
        path = str(tmp_path / "d.ncl")
        assert ds.write(path) == ds.nbytes()

    def test_dimension_validation(self):
        ds = NcliteFile()
        ds.add_dim("x", 4)
        with pytest.raises(ConfigurationError):
            ds.add_dim("x", 5)  # redefinition
        ds.add_dim("x", 4)  # same size is fine
        with pytest.raises(ConfigurationError):
            ds.add_dim("w", 0)
        with pytest.raises(ConfigurationError):
            ds.add_dim("", 3)

    def test_variable_validation(self):
        ds = NcliteFile()
        ds.add_dim("x", 4)
        with pytest.raises(ConfigurationError):
            ds.add_variable("v", np.zeros(4), ("nope",))
        with pytest.raises(ConfigurationError):
            ds.add_variable("v", np.zeros(5), ("x",))  # size mismatch
        with pytest.raises(ConfigurationError):
            ds.add_variable("v", np.zeros(4, dtype=np.complex128), ("x",))
        ds.add_variable("v", np.zeros(4), ("x",))
        with pytest.raises(ConfigurationError):
            ds.add_variable("v", np.zeros(4), ("x",))  # duplicate

    def test_bad_magic_rejected(self):
        with pytest.raises(FileFormatError):
            NcliteFile.read(b"XXXX" + b"\x00" * 100)

    def test_truncated_payload_rejected(self):
        ds = self._dataset()
        buf = io.BytesIO()
        ds.write(buf)
        with pytest.raises(FileFormatError):
            NcliteFile.read(buf.getvalue()[:-10])

    def test_corrupt_header_rejected(self):
        ds = NcliteFile()
        ds.add_dim("x", 2)
        ds.add_variable("v", np.zeros(2), ("x",))
        buf = io.BytesIO()
        ds.write(buf)
        data = bytearray(buf.getvalue())
        data[9] ^= 0xFF  # scramble a header byte
        with pytest.raises(FileFormatError):
            NcliteFile.read(bytes(data))


class TestConvenienceApi:
    def test_write_read_fields(self, tmp_path, mini_fields):
        path = str(tmp_path / "f.ncl")
        n = write_nclite(path, mini_fields, attrs={"time": 1.0})
        assert n == nclite_nbytes(mini_fields, {"time": 1.0})
        back = read_nclite(path)
        assert set(back) == set(mini_fields)
        for k in mini_fields:
            np.testing.assert_allclose(back[k], mini_fields[k])

    def test_empty_fields_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_nclite(str(tmp_path / "x"), {})

    def test_mismatched_shapes_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_nclite(str(tmp_path / "x"), {"a": np.zeros((4, 4)), "b": np.zeros((4, 5))})

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_nclite(str(tmp_path / "x"), {"a": np.zeros(4)})

    @settings(deadline=None, max_examples=20)
    @given(
        ny=st.integers(min_value=1, max_value=16),
        nx=st.integers(min_value=1, max_value=16),
        nvars=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=99),
    )
    def test_size_prediction_property(self, tmp_path_factory, ny, nx, nvars, seed):
        rng = np.random.default_rng(seed)
        fields = {f"v{i}": rng.standard_normal((ny, nx)) for i in range(nvars)}
        tmp = tmp_path_factory.mktemp("ncl")
        n = write_nclite(str(tmp / "f.ncl"), fields)
        assert n == nclite_nbytes(fields)


class TestPIOWriter:
    def test_aggregation_time_scales_with_volume(self):
        pio = PIOWriter(n_ranks=150, n_aggregators=8, interconnect=Interconnect())
        small = pio.aggregation_seconds(1e6)
        big = pio.aggregation_seconds(1e9)
        assert big > small

    def test_aggregation_cheap_relative_to_lustre(self):
        """On QDR IB, funnelling 0.47 GB costs far less than writing it."""
        pio = PIOWriter(n_ranks=150, n_aggregators=8, interconnect=Interconnect())
        agg = pio.aggregation_seconds(0.472e9)
        lustre_write = 0.472e9 / 160e6
        assert agg < 0.1 * lustre_write

    def test_validation(self):
        ic = Interconnect()
        with pytest.raises(ConfigurationError):
            PIOWriter(n_ranks=0, n_aggregators=1, interconnect=ic)
        with pytest.raises(ConfigurationError):
            PIOWriter(n_ranks=4, n_aggregators=5, interconnect=ic)
        pio = PIOWriter(n_ranks=4, n_aggregators=2, interconnect=ic)
        with pytest.raises(ConfigurationError):
            pio.aggregation_seconds(-1.0)

    def test_write_simulated_moves_bytes_through_lustre(self):
        sim = Simulator()
        fs = LustreFileSystem(sim, metadata_latency=0.0)
        backend = SimulatedIOBackend(fs)
        pio = PIOWriter(n_ranks=150, n_aggregators=8, interconnect=Interconnect())

        def proc():
            yield from pio.write_simulated(backend, "/out/s0.nc", 1.6e9)

        sim.process(proc())
        sim.run()
        assert fs.used_bytes == 1.6e9
        assert backend.files_written == 1
        assert sim.now == pytest.approx(10.0, abs=0.5)  # dominated by Lustre

    def test_read_bytes_round_trip(self):
        sim = Simulator()
        fs = LustreFileSystem(sim, metadata_latency=0.0)
        backend = SimulatedIOBackend(fs)

        def proc():
            yield from backend.write_bytes("/a", 1e9)
            yield from backend.read_bytes("/a")

        sim.process(proc())
        sim.run()
        assert fs.bytes_read == pytest.approx(1e9)

    def test_real_backend_writes_files(self, tmp_path, mini_fields):
        backend = RealIOBackend(str(tmp_path / "raw"))
        n = backend.write_fields("s0.nc", mini_fields)
        assert backend.bytes_written == n
        assert backend.files_written == 1
        back = read_nclite(backend.path_of("s0.nc"))
        np.testing.assert_allclose(back["u"], mini_fields["u"])

    def test_write_real_through_pio(self, tmp_path, mini_fields):
        backend = RealIOBackend(str(tmp_path / "raw"))
        pio = PIOWriter(n_ranks=4, n_aggregators=2, interconnect=Interconnect())
        n = pio.write_real(backend, "s1.nc", mini_fields)
        assert n > 0
        assert backend.files_written == 1
