"""I/O substrate: the netCDF / PIO stand-in.

* :mod:`repro.io.ncformat` — "nclite", a minimal self-describing binary
  array container (named dimensions, typed variables, attributes) with exact
  size accounting, standing in for (parallel) netCDF.
* :mod:`repro.io.pio` — a PIO-style aggregating writer: compute ranks funnel
  their blocks to a subset of I/O aggregator ranks, which stream to the
  filesystem.  Backends write either to a real directory
  (:class:`RealIOBackend`, part of the real platform in
  :mod:`repro.pipelines.real`) or through the simulated Lustre cluster.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.io.ncformat import NcliteFile, nclite_nbytes, read_nclite, write_nclite
    from repro.io.pio import PIOWriter, SimulatedIOBackend
    from repro.pipelines.real import RealIOBackend

__all__ = [
    "NcliteFile",
    "PIOWriter",
    "RealIOBackend",
    "SimulatedIOBackend",
    "nclite_nbytes",
    "read_nclite",
    "write_nclite",
]

__getattr__, __dir__ = lazy_exports(__name__)
