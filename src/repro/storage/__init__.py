"""Lustre-like parallel storage simulator (the paper's private storage rack).

The storage cluster mirrors the paper's setup: one master node, two metadata
servers (MDS), two object storage servers (OSS) hosting the object storage
targets (OSTs), 7.7 TB capacity, ~160 MB/s aggregate bandwidth — and an
extremely *non-power-proportional* power profile (2273 W idle → 2302 W at
full load, a 1.3 % dynamic range), which is the mechanism behind the paper's
Finding 2 ("reducing storage bandwidth does not noticeably improve power").
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.storage.devices import OstDevice
    from repro.storage.governor import StorageDvfsGovernor, wimpy_storage_model
    from repro.storage.lustre import FileRecord, LustreFileSystem, StorageCluster
    from repro.storage.power import StoragePowerModel

__all__ = [
    "FileRecord",
    "LustreFileSystem",
    "OstDevice",
    "StorageCluster",
    "StorageDvfsGovernor",
    "StoragePowerModel",
    "wimpy_storage_model",
]

__getattr__, __dir__ = lazy_exports(__name__)
