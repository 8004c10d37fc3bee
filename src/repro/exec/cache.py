"""Content-addressed on-disk memoization of completed runs.

A cache entry is keyed by :meth:`RunRequest.cache_key` — the sha256 of the
canonical ``(request, code_version)`` JSON — so a hit is only possible when
the configuration, the seed *and* the code revision all match.  Each entry
is two files under ``<dir>/<key[:2]>/``:

* ``<key>.pkl`` — the pickled deterministic payload (measurement, fault
  summary, recovery count);
* ``<key>.json`` — a human-readable meta sidecar (the request dict, code
  version, schema version, and the payload's sha256 digest) for provenance
  spelunking without unpickling.

Writes are atomic (temp file + ``os.replace``), so a crashed run never
leaves a torn entry behind.  Reads are *verified*: :meth:`DiskCache.get`
recomputes the payload digest against the sidecar and quarantines a corrupt
entry — moved into ``<dir>/quarantine/`` and counted on
``repro_exec_cache_corrupt_total`` — instead of letting bit-rot or a torn
file poison downstream runs.  Hit/miss counters stay with the engine.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from typing import Any, Optional

from repro import obs
from repro.atomicio import atomic_write_json
from repro.errors import ConfigurationError
from repro.obs.manifest import SCHEMA_VERSION, git_commit

__all__ = ["DiskCache", "QUARANTINE_DIRNAME", "default_code_version"]

#: Subdirectory of a cache where corrupt entries are moved aside.
QUARANTINE_DIRNAME = "quarantine"

#: Shard directories are the first two hex characters of the key; anything
#: else under the cache root (quarantine, stray files) is not an entry.
_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")


def default_code_version() -> str:
    """The code revision folded into every cache key.

    The git commit when available (any code change invalidates the cache),
    falling back to the package version for source-tarball installs.
    """
    commit = git_commit()
    if commit is not None:
        return commit
    import repro

    return f"repro-{repro.__version__}"


class DiskCache:
    """A content-addressed store of completed run payloads."""

    def __init__(self, directory: str, code_version: Optional[str] = None) -> None:
        if not directory:
            raise ConfigurationError("cache directory must be non-empty")
        self.directory = directory
        self.code_version = (
            code_version if code_version is not None else default_code_version()
        )
        #: Corrupt entries quarantined over this cache's lifetime.
        self.corrupt_quarantined = 0
        os.makedirs(directory, exist_ok=True)

    # ----------------------------------------------------------------- paths

    def _paths(self, key: str) -> tuple[str, str]:
        shard = os.path.join(self.directory, key[:2])
        return os.path.join(shard, f"{key}.pkl"), os.path.join(shard, f"{key}.json")

    # ------------------------------------------------------------------- api

    def get(self, key: str) -> Optional[Any]:
        """The stored payload for ``key``, or ``None`` on a miss.

        The payload's sha256 is recomputed and checked against the meta
        sidecar; a mismatch — bit-rot, a partially synced copy, tampering —
        quarantines the entry and counts as a miss, so the engine
        re-executes instead of propagating a corrupt measurement.  A
        missing, torn or digest-less sidecar leaves the payload unverifiable
        and is quarantined the same way.  A payload that does not unpickle
        is likewise a miss.
        """
        payload_path, _ = self._paths(key)
        try:
            with open(payload_path, "rb") as fh:
                raw = fh.read()
        except OSError:
            return None
        expected = (self.meta(key) or {}).get("payload_sha256")
        if expected is None:
            self.quarantine(key, reason="no payload digest")
            return None
        if hashlib.sha256(raw).hexdigest() != expected:
            self.quarantine(key, reason="payload digest mismatch")
            return None
        try:
            return pickle.loads(raw)
        except (pickle.UnpicklingError, EOFError, AttributeError, ValueError):
            # The bytes matched their digest yet do not unpickle: the entry
            # was written by an incompatible code version.  Move it aside
            # too so every later get() doesn't re-hash it.
            self.quarantine(key, reason="payload does not unpickle")
            return None

    def put(self, key: str, payload: Any, meta: Optional[dict] = None) -> None:
        """Store ``payload`` under ``key`` atomically, with a meta sidecar.

        The sidecar records the payload's sha256 so :meth:`get` can verify
        integrity end-to-end.  Both files go through write-to-temp +
        ``os.replace``; a crash mid-put leaves either the old entry or the
        complete new one.
        """
        payload_path, meta_path = self._paths(key)
        os.makedirs(os.path.dirname(payload_path), exist_ok=True)
        raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        tmp = f"{payload_path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(raw)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, payload_path)
        sidecar = {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "code_version": self.code_version,
            "payload_sha256": hashlib.sha256(raw).hexdigest(),
            "payload_bytes": len(raw),
        }
        if meta:
            sidecar.update(meta)
        atomic_write_json(meta_path, sidecar)

    def quarantine(self, key: str, reason: str = "corrupt") -> None:
        """Move a corrupt entry aside so it cannot poison later runs.

        The payload and sidecar land in ``<dir>/quarantine/`` (clobbering
        any previous quarantine of the same key) and
        ``repro_exec_cache_corrupt_total`` counts the event.
        """
        payload_path, meta_path = self._paths(key)
        qdir = os.path.join(self.directory, QUARANTINE_DIRNAME)
        os.makedirs(qdir, exist_ok=True)
        for path in (payload_path, meta_path):
            if not os.path.exists(path):
                continue
            try:
                os.replace(path, os.path.join(qdir, os.path.basename(path)))
            except OSError:
                continue
        self.corrupt_quarantined += 1
        obs.counter("repro_exec_cache_corrupt_total", reason=reason)

    def __contains__(self, key: str) -> bool:
        payload_path, _ = self._paths(key)
        return os.path.exists(payload_path)

    def __len__(self) -> int:
        return len(self.keys())

    def keys(self) -> list:
        """Every key with a stored payload, deterministically sorted.

        Only two-hex-character shard directories are scanned, so the
        quarantine directory (and any stray files) never leak into the key
        listing, and the order is the sorted key order on every platform
        regardless of directory enumeration order.
        """
        found = []
        if not os.path.isdir(self.directory):
            return found
        for shard in sorted(os.listdir(self.directory)):
            if _SHARD_RE.match(shard) is None:
                continue
            shard_dir = os.path.join(self.directory, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".pkl"):
                    found.append(name[: -len(".pkl")])
        return found

    def meta(self, key: str) -> Optional[dict]:
        """The JSON meta sidecar for ``key``, or ``None``.

        A missing, torn or non-object sidecar returns ``None`` instead of
        raising; :meth:`get` then treats the entry as unverifiable.
        """
        _, meta_path = self._paths(key)
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def clear(self) -> int:
        """Delete every entry; returns how many payloads were removed."""
        removed = 0
        for key in self.keys():
            payload_path, meta_path = self._paths(key)
            for path in (payload_path, meta_path):
                try:
                    os.remove(path)
                except OSError:
                    continue
            removed += 1
        return removed
