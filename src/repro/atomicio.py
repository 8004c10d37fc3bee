"""Crash-safe file writes shared by every durable artifact writer.

A mid-write kill (worker ``os._exit``, OOM, power loss) must never leave a
torn JSON file that a later run loads: manifests, Prometheus expositions,
bench reports and cache sidecars are all *whole-file* artifacts, so they get
the classic write-to-temp + :func:`os.replace` treatment — the new content
becomes visible atomically or not at all.  Append-only JSONL streams
(sweep journals, the run store index) instead use a single ``O_APPEND``
write per record, so a crash can at worst truncate the final line —
exactly the damage :func:`repro.obs.exporters.read_jsonl` already
tolerates and counts.
"""

from __future__ import annotations

import json
import os
from typing import Any

__all__ = ["append_jsonl_line", "atomic_write_json", "atomic_write_text"]


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    The temp file lives in the destination directory (``os.replace`` must
    not cross filesystems) and is fsynced before the rename, so after a
    crash the path holds either the old content or the complete new content
    — never a prefix.  Returns ``path``.
    """
    _ensure_parent(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    os.replace(tmp, path)
    return path


def atomic_write_json(path: str, payload: Any, indent: int = 2) -> str:
    """Serialize ``payload`` (sorted keys) and write it atomically."""
    text = json.dumps(payload, indent=indent, sort_keys=True, default=str)
    return atomic_write_text(path, text + "\n")


def append_jsonl_line(path: str, record: dict, fsync: bool = False) -> str:
    """Append one JSON record to ``path`` as a single ``O_APPEND`` write.

    One ``os.write`` of a complete line to an append-mode descriptor cannot
    interleave with other appenders, and a crash mid-write leaves at most a
    torn *final* line, which the JSONL readers drop (with a warning and a
    ``repro_obs_truncated_records_total`` count) instead of failing the
    load.  ``fsync=True`` additionally makes the record durable before
    returning — journals that gate resume decisions want that; high-rate
    telemetry streams do not.  Returns ``path``.
    """
    _ensure_parent(path)
    line = json.dumps(record, sort_keys=True, default=str) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
    return path
