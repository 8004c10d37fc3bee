"""The layout version of the JSON documents the library writes.

Run manifests, run requests and results, cache metadata, what-if rows and
bench reports all carry it as ``schema_version``.  A leaf module, so that
stamping it loads nothing else (:mod:`repro.obs.manifest` starts ``git``
subprocesses for provenance).
"""

from __future__ import annotations

__all__ = ["SCHEMA_VERSION"]

#: Bump when the manifest layout changes incompatibly.
SCHEMA_VERSION = 1
