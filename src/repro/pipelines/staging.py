"""Staging-partition defaults of the in-transit pipeline.

A leaf module: the scenario schema and the real platform read these
without importing :mod:`repro.pipelines.intransit` and its node allocator.
"""

from __future__ import annotations

__all__ = ["DEFAULT_STAGING_NODES", "STAGING_QUEUE_DEPTH"]

#: Staging-partition size when none is given: a tenth of Caddy.
DEFAULT_STAGING_NODES = 15

#: Maximum samples queued to the staging partition before the simulation
#: blocks (back-pressure), mirroring a bounded staging-memory budget.
STAGING_QUEUE_DEPTH = 4
