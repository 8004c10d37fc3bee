"""A small discrete-event simulation engine.

This is the substrate under the compute-cluster and storage simulators: a
priority-queue event loop with generator-based processes (in the style of
SimPy), counted resources, and a fair-share bandwidth pipe used to model
shared links such as the Lustre object-storage backend.

Example
-------
>>> from repro.events import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.events.engine import (
        AllOf,
        AnyOf,
        Event,
        Process,
        Simulator,
        Timeout,
    )
    from repro.events.resources import BandwidthPipe, Resource, Store, Transfer

__all__ = [
    "AllOf",
    "AnyOf",
    "BandwidthPipe",
    "Event",
    "Process",
    "Resource",
    "Simulator",
    "Store",
    "Timeout",
    "Transfer",
]

__getattr__, __dir__ = lazy_exports(__name__)
