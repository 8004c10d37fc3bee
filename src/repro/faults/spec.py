"""Declarative fault specifications.

A :class:`FaultSpec` is a *plan*: a seed plus an ordered tuple of
:class:`FaultEvent` records, each naming a fault kind, when it strikes
(simulated seconds after the run starts), how long it lasts and how severe
it is.  The spec is pure data — it serialises with ``to_dict``, so it lands
in the :class:`~repro.obs.manifest.RunManifest` — and building one from a
seed is deterministic: the same ``(seed, parameters)`` always yields the same
schedule, which is what makes chaos campaigns reproducible bit-for-bit.

Fault kinds
-----------

=================  ==========================================================
``ost-dropout``    ``severity`` OSTs fall out: both data paths lose the
                   proportional share of their aggregate bandwidth for
                   ``duration_seconds``.
``mds-stall``      metadata latency is multiplied by ``severity`` for
                   ``duration_seconds`` (an overloaded/failing-over MDS).
``write-brownout`` the write path is throttled to the ``severity`` fraction
                   of nominal bandwidth for ``duration_seconds``.
``io-error``       the next ``severity`` operations on ``target``
                   (``"write"`` or ``"read"``) fail with
                   :class:`~repro.errors.TransientIOError` — retryable.
``node-crash``     a compute node dies: the in-flight pipeline attempt is
                   interrupted with :class:`~repro.errors.NodeCrashError`.
=================  ==========================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import ConfigurationError
from repro.units import HOUR

__all__ = [
    "FAULT_KINDS",
    "IO_ERROR",
    "MDS_STALL",
    "NODE_CRASH",
    "OST_DROPOUT",
    "WRITE_BROWNOUT",
    "FaultEvent",
    "FaultSpec",
]

OST_DROPOUT = "ost-dropout"
MDS_STALL = "mds-stall"
WRITE_BROWNOUT = "write-brownout"
IO_ERROR = "io-error"
NODE_CRASH = "node-crash"

#: Every fault kind the injector understands.
FAULT_KINDS = (OST_DROPOUT, MDS_STALL, WRITE_BROWNOUT, IO_ERROR, NODE_CRASH)

#: Fault kinds that describe a condition lasting ``duration_seconds``.
_TIMED_KINDS = (OST_DROPOUT, MDS_STALL, WRITE_BROWNOUT)

#: Valid ``target`` values for ``io-error`` events.
_IO_TARGETS = ("write", "read")


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault."""

    #: Simulated seconds after the run starts.
    at_seconds: float
    #: One of :data:`FAULT_KINDS`.
    kind: str
    #: How long a timed condition lasts (dropout / stall / brownout).
    duration_seconds: float = 0.0
    #: Kind-specific magnitude — see the module docstring table.
    severity: float = 1.0
    #: ``io-error`` only: which operation class fails (``write``/``read``).
    target: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at_seconds < 0:
            raise ConfigurationError(f"fault scheduled in the past: {self.at_seconds}")
        if self.kind in _TIMED_KINDS and self.duration_seconds <= 0:
            raise ConfigurationError(
                f"{self.kind} needs a positive duration, got {self.duration_seconds}"
            )
        if self.kind == WRITE_BROWNOUT and not 0.0 < self.severity < 1.0:
            raise ConfigurationError(
                f"brownout severity is the *remaining* bandwidth fraction, "
                f"must be in (0, 1): {self.severity}"
            )
        if self.kind == MDS_STALL and self.severity <= 1.0:
            raise ConfigurationError(
                f"mds-stall severity is a latency multiplier > 1: {self.severity}"
            )
        if self.kind == OST_DROPOUT and not self.severity >= 1:
            raise ConfigurationError(
                f"ost-dropout severity is the number of lost OSTs (>= 1): {self.severity}"
            )
        if self.kind == IO_ERROR:
            if self.target not in _IO_TARGETS:
                raise ConfigurationError(
                    f"io-error target must be one of {_IO_TARGETS}, got {self.target!r}"
                )
            if self.severity < 1:
                raise ConfigurationError(
                    f"io-error severity is the number of failing ops (>= 1): {self.severity}"
                )

    def to_dict(self) -> dict:
        """JSON-safe representation (manifest / ``--json`` output)."""
        return {
            "kind": self.kind,
            "at_seconds": self.at_seconds,
            "duration_seconds": self.duration_seconds,
            "severity": self.severity,
            "target": self.target,
        }


@dataclass(frozen=True)
class FaultSpec:
    """A seed plus the full, ordered fault schedule for one run."""

    seed: int
    events: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events))
        object.__setattr__(self, "events", ordered)
        for event in ordered:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(f"not a FaultEvent: {event!r}")

    def __len__(self) -> int:
        return len(self.events)

    def kinds(self) -> list:
        """Distinct fault kinds present, in schedule order."""
        seen: list = []
        for event in self.events:
            if event.kind not in seen:
                seen.append(event.kind)
        return seen

    def crashes(self) -> tuple:
        """The node-crash events only."""
        return tuple(e for e in self.events if e.kind == NODE_CRASH)

    def to_dict(self) -> dict:
        """JSON-safe representation (manifest / ``--json`` output)."""
        return {"seed": self.seed, "events": [e.to_dict() for e in self.events]}

    # ----------------------------------------------------------- generation

    @classmethod
    def campaign(
        cls,
        seed: int,
        horizon_seconds: float,
        mtbf_hours: Optional[float] = None,
        brownout_rate_per_hour: float = 0.0,
        brownout_duration_seconds: float = 60.0,
        brownout_severity: float = 0.5,
        io_error_rate_per_hour: float = 0.0,
        mds_stall_rate_per_hour: float = 0.0,
        mds_stall_duration_seconds: float = 10.0,
        mds_stall_factor: float = 20.0,
    ) -> "FaultSpec":
        """A seeded, Poisson-arrival chaos schedule over ``horizon_seconds``.

        ``mtbf_hours`` drives node crashes (exponential inter-arrival, the
        standard failure model behind Eq. 4's rework extension); the other
        rates independently sprinkle brownouts, transient I/O errors and MDS
        stalls.  Every stream draws from one seeded ``random.Random`` in a
        fixed order, so the schedule is a pure function of the arguments.
        """
        if horizon_seconds <= 0:
            raise ConfigurationError(f"horizon must be positive: {horizon_seconds}")
        rng = random.Random(seed)
        events: list = []

        def _arrivals(rate_per_hour: float) -> Iterable[float]:
            if rate_per_hour <= 0:
                return []
            times = []
            t = rng.expovariate(rate_per_hour) * HOUR
            while t < horizon_seconds:
                times.append(t)
                t += rng.expovariate(rate_per_hour) * HOUR
            return times

        if mtbf_hours is not None:
            if mtbf_hours <= 0:
                raise ConfigurationError(f"MTBF must be positive: {mtbf_hours}")
            for t in _arrivals(1.0 / mtbf_hours):
                events.append(FaultEvent(at_seconds=t, kind=NODE_CRASH))
        for t in _arrivals(brownout_rate_per_hour):
            events.append(
                FaultEvent(
                    at_seconds=t,
                    kind=WRITE_BROWNOUT,
                    duration_seconds=brownout_duration_seconds,
                    severity=brownout_severity,
                )
            )
        for t in _arrivals(io_error_rate_per_hour):
            events.append(
                FaultEvent(
                    at_seconds=t,
                    kind=IO_ERROR,
                    severity=1.0,
                    target="write" if rng.random() < 0.5 else "read",
                )
            )
        for t in _arrivals(mds_stall_rate_per_hour):
            events.append(
                FaultEvent(
                    at_seconds=t,
                    kind=MDS_STALL,
                    duration_seconds=mds_stall_duration_seconds,
                    severity=mds_stall_factor,
                )
            )
        return cls(seed=seed, events=tuple(events))
