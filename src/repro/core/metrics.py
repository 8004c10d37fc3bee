"""Per-run measurements and cross-run comparison.

:class:`Measurement` is the record one pipeline run produces — the four
quantities of the paper's Section V (execution time, average power, energy,
storage) plus phase breakdowns and artifact counts.  :class:`MetricSet`
collects measurements across the experiment grid and renders the paper's
comparisons ("the in-situ pipeline runs 51 % faster, consumes 50 % less
energy, and occupies 99.5 % less disk space").
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro import obs
from repro.errors import ConfigurationError
from repro.power.report import PowerReport
from repro.units import (
    bytes_to_gb,
    format_bytes,
    format_energy,
    format_power,
    format_seconds,
)

__all__ = ["Measurement", "MetricSet", "PhaseTimeline"]

#: Canonical pipeline names.
IN_SITU = "in-situ"
POST_PROCESSING = "post-processing"


class PhaseTimeline:
    """Ordered ``(phase, t0, t1)`` records for one run.

    The records are kept as two columns, the phase name of each record and
    one ``array('d')`` of interleaved t0/t1, because every cached or pooled
    measurement crosses a pickle: an 8 h run holds ~2,000 records, which as
    tuples would pickle and unpickle as three objects each.

    Each :meth:`add` also feeds the telemetry layer (a ``phase`` record in
    the event stream plus the ``repro_pipeline_phase_seconds`` histogram)
    whenever a session is active; ``domain`` says which clock the caller's
    timestamps come from (simulated campaign time vs real wall time).
    """

    __slots__ = ("domain", "_names", "_times")

    def __init__(self, domain: str = obs.SIM) -> None:
        #: Clock domain of the timestamps (``obs.SIM`` or ``obs.WALL``).
        self.domain = domain
        self._names: list[str] = []
        self._times = array("d")

    def __getstate__(self) -> tuple:
        return (self.domain, self._names, self._times)

    def __setstate__(self, state: tuple) -> None:
        # The tuple-records layout pickled a two-key dict, which fails to
        # unpack here: its cache entries read as corrupt and re-run.
        self.domain, self._names, self._times = state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseTimeline):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __repr__(self) -> str:
        return f"PhaseTimeline(records={self.records!r}, domain={self.domain!r})"

    @property
    def records(self) -> list[tuple[str, float, float]]:
        """The ``(phase, t0, t1)`` records in order, as a fresh list."""
        return list(self._rows())

    def _rows(self) -> Iterator[tuple[str, float, float]]:
        return zip(self._names, self._times[0::2], self._times[1::2])

    def add(self, phase: str, t0: float, t1: float) -> None:
        # repro-unit: t0=seconds, t1=seconds
        """Record that ``phase`` ran over ``[t0, t1]``."""
        if t1 < t0:
            raise ConfigurationError(f"phase {phase!r} ends before it starts: {t0}..{t1}")
        self._names.append(phase)
        self._times.append(t0)
        self._times.append(t1)
        obs.phase(phase, t0, t1, domain=self.domain)

    def total(self, phase: str) -> float:  # repro-unit: seconds
        """Total seconds spent in ``phase`` (across all its segments)."""
        return sum(t1 - t0 for p, t0, t1 in self._rows() if p == phase)

    def phases(self) -> list[str]:
        """Distinct phase names in first-appearance order."""
        return list(dict.fromkeys(self._names))

    def by_phase(self) -> dict[str, float]:
        """``{phase: total_seconds}`` over the run, in first-appearance order.

        One pass over the records: each phase's durations are summed in
        record order by the same ``sum`` as :meth:`total`, so every total
        equals ``total(phase)`` bit for bit.
        """
        durations: dict[str, list[float]] = {}
        for p, t0, t1 in self._rows():
            spans = durations.get(p)
            if spans is None:
                durations[p] = [t1 - t0]
            else:
                spans.append(t1 - t0)
        return {p: sum(spans) for p, spans in durations.items()}


@dataclass
class Measurement:
    """Everything measured about one pipeline run."""

    pipeline: str
    sample_interval_hours: float
    execution_time: float
    n_timesteps: int
    #: Bytes committed to permanent storage by this run.
    storage_bytes: float
    #: Output *samples* written (image sets for in-situ, raw files for post).
    n_outputs: int
    #: Individual images produced (0 until the viz stage has run).
    n_images: int = 0
    timeline: PhaseTimeline = field(default_factory=PhaseTimeline)
    #: Average total power in watts (None when the platform cannot meter).
    average_power: Optional[float] = None
    #: Total energy in joules (None when the platform cannot meter).
    energy: Optional[float] = None
    power_report: Optional[PowerReport] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.execution_time < 0:
            raise ConfigurationError(f"negative execution time: {self.execution_time}")
        if self.sample_interval_hours <= 0:
            raise ConfigurationError(
                f"sample interval must be positive: {self.sample_interval_hours}"
            )
        if self.storage_bytes < 0:
            raise ConfigurationError(f"negative storage: {self.storage_bytes}")

    @property
    def simulation_time(self) -> float:
        """Seconds in the simulation phase."""
        return self.timeline.total("simulation")

    @property
    def io_time(self) -> float:
        """Seconds in I/O phases (raw writes + image writes + reads)."""
        return self.timeline.total("io")

    @property
    def viz_time(self) -> float:
        """Seconds in visualization phases."""
        return self.timeline.total("viz")

    @property
    def storage_gb(self) -> float:
        """Committed storage in decimal gigabytes."""
        return bytes_to_gb(self.storage_bytes)

    def to_dict(self) -> dict:
        """The measurement as a JSON-safe dict (used by ``--json`` output)."""
        return {
            "pipeline": self.pipeline,
            "sample_interval_hours": self.sample_interval_hours,
            "execution_time_seconds": self.execution_time,
            "n_timesteps": self.n_timesteps,
            "storage_bytes": self.storage_bytes,
            "n_outputs": self.n_outputs,
            "n_images": self.n_images,
            "phases_seconds": self.timeline.by_phase(),
            "average_power_watts": self.average_power,
            "energy_joules": self.energy,
            "label": self.label,
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        power = format_power(self.average_power) if self.average_power is not None else "n/a"
        energy = format_energy(self.energy) if self.energy is not None else "n/a"
        return (
            f"{self.pipeline:16s} @ {self.sample_interval_hours:5.1f} h: "
            f"time {format_seconds(self.execution_time):>10s}  power {power:>9s}  "
            f"energy {energy:>10s}  storage {format_bytes(self.storage_bytes):>10s}  "
            f"images {self.n_images}"
        )


class MetricSet:
    """A queryable collection of measurements (one experiment grid)."""

    def __init__(self, measurements: Iterable[Measurement] = ()) -> None:
        self._measurements: list[Measurement] = list(measurements)

    def add(self, m: Measurement) -> None:
        """Append a measurement."""
        self._measurements.append(m)

    def __len__(self) -> int:
        return len(self._measurements)

    def __iter__(self) -> Iterator[Measurement]:
        return iter(self._measurements)

    def get(self, pipeline: str, sample_interval_hours: float) -> Measurement:
        """The unique measurement for a (pipeline, rate) cell."""
        hits = [
            m
            for m in self._measurements
            if m.pipeline == pipeline
            and abs(m.sample_interval_hours - sample_interval_hours) < 1e-9
        ]
        if not hits:
            raise ConfigurationError(
                f"no measurement for ({pipeline!r}, {sample_interval_hours} h)"
            )
        if len(hits) > 1:
            raise ConfigurationError(
                f"{len(hits)} measurements for ({pipeline!r}, {sample_interval_hours} h)"
            )
        return hits[0]

    def pipelines(self) -> list[str]:
        """Distinct pipeline names present."""
        return sorted({m.pipeline for m in self._measurements})

    def sample_intervals(self) -> list[float]:
        """Distinct sampling intervals present, ascending."""
        return sorted({m.sample_interval_hours for m in self._measurements})

    # ------------------------------------------------------------ comparisons

    def _relative_drop(self, attr: str, interval: float) -> float:
        post = getattr(self.get(POST_PROCESSING, interval), attr)
        insitu = getattr(self.get(IN_SITU, interval), attr)
        if post is None or insitu is None:
            raise ConfigurationError(f"{attr} unavailable for comparison")
        if post == 0:
            raise ConfigurationError(f"zero baseline for {attr}")
        return 1.0 - insitu / post

    def time_savings(self, interval: float) -> float:
        """Fractional execution-time reduction of in-situ vs post-processing."""
        return self._relative_drop("execution_time", interval)

    def energy_savings(self, interval: float) -> float:
        """Fractional energy reduction of in-situ vs post-processing."""
        return self._relative_drop("energy", interval)

    def storage_savings(self, interval: float) -> float:
        """Fractional storage reduction of in-situ vs post-processing."""
        return self._relative_drop("storage_bytes", interval)

    def power_change(self, interval: float) -> float:
        """Fractional power change (≈0 is the paper's Finding 3)."""
        return -self._relative_drop("average_power", interval)

    # -------------------------------------------------------------- rendering

    def table(self) -> str:
        """Multi-line table across the whole grid, grouped by rate."""
        lines = []
        for interval in self.sample_intervals():
            for pipeline in self.pipelines():
                try:
                    lines.append(self.get(pipeline, interval).summary())
                except ConfigurationError:
                    continue
        return "\n".join(lines)
