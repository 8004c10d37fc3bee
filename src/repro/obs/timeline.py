"""Continuous resource timelines sampled on the simulation clock.

Spans and end-of-run counters say *how much*; this module says *when*.  A
:class:`TimelineSampler` rides the event engine's step-listener hook and, on
a fixed simulated-time grid, snapshots a set of registered **probes** —
cheap callables reading live gauges out of the engine, the storage model and
the power model — into samples that the sampler's telemetry session appends
to a dedicated ``timeline.jsonl`` stream (tagged with the same ``trace_id``
as every other record).

Design constraints, in priority order:

* **Bit-identity off.**  The sampler is only constructed for a session
  that has a :class:`TimelineConfig`; with sampling off no ``timeline.jsonl``
  is created and ``events.jsonl`` is byte-identical to a pre-timeline run.
* **Determinism on.**  Samples land on a fixed grid regardless of how
  simulation events interleave: on every processed event the sampler emits
  one row per grid tick crossed in ``(last, now]``, stamped at the *tick*
  time.  The grid is built by repeated addition — the first tick is
  ``t0 + interval`` and each next one adds ``interval`` to the previous —
  so tick ``k`` can sit a few ulps off ``t0 + k*interval``.  Two seeded
  runs produce byte-identical timelines.
* **Gauges once per event.**  Most probes are *gauges* (marked with
  :func:`state_probe`): they ignore ``t`` and read the state after the
  event that crossed the tick.  Nothing but the sampler and its watchdog
  runs between the ticks one event crosses, so a gauge is read once per
  such event and its value reused for all of them.  *Clock probes*
  (unmarked) may read ``t`` and run at every tick.  The power draw is
  one: it reads each power signal *at the tick*, so at the ticks before
  the crossing event's time it reports the power before that event, while
  the compute and storage series already report the power after it.  The
  headroom (cap minus draw) follows the draw, and ``power_cap_exceeded``
  watches the draw.  At a later tick of one event only the clock and
  derived columns can move: that tick's values are the previous tick's,
  copied, with those columns replaced; its text re-formats only them; and
  the watchdog evaluates only the rules on them plus any rule in the
  middle of an episode.  Every tick still gets its own record and values
  dict.
* **Observation only.**  Probes must not mutate simulation state; the
  sampler never schedules events (a timeout-based sampler would keep the
  event heap non-empty forever and break ``sim.run()``).

A :class:`~repro.obs.watch.Watchdog` can be attached; it observes every
sample and its alerts become ``obs.alert`` events in the main event
stream plus ``repro_alert_<name>_total`` counters.

Series names follow ``repro_timeline_<layer>_<name>_<unit>`` (see
:mod:`repro.obs.naming`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.exporters import RowText
from repro.obs.naming import alert_metric_name, validate_timeline_series_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import TelemetrySession
    from repro.obs.watch import Watchdog

__all__ = [
    "DEFAULT_TIMELINE_POINTS",
    "NODE_BUSY_UTILIZATION",
    "NODE_IDLE_UTILIZATION",
    "TimelineConfig",
    "TimelineSampler",
    "derived",
    "engine_probes",
    "power_probes",
    "resource_probes",
    "state_probe",
    "storage_probes",
]

#: Default number of grid points across a run when no interval is given:
#: ``interval = duration / DEFAULT_TIMELINE_POINTS``.
DEFAULT_TIMELINE_POINTS = 128

#: Node-state bands for the per-state power probes: a node is *busy* at or
#: above this utilization ...
NODE_BUSY_UTILIZATION = 0.9
#: ... *idle* strictly below this one, and *io* in between (the platform's
#: io_wait utilization of 0.85 lands in the io band).
NODE_IDLE_UTILIZATION = 0.05

#: A probe: simulated time in, series value out.  Must not mutate state.
#: A gauge (marked with :func:`state_probe`) ignores ``t`` and is read once
#: per processed event that crosses grid ticks; an unmarked (clock) probe
#: is read at every tick, and a :func:`derived` probe is computed from its
#: source series' value at the same tick.
Probe = Callable[[float], float]


def state_probe(fn: Probe) -> Probe:
    """Mark ``fn`` a gauge and return it.

    Only a probe that ignores ``t`` and reads only the model's current
    state may be a gauge: the sampler reads it once per processed event
    and reuses the value for every grid tick that event crosses.  The mark
    is a function attribute, so a ``functools.wraps`` wrapper keeps it.
    """
    fn.timeline_state_probe = True
    return fn


def derived(source: str, source_fn: Probe, of: Callable[[float], float]) -> Probe:
    """The probe ``of(source_fn(t))``, marked as derived from series ``source``.

    A sampler that also samples ``source`` (with ``source_fn``) applies
    ``of`` to that series' value at each tick instead of calling the probe,
    which reads ``source_fn`` itself, so a direct call sees every state
    change.
    """

    def probe(t: float) -> float:
        return of(source_fn(t))

    probe.timeline_of = (source, of)
    return probe


@dataclass(frozen=True)
class TimelineConfig:
    """Session-level sampling policy, propagated to pool workers via traces."""

    #: Grid spacing in simulated seconds; ``None`` derives it from the run
    #: duration (``duration / DEFAULT_TIMELINE_POINTS``).
    interval_seconds: Optional[float] = None
    #: Enforced power cap; enables the cap/headroom series and the
    #: ``power_cap_exceeded`` watch rule.
    power_cap_watts: Optional[float] = None
    #: Age beyond which the ``checkpoint_overdue`` watch rule fires.
    checkpoint_overdue_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.interval_seconds is not None and self.interval_seconds <= 0:
            raise ConfigurationError(
                f"timeline interval must be positive, got {self.interval_seconds}"
            )


class TimelineSampler:
    """Samples registered probes on a fixed simulated-time grid.

    Lifecycle: register probes with :meth:`add_probe`/:meth:`add_probes`,
    :meth:`attach` before the simulation runs, :meth:`detach` after — detach
    takes one final snapshot at the current sim time if the run ended past
    the last grid tick, so the timeline always covers the whole run.
    """

    def __init__(
        self,
        sim,
        interval_seconds: float,
        session: "TelemetrySession",
        label: str = "run",
        watchdog: Optional["Watchdog"] = None,
    ) -> None:
        if interval_seconds <= 0:
            raise ConfigurationError(
                f"timeline interval must be positive, got {interval_seconds}"
            )
        self.sim = sim
        self.interval = float(interval_seconds)
        self.session = session
        self.label = label
        self.watchdog = watchdog
        #: Registered probes by series name, in registration order.
        self._probes: Dict[str, Probe] = {}
        #: Series names sorted (the order samples list them), the row
        #: columns of the gauges, clock probes and derived series, the row
        #: the sampler fills in place and the text of the last row: built
        #: at the first sample after a probe was added (``_gauges`` is None
        #: until then).
        self._names: List[str] = []
        self._gauges: Optional[List[Tuple[int, Probe]]] = None
        self._clocks: List[Tuple[int, Probe]] = []
        self._derived: List[Tuple[int, int, Callable[[float], float]]] = []
        self._row: List[float] = []
        self._row_text: Optional[RowText] = None
        #: The clock and derived columns, sorted, and their series names:
        #: all that can move between the ticks one event crosses.
        self._moving: List[int] = []
        self._moving_names: frozenset = frozenset()
        #: The last sample's values, which the next tick of the same event
        #: copies.
        self._values: Dict[str, float] = {}
        #: ``repro_obs_timeline_samples_total{label}``, looked up at the
        #: first sample so that a sampler that never samples adds no series.
        self._samples_counter = None
        self._next: Optional[float] = None
        self._last_t: Optional[float] = None
        self._attached = False

    # ------------------------------------------------------------- probes

    def add_probe(self, name: str, fn: Probe) -> None:
        """Register one series; names must be unique and convention-clean."""
        validate_timeline_series_name(name)
        if name.endswith("*"):
            raise ConfigurationError(
                f"probe name {name!r} may not be a wildcard selector"
            )
        if name in self._probes:
            raise ConfigurationError(f"duplicate timeline probe {name!r}")
        self._probes[name] = fn
        self._gauges = None

    def add_probes(self, probes: Sequence[Tuple[str, Probe]]) -> None:
        """Register a probe-builder's ``(name, fn)`` pairs in order."""
        for name, fn in probes:
            self.add_probe(name, fn)

    @property
    def series_names(self) -> Tuple[str, ...]:
        """Registered series, in registration order."""
        return tuple(self._probes)

    # ---------------------------------------------------------- lifecycle

    def attach(self) -> None:
        """Start sampling: grid origin is the current simulated time."""
        if self._attached:
            raise ConfigurationError("sampler is already attached")
        self._next = self.sim.now + self.interval
        self._attached = True
        self.sim.add_step_listener(self._on_step)

    def detach(self) -> None:
        """Stop sampling; snapshot the end state if past the last tick."""
        if not self._attached:
            return
        self.sim.remove_step_listener(self._on_step)
        self._attached = False
        if self._last_t is None or self._last_t < self.sim.now:
            self._read_gauges(self.sim.now)
            self._sample(self.sim.now)

    # ----------------------------------------------------------- sampling

    def _on_step(self, event, now: float) -> None:
        # Emit one row per grid tick crossed by this event, stamped at the
        # tick time.  Only this loop runs between those ticks, so the
        # gauges read the same post-event state at each: read them once.
        # Clock probes read each tick's time, so the draw reports the power
        # at the tick, from before this event (module docstring).
        if self._next > now:
            return
        self._read_gauges(self._next)
        later = False
        while self._next <= now:
            self._sample(self._next, later)
            later = True
            self._next += self.interval

    def _build(self) -> None:
        self._names = sorted(self._probes)
        column = {name: i for i, name in enumerate(self._names)}
        self._gauges, self._clocks, self._derived = [], [], []
        for i, name in enumerate(self._names):
            fn = self._probes[name]
            source, of = getattr(fn, "timeline_of", (None, None))
            if getattr(fn, "timeline_state_probe", False):
                self._gauges.append((i, fn))
            elif source in column and not hasattr(self._probes[source], "timeline_of"):
                self._derived.append((i, column[source], of))
            else:
                self._clocks.append((i, fn))
        self._moving = sorted(entry[0] for entry in self._clocks + self._derived)
        self._moving_names = frozenset(self._names[i] for i in self._moving)
        self._row = [0.0] * len(self._names)
        self._row_text = RowText(self._names)

    def _read_gauges(self, t: float) -> None:
        """Fill the row's gauge columns."""
        if self._gauges is None:
            self._build()
        row = self._row
        for i, fn in self._gauges:
            row[i] = float(fn(t))

    def _sample(self, t: float, later: bool = False) -> None:
        # The row keeps the gauges of the last _read_gauges; each tick
        # fills its clock and derived columns.  At a later tick of one
        # event only those columns can have moved since the previous
        # sample, so only they are copied into its values, re-rendered and
        # re-checked.
        row = self._row
        for i, fn in self._clocks:
            row[i] = float(fn(t))
        for i, source, of in self._derived:
            row[i] = float(of(row[source]))
        if later:
            columns, moved = self._moving, self._moving_names
            values = self._values.copy()
            names = self._names
            for i in columns:
                values[names[i]] = row[i]
        else:
            columns = moved = None
            values = dict(zip(self._names, row))
        self._values = values
        record = {"type": "sample", "t": t, "label": self.label, "values": values}
        self._last_t = t
        session = self.session
        # A session without a directory writes no file and needs no text.
        text = None if session.directory is None else self._row_text.render(row, columns)
        session.emit_timeline(record, text)
        if self._samples_counter is None:
            self._samples_counter = session.registry.counter(
                "repro_obs_timeline_samples_total", label=self.label
            )
        self._samples_counter.inc()
        if self.watchdog is not None:
            for alert in self.watchdog.observe(t, values, moved=moved):
                self._emit_alert(alert)

    def _emit_alert(self, alert) -> None:
        self.session.event("obs.alert", **alert.to_fields())
        self.session.registry.counter(
            alert_metric_name(alert.rule), severity=alert.severity
        ).inc()


# ------------------------------------------------------------ probe builders
#
# Builders are duck-typed on the simulated objects' public properties so the
# obs layer keeps zero import-time dependencies on the simulation modules.


def _all_gauges(probes: List[Tuple[str, Probe]]) -> List[Tuple[str, Probe]]:
    """``probes``, each marked with :func:`state_probe`."""
    for _name, fn in probes:
        state_probe(fn)
    return probes


def engine_probes(sim) -> List[Tuple[str, Probe]]:
    """Live gauges from the event engine: heap, processes, throughput."""
    probes: List[Tuple[str, Probe]] = [
        ("repro_timeline_engine_queue_depth_total", lambda t: sim.queue_depth),
        ("repro_timeline_engine_processes_total", lambda t: sim.active_processes),
        (
            "repro_timeline_engine_events_processed_total",
            lambda t: sim.events_processed,
        ),
    ]
    return _all_gauges(probes)


def storage_probes(fs) -> List[Tuple[str, Probe]]:
    """Lustre gauges: fill fractions, MDS queue, bandwidth in flight."""

    def ost_fraction(index: int) -> Probe:
        # The filesystem rescans its namespace only after a write or delete.
        return lambda t: fs.ost_fill_fractions()[index]

    probes: List[Tuple[str, Probe]] = [
        ("repro_timeline_storage_fill_ratio", lambda t: fs.fill_ratio),
        ("repro_timeline_storage_mds_queue_total", lambda t: fs.mds.queue_length),
        (
            "repro_timeline_storage_bandwidth_bytes_per_second",
            lambda t: fs.current_throughput,
        ),
        (
            "repro_timeline_storage_write_utilization_ratio",
            lambda t: fs.write_pipe.utilization,
        ),
        (
            "repro_timeline_storage_read_utilization_ratio",
            lambda t: fs.read_pipe.utilization,
        ),
    ]
    for i in range(len(fs.osts)):
        probes.append((f"repro_timeline_storage_ost{i}_fill_ratio", ost_fraction(i)))
    return _all_gauges(probes)


def power_probes(
    cluster,
    storage=None,
    cap_watts: Optional[float] = None,
) -> List[Tuple[str, Probe]]:
    """Power gauges: draw vs cap, headroom, per-state node counts.

    The draw is the true power of every node, in node order, plus the
    storage rack's: the additions a meter over all those signals makes.
    It and the headroom read the signals at ``t``; every other series is a
    gauge of the current state.
    """
    from repro.cluster.node import node_sum

    def draw(t: float) -> float:
        total = node_sum(cluster.groups, lambda g: g.power_signal.value_at(t))
        if storage is not None:
            total += storage.power_signal.value_at(t)
        return total

    def nodes_in_band(lo: float, hi: Optional[float]) -> Probe:
        # Band is [lo, hi); the busy band passes hi=None for an open top.
        def probe(t: float) -> float:
            return float(
                sum(
                    g.count
                    for g in cluster.groups
                    if g.utilization >= lo and (hi is None or g.utilization < hi)
                )
            )

        return state_probe(probe)

    draw_name = "repro_timeline_power_draw_watts"
    probes: List[Tuple[str, Probe]] = [
        (draw_name, draw),
        (
            "repro_timeline_power_compute_watts",
            state_probe(lambda t: cluster.current_power),
        ),
    ]
    if storage is not None:
        probes.append(
            (
                "repro_timeline_power_storage_watts",
                state_probe(lambda t: storage.current_power),
            )
        )
    if cap_watts is not None:
        cap = float(cap_watts)
        probes.append(("repro_timeline_power_cap_watts", state_probe(lambda t: cap)))
        probes.append(
            (
                "repro_timeline_power_headroom_watts",
                derived(draw_name, draw, lambda watts: cap - watts),
            )
        )
    probes.extend(
        [
            (
                "repro_timeline_power_nodes_busy_total",
                nodes_in_band(NODE_BUSY_UTILIZATION, None),
            ),
            (
                "repro_timeline_power_nodes_io_total",
                nodes_in_band(NODE_IDLE_UTILIZATION, NODE_BUSY_UTILIZATION),
            ),
            (
                "repro_timeline_power_nodes_idle_total",
                nodes_in_band(0.0, NODE_IDLE_UTILIZATION),
            ),
        ]
    )
    return probes


def resource_probes(name: str, resource) -> List[Tuple[str, Probe]]:
    """Occupancy/queue gauges for one named :class:`~repro.events.resources.Resource`."""
    probes: List[Tuple[str, Probe]] = [
        (f"repro_timeline_resource_{name}_in_use_total", lambda t: resource.in_use),
        (f"repro_timeline_resource_{name}_queue_total", lambda t: resource.queue_length),
        (
            f"repro_timeline_resource_{name}_utilization_ratio",
            lambda t: resource.utilization,
        ),
    ]
    return _all_gauges(probes)
