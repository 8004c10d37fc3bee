"""Declarative SLO watchdogs over sampled timelines.

A :class:`WatchRule` names a timeline series (exactly, or by ``prefix*``
selector), a predicate and a debounce window; a :class:`Watchdog` evaluates
its rules against every sample the :class:`~repro.obs.timeline.TimelineSampler`
takes and returns :class:`Alert` objects with *episode* semantics: a rule
fires once when its predicate has held for ``for_seconds`` of simulated
time, then stays quiet until the predicate clears and breaches again.

Rules are pure data and the watchdog is pure state — neither touches the
telemetry session.  The sampler turns returned alerts into ``obs.alert``
events and ``repro_alert_<name>_total`` counters, so alerting is exactly as
deterministic as the simulation that produced the samples.

Two rule kinds:

* ``threshold`` — compare the sampled value against ``threshold`` with
  ``op`` (one of ``>``, ``>=``, ``<``, ``<=``);
* ``growth`` — breach when the series has *strictly increased* across
  ``window`` consecutive samples (queue growth without drain).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import AbstractSet, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.naming import alert_metric_name, validate_timeline_series_name

__all__ = [
    "Alert",
    "SEVERITIES",
    "WatchRule",
    "Watchdog",
    "default_exec_rules",
    "default_rules",
    "severity_rank",
]

#: Alert severities, mildest first.
SEVERITIES = ("info", "warning", "critical")

#: Threshold predicate spellings.
_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}

_KINDS = ("threshold", "growth")

#: Default fill fraction at which the OST / filesystem rules alert.
FILL_ALERT_RATIO = 0.9

#: Default consecutive-sample window for the queue-growth rule.
GROWTH_WINDOW = 6

#: Supervised-executor retries at which the retry-storm rule alerts.
EXEC_RETRY_STORM_THRESHOLD = 8


def severity_rank(severity: str) -> int:
    """Position of ``severity`` in :data:`SEVERITIES` (higher = worse)."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        raise ConfigurationError(
            f"unknown severity {severity!r} (one of {', '.join(SEVERITIES)})"
        ) from None


@dataclass(frozen=True)
class WatchRule:
    """One declarative SLO: series selector, predicate, debounce, severity."""

    #: Snake-case rule name; the alert counter is ``repro_alert_<name>_total``.
    name: str
    #: Timeline series to watch — exact name, or a ``prefix*`` selector that
    #: matches every sampled series starting with the prefix (each match
    #: keeps independent breach state).
    series: str
    op: str = ">"
    threshold: float = 0.0
    #: Debounce: the predicate must hold for this much *simulated* time
    #: before the rule fires (0 = fire on the first breached sample).
    for_seconds: float = 0.0
    severity: str = "warning"
    kind: str = "threshold"
    #: Growth rules: number of consecutive samples that must each increase.
    window: int = GROWTH_WINDOW
    description: str = ""

    def __post_init__(self) -> None:
        # Validates the snake-case rule name as a side effect.
        alert_metric_name(self.name)
        validate_timeline_series_name(self.series)
        if self.op not in _OPS:
            raise ConfigurationError(
                f"unknown predicate op {self.op!r} (one of {', '.join(_OPS)})"
            )
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown rule kind {self.kind!r} (one of {', '.join(_KINDS)})"
            )
        severity_rank(self.severity)
        if self.for_seconds < 0:
            raise ConfigurationError(
                f"negative debounce window: {self.for_seconds}"
            )
        if self.kind == "growth" and self.window < 2:
            raise ConfigurationError(
                f"growth window must be >= 2 samples, got {self.window}"
            )

    @property
    def metric_name(self) -> str:
        """The ``repro_alert_<name>_total`` counter this rule increments."""
        return alert_metric_name(self.name)

    def matches(self, series: str) -> bool:
        """True when ``series`` is selected by this rule."""
        if self.series.endswith("*"):
            return series.startswith(self.series[:-1])
        return series == self.series


@dataclass(frozen=True)
class Alert:
    """One watchdog firing: a rule's predicate held through its debounce."""

    rule: str
    series: str
    severity: str
    #: Simulated time of the sample that completed the debounce window.
    t: float
    value: float
    threshold: float
    message: str = ""

    def to_fields(self) -> dict:
        """JSON-safe payload for the ``obs.alert`` event record."""
        return {
            "rule": self.rule,
            "series": self.series,
            "severity": self.severity,
            "t": self.t,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
        }


class _RuleState:
    """Per-(rule, matched-series) breach bookkeeping."""

    __slots__ = ("breach_start", "fired", "last", "rises")

    def __init__(self) -> None:
        self.breach_start: Optional[float] = None
        self.fired = False
        #: Growth rules: the previous value (NaN at first, so that the first
        #: value is no rise) and the run of strict rises that ends with it.
        self.last = math.nan
        self.rises = 0


#: One rule bound to one series it selects, with that pair's state and,
#: for a threshold rule, its predicate (``None`` for a growth rule).
_Binding = Tuple[WatchRule, str, _RuleState, Optional[Callable[[float, float], bool]]]


class Watchdog:
    """Evaluates a rule set against successive timeline samples."""

    def __init__(self, rules: Sequence[WatchRule]) -> None:
        names = [rule.name for rule in rules]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ConfigurationError(
                f"duplicate watch rule name(s): {', '.join(duplicates)}"
            )
        self.rules: Tuple[WatchRule, ...] = tuple(rules)
        self._state: Dict[Tuple[str, str], _RuleState] = {}
        #: ``(rule, series, state, predicate)`` per sampled series-name set,
        #: in evaluation order: rules outer, sorted series inner.
        self._bindings: Dict[Tuple[str, ...], List[_Binding]] = {}
        #: Over a run of calls with the same bindings and ``moved``: those
        #: two and the bindings the run evaluates.
        self._live: Optional[Tuple[List[_Binding], AbstractSet[str], List[_Binding]]] = None
        #: Every alert ever returned by :meth:`observe`, in firing order.
        self.alerts: List[Alert] = []

    def _bind(self, names: Tuple[str, ...]) -> List[_Binding]:
        ordered = sorted(names)
        return [
            (rule, series, self._state.setdefault((rule.name, series), _RuleState()),
             None if rule.kind == "growth" else _OPS[rule.op])
            for rule in self.rules
            for series in ordered
            if rule.matches(series)
        ]

    def observe(
        self, t: float, values: Mapping[str, float], *, moved: Optional[AbstractSet[str]] = None
    ) -> List[Alert]:
        """Evaluate every rule against one sample; returns fresh alerts.

        ``values`` is the sample's ``{series: value}`` mapping.  Series a
        rule selects but the sample lacks are skipped (their breach state is
        untouched), so heterogeneous samplers can share one watchdog.  Rules
        are matched once per distinct set of series names.

        ``moved``, when given, holds the only series whose values may differ
        from the previous call's.  A binding on another series is then
        evaluated only mid-episode (a breach begun, or a growth rule's run
        of rises under way): otherwise its unchanged value would leave its
        state as it is.
        """
        names = tuple(values)
        bindings = self._bindings.get(names)
        if bindings is None:
            bindings = self._bindings[names] = self._bind(names)
        if moved is None:
            self._live = None
        else:
            # A binding left out at the run's first call is not evaluated,
            # so it cannot enter an episode before the run ends; one kept
            # that leaves its episode is evaluated again to no effect.
            live = self._live
            if live is None or live[0] is not bindings or live[1] is not moved:
                live = self._live = (bindings, moved, [
                    binding for binding in bindings
                    if binding[1] in moved or binding[2].breach_start is not None
                    or binding[2].rises
                ])
            bindings = live[2]
        fired: List[Alert] = []
        for rule, series, state, predicate in bindings:
            value = float(values[series])
            if predicate is None:
                # ``window`` rising samples are ``window - 1`` strict rises.
                state.rises = state.rises + 1 if value > state.last else 0
                state.last = value
                breached = state.rises >= rule.window - 1
            else:
                breached = predicate(value, rule.threshold)
            if not breached:
                state.breach_start = None
                state.fired = False
                continue
            alert = self._advance(rule, series, state, t, value)
            if alert is not None:
                fired.append(alert)
        self.alerts.extend(fired)
        return fired

    @staticmethod
    def _advance(
        rule: WatchRule, series: str, state: _RuleState, t: float, value: float
    ) -> Optional[Alert]:
        """One breached sample: the alert if it completes the debounce."""
        if state.breach_start is None:
            state.breach_start = t
        if state.fired or (t - state.breach_start) < rule.for_seconds:
            return None
        state.fired = True
        return Alert(
            rule=rule.name,
            series=series,
            severity=rule.severity,
            t=t,
            value=value,
            threshold=rule.threshold,
            message=rule.description,
        )


def default_rules(
    power_cap_watts: Optional[float] = None,
    fill_ratio: float = FILL_ALERT_RATIO,
    checkpoint_overdue_seconds: Optional[float] = None,
) -> List[WatchRule]:
    """The standard platform rule set.

    Always includes the storage-fill and engine-queue-growth rules; the
    power-cap and checkpoint-overdue rules join only when their limits are
    given (there is nothing to compare against otherwise).
    """
    rules = [
        WatchRule(
            name="storage_fill_high",
            series="repro_timeline_storage_fill_ratio",
            op=">=",
            threshold=fill_ratio,
            severity="warning",
            description="filesystem fill fraction at or above the alert ratio",
        ),
        WatchRule(
            name="ost_fill_high",
            series="repro_timeline_storage_ost*",
            op=">=",
            threshold=fill_ratio,
            severity="warning",
            description="an OST's fill fraction at or above the alert ratio",
        ),
        WatchRule(
            name="engine_queue_growth",
            series="repro_timeline_engine_queue_depth_total",
            kind="growth",
            window=GROWTH_WINDOW,
            severity="warning",
            description=(
                "event-queue depth grew across "
                f"{GROWTH_WINDOW} consecutive samples without draining"
            ),
        ),
    ]
    if power_cap_watts is not None:
        rules.insert(
            0,
            WatchRule(
                name="power_cap_exceeded",
                series="repro_timeline_power_draw_watts",
                op=">",
                threshold=float(power_cap_watts),
                severity="critical",
                description="instantaneous draw above the enforced power cap",
            ),
        )
    if checkpoint_overdue_seconds is not None:
        rules.append(
            WatchRule(
                name="checkpoint_overdue",
                series="repro_timeline_pipeline_checkpoint_age_seconds",
                op=">",
                threshold=float(checkpoint_overdue_seconds),
                severity="warning",
                description="no durable checkpoint within the overdue window",
            )
        )
    return rules


def default_exec_rules(
    retry_storm_threshold: float = EXEC_RETRY_STORM_THRESHOLD,
) -> List[WatchRule]:
    """The execution engine's supervision rule set (see :mod:`repro.exec.engine`).

    These watch the ``exec`` incident timeline — one sample per supervision
    incident, at the incident sequence number — so they are exactly as
    deterministic as the failure pattern itself.
    """
    return [
        WatchRule(
            name="exec_worker_crash",
            series="repro_timeline_exec_worker_crashes_total",
            op=">=",
            threshold=1.0,
            severity="critical",
            description=(
                "a pool worker died mid-task; the supervisor respawned the "
                "pool and requeued in-flight work"
            ),
        ),
        WatchRule(
            name="exec_retry_storm",
            series="repro_timeline_exec_retries_total",
            op=">=",
            threshold=float(retry_storm_threshold),
            severity="warning",
            description=(
                "supervised task retries reached the storm threshold "
                f"({retry_storm_threshold:g}); the sweep is thrashing"
            ),
        ),
    ]
