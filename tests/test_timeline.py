"""Tests for continuous timelines and SLO watchdogs.

Covers :mod:`repro.obs.timeline` (grid sampling, probes, determinism),
the sample text :class:`repro.obs.exporters.RowText` writes,
:mod:`repro.obs.watch` (episode/growth semantics), the timeline/alert
naming grammar and its ``obs-naming`` lint extension, the ``obs check`` /
``obs summarize`` surfaces and the zero-observation exporter regressions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cluster.machine import ComputeCluster
from repro.core.characterization import run_characterization
from repro.errors import ConfigurationError
from repro.events.engine import Simulator
from repro.obs.cli import main as obs_cli_main
from repro.obs.cli import collect_alerts, summarize
from repro.obs.exporters import _ENCODER, JsonlWriter, RowText
from repro.obs.timeline import derived, state_probe
from repro.power.signal import PowerSignal
from repro.ocean.driver import MPASOceanConfig
from repro.pipelines.base import PipelineSpec
from repro.storage.lustre import LustreFileSystem
from repro.units import GB, MB, MONTH


@pytest.fixture(autouse=True)
def _clean_registry():
    obs.default_registry().reset()
    yield
    obs.default_registry().reset()
    assert obs.active() is None


@pytest.fixture
def small_spec() -> PipelineSpec:
    return PipelineSpec(ocean=MPASOceanConfig(duration_seconds=MONTH))


# ------------------------------------------------------------------ naming


class TestTimelineNaming:
    def test_valid_series_names_pass(self):
        for name in (
            "repro_timeline_engine_queue_depth_total",
            "repro_timeline_storage_ost3_fill_ratio",
            "repro_timeline_storage_bandwidth_bytes_per_second",
            "repro_timeline_power_headroom_watts",
        ):
            obs.validate_timeline_series_name(name)

    def test_wildcard_prefix_selector_allowed(self):
        obs.validate_timeline_series_name("repro_timeline_storage_ost*")
        obs.validate_timeline_series_name("repro_timeline_power_*")

    def test_invalid_series_names_rejected(self):
        for name in (
            "repro_storage_fill_ratio",       # missing timeline segment
            "repro_timeline_fill_ratio",      # missing <layer>
            "repro_timeline_storage_fill",    # missing unit
            "repro_timeline_storage_Fill_ratio",
            "ost*",
            "",
        ):
            with pytest.raises(ConfigurationError):
                obs.validate_timeline_series_name(name)

    def test_alert_metric_name_derivation(self):
        assert (
            obs.alert_metric_name("power_cap_exceeded")
            == "repro_alert_power_cap_exceeded_total"
        )
        assert obs.ALERT_METRIC_RE.match("repro_alert_ost_fill_high_total")

    def test_alert_metric_name_rejects_non_snake_case(self):
        for bad in ("PowerCap", "0cap", "cap-exceeded", ""):
            with pytest.raises(ConfigurationError):
                obs.alert_metric_name(bad)


# ----------------------------------------------------------------- sampler


def _ticking_sim(n_steps: int = 10, step: float = 1.0) -> Simulator:
    sim = Simulator()

    def ticker():
        for _ in range(n_steps):
            yield sim.timeout(step)

    sim.process(ticker())
    return sim


def _sampler(sim, interval_seconds):
    """A sampler whose own ``keep_records`` session keeps every sample."""
    session = obs.TelemetrySession(keep_records=True, registry=obs.MetricsRegistry())
    return obs.TimelineSampler(sim, interval_seconds, session=session)


def _samples(sampler) -> list:
    return sampler.session.timeline_records


class TestTimelineSampler:
    def test_samples_land_on_the_grid(self):
        sim = _ticking_sim(n_steps=10, step=1.0)
        sampler = _sampler(sim, interval_seconds=2.5)
        sampler.add_probe("repro_timeline_engine_clock_seconds", lambda t: t)
        sampler.attach()
        sim.run()
        sampler.detach()
        times = [s["t"] for s in _samples(sampler)]
        # Grid ticks at 2.5/5.0/7.5/10.0; run ends exactly on the last tick,
        # so detach adds nothing.
        assert times == [2.5, 5.0, 7.5, 10.0]
        assert all(
            s["values"]["repro_timeline_engine_clock_seconds"] == s["t"]
            for s in _samples(sampler)
        )

    def test_detach_snapshots_the_end_state(self):
        sim = _ticking_sim(n_steps=3, step=1.0)
        sampler = _sampler(sim, interval_seconds=2.0)
        sampler.add_probe("repro_timeline_engine_clock_seconds", lambda t: t)
        sampler.attach()
        sim.run()
        sampler.detach()
        assert [s["t"] for s in _samples(sampler)] == [2.0, 3.0]

    def test_coarse_events_still_hit_every_tick(self):
        # One event jumping far ahead must emit one row per crossed tick.
        sim = _ticking_sim(n_steps=1, step=10.0)
        sampler = _sampler(sim, interval_seconds=2.0)
        sampler.add_probe("repro_timeline_engine_clock_seconds", lambda t: t)
        sampler.attach()
        sim.run()
        sampler.detach()
        assert [s["t"] for s in _samples(sampler)] == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_grid_ticks_are_repeated_additions(self):
        # One event at 1.25 crosses twelve 0.1 s ticks.  Each tick is the
        # previous one plus the interval, so tick k drifts off k * interval.
        sim = _ticking_sim(n_steps=1, step=1.25)
        sampler = _sampler(sim, interval_seconds=0.1)
        sampler.add_probe("repro_timeline_engine_clock_seconds", lambda t: t)
        sampler.attach()
        sim.run()
        sampler.detach()
        grid = list(itertools.accumulate([0.1] * 12))
        assert [s["t"] for s in _samples(sampler)] == grid + [1.25]
        assert grid[9] == 0.9999999999999999 != 10 * 0.1

    def test_probe_name_discipline(self):
        sampler = _sampler(Simulator(), interval_seconds=1.0)
        sampler.add_probe("repro_timeline_engine_clock_seconds", lambda t: t)
        with pytest.raises(ConfigurationError):
            sampler.add_probe("repro_timeline_engine_clock_seconds", lambda t: t)
        with pytest.raises(ConfigurationError):
            sampler.add_probe("repro_timeline_engine_*", lambda t: t)  # repro-lint: disable=obs-naming
        with pytest.raises(ConfigurationError):
            sampler.add_probe("not_a_series", lambda t: t)

    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            _sampler(Simulator(), interval_seconds=0.0)

    def test_config_round_trips(self):
        # The config reaches pool workers pickled inside their trace context.
        cfg = obs.TimelineConfig(
            interval_seconds=3.5, power_cap_watts=1_000.0,
            checkpoint_overdue_seconds=60.0,
        )
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        ctx = obs.TraceContext(trace_id="t", timeline=cfg)
        assert pickle.loads(pickle.dumps(ctx)).timeline == cfg
        with pytest.raises(ConfigurationError):
            obs.TimelineConfig(interval_seconds=-1.0)


# ---------------------------------------------------------------- watchdog


class TestWatchdog:
    def test_threshold_fires_once_per_episode(self):
        dog = obs.Watchdog(
            [obs.WatchRule(name="hot", series="repro_timeline_power_draw_watts",
                           op=">", threshold=100.0)]
        )
        series = "repro_timeline_power_draw_watts"
        assert dog.observe(1.0, {series: 50.0}) == []
        first = dog.observe(2.0, {series: 150.0})
        assert len(first) == 1 and first[0].rule == "hot"
        # Still breached: quiet until the episode clears.
        assert dog.observe(3.0, {series: 200.0}) == []
        assert dog.observe(4.0, {series: 50.0}) == []
        # Re-armed: a fresh breach fires again.
        assert len(dog.observe(5.0, {series: 150.0})) == 1
        assert len(dog.alerts) == 2

    def test_for_seconds_debounces(self):
        dog = obs.Watchdog(
            [obs.WatchRule(name="hot", series="repro_timeline_power_draw_watts",
                           op=">", threshold=100.0, for_seconds=2.0)]
        )
        series = "repro_timeline_power_draw_watts"
        assert dog.observe(1.0, {series: 150.0}) == []
        assert dog.observe(2.0, {series: 150.0}) == []
        fired = dog.observe(3.0, {series: 150.0})
        assert len(fired) == 1 and fired[0].t == 3.0
        # A dip resets the debounce clock.
        dog.observe(4.0, {series: 50.0})
        assert dog.observe(5.0, {series: 150.0}) == []

    def test_growth_requires_strict_increase_over_window(self):
        dog = obs.Watchdog(
            [obs.WatchRule(name="queue_growth",
                           series="repro_timeline_engine_queue_depth_total",
                           kind="growth", window=3)]
        )
        series = "repro_timeline_engine_queue_depth_total"
        assert dog.observe(1.0, {series: 1.0}) == []
        assert dog.observe(2.0, {series: 2.0}) == []
        assert len(dog.observe(3.0, {series: 3.0})) == 1
        # A plateau clears the episode; growth must rebuild the full window.
        assert dog.observe(4.0, {series: 3.0}) == []
        assert dog.observe(5.0, {series: 4.0}) == []
        assert len(dog.observe(6.0, {series: 5.0})) == 1

    def test_wildcard_selector_keeps_per_series_state(self):
        dog = obs.Watchdog(
            [obs.WatchRule(name="ost_full", series="repro_timeline_storage_ost*",
                           op=">=", threshold=0.9)]
        )
        sample = {
            "repro_timeline_storage_ost0_fill_ratio": 0.95,
            "repro_timeline_storage_ost1_fill_ratio": 0.10,
        }
        fired = dog.observe(1.0, sample)
        assert [a.series for a in fired] == [
            "repro_timeline_storage_ost0_fill_ratio"
        ]
        sample["repro_timeline_storage_ost1_fill_ratio"] = 0.92
        assert [a.series for a in dog.observe(2.0, sample)] == [
            "repro_timeline_storage_ost1_fill_ratio"
        ]

    def test_rule_validation(self):
        with pytest.raises(ConfigurationError):
            obs.WatchRule(name="Bad-Name", series="repro_timeline_power_draw_watts")  # repro-lint: disable=obs-naming
        with pytest.raises(ConfigurationError):
            obs.WatchRule(name="ok", series="bogus")  # repro-lint: disable=obs-naming
        with pytest.raises(ConfigurationError):
            obs.WatchRule(name="ok", series="repro_timeline_power_draw_watts",
                          op="!=")
        with pytest.raises(ConfigurationError):
            obs.WatchRule(name="ok", series="repro_timeline_power_draw_watts",
                          severity="fatal")
        with pytest.raises(ConfigurationError):
            obs.WatchRule(name="ok", series="repro_timeline_power_draw_watts",
                          kind="growth", window=1)

    def test_duplicate_rule_names_rejected(self):
        rule = obs.WatchRule(name="dup", series="repro_timeline_power_draw_watts")
        with pytest.raises(ConfigurationError):
            obs.Watchdog([rule, rule])

    def test_default_rules_gate_on_limits(self):
        names = {r.name for r in obs.default_rules()}
        assert "power_cap_exceeded" not in names
        assert "checkpoint_overdue" not in names
        assert {"storage_fill_high", "ost_fill_high", "engine_queue_growth"} <= names
        full = {
            r.name
            for r in obs.default_rules(
                power_cap_watts=10_000.0, checkpoint_overdue_seconds=60.0
            )
        }
        assert {"power_cap_exceeded", "checkpoint_overdue"} <= full


# ------------------------------------------------ once-per-run bookkeeping


DRAW = "repro_timeline_power_draw_watts"
OST0 = "repro_timeline_storage_ost0_fill_ratio"
OST1 = "repro_timeline_storage_ost1_fill_ratio"
QUEUE = "repro_timeline_engine_queue_depth_total"
FILL = "repro_timeline_storage_fill_ratio"

_MIXED_RULES = (
    obs.WatchRule(name="hot", series="repro_timeline_power_draw_watts",
                  op=">", threshold=100.0, for_seconds=2.0),
    obs.WatchRule(name="ost_full", series="repro_timeline_storage_ost*",
                  op=">=", threshold=0.9),
    obs.WatchRule(name="queue_growth",
                  series="repro_timeline_engine_queue_depth_total",
                  kind="growth", window=3),
)


def _full(draw: float, ost0: float, ost1: float, queue: float) -> dict:
    # Inserted out of name order: the watchdog must sort, not trust the dict.
    return {QUEUE: queue, OST1: ost1, OST0: ost0, FILL: 0.5, DRAW: draw}


def _partial(ost0: float) -> dict:
    # Lacks DRAW, OST1 and QUEUE, which the rules select.
    return {FILL: 0.5, OST0: ost0}


_MIXED_SAMPLES = (
    (1.0, _full(150.0, 0.95, 0.50, 1.0)),
    (2.0, _partial(0.95)),
    (3.0, _full(150.0, 0.20, 0.95, 2.0)),
    (4.0, _partial(0.95)),
    (5.0, _full(150.0, 0.95, 0.97, 3.0)),
    (6.0, _partial(0.10)),
    (7.0, _full(50.0, 0.95, 0.10, 4.0)),
    (8.0, _full(150.0, 0.95, 0.95, 4.0)),
    (9.0, _partial(0.95)),
    (10.0, _full(150.0, 0.99, 0.99, 5.0)),
)


def _reference_alerts(rules, samples) -> list:
    """Every rule matched against every sorted series of every sample."""
    ops = {">": float.__gt__, ">=": float.__ge__, "<": float.__lt__, "<=": float.__le__}
    states: dict = {}
    alerts = []
    for t, values in samples:
        for rule in rules:
            for series in sorted(values):
                if not rule.matches(series):
                    continue
                value = float(values[series])
                state = states.setdefault(
                    (rule.name, series), {"start": None, "fired": False, "history": []}
                )
                if rule.kind == "growth":
                    history = (state["history"] + [value])[-rule.window:]
                    state["history"] = history
                    breached = len(history) == rule.window and all(
                        b > a for a, b in zip(history, history[1:])
                    )
                else:
                    breached = ops[rule.op](value, float(rule.threshold))
                if not breached:
                    state["start"], state["fired"] = None, False
                    continue
                if state["start"] is None:
                    state["start"] = t
                if not state["fired"] and t - state["start"] >= rule.for_seconds:
                    state["fired"] = True
                    alerts.append((rule.name, series, t, value))
    return alerts


class TestWatchdogAcrossSeriesSets:
    def test_interleaved_series_sets_match_a_per_sample_scan(self):
        dog = obs.Watchdog(_MIXED_RULES)
        returned = []
        for t, values in _MIXED_SAMPLES:
            returned.extend(dog.observe(t, values))
        got = [(a.rule, a.series, a.t, a.value) for a in dog.alerts]
        assert [(a.rule, a.series, a.t, a.value) for a in returned] == got
        assert got == _reference_alerts(_MIXED_RULES, _MIXED_SAMPLES)
        # The partial samples at t=2 and t=9 lack DRAW, yet the debounce
        # begun at t=1 (t=8) completes at t=3 (t=10): their states stayed
        # untouched.  Likewise QUEUE's growth window spans t=1, 3 and 5.
        assert got == [
            ("ost_full", OST0, 1.0, 0.95),
            ("hot", DRAW, 3.0, 150.0),
            ("ost_full", OST1, 3.0, 0.95),
            ("ost_full", OST0, 4.0, 0.95),
            ("queue_growth", QUEUE, 5.0, 3.0),
            ("ost_full", OST0, 7.0, 0.95),
            ("ost_full", OST1, 8.0, 0.95),
            ("hot", DRAW, 10.0, 150.0),
        ]

    def test_rules_match_once_per_series_set(self, monkeypatch):
        calls = []
        matches = obs.WatchRule.matches

        def counting(rule, series):
            calls.append((rule.name, series))
            return matches(rule, series)

        monkeypatch.setattr(obs.WatchRule, "matches", counting)
        dog = obs.Watchdog(_MIXED_RULES)
        dog.observe(0.0, _full(0.0, 0.0, 0.0, 0.0))
        dog.observe(0.5, _partial(0.0))
        assert calls
        calls.clear()
        for t, values in _MIXED_SAMPLES:
            dog.observe(t, values)
        assert calls == []


#: Level changes a growth test walks through: mostly rises, some plateaus,
#: drops and NaN readings (a NaN breaks a run of rises on both sides).
_STEPS = st.sampled_from([1.0, 1.0, 1.0, 0.0, -1.0, math.nan])


class TestWatchdogMatchesReference:
    @settings(deadline=None, max_examples=200)
    @given(
        window=st.integers(min_value=2, max_value=8),
        for_seconds=st.sampled_from([0.0, 2.0]),
        op=st.sampled_from([">", ">=", "<", "<="]),
        threshold=st.sampled_from([0.0, 2.0, 5.0]),
        steps=st.lists(_STEPS, max_size=40),
    )
    def test_growth_and_threshold_rules(self, window, for_seconds, op, threshold, steps):
        rules = (
            obs.WatchRule(name="grow", series=QUEUE, kind="growth", window=window,
                          for_seconds=for_seconds),
            obs.WatchRule(name="level", series=QUEUE, op=op, threshold=threshold),
        )
        level, samples = 0.0, []
        for i, step in enumerate(steps):
            level += 0.0 if math.isnan(step) else step
            samples.append((float(i), {QUEUE: step if math.isnan(step) else level}))
        dog = obs.Watchdog(rules)
        for t, values in samples:
            dog.observe(t, values)
        got = [(a.rule, a.series, a.t, a.value) for a in dog.alerts]
        assert got == _reference_alerts(rules, samples)


class TestSamplerBookkeeping:
    def test_values_sorted_names_in_registration_order(self):
        sim = _ticking_sim(n_steps=4, step=1.0)
        calls = []
        sampler = _sampler(sim, interval_seconds=1.0)
        sampler.add_probe(
            "repro_timeline_storage_fill_ratio", lambda t: calls.append(FILL) or 0.5
        )
        sampler.add_probe(
            "repro_timeline_engine_queue_depth_total", lambda t: calls.append(QUEUE) or t
        )
        sampler.add_probe(
            "repro_timeline_power_draw_watts", lambda t: calls.append(DRAW) or 2.0
        )
        sampler.attach()
        sim.run()
        sampler.detach()
        assert sampler.series_names == (FILL, QUEUE, DRAW)
        assert len(_samples(sampler)) == 4
        for sample in _samples(sampler):
            assert list(sample["values"]) == [QUEUE, DRAW, FILL]
        assert sorted(calls) == sorted([FILL, QUEUE, DRAW] * 4)

    def test_samples_counter_counts_every_sample(self, tmp_path):
        sim = _ticking_sim(n_steps=5, step=1.0)
        with obs.session(str(tmp_path), label="tl") as session:
            sampler = obs.TimelineSampler(sim, interval_seconds=1.0, session=session)
            sampler.add_probe("repro_timeline_engine_clock_seconds", lambda t: t)
            sampler.attach()
            sim.run()
            sampler.detach()
            counter = session.registry.counter(
                "repro_obs_timeline_samples_total", label="run"
            )
            assert counter.value == session.n_timeline == 5

    def test_ost_probe_sees_a_write_at_one_simulated_time(self):
        sim = Simulator()
        fs = LustreFileSystem(sim, capacity_bytes=1 * GB)
        ost0 = dict(obs.storage_probes(fs))[OST0]
        assert ost0(5.0) == 0.0
        sim.process(fs.write("/a", 80 * MB))
        sim.run()
        # Same probe time, new namespace: the fill must follow the write.
        assert ost0(5.0) == fs.ost_fill_fractions()[0] > 0.0


# --------------------------------------------------- gauges once per event

CLOCK = "repro_timeline_engine_clock_seconds"
LEVEL = "repro_timeline_engine_level_total"
SLACK = "repro_timeline_engine_slack_seconds"

#: Event times on a 1 s grid: 0.3 and 1.5 cross no tick, 1.0 crosses one,
#: 4.2 crosses three (2, 3 and 4); detach then snapshots 4.2.
_EVENT_TIMES = (0.3, 1.0, 1.5, 4.2)


#: ``(level, time)`` per event: the k-th of :data:`_EVENT_TIMES` sets the
#: level to k.
_SCRIPT = tuple((float(k), t) for k, t in enumerate(_EVENT_TIMES, start=1))


def _scripted_sim(level: list, script=_SCRIPT) -> Simulator:
    """One event per ``(level, time)`` of ``script``, which sets the level."""
    sim = Simulator()

    def run():
        for value, t in script:
            yield sim.timeout(t - sim.now)
            level[0] = value

    sim.process(run())
    return sim


@st.composite
def _scripts(draw):
    """Scripts on a 1 s grid whose events each cross 0–8 ticks and make the
    level rise, hold, drop or read NaN."""
    t, level, script = 0.0, 0.0, []
    for step in draw(st.lists(_STEPS, max_size=12)):
        # Quarter seconds add up exactly; 8 s spans at most 8 ticks.
        t += draw(st.integers(min_value=0, max_value=32)) / 4.0
        level += 0.0 if math.isnan(step) else step
        script.append((step if math.isnan(step) else level, t))
    return tuple(script)


def _scripted_probes(level: list, reads: list) -> list:
    """A gauge, a clock probe and a series derived from the clock."""

    def read_level(t):
        reads.append(LEVEL)
        return level[0]

    def read_clock(t):
        reads.append(CLOCK)
        return t

    return [
        (LEVEL, state_probe(read_level)),
        (CLOCK, read_clock),
        (SLACK, derived(CLOCK, read_clock, lambda now: 10.0 - now)),
    ]


def _strip(fn):
    """``fn`` without its marks: read at every tick, as any plain probe is."""
    return lambda t: fn(t)


class TestGaugesOncePerEvent:
    def test_gauge_per_crossing_event_clock_per_tick(self):
        level, reads = [0.0], []
        sim = _scripted_sim(level)
        sampler = _sampler(sim, interval_seconds=1.0)
        sampler.add_probes(_scripted_probes(level, reads))
        sampler.attach()
        sim.run()
        # Two events crossed ticks: the level is read once for each, the
        # clock once per tick and never for the series derived from it.
        assert reads.count(LEVEL) == 2
        assert reads.count(CLOCK) == 4
        sampler.detach()
        assert reads.count(LEVEL) == 3 and reads.count(CLOCK) == 5
        assert [
            (s["t"], s["values"][LEVEL], s["values"][CLOCK], s["values"][SLACK])
            for s in _samples(sampler)
        ] == [
            (1.0, 2.0, 1.0, 9.0),
            (2.0, 4.0, 2.0, 8.0),
            (3.0, 4.0, 3.0, 7.0),
            (4.0, 4.0, 4.0, 6.0),
            (4.2, 4.0, 4.2, 10.0 - 4.2),
        ]
        # Each tick has its own record and values.
        assert len({id(s["values"]) for s in _samples(sampler)}) == 5

    @settings(deadline=None, max_examples=150)
    @given(script=_scripts())
    @example(script=_SCRIPT)
    def test_stripped_marks_write_the_same_bytes_and_alerts(self, script):
        # Stripped, every probe is a clock probe: each tick reads, renders
        # and checks every column, the reference the later ticks of an
        # event (gauges kept, only clock and derived columns moved) match.
        rules = [
            obs.WatchRule(name="level_high", series=LEVEL, op=">", threshold=1.5,
                          for_seconds=1.5),
            obs.WatchRule(name="level_over", series=LEVEL, op=">=", threshold=2.0),
            obs.WatchRule(name="level_growth", series=LEVEL, kind="growth", window=3),
            obs.WatchRule(name="clock_late", series=CLOCK, op=">", threshold=2.5,
                          for_seconds=1.0),
            obs.WatchRule(name="clock_growth", series=CLOCK, kind="growth", window=3),
        ]

        def run(directory, strip_marks):
            level = [0.0]
            sim = _scripted_sim(level, script)
            with obs.session(str(directory), label="tl", keep_records=True) as session:
                sampler = obs.TimelineSampler(
                    sim, interval_seconds=1.0, session=session, watchdog=obs.Watchdog(rules)
                )
                for name, fn in _scripted_probes(level, []):
                    sampler.add_probe(name, _strip(fn) if strip_marks else fn)
                sampler.attach()
                sim.run()
                sampler.detach()
            timeline = (directory / obs.TIMELINE_FILENAME).read_bytes()
            events = (directory / obs.EVENTS_FILENAME).read_bytes()
            return timeline, events, session.timeline_records

        with tempfile.TemporaryDirectory() as root:
            timeline, events, records = run(Path(root) / "marked", False)
            assert run(Path(root) / "stripped", True)[:2] == (timeline, events)
        # A keep_records session (a pool shard) keeps each tick's own values
        # dict, and the encoder writes each record as the row text did.
        assert len({id(record["values"]) for record in records}) == len(records)
        assert all(list(record["values"]) == [CLOCK, LEVEL, SLACK] for record in records)
        assert [_ENCODER.encode(record) for record in records] == (
            timeline.decode("utf-8").splitlines()
        )
        if script == _SCRIPT:
            alerts = collect_alerts(
                [json.loads(line) for line in events.decode("utf-8").splitlines()]
            )
            assert [(a["rule"], a["t"]) for a in alerts] == [
                ("level_over", 1.0), ("level_high", 3.0), ("clock_growth", 3.0),
                ("clock_late", 4.0),
            ]


# ------------------------------------------------------------ power series

COMPUTE = "repro_timeline_power_compute_watts"
HEADROOM = "repro_timeline_power_headroom_watts"
CAP = 5_000.0


class TestPowerSeries:
    def _late_change(self, sim, cluster, at: float):
        """A process whose one event at ``at`` makes every node busy."""

        def script():
            yield sim.timeout(at)
            cluster.set_utilization(1.0)

        sim.process(script())

    def test_draw_reads_the_signals_at_the_tick(self):
        sim = Simulator()
        cluster = ComputeCluster(sim, n_nodes=25)
        idle, busy = (cluster.node_model.power(u) for u in (0.0, 1.0))
        self._late_change(sim, cluster, at=2.5)
        sampler = _sampler(sim, interval_seconds=1.0)
        sampler.add_probes(obs.power_probes(cluster, cap_watts=CAP))
        sampler.attach()
        sim.run()
        sampler.detach()
        rows = [(s["t"], s["values"]) for s in _samples(sampler)]
        # The event at 2.5 crosses the ticks at 1 and 2: the draw reads the
        # power before the event there, the compute series the power after.
        assert [t for t, _ in rows] == [1.0, 2.0, 2.5]
        for t, values in rows:
            draw = sum([busy if t == 2.5 else idle] * 25)
            assert values[DRAW] == draw
            assert values[HEADROOM] == CAP - draw
            assert values[COMPUTE] == sum([busy] * 25)

    def test_one_draw_sum_per_tick(self, monkeypatch):
        sim = Simulator()
        cluster = ComputeCluster(sim, n_nodes=25)
        self._late_change(sim, cluster, at=3.5)
        sampler = _sampler(sim, interval_seconds=1.0)
        sampler.add_probes(obs.power_probes(cluster, cap_watts=CAP))
        reads = []
        value_at = PowerSignal.value_at
        monkeypatch.setattr(
            PowerSignal, "value_at",
            lambda signal, t: reads.append(t) or value_at(signal, t),
        )
        sampler.attach()
        sim.run()
        # Three ticks crossed, each one draw over the cluster's one group.
        assert len(cluster.groups) == 1
        assert reads == [1.0, 2.0, 3.0]

    def test_headroom_called_directly_sees_a_change_at_one_time(self):
        sim = Simulator()
        cluster = ComputeCluster(sim, n_nodes=25)
        idle, busy = (cluster.node_model.power(u) for u in (0.0, 1.0))
        headroom = dict(obs.power_probes(cluster, cap_watts=CAP))[HEADROOM]
        seen = []

        def script():
            yield sim.timeout(1.0)
            seen.append(headroom(sim.now))
            cluster.set_utilization(1.0)
            seen.append(headroom(sim.now))

        sim.process(script())
        sim.run()
        assert seen == [CAP - sum([idle] * 25), CAP - sum([busy] * 25)]


# ----------------------------------------------------------- row text


#: Repeats are likely from the small pool, so unchanged columns are common.
_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.5]),
    st.floats(),
)


@st.composite
def _named_rows(draw):
    names = sorted(draw(st.lists(st.text(), max_size=6, unique=True)))
    row = st.lists(_CELLS, min_size=len(names), max_size=len(names))
    return names, draw(st.lists(row, max_size=8))


@st.composite
def _moving_rows(draw):
    """Names, a first row, then ``(columns, row)`` steps: each row keeps the
    previous one's values outside its sorted ``columns``."""
    names = sorted(draw(st.lists(st.text(), min_size=1, max_size=6, unique=True)))
    first = row = draw(st.lists(_CELLS, min_size=len(names), max_size=len(names)))
    steps = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        columns = sorted(draw(st.sets(st.integers(min_value=0, max_value=len(names) - 1))))
        row = list(row)
        for i in columns:
            row[i] = draw(_CELLS)
        steps.append((columns, row))
    return names, first, steps


#: A timeline record's ``values`` as the sampler builds them.
_VALUES = {DRAW: 15_000.5, QUEUE: -0.0, FILL: math.nan, OST0: math.inf}


#: ``t`` as a sample record may carry it.
_TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
    st.floats(),
    st.integers(),
)


def _sample_record(label, trace, seq, t, kind="sample") -> tuple:
    """A timeline sample record and its values' text, as the sampler gives them."""
    names = sorted(_VALUES)
    row = [_VALUES[name] for name in names]
    record = {"type": kind, "t": t, "label": label, "values": dict(zip(names, row)),
              "seq": seq, "trace": trace}
    return record, RowText(names).render(row)


#: Ways a record can leave the timeline-sample shape.
_RESHAPES = st.sampled_from([
    None,
    ("drop", "seq"), ("drop", "t"), ("drop", "trace"), ("drop", "label"), ("drop", "type"),
    ("add", "span"), ("set", "seq", True), ("set", "seq", 1.0), ("set", "t", True),
    ("set", "t", None), ("set", "t", "1.5"), ("set", "label", 7), ("set", "trace", None),
])


@st.composite
def _records(draw):
    record, values_json = _sample_record(
        draw(st.sampled_from(["run", "run-001"]) | st.text()),
        draw(st.sampled_from(["0123abcd"]) | st.text()),
        draw(st.integers()),
        draw(_TIMES),
        draw(st.sampled_from(["sample"]) | st.text()),
    )
    reshape = draw(_RESHAPES)
    if reshape is not None:
        if reshape[0] == "drop":
            del record[reshape[1]]
        elif reshape[0] == "add":
            record[reshape[1]] = 3
        else:
            record[reshape[1]] = reshape[2]
    return record, values_json


class TestRowText:
    @settings(deadline=None, max_examples=300)
    @given(_named_rows())
    @example((["a"], [[0.0], [-0.0], [0.0]]))
    @example((["a"], [[math.nan], [math.nan]]))
    def test_render_is_the_encoder_text(self, named_rows):
        names, rows = named_rows
        text = RowText(names)
        for row in rows:
            assert text.render(row) == _ENCODER.encode(dict(zip(names, row)))

    @settings(deadline=None, max_examples=300)
    @given(_moving_rows())
    @example((["a", "b", "c"], [0.0, math.nan, math.inf], [
        ([0], [-0.0, math.nan, math.inf]),
        ([0, 2], [0.0, math.nan, -math.inf]),
        ([1], [0.0, math.nan, -math.inf]),
        ([0, 1, 2], [-0.0, 1.5, math.inf]),
    ]))
    def test_rendering_only_the_moved_columns_is_the_encoder_text(self, moving_rows):
        names, first, steps = moving_rows
        text = RowText(names)
        assert text.render(first) == _ENCODER.encode(dict(zip(names, first)))
        for columns, row in steps:
            assert text.render(row, columns) == _ENCODER.encode(dict(zip(names, row)))

    def test_names_must_come_sorted_and_distinct(self):
        for names in (["b", "a"], ["a", "a"]):
            with pytest.raises(ValueError):
                RowText(names)

    @pytest.mark.parametrize(
        "label", ["run", 'say "hi"', "back\\slash", "naïve — 温度 🌊", "tab\tnew\nline"]
    )
    def test_write_with_values_text_is_the_same_line(self, tmp_path, label):
        names = sorted(_VALUES)
        text = RowText(names).render([_VALUES[name] for name in names])
        for t in (3, 2.5, 0.1 + 0.2):
            record = {"type": "sample", "t": t, "label": label, "values": _VALUES,
                      "seq": 7, "trace": "0123abcd"}
            plain, fast = tmp_path / "plain.jsonl", tmp_path / "fast.jsonl"
            with JsonlWriter(str(plain)) as writer:
                writer.write(record)
            with JsonlWriter(str(fast)) as writer:
                writer.write(record, text)
            assert fast.read_bytes() == plain.read_bytes()

    @settings(deadline=None, max_examples=300)
    @given(st.lists(_records(), min_size=1, max_size=6))
    @example([_sample_record("run", "t1", 1, -0.0), _sample_record("run", "t1", 2, 5e-324)])
    @example([_sample_record('a"\\b', "\x00\u00e9\U0001f30a", 0, math.nan),
              _sample_record("a", "b", -3, math.inf), _sample_record("a", "b", 4, -math.inf)])
    def test_write_is_the_encoder_line(self, records):
        # One writer across records whose fixed text changes or repeats.
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "records.jsonl"
            with JsonlWriter(str(path)) as writer:
                for record, values_json in records:
                    writer.write(record, values_json)
            lines = path.read_text(encoding="utf-8").split("\n")
        assert lines == [_ENCODER.encode(record) for record, _ in records] + [""]

    def test_probe_added_after_sampling_began(self, tmp_path):
        # Names, probes and row text are rebuilt at the next sample; every
        # line still reads as the encoder writes its record.
        sim = _ticking_sim(n_steps=4, step=1.0)
        with obs.session(str(tmp_path), label="tl", keep_records=True) as session:
            sampler = obs.TimelineSampler(sim, interval_seconds=1.0, session=session)
            sampler.add_probe(QUEUE, lambda t: -0.0 if t < 2.0 else t)
            sampler.attach()
            sim.run(until=2.5)
            sampler.add_probe(DRAW, lambda t: 2.0 * t)
            sim.run()
            sampler.detach()
        lines = (tmp_path / obs.TIMELINE_FILENAME).read_text().splitlines()
        assert lines == [_ENCODER.encode(record) for record in _samples(sampler)]
        assert [list(record["values"]) for record in _samples(sampler)] == [
            [QUEUE], [QUEUE], [QUEUE, DRAW], [QUEUE, DRAW],
        ]

    def test_no_text_without_a_directory(self, monkeypatch):
        def render(_self, _row):
            raise AssertionError("rendered for a session that writes no file")

        monkeypatch.setattr(RowText, "render", render)
        sim = _ticking_sim(n_steps=3, step=1.0)
        with obs.session(label="mem") as session:
            sampler = obs.TimelineSampler(sim, interval_seconds=1.0, session=session)
            sampler.add_probe(QUEUE, lambda t: t)
            sampler.attach()
            sim.run()
            sampler.detach()
        assert session.n_timeline == 3


# ----------------------------------------------------- platform integration


def _run_with_timeline(directory, spec, **cfg):
    with obs.session(
        str(directory), label="tl", timeline=obs.TimelineConfig(**cfg)
    ):
        run_characterization(intervals_hours=(72.0,), spec=spec)


class TestPlatformIntegration:
    def test_timeline_covers_engine_storage_and_power(self, tmp_path, small_spec):
        d = tmp_path / "t"
        _run_with_timeline(d, small_spec, power_cap_watts=30_000.0)
        rows = list(obs.read_jsonl(str(d / obs.TIMELINE_FILENAME)))
        assert rows
        names = set()
        for row in rows:
            assert row["type"] == "sample"
            assert "seq" in row and "trace" in row
            names.update(row["values"])
        for series in (
            "repro_timeline_engine_queue_depth_total",
            "repro_timeline_engine_events_processed_total",
            "repro_timeline_storage_fill_ratio",
            "repro_timeline_storage_ost0_fill_ratio",
            "repro_timeline_resource_mds_utilization_ratio",
            "repro_timeline_power_draw_watts",
            "repro_timeline_power_cap_watts",
            "repro_timeline_power_headroom_watts",
            "repro_timeline_power_nodes_busy_total",
        ):
            assert series in names, series
        manifest = obs.RunManifest.load(str(d))
        assert manifest.n_timeline == len(rows)
        assert "repro_obs_timeline_samples_total" in manifest.metrics

    def test_two_seeded_runs_produce_byte_identical_timelines(
        self, tmp_path, small_spec
    ):
        a, b = tmp_path / "a", tmp_path / "b"
        _run_with_timeline(a, small_spec, power_cap_watts=16_000.0)
        obs.default_registry().reset()
        _run_with_timeline(b, small_spec, power_cap_watts=16_000.0)
        bytes_a = (a / obs.TIMELINE_FILENAME).read_bytes()
        assert bytes_a == (b / obs.TIMELINE_FILENAME).read_bytes()
        assert bytes_a

    def test_sampling_off_leaves_no_timeline_and_identical_results(
        self, tmp_path, small_spec
    ):
        plain = run_characterization(intervals_hours=(72.0,), spec=small_spec)
        d = tmp_path / "off"
        with obs.session(str(d), label="off"):
            # No TimelineConfig: the session records spans/metrics only.
            sampled = run_characterization(intervals_hours=(72.0,), spec=small_spec)
        assert not (d / obs.TIMELINE_FILENAME).exists()
        assert obs.RunManifest.load(str(d)).n_timeline == 0
        a = [m.to_dict() for m in plain.metrics]
        b = [m.to_dict() for m in sampled.metrics]
        assert a == b

    def test_power_cap_alerts_are_deterministic(self, tmp_path, small_spec):
        a, b = tmp_path / "a", tmp_path / "b"
        _run_with_timeline(a, small_spec, power_cap_watts=16_000.0)
        obs.default_registry().reset()
        _run_with_timeline(b, small_spec, power_cap_watts=16_000.0)
        alerts_a = collect_alerts(
            list(obs.read_jsonl(str(a / obs.EVENTS_FILENAME)))
        )
        alerts_b = collect_alerts(
            list(obs.read_jsonl(str(b / obs.EVENTS_FILENAME)))
        )
        assert alerts_a and alerts_a == alerts_b
        assert any(al["rule"] == "power_cap_exceeded" for al in alerts_a)
        assert all(al["severity"] == "critical" for al in alerts_a
                   if al["rule"] == "power_cap_exceeded")
        manifest = obs.RunManifest.load(str(a))
        assert "repro_alert_power_cap_exceeded_total" in manifest.metrics

    def test_parallel_timeline_matches_serial(self, tmp_path, small_spec):
        from repro.exec.engine import ExecutionEngine

        a, b = tmp_path / "serial", tmp_path / "parallel"
        with obs.session(str(a), label="tl", timeline=obs.TimelineConfig()):
            run_characterization(intervals_hours=(72.0,), spec=small_spec)
        obs.default_registry().reset()
        with obs.session(str(b), label="tl", timeline=obs.TimelineConfig()):
            run_characterization(
                intervals_hours=(72.0,),
                spec=small_spec,
                engine=ExecutionEngine(max_workers=2),
            )
        assert (a / obs.TIMELINE_FILENAME).read_bytes() == (
            b / obs.TIMELINE_FILENAME
        ).read_bytes()


# ------------------------------------------------------ pinned telemetry bytes

REPO_ROOT = Path(__file__).resolve().parent.parent


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _telemetry_digests(directory: Path) -> dict:
    return {
        name: _sha256((directory / name).read_bytes())
        for name in (obs.EVENTS_FILENAME, obs.TIMELINE_FILENAME)
    }


class TestTelemetryBytesArePinned:
    """sha256 of what two fixed runs write: any changed output byte fails.

    The faulted run is the end-to-end benchmark's ``faults-traced`` rep
    (its ``golden.json`` digests); the capped run goes through the
    unsupervised path.
    """

    def test_faulted_powercap_stress_run(self, tmp_path, capsys):
        from repro.scenario.loader import load_scenario
        from repro.scenario.run import run_scenario

        scenario = load_scenario(
            str(REPO_ROOT / "scenarios" / "powercap-stress.yaml"),
            overrides=["faults.seed=3"],
        )
        capsys.readouterr()
        timeline = obs.TimelineConfig(power_cap_watts=16_000.0)
        with obs.session(str(tmp_path), timeline=timeline):
            run_scenario(scenario, json_output=True)
        stdout = capsys.readouterr().out.encode("utf-8")
        assert _telemetry_digests(tmp_path) == {
            obs.EVENTS_FILENAME:
                "6195f66cb26cad4beaa86c1be48548e695e04d2c342a5989a4abf1227758ad02",
            obs.TIMELINE_FILENAME:
                "77abda8287ecbe8282cda1ad3277e7085f43f1b6c5dab222ca7ffd8ef66597d8",
        }
        assert _sha256(stdout) == (
            "c154fee7032747644cafa832d8216e0d6b4d3bbfae41bf71621363c4d4082a5c"
        )

    def test_unfaulted_capped_run(self, tmp_path, small_spec):
        _run_with_timeline(tmp_path, small_spec, power_cap_watts=16_000.0)
        assert _telemetry_digests(tmp_path) == {
            obs.EVENTS_FILENAME:
                "5fc1e371c7c654d07df2eeeaf582ccab66e604cc51e1134afb54c9a563c80aa0",
            obs.TIMELINE_FILENAME:
                "7ac3b00d9b9dafb2c25b1180fb4a875fcdf5baf72fa2464055ce0b992fa2bde1",
        }


# ---------------------------------------------------------------- obs CLI


class TestObsCheckAndSummarize:
    def _capped_run(self, directory, spec):
        _run_with_timeline(directory, spec, power_cap_watts=16_000.0)

    def test_check_exits_2_on_alerts(self, tmp_path, small_spec, capsys):
        d = tmp_path / "t"
        self._capped_run(d, small_spec)
        assert obs_cli_main(["check", str(d)]) == 2
        assert obs_cli_main(["check", str(d), "--min-severity", "critical"]) == 2
        out = capsys.readouterr()
        assert "power_cap_exceeded" in out.out

    def test_check_passes_without_alerts(self, tmp_path, small_spec, capsys):
        d = tmp_path / "t"
        _run_with_timeline(d, small_spec)  # no cap -> no alerts
        assert obs_cli_main(["check", str(d)]) == 0

    def test_summarize_reports_timeline_and_alerts(self, tmp_path, small_spec):
        d = tmp_path / "t"
        self._capped_run(d, small_spec)
        text = summarize(str(d))
        assert "timeline:" in text
        assert "alerts:" in text
        assert "power_cap_exceeded" in text

    def test_summarize_counts_unknown_record_kinds(self, tmp_path):
        d = tmp_path / "t"
        with obs.session(str(d), label="u"):
            obs.event("noop")
        with open(d / obs.EVENTS_FILENAME, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "mystery", "x": 1}) + "\n")
            fh.write(json.dumps({"type": "mystery", "x": 2}) + "\n")
        text = summarize(str(d))
        assert "unknown kind" in text
        assert "mystery (x2)" in text
        snap = obs.default_registry().snapshot()
        series = snap["repro_obs_unknown_records_total"]["series"]
        assert [s["value"] for s in series] == [2.0]
        assert series[0]["labels"] == {"kind": "mystery"}

    def test_report_renders_sparklines_and_alert_markers(
        self, tmp_path, small_spec
    ):
        from repro.obs.report import render_html

        d = tmp_path / "t"
        self._capped_run(d, small_spec)
        doc = render_html(str(d))
        assert "<h2>Timeline" in doc
        assert doc.count("<polyline") >= 10
        assert "power_cap_exceeded" in doc


# ------------------------------------------------------ exporter regressions


class TestExporterRegressions:
    def test_zero_observation_histogram_exposes_sum_and_count(self):
        reg = obs.MetricsRegistry()
        reg._family("repro_pipeline_phase_seconds", "histogram", "")
        text = obs.to_prometheus(reg)
        assert "repro_pipeline_phase_seconds_sum 0" in text
        assert "repro_pipeline_phase_seconds_count 0" in text
        assert 'repro_pipeline_phase_seconds_bucket{le="+Inf"} 0' in text

    def test_merge_preserves_empty_series_families(self):
        src = obs.MetricsRegistry()
        src._family("repro_pipeline_phase_seconds", "histogram", "")
        src._family("repro_storage_writes_total", "counter", "")
        dst = obs.MetricsRegistry()
        dst.merge(src.snapshot())
        names = [f.name for f in dst.families()]
        assert "repro_pipeline_phase_seconds" in names
        assert "repro_storage_writes_total" in names


# ------------------------------------------------------------- lint fixtures


class TestObsNamingLintExtension:
    def _lint(self, tmp_path, source: str):
        from repro.lint import run_lint

        target = tmp_path / "fixture.py"
        target.write_text(source, encoding="utf-8")
        return [f for f in run_lint([str(target)]) if f.rule == "obs-naming"]

    def test_bad_probe_name_is_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path, "sampler.add_probe('repro_timeline_bad', fn)\n"
        )
        assert len(findings) == 1
        assert "repro_timeline_<layer>_<name>_<unit>" in findings[0].message

    def test_good_probe_name_is_clean(self, tmp_path):
        assert not self._lint(
            tmp_path,
            "sampler.add_probe('repro_timeline_engine_queue_depth_total', fn)\n",
        )

    def test_bad_watch_rule_series_is_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path, "WatchRule(name='ok', series='repro_storage_ost*')\n"
        )
        assert len(findings) == 1

    def test_bad_watch_rule_name_is_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            "WatchRule(name='Bad-Name', "
            "series='repro_timeline_power_draw_watts')\n",
        )
        assert len(findings) == 1
        assert "snake_case" in findings[0].message

    def test_good_watch_rule_is_clean(self, tmp_path):
        assert not self._lint(
            tmp_path,
            "WatchRule(name='ost_fill_high', "
            "series='repro_timeline_storage_ost*')\n",
        )

    def test_plain_metric_checks_still_work(self, tmp_path):
        assert self._lint(tmp_path, "obs.counter('repro_bad')\n")
        assert not self._lint(
            tmp_path, "obs.counter('repro_storage_writes_total')\n"
        )
