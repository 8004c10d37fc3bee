"""Tests for the discrete-event engine (:mod:`repro.events.engine`)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.events.engine import Simulator


class TestEvent:
    def test_fresh_event_is_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.value == 42

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_unhandled_failure_propagates_from_run(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            sim.run()


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_nan_delay_rejected(self, sim):
        """A NaN delay would set the clock to NaN, and no later event could
        be told to be in the past."""
        with pytest.raises(SimulationError):
            sim.timeout(float("nan"))
        assert sim.queue_depth == 0
        sim.timeout(2.0)
        sim.run()
        assert sim.now == 2.0

    def test_infinite_delay_rejected(self, sim):
        """An infinite delay would move the clock to inf for every later event."""
        with pytest.raises(SimulationError):
            sim.timeout(float("inf"))
        assert sim.queue_depth == 0
        sim.timeout(2.0)
        sim.run()
        assert sim.now == 2.0

    def test_zero_delay_fires_now(self, sim):
        fired = []
        ev = sim.timeout(0.0, value="v")
        ev.callbacks.append(lambda e: fired.append((sim.now, e.value)))
        sim.run()
        assert fired == [(0.0, "v")]


class TestProcess:
    def test_sequential_timeouts(self, sim):
        trace = []

        def proc():
            yield sim.timeout(1.0)
            trace.append(sim.now)
            yield sim.timeout(2.0)
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [1.0, 3.0]

    def test_same_time_events_fire_fifo(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_process_return_value(self, sim):
        def child():
            yield sim.timeout(1.0)
            return "result"

        def parent(out):
            value = yield sim.process(child())
            out.append(value)

        out = []
        sim.process(parent(out))
        sim.run()
        assert out == ["result"]

    def test_yield_from_subgenerator(self, sim):
        def inner():
            yield sim.timeout(2.0)
            return 7

        def outer(out):
            value = yield from inner()
            out.append((sim.now, value))

        out = []
        sim.process(outer(out))
        sim.run()
        assert out == [(2.0, 7)]

    def test_failed_event_raises_inside_process(self, sim):
        caught = []

        def proc(ev):
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        ev = sim.event()
        sim.process(proc(ev))
        ev.fail(RuntimeError("io error"))
        sim.run()
        assert caught == ["io error"]

    def test_yielding_non_event_raises(self, sim):
        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(SimulationError, match="not an Event"):
            sim.run()

    def test_yielding_foreign_event_raises(self, sim):
        other = Simulator()

        def proc():
            yield other.event()

        sim.process(proc())
        with pytest.raises(SimulationError, match="another Simulator"):
            sim.run()

    def test_process_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_waiting_on_already_processed_event(self, sim):
        """A process that yields an event which already fired resumes at once."""
        ev = sim.timeout(1.0, value="early")
        got = []

        def late():
            yield sim.timeout(5.0)
            value = yield ev
            got.append((sim.now, value))

        sim.process(late())
        sim.run()
        assert got == [(5.0, "early")]

    def test_deadlock_detection(self, sim):
        def proc():
            yield sim.event()  # nobody will ever trigger this

        sim.process(proc())
        with pytest.raises(DeadlockError):
            sim.run()


class TestConditions:
    def test_all_of_waits_for_every_event(self, sim):
        done = []

        def proc():
            yield sim.all_of([sim.timeout(1.0), sim.timeout(3.0), sim.timeout(2.0)])
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [3.0]

    def test_any_of_fires_on_first(self, sim):
        done = []

        def proc():
            yield sim.any_of([sim.timeout(5.0), sim.timeout(1.0)])
            done.append(sim.now)

        sim.process(proc())
        sim.run(until=10.0)
        assert done == [1.0]

    def test_all_of_empty_fires_immediately(self, sim):
        cond = sim.all_of([])
        assert cond.triggered

    def test_all_of_collects_values(self, sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(2.0, value="b")
        results = []

        def proc():
            values = yield sim.all_of([t1, t2])
            results.append(sorted(values.values()))

        sim.process(proc())
        sim.run()
        assert results == [["a", "b"]]

    def test_mixed_simulator_condition_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.all_of([sim.timeout(1.0), other.timeout(1.0)])


class TestRunControl:
    def test_run_until_stops_at_time(self, sim):
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.run(until=20.0)
        assert sim.now == 20.0

    def test_run_until_past_raises(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=0.5)

    def test_run_until_nan_raises(self, sim):
        """``run(until=nan)`` would run every event, then leave now at NaN."""
        fired = []
        sim.timeout(3.0).callbacks.append(lambda _ev: fired.append(sim.now))
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert (fired, sim.now, sim.queue_depth) == ([], 0.0, 1)
        sim.run()
        assert (fired, sim.now) == ([3.0], 3.0)

    def test_run_until_inf_raises(self, sim):
        """``run(until=inf)`` would move now to inf once the queue drained."""
        sim.timeout(1.0)
        with pytest.raises(SimulationError):
            sim.run(until=float("inf"))
        assert (sim.now, sim.queue_depth) == (0.0, 1)
        sim.run()
        sim.timeout(2.0)
        assert sim.peek() == 3.0

    def test_step_on_empty_queue_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == 3.0

    def test_clock_never_goes_backwards(self, sim):
        times = []

        def proc(delay):
            yield sim.timeout(delay)
            times.append(sim.now)

        for d in (5.0, 1.0, 3.0, 1.0, 0.0):
            sim.process(proc(d))
        sim.run()
        assert times == sorted(times)


class TestClockMonotonicityProperty:
    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=30))
    def test_arbitrary_delays_fire_in_order(self, delays):
        sim = Simulator()
        fired = []

        def proc(d):
            yield sim.timeout(d)
            fired.append(sim.now)

        for d in delays:
            sim.process(proc(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
        assert sim.now == max(delays)
