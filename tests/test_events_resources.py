"""Tests for resources: Resource, Store and the fair-share BandwidthPipe."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ResourceError
from repro.events.engine import Simulator
from repro.events.resources import BandwidthPipe, Resource, Store


class TestResource:
    def test_grant_within_capacity_is_immediate(self, sim):
        res = Resource(sim, capacity=2)
        r1, r2 = res.request(), res.request()
        assert r1.triggered and r2.triggered
        assert res.in_use == 2

    def test_queueing_beyond_capacity(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        assert r1.triggered and not r2.triggered
        assert res.queue_length == 1
        res.release(r1)
        assert r2.triggered
        assert res.queue_length == 0

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        first = res.request()
        waiters = [res.request() for _ in range(3)]
        res.release(first)
        assert waiters[0].triggered and not waiters[1].triggered
        res.release(waiters[0])
        assert waiters[1].triggered

    def test_release_without_grant_raises(self, sim):
        res = Resource(sim, capacity=1)
        res.request()
        stranger = sim.event()
        with pytest.raises(ResourceError):
            res.release(stranger)

    def test_double_release_raises(self, sim):
        res = Resource(sim, capacity=1)
        r = res.request()
        res.release(r)
        with pytest.raises(ResourceError):
            res.release(r)

    def test_releasing_queued_request_cancels_it(self, sim):
        """try/finally release is interrupt-safe: a never-granted request is
        removed from the wait queue instead of corrupting the grant count."""
        res = Resource(sim, capacity=1)
        holder = res.request()
        queued = res.request()
        later = res.request()
        res.release(queued)  # cancelled, not an error
        assert res.queue_length == 1
        res.release(holder)
        assert later.triggered  # the cancelled request was skipped
        assert not queued.triggered
        assert res.in_use == 1

    def test_cancelled_request_cannot_be_released_twice(self, sim):
        res = Resource(sim, capacity=1)
        res.request()
        queued = res.request()
        res.release(queued)
        with pytest.raises(ResourceError):
            res.release(queued)

    def test_zero_capacity_rejected(self, sim):
        with pytest.raises(ResourceError):
            Resource(sim, capacity=0)

    def test_mutual_exclusion_under_processes(self, sim):
        res = Resource(sim, capacity=1)
        concurrency = {"current": 0, "max": 0}

        def worker():
            req = res.request()
            yield req
            concurrency["current"] += 1
            concurrency["max"] = max(concurrency["max"], concurrency["current"])
            yield sim.timeout(1.0)
            concurrency["current"] -= 1
            res.release(req)

        for _ in range(5):
            sim.process(worker())
        sim.run()
        assert concurrency["max"] == 1
        assert sim.now == 5.0


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        ev = store.get()
        assert ev.triggered and ev.value == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(3.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(3.0, "late")]

    def test_fifo_order(self, sim):
        store = Store(sim)
        for i in range(3):
            store.put(i)
        values = [store.get().value for _ in range(3)]
        assert values == [0, 1, 2]

    def test_len(self, sim):
        store = Store(sim)
        assert len(store) == 0
        store.put(1)
        assert len(store) == 1


class TestBandwidthPipe:
    def test_single_transfer_exact_time(self, sim):
        pipe = BandwidthPipe(sim, capacity=100.0)
        t = pipe.transfer(1_000.0)
        sim.run()
        assert t.triggered
        assert sim.now == pytest.approx(10.0)

    def test_zero_byte_transfer_completes_immediately(self, sim):
        pipe = BandwidthPipe(sim, capacity=100.0)
        t = pipe.transfer(0.0)
        assert t.triggered
        assert sim.now == 0.0

    def test_two_equal_transfers_share_fairly(self, sim):
        pipe = BandwidthPipe(sim, capacity=100.0)
        pipe.transfer(1_000.0)
        pipe.transfer(1_000.0)
        sim.run()
        # Each gets 50 B/s: both finish at t=20 instead of 10.
        assert sim.now == pytest.approx(20.0)

    def test_staggered_transfers(self, sim):
        """A transfer arriving mid-flight slows the first one down."""
        pipe = BandwidthPipe(sim, capacity=100.0)
        done = {}

        def first():
            t = pipe.transfer(1_000.0)
            yield t
            done["first"] = sim.now

        def second():
            yield sim.timeout(5.0)
            t = pipe.transfer(250.0)
            yield t
            done["second"] = sim.now

        sim.process(first())
        sim.process(second())
        sim.run()
        # First runs alone 0-5 (500 B moved), then shares 50/50.
        # Second finishes at 5 + 250/50 = 10; first then has 250 B left at
        # full rate: 10 + 2.5 = 12.5.
        assert done["second"] == pytest.approx(10.0)
        assert done["first"] == pytest.approx(12.5)

    def test_per_transfer_cap(self, sim):
        pipe = BandwidthPipe(sim, capacity=100.0)
        pipe.transfer(1_000.0, cap=10.0)
        sim.run()
        assert sim.now == pytest.approx(100.0)

    def test_cap_leftover_goes_to_uncapped(self, sim):
        pipe = BandwidthPipe(sim, capacity=100.0)
        done = {}

        def go(tag, size, cap):
            t = pipe.transfer(size, cap=cap)
            yield t
            done[tag] = sim.now

        sim.process(go("capped", 100.0, 10.0))
        sim.process(go("free", 900.0, None))
        sim.run()
        # Capped gets 10 B/s, free gets the remaining 90 B/s: both take 10 s.
        assert done["capped"] == pytest.approx(10.0)
        assert done["free"] == pytest.approx(10.0)

    def test_all_capped_under_capacity(self, sim):
        pipe = BandwidthPipe(sim, capacity=1_000.0)
        pipe.transfer(100.0, cap=10.0)
        pipe.transfer(100.0, cap=10.0)
        sim.run()
        assert sim.now == pytest.approx(10.0)

    def test_negative_size_rejected(self, sim):
        pipe = BandwidthPipe(sim, capacity=100.0)
        with pytest.raises(ResourceError):
            pipe.transfer(-1.0)

    def test_nonpositive_cap_rejected(self, sim):
        pipe = BandwidthPipe(sim, capacity=100.0)
        with pytest.raises(ResourceError):
            pipe.transfer(10.0, cap=0.0)

    def test_nonpositive_capacity_rejected(self, sim):
        with pytest.raises(ResourceError):
            BandwidthPipe(sim, capacity=0.0)

    def test_bytes_moved_conservation(self, sim):
        pipe = BandwidthPipe(sim, capacity=123.0)
        sizes = [10.0, 500.0, 37.5, 1_000.0]
        for s in sizes:
            pipe.transfer(s)
        sim.run()
        assert pipe.bytes_moved == pytest.approx(sum(sizes), rel=1e-9)
        assert pipe.active_transfers == 0
        assert pipe.current_rate == 0.0

    def test_rate_change_callback_sees_aggregate(self, sim):
        rates = []
        pipe = BandwidthPipe(sim, capacity=100.0, on_rate_change=lambda t, r: rates.append((t, r)))
        pipe.transfer(100.0)
        pipe.transfer(100.0)
        sim.run()
        assert rates[0] == (0.0, 100.0)
        assert rates[-1][1] == 0.0
        assert all(r <= 100.0 + 1e-9 for _, r in rates)

    def test_late_start_no_livelock_at_large_times(self, sim):
        """Regression: transfers starting at large clock values must finish.

        With a fixed byte-epsilon, float granularity at t≈3e6 s left residual
        bytes that re-armed zero-length wake-ups forever.
        """
        done = []

        def proc():
            yield sim.timeout(2.6e6)
            for _ in range(5):
                tr = pipe.transfer(786_432.0)  # one 0.78 MB image
                yield tr
            done.append(sim.now)

        pipe = BandwidthPipe(sim, capacity=160e6)
        sim.process(proc())
        sim.run()
        assert done and done[0] > 2.6e6

    def test_current_rate_is_the_sum_of_active_rates(self, sim):
        """The pipe keeps ``sum()`` of its transfers' rates, in value and
        type, through starts, completions, a cancel and a capacity change."""
        pipe = BandwidthPipe(sim, capacity=100.0)

        def check(*_):
            total = sum(t.rate for t in pipe._active)
            assert (pipe.current_rate, type(pipe.current_rate)) == (total, type(total))

        pipe.on_rate_change = check
        check()

        def load():
            pipe.transfer(300.0)
            yield sim.timeout(1.0)
            pipe.transfer(50.0, cap=7.5)
            victim = pipe.transfer(400.0, cap=33.3)
            yield sim.timeout(0.7)
            pipe.transfer(123.4)
            yield sim.timeout(0.9)
            assert pipe.cancel(victim) > 0.0
            yield sim.timeout(1.3)
            pipe.set_capacity(41.7)

        sim.process(load())
        while sim.peek_event() is not None:
            sim.step()
            check()
        assert pipe.active_transfers == 0
        assert type(pipe.current_rate) is int

    def test_aggregate_rate_never_exceeds_capacity(self, sim):
        pipe = BandwidthPipe(sim, capacity=50.0)
        for size in (100.0, 200.0, 50.0):
            pipe.transfer(size)
        assert pipe.current_rate <= 50.0 + 1e-9
        sim.run()
        assert sim.now == pytest.approx(350.0 / 50.0)


class TestBandwidthPipeProperties:
    @settings(deadline=None, max_examples=40)
    @given(
        sizes=st.lists(
            st.floats(min_value=1.0, max_value=1e7, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        capacity=st.floats(min_value=1.0, max_value=1e8, allow_nan=False),
        start=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    )
    def test_conservation_and_lower_bound(self, sizes, capacity, start):
        """All bytes arrive; the pipe is never faster than capacity allows."""
        sim = Simulator()
        pipe = BandwidthPipe(sim, capacity=capacity)

        def proc():
            yield sim.timeout(start)
            events = [pipe.transfer(s) for s in sizes]
            yield sim.all_of(events)

        sim.process(proc())
        sim.run()
        elapsed = sim.now - start
        lower_bound = sum(sizes) / capacity
        # Allow for float-clock quantization at large absolute times.
        slack = 8 * math.ulp(max(sim.now, 1.0))
        assert elapsed >= lower_bound * (1 - 1e-6) - slack
        assert pipe.bytes_moved == pytest.approx(sum(sizes), rel=1e-6)

    @settings(deadline=None, max_examples=30)
    @given(
        n=st.integers(min_value=1, max_value=6),
        size=st.floats(min_value=10.0, max_value=1e6, allow_nan=False),
    )
    def test_equal_transfers_finish_together(self, n, size):
        """n identical transfers under fair sharing finish simultaneously."""
        sim = Simulator()
        pipe = BandwidthPipe(sim, capacity=1_000.0)
        finish = []

        def proc(t):
            yield t
            finish.append(sim.now)

        for _ in range(n):
            sim.process(proc(pipe.transfer(size)))
        sim.run()
        assert len(finish) == n
        assert max(finish) - min(finish) <= 1e-6 * max(finish + [1.0])
        assert max(finish) == pytest.approx(n * size / 1_000.0, rel=1e-6)
