"""Tests for :mod:`repro.power.trace` and :mod:`repro.power.meter`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MeterError
from repro.power.meter import CageMonitor, MeteredPDU, PowerMeter
from repro.power.report import PowerReport
from repro.power.signal import PowerSignal
from repro.power.trace import PowerTrace
from repro.units import MINUTE


class TestPowerTrace:
    def test_energy_is_dt_times_sum(self):
        tr = PowerTrace(0.0, 60.0, [100.0, 200.0, 300.0])
        assert tr.energy() == pytest.approx(60 * 600)

    def test_average_power(self):
        tr = PowerTrace(0.0, 60.0, [100.0, 200.0])
        assert tr.average_power() == 150.0

    def test_peak_power(self):
        tr = PowerTrace(0.0, 60.0, [100.0, 250.0, 50.0])
        assert tr.peak_power() == 250.0

    def test_times_are_midpoints(self):
        tr = PowerTrace(10.0, 60.0, [1.0, 2.0])
        np.testing.assert_allclose(tr.times, [40.0, 100.0])

    def test_negative_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerTrace(0.0, 60.0, [100.0, -1.0])

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerTrace(0.0, 0.0, [100.0])

    def test_2d_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerTrace(0.0, 1.0, np.zeros((2, 2)))

    def test_empty_trace_stats_raise(self):
        tr = PowerTrace(0.0, 60.0, [])
        with pytest.raises(MeterError):
            tr.average_power()
        with pytest.raises(MeterError):
            tr.peak_power()

    def test_from_signal_averages_exactly(self):
        s = PowerSignal(100.0)
        s.set(30.0, 200.0)  # half the first minute at 100, half at 200
        tr = PowerTrace.from_signal(s, 0.0, 120.0, MINUTE)
        np.testing.assert_allclose(tr.watts, [150.0, 200.0])

    def test_from_signal_partial_final_window(self):
        s = PowerSignal(100.0)
        tr = PowerTrace.from_signal(s, 0.0, 90.0, MINUTE)
        assert tr.n_samples == 2
        np.testing.assert_allclose(tr.watts, [100.0, 100.0])

    def test_from_signal_conserves_energy(self):
        s = PowerSignal(120.0)
        s.set(45.0, 310.0)
        s.set(100.0, 80.0)
        tr = PowerTrace.from_signal(s, 0.0, 180.0, MINUTE)
        assert tr.energy() == pytest.approx(s.integrate(0.0, 180.0))

    def test_from_signal_empty_window_rejected(self):
        with pytest.raises(MeterError):
            PowerTrace.from_signal(PowerSignal(1.0), 5.0, 5.0, MINUTE)

    @pytest.mark.parametrize(
        "t0, t1", [(float("nan"), 600.0), (0.0, float("nan")), (0.0, float("inf")),
                   (float("-inf"), 600.0)],
    )
    def test_from_signal_non_finite_window_rejected(self, t0, t1):
        with pytest.raises(MeterError, match="non-finite sampling window"):
            PowerTrace.from_signal(PowerSignal(100.0), t0, t1, 60.0)

    @pytest.mark.parametrize("dt", [float("nan"), 0.0, -60.0, float("inf")])
    def test_from_signal_bad_interval_rejected(self, dt):
        with pytest.raises(MeterError, match="sampling interval must be finite and > 0 s"):
            PowerTrace.from_signal(PowerSignal(100.0), 0.0, 600.0, dt)

    def test_window_before_the_signal_rejected(self):
        with pytest.raises(MeterError):
            PowerTrace.from_signal(PowerSignal(1.0, start_time=10.0), 5.0, 200.0, MINUTE)

    @settings(deadline=None, max_examples=60)
    @given(
        start=st.floats(min_value=0.0, max_value=1e6),
        steps=st.lists(
            st.tuples(st.floats(min_value=1e-3, max_value=500.0),
                      st.floats(min_value=0.0, max_value=5e4)),
            max_size=40,
        ),
        offset=st.floats(min_value=0.0, max_value=300.0),
        dt=st.floats(min_value=1.0, max_value=120.0),
        n_full=st.integers(min_value=0, max_value=60),
        tail=st.floats(min_value=0.1, max_value=1.0),
    )
    # Full final windows at large starts: np.arange's rounded step leaves
    # them an ulp (the first) to ~30 ulps (the second, 61 windows) wider
    # than dt.
    @example(start=261725.0, steps=[], offset=300.0, dt=119.1, n_full=2, tail=1.0)
    @example(
        start=47022.99788850483, steps=[], offset=71.47416802317106,
        dt=113.5648578291038, n_full=60, tail=1.0,
    )
    def test_from_signal_equals_the_mean_of_each_window(
        self, start, steps, offset, dt, n_full, tail
    ):
        signal = PowerSignal(100.0, start_time=start)
        t = start
        for gap, watts in steps:
            t += gap
            signal.set(t, watts)
        t0 = start + offset
        t1 = t0 + dt * (n_full + tail)
        edges = np.append(np.arange(t0, t1, dt), t1)
        windows = list(zip(edges[:-1], edges[1:]))
        assume(all(b > a for a, b in windows))
        expected = [float(signal.mean(a, b)).hex() for a, b in windows]
        trace = PowerTrace.from_signal(signal, t0, t1, dt)
        assert [w.hex() for w in trace.watts.tolist()] == expected

    def test_add_aligned_traces(self):
        a = PowerTrace(0.0, 60.0, [100.0, 200.0], name="compute")
        b = PowerTrace(0.0, 60.0, [10.0], name="storage")
        c = a + b
        np.testing.assert_allclose(c.watts, [110.0, 200.0])  # b zero-extended

    def test_add_misaligned_rejected(self):
        a = PowerTrace(0.0, 60.0, [100.0])
        b = PowerTrace(30.0, 60.0, [100.0])
        with pytest.raises(MeterError):
            a + b
        c = PowerTrace(0.0, 30.0, [100.0])
        with pytest.raises(MeterError):
            a + c

    def test_aligned_sum(self):
        traces = [PowerTrace(0.0, 60.0, [i, i]) for i in range(1, 4)]
        total = PowerTrace.aligned_sum(traces)
        np.testing.assert_allclose(total.watts, [6.0, 6.0])

    def test_aligned_sum_empty_rejected(self):
        with pytest.raises(MeterError):
            PowerTrace.aligned_sum([])

    def test_shifted(self):
        tr = PowerTrace(0.0, 60.0, [1.0]).shifted(30.0)
        assert tr.start == 30.0

    def test_resample_conserves_energy(self):
        tr = PowerTrace(0.0, 60.0, [100.0, 200.0, 150.0, 300.0])
        for dt in (30.0, 60.0, 120.0, 240.0):
            assert tr.resample(dt).energy() == pytest.approx(tr.energy(), rel=1e-9)

    def test_resample_non_tiling_dt_keeps_energy_via_partial_tail(self):
        tr = PowerTrace(0.0, 60.0, [100.0, 200.0, 150.0, 300.0])
        res = tr.resample(95.0)
        assert res.final_dt == pytest.approx(240.0 - 190.0)
        assert res.energy() == pytest.approx(tr.energy(), rel=1e-9)
        assert res.duration == pytest.approx(tr.duration)

    def test_resample_longer_than_duration_rejected(self):
        tr = PowerTrace(0.0, 60.0, [100.0])
        with pytest.raises(ConfigurationError):
            tr.resample(120.0)

    def test_partial_final_interval_energy_exact(self):
        """A trace ending mid-minute integrates exactly (final_dt)."""
        s = PowerSignal(100.0)
        s.set(70.0, 300.0)
        tr = PowerTrace.from_signal(s, 0.0, 90.0, 60.0)
        assert tr.final_dt == pytest.approx(30.0)
        assert tr.duration == pytest.approx(90.0)
        assert tr.energy() == pytest.approx(s.integrate(0.0, 90.0))
        assert tr.average_power() == pytest.approx(s.mean(0.0, 90.0))

    def test_invalid_final_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerTrace(0.0, 60.0, [1.0, 2.0], final_dt=0.0)
        with pytest.raises(ConfigurationError):
            PowerTrace(0.0, 60.0, [1.0, 2.0], final_dt=61.0)
        with pytest.raises(ConfigurationError):  # wider than rounding explains
            PowerTrace(0.0, 60.0, [1.0, 2.0], final_dt=60.0 + 1e-6)

    def test_resample_coarse_average(self):
        tr = PowerTrace(0.0, 60.0, [100.0, 200.0])
        coarse = tr.resample(120.0)
        np.testing.assert_allclose(coarse.watts, [150.0])

    @settings(deadline=None, max_examples=30)
    @given(
        watts=st.lists(st.floats(min_value=0, max_value=1e5, allow_nan=False), min_size=1, max_size=24),
        factor=st.integers(min_value=1, max_value=5),
    )
    def test_resample_energy_invariant_property(self, watts, factor):
        assume(len(watts) % factor == 0)  # dt must tile the duration
        tr = PowerTrace(0.0, 60.0, watts)
        res = tr.resample(60.0 * factor)
        assert res.energy() == pytest.approx(tr.energy(), rel=1e-9, abs=1e-6)


class TestMeters:
    def test_meter_reads_attached_signals(self):
        meter = PowerMeter("m")
        meter.attach(PowerSignal(100.0))
        meter.attach(PowerSignal(50.0))
        tr = meter.read(0.0, 120.0)
        np.testing.assert_allclose(tr.watts, [150.0, 150.0])

    def test_meter_without_signals_raises(self):
        with pytest.raises(MeterError):
            PowerMeter("m").read(0.0, 60.0)
        with pytest.raises(MeterError):
            PowerMeter("m").instantaneous(0.0)

    def test_instantaneous(self):
        meter = PowerMeter("m")
        s = PowerSignal(100.0)
        s.set(10.0, 300.0)
        meter.attach(s)
        assert meter.instantaneous(5.0) == 100.0
        assert meter.instantaneous(15.0) == 300.0

    def test_loss_factor_scales_readings(self):
        meter = PowerMeter("m", loss_factor=1.1)
        meter.attach(PowerSignal(100.0))
        tr = meter.read(0.0, 60.0)
        assert tr.average_power() == pytest.approx(110.0)

    def test_loss_factor_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerMeter("m", loss_factor=0.9)

    def test_one_minute_default_interval(self):
        meter = MeteredPDU()
        assert meter.interval == 60.0

    def test_cage_monitor_capacity(self):
        cage = CageMonitor(0)
        for _ in range(CageMonitor.NODES_PER_CAGE):
            cage.attach(PowerSignal(100.0))
        with pytest.raises(ConfigurationError):
            cage.attach(PowerSignal(100.0))

    def test_cage_monitor_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            CageMonitor(-1)

    def test_meter_averaging_hides_short_spikes(self):
        """The 1/min instrument smooths sub-minute features (Fig. 4 caveat)."""
        s = PowerSignal(100.0)
        s.set(10.0, 1_000.0)
        s.set(11.0, 100.0)  # a 1-second spike
        meter = PowerMeter("m")
        meter.attach(s)
        tr = meter.read(0.0, 60.0)
        assert tr.peak_power() == pytest.approx(115.0)  # spike diluted 60x


class TestPowerReport:
    def _report(self) -> PowerReport:
        compute = PowerTrace(0.0, 60.0, [40_000.0, 44_000.0], name="compute")
        storage = PowerTrace(0.0, 60.0, [2_273.0, 2_280.0], name="storage")
        return PowerReport(compute=compute, storage=storage, label="test",
                           budget_watts=46_302.0)

    def test_totals(self):
        r = self._report()
        assert r.average_power == pytest.approx((42_000.0 + 2_276.5))
        assert r.energy == pytest.approx(r.compute_energy + r.storage_energy)
        assert r.duration == 120.0

    def test_component_breakdown(self):
        r = self._report()
        assert r.average_compute_power == pytest.approx(42_000.0)
        assert r.average_storage_power == pytest.approx(2_276.5)

    def test_utilization_and_trapped_capacity(self):
        r = self._report()
        assert r.power_utilization() + r.trapped_capacity() == pytest.approx(1.0)
        assert 0.9 < r.power_utilization() < 1.0

    def test_utilization_requires_budget(self):
        r = PowerReport(
            compute=PowerTrace(0.0, 60.0, [1.0]),
            storage=PowerTrace(0.0, 60.0, [1.0]),
        )
        with pytest.raises(MeterError):
            r.power_utilization()

    def test_summary_renders(self):
        text = self._report().summary()
        assert "avg power total" in text
        assert "trapped" in text
