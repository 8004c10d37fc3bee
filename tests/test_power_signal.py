"""Tests for :mod:`repro.power.signal`."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MeterError
from repro.power.signal import PowerSignal, _sorted_unique

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


class TestRecording:
    def test_initial_value(self):
        s = PowerSignal(100.0)
        assert s.value_at(0.0) == 100.0
        assert s.value_at(1e9) == 100.0  # holds forever

    def test_set_creates_breakpoint(self):
        s = PowerSignal(100.0)
        s.set(10.0, 250.0)
        assert s.value_at(9.999) == 100.0
        assert s.value_at(10.0) == 250.0  # right-continuous

    def test_set_same_value_is_noop(self):
        s = PowerSignal(100.0)
        s.set(10.0, 100.0)
        assert len(s.breakpoints) == 1

    def test_set_in_past_rejected(self):
        s = PowerSignal(100.0)
        s.set(10.0, 250.0)
        with pytest.raises(MeterError):
            s.set(5.0, 300.0)

    def test_overwrite_at_same_time(self):
        s = PowerSignal(100.0)
        s.set(10.0, 250.0)
        s.set(10.0, 300.0)
        assert s.value_at(10.0) == 300.0
        assert len(s.breakpoints) == 2

    def test_overwrite_collapses_redundant_segment(self):
        s = PowerSignal(100.0)
        s.set(10.0, 250.0)
        s.set(10.0, 100.0)  # back to the previous value
        assert len(s.breakpoints) == 1

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerSignal(-1.0)
        s = PowerSignal(0.0)
        with pytest.raises(ConfigurationError):
            s.set(1.0, -5.0)

    def test_nan_initial_power_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerSignal(float("nan"))

    def test_infinite_initial_power_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerSignal(float("inf"))

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_start_time_rejected(self, start):
        """Rejected where it is given, not at a later set()."""
        with pytest.raises(ConfigurationError):
            PowerSignal(10.0, start_time=start)

    def test_nan_power_rejected(self):
        """A NaN draw would make every integral over it NaN."""
        s = PowerSignal(10.0)
        with pytest.raises(ConfigurationError):
            s.set(5.0, float("nan"))
        assert s.breakpoints == [(0.0, 10.0)]
        assert s.integrate(0.0, 10.0) == 100.0

    def test_infinite_power_rejected(self):
        """An infinite draw would make every integral over it inf."""
        s = PowerSignal(10.0)
        with pytest.raises(ConfigurationError):
            s.set(1.0, float("inf"))
        assert s.breakpoints == [(0.0, 10.0)]
        assert s.integrate(0.0, 2.0) == 20.0

    def test_nan_time_rejected(self):
        """A NaN time would let the next update go back in time."""
        s = PowerSignal(10.0)
        s.set(4.0, 15.0)
        with pytest.raises(MeterError):
            s.set(float("nan"), 20.0)
        with pytest.raises(MeterError):
            s.set(3.0, 30.0)
        assert s.breakpoints == [(0.0, 10.0), (4.0, 15.0)]

    def test_query_before_start_rejected(self):
        s = PowerSignal(100.0, start_time=50.0)
        with pytest.raises(MeterError):
            s.value_at(49.0)


class TestIntegration:
    def test_constant_signal_energy(self):
        s = PowerSignal(100.0)
        assert s.integrate(0.0, 60.0) == pytest.approx(6_000.0)

    def test_step_signal_energy(self):
        s = PowerSignal(100.0)
        s.set(10.0, 200.0)
        # 10 s at 100 W + 20 s at 200 W
        assert s.integrate(0.0, 30.0) == pytest.approx(1_000 + 4_000)

    def test_window_clipping(self):
        s = PowerSignal(100.0)
        s.set(10.0, 200.0)
        assert s.integrate(5.0, 15.0) == pytest.approx(500 + 1_000)

    def test_empty_window(self):
        s = PowerSignal(100.0)
        assert s.integrate(5.0, 5.0) == 0.0

    def test_reversed_window_rejected(self):
        s = PowerSignal(100.0)
        with pytest.raises(MeterError):
            s.integrate(10.0, 5.0)

    def test_window_before_start_rejected(self):
        s = PowerSignal(100.0, start_time=10.0)
        with pytest.raises(MeterError):
            s.integrate(0.0, 5.0)

    def test_mean(self):
        s = PowerSignal(100.0)
        s.set(10.0, 300.0)
        assert s.mean(0.0, 20.0) == pytest.approx(200.0)

    def test_mean_degenerate_window(self):
        s = PowerSignal(100.0)
        with pytest.raises(MeterError):
            s.mean(5.0, 5.0)

    def test_max_over(self):
        s = PowerSignal(100.0)
        s.set(10.0, 300.0)
        s.set(20.0, 50.0)
        assert s.max_over(0.0, 30.0) == 300.0
        assert s.max_over(20.0, 30.0) == 50.0

    @settings(deadline=None, max_examples=40)
    @given(
        changes=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            ),
            min_size=0,
            max_size=20,
        ),
        initial=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    )
    def test_integral_additivity(self, changes, initial):
        """∫[a,c] = ∫[a,b] + ∫[b,c] for any split point."""
        s = PowerSignal(initial)
        t = 0.0
        for dt, watts in changes:
            t += dt
            s.set(t, watts)
        end = t + 10.0
        mid = end / 3.0
        total = s.integrate(0.0, end)
        split = s.integrate(0.0, mid) + s.integrate(mid, end)
        assert total == pytest.approx(split, rel=1e-9, abs=1e-6)
        assert total >= 0.0


class TestTotal:
    def test_sum_of_constants(self):
        a = PowerSignal(100.0)
        b = PowerSignal(50.0)
        total = PowerSignal.total([a, b])
        assert total.value_at(0.0) == 150.0

    def test_sum_tracks_changes_in_either(self):
        a = PowerSignal(100.0)
        b = PowerSignal(50.0)
        a.set(5.0, 200.0)
        b.set(7.0, 100.0)
        total = PowerSignal.total([a, b])
        assert total.value_at(4.0) == 150.0
        assert total.value_at(5.0) == 250.0
        assert total.value_at(7.0) == 300.0

    def test_sum_energy_equals_energy_sum(self):
        a = PowerSignal(100.0)
        b = PowerSignal(50.0)
        a.set(3.0, 120.0)
        b.set(4.0, 80.0)
        total = PowerSignal.total([a, b])
        assert total.integrate(0.0, 10.0) == pytest.approx(
            a.integrate(0.0, 10.0) + b.integrate(0.0, 10.0)
        )

    def test_total_starts_at_latest_start(self):
        a = PowerSignal(100.0, start_time=0.0)
        b = PowerSignal(50.0, start_time=5.0)
        total = PowerSignal.total([a, b])
        assert total.start_time == 5.0

    def test_total_of_nothing_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerSignal.total([])


class TestMergedGrid:
    """``total`` merges breakpoints as ``np.unique`` would, without it."""

    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(
            st.lists(
                st.sampled_from([0.0, 0.5, 1.0, 60.0, 1e6 / 3, 2.0**-30])
                | st.floats(min_value=0.0, max_value=1e7),
                max_size=30,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_merged_grid_is_np_unique(self, breakpoint_sets):
        values = np.concatenate([np.array(b, dtype=float) for b in breakpoint_sets])
        expected = np.unique(values)
        assert _sorted_unique(values.copy()).tobytes() == expected.tobytes()

    def test_characterize_never_imports_numpy_ma(self, tmp_path):
        probe = (
            "import sys\n"
            "from repro.cli import main\n"
            "code = main(['characterize', '--intervals', '72'])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=300, cwd=str(tmp_path), env=env,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        assert out.stdout.split()[-2:] == ["0", "False"]


class TestSamples:
    def test_vectorized_matches_scalar(self):
        s = PowerSignal(10.0)
        s.set(1.0, 20.0)
        s.set(2.5, 5.0)
        times = np.array([0.0, 0.5, 1.0, 2.0, 2.5, 4.0])
        np.testing.assert_allclose(s.samples(times), [s.value_at(t) for t in times])

    def test_samples_before_start_rejected(self):
        s = PowerSignal(10.0, start_time=1.0)
        with pytest.raises(MeterError):
            s.samples([0.0])
