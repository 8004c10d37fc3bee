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
from repro.power.trace import PowerTrace

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


_NAN, _INF = float("nan"), float("inf")


class TestNonFiniteWindowsRejected:
    """A NaN or infinite window edge raises, instead of reading NaN or inf."""

    @pytest.mark.parametrize("t0, t1", [(0.0, _NAN), (_NAN, 1.0), (0.0, _INF)])
    def test_integrate(self, t0, t1):
        with pytest.raises(MeterError, match="non-finite integration window"):
            PowerSignal(10.0).integrate(t0, t1)

    def test_mean(self):
        with pytest.raises(MeterError, match="non-finite averaging window"):
            PowerSignal(10.0).mean(0.0, _INF)

    @pytest.mark.parametrize("edges", [[_NAN, 1.0], [0.0, _NAN], [0.0, 1.0, _INF]])
    def test_means(self, edges):
        with pytest.raises(MeterError, match="non-finite averaging window"):
            PowerSignal(10.0).means(edges)

    @pytest.mark.parametrize("t0, t1", [(0.0, _NAN), (_NAN, 1.0), (-_INF, 1.0), (0.0, _INF)])
    def test_max_over(self, t0, t1):
        with pytest.raises(MeterError, match="non-finite window"):
            PowerSignal(10.0).max_over(t0, t1)


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


# --------------------------------------------------------------- the oracle
#
# The meter read as it was before ``total`` compared its sums at once and
# ``means`` reused its buffers: one ``set()`` per merged breakpoint, and one
# fresh clip, product and pairwise sum per window.  The shortcuts must give
# the same breakpoints and the same bits.


def _reference_total(signals, name="total"):
    signals = list(signals)
    if not signals:
        raise ConfigurationError("total() of zero signals")
    distinct = list({id(s): s for s in signals}.values())
    start = max(s.start_time for s in distinct)
    merged = _sorted_unique(
        np.concatenate(
            [np.asarray(s._times)[np.asarray(s._times) >= start] for s in distinct]
            + [np.array([start])]
        )
    )
    samples = {id(s): s.samples(merged) for s in distinct}
    total_watts = np.zeros(merged.size)
    for s in signals:
        total_watts += samples[id(s)]
    out = PowerSignal(float(total_watts[0]), start_time=float(merged[0]), name=name)
    for t, w in zip(merged[1:], total_watts[1:]):
        out.set(float(t), float(w))
    return out


def _reference_integral(times, watts, t0, t1):
    if t1 < t0:
        raise MeterError(f"reversed integration window [{t0}, {t1}]")
    if t0 < times[0]:
        raise MeterError(f"window starts at {t0}, before signal start {times[0]}")
    if t1 == t0:
        return 0.0
    edges = np.append(times, max(t1, times[-1]))
    lo = np.clip(edges[:-1], t0, t1)
    hi = np.clip(edges[1:], t0, t1)
    return float(np.sum((hi - lo) * watts))


def _reference_means(signal, edges):
    times = np.asarray(signal._times)
    watts = np.asarray(signal._watts)
    out = []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        if t1 <= t0:
            raise MeterError(f"degenerate averaging window [{t0}, {t1}]")
        out.append(_reference_integral(times, watts, t0, t1) / (t1 - t0))
    return out


def _outcome(fn, *args):
    """What ``fn(*args)`` gives: its value, or its error's type and text."""
    try:
        return "ok", fn(*args)
    except (ConfigurationError, MeterError) as exc:
        return type(exc).__name__, str(exc)


def _same_signal(got, want):
    assert got._times == want._times
    assert got._watts == want._watts
    assert all(type(v) is float for v in got._times + got._watts)
    assert got.name == want.name


def _same_means(got, want):
    assert [type(v) for v in got] == [type(v) for v in want]
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


#: Draws that repeat: equal values and equal times must come up often.
_WATTS = st.sampled_from([0.0, 1.0, 100.0, 150.0, 2.0**-30]) | st.floats(
    min_value=0.0, max_value=1e6
)
_STEP = st.sampled_from([0.0, 0.5, 1.0, 60.0]) | st.floats(min_value=0.0, max_value=5e3)
_START = st.sampled_from([0.0, 0.0, 3.0, 59.5, 120.0])


@st.composite
def _signals(draw, watts=_WATTS, max_size=4):
    """Distinct signals with different starts, repeated and equal-valued
    breakpoints (a step of 0 overwrites, a repeated value is a no-op)."""
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_size))):
        t = draw(_START)
        signal = PowerSignal(draw(watts), start_time=t)
        for step, w in draw(st.lists(st.tuples(_STEP, watts), max_size=25)):
            t += step
            signal.set(t, w)
        out.append(signal)
    return out


@st.composite
def _listings(draw, watts=_WATTS):
    """Signals as a meter lists them: each may appear several times."""
    signals = draw(_signals(watts))
    picks = draw(st.lists(st.integers(0, len(signals) - 1), min_size=1, max_size=12))
    return [signals[i] for i in picks]


@st.composite
def _edges(draw, start):
    """Window edges from before the start to far past the last breakpoint;
    a width of 0 makes a degenerate window."""
    t = start + draw(st.sampled_from([-1.0, 0.0, 0.25]) | st.floats(0.0, 2e4))
    edges = [t]
    for width in draw(st.lists(st.sampled_from([0.0, 1.0, 60.0]) | st.floats(0.0, 4e4),
                               min_size=1, max_size=15)):
        t += width
        edges.append(t)
    return edges


class TestMeterReadOracle:
    """``total``, ``means``, ``integrate`` and ``PowerTrace.from_signal``
    equal the per-breakpoint ``set()`` and per-window reference exactly."""

    @settings(deadline=None, max_examples=150)
    @given(_listings())
    def test_total_keeps_the_breakpoints_set_kept(self, listing):
        _same_signal(PowerSignal.total(listing, name="cage"),
                     _reference_total(listing, name="cage"))

    @settings(deadline=None, max_examples=60)
    @given(_signals(max_size=2))
    def test_one_signal_listed_ten_times(self, signals):
        """A cage whose ten nodes all follow one node group's signal."""
        for listing in ([signals[0]] * 10, [signals[0]] * 9 + signals[-1:]):
            _same_signal(PowerSignal.total(listing), _reference_total(listing))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(deadline=None, max_examples=80)
    @given(_listings(watts=st.sampled_from([0.0, 1.0, 1e308, 1.7e308])))
    def test_a_sum_that_overflows_fails_alike(self, listing):
        got = _outcome(PowerSignal.total, listing)
        want = _outcome(_reference_total, listing)
        if want[0] == "ok":
            _same_signal(got[1], want[1])
        else:
            assert got == want

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_at_start_and_later(self):
        for late in (False, True):
            a, b = PowerSignal(1e308), PowerSignal(1.0 if late else 1e308)
            if late:
                b.set(5.0, 1e308)
            with pytest.raises(ConfigurationError, match="got inf"):
                PowerSignal.total([a, b])
            assert _outcome(PowerSignal.total, [a, b]) == _outcome(_reference_total, [a, b])

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_means_match_the_per_window_integral(self, data):
        signal = PowerSignal.total(data.draw(_listings()))
        edges = data.draw(_edges(signal.start_time))
        for as_given in (edges, np.asarray(edges)):
            got = _outcome(signal.means, as_given)
            want = _outcome(_reference_means, signal, as_given)
            assert got[0] == want[0]
            if got[0] == "ok":
                _same_means(got[1], want[1])
            else:
                assert got == want
        times, watts = np.asarray(signal._times), np.asarray(signal._watts)
        for t0, t1 in zip(edges, edges[1:] + edges[:1]):  # the last one reversed
            got = _outcome(signal.integrate, t0, t1)
            assert got == _outcome(_reference_integral, times, watts, t0, t1)
            if got[0] == "ok":
                assert type(got[1]) is float
                assert np.float64(got[1]).tobytes() == np.float64(
                    _reference_integral(times, watts, t0, t1)).tobytes()

    def test_windows_past_the_last_breakpoint(self):
        signal = PowerSignal(100.0, start_time=10.0)
        signal.set(12.5, 300.0)
        signal.set(40.0, 50.0)
        for edges in ([10.0, 50.0], [11.0, 45.0, 90.0], [39.0, 41.0], [60.0, 61.0]):
            _same_means(signal.means(edges), _reference_means(signal, edges))

    def test_error_cases_match(self):
        signal = PowerSignal(100.0, start_time=10.0)
        signal.set(20.0, 50.0)
        for edges in ([9.0, 15.0], [15.0, 15.0], [15.0, 12.0], [12.0, 18.0, 18.0]):
            got = _outcome(signal.means, edges)
            assert got[0] == "MeterError"
            assert got == _outcome(_reference_means, signal, edges)

    @settings(deadline=None, max_examples=100)
    @given(
        st.data(),
        st.sampled_from([1.0, 7.5, 60.0]),
        st.floats(min_value=0.01, max_value=4e3),
    )
    def test_trace_matches_the_reference_windows(self, data, dt, duration):
        """``from_signal``'s windows, a short final one included."""
        signal = PowerSignal.total(data.draw(_listings()))
        t0 = signal.start_time + data.draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1e4))
        t1 = t0 + duration
        trace = PowerTrace.from_signal(signal, t0, t1, dt)
        edges = np.append(np.arange(t0, t1, dt), t1)
        want = PowerTrace(t0, dt, _reference_means(signal, edges),
                          final_dt=float(edges[-1] - edges[-2]))
        assert trace.watts.tobytes() == want.watts.tobytes()
        assert (trace.start, trace.dt, trace.final_dt) == (want.start, want.dt, want.final_dt)
