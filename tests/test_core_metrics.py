"""Tests for :mod:`repro.core.metrics`."""

from __future__ import annotations

import pickle
import pickletools
from collections import Counter
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    IN_SITU,
    POST_PROCESSING,
    Measurement,
    MetricSet,
    PhaseTimeline,
)
from repro.errors import ConfigurationError
from repro.exec.api import RunRequest
from repro.faults.resilience import CheckpointPolicy
from repro.faults.spec import NODE_CRASH, FaultEvent, FaultSpec
from repro.ocean.driver import MPASOceanConfig
from repro.pipelines.base import PipelineSpec
from repro.pipelines.insitu import InSituPipeline
from repro.pipelines.sampling import SamplingPolicy
from repro.units import DAY


def make_measurement(pipeline, hours, time, storage_gb, power=44_000.0, outputs=10):
    return Measurement(
        pipeline=pipeline,
        sample_interval_hours=hours,
        execution_time=time,
        n_timesteps=8_640,
        storage_bytes=storage_gb * 1e9,
        n_outputs=outputs,
        n_images=outputs,
        average_power=power,
        energy=power * time,
    )


#: Phase names the generated timelines use; "wait" never appears in them.
PHASES = ("simulation", "io", "viz")

#: ``(phase, t0, t1)`` with finite, awkward floats (subnormals, signed zeros,
#: huge magnitudes) and ``t1 >= t0``.
SEGMENTS = st.tuples(
    st.sampled_from(PHASES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
).map(lambda s: (s[0], min(s[1], s[2]), max(s[1], s[2])))


def bits(value):
    """``value`` with every float spelled exactly, and ints kept apart."""
    if isinstance(value, float):
        return float, value.hex()
    if isinstance(value, (tuple, list)):
        return type(value)(bits(v) for v in value)
    if isinstance(value, dict):
        return [(k, bits(v)) for k, v in value.items()]
    return type(value), value


@dataclass
class TupleTimeline:
    """The list-of-tuples timeline the columnar one replaced (reference)."""

    records: list = field(default_factory=list)

    def add(self, phase, t0, t1):
        self.records.append((phase, t0, t1))

    def total(self, phase):
        return sum(t1 - t0 for p, t0, t1 in self.records if p == phase)

    def phases(self):
        seen = []
        for p, _, _ in self.records:
            if p not in seen:
                seen.append(p)
        return seen

    def by_phase(self):
        return {p: self.total(p) for p in self.phases()}


class TestPhaseTimeline:
    def test_totals_by_phase(self):
        tl = PhaseTimeline()
        tl.add("simulation", 0.0, 10.0)
        tl.add("io", 10.0, 13.0)
        tl.add("simulation", 13.0, 20.0)
        assert tl.total("simulation") == 17.0
        assert tl.total("io") == 3.0
        assert tl.total("viz") == 0.0
        assert tl.phases() == ["simulation", "io"]
        assert tl.by_phase() == {"simulation": 17.0, "io": 3.0}

    def test_reversed_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            PhaseTimeline().add("x", 5.0, 4.0)

    def test_by_phase_of_a_faulted_run(self):
        """A recovered run's timeline, recovery and checkpoint phases included."""
        run = InSituPipeline().execute(RunRequest(
            spec=PipelineSpec(ocean=MPASOceanConfig(duration_seconds=10 * DAY),
                              sampling=SamplingPolicy(24.0)),
            faults=FaultSpec(seed=0, events=(FaultEvent(at_seconds=22.0, kind=NODE_CRASH),)),
            checkpoints=CheckpointPolicy(every_n_outputs=2, restart_penalty_seconds=30.0),
        ))
        assert run.recoveries == 1
        tl = run.measurement.timeline
        totals = tl.by_phase()
        assert {"recovery", "checkpoint"} <= set(totals)
        assert list(totals) == tl.phases()
        assert bits(totals) == bits({p: tl.total(p) for p in tl.phases()})

    @settings(deadline=None, max_examples=200)
    @given(st.lists(SEGMENTS, max_size=40))
    def test_columns_match_the_list_of_tuples_layout(self, segments):
        tl, reference = PhaseTimeline(), TupleTimeline()
        for phase, t0, t1 in segments:
            tl.add(phase, t0, t1)
            reference.add(phase, t0, t1)
        assert [bits(r) for r in tl.records] == [bits(r) for r in reference.records]
        assert tl.phases() == reference.phases()
        assert bits(tl.by_phase()) == bits(reference.by_phase())
        # The one-pass totals are total()'s, in first-appearance order.
        assert bits(tl.by_phase()) == bits({p: tl.total(p) for p in tl.phases()})
        assert "wait" not in tl.by_phase()
        for phase in PHASES:
            assert bits(tl.total(phase)) == bits(reference.total(phase))
        # An absent phase sums nothing: sum()'s int 0, on both layouts.
        assert bits(tl.total("wait")) == bits(reference.total("wait")) == (int, 0)
        assert pickle.loads(pickle.dumps(tl)) == tl

    def test_records_is_a_fresh_list(self):
        tl = PhaseTimeline()
        tl.add("io", 1.0, 2.0)
        tl.records.append(("viz", 2.0, 3.0))
        assert tl.records == [("io", 1.0, 2.0)]

    def test_pickle_holds_no_object_per_record(self):
        def opcodes(n_records):
            tl = PhaseTimeline()
            for i in range(n_records):
                tl.add(PHASES[i % 3], i * 1.5, i * 1.5 + 1.0)
            raw = pickle.dumps(tl, protocol=pickle.HIGHEST_PROTOCOL)
            assert pickle.loads(raw) == tl
            return Counter(op.name for op, _, _ in pickletools.genops(raw))

        # The list-of-tuples layout emitted a TUPLE3 and two BINFLOATs per
        # record; records now add neither.
        empty, full = opcodes(0), opcodes(1_000)
        assert full["BINFLOAT"] == 0
        assert full["TUPLE3"] == empty["TUPLE3"]


class TestMeasurement:
    def test_phase_properties(self):
        m = make_measurement(IN_SITU, 24.0, 820.0, 0.2)
        m.timeline.add("simulation", 0.0, 603.0)
        m.timeline.add("viz", 603.0, 819.0)
        m.timeline.add("io", 819.0, 820.0)
        assert m.simulation_time == 603.0
        assert m.viz_time == 216.0
        assert m.io_time == 1.0

    def test_storage_gb(self):
        assert make_measurement(IN_SITU, 24.0, 1.0, 80.0).storage_gb == 80.0

    def test_summary_renders_without_power(self):
        m = Measurement(
            pipeline=IN_SITU, sample_interval_hours=4.0, execution_time=1.0,
            n_timesteps=10, storage_bytes=0, n_outputs=1,
        )
        assert "n/a" in m.summary()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_measurement(IN_SITU, 24.0, -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            make_measurement(IN_SITU, 0.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            make_measurement(IN_SITU, 24.0, 1.0, -1.0)


class TestMetricSet:
    def _grid(self) -> MetricSet:
        ms = MetricSet()
        # The paper's Fig. 3/6/7 shape at 8 h sampling.
        ms.add(make_measurement(IN_SITU, 8.0, 1_261.0, 0.6, outputs=540))
        ms.add(make_measurement(POST_PROCESSING, 8.0, 2_573.0, 230.0, outputs=540))
        ms.add(make_measurement(IN_SITU, 24.0, 820.0, 0.2, outputs=180))
        ms.add(make_measurement(POST_PROCESSING, 24.0, 1_322.0, 80.0, outputs=180))
        return ms

    def test_get(self):
        ms = self._grid()
        assert ms.get(IN_SITU, 8.0).execution_time == 1_261.0

    def test_get_missing_raises(self):
        with pytest.raises(ConfigurationError):
            self._grid().get(IN_SITU, 72.0)

    def test_get_duplicate_raises(self):
        ms = self._grid()
        ms.add(make_measurement(IN_SITU, 8.0, 1.0, 1.0))
        with pytest.raises(ConfigurationError):
            ms.get(IN_SITU, 8.0)

    def test_pipelines_and_intervals(self):
        ms = self._grid()
        assert ms.pipelines() == [IN_SITU, POST_PROCESSING]
        assert ms.sample_intervals() == [8.0, 24.0]

    def test_time_savings_matches_paper_at_8h(self):
        assert self._grid().time_savings(8.0) == pytest.approx(0.51, abs=0.01)

    def test_energy_savings_track_time_when_power_flat(self):
        ms = self._grid()
        assert ms.energy_savings(8.0) == pytest.approx(ms.time_savings(8.0))

    def test_storage_savings_over_99_percent(self):
        assert self._grid().storage_savings(8.0) > 0.995

    def test_power_change_zero_for_equal_power(self):
        assert self._grid().power_change(8.0) == pytest.approx(0.0)

    def test_savings_need_both_pipelines(self):
        ms = MetricSet([make_measurement(IN_SITU, 8.0, 1.0, 1.0)])
        with pytest.raises(ConfigurationError):
            ms.time_savings(8.0)

    def test_table_lists_all_cells(self):
        table = self._grid().table()
        assert table.count("in-situ") == 2
        assert table.count("post-processing") == 2

    def test_iteration_and_len(self):
        ms = self._grid()
        assert len(ms) == 4
        assert len(list(ms)) == 4
