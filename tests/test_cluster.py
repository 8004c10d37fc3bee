"""Tests for the compute-cluster simulator (:mod:`repro.cluster`)."""

from __future__ import annotations

import functools
import inspect
import math
from collections import Counter
from operator import attrgetter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import Allocator
from repro.cluster.machine import ComputeCluster, PhaseProfile, caddy
from repro.cluster.node import NodeGroup, node_sum
from repro.cluster.power import CpuPowerModel, NodePowerModel, PState, e5_2670_node
from repro.cluster.topology import Interconnect
from repro.errors import ConfigurationError
from repro.events.engine import Simulator
from repro.obs.registry import MetricsRegistry
from repro.obs.sessions import TelemetrySession
from repro.obs.timeline import TimelineSampler, power_probes
from repro.power.meter import PowerMeter
from repro.power.signal import PowerSignal
from repro.power.trace import PowerTrace


class TestCpuPowerModel:
    def test_idle_and_peak(self):
        cpu = CpuPowerModel(idle_watts=25.0, peak_watts=110.0)
        assert cpu.power(0.0) == 25.0
        assert cpu.power(1.0) == 110.0

    def test_linear_in_utilization_by_default(self):
        cpu = CpuPowerModel(idle_watts=20.0, peak_watts=120.0)
        assert cpu.power(0.5) == pytest.approx(70.0)

    def test_gamma_shapes_curve(self):
        cpu = CpuPowerModel(idle_watts=0.0, peak_watts=100.0, gamma=2.0)
        assert cpu.power(0.5) == pytest.approx(25.0)

    def test_dvfs_cubic_scaling(self):
        cpu = CpuPowerModel(idle_watts=0.0, peak_watts=100.0, base_frequency_ghz=2.6)
        half = cpu.power(1.0, frequency_ghz=1.3)
        assert half == pytest.approx(100.0 * 0.125)

    def test_utilization_bounds(self):
        cpu = CpuPowerModel(idle_watts=10.0, peak_watts=100.0)
        with pytest.raises(ConfigurationError):
            cpu.power(1.5)
        with pytest.raises(ConfigurationError):
            cpu.power(-0.1)

    def test_peak_below_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuPowerModel(idle_watts=100.0, peak_watts=50.0)

    def test_infinite_frequency_rejected(self):
        """An infinite frequency would make the draw inf."""
        cpu = CpuPowerModel(idle_watts=10.0, peak_watts=100.0)
        with pytest.raises(ConfigurationError):
            cpu.power(0.5, frequency_ghz=float("inf"))

    @pytest.mark.parametrize("frequency_ghz", [1e103, 1e200])
    def test_overflowing_frequency_rejected(self, frequency_ghz):
        """A finite frequency whose draw overflows: inf at 1e103, and the
        cube alone leaves the float range at 1e200."""
        cpu = CpuPowerModel(idle_watts=10.0, peak_watts=100.0)
        with pytest.raises(ConfigurationError):
            cpu.power(1.0, frequency_ghz)

    def test_slowest_pstate(self):
        cpu = CpuPowerModel(idle_watts=10.0, peak_watts=100.0)
        assert cpu.slowest_pstate().frequency_ghz == 1.2

    def test_pstate_validation(self):
        with pytest.raises(ConfigurationError):
            PState(-1.0)


class TestNodePowerModel:
    def test_infinite_sum_rejected(self):
        """Each socket's draw is finite, but two of them overflow."""
        node = NodePowerModel(cpu=CpuPowerModel(idle_watts=10.0, peak_watts=1e308))
        assert node.cpu.power(1.0) == 1e308
        with pytest.raises(ConfigurationError):
            node.power(1.0)

    def test_caddy_node_calibration(self):
        """The calibrated node hits the paper's 100 W / 293.3 W endpoints."""
        node = e5_2670_node()
        assert node.idle_watts == pytest.approx(100.0)
        assert node.peak_watts == pytest.approx(293.33, abs=0.01)

    def test_dynamic_range_matches_paper(self):
        """193 % idle-to-loaded increase (Section V)."""
        assert e5_2670_node().dynamic_range() == pytest.approx(1.93, abs=0.005)

    def test_monotone_in_utilization(self):
        node = e5_2670_node()
        powers = [node.power(u / 10) for u in range(11)]
        assert powers == sorted(powers)

    def test_dram_interpolation(self):
        node = NodePowerModel(
            cpu=CpuPowerModel(idle_watts=0.0, peak_watts=0.0),
            n_sockets=1, base_watts=0.0, dram_idle_watts=10.0, dram_active_watts=30.0,
        )
        assert node.power(0.5) == pytest.approx(20.0)

    def test_active_dram_below_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            NodePowerModel(
                cpu=CpuPowerModel(idle_watts=1.0, peak_watts=2.0),
                dram_idle_watts=30.0, dram_active_watts=10.0,
            )


_NAN = float("nan")
_INF = float("inf")


def _cpu(**constants) -> CpuPowerModel:
    return CpuPowerModel(**{"idle_watts": 10.0, "peak_watts": 100.0, **constants})


class TestConstantsCheckedWhereTheyArrive:
    """A NaN, infinite or out-of-range constant fails in the constructor,
    naming its field, not at a later ``power()`` call far from the input."""

    @pytest.mark.parametrize("value", [_NAN, _INF, -1.0])
    def test_cpu_idle_watts(self, value):
        with pytest.raises(ConfigurationError, match=r"CpuPowerModel\.idle_watts"):
            _cpu(idle_watts=value)

    @pytest.mark.parametrize("value", [_NAN, _INF])
    def test_cpu_peak_watts(self, value):
        with pytest.raises(ConfigurationError, match=r"CpuPowerModel\.peak_watts"):
            _cpu(peak_watts=value)

    @pytest.mark.parametrize("value", [0.0, _NAN, _INF, -2.6])
    def test_cpu_base_frequency_ghz(self, value):
        with pytest.raises(ConfigurationError, match=r"CpuPowerModel\.base_frequency_ghz"):
            _cpu(base_frequency_ghz=value)

    @pytest.mark.parametrize("value", [0.0, _NAN, _INF])
    def test_cpu_gamma(self, value):
        """``gamma = inf`` would flatten the curve: ``u**inf`` is 0 below full load."""
        with pytest.raises(ConfigurationError, match=r"CpuPowerModel\.gamma"):
            _cpu(gamma=value)

    @pytest.mark.parametrize("value", [_NAN, _INF, -1.0])
    def test_node_base_watts(self, value):
        with pytest.raises(ConfigurationError, match=r"NodePowerModel\.base_watts"):
            NodePowerModel(cpu=_cpu(), base_watts=value)

    @pytest.mark.parametrize("value", [_NAN, _INF, -1.0])
    def test_node_dram_idle_watts(self, value):
        with pytest.raises(ConfigurationError, match=r"NodePowerModel\.dram_idle_watts"):
            NodePowerModel(cpu=_cpu(), dram_idle_watts=value)

    @pytest.mark.parametrize("value", [_NAN, _INF])
    def test_node_dram_active_watts(self, value):
        with pytest.raises(ConfigurationError, match=r"NodePowerModel\.dram_active_watts"):
            NodePowerModel(cpu=_cpu(), dram_active_watts=value)

    @pytest.mark.parametrize("value", [0.0, _NAN, _INF, -1.0])
    def test_pstate_frequency_ghz(self, value):
        with pytest.raises(ConfigurationError, match=r"PState\.frequency_ghz"):
            PState(value)

    def test_calibrated_node_unchanged(self):
        """The paper's node passes every check with its exact constants."""
        node = e5_2670_node()
        assert (node.cpu.idle_watts, node.cpu.peak_watts) == (25.0, 109.665)
        assert (node.base_watts, node.dram_idle_watts, node.dram_active_watts) == (
            34.0, 16.0, 40.0
        )
        assert node.idle_watts == 100.0
        assert node.peak_watts == 34.0 + 40.0 + 2 * 109.665


class TestNode:
    def test_utilization_drives_power_signal(self, sim):
        node = NodeGroup(sim, 0, e5_2670_node())
        assert node.power_signal.value_at(0.0) == pytest.approx(100.0)
        sim.timeout(10.0)
        sim.run()
        node.set_utilization(1.0)
        assert node.power_signal.value_at(10.0) == pytest.approx(293.33, abs=0.01)

    def test_busy_core_seconds_accounting(self, sim):
        node = NodeGroup(sim, 0, e5_2670_node())
        node.set_utilization(0.5)
        sim.timeout(10.0)
        sim.run()
        # 16 cores at 0.5 utilization for 10 s.
        assert node.busy_core_seconds() == pytest.approx(80.0)

    def test_n_cores(self, sim):
        node = NodeGroup(sim, 0, e5_2670_node(), cores_per_socket=8)
        assert node.n_cores == 16

    def test_frequency_default_and_override(self, sim):
        node = NodeGroup(sim, 0, e5_2670_node())
        assert node.frequency_ghz == 2.6
        node.set_utilization(1.0, frequency_ghz=1.3)
        assert node.frequency_ghz == 1.3
        assert node.current_power < 293.0  # DVFS'd down

    def test_invalid_construction(self, sim):
        with pytest.raises(ConfigurationError):
            NodeGroup(sim, -1, e5_2670_node())
        with pytest.raises(ConfigurationError):
            NodeGroup(sim, 0, e5_2670_node(), cores_per_socket=0)
        with pytest.raises(ConfigurationError):
            NodeGroup(sim, 0, e5_2670_node(), memory_gb=0.0)
        with pytest.raises(ConfigurationError):
            NodeGroup(sim, 0, e5_2670_node(), count=0)

    def test_split_keeps_state_and_history(self, sim):
        cluster = ComputeCluster(sim, n_nodes=10)
        (group,) = cluster.groups
        group.set_utilization(0.5)
        sim.timeout(10.0)
        sim.run()
        rest = cluster.split(group, 4)
        assert cluster.groups == [group, rest]
        assert (group.node_ids, rest.node_ids) == (range(0, 4), range(4, 10))
        assert rest.utilization == 0.5
        assert rest.busy_core_seconds() == group.busy_core_seconds()
        assert rest.power_signal.breakpoints == group.power_signal.breakpoints
        rest.set_utilization(1.0)
        assert group.power_signal.value_at(10.0) != rest.power_signal.value_at(10.0)
        assert cluster.nodes == (group,) * 4 + (rest,) * 6
        with pytest.raises(ConfigurationError):
            cluster.split(group, 4)

    def test_power_table_reads_the_model_exactly(self, sim):
        """The per-group table of node power gives ``power_model.power(u, f)``
        bit for bit, through DVFS changes and after a split."""
        model = e5_2670_node()
        cluster = ComputeCluster(sim, n_nodes=10, node_model=model)
        (group,) = cluster.groups
        levels = [(0.5, None), (1.0, 1.3), (0.5, None), (0.25, 2.2), (1.0, None), (1.0, 1.3)]

        def step(group, u, f):
            sim.timeout(1.0)
            sim.run()
            group.set_utilization(u, frequency_ghz=f)
            expected = model.power(u, f)
            assert repr(group.current_power) == repr(expected)
            assert repr(group.power_signal.value_at(sim.now)) == repr(expected)

        for u, f in levels:
            step(group, u, f)
        rest = cluster.split(group, 4)
        for u, f in reversed(levels):
            step(rest, u, f)
            step(group, 1.0 - u, f)
        assert rest.n_cores == group.n_cores == 16

    def test_invalid_frequency_raises_on_every_call(self, sim):
        group = NodeGroup(sim, 0, e5_2670_node())
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                group.set_utilization(0.5, frequency_ghz=0.0)
        group.set_utilization(0.5)
        assert group.current_power == e5_2670_node().power(0.5)

    @pytest.mark.parametrize("frequency_ghz", [0.0, float("nan"), float("inf"), 1e103, 1e200])
    def test_rejected_set_leaves_the_group_unchanged(self, sim, frequency_ghz):
        group = NodeGroup(sim, 0, e5_2670_node())
        group.set_utilization(0.2)
        sim.run(until=10.0)
        before = (
            group.utilization, group.frequency_ghz, group.current_power,
            group.busy_core_seconds(), group.power_signal.breakpoints,
        )
        with pytest.raises(ConfigurationError):
            group.set_utilization(0.5, frequency_ghz=frequency_ghz)
        assert (
            group.utilization, group.frequency_ghz, group.current_power,
            group.busy_core_seconds(), group.power_signal.breakpoints,
        ) == before
        assert all(math.isfinite(watts) for watts in group._watts.values())
        sim.run(until=20.0)
        assert group.busy_core_seconds() == 0.2 * group.n_cores * 20.0


class TestCageAndInterconnect:
    def test_cage_attaches_monitor(self, sim):
        cluster = ComputeCluster(sim, n_nodes=10)
        assert cluster.monitors[0].n_signals == 10
        assert len(cluster.cages[0]) == 10

    def test_cage_size_limit(self, sim):
        with pytest.raises(ConfigurationError, match="nodes_per_cage"):
            ComputeCluster(sim, n_nodes=11, nodes_per_cage=11)

    def test_empty_cage_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            ComputeCluster(sim, n_nodes=10, nodes_per_cage=0)

    def test_point_to_point_time(self):
        ic = Interconnect(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
        assert ic.point_to_point_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_allreduce_log_rounds(self):
        ic = Interconnect(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
        t_2 = ic.allreduce_time(1_000, 2)
        t_8 = ic.allreduce_time(1_000, 8)
        assert t_8 == pytest.approx(3 * t_2)

    def test_single_rank_collectives_free(self):
        ic = Interconnect()
        assert ic.allreduce_time(1e6, 1) == 0.0
        assert ic.gather_time(1e6, 1) == 0.0
        assert ic.binary_swap_composite_time(1e6, 1) == 0.0

    def test_composite_bounded_by_image_size(self):
        """Binary-swap traffic is ~one image regardless of rank count."""
        ic = Interconnect()
        image = 6.2e6
        t150 = ic.binary_swap_composite_time(image, 150)
        # Generous bound: a few image transfer times.
        assert t150 < 5 * (image / ic.bandwidth_bytes_per_s) + 20 * ic.latency_s

    def test_negative_message_rejected(self):
        with pytest.raises(ConfigurationError):
            Interconnect().point_to_point_time(-1.0)

    def test_invalid_rank_count(self):
        with pytest.raises(ConfigurationError):
            Interconnect().allreduce_time(10.0, 0)


class TestComputeCluster:
    def test_caddy_shape(self, cluster):
        assert cluster.n_nodes == 150
        assert cluster.n_cores == 2_400
        assert len(cluster.cages) == 15
        assert len(cluster.monitors) == 15

    def test_caddy_power_envelope(self, cluster):
        """15 kW idle and 44 kW loaded (Section V)."""
        assert cluster.idle_watts == pytest.approx(15_000.0)
        assert cluster.peak_watts == pytest.approx(44_000.0, rel=1e-4)

    def test_run_phase_sets_and_resets_utilization(self, sim, cluster):
        def proc():
            yield from cluster.run_phase(10.0, 0.95)

        sim.process(proc())
        sim.run()
        assert sim.now == 10.0
        assert all(n.utilization == 0.0 for n in cluster.nodes)

    def test_run_phase_power_during(self, sim, cluster):
        def proc():
            yield from cluster.run_phase(60.0, 1.0)
            yield sim.timeout(60.0)

        sim.process(proc())
        sim.run()
        trace = cluster.read_total(0.0, 120.0)
        assert trace.watts[0] == pytest.approx(44_000.0, rel=1e-3)
        assert trace.watts[1] == pytest.approx(15_000.0, rel=1e-3)

    def test_read_monitors_sum_equals_read_total(self, sim, cluster):
        def proc():
            yield from cluster.run_phase(120.0, 0.5)

        sim.process(proc())
        sim.run()
        per_cage = cluster.read_monitors(0.0, 120.0)
        total = cluster.read_total(0.0, 120.0)
        assert sum(t.average_power() for t in per_cage) == pytest.approx(
            total.average_power()
        )

    def test_partial_cage_for_nondivisible_counts(self, sim):
        c = ComputeCluster(sim, n_nodes=25, nodes_per_cage=10)
        assert [len(cage) for cage in c.cages] == [10, 10, 5]

    def test_negative_phase_duration_rejected(self, sim, cluster):
        with pytest.raises(ConfigurationError):
            list(cluster.run_phase(-1.0, 0.5))

    def test_phase_profile_validation(self):
        with pytest.raises(ConfigurationError):
            PhaseProfile(simulation=1.5)

    def test_io_wait_keeps_cpus_hot(self):
        """MPI busy-polling: the default I/O phase is far from idle."""
        prof = PhaseProfile()
        assert prof.io_wait >= 0.8

    def test_current_power_tracks_nodes(self, sim, cluster):
        cluster.set_utilization(1.0)
        assert cluster.current_power == pytest.approx(44_000.0, rel=1e-4)

    def test_zero_nodes_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            ComputeCluster(sim, n_nodes=0)


#: (time, nodes, utilization): ``all`` drives the cluster, ``a``/``b`` the
#: 13/12 partition (cage 1 holds nodes of both), ``release`` idles and
#: returns both partitions.  Off-minute times leave partial meter windows.
PHASE_SCRIPT = [
    (0.0, "all", 0.95),
    (95.5, "all", 0.85),
    (250.0, "a", 0.95),
    (250.0, "b", 0.92),
    (371.25, "b", 0.85),
    (430.0, "a", 0.0),
    (500.0, "b", 0.04),
    (610.0, "all", 0.5),
    (700.0, "a", 1.0),
    (777.7, "release", 0.0),
    (801.0, "all", 0.93),
]
SCRIPT_END = 845.0
BANDS = {
    "busy": lambda u: u >= 0.9,
    "io": lambda u: 0.05 <= u < 0.9,
    "idle": lambda u: u < 0.05,
}


class TestNodeGroupsMatchPerNodeReference:
    """A grouped 25-node cluster reads exactly what 25 per-node signals read."""

    def test_exact_identity(self):
        sim = Simulator()
        cluster = ComputeCluster(sim, n_nodes=25, nodes_per_cage=10)
        model = cluster.node_model
        n_cores = model.n_sockets * 8
        signals = [PowerSignal(model.idle_watts) for _ in range(25)]
        util = [0.0] * 25
        busy = [0.0] * 25
        last = [0.0] * 25
        node_ids = {"all": range(25), "release": range(25), "a": range(13), "b": range(13, 25)}
        probes = dict(power_probes(cluster))
        allocator = Allocator(cluster)
        partitions = {}

        def reference(nodes, utilization):
            for i in nodes:
                busy[i] += util[i] * n_cores * (sim.now - last[i])
                last[i] = sim.now
                util[i] = utilization
                signals[i].set(sim.now, model.power(utilization))

        def check_instant():
            assert cluster.current_power == sum(model.power(u) for u in util)
            assert probes["repro_timeline_power_draw_watts"](sim.now) == sum(
                s.value_at(sim.now) for s in signals
            )
            for band, member in BANDS.items():
                assert probes[f"repro_timeline_power_nodes_{band}_total"](sim.now) == float(
                    sum(1 for u in util if member(u))
                )
            for i in range(25):
                assert cluster.nodes[i].busy_core_seconds() == busy[i] + util[i] * n_cores * (
                    sim.now - last[i]
                )

        def script():
            for t, target, utilization in PHASE_SCRIPT:
                yield sim.timeout(t - sim.now)
                if target == "all":
                    cluster.set_utilization(utilization)
                elif target == "release":
                    for partition in partitions.values():
                        allocator.release(partition)
                else:
                    if not partitions:
                        partitions["a"] = allocator.allocate("a", 13)
                        partitions["b"] = allocator.allocate("b", 12)
                    partitions[target].set_utilization(utilization)
                reference(node_ids[target], utilization)
                check_instant()
            yield sim.timeout(SCRIPT_END - sim.now)
            check_instant()

        sim.process(script())
        sim.run()
        assert len(cluster.groups) == 2
        assert len(set(cluster.nodes[10:20])) == 2  # cage 1 mixes both groups

        expected = [
            PowerTrace.from_signal(
                PowerSignal.total(signals[c * 10 : (c + 1) * 10]), 0.0, SCRIPT_END, 60.0,
                name=f"cage-{c:02d}",
            )
            for c in range(3)
        ]
        traces = cluster.read_monitors(0.0, SCRIPT_END)
        assert [len(cage) for cage in cluster.cages] == [10, 10, 5]
        for got, want in zip(traces, expected):
            assert (got.name, got.start, got.dt, got.final_dt) == (
                want.name, want.start, want.dt, want.final_dt,
            )
            assert got.watts.tolist() == want.watts.tolist()
        total = cluster.read_total(0.0, SCRIPT_END)
        want_total = PowerTrace.aligned_sum(expected, name="cluster-compute")
        assert total.name == want_total.name
        assert total.final_dt == want_total.final_dt
        assert total.watts.tolist() == want_total.watts.tolist()


class TestNodeSum:
    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(st.floats(), st.integers(min_value=1, max_value=40)), max_size=10))
    def test_equals_the_node_by_node_sum(self, pairs):
        groups = [SimpleNamespace(value=value, count=count) for value, count in pairs]
        calls = []

        def value(group):
            calls.append(group)
            return group.value

        got = node_sum(groups, value)
        want = sum(g.value for g in groups for _ in range(g.count))
        assert type(got) is type(want)
        assert float(got).hex() == float(want).hex()
        assert calls == groups


class TestTracedSurface:
    """What the end-to-end benchmark's tracer wraps through class ``__dict__``.

    ``benchmarks/e2e/spans.py`` replaces these attributes for its traced rep
    and calls the originals; renaming or reshaping them breaks that rep.
    """

    def test_cluster_entry_points(self, sim):
        cluster = ComputeCluster(sim, n_nodes=25)
        set_utilization = ComputeCluster.__dict__["set_utilization"]
        set_utilization(cluster, 0.5, None)
        set_utilization(cluster, 0.9, list(cluster.groups))
        assert len(cluster.nodes) == 25
        assert all(n.utilization == 0.9 for n in cluster.nodes)
        current_power = ComputeCluster.__dict__["current_power"]
        assert isinstance(current_power, property)
        assert current_power.fget(cluster) == cluster.current_power

    def test_power_entry_points(self):
        assert callable(PowerMeter.__dict__["read"])
        assert isinstance(PowerTrace.__dict__["aligned_sum"], staticmethod)
        assert callable(PowerSignal.__dict__["__init__"])
        signal = PowerSignal(100.0)
        signal.set(10.0, 200.0)
        assert len(signal._times) == 2

    def test_add_probe_takes_name_and_fn(self):
        add_probe = TimelineSampler.__dict__["add_probe"]
        assert list(inspect.signature(add_probe).parameters) == ["self", "name", "fn"]

    def test_wrapped_probes_keep_their_marks(self, sim):
        # The tracer times each probe through a functools.wraps wrapper.
        reads = Counter()

        def timed(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                reads[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        cluster = ComputeCluster(sim, n_nodes=25)
        session = TelemetrySession(keep_records=True, registry=MetricsRegistry())
        sampler = TimelineSampler(sim, interval_seconds=1.0, session=session)
        add_probe = TimelineSampler.__dict__["add_probe"]
        for name, fn in power_probes(cluster, cap_watts=1_000.0):
            add_probe(sampler, name, timed(name, fn))

        def late():
            yield sim.timeout(3.5)  # one event crossing three ticks

        sim.process(late())
        sampler.attach()
        sim.run()
        assert len(session.timeline_records) == 3
        # The compute series is still a gauge, the headroom still derived
        # from the draw, and the draw still read at every tick.
        assert reads["repro_timeline_power_compute_watts"] == 1
        assert reads["repro_timeline_power_headroom_watts"] == 0
        assert reads["repro_timeline_power_draw_watts"] == 3
