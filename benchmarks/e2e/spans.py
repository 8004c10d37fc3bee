"""Outside-in tracing for the benchmark's traced rep.

The wrappers below are installed around the public functions of each layer
of ``repro`` only for the one traced rep of a workload, and removed again
afterwards; nothing under ``src/`` knows about them.  Each wrapper records a
span — name, start, end, parent, cell id — in memory, plus counts taken at
the same boundary.  A span's layer is the first dotted part of its name and
matches a ``repro`` package (``events``, ``cluster``, ``power``, ...);
``bench`` is the harness itself.

Every workload runs one busy process at a time, so the spans of a rep form
a single tree the rep's wall time decomposes into.  A CLI subprocess the
harness blocks on is traced in its own process, and its spans are merged
under the harness span that waited for it.

This module imports nothing from ``repro`` at import time, so
``python -m benchmarks.e2e.spans`` can time ``import repro.cli`` itself.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = [
    "Tracer",
    "layer_metrics",
    "self_times",
]


def _now() -> float:
    """CLOCK_MONOTONIC on Linux, shared by every process on the host."""
    return time.perf_counter()


class Tracer:
    """Spans and counts of one traced rep, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counts: Counter = Counter()
        self.cell: Optional[str] = None
        self._next_id = 1
        self._stack: List[int] = []
        self._in_run = 0
        self._n_cells = 0
        self._signals: list = []
        self._filesystems: list = []
        self._patches: list = []

    # ---------------------------------------------------------------- spans

    def begin(self) -> tuple:
        """Open a span; returns the token :meth:`end` closes."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, _now()

    def end(self, name: str, token: tuple) -> None:
        """Close the span ``token`` opened and record it as ``name``."""
        t1 = _now()
        sid, parent, t0 = token
        self._stack.pop()
        self.spans.append(
            {"id": sid, "parent": parent, "name": name, "t0": t0, "t1": t1,
             "cell": self.cell}
        )

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as one ``name`` span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            token = self.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(name, token)

        return wrapper

    def timed_generator(self, name: str, fn: Callable) -> Callable:
        """A DES generator function timed once per resumption.

        A ``yield from`` cannot be timed from outside, so the wrapper drives
        the generator by hand and forwards sent values, thrown exceptions
        (interrupts) and ``close()``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            gen = fn(*args, **kwargs)
            value: Any = None
            error: Optional[BaseException] = None
            while True:
                token = self.begin()
                try:
                    target = gen.send(value) if error is None else gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.end(name, token)
                try:
                    value, error = (yield target), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # interrupts: forward, do not swallow
                    value, error = None, exc

        return wrapper

    def span(self, name: str):
        """Context manager recording one ``name`` span (harness-side calls)."""
        return _SpanScope(self, name)

    # ------------------------------------------------------------- patching

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's public entry points (see the module docstring)."""
        import repro
        import repro.faults.campaign as campaign_mod
        import repro.scenario.loader as loader_mod
        import repro.scenario.run as scenario_run_mod
        from repro.cluster.machine import ComputeCluster
        from repro.core.characterization import CharacterizationStudy
        from repro.core.whatif import WhatIfAnalyzer
        from repro.events.engine import Simulator
        from repro.exec.cache import DiskCache
        from repro.exec.engine import ExecutionEngine
        from repro.obs.exporters import JsonlWriter
        from repro.obs.telemetry import TelemetrySession
        from repro.obs.timeline import TimelineSampler
        from repro.obs.watch import Watchdog
        from repro.pipelines.base import Pipeline
        from repro.power.meter import PowerMeter
        from repro.power.signal import PowerSignal
        from repro.power.trace import PowerTrace
        from repro.storage.lustre import LustreFileSystem

        timed = self.timed
        self._patch(Simulator, "run", self._wrap_sim_run(Simulator.run))
        self._patch(Simulator, "step", self._wrap_sim_step(Simulator.step))
        self._patch(ComputeCluster, "set_utilization",
                    self._wrap_set_utilization(ComputeCluster.set_utilization))
        self._patch(ComputeCluster, "current_power", property(
            timed("cluster.power_query", ComputeCluster.current_power.fget)))
        self._patch(PowerMeter, "read", timed("power.meter_read", PowerMeter.read))
        self._patch(PowerTrace, "aligned_sum", staticmethod(
            timed("power.aligned_sum", PowerTrace.aligned_sum)))
        self._patch(PowerSignal, "__init__",
                    self._registering(PowerSignal.__init__, self._signals))
        self._patch(LustreFileSystem, "__init__",
                    self._registering(LustreFileSystem.__init__, self._filesystems))
        self._patch(LustreFileSystem, "write", self._wrap_fs_write(
            self.timed_generator("storage.write", LustreFileSystem.write)))
        self._patch(LustreFileSystem, "read",
                    self.timed_generator("storage.read", LustreFileSystem.read))
        self._patch(Pipeline, "execute", self._wrap_execute(Pipeline.execute))
        self._patch(ExecutionEngine, "map", timed("exec.map", ExecutionEngine.map))
        self._patch(DiskCache, "get", self._wrap_cache_get(DiskCache.get))
        self._patch(DiskCache, "put", timed("exec.cache_put", DiskCache.put))
        self._patch(repro, "run_characterization",
                    timed("core.run_characterization", repro.run_characterization))
        self._patch(CharacterizationStudy, "calibrate",
                    timed("core.calibrate", CharacterizationStudy.calibrate))
        self._patch(CharacterizationStudy, "analyzer",
                    timed("core.analyzer", CharacterizationStudy.analyzer))
        for attr in ("storage_vs_rate", "energy_vs_rate"):
            self._patch(WhatIfAnalyzer, attr, timed("core.whatif", getattr(WhatIfAnalyzer, attr)))
        self._patch(JsonlWriter, "write", timed("obs.jsonl_write", JsonlWriter.write))
        self._patch(TelemetrySession, "close",
                    timed("obs.session_close", TelemetrySession.close))
        self._patch(TelemetrySession, "emit_timeline",
                    self._counting("obs.timeline_samples", TelemetrySession.emit_timeline))
        self._patch(TimelineSampler, "add_probe", self._wrap_add_probe(TimelineSampler.add_probe))
        self._patch(Watchdog, "observe", timed("obs.watchdog", Watchdog.observe))
        self._patch(campaign_mod, "run_fault_campaign",
                    timed("faults.campaign", campaign_mod.run_fault_campaign))
        self._patch(scenario_run_mod, "run_scenario",
                    timed("scenario.run", scenario_run_mod.run_scenario))
        self._patch(loader_mod, "load_scenario",
                    timed("scenario.load", loader_mod.load_scenario))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- wrappers

    def _counting(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def _registering(init: Callable, registry: list) -> Callable:
        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry.append(obj)

        return wrapper

    def _wrap_sim_run(self, run: Callable) -> Callable:
        @functools.wraps(run)
        def wrapper(sim, *args, **kwargs):
            before = sim.events_processed
            self._in_run += 1
            token = self.begin()
            try:
                return run(sim, *args, **kwargs)
            finally:
                self.end("events.run", token)
                self._in_run -= 1
                self.counts["events.dispatched"] += sim.events_processed - before

        return wrapper

    def _wrap_sim_step(self, step: Callable) -> Callable:
        # Inside Simulator.run the step is part of the "events.run" span; the
        # supervised (fault-injection) path steps the engine by hand, so
        # there each step is its own span.
        @functools.wraps(step)
        def wrapper(sim):
            if self._in_run:
                return step(sim)
            token = self.begin()
            try:
                return step(sim)
            finally:
                self.end("events.step", token)
                self.counts["events.dispatched"] += 1

        return wrapper

    def _wrap_set_utilization(self, set_utilization: Callable) -> Callable:
        @functools.wraps(set_utilization)
        def wrapper(cluster, utilization, nodes=None):
            if nodes is not None:
                nodes = list(nodes)
            self.counts["cluster.set_utilization.calls"] += 1
            self.counts["cluster.node_updates"] += len(
                cluster.nodes if nodes is None else nodes
            )
            token = self.begin()
            try:
                return set_utilization(cluster, utilization, nodes)
            finally:
                self.end("cluster.set_utilization", token)

        return wrapper

    def _wrap_fs_write(self, write: Callable) -> Callable:
        from repro.pipelines.base import CHECKPOINT_FILENAME

        @functools.wraps(write)
        def wrapper(fs, path, *args, **kwargs):
            if path.endswith(CHECKPOINT_FILENAME):
                self.counts["faults.checkpoints"] += 1
            return write(fs, path, *args, **kwargs)

        return wrapper

    def _wrap_cache_get(self, get: Callable) -> Callable:
        timed_get = self.timed("exec.cache_get", get)

        @functools.wraps(get)
        def wrapper(cache, key):
            payload = timed_get(cache, key)
            if payload is not None:
                self.counts["exec.cache_hits"] += 1
            return payload

        return wrapper

    def _wrap_add_probe(self, add_probe: Callable) -> Callable:
        @functools.wraps(add_probe)
        def wrapper(sampler, name, fn):
            return add_probe(sampler, name, self.timed("obs.probe", fn))

        return wrapper

    def _wrap_execute(self, execute: Callable) -> Callable:
        @functools.wraps(execute)
        def wrapper(pipeline, request=None, platform=None):
            self._n_cells += 1
            hours = None if request is None else request.spec.sampling.interval_hours
            outer_cell = self.cell
            self.cell = f"{self._n_cells}:{pipeline.name}@{hours}h"
            n_signals, n_filesystems = len(self._signals), len(self._filesystems)
            self.counts["pipelines.cells"] += 1
            token = self.begin()
            try:
                result = execute(pipeline, request, platform)
            finally:
                self.end("pipelines.execute", token)
                self._harvest(n_signals, n_filesystems)
                self.cell = outer_cell
            summary = result.fault_summary or {}
            self.counts["faults.injected"] += sum((summary.get("injected") or {}).values())
            self.counts["faults.recoveries"] += result.recoveries
            return result

        return wrapper

    def _harvest(self, n_signals: int, n_filesystems: int) -> None:
        """Fold the cell's power signals and filesystems into counts."""
        # PowerSignal has no public breakpoint count; `breakpoints` copies the
        # whole list, which on a dense cell would cost more than the cell.
        self.counts["power.signal_breakpoints"] += sum(
            len(signal._times) for signal in self._signals[n_signals:]
        )
        for fs in self._filesystems[n_filesystems:]:
            self.counts["storage.bytes_written"] += fs.bytes_written
            self.counts["storage.metadata_ops"] += fs.metadata_ops
        del self._signals[n_signals:]
        del self._filesystems[n_filesystems:]

    # ----------------------------------------------------------- subprocess

    def adopt_subprocess(self, path: str, parent: int) -> None:
        """Merge a blocking subprocess's span file under span ``parent``."""
        offset = self._next_id
        for record in _records(path):
            if "counts" in record:
                self.counts.update(record["counts"])
                continue
            record["id"] += offset
            record["parent"] = parent if record["parent"] is None else record["parent"] + offset
            self.spans.append(record)
            self._next_id = max(self._next_id, record["id"] + 1)

    def write(self, path: str) -> None:
        """All spans, then the counts, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _records(path: str):
    """The JSON lines :meth:`Tracer.write` wrote to ``path``."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


class _SpanScope:
    __slots__ = ("tracer", "name", "token")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanScope":
        self.token = self.tracer.begin()
        return self

    @property
    def id(self) -> int:
        """The span's id, for parenting spans merged in later."""
        return self.token[0]

    def __exit__(self, *_exc) -> None:
        self.tracer.end(self.name, self.token)


# ------------------------------------------------------------------ analysis


def _union_length(intervals: Iterable[tuple]) -> float:
    total = 0.0
    end = None
    start = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            if end is not None:
                total += end - start
            start, end = lo, hi
        else:
            end = max(end, hi)
    if end is not None:
        total += end - start
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Each span's duration minus the union of its children.

    Children are clipped to the parent's interval.
    """
    by_id = {span["id"]: span for span in spans}
    children: Dict[int, list] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            lo = max(span["t0"], parent["t0"])
            hi = min(span["t1"], parent["t1"])
            if hi > lo:
                children[parent["id"]].append((lo, hi))
    return {
        span["id"]: (span["t1"] - span["t0"]) - _union_length(children[span["id"]])
        for span in spans
    }


def _outermost_totals(spans: List[dict]) -> Dict[str, float]:
    """Total duration per span name, not counting a span nested in its namesake."""
    by_id = {span["id"]: span for span in spans}
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        parent = by_id.get(span["parent"])
        nested = False
        while parent is not None:
            if parent["name"] == span["name"]:
                nested = True
                break
            parent = by_id.get(parent["parent"])
        if not nested:
            totals[span["name"]] += span["t1"] - span["t0"]
    return totals


def _quantile(values: List[float], q: int) -> float:
    """The ``q``-th quartile boundary (``q`` in 1..3), or the only value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[q - 1]


def layer_metrics(spans: List[dict], counts: Counter, root: int) -> Dict[str, float]:
    """Per-layer metrics of one traced rep whose root span id is ``root``.

    ``trace.self_s.<layer>`` decomposes the rep: its values sum to the
    rep's wall time, and ``trace.attributed_frac`` is the share of it spent
    outside the harness.
    """
    totals = _outermost_totals(spans)
    selfs = self_times(spans)
    wall = next(s["t1"] - s["t0"] for s in spans if s["id"] == root)
    layer_self: Dict[str, float] = defaultdict(float)
    for span in spans:
        layer_self[span["name"].split(".", 1)[0]] += selfs[span["id"]]
    cells = [s["t1"] - s["t0"] for s in spans if s["name"] == "pipelines.execute"]
    events_s = totals["events.run"] + totals["events.step"]
    dispatched = counts["events.dispatched"]
    lookups = counts["exec.cache_get.calls"]
    out = {
        "events.dispatched": dispatched,
        "events.run_s": events_s,
        "events.self_s": layer_self["events"],
        "events.host_us_per_event": 1e6 * events_s / dispatched if dispatched else 0.0,
        "cluster.set_utilization.calls": counts["cluster.set_utilization.calls"],
        "cluster.set_utilization_s": totals["cluster.set_utilization"],
        "cluster.node_updates": counts["cluster.node_updates"],
        "cluster.power_query.calls": counts["cluster.power_query.calls"],
        "cluster.power_query_s": totals["cluster.power_query"],
        "power.signal_breakpoints": counts["power.signal_breakpoints"],
        "power.meter_read.calls": counts["power.meter_read.calls"],
        "power.meter_read_s": totals["power.meter_read"],
        "power.aligned_sum_s": totals["power.aligned_sum"],
        "storage.write.calls": counts["storage.write.calls"],
        "storage.write_s": totals["storage.write"],
        "storage.read.calls": counts["storage.read.calls"],
        "storage.read_s": totals["storage.read"],
        "storage.bytes_written_gb": counts["storage.bytes_written"] / 1e9,
        "storage.metadata_ops": counts["storage.metadata_ops"],
        "pipelines.cells": counts["pipelines.cells"],
        "pipelines.cell_s_p50": _quantile(cells, 2) if cells else 0.0,
        "pipelines.cell_s_p75": _quantile(cells, 3) if cells else 0.0,
        "exec.map_s": totals["exec.map"],
        "exec.cache_put.calls": counts["exec.cache_put.calls"],
        "exec.cache_put_s": totals["exec.cache_put"],
        "exec.cache_get.calls": lookups,
        "exec.cache_get_s": totals["exec.cache_get"],
        "exec.cache_hit_ratio": counts["exec.cache_hits"] / lookups if lookups else 0.0,
        "core.calibrate_s": totals["core.calibrate"],
        "core.whatif_s": totals["core.whatif"],
        "obs.jsonl_write.calls": counts["obs.jsonl_write.calls"],
        "obs.jsonl_write_s": totals["obs.jsonl_write"],
        "obs.probe_s": totals["obs.probe"],
        "obs.watchdog_s": totals["obs.watchdog"],
        "obs.session_close_s": totals["obs.session_close"],
        "obs.timeline_samples": counts["obs.timeline_samples"],
        "faults.injected": counts["faults.injected"],
        "faults.recoveries": counts["faults.recoveries"],
        "faults.checkpoints": counts["faults.checkpoints"],
        "scenario.load_s": totals["scenario.load"],
        "trace.spans": len(spans),
        "trace.attributed_frac": sum(
            seconds for layer, seconds in layer_self.items() if layer != "bench"
        ) / wall,
    }
    for layer, seconds in sorted(layer_self.items()):
        out[f"trace.self_s.{layer}"] = seconds
    return out


# ------------------------------------------------------------ traced CLI


def _traced_cli(spans_path: str, argv: List[str]) -> int:
    """Run ``repro`` CLI ``argv`` in this fresh process, traced.

    The import of ``repro.cli`` is the first span; the wrappers go in after
    it so they do not pre-import what it would import.
    """
    tracer = Tracer()
    token = tracer.begin()
    import repro.cli

    tracer.end("import.cli", token)
    tracer.install()
    try:
        with tracer.span("scenario.cli"):
            code = repro.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(_traced_cli(sys.argv[1], sys.argv[2:]))
