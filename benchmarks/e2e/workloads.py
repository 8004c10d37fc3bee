"""The three benchmark workloads.

Each workload runs inside its own fresh child process (see ``cli.py``):
:meth:`Workload.setup` makes the inputs from the seed and imports what the
reps need, :meth:`Workload.warmup` loads whatever the first timed rep would
otherwise pay for lazily, and each :meth:`Workload.rep` is one closed-loop
iteration — the next starts when the previous one has ended.  A rep returns
its timing samples, the number of operations it attempted (an operation is
a cell, a command or a scenario run) and sha256 digests of its outputs;
the caller compares each digest with the first rep that produced it and
with ``golden.json``.  Times are taken on the clock of
:data:`~benchmarks.e2e.hostspeed.SAMPLER`, which leaves out the sampler's own
work; the caller turns them into host-normalised seconds, except where a rep
times subprocesses and does so itself.

Passed a :class:`~benchmarks.e2e.spans.Tracer`, a rep wraps its timed
region in the ``bench.rep`` root span and opens spans around the calls it
makes into ``repro`` itself; the tracer's wrappers record the rest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from benchmarks.e2e.hostspeed import SAMPLER, factor_of

__all__ = [
    "ColdCli",
    "Context",
    "FaultsTraced",
    "Rep",
    "SweepCache",
    "WORKLOADS",
    "Workload",
    "digest",
    "os_threads",
    "run_process",
    "run_sampled",
]

MIB = 1024 * 1024


def _now() -> float:
    return SAMPLER.now()


def digest(obj) -> str:
    """sha256 of ``obj``'s canonical JSON (or of bytes as given)."""
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(obj).hexdigest()


def _cpu_seconds() -> float:
    """User+system CPU of this process's main thread and of its reaped
    children, less the sampler's.

    The program runs on the main thread; any other thread is a library's
    helper (a BLAS pool), whose spinning would be charged to the rep.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + kids.ru_utime + kids.ru_stime - SAMPLER.spent


def os_threads() -> Optional[int]:
    """Native threads of this process (``None`` where /proc is missing)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


@dataclass
class ProcessRun:
    """One finished subprocess, as measured by ``wait4``."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: bytes
    #: Host-normalised seconds per second (:func:`run_sampled` only).
    factor: Optional[float] = None


def run_process(argv: List[str], env: Dict[str, str], cwd: str) -> ProcessRun:
    """Run ``argv`` to completion and measure it from spawn to reap."""
    # The subprocess runs on while this process's sampler works, so the
    # plain clock times it.
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, cwd=cwd)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(
        wall_s=t1 - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        code=proc.returncode,
        stdout=out,
    )


def run_sampled(module: str, args: List[str], env: Dict[str, str], cwd: str,
                stats_path: str) -> ProcessRun:
    """``python -m module args`` under the host-speed sampler.

    Its wall and CPU times come back less the sampler's work, with the
    process's own host-speed ``factor``.
    """
    if os.path.exists(stats_path):
        os.remove(stats_path)
    run = run_process([sys.executable, "-m", "benchmarks.e2e.hostspeed", stats_path,
                       module, *args], env, cwd)
    with open(stats_path, encoding="utf-8") as fh:
        stats = json.load(fh)
    run.wall_s -= stats["spent"]
    run.cpu_s -= stats["spent"]
    run.factor = factor_of(stats)
    return run


@dataclass
class Context:
    """What a workload needs from its caller."""

    root: str
    workdir: str
    seed: int
    #: Environment for subprocesses: ``src`` and the repo root importable.
    env: Dict[str, str]
    #: Index in the run of this process's first rep: the run's reps are
    #: shared between several processes, and seeded inputs follow the index.
    first_rep: int = 0


@dataclass
class Rep:
    """One rep: timing samples, operations attempted, output digests."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    #: Problems the workload found itself (beyond digest mismatches).
    errors: List[str] = field(default_factory=list)
    #: Per-layer values the workload measures itself (traced rep only).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Host-normalised seconds per second the ``*_s`` samples are already
    #: scaled by; ``None`` leaves the scaling to the caller.
    host_factor: Optional[float] = None


def _scope(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Workload:
    """Base class: a named, seeded, closed-loop workload."""

    name = ""
    #: Why the workload is in the benchmark (mirrored in BENCHMARK.json).
    why = ""
    #: What the seed changes in this workload's inputs.
    inputs = "none: no random inputs"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        """Import what the reps need and make the inputs from the seed."""

    def warmup(self) -> None:
        """Pay lazy imports and first-call costs before timing starts."""

    def rep(self, tracer=None) -> Rep:
        """One closed-loop iteration."""
        raise NotImplementedError

    def _tmpdir(self, tag: str) -> str:
        path = os.path.join(self.ctx.workdir, tag)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


class ColdCli(Workload):
    name = "cold-cli"
    why = ("fresh `repro characterize --intervals 72` and `repro --help` processes: "
           "imports dominate and the simulation barely runs")

    #: The timed command; ``--help`` is timed beside it as the CLI's set-up.
    COMMAND = ("characterize", "--intervals", "72")

    def _cli(self, module: str, *args: str) -> ProcessRun:
        stats_path = os.path.join(self.ctx.workdir, "hostspeed.json")
        return run_sampled(module, list(args), self.ctx.env, self.ctx.root, stats_path)

    def warmup(self) -> None:
        # Compiles the bytecode a fresh checkout does not have yet.
        self._cli("repro", *self.COMMAND)

    def rep(self, tracer=None) -> Rep:
        """Each process's times scaled by that process's own host speed."""
        if tracer is not None:
            return self._traced_rep(tracer)
        run = self._cli("repro", *self.COMMAND)
        help_run = self._cli("repro", "--help")
        rep = Rep(
            samples={
                "wall_s": [run.wall_s * run.factor],
                "cpu_s": [run.cpu_s * run.factor],
                "peak_rss_mb": [run.peak_rss_mb],
                "setup_s": [help_run.wall_s * help_run.factor],
            },
            attempted=2,
            digests={"characterize": digest(run.stdout), "help": digest(help_run.stdout)},
            host_factor=run.factor,
        )
        for label, proc in (("characterize", run), ("--help", help_run)):
            if proc.code != 0:
                rep.errors.append(f"repro {label} exited {proc.code}")
        return rep

    def _traced_rep(self, tracer) -> Rep:
        spans_path = os.path.join(self.ctx.workdir, "cli-spans.jsonl")
        with tracer.span("bench.rep"):
            with tracer.span("import.process") as process_span:
                run = self._cli("benchmarks.e2e.spans", spans_path, *self.COMMAND)
        tracer.adopt_subprocess(spans_path, process_span.id)
        rep = Rep(
            samples={"wall_s": [run.wall_s * run.factor]},
            attempted=1,
            digests={"characterize": digest(run.stdout)},
            host_factor=run.factor,
        )
        if run.code != 0:
            rep.errors.append(f"traced repro characterize exited {run.code}")
        return rep


class SweepCache(Workload):
    name = "sweep-cache"
    why = ("Fig. 3 grid (6 cells) into a fresh disk cache, 50 warm replays, calibrate and "
           "Fig. 9/10 sweeps, inline: cluster power accounting fills the cache, the exec "
           "layer replays it")
    inputs = ("request order: each rep submits the 6 requests in a fresh order drawn "
              "from the seed and the rep's index")

    #: Cadences of the cold pass: the Fig. 3 grid the study calibrates from.
    INTERVALS = (8.0, 24.0, 72.0)
    #: Warm passes over the whole request set per rep.
    REPLAYS = 50
    #: Fig. 9 and Fig. 10 cadence axes, as `repro bench` sweeps them.
    FIG9_HOURS = (1.0, 4.0, 8.0, 24.0, 72.0, 192.0, 384.0)
    FIG10_HOURS = (1.0, 2.0, 4.0, 8.0, 12.0, 24.0, 48.0, 96.0)
    #: Paper invariants and the tolerances tests/test_core_model.py uses.
    TOLERANCES = {"t_sim_ref": 7.0, "alpha": 0.25, "beta": 0.05}

    def setup(self) -> None:
        import repro
        from repro import paper
        from repro.exec.bench import sweep_requests
        from repro.exec.cache import DiskCache
        from repro.exec.engine import ExecutionEngine

        self.repro = repro
        self.paper = paper
        self.DiskCache = DiskCache
        self.ExecutionEngine = ExecutionEngine
        self.requests = sweep_requests(self.INTERVALS)
        self.warmup_requests = sweep_requests((self.INTERVALS[-1],))[:1]
        self.n_reps = self.ctx.first_rep

    def _cache(self, tag: str):
        # An explicit code version keeps DiskCache from spawning `git`.
        return self.DiskCache(self._tmpdir(tag), code_version="benchmarks.e2e")

    def warmup(self) -> None:
        engine = self.ExecutionEngine(cache=self._cache("warmup"))
        engine.map(self.warmup_requests)
        engine.map(self.warmup_requests)

    def rep(self, tracer=None) -> Rep:
        self.n_reps += 1
        requests = list(self.requests)
        # Drawn from the seed and the rep's index in the run, whichever
        # process runs the rep.
        random.Random(f"{self.ctx.seed}:{self.n_reps}").shuffle(requests)
        cache = self._cache(f"cache-{self.n_reps}")
        # Inline: a worker pool would need both CPUs of a small host at
        # once, and its timings would then follow the host's other load.
        engine = self.ExecutionEngine(cache=cache)
        replays, replay_s = [], []
        cpu0 = _cpu_seconds()
        t0 = _now()
        with _scope(tracer, "bench.rep"):
            cold = engine.map(requests)
            for _ in range(self.REPLAYS):
                t = _now()
                replays.append(engine.map(requests))
                replay_s.append(_now() - t)
            study = self.repro.run_characterization(intervals_hours=self.INTERVALS,
                                                    engine=engine)
            calibration = study.calibrate()
            analyzer = study.analyzer()
            duration = study.spec.ocean.duration_seconds
            fig9 = analyzer.storage_vs_rate(intervals_hours=self.FIG9_HOURS,
                                            duration_seconds=duration)
            fig10 = analyzer.energy_vs_rate(intervals_hours=self.FIG10_HOURS,
                                            duration_seconds=duration)
        t1 = _now()
        cpu = _cpu_seconds() - cpu0
        rep = Rep(
            samples={"wall_s": [t1 - t0], "cpu_s": [cpu], "replay_s": replay_s},
            attempted=len(cold) * (1 + self.REPLAYS) + 1,
        )
        results = self._canonical(cold)
        model = calibration.model
        rep.digests = {
            "results": digest(results),
            "study": digest({
                "calibration": {"t_sim_ref": model.t_sim_ref, "alpha": model.alpha,
                                "beta": model.beta, "power_watts": model.power_watts},
                "fig9": [list(row) for row in fig9],
                "fig10": [list(row) for row in fig10],
            }),
        }
        if any(r.cache_hit for r in cold):
            rep.errors.append("cold pass hit a fresh cache")
        for batch in replays:
            if not all(r.cache_hit for r in batch) or self._canonical(batch) != results:
                rep.errors.append("a warm replay differs from the cold pass")
                break
        paper = self.paper
        for key, expected in (("t_sim_ref", paper.EQ5_T_SIM),
                              ("alpha", paper.EQ5_ALPHA_S_PER_GB),
                              ("beta", paper.EQ5_BETA_S_PER_IMAGE)):
            value = getattr(model, key)
            if abs(value - expected) > self.TOLERANCES[key]:
                rep.errors.append(f"calibrated {key} = {value:.4g}, paper {expected}")
        if tracer is not None:
            rep.layer = {"exec.cache_mb": _tree_bytes(cache.directory) / MIB}
        shutil.rmtree(cache.directory, ignore_errors=True)
        return rep

    @staticmethod
    def _canonical(results) -> list:
        """Identity payloads in request-identity order, whatever the shuffle."""
        return sorted((r.identity_dict() for r in results),
                      key=lambda d: json.dumps(d["request"], sort_keys=True))


class FaultsTraced(Workload):
    name = "faults-traced"
    why = ("powercap-stress fault campaign with telemetry on, alternated with the "
           "same run off: obs does most of the host work")
    inputs = ("fault schedules: eight per run, one per rep in turn; the first is the "
              "template's own faults.seed = 3, the other seven are drawn from the seed")

    SCENARIO = os.path.join("scenarios", "powercap-stress.yaml")
    #: Fault schedules a run takes in turn, one per rep.  Schedules differ
    #: in how much recovery work they cause; a median over eight of them
    #: depends less on the seed than a few schedules would.
    SCHEDULES = 8
    #: The template's own schedule, first in every run: every process's
    #: warm-up, the run's first rep and the traced rep run it whatever the
    #: seed, so their counts and golden digests hold for every seed.
    TEMPLATE_FAULT_SEED = 3

    def setup(self) -> None:
        from repro import obs
        import repro.scenario.loader as loader
        import repro.scenario.run as scenario_run

        self.obs = obs
        self.loader = loader
        self.scenario_run = scenario_run
        rng = random.Random(self.ctx.seed)
        fault_seeds = [self.TEMPLATE_FAULT_SEED]
        fault_seeds += [rng.randrange(1, 2**31) for _ in range(self.SCHEDULES - 1)]
        self.overrides = [[f"faults.seed={s}"] for s in fault_seeds]
        self.path = os.path.join(self.ctx.root, self.SCENARIO)
        self.n_reps = self.ctx.first_rep

    def _run(self, overrides: List[str], directory: Optional[str]) -> bytes:
        """One scenario run (load included); telemetry on iff ``directory``."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            scenario = self.loader.load_scenario(self.path, overrides=overrides)
            if directory is None:
                self.scenario_run.run_scenario(scenario, json_output=True)
            else:
                timeline = self.obs.TimelineConfig(power_cap_watts=scenario.power.cap_watts)
                with self.obs.session(directory, timeline=timeline):
                    self.scenario_run.run_scenario(scenario, json_output=True)
        return buf.getvalue().encode("utf-8")

    def warmup(self) -> None:
        self._run(self.overrides[0], self._tmpdir("warmup"))
        self._run(self.overrides[0], None)

    def rep(self, tracer=None) -> Rep:
        """The next schedule telemetry-on (timed), then off, unless traced.

        The traced rep always runs the first schedule, so that its counts
        repeat however many reps fitted in the run.
        """
        i = 0 if tracer is not None else self.n_reps % self.SCHEDULES
        self.n_reps += 1
        overrides = self.overrides[i]
        directory = self._tmpdir(f"telemetry-{self.n_reps}")
        cpu0, t0 = _cpu_seconds(), _now()
        with _scope(tracer, "bench.rep"):
            output = self._run(overrides, directory)
        rep = Rep(samples={"wall_s": [_now() - t0], "cpu_s": [_cpu_seconds() - cpu0]},
                  attempted=1)
        if tracer is None:
            t0 = _now()
            off = self._run(overrides, None)
            rep.samples["off_wall_s"] = [_now() - t0]
            rep.attempted += 1
            if off != output:
                rep.errors.append(f"{overrides[0]}: telemetry on and off differ")
        rep.digests[f"scenario-{i}"] = digest(output)
        sizes = {}
        for key in ("events", "timeline"):
            with open(os.path.join(directory, f"{key}.jsonl"), "rb") as fh:
                data = fh.read()
            rep.digests[f"{key}-{i}"] = digest(data)
            sizes[key] = len(data)
        shutil.rmtree(directory, ignore_errors=True)
        if tracer is not None:
            rep.layer = {"obs.events_mb": sizes["events"] / MIB,
                         "obs.timeline_mb": sizes["timeline"] / MIB}
        return rep


def _tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


WORKLOADS = {cls.name: cls for cls in (ColdCli, SweepCache, FaultsTraced)}
