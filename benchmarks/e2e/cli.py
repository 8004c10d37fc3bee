"""Command line of the end-to-end benchmark: ``run``, ``compare``, ``pin``.

``run`` measures workloads one after another, each in ``SPAWNS`` fresh
child processes of its own, one at a time (``child`` is the internal
command they run):

* a workload's set-up is timed from spawning a child until its first timed
  rep starts, in every child, so ``setup_s`` is a median;
* the children share the run's ``--seconds`` of closed-loop reps: each
  runs at least one rep and stops when the run's reps so far have taken
  its share of the time, and together they run at least ``MIN_REPS``.
  A median over reps from several processes rides out what stays fixed
  for the life of one process: its CPU, its memory layout, its neighbours;
* with ``--trace 1``, the last child then runs one more rep with the
  tracer installed;
* every time reported is in host-normalised seconds (see ``hostspeed.py``):
  each child runs the host-speed sampler from its start, and scales each
  rep's times, and its set-up time, by the host's speed over them;
* every rep's outputs are checked against the first rep of the run that
  produced the same output and against ``golden.json``; a mismatch fails
  the rep's operations and the run.

Working files go under ``.bench_build/`` in the checkout and are removed
when the run ends.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from benchmarks.e2e import metrics as catalogue
from benchmarks.e2e.hostspeed import SAMPLER
from benchmarks.e2e.spans import Tracer, layer_metrics
from benchmarks.e2e.workloads import WORKLOADS, Context, os_threads, run_process

__all__ = ["main"]

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GOLDEN = os.path.join(ROOT, "benchmarks", "e2e", "golden.json")

#: Children spawned per workload, one after another.
SPAWNS = 5
#: Timed reps a run holds at least, however short ``--seconds`` is.
MIN_REPS = 5
#: Samples behind each import-layer measurement of a traced run.
IMPORT_PROBES = 3
#: Wall-clock budget of one workload, kept under the 180 s a run may take.
WORKLOAD_BUDGET_S = 170.0

_IMPORT_PROBE = (
    "import sys, time\n"
    "n = len(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import repro.cli\n"
    "print(time.perf_counter() - t, len(sys.modules) - n)\n"
)


def _now() -> float:
    return time.perf_counter()


def _env() -> Dict[str, str]:
    """This environment with ``src`` and the repo root importable.

    String hashing is fixed, so that dict and set layouts, and with them
    the timings, do not differ from one child process to the next.  BLAS
    runs one thread: the model's few small solves gain nothing from more,
    and OpenBLAS's idle threads spin at ``import numpy`` for ~0.3 s of CPU
    on another core, whose speed drifts apart from the timed one's.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _missing_sources() -> Optional[str]:
    for rel in (os.path.join("src", "repro", "__init__.py"),
                os.path.join("scenarios", "powercap-stress.yaml")):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            return rel
    return None


# ---------------------------------------------------------------- the child


def _load_golden(path: str, workload, seed: int) -> Dict[str, str]:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        entry = json.load(fh)["workloads"].get(workload.name)
    if entry is None or (entry["seed"] is not None and entry["seed"] != seed):
        return {}
    return entry["digests"]


def _check(rep, first: Dict[str, str], golden: Dict[str, str]) -> List[str]:
    problems = list(rep.errors)
    for key, value in sorted(rep.digests.items()):
        if first.get(key, value) != value:
            problems.append(f"{key} differs from the run's first rep")
        if golden.get(key, value) != value:
            problems.append(f"{key} differs from golden.json")
    return problems


def _import_probes(env: Dict[str, str]) -> Dict[str, float]:
    """``import repro.cli`` and bare interpreter start, in fresh processes."""
    interp, cli, modules = [], [], 0.0
    for _ in range(IMPORT_PROBES):
        interp.append(run_process([sys.executable, "-c", "pass"], env, ROOT).wall_s)
        out = run_process([sys.executable, "-c", _IMPORT_PROBE], env, ROOT).stdout.split()
        cli.append(float(out[0]))
        modules = float(out[1])
    return {"import.interpreter_s": statistics.median(interp),
            "import.cli_s": statistics.median(cli),
            "import.modules": modules}


def _scaled_rep(workload, tracer=None):
    """One rep, its ``*_s`` samples in host-normalised seconds."""
    mark = SAMPLER.mark()
    rep = workload.rep(tracer)
    if rep.host_factor is None:
        rep.host_factor = SAMPLER.factor(mark)
        rep.samples = {
            key: [v * rep.host_factor for v in values] if key.endswith("_s") else values
            for key, values in rep.samples.items()
        }
    return rep


def _child(args: argparse.Namespace) -> int:
    SAMPLER.start()
    try:
        return _child_run(args)
    finally:
        # At exit the interpreter drops the handler; a SIGPROF after that
        # would kill the process.
        SAMPLER.stop()


def _child_run(args: argparse.Namespace) -> int:
    started = SAMPLER.mark()
    env = _env()
    ctx = Context(root=ROOT, workdir=args.workdir, seed=args.seed, env=env,
                  first_rep=args.first_rep)
    workload = WORKLOADS[args.workload](ctx)
    workload.setup()
    workload.warmup()
    # The parent turns spawn-to-ready into set-up time with these; a child
    # that only waits on subprocesses has no samples of its own.
    result: dict = {"t_ready": _now(), "setup_spent": SAMPLER.spent,
                    "setup_factor": SAMPLER.factor(started) if SAMPLER.n else None}
    reps = [_scaled_rep(workload)]
    # Read after a fixed amount of work (set-up, warm-up, one rep), so the
    # high-water mark does not depend on how many reps fit in --seconds.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = result["t_ready"]
    while len(reps) < args.min_reps or _now() - start < args.seconds:
        reps.append(_scaled_rep(workload))
    result["timed_s"] = _now() - start
    result["threads"] = os_threads()
    samples: Dict[str, List[float]] = {}
    for rep in reps:
        for key, values in rep.samples.items():
            samples.setdefault(key, []).extend(values)
    traced = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = _scaled_rep(workload, tracer)
        finally:
            tracer.uninstall()
        root = next(s["id"] for s in tracer.spans if s["name"] == "bench.rep")
        layer = layer_metrics(tracer.spans, tracer.counts, root)
        # Sizes only the cache and telemetry workloads produce; zero elsewhere.
        layer.update({"exec.cache_mb": 0.0, "obs.events_mb": 0.0, "obs.timeline_mb": 0.0})
        layer.update(traced.layer)
        layer.update(_import_probes(env))
        result["layer"] = layer
        result["traced_wall_s"] = traced.samples["wall_s"][0]
        result["spans"] = os.path.join(args.workdir, "spans.jsonl")
        tracer.write(result["spans"])
    golden = _load_golden(args.golden, workload, args.seed)
    # Each output's digest as the run's first rep that produced it had it.
    first: Dict[str, str] = {}
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            first.update(json.load(fh))
    for rep in reps:
        for key, value in rep.digests.items():
            first.setdefault(key, value)
    attempted = failed = 0
    errors: List[str] = []
    for rep in reps + ([traced] if traced is not None else []):
        attempted += rep.attempted
        problems = _check(rep, first, golden)
        if problems:
            failed += rep.attempted
            errors.extend(problems)
    result.update(samples=samples, attempted=attempted, failed=failed,
                  errors=sorted(set(errors)), digests=first,
                  host_factors=[rep.host_factor for rep in reps])
    _write_json(args.result, result)
    return 0


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


# --------------------------------------------------------------- the parent


def _spawn(argv: List[str], log_path: str, timeout: float) -> int:
    """Run a child in its own session; kill the whole session when done."""
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log, env=_env(),
                                cwd=ROOT, start_new_session=True)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # Anything the child left behind (or the child itself, on a
            # timeout) goes with its session.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    return -1 if code is None else code


def _measure(name: str, args: argparse.Namespace, workdir: str) -> dict:
    """One workload: its children one after another, their reps merged."""
    deadline = _now() + WORKLOAD_BUDGET_S
    spawns = 1 if args.quick else SPAWNS
    seconds = 0.0 if args.quick else args.seconds
    setup_s, peak_rss, threads = [], [], []
    samples: Dict[str, List[float]] = {}
    host_factors: List[float] = []
    attempted = failed = 0
    errors: List[str] = []
    timed_s = 0.0
    reference_path = os.path.join(workdir, f"{name}-reference.json")
    log_path = os.path.join(workdir, f"{name}.log")
    for k in range(spawns):
        last = k == spawns - 1
        child_dir = os.path.join(workdir, f"{name}-{k}")
        os.makedirs(child_dir)
        result_path = os.path.join(child_dir, "result.json")
        # The run's reps so far have taken timed_s; this child runs until
        # they have taken its share of --seconds, and the last one until
        # the run holds MIN_REPS.
        share = seconds * (k + 1) / spawns - timed_s
        min_reps = max(1, MIN_REPS - len(host_factors)) if last and not args.quick else 1
        argv = [sys.executable, "-m", "benchmarks.e2e", "child", "--workload", name,
                "--seed", str(args.seed), "--seconds", repr(max(share, 0.0)),
                "--trace", str(args.trace if last else 0), "--golden", args.golden,
                "--first-rep", str(len(host_factors)), "--min-reps", str(min_reps),
                "--workdir", child_dir, "--result", result_path]
        if k:
            argv += ["--reference", reference_path]
        t_spawn = _now()
        code = _spawn(argv, log_path, deadline - _now())
        if code != 0 or not os.path.isfile(result_path):
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"{name}: child exited {code}\n{tail}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if result["setup_factor"] is not None:
            setup_s.append((result["t_ready"] - t_spawn - result["setup_spent"])
                           * result["setup_factor"])
        for key, values in result["samples"].items():
            samples.setdefault(key, []).extend(values)
        peak_rss.append(result["peak_rss_mb"])
        threads.append(result["threads"])
        host_factors += result["host_factors"]
        attempted += result["attempted"]
        failed += result["failed"]
        errors += result["errors"]
        timed_s += result["timed_s"]
        _write_json(reference_path, result["digests"])
    layer_values = result.get("layer") or {}
    if "traced_wall_s" in result:
        layer_values["trace.overhead_ratio"] = (
            result["traced_wall_s"] / statistics.median(samples["wall_s"]))
    if "off_wall_s" in samples and layer_values:
        layer_values["obs.overhead_ratio"] = (
            statistics.median(samples["wall_s"]) / statistics.median(samples["off_wall_s"]))
    samples.setdefault("setup_s", setup_s)
    samples.setdefault("peak_rss_mb", peak_rss)
    samples["failed_frac"] = [failed / attempted]
    known = catalogue.by_name()
    e2e = {
        key: dict(catalogue.summarize(values), unit=known[key].unit)
        for key, values in sorted(samples.items()) if key in known
    }
    layer = {
        key: {"value": value, "unit": known[key].unit if key in known else "s"}
        for key, value in sorted(layer_values.items())
    }
    return {
        "why": WORKLOADS[name].why,
        "inputs": WORKLOADS[name].inputs,
        "attempted": attempted,
        "failed": failed,
        "errors": sorted(set(errors)),
        "digests": result["digests"],
        "e2e": e2e,
        "layer": layer,
        "host_factor": catalogue.summarize(host_factors),
        # Native threads of each child after its reps: one means nothing
        # ran beside the program's own thread.
        "threads": threads,
        "spans": result.get("spans"),
    }


def _contract_metrics(report: dict, trace: int, prefix: str = "") -> dict:
    kind = catalogue.LAYER if trace else catalogue.E2E
    section = report["layer"] if trace else report["e2e"]
    return {
        prefix + m.name: {"value": section[m.name]["value"], "unit": m.unit}
        for m in catalogue.METRICS if m.contract and m.kind == kind
    }


def _print_workload(name: str, report: dict) -> None:
    print(f"== {name}: {report['why']}")
    print(f"   seeded inputs: {report['inputs']}")
    print(f"   operations: {report['failed']} failed of {report['attempted']}")
    factor = report["host_factor"]
    print(f"   host factor    {factor['value']:.4g} host-normalised s per s  "
          f"[q1 {factor['q1']:.4g}, q3 {factor['q3']:.4g}]  n={factor['n']}")
    print(f"   threads per child: {report['threads']}")
    for key, stats in report["e2e"].items():
        tail = stats["tail"]
        tail_text = (f"p{tail['pct']} {tail['value']:.6g}" if tail
                     else f"no percentile above p50 has 10 samples beyond it (n={stats['n']})")
        print(f"   {key:<14} {stats['value']:.6g} {stats['unit']}  "
              f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}]  n={stats['n']}  {tail_text}")
    for key, value in report["layer"].items():
        print(f"   {key:<32} {value['value']:.6g} {value['unit']}")
    for error in report["errors"]:
        print(f"   ERROR {error}")


def _work_dir() -> str:
    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    return tempfile.mkdtemp(prefix="e2e-", dir=build_dir)


def _run(args: argparse.Namespace) -> int:
    missing = _missing_sources()
    if missing is not None:
        print(f"benchmarks.e2e: {missing} not found under {ROOT}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    workdir = _work_dir()
    try:
        reports = {}
        for name in names:
            reports[name] = _measure(name, args, workdir)
            if len(names) > 1:
                _print_workload(name, reports[name])
        if args.out:
            _write_outputs(args, reports)
    except RuntimeError as exc:
        print(f"benchmarks.e2e: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    for name, report in reports.items():
        for error in report["errors"]:
            print(f"benchmarks.e2e: {name}: {error}", file=sys.stderr)
    if len(names) == 1:
        metrics = _contract_metrics(reports[names[0]], args.trace)
    else:
        metrics = {}
        for name, report in reports.items():
            metrics.update(_contract_metrics(report, args.trace, prefix=f"{name}."))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _write_outputs(args: argparse.Namespace, reports: dict) -> None:
    os.makedirs(args.out, exist_ok=True)
    if args.trace:
        with open(os.path.join(args.out, "trace.jsonl"), "w", encoding="utf-8") as out:
            for name, report in reports.items():
                with open(report["spans"], encoding="utf-8") as fh:
                    for line in fh:
                        record = json.loads(line)
                        record["workload"] = name
                        out.write(json.dumps(record) + "\n")
    host = {"cpus": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system()}
    _write_json(os.path.join(args.out, "report.json"), {
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "trace": args.trace, "host": host,
        "workloads": {name: {k: v for k, v in r.items() if k != "spans"}
                      for name, r in reports.items()},
    })


def _pin(args: argparse.Namespace) -> int:
    """Rewrite golden.json from one quick seed-0 run of every workload."""
    args.seed, args.seconds, args.trace, args.quick = 0, 0.0, 0, True
    args.golden = ""
    workdir = _work_dir()
    try:
        pinned = {}
        for name in WORKLOADS:
            report = _measure(name, args, workdir)
            if report["failed"]:
                print(f"benchmarks.e2e: {name}: {report['errors']}", file=sys.stderr)
                return 1
            pinned[name] = {"seed": None, "digests": report["digests"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _write_json(GOLDEN, {"schema": 1, "workloads": pinned})
    print(f"wrote {GOLDEN}")
    return 0


def _load_side(path: str) -> dict:
    """A report file, a run directory, or a directory of run directories."""
    if os.path.isfile(path):
        paths = [path]
    elif os.path.isfile(os.path.join(path, "report.json")):
        paths = [os.path.join(path, "report.json")]
    else:
        paths = [os.path.join(path, d, "report.json") for d in sorted(os.listdir(path))
                 if os.path.isfile(os.path.join(path, d, "report.json"))]
    if not paths:
        raise SystemExit(f"benchmarks.e2e: no report.json under {path}")
    reports = []
    for report_path in paths:
        with open(report_path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return catalogue.merge_reports(reports)


def _compare(args: argparse.Namespace) -> int:
    rows, ok = catalogue.compare_reports(_load_side(args.base), _load_side(args.change))
    for row in rows:
        detail = row["detail"]
        if "base" in row:
            b, c = row["base"], row["change"]
            text = (f"{b['value']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] n={b['n']}  ->  "
                    f"{c['value']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] n={c['n']}")
        else:
            text = f"{detail['base']:.6g}  ->  {detail['change']:.6g}"
        print(f"{row['workload']:<14} {row['metric']:<32} {row['unit']:<6} "
              f"{text}  {row['verdict']}")
    print("compare: ok" if ok else "compare: regression or count mismatch")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=25.0,
                       help="how long each workload's timed reps run")
        p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                       help="1: add one traced rep per workload (per-layer metrics)")
        p.add_argument("--quick", action="store_true",
                       help="one child and one rep per workload; no timing verdicts")
        p.add_argument("--golden", default=GOLDEN, help="golden digests to check against")

    run = sub.add_parser("run", help="measure the workloads")
    add_run_args(run)
    run.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                     help="workload to run (repeatable; default: all three)")
    run.add_argument("--out", help="directory for report.json and trace.jsonl")
    run.set_defaults(func=_run)

    compare = sub.add_parser(
        "compare", help="verdicts of CHANGE against BASE",
        description="Each side is a report.json, a --out directory, or a directory "
                    "of --out directories (one per run; runs pair up in name order).")
    compare.add_argument("base")
    compare.add_argument("change")
    compare.set_defaults(func=_compare)

    pin = sub.add_parser("pin", help="rewrite golden.json from a seed-0 run")
    pin.set_defaults(func=_pin)

    child = sub.add_parser("child", help=argparse.SUPPRESS)
    add_run_args(child)
    child.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    child.add_argument("--workdir", required=True)
    child.add_argument("--result", required=True)
    child.add_argument("--first-rep", type=int, default=0,
                       help="index in the run of this child's first rep")
    child.add_argument("--min-reps", type=int, default=1)
    child.add_argument("--reference", help="digests of the run's earlier reps")
    child.set_defaults(func=_child)

    args = parser.parse_args(argv)
    return args.func(args)
