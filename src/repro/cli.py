"""Command-line interface: ``python -m repro <command>``.

Commands map onto the paper's sections:

* ``characterize`` — run the Section V experiment grid, print the table.
* ``calibrate``    — fit Eq. 5 and validate on held-out cells (Fig. 8).
* ``whatif``       — Figs. 9/10 sweeps for an arbitrary campaign length.
* ``faults``       — seeded fault campaign: both pipelines under identical
  fault loads, with and without checkpoint/restart (see ``repro.faults``).
* ``plan``         — the Section VII advisor: pipeline + cadence under budgets.
* ``report``       — the full Markdown study report (all sections).
* ``hypotheses``   — score the Section II-C hypotheses (the §V-A findings box).
* ``quality``      — measured eddy-tracking fidelity vs cadence (extension).
* ``proportionality`` — the storage/compute power-proportionality tables.
* ``bench``        — run the fig3/fig9/fig10 sweep set through the execution
  engine (serial vs parallel vs cached) and emit ``BENCH_exec.json``, which
  ``repro obs ingest`` records in the run store for ``repro obs trend``.
* ``run``          — execute a declarative scenario file (YAML/JSON; see
  ``repro.scenario`` and ``docs/SCENARIOS.md``), with ``--set`` overrides.
* ``scenario``     — validate/hash scenario files and check the template
  gallery under ``scenarios/`` against its digest manifest.
* ``lint``         — the project's static-analysis pass (see ``repro.lint``).
* ``obs``          — inspect telemetry run directories: ``summarize``,
  ``dump``, ``diff`` (two manifests or BENCH files, threshold-gated) and
  ``report`` (self-contained HTML) — see ``repro.obs.cli``.
* ``profile``      — span-level energy attribution of a recorded run: text
  tree, ``--flamegraph`` folded stacks, ``--json`` (see ``repro.obs.profile``).

``characterize``, ``report`` and ``whatif`` accept ``--telemetry PATH`` to
record the run's spans, metrics and manifest under ``PATH``.  Telemetry
runs also sample a continuous resource timeline (``timeline.jsonl``) with
watchdog alerting — tune with ``--timeline-interval`` / ``--power-cap`` or
disable with ``--no-timeline``;
``characterize`` and ``hypotheses`` accept ``--json`` for machine-readable
output.  Grid-running commands accept ``--workers N`` (fan the runs out
over a process pool; results stay bit-identical to serial) and
``--cache DIR`` (memoize completed runs on disk).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro import obs, run_characterization
from repro.analysis.quality import evaluate_sampling_quality, quality_table
from repro.core.advisor import Constraints, PipelineAdvisor
from repro.core.characterization import CharacterizationStudy, storage_power_sweep
from repro.core.metrics import IN_SITU, POST_PROCESSING
from repro.units import format_energy, kwh_to_joules, years

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Characterizing and Modeling Power and "
        "Energy for Extreme-Scale In-Situ Visualization' (IPDPS 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    telemetry_help = "record spans/metrics/manifest under this directory"

    def add_telemetry_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--telemetry", default=None, metavar="PATH", help=telemetry_help)
        p.add_argument(
            "--timeline-interval", type=float, default=None, metavar="SECONDS",
            help="timeline sampling grid in simulated seconds "
            "(default: the run window / 128)",
        )
        p.add_argument(
            "--no-timeline", action="store_true",
            help="disable continuous timeline sampling under --telemetry",
        )
        p.add_argument(
            "--power-cap", type=float, default=None, metavar="WATTS",
            help="watchdog power cap: sampled draw above this emits a "
            "critical obs.alert",
        )
        p.add_argument(
            "--store", default=None, metavar="DIR",
            help="after the run, ingest its telemetry into this run "
            "registry (needs --telemetry; query with `repro obs query`)",
        )

    def add_pool_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="fan simulation runs out over N worker processes",
        )
        p.add_argument(
            "--cache", default=None, metavar="DIR",
            help="memoize completed runs in this on-disk cache",
        )

    def add_engine_args(p: argparse.ArgumentParser) -> None:
        add_pool_args(p)
        p.add_argument(
            "--deadline", type=float, default=None, metavar="SECONDS",
            help="per-task wall-clock deadline (pooled tasks; see "
            "docs/RESILIENCE.md)",
        )
        p.add_argument(
            "--task-retries", type=int, default=None, metavar="N",
            help="attempts per task including the first (default 3)",
        )
        p.add_argument(
            "--max-worker-crashes", type=int, default=None, metavar="N",
            help="worker crashes before a task is quarantined as poison "
            "(default 3)",
        )
        p.add_argument(
            "--fail-policy", default=None,
            choices=["abort", "skip", "serial-fallback"],
            help="what an exhausted task does to the sweep (default abort)",
        )
        p.add_argument(
            "--journal", default=None, metavar="PATH",
            help="append per-task outcomes to this sweep journal",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="skip tasks the journal records as done, replaying them "
            "from --cache (needs --journal and --cache)",
        )

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--emit-scenario", default=None, metavar="PATH",
            help="write this invocation as a scenario file (YAML or JSON by "
            "extension) and exit without running",
        )

    p = sub.add_parser("characterize", help="run the Section V experiment grid")
    p.add_argument(
        "--intervals", type=float, nargs="+", default=[8.0, 24.0, 72.0],
        metavar="HOURS", help="sampling cadences in simulated hours",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    add_telemetry_args(p)
    add_engine_args(p)
    add_scenario_args(p)

    p = sub.add_parser("calibrate", help="fit Eq. 5 and validate (Fig. 8)")

    p = sub.add_parser("whatif", help="Figs. 9/10 sweeps")
    p.add_argument("--years", type=float, default=100.0, help="campaign length")
    p.add_argument(
        "--intervals", type=float, nargs="+",
        default=[1.0, 8.0, 24.0, 72.0, 192.0], metavar="HOURS",
    )
    p.add_argument(
        "--mtbf-hours", type=float, default=None,
        help="also print the failure-aware sweep at this node MTBF",
    )
    p.add_argument(
        "--checkpoint-write-seconds", type=float, default=60.0,
        help="checkpoint write cost for the failure-aware sweep",
    )
    p.add_argument(
        "--restart-seconds", type=float, default=30.0,
        help="recovery cost for the failure-aware sweep",
    )
    add_telemetry_args(p)
    add_engine_args(p)
    add_scenario_args(p)

    p = sub.add_parser(
        "faults", help="seeded fault campaign: both pipelines, identical faults"
    )
    p.add_argument(
        "--mtbf-hours", type=float, default=6.0,
        help="node mean time between crashes (simulated hours)",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=8,
        help="checkpoint cadence in pipeline outputs",
    )
    p.add_argument("--seed", type=int, default=57, help="fault-schedule seed")
    p.add_argument(
        "--interval", type=float, default=24.0, metavar="HOURS",
        help="sampling cadence (simulated hours)",
    )
    p.add_argument(
        "--months", type=float, default=6.0, help="campaign length (simulated months)"
    )
    p.add_argument(
        "--restart-penalty", type=float, default=30.0, metavar="SECONDS",
        help="fixed restart cost paid per recovery",
    )
    p.add_argument(
        "--brownout-rate", type=float, default=0.0, metavar="PER_HOUR",
        help="write-bandwidth brownout arrival rate",
    )
    p.add_argument(
        "--io-error-rate", type=float, default=0.0, metavar="PER_HOUR",
        help="transient I/O error arrival rate",
    )
    p.add_argument(
        "--no-unprotected", action="store_true",
        help="skip the unprotected (no-checkpoint) comparison runs",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    add_telemetry_args(p)
    add_engine_args(p)
    add_scenario_args(p)

    p = sub.add_parser(
        "run", help="execute a declarative scenario file (YAML or JSON)"
    )
    p.add_argument("path", help="scenario file")
    p.add_argument(
        "--set", action="append", default=[], metavar="KEY.PATH=VALUE",
        dest="overrides",
        help="override a scenario value before validation (repeatable), "
        "e.g. --set sampling.intervals_hours=[8,24]",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    add_telemetry_args(p)

    p = sub.add_parser(
        "scenario", help="validate/hash scenario files; check the gallery"
    )
    p.add_argument(
        "action", choices=("validate", "hash", "gallery"),
        help="'validate'/'hash' operate on files; 'gallery' re-validates "
        "the template gallery and diffs digests against its manifest",
    )
    p.add_argument("paths", nargs="*", help="scenario files (validate/hash)")
    p.add_argument(
        "--dir", default=None, metavar="DIR",
        help="gallery directory (default: scenarios/)",
    )
    p.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="digest manifest (default: <dir>/TEMPLATES.json)",
    )
    p.add_argument(
        "--update", action="store_true",
        help="gallery: rewrite the digest manifest after validating",
    )

    p = sub.add_parser("plan", help="Section VII advisor")
    p.add_argument("--years", type=float, default=100.0, help="campaign length")
    p.add_argument("--storage-gb", type=float, default=None, help="storage budget")
    p.add_argument("--energy-kwh", type=float, default=None, help="energy budget")
    p.add_argument("--time-hours", type=float, default=None, help="machine-time budget")
    p.add_argument(
        "--need-hours", type=float, default=None,
        help="required sampling cadence (simulated hours)",
    )

    p = sub.add_parser("report", help="write the full Markdown study report")
    p.add_argument("--output", default="study_report.md", help="output path")
    p.add_argument("--years", type=float, default=100.0, help="what-if horizon")
    add_telemetry_args(p)
    add_engine_args(p)

    p = sub.add_parser(
        "bench",
        help="execution-engine benchmark: serial vs parallel vs cached sweeps",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="the small CI sweep set instead of the full fig9/fig10 axes",
    )
    p.add_argument(
        "--output", default="benchmarks/results", metavar="DIR",
        help="directory for BENCH_exec.json and the text summary",
    )
    p.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="committed baseline JSON; exit non-zero on regression",
    )
    p.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed fractional speedup drop vs the baseline",
    )
    p.add_argument("--json", action="store_true", help="print the report JSON")
    add_telemetry_args(p)
    add_pool_args(p)

    p = sub.add_parser("quality", help="eddy-tracking fidelity vs cadence")
    p.add_argument("--strides", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    p.add_argument("--steps", type=int, default=64)

    sub.add_parser("proportionality", help="storage/compute power tables")

    p = sub.add_parser("hypotheses", help="score the paper's three hypotheses")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser(
        "obs",
        help="inspect telemetry run directories (summarize/dump/diff/report)",
        add_help=False,
    )
    p.add_argument(
        "rest", nargs=argparse.REMAINDER,
        help="arguments for repro.obs.cli (try `repro obs --help`)",
    )

    p = sub.add_parser(
        "profile", help="span-level energy attribution of a recorded run"
    )
    p.add_argument("path", help="telemetry directory (or its events file)")
    p.add_argument(
        "--flamegraph", default=None, metavar="PATH",
        help="write folded flamegraph stacks (name;name value) to PATH",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--check", action="store_true",
        help="verify energy conservation; exit 3 on violation",
    )
    p.add_argument(
        "--tolerance", type=float, default=0.01,
        help="relative tolerance of the conservation check",
    )

    p = sub.add_parser(
        "lint", help="run the project static-analysis pass", add_help=False
    )
    p.add_argument(
        "rest", nargs=argparse.REMAINDER,
        help="arguments for repro.lint.cli (try `repro lint --help`)",
    )
    return parser


def _study(
    intervals: Sequence[float] = (8.0, 24.0, 72.0), engine=None
) -> CharacterizationStudy:
    print("running the characterization grid "
          f"({2 * len(intervals)} campaign-scale simulations)...", file=sys.stderr)
    return run_characterization(intervals_hours=tuple(intervals), engine=engine)


def _emit_scenario(scenario, args: argparse.Namespace) -> bool:
    """Handle ``--emit-scenario PATH``: write the file, skip the run."""
    path = getattr(args, "emit_scenario", None)
    if path is None:
        return False
    from repro.scenario.loader import write_scenario

    write_scenario(scenario, path)
    print(f"wrote {path}")
    return True


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.scenario.build import scenario_from_args
    from repro.scenario.run import run_scenario

    scenario = scenario_from_args("characterize", args)
    if _emit_scenario(scenario, args):
        return 0
    return run_scenario(scenario, json_output=args.json)


def _cmd_calibrate(_args: argparse.Namespace) -> int:
    study = _study()
    result = study.calibrate()
    m = result.model
    print(f"t_sim = {m.t_sim_ref:.1f} s   (paper: 603 s)")
    print(f"alpha = {m.alpha:.2f} s/GB   (paper: 6.3 s/GB)")
    print(f"beta  = {m.beta:.2f} s/image (paper: 1.2 s/image)")
    print(f"power = {m.power_watts / 1e3:.1f} kW")
    print("held-out validation:")
    worst = 0.0
    for point, predicted, rel in study.validate():
        worst = max(worst, abs(rel))
        print(f"  {point.label:24s} measured {point.total_time:8.1f} s   "
              f"model {predicted:8.1f} s   error {100 * rel:+.2f}%")
    print(f"max |error| = {100 * worst:.2f}% (paper: <0.5%)")
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    from repro.scenario.build import scenario_from_args
    from repro.scenario.run import run_scenario

    scenario = scenario_from_args("whatif", args)
    if _emit_scenario(scenario, args):
        return 0
    return run_scenario(scenario)


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.scenario.build import scenario_from_args
    from repro.scenario.run import run_scenario

    scenario = scenario_from_args("faults", args)
    if _emit_scenario(scenario, args):
        return 0
    return run_scenario(scenario, json_output=args.json)


def _cmd_run(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.scenario.loader import load_scenario
    from repro.scenario.run import run_scenario
    from repro.scenario.schema import PowerConfig

    scenario = load_scenario(args.path, overrides=tuple(args.overrides))
    # CLI telemetry flags override the scenario's telemetry section.
    telemetry = scenario.telemetry
    if args.telemetry is not None:
        telemetry = dataclasses.replace(telemetry, directory=args.telemetry)
    if args.no_timeline:
        telemetry = dataclasses.replace(telemetry, timeline=False)
    if args.timeline_interval is not None:
        telemetry = dataclasses.replace(
            telemetry, interval_seconds=args.timeline_interval
        )
    if args.store is not None:
        telemetry = dataclasses.replace(telemetry, store=args.store)
    if telemetry != scenario.telemetry:
        scenario = dataclasses.replace(scenario, telemetry=telemetry)
    if args.power_cap is not None:
        scenario = dataclasses.replace(
            scenario, power=PowerConfig(cap_watts=args.power_cap)
        )
    return run_scenario(
        scenario, json_output=args.json, argv=getattr(args, "_raw_argv", None)
    )


def _cmd_scenario(args: argparse.Namespace) -> int:
    import os

    from repro.scenario import gallery as scenario_gallery
    from repro.scenario.loader import load_scenario

    if args.action in ("validate", "hash"):
        if not args.paths:
            print("error: no scenario files given", file=sys.stderr)
            return 2
        for path in args.paths:
            scenario = load_scenario(path)
            if args.action == "hash":
                print(f"{scenario.content_digest()}  {path}")
            else:
                print(
                    f"ok {path} ({scenario.name}, "
                    f"digest {scenario.content_digest()[:12]})"
                )
        return 0
    directory = args.dir or scenario_gallery.DEFAULT_GALLERY_DIR
    manifest = args.manifest or (
        scenario_gallery.DEFAULT_MANIFEST
        if args.dir is None
        else os.path.join(directory, "TEMPLATES.json")
    )
    if args.update:
        payload = scenario_gallery.write_manifest(directory, manifest)
        print(f"wrote {manifest} ({len(payload['templates'])} template(s))")
        return 0
    problems = scenario_gallery.check_gallery(directory, manifest)
    if problems:
        for problem in problems:
            print(f"GALLERY: {problem}", file=sys.stderr)
        return 2
    n = len(scenario_gallery.gallery_paths(directory))
    print(f"gallery ok: {n} template(s) validated, digests match {manifest}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    study = _study()
    advisor = PipelineAdvisor(study.analyzer())
    constraints = Constraints(
        duration_seconds=years(args.years),
        storage_budget_gb=args.storage_gb,
        energy_budget_joules=(
            kwh_to_joules(args.energy_kwh) if args.energy_kwh is not None else None
        ),
        time_budget_seconds=(
            args.time_hours * 3_600.0 if args.time_hours is not None else None
        ),
        required_interval_hours=args.need_hours,
    )
    for pipeline in (IN_SITU, POST_PROCESSING):
        print(advisor.evaluate(pipeline, constraints).summary())
    best = advisor.recommend(constraints)
    pred = best.prediction
    print(f"\nrecommended: {best.pipeline} every {best.interval_hours:g} h")
    print(f"  machine time {pred.execution_time / 3_600:.1f} h, "
          f"energy {format_energy(pred.energy) if pred.energy else 'n/a'}, "
          f"storage {pred.s_io_gb:,.0f} GB")
    return 0 if best.feasible else 2


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import StudyReport
    from repro.scenario.build import _execution_from_args, build_engine
    from repro.scenario.schema import Scenario

    scenario = Scenario(name="report", execution=_execution_from_args(args))
    study = _study(engine=build_engine(scenario))
    n = StudyReport(study, whatif_years=args.years).write(args.output)
    print(f"wrote {args.output} ({n} bytes)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.exec.bench import compare_to_baseline, run_bench, summary, write_report

    print(
        "benchmarking the execution engine (serial, parallel and cached "
        "sweeps over the fig3/fig9/fig10 set)...",
        file=sys.stderr,
    )
    report = run_bench(
        quick=args.quick,
        workers=args.workers,
        cache_dir=args.cache,
        output_dir=args.output,
    )
    path = write_report(report, args.output)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(summary(report))
    print(f"wrote {path}", file=sys.stderr)
    if args.baseline is not None:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        problems = compare_to_baseline(report, baseline, tolerance=args.tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 2
        print("baseline check passed", file=sys.stderr)
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    print("advancing the mini ocean and tracking eddies...", file=sys.stderr)
    results = evaluate_sampling_quality(strides=tuple(args.strides), n_steps=args.steps)
    print(quality_table(results))
    return 0


def _cmd_hypotheses(args: argparse.Namespace) -> int:
    from repro.core.hypotheses import evaluate_hypotheses, findings_summary

    study = _study()
    verdicts = evaluate_hypotheses(study)
    if args.json:
        print(json.dumps([v.to_dict() for v in verdicts], indent=2, sort_keys=True))
        return 0
    print(findings_summary(study))
    print()
    for verdict in verdicts:
        print(verdict.summary())
    return 0


def _cmd_proportionality(_args: argparse.Namespace) -> int:
    from repro.cluster.power import e5_2670_node

    print("storage rack (paper: 2273 -> 2302 W, +1.3%):")
    for throughput, watts in storage_power_sweep():
        print(f"  {throughput / 1e6:6.0f} MB/s  {watts:7.1f} W")
    node = e5_2670_node()
    print("compute cluster, 150 nodes (paper: 15 -> 44 kW, +193%):")
    for util in (0.0, 0.25, 0.5, 0.75, 1.0):
        print(f"  util {util:4.2f}  {150 * node.power(util) / 1e3:6.1f} kW")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs.profile import profile_directory, render_text, write_flamegraph

    try:
        result = profile_directory(args.path)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_text(result))
    if args.flamegraph is not None:
        write_flamegraph(result, args.flamegraph)
        print(f"wrote {args.flamegraph}", file=sys.stderr)
    if args.check:
        problems = result.conservation_errors(rtol=args.tolerance)
        if problems:
            for problem in problems:
                print(f"CONSERVATION: {problem}", file=sys.stderr)
            return 3
        print("conservation check passed", file=sys.stderr)
    return 0


_COMMANDS = {
    "characterize": _cmd_characterize,
    "calibrate": _cmd_calibrate,
    "whatif": _cmd_whatif,
    "faults": _cmd_faults,
    "run": _cmd_run,
    "scenario": _cmd_scenario,
    "plan": _cmd_plan,
    "quality": _cmd_quality,
    "report": _cmd_report,
    "bench": _cmd_bench,
    "proportionality": _cmd_proportionality,
    "hypotheses": _cmd_hypotheses,
    "profile": _cmd_profile,
}


def _report_sweep_failure(exc) -> int:
    """Structured stderr summary of a failed supervised sweep; exit 3."""
    print(f"error: {exc}", file=sys.stderr)
    for record in exc.failures:
        attempts = record.get("attempts") or []
        print(
            f"  task failed ({record.get('kind', 'unknown')}, "
            f"{len(attempts)} attempt(s)"
            f"{', quarantined' if record.get('quarantined') else ''}): "
            f"{record.get('error', '')}",
            file=sys.stderr,
        )
    print(
        "hint: re-run with --journal/--resume to retry only the failures, "
        "or --fail-policy skip to keep partial results",
        file=sys.stderr,
    )
    return 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.errors import ConfigurationError, SweepError

    raw = list(argv) if argv is not None else sys.argv[1:]
    # `obs` and `lint` have their own parsers: forward everything verbatim
    # (argparse.REMAINDER drops a leading option like `obs --help`, so
    # bypass the outer parser entirely).
    if raw and raw[0] == "obs":
        from repro.obs.cli import main as obs_main

        return obs_main(raw[1:])
    if raw and raw[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(raw[1:])
    args = build_parser().parse_args(raw)
    args._raw_argv = raw
    handler = _COMMANDS[args.command]
    telemetry = getattr(args, "telemetry", None)
    if args.command == "run" or getattr(args, "emit_scenario", None) is not None:
        # `repro run` opens its own session (label = the experiment kind, so
        # traces match the legacy command); --emit-scenario only writes a file.
        telemetry = None
    store = getattr(args, "store", None)
    try:
        if telemetry is None:
            if store is not None and args.command != "run":
                print("error: --store needs --telemetry", file=sys.stderr)
                return 2
            return handler(args)
        # "store" stays out of the session config: the registry stamp added
        # at ingest time is the durable record, and store-off runs must keep
        # byte-identical manifests.  "_raw_argv" repeats the manifest's argv,
        # which names the per-run telemetry path.
        config = {
            k: v
            for k, v in vars(args).items()
            if k not in ("command", "telemetry", "store", "_raw_argv")
        }
        timeline = None
        if not getattr(args, "no_timeline", False):
            timeline = obs.TimelineConfig(
                interval_seconds=getattr(args, "timeline_interval", None),
                power_cap_watts=getattr(args, "power_cap", None),
            )
        with obs.session(
            telemetry,
            label=args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
            config=config,
            timeline=timeline,
        ):
            code = handler(args)
        if store is not None:
            # After the session closed: ingest reads the freshly written
            # manifest, and the stamp rewrites it with the store verdict.
            from repro.obs.store.core import RunStore

            result = RunStore(store).ingest(telemetry)
            print(f"store: {result.describe()}", file=sys.stderr)
        return code
    except SweepError as exc:
        return _report_sweep_failure(exc)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
