"""Execute a :class:`Scenario`: ``repro run`` and the legacy flag paths.

:func:`run_scenario` is the single dispatcher behind ``repro run`` *and*
the legacy ``characterize`` / ``whatif`` / ``faults`` commands (which now
build their scenario via
:func:`~repro.scenario.build.scenario_from_args`).  Output — stdout
tables/JSON, stderr progress lines, telemetry event streams — is the
historical handler behaviour verbatim, so a scenario file and its
equivalent flag invocation produce byte-identical artifacts.

Telemetry sessions open with ``label=experiment.kind`` (never ``"run"``):
the trace id is derived from the label, and trace parity with the legacy
commands is part of the byte-identity contract.
"""

from __future__ import annotations

import json
import sys
from typing import Optional, Sequence

from repro import obs
from repro.core.metrics import POST_PROCESSING
from repro.scenario.build import build_engine, build_pipelines, build_spec
from repro.scenario.schema import Scenario
from repro.units import years

__all__ = ["run_scenario"]


def _stamp_session(scenario: Scenario) -> None:
    """Record the scenario identity on the active telemetry session."""
    session = obs.active()
    if session is not None:
        session.config["scenario"] = {
            "name": scenario.name,
            "digest": scenario.content_digest(),
        }


def _characterize(scenario: Scenario, pipelines=None):
    """Run the characterization grid exactly as the scenario describes it."""
    from repro import run_characterization

    return run_characterization(
        intervals_hours=scenario.sampling.intervals_hours,
        spec=build_spec(scenario),
        engine=build_engine(scenario),
        pipelines=pipelines,
        cluster=scenario.cluster,
        storage=scenario.storage,
    )


def _run_characterize(scenario: Scenario, json_output: bool) -> int:
    pipelines = build_pipelines(scenario)
    n_pipelines = 2 if pipelines is None else len(pipelines)
    n = n_pipelines * len(scenario.sampling.intervals_hours)
    print("running the characterization grid "
          f"({n} campaign-scale simulations)...", file=sys.stderr)
    study = _characterize(scenario, pipelines=pipelines)
    if json_output:
        print(json.dumps(study.to_dict(), indent=2, sort_keys=True))
        return 0
    print(study.table())
    print()
    print(study.findings())
    return 0


def _run_whatif(scenario: Scenario, json_output: bool) -> int:
    experiment = scenario.experiment
    n = 2 * len(scenario.sampling.intervals_hours)
    print("running the characterization grid "
          f"({n} campaign-scale simulations)...", file=sys.stderr)
    study = _characterize(scenario)
    analyzer = study.analyzer()
    duration = years(experiment.years)
    sweep_intervals = list(experiment.sweep_intervals_hours)
    rows = analyzer.sweep(
        intervals_hours=sweep_intervals, duration_seconds=duration
    )
    limit = analyzer.finest_interval_for_storage(POST_PROCESSING, 2_000.0, duration)
    failure_rows = None
    if experiment.mtbf_hours is not None:
        failure_rows = analyzer.failure_aware_sweep(
            intervals_hours=sweep_intervals,
            duration_seconds=duration,
            mtbf_hours=experiment.mtbf_hours,
            checkpoint_write_seconds=experiment.checkpoint_write_seconds,
            restart_seconds=experiment.restart_seconds,
        )
    if json_output:
        report = {
            "years": experiment.years,
            "sweep": rows.to_dict(),
            "storage_limited_interval_hours": limit,
            "failure_aware": (
                None if failure_rows is None else failure_rows.to_dict()
            ),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"campaign: {experiment.years:g} simulated years\n")
    print(f"{'cadence':>10s} {'post GB':>12s} {'in-situ GB':>11s} "
          f"{'energy saving':>14s}")
    for row in rows:
        print(
            f"{row.interval_hours:>8.0f} h {row.post.s_io_gb:>12.1f} "
            f"{row.insitu.s_io_gb:>11.2f} {100 * row.energy_savings():>13.1f}%"
        )
    print(f"\n2 TB budget forces post-processing to every {limit / 24:.1f} days")
    if failure_rows is not None:
        tau = failure_rows[0].checkpoint_interval_seconds
        print(f"\nwith failures (MTBF {experiment.mtbf_hours:g} h, "
              f"optimal checkpoint every {tau / 3_600:.2f} h):")
        print(f"{'cadence':>10s} {'post +%':>9s} {'in-situ +%':>11s} "
              f"{'energy saving':>14s}")
        for frow in failure_rows:
            print(
                f"{frow.interval_hours:>8.0f} h "
                f"{100 * frow.post_overhead_ratio():>8.1f}% "
                f"{100 * frow.insitu_overhead_ratio():>10.1f}% "
                f"{100 * frow.energy_savings():>13.1f}%"
            )
    return 0


def _run_faults(scenario: Scenario, json_output: bool) -> int:
    from repro.faults.campaign import run_fault_campaign

    spec = build_spec(scenario)
    campaign = scenario.faults
    print(
        "running the fault campaign (fault-free baselines, protected and "
        "unprotected runs for both pipelines)...",
        file=sys.stderr,
    )
    result = run_fault_campaign(
        spec,
        seed=campaign.seed,
        mtbf_hours=campaign.mtbf_hours,
        checkpoint_every=campaign.checkpoint_every,
        restart_penalty_seconds=campaign.restart_penalty_seconds,
        brownout_rate_per_hour=campaign.brownout_rate_per_hour,
        io_error_rate_per_hour=campaign.io_error_rate_per_hour,
        pipelines=build_pipelines(scenario),
        include_unprotected=campaign.include_unprotected,
        engine=build_engine(scenario),
        cluster=scenario.cluster,
        storage=scenario.storage,
    )
    if json_output:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    print(result.table())
    return 0


_DISPATCH = {
    "characterize": _run_characterize,
    "whatif": _run_whatif,
    "faults": _run_faults,
}


def run_scenario(
    scenario: Scenario,
    json_output: bool = False,
    argv: Optional[Sequence[str]] = None,
) -> int:
    """Execute a scenario; returns the process exit code.

    When a telemetry session is already active (the legacy CLI wrapper
    opened one), the scenario identity is stamped onto it and dispatch
    happens inside it.  Otherwise, when the scenario's ``telemetry``
    section names a directory, a session opens here with
    ``label=experiment.kind`` — trace-identical to the legacy command.
    """
    handler = _DISPATCH[scenario.experiment.kind]
    if obs.active() is not None:
        _stamp_session(scenario)
        return handler(scenario, json_output)
    telemetry = scenario.telemetry
    if telemetry.directory is None:
        return handler(scenario, json_output)
    timeline = None
    if telemetry.timeline:
        timeline = obs.TimelineConfig(
            interval_seconds=telemetry.interval_seconds,
            power_cap_watts=scenario.power.cap_watts,
        )
    with obs.session(
        telemetry.directory,
        label=scenario.experiment.kind,
        argv=list(argv) if argv is not None else sys.argv[1:],
        config={"scenario_config": scenario.to_dict()},
        timeline=timeline,
    ):
        _stamp_session(scenario)
        code = handler(scenario, json_output)
    if telemetry.store is not None:
        # Only after the session closed: ingestion reads the manifest the
        # session just wrote, and the stamp rewrites it with the verdict.
        from repro.obs.store.core import RunStore

        result = RunStore(telemetry.store).ingest(telemetry.directory)
        print(f"store: {result.describe()}", file=sys.stderr)
    return code
