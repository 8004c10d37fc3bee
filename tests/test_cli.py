"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_plan_arguments(self):
        args = build_parser().parse_args(
            ["plan", "--years", "50", "--storage-gb", "1000", "--need-hours", "12"]
        )
        assert args.years == 50.0
        assert args.storage_gb == 1_000.0
        assert args.need_hours == 12.0
        assert args.energy_kwh is None

    def test_quality_arguments(self):
        args = build_parser().parse_args(["quality", "--strides", "1", "4", "--steps", "16"])
        assert args.strides == [1, 4]
        assert args.steps == 16


class TestCommands:
    def test_proportionality(self, capsys):
        assert main(["proportionality"]) == 0
        out = capsys.readouterr().out
        assert "2273" in out and "44.0 kW" in out

    def test_quality(self, capsys):
        assert main(["quality", "--strides", "1", "4", "--steps", "12"]) == 0
        out = capsys.readouterr().out
        assert "link rate" in out

    def test_characterize_small_grid(self, capsys):
        assert main(["characterize", "--intervals", "72"]) == 0
        out = capsys.readouterr().out
        assert "in-situ" in out and "post-processing" in out
        assert "faster" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "alpha = 6." in out
        assert "beta  = 1." in out
        assert "max |error|" in out

    def test_whatif(self, capsys):
        assert main(["whatif", "--years", "10", "--intervals", "24", "192"]) == 0
        out = capsys.readouterr().out
        assert "2 TB budget" in out

    def test_plan_feasible_exit_code(self, capsys):
        code = main(
            ["plan", "--years", "100", "--storage-gb", "2000", "--need-hours", "24"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended: in-situ" in out

    def test_plan_infeasible_exit_code(self, capsys):
        # 1 GB for a century of daily outputs is infeasible even in-situ.
        code = main(
            ["plan", "--years", "100", "--storage-gb", "0.2", "--need-hours", "1"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "INFEASIBLE" in out


class TestFaultsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.mtbf_hours == 6.0
        assert args.checkpoint_every == 8
        assert args.seed == 57

    def test_faults_json_round_trips(self, capsys):
        import json

        argv = [
            "faults", "--months", "0.3", "--interval", "24",
            "--mtbf-hours", "0.05", "--checkpoint-every", "2",
            "--seed", "3", "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fault_spec"]["seed"] == 3
        assert {r["pipeline"] for r in payload["reports"]} == {
            "in-situ", "post-processing"
        }

    def test_faults_table_output(self, capsys):
        argv = [
            "faults", "--months", "0.3", "--interval", "24",
            "--mtbf-hours", "0.05", "--checkpoint-every", "2",
            "--seed", "3", "--no-unprotected",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fault campaign: seed=3" in out
        assert "fault-free" in out and "with faults" in out

    def test_whatif_failure_aware_flag(self, capsys):
        argv = ["whatif", "--intervals", "24", "--mtbf-hours", "6"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "with failures (MTBF 6 h" in out

    def test_seeded_campaign_manifests_match(self, tmp_path):
        """The CI chaos job's check: two identical runs, one manifest.

        Each run gets its own process because the default metrics registry
        is process-wide.
        """
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC_DIR + (os.pathsep + existing if existing else "")
        argv = [
            "faults", "--months", "0.5", "--interval", "24",
            "--mtbf-hours", "0.05", "--checkpoint-every", "2",
            "--seed", "3", "--json",
        ]
        manifests = []
        for run in "ab":
            directory = tmp_path / f"chaos-{run}"
            out = subprocess.run(
                [sys.executable, "-m", "repro", *argv, "--telemetry", str(directory)],
                capture_output=True,
                text=True,
                timeout=300,
                env=env,
            )
            assert out.returncode == 0, out.stderr[-2000:]
            manifest = json.loads((directory / "manifest.json").read_text())
            # The CI step's exclusions: per-invocation keys and host time.
            manifest.pop("run_id", None)
            manifest.pop("created_unix", None)
            manifest.pop("argv", None)
            manifest.get("provenance", {}).pop("hostname", None)
            manifest.get("metrics", {}).pop("repro_exec_task_seconds", None)
            manifests.append(json.dumps(manifest, sort_keys=True))
        assert manifests[0] == manifests[1]
