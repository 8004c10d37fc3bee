"""Tests for :mod:`repro.lint` — engine, every rule, reporters, CLI.

Each rule gets (at least) one positive fixture that must trigger it and
one fixture with a suppression comment that must not.  A meta-test at the
bottom asserts the shipped tree itself lints clean.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.cli import main as lint_main
from repro.lint.engine import (
    FileContext,
    Finding,
    LintRunner,
    iter_python_files,
    registered_rules,
)
from repro.lint.reporters import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path: Path, relpath: str, source: str) -> list:
    """Write ``source`` at ``tmp_path/relpath`` and lint that one file."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return run_lint([str(target)])


def rule_ids(findings) -> set:
    """The set of rule ids present in a findings list."""
    return {f.rule for f in findings}


class TestEngine:
    def test_registry_has_the_required_rule_count(self):
        assert len(registered_rules()) >= 8

    def test_rule_catalog_entries_have_summaries(self):
        for rule_id, rule in registered_rules().items():
            assert rule_id == rule.id
            assert rule.summary

    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        findings = lint_source(tmp_path, "bad.py", "def broken(:\n")
        assert rule_ids(findings) == {"parse-error"}

    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "__pycache__" / "x.py").write_text("")
        (tmp_path / "pkg" / "real.py").write_text("")
        files = list(iter_python_files([str(tmp_path)]))
        assert [f.name for f in files] == ["real.py"]

    def test_unknown_select_id_rejected(self):
        with pytest.raises(ValueError):
            LintRunner(select=["no-such-rule"])

    def test_findings_sort_by_location(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            "def f(a=[], b={}):\n    return a, b\n",
        )
        assert findings == sorted(findings)

    def test_file_level_suppression_covers_whole_file(self, tmp_path):
        source = (
            "# repro-lint: disable=mutable-default\n"
            "def f(a=[]):\n    return a\n"
            "def g(b={}):\n    return b\n"
        )
        assert lint_source(tmp_path, "mod.py", source) == []

    def test_disable_all_suppresses_everything(self, tmp_path):
        source = (
            "# repro-lint: disable=all\n"
            "def f(a=[]):\n"
            "    try:\n        return a\n    except:\n        pass\n"
        )
        assert lint_source(tmp_path, "mod.py", source) == []

    def test_line_suppression_is_line_scoped(self, tmp_path):
        source = (
            "def f(a=[]):  # repro-lint: disable=mutable-default\n"
            "    return a\n"
            "def g(b=[]):\n"
            "    return b\n"
        )
        findings = lint_source(tmp_path, "mod.py", source)
        assert [f.line for f in findings if f.rule == "mutable-default"] == [3]


class TestMagicNumberRule:
    IN_SCOPE = "src/repro/core/mod.py"

    def test_duplicated_constant_in_scope_is_flagged(self, tmp_path):
        findings = lint_source(tmp_path, self.IN_SCOPE, "x = n / 1e9\n")
        assert "magic-number" in rule_ids(findings)
        assert any("repro.units.GB" in f.message for f in findings)

    def test_out_of_scope_package_is_exempt(self, tmp_path):
        findings = lint_source(tmp_path, "src/repro/viz/mod.py", "x = n / 1e9\n")
        assert "magic-number" not in rule_ids(findings)

    def test_small_literal_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, self.IN_SCOPE, "x = n / 1e3\n")
        assert "magic-number" not in rule_ids(findings)

    def test_non_constant_large_literal_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, self.IN_SCOPE, "x = 123_456_789\n")
        assert "magic-number" not in rule_ids(findings)

    def test_suppression_comment(self, tmp_path):
        findings = lint_source(
            tmp_path, self.IN_SCOPE, "x = n / 1e9  # repro-lint: disable=magic-number\n"
        )
        assert "magic-number" not in rule_ids(findings)


class TestPaperDocRule:
    def test_undocumented_constant_is_flagged(self, tmp_path):
        findings = lint_source(tmp_path, "src/repro/paper.py", "MYSTERY_W = 123.0\n")
        assert "paper-doc" in rule_ids(findings)

    def test_doc_comment_satisfies_the_rule(self, tmp_path):
        findings = lint_source(
            tmp_path, "src/repro/paper.py", "#: Section V, Fig. 4.\nMYSTERY_W = 123.0\n"
        )
        assert "paper-doc" not in rule_ids(findings)

    def test_group_doc_comment_covers_contiguous_constants(self, tmp_path):
        source = "#: Section IV cluster shape.\nNODES = 150\nCORES = 2_400\n"
        findings = lint_source(tmp_path, "src/repro/paper.py", source)
        assert "paper-doc" not in rule_ids(findings)

    def test_blank_line_breaks_a_group(self, tmp_path):
        source = "#: Section IV cluster shape.\nNODES = 150\n\nCORES = 2_400\n"
        findings = lint_source(tmp_path, "src/repro/paper.py", source)
        assert "paper-doc" in rule_ids(findings)
        assert any("CORES" in f.message for f in findings)

    def test_other_modules_are_exempt(self, tmp_path):
        findings = lint_source(tmp_path, "src/repro/other.py", "MYSTERY_W = 123.0\n")
        assert "paper-doc" not in rule_ids(findings)

    def test_suppression_comment(self, tmp_path):
        source = "# repro-lint: disable=paper-doc\nMYSTERY_W = 123.0\n"
        findings = lint_source(tmp_path, "src/repro/paper.py", source)
        assert "paper-doc" not in rule_ids(findings)


class TestPaperRedefinitionRule:
    def test_module_constant_equal_to_paper_value_is_flagged(self, tmp_path):
        findings = lint_source(tmp_path, "src/repro/mine.py", "IDLE = 2_273.0\n")
        assert "paper-redef" in rule_ids(findings)
        assert any("STORAGE_IDLE_W" in f.message for f in findings)

    def test_parameter_default_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "src/repro/mine.py", "def f(steps=8_640):\n    return steps\n"
        )
        assert "paper-redef" in rule_ids(findings)

    def test_paper_module_itself_is_exempt(self, tmp_path):
        findings = lint_source(tmp_path, "src/repro/paper.py", "#: doc\nX = 2_273.0\n")
        assert "paper-redef" not in rule_ids(findings)

    def test_undistinctive_value_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, "src/repro/mine.py", "N = 150\n")
        assert "paper-redef" not in rule_ids(findings)

    def test_suppression_comment(self, tmp_path):
        findings = lint_source(
            tmp_path, "src/repro/mine.py", "IDLE = 2_273.0  # repro-lint: disable=paper-redef\n"
        )
        assert "paper-redef" not in rule_ids(findings)


SOLVER_TEMPLATE = """\
class Solver:
    def step(self, dt):
        {body}
        return dt
"""


class TestSolverRules:
    PATH = "src/repro/ocean/fake_solver.py"

    def _lint_body(self, tmp_path, body):
        return lint_source(tmp_path, self.PATH, SOLVER_TEMPLATE.format(body=body))

    def test_print_in_step_is_flagged(self, tmp_path):
        findings = self._lint_body(tmp_path, 'print("step", dt)')
        assert "solver-print" in rule_ids(findings)

    def test_open_in_step_is_flagged(self, tmp_path):
        findings = self._lint_body(tmp_path, 'open("log.txt", "w").write("x")')
        assert "solver-io" in rule_ids(findings)

    def test_wall_clock_in_step_is_flagged(self, tmp_path):
        findings = self._lint_body(tmp_path, "t0 = time.time()")
        assert "solver-clock" in rule_ids(findings)

    def test_helper_functions_are_exempt(self, tmp_path):
        source = 'def summarize(x):\n    print(x)\n'
        findings = lint_source(tmp_path, self.PATH, source)
        assert "solver-print" not in rule_ids(findings)

    def test_outside_ocean_is_exempt(self, tmp_path):
        source = SOLVER_TEMPLATE.format(body='print("hi")')
        findings = lint_source(tmp_path, "src/repro/viz/fake.py", source)
        assert "solver-print" not in rule_ids(findings)

    def test_suppressions(self, tmp_path):
        body = (
            "print(dt)  # repro-lint: disable=solver-print\n"
            '        open("f")  # repro-lint: disable=solver-io\n'
            "        t = time.time()  # repro-lint: disable=solver-clock"
        )
        findings = self._lint_body(tmp_path, body)
        assert not rule_ids(findings) & {"solver-print", "solver-io", "solver-clock"}


class TestMutableDefaultRule:
    def test_list_default_is_flagged(self, tmp_path):
        findings = lint_source(tmp_path, "mod.py", "def f(a=[]):\n    return a\n")
        assert "mutable-default" in rule_ids(findings)

    def test_factory_call_default_is_flagged(self, tmp_path):
        findings = lint_source(tmp_path, "mod.py", "def f(a=dict()):\n    return a\n")
        assert "mutable-default" in rule_ids(findings)

    def test_none_default_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, "mod.py", "def f(a=None):\n    return a\n")
        assert "mutable-default" not in rule_ids(findings)

    def test_tuple_default_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, "mod.py", "def f(a=(1, 2)):\n    return a\n")
        assert "mutable-default" not in rule_ids(findings)

    def test_suppression_comment(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py",
            "def f(a=[]):  # repro-lint: disable=mutable-default\n    return a\n",
        )
        assert "mutable-default" not in rule_ids(findings)


class TestBareExceptRule:
    def test_bare_except_is_flagged(self, tmp_path):
        source = "try:\n    x = 1\nexcept:\n    pass\n"
        findings = lint_source(tmp_path, "mod.py", source)
        assert "bare-except" in rule_ids(findings)

    def test_typed_except_is_fine(self, tmp_path):
        source = "try:\n    x = 1\nexcept ValueError:\n    pass\n"
        findings = lint_source(tmp_path, "mod.py", source)
        assert "bare-except" not in rule_ids(findings)

    def test_suppression_comment(self, tmp_path):
        source = "try:\n    x = 1\nexcept:  # repro-lint: disable=bare-except\n    pass\n"
        findings = lint_source(tmp_path, "mod.py", source)
        assert "bare-except" not in rule_ids(findings)


class TestMissingAllRule:
    def test_public_repro_module_without_all_is_flagged(self, tmp_path):
        findings = lint_source(tmp_path, "src/repro/naked.py", "X = 1\n")
        assert "missing-all" in rule_ids(findings)

    def test_module_with_all_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, "src/repro/ok.py", '__all__ = ["X"]\nX = 1\n')
        assert "missing-all" not in rule_ids(findings)

    def test_dunder_main_is_exempt(self, tmp_path):
        findings = lint_source(tmp_path, "src/repro/__main__.py", "X = 1\n")
        assert "missing-all" not in rule_ids(findings)

    def test_non_library_files_are_exempt(self, tmp_path):
        findings = lint_source(tmp_path, "tests/test_naked.py", "X = 1\n")
        assert "missing-all" not in rule_ids(findings)

    def test_suppression_comment(self, tmp_path):
        findings = lint_source(
            tmp_path, "src/repro/naked.py", "# repro-lint: disable=missing-all\nX = 1\n"
        )
        assert "missing-all" not in rule_ids(findings)


class TestStaleAllRule:
    def test_phantom_export_is_flagged(self, tmp_path):
        source = '__all__ = ["exists", "phantom"]\n\ndef exists():\n    pass\n'
        findings = lint_source(tmp_path, "mod.py", source)
        assert "stale-all" in rule_ids(findings)
        assert any("phantom" in f.message for f in findings)

    def test_consistent_all_is_fine(self, tmp_path):
        source = '__all__ = ["exists"]\n\ndef exists():\n    pass\n'
        findings = lint_source(tmp_path, "mod.py", source)
        assert "stale-all" not in rule_ids(findings)

    def test_imported_names_count_as_defined(self, tmp_path):
        source = 'from os import path\n\n__all__ = ["path"]\n'
        findings = lint_source(tmp_path, "mod.py", source)
        assert "stale-all" not in rule_ids(findings)

    def test_star_import_disables_the_check(self, tmp_path):
        source = 'from os.path import *\n\n__all__ = ["phantom"]\n'
        findings = lint_source(tmp_path, "mod.py", source)
        assert "stale-all" not in rule_ids(findings)

    def test_suppression_comment(self, tmp_path):
        source = '__all__ = ["phantom"]  # repro-lint: disable=stale-all\n'
        findings = lint_source(tmp_path, "mod.py", source)
        assert "stale-all" not in rule_ids(findings)


class TestObsNamingRule:
    def test_missing_unit_suffix_is_flagged(self, tmp_path):
        source = 'obs.counter("repro_storage_writes")\n'
        findings = lint_source(tmp_path, "mod.py", source)
        assert "obs-naming" in rule_ids(findings)

    def test_missing_layer_segment_is_flagged(self, tmp_path):
        source = 'registry.histogram("repro_seconds")\n'
        findings = lint_source(tmp_path, "mod.py", source)
        assert "obs-naming" in rule_ids(findings)

    def test_well_formed_name_is_fine(self, tmp_path):
        source = 'obs.counter("repro_storage_writes_total", 2.0)\n'
        findings = lint_source(tmp_path, "mod.py", source)
        assert "obs-naming" not in rule_ids(findings)

    def test_every_unit_suffix_is_accepted(self, tmp_path):
        lines = [
            f'obs.observe("repro_layer_name_{unit}", 1.0)'
            for unit in ("total", "seconds", "bytes", "watts", "joules", "ratio")
        ]
        findings = lint_source(tmp_path, "mod.py", "\n".join(lines) + "\n")
        assert "obs-naming" not in rule_ids(findings)

    def test_foreign_namespaces_are_ignored(self, tmp_path):
        source = 'text.count("chars")\ngauge("other_metric")\n'
        findings = lint_source(tmp_path, "mod.py", source)
        assert "obs-naming" not in rule_ids(findings)

    def test_dynamic_names_are_ignored(self, tmp_path):
        source = "obs.counter(name_variable)\n"
        findings = lint_source(tmp_path, "mod.py", source)
        assert "obs-naming" not in rule_ids(findings)

    def test_suppression_comment(self, tmp_path):
        source = (
            'obs.counter("repro_legacy")'
            "  # repro-lint: disable=obs-naming\n"
        )
        findings = lint_source(tmp_path, "mod.py", source)
        assert "obs-naming" not in rule_ids(findings)


class TestReporters:
    def _findings(self):
        return [
            Finding(path="a.py", line=3, col=1, rule="bare-except", message="m1"),
            Finding(path="b.py", line=7, col=5, rule="dim-mix", message="m2"),
        ]

    def test_text_report_lists_findings_and_summary(self):
        text = render_text(self._findings())
        assert "a.py:3:1: bare-except: m1" in text
        assert "2 findings" in text

    def test_text_report_clean(self):
        assert render_text([]) == "repro-lint: clean"

    def test_json_report_round_trips(self):
        payload = json.loads(render_json(self._findings()))
        assert payload["count"] == 2
        assert payload["findings"][0]["rule"] == "bare-except"
        assert payload["findings"][1]["line"] == 7


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("def f(a=None):\n    return a\n")
        assert lint_main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("def f(a=[]):\n    return a\n")
        assert lint_main([str(target)]) == 1
        assert "mutable-default" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("def f(a=[]):\n    return a\n")
        assert lint_main(["--format", "json", str(target)]) == 1
        assert json.loads(capsys.readouterr().out)["count"] == 1

    def test_select_restricts_rules(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("def f(a=[]):\n    return a\n")
        assert lint_main(["--select", "bare-except", str(target)]) == 0

    def test_unknown_rule_id_is_usage_error(self, tmp_path):
        assert lint_main(["--select", "bogus", str(tmp_path)]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in registered_rules():
            assert rule_id in out

    def test_main_cli_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        target = tmp_path / "bad.py"
        target.write_text("def f(a=[]):\n    return a\n")
        assert repro_main(["lint", str(target)]) == 1
        assert "mutable-default" in capsys.readouterr().out


class TestShippedTreeIsClean:
    """The acceptance gate: the repository itself must lint clean."""

    def test_run_lint_api_is_clean_on_src(self):
        findings = run_lint([str(REPO_ROOT / "src")])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_module_invocation_is_clean_on_full_tree(self):
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        out = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "tests", "benchmarks", "examples"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(REPO_ROOT),
            env=env,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "clean" in out.stdout


class TestContextHelpers:
    def test_file_context_records_suppression_kinds(self, tmp_path):
        target = tmp_path / "mod.py"
        source = (
            "# repro-lint: disable=dim-mix\n"
            "x = 1  # repro-lint: disable=magic-number\n"
        )
        target.write_text(source)
        import ast

        ctx = FileContext(target, source, ast.parse(source))
        assert "dim-mix" in ctx.file_suppressions
        assert ctx.line_suppressions == {2: {"magic-number"}}
        assert ctx.suppressed("dim-mix", 99)
        assert ctx.suppressed("magic-number", 2)
        assert not ctx.suppressed("magic-number", 1)


class TestFaultRetryRule:
    def test_while_true_except_continue_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "repro/mod.py",
            "def fetch():\n"
            "    while True:\n"
            "        try:\n"
            "            return attempt()\n"
            "        except OSError:\n"
            "            continue\n",
        )
        assert "fault-retry" in rule_ids(findings)

    def test_sleep_in_loop_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "repro/mod.py",
            "import time\n"
            "def poll():\n"
            "    for _ in range(5):\n"
            "        time.sleep(1.0)\n",
        )
        assert "fault-retry" in rule_ids(findings)

    def test_bounded_for_retry_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path, "repro/mod.py",
            "def fetch():\n"
            "    for _ in range(3):\n"
            "        try:\n"
            "            return attempt()\n"
            "        except OSError:\n"
            "            continue\n",
        )
        assert "fault-retry" not in rule_ids(findings)

    def test_while_true_without_retry_shape_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path, "repro/mod.py",
            "def pump(queue):\n"
            "    while True:\n"
            "        item = queue.get()\n"
            "        if item is None:\n"
            "            break\n",
        )
        assert "fault-retry" not in rule_ids(findings)

    def test_rule_scoped_to_repro_sources(self, tmp_path):
        findings = lint_source(
            tmp_path, "scripts/mod.py",
            "import time\n"
            "def poll():\n"
            "    while True:\n"
            "        time.sleep(1.0)\n",
        )
        assert "fault-retry" not in rule_ids(findings)

    def test_suppression_comment(self, tmp_path):
        findings = lint_source(
            tmp_path, "repro/mod.py",
            "import time\n"
            "def poll():\n"
            "    for _ in range(5):\n"
            "        time.sleep(1.0)  # repro-lint: disable=fault-retry\n",
        )
        assert "fault-retry" not in rule_ids(findings)

    def test_untimed_future_result_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "repro/mod.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def collect(futures):\n"
            "    return [f.result() for f in futures]\n",
        )
        assert "fault-retry" in rule_ids(findings)

    def test_explicit_timeout_none_is_accepted(self, tmp_path):
        findings = lint_source(
            tmp_path, "repro/mod.py",
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def collect(futures):\n"
            "    return [f.result(timeout=None) for f in futures]\n",
        )
        assert "fault-retry" not in rule_ids(findings)

    def test_untimed_as_completed_and_wait_are_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "repro/mod.py",
            "from concurrent.futures import as_completed, wait\n"
            "def drain(futures):\n"
            "    wait(futures)\n"
            "    return list(as_completed(futures))\n",
        )
        ids = [f.rule for f in findings if f.rule == "fault-retry"]
        assert len(ids) == 2

    def test_result_outside_futures_modules_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path, "repro/mod.py",
            "def collect(jobs):\n"
            "    return [j.result() for j in jobs]\n",
        )
        assert "fault-retry" not in rule_ids(findings)


class TestStableReportOrder:
    """Reporters must emit byte-identical output for any input order."""

    def _findings_shuffled(self):
        ordered = [
            Finding(path="a.py", line=1, col=1, rule="dim-mix", message="m"),
            Finding(path="a.py", line=1, col=1, rule="zzz-rule", message="m"),
            Finding(path="a.py", line=9, col=1, rule="bare-except", message="m"),
            Finding(path="b.py", line=2, col=4, rule="bare-except", message="m"),
        ]
        shuffled = [ordered[2], ordered[3], ordered[1], ordered[0]]
        return ordered, shuffled

    def test_text_reporter_sorts_by_path_line_rule(self):
        ordered, shuffled = self._findings_shuffled()
        assert render_text(shuffled) == render_text(ordered)
        lines = render_text(shuffled).splitlines()[:-1]
        assert lines == [str(f) for f in ordered]

    def test_json_reporter_sorts_by_path_line_rule(self):
        ordered, shuffled = self._findings_shuffled()
        assert render_json(shuffled) == render_json(ordered)
        rows = json.loads(render_json(shuffled))["findings"]
        assert [(r["path"], r["line"], r["rule"]) for r in rows] == [
            (f.path, f.line, f.rule) for f in ordered
        ]

    def test_sarif_reporter_is_order_insensitive(self):
        from repro.lint.reporters import render_sarif

        ordered, shuffled = self._findings_shuffled()
        assert render_sarif(shuffled) == render_sarif(ordered)


class TestSarifReporter:
    def _findings(self):
        return [
            Finding(path="src/a.py", line=3, col=1, rule="bare-except", message="m1"),
            Finding(path="src/b.py", line=1, col=0, rule="parse-error", message="m2"),
        ]

    def test_log_shape(self):
        from repro.lint.reporters import render_sarif

        log = json.loads(render_sarif(self._findings(), root=Path.cwd()))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert len(run["results"]) == 2

    def test_rule_index_matches_catalog_order(self):
        from repro.lint.reporters import render_sarif

        run = json.loads(render_sarif(self._findings()))["runs"][0]
        rules = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for result in run["results"]:
            assert rules[result["ruleIndex"]] == result["ruleId"]

    def test_parse_error_is_error_level(self):
        from repro.lint.reporters import render_sarif

        run = json.loads(render_sarif(self._findings()))["runs"][0]
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels["parse-error"] == "error"
        assert levels["bare-except"] == "warning"

    def test_uris_are_relative_to_root(self, tmp_path):
        from repro.lint.reporters import render_sarif

        finding = Finding(
            path=str(tmp_path / "src" / "a.py"),
            line=1, col=1, rule="bare-except", message="m",
        )
        run = json.loads(render_sarif([finding], root=tmp_path))["runs"][0]
        location = run["results"][0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/a.py"
        assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"

    def test_cli_sarif_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("def f(a=[]):\n    return a\n")
        assert lint_main(["--format", "sarif", str(target)]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"][0]["ruleId"] == "mutable-default"


class TestBaseline:
    def _dirty_file(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("def f(a=[]):\n    return a\n")
        return target

    def test_write_then_check_is_clean(self, tmp_path, capsys):
        target = self._dirty_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert lint_main([
            "--baseline", "write", "--baseline-file", str(baseline), str(target),
        ]) == 0
        capsys.readouterr()
        assert lint_main([
            "--baseline", "check", "--baseline-file", str(baseline), str(target),
        ]) == 0
        captured = capsys.readouterr()
        assert "suppressed" in captured.err

    def test_new_finding_fails_the_check(self, tmp_path, capsys):
        target = self._dirty_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert lint_main([
            "--baseline", "write", "--baseline-file", str(baseline), str(target),
        ]) == 0
        target.write_text("def f(a=[], b={}):\n    return a, b\n")
        assert lint_main([
            "--baseline", "check", "--baseline-file", str(baseline), str(target),
        ]) == 1
        assert "mutable-default" in capsys.readouterr().out

    def test_matching_is_count_bounded(self, tmp_path):
        from repro.lint.baseline import check_baseline, write_baseline

        target = self._dirty_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        findings = run_lint([str(target)])
        write_baseline(findings, baseline)
        # The same finding twice: the count-1 baseline absorbs only one.
        result = check_baseline(findings + findings, baseline)
        assert result.suppressed == len(findings)
        assert len(result.new) == len(findings)

    def test_stale_entries_are_reported_not_fatal(self, tmp_path, capsys):
        target = self._dirty_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert lint_main([
            "--baseline", "write", "--baseline-file", str(baseline), str(target),
        ]) == 0
        target.write_text("def f(a=None):\n    return a\n")
        capsys.readouterr()
        assert lint_main([
            "--baseline", "check", "--baseline-file", str(baseline), str(target),
        ]) == 0
        assert "stale baseline entry" in capsys.readouterr().err

    def test_missing_baseline_is_usage_error(self, tmp_path):
        target = self._dirty_file(tmp_path)
        assert lint_main([
            "--baseline", "check",
            "--baseline-file", str(tmp_path / "absent.json"), str(target),
        ]) == 2

    def test_baseline_excludes_line_numbers(self, tmp_path):
        from repro.lint.baseline import load_baseline, write_baseline

        target = self._dirty_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        write_baseline(run_lint([str(target)]), baseline)
        # Shift the finding down two lines: the baseline must still absorb it.
        target.write_text("\n\ndef f(a=[]):\n    return a\n")
        from repro.lint.baseline import check_baseline

        result = check_baseline(run_lint([str(target)]), baseline)
        assert result.new == []
        entries = load_baseline(baseline)
        assert all(len(key) == 3 for key in entries)


class TestUnusedSuppressionRule:
    def test_pointless_line_suppression_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py",
            "def f(a=None):\n"
            "    return a  # repro-lint: disable=mutable-default\n",
        )
        assert rule_ids(findings) == {"unused-suppression"}

    def test_used_suppression_is_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py",
            "def f(a=[]):  # repro-lint: disable=mutable-default\n"
            "    return a\n",
        )
        assert findings == []

    def test_pointless_file_suppression_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py",
            "# repro-lint: disable=bare-except\n"
            "def f(a=None):\n    return a\n",
        )
        assert rule_ids(findings) == {"unused-suppression"}

    def test_suppression_inside_string_literal_is_ignored(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py",
            'FIXTURE = """\n'
            "x = 1  # repro-lint: disable=magic-number\n"
            '"""\n',
        )
        assert findings == []

    def test_inactive_rule_suppressions_are_not_judged(self, tmp_path):
        # With --select, suppressions of unselected rules must not be
        # reported as unused — the rule never got a chance to fire.
        target = tmp_path / "mod.py"
        target.write_text(
            "def f(a=[]):  # repro-lint: disable=mutable-default\n"
            "    return a\n"
        )
        findings = run_lint([str(target)], select=["bare-except", "unused-suppression"])
        assert findings == []

    def test_unregistered_rule_suppressions_are_flagged(self, tmp_path):
        # An id no registered rule has can never match, selected or not.
        target = tmp_path / "mod.py"
        target.write_text("x = 1  # repro-lint: disable=no-such-rule\n")
        for select in (None, ["bare-except", "unused-suppression"]):
            findings = run_lint([str(target)], select=select)
            assert [f.rule for f in findings] == ["unused-suppression"]
            assert "names no registered rule" in findings[0].message
