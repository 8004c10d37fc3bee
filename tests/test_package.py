"""Package-level tests: public API surface, declared dependencies,
version, example scripts."""

from __future__ import annotations

import ast
import os
import py_compile
import subprocess
import sys

import pytest

import repro

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")

#: Distribution name -> top-level import name, where the two differ.
IMPORT_NAMES = {"pyyaml": "yaml"}


def _example_env() -> dict:
    """Environment for example subprocesses with ``src/`` importable."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + existing if existing else "")
    return env


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_entry_point(self):
        from repro import run_characterization

        assert callable(run_characterization)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.analysis",
            "repro.cli",
            "repro.cluster",
            "repro.cluster.allocation",
            "repro.core",
            "repro.core.report",
            "repro.events",
            "repro.events.tracing",
            "repro.io",
            "repro.io.compression",
            "repro.ocean",
            "repro.paper",
            "repro.pipelines",
            "repro.power",
            "repro.power.capping",
            "repro.power.green500",
            "repro.storage",
            "repro.viz",
            "repro.viz.annotate",
        ],
    )
    def test_submodules_importable(self, module):
        __import__(module)

    def test_every_public_callable_has_a_docstring(self):
        """The deliverable requires doc comments on every public item."""
        import importlib
        import inspect

        missing = []
        for module_name in (
            "repro.core.model", "repro.core.calibration", "repro.core.whatif",
            "repro.core.advisor", "repro.core.metrics", "repro.pipelines.platform",
            "repro.cluster.machine", "repro.storage.lustre", "repro.power.trace",
            "repro.ocean.driver", "repro.viz.render", "repro.io.ncformat",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if not inspect.isclass(obj) and not callable(obj):
                    continue
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{module_name}.{name}")
                if inspect.isclass(obj):
                    for attr_name, attr in vars(obj).items():
                        if attr_name.startswith("_"):
                            continue
                        if callable(attr) and not (attr.__doc__ or "").strip():
                            missing.append(f"{module_name}.{name}.{attr_name}")
        assert not missing, f"undocumented public items: {missing}"


def _third_party_imports() -> set:
    """Top-level modules imported anywhere under ``src/repro`` (function-local
    imports included) that are neither standard library nor ``repro``."""
    found = set()
    for root, _dirs, files in os.walk(os.path.join(SRC_DIR, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    found.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    found.add(node.module.split(".")[0])
    return {m for m in found if m not in sys.stdlib_module_names and m != "repro"}


class TestPackaging:
    def test_declared_dependencies_match_imports(self):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            declared = tomllib.load(fh)["project"]["dependencies"]
        modules = {IMPORT_NAMES.get(dep, dep) for dep in declared}
        assert modules == _third_party_imports()


class TestExamples:
    def test_all_examples_compile(self):
        scripts = [f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")]
        assert len(scripts) >= 5
        for script in scripts:
            py_compile.compile(os.path.join(EXAMPLES_DIR, script), doraise=True)

    def test_quickstart_runs_end_to_end(self, tmp_path):
        out = subprocess.run(
            [sys.executable, os.path.join(EXAMPLES_DIR, "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=str(tmp_path),
            env=_example_env(),
        )
        assert out.returncode == 0, out.stderr[-2000:]
        assert "Section VII" in out.stdout
        assert "alpha = 6." in out.stdout

    def test_real_pipeline_comparison_runs(self, tmp_path):
        out = subprocess.run(
            [
                sys.executable,
                os.path.join(EXAMPLES_DIR, "real_pipeline_comparison.py"),
                str(tmp_path / "work"),
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=_example_env(),
        )
        assert out.returncode == 0, out.stderr[-2000:]
        assert "storage reduction" in out.stdout
