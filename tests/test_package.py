"""Package-level tests: public API surface, import layering, declared
dependencies, version, example scripts."""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import py_compile
import subprocess
import sys

import pytest

import repro
from repro._lazy import export_map

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")

#: Distribution name -> top-level import name, where the two differ.
IMPORT_NAMES = {"pyyaml": "yaml"}

#: Subpackages whose ``__init__`` resolves ``__all__`` lazily (repro._lazy).
LAZY_PACKAGES = [
    "repro.analysis", "repro.cluster", "repro.core", "repro.events",
    "repro.exec", "repro.faults", "repro.io", "repro.lint", "repro.obs",
    "repro.ocean", "repro.pipelines", "repro.power", "repro.scenario",
    "repro.storage", "repro.viz",
]


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

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_lazy_exports_are_the_defining_objects(self, package):
        pkg = _with_every_submodule(package)
        exports = export_map(package)
        assert set(exports) == set(pkg.__all__)
        for name in pkg.__all__:
            source, attr = exports[name]
            assert getattr(pkg, name) is getattr(importlib.import_module(source), attr), name
            assert name in vars(pkg), f"{name} not bound on its first lookup"

    def test_export_named_like_its_submodule_stays_the_function(self):
        import repro.ocean
        import repro.ocean.driver  # imports the repro.ocean.okubo_weiss module
        from repro.ocean import okubo_weiss

        assert okubo_weiss is sys.modules["repro.ocean.okubo_weiss"].okubo_weiss
        assert repro.ocean.okubo_weiss is okubo_weiss

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_star_import_binds_all(self, package):
        pkg = _with_every_submodule(package)
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(pkg.__all__)

    def test_dir_lists_every_export_before_its_lookup(self):
        script = (
            "import importlib, json, sys\n"
            "missing = {}\n"
            "for name in sys.argv[1:]:\n"
            "    pkg = importlib.import_module(name)\n"
            "    missing[name] = sorted(set(pkg.__all__) - set(dir(pkg)))\n"
            "print(json.dumps(missing))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, *LAZY_PACKAGES],
            capture_output=True, text=True, timeout=300, env=_example_env(),
        )
        assert out.returncode == 0, out.stderr[-2000:]
        assert json.loads(out.stdout) == {name: [] for name in LAZY_PACKAGES}

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"module '{package}' has no attribute"):
            getattr(pkg, "no_such_export")

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


def _with_every_submodule(package: str):
    """``package``, after importing every module under it, so that no
    submodule bound onto it can hide an exported name."""
    pkg = importlib.import_module(package)
    for info in pkgutil.walk_packages(pkg.__path__, package + "."):
        importlib.import_module(info.name)
    return pkg


def _module_level_imports(tree: ast.Module):
    """The import statements a module runs when it is imported: those not
    inside a function and not under ``if TYPE_CHECKING:``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        ):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _import_graph() -> dict:
    """Module -> the ``repro`` modules its module-level imports run.

    Importing ``repro.a.b`` runs ``repro.a`` and ``repro.a.b``; a package
    the importer sits inside is already running, so it is no edge.  The
    root ``repro/__init__`` stays out: it imports eagerly.
    """
    paths = {}
    for root, _dirs, files in os.walk(os.path.join(SRC_DIR, "repro")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                parts = os.path.relpath(path, SRC_DIR)[:-3].split(os.sep)
                if parts[-1] == "__init__":
                    parts.pop()
                paths[".".join(parts)] = path
    del paths["repro"]
    graph = {}
    for module, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        deps = set()
        for node in _module_level_imports(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            else:
                assert node.level == 0, f"{module}: relative import"
                targets = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            for target in targets:
                parts = target.split(".")
                for i in range(2, len(parts) + 1):
                    dep = ".".join(parts[:i])
                    if dep in paths and not (module + ".").startswith(dep + "."):
                        deps.add(dep)
        graph[module] = deps
    return graph


def _cycles(graph: dict) -> list:
    """The strongly connected components of ``graph`` that hold a cycle."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    found = []

    def visit(node):
        index[node] = low[node] = len(index)
        stack.append(node)
        for dep in graph[node]:
            if dep not in index:
                visit(dep)
                low[node] = min(low[node], low[dep])
            elif dep in stack:
                low[node] = min(low[node], index[dep])
        if low[node] == index[node]:
            component = []
            while not component or component[-1] != node:
                component.append(stack.pop())
            if len(component) > 1 or node in graph[node]:
                found.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return found


#: Modules ``repro characterize`` never calls into, so must not load.
NOT_LOADED_BY_CHARACTERIZE = [
    "repro.lint", "repro.obs.store", "repro.obs.cli", "repro.obs.report",
    "repro.obs.profile", "repro.faults.campaign", "repro.core.advisor",
    "repro.core.hypotheses", "repro.core.report", "repro.analysis",
    "repro.scenario.gallery", "repro.exec.bench", "repro.power.green500",
    "repro.power.capping", "repro.power.states",
]

_CHARACTERIZE_SCRIPT = """
import contextlib, io, json, runpy, sys
sys.argv = ["repro", "characterize", "--intervals", "72"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert not exc.code, exc.code
print(json.dumps(sorted(sys.modules)))
"""


class TestImportLayering:
    def test_module_level_imports_form_no_cycle(self):
        graph = _import_graph()
        assert "repro.pipelines.platform" in graph
        assert _cycles(graph) == []

    def test_the_cycle_finder_finds_a_cycle(self):
        graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"d"}, "e": {"a"}}
        assert _cycles(graph) == [["a", "b", "c"], ["d"]]

    def test_characterize_loads_only_what_it_runs(self):
        out = subprocess.run(
            [sys.executable, "-c", _CHARACTERIZE_SCRIPT],
            capture_output=True,
            text=True,
            timeout=300,
            env=_example_env(),
        )
        assert out.returncode == 0, out.stderr[-2000:]
        loaded = json.loads(out.stdout)
        assert "repro.scenario.run" in loaded
        unwanted = [
            module for module in loaded
            for name in NOT_LOADED_BY_CHARACTERIZE
            if module == name or module.startswith(name + ".")
        ]
        assert unwanted == []


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
