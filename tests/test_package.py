"""Package-level tests: public API surface, import layering, declared
dependencies, version, example scripts."""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
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

#: Packages whose ``__init__`` resolves ``__all__`` lazily (repro._lazy).
LAZY_PACKAGES = [
    "repro", "repro.analysis", "repro.cluster", "repro.core", "repro.events",
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
        assert set(exports) == set(pkg.__all__) - _bound_by_init(package)
        for name, (source, attr) in exports.items():
            assert getattr(pkg, name) is getattr(importlib.import_module(source), attr), name
            assert name in vars(pkg), f"{name} not bound on its first lookup"

    def test_export_named_like_its_submodule_stays_the_function(self):
        import repro.ocean
        import repro.ocean.eddies  # imports the repro.ocean.okubo_weiss module
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
            "repro.pipelines.real", "repro.obs.sessions",
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


def _bound_by_init(package: str) -> set:
    """The names of ``package.__all__`` its ``__init__`` assigns itself, such
    as the root's ``__version__``, rather than exporting them lazily."""
    pkg = importlib.import_module(package)
    tree = ast.parse(pkg.__spec__.loader.get_source(package))
    return {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    } & set(pkg.__all__)


def _with_every_submodule(package: str):
    """``package``, after importing every module under it, so that no
    submodule bound onto it can hide an exported name."""
    pkg = importlib.import_module(package)
    for info in pkgutil.walk_packages(pkg.__path__, package + "."):
        importlib.import_module(info.name)
    return pkg


def _is_type_checking(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
    )


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
        elif _is_type_checking(node):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _import_graph() -> dict:
    """Module -> the ``repro`` modules its module-level imports run.

    Importing ``repro.a.b`` runs ``repro.a`` and ``repro.a.b``; a package
    the importer sits inside is already running, so it is no edge.
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


#: Modules ``repro characterize`` never calls into, so must not load; nor
#: may ``repro --help``.  A standard-library module counts only where a bare
#: interpreter does not load it already (``site`` hooks differ by install).
#: ``repro.viz.catalyst`` is gone (the adaptor lives in
#: ``repro.pipelines.real``); listing it keeps a stray module of that name
#: off the path.
NOT_LOADED_BY_CHARACTERIZE = [
    "repro.lint", "repro.obs.store", "repro.obs.cli", "repro.obs.report",
    "repro.obs.profile", "repro.faults.campaign", "repro.core.advisor",
    "repro.core.hypotheses", "repro.core.report", "repro.analysis",
    "repro.scenario.gallery", "repro.exec.bench", "repro.power.green500",
    "repro.power.capping", "repro.power.states",
    # The telemetry session and what it writes with.
    "repro.obs.exporters", "repro.obs.manifest", "repro.obs.registry",
    "repro.obs.timeline", "repro.obs.trace",
    # The disk cache, the fault injector, the in-transit pipeline.
    "repro.exec.cache", "repro.faults.injector", "repro.faults.gate",
    "repro.pipelines.intransit", "repro.cluster.allocation",
    # The real platform.
    "repro.pipelines.real", "repro.viz.catalyst", "repro.viz.colormap",
    "repro.viz.contour", "repro.viz.image", "repro.ocean.barotropic",
    "repro.ocean.okubo_weiss", "repro.io.ncformat",
    # The Section VI calibration and the Section VII what-if model, the
    # fault types and both watchdogs.
    "repro.core.calibration", "repro.core.model", "repro.core.whatif",
    "repro.faults.model", "repro.faults.spec", "repro.faults.resilience",
    "repro.obs.watch", "repro.obs.naming",
    # The process pool and the manifest's git subprocess.
    "concurrent.futures", "multiprocessing", "logging", "subprocess",
]

#: Prints the modules loaded after running ``repro ARGV`` (nothing when no
#: argument is given) in this fresh interpreter.
_LOADED_SCRIPT = """
import contextlib, io, json, runpy, sys
if len(sys.argv) > 1:
    sys.argv = ["repro", *sys.argv[1:]]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            assert not exc.code, exc.code
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_modules(*argv: str) -> list:
    """Modules a fresh interpreter has loaded after ``repro ARGV``."""
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_SCRIPT, *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env=_example_env(),
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout)


def _not_loaded_but_loaded(loaded: list, bare: list) -> list:
    """The modules of ``loaded`` that ``NOT_LOADED_BY_CHARACTERIZE`` rules out."""
    names = [name for name in NOT_LOADED_BY_CHARACTERIZE if name not in bare]
    return [
        module for module in loaded
        for name in names
        if module == name or module.startswith(name + ".")
    ]


def _scope_bindings(body: list) -> set:
    """Names the statements ``body`` bind at run time in their own scope.

    Nested function and class bodies are their own scopes (only their names
    bind here); ``if TYPE_CHECKING:`` bodies never run.
    """
    names: set = set()
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if _is_type_checking(node):
            stack.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _parameters(args: ast.arguments) -> set:
    params = args.posonlyargs + args.args + args.kwonlyargs
    params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
    return {arg.arg for arg in params}


class _TypeOnlyUses(ast.NodeVisitor):
    """Run-time uses of names a module binds only under ``if TYPE_CHECKING:``.

    Annotations are skipped (every module postpones their evaluation), as are
    uses inside a function that binds the name itself, e.g. by a local
    import at the boundary where the name is first needed.
    """

    def __init__(self, type_only: set) -> None:
        self.type_only = type_only
        self.local_scopes: list = []
        self.found: list = []

    def visit_If(self, node: ast.If) -> None:
        if not _is_type_checking(node):
            self.generic_visit(node)
            return
        for child in node.orelse:
            self.visit(child)

    def _visit_function(self, node) -> None:
        for expr in node.decorator_list + node.args.defaults:
            self.visit(expr)
        for expr in node.args.kw_defaults:
            if expr is not None:
                self.visit(expr)
        self.local_scopes.append(_parameters(node.args) | _scope_bindings(node.body))
        for stmt in node.body:
            self.visit(stmt)
        self.local_scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        for expr in node.args.defaults:
            self.visit(expr)
        self.local_scopes.append(_parameters(node.args))
        self.visit(node.body)
        self.local_scopes.pop()

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_Name(self, node: ast.Name) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and node.id in self.type_only
            and not any(node.id in scope for scope in self.local_scopes)
        ):
            self.found.append((node.lineno, node.id))


def _type_only_runtime_uses(tree: ast.Module) -> list:
    """``(line, name)`` of each run-time use of a ``TYPE_CHECKING``-only name."""
    type_only: set = set()
    for node in tree.body:
        if _is_type_checking(node):
            type_only |= _scope_bindings(
                [stmt for stmt in node.body if isinstance(stmt, (ast.Import, ast.ImportFrom))]
            )
    type_only -= _scope_bindings(tree.body)
    if not type_only:
        return []
    visitor = _TypeOnlyUses(type_only)
    visitor.visit(tree)
    return visitor.found


class TestImportLayering:
    def test_module_level_imports_form_no_cycle(self):
        graph = _import_graph()
        assert {"repro", "repro.pipelines.platform"} <= graph.keys()
        assert _cycles(graph) == []

    def test_the_cycle_finder_finds_a_cycle(self):
        graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"d"}, "e": {"a"}}
        assert _cycles(graph) == [["a", "b", "c"], ["d"]]

    def test_characterize_loads_only_what_it_runs(self):
        loaded = _loaded_modules("characterize", "--intervals", "72")
        assert "repro.scenario.run" in loaded
        assert _not_loaded_but_loaded(loaded, _loaded_modules()) == []

    def test_importtime_lists_every_module_characterize_loads(self):
        """CI's import-tree artifact misses nothing: ``-X importtime`` reports
        only what the import statement's machinery loads.  Nothing is timed."""
        argv = ("characterize", "--intervals", "72")
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", *argv],
            capture_output=True, text=True, timeout=300, env=_example_env(),
        )
        assert out.returncode == 0, out.stderr[-2000:]
        listed = [
            line.rsplit("|", 1)[1].strip()
            for line in out.stderr.splitlines()
            if line.startswith("import time:")
        ]

        def repro_modules(names) -> list:
            return sorted(n for n in names if n == "repro" or n.startswith("repro."))

        assert repro_modules(listed) == repro_modules(_loaded_modules(*argv))

    def test_help_loads_nothing_characterize_does_not(self):
        loaded = _loaded_modules("--help")
        assert "repro.cli" in loaded
        assert _not_loaded_but_loaded(loaded, _loaded_modules()) == []

    def test_type_checking_names_stay_in_annotations(self):
        found = {}
        for root, _dirs, files in os.walk(os.path.join(SRC_DIR, "repro")):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    with open(path, encoding="utf-8") as fh:
                        uses = _type_only_runtime_uses(ast.parse(fh.read()))
                    if uses:
                        found[os.path.relpath(path, SRC_DIR)] = uses
        assert found == {}

    def test_the_type_checking_check_finds_run_time_uses(self):
        tree = ast.parse(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from a import A, B, C, D\n"
            "def f(x: A, y: 'B' = None) -> C:\n"
            "    z: D = x\n"
            "    if isinstance(x, A):\n"
            "        return B()\n"
            "    try:\n"
            "        pass\n"
            "    except C:\n"
            "        pass\n"
            "def g():\n"
            "    from a import D\n"
            "    return D\n"
            "h = lambda: D\n"
        )
        assert _type_only_runtime_uses(tree) == [(6, "A"), (7, "B"), (10, "C"), (15, "D")]

    def test_moved_halves_load_at_their_boundaries_in_a_fresh_process(self, tmp_path):
        """Each boundary works in a fresh interpreter, where no earlier test
        has imported the half it crosses into: the pool and the disk cache,
        the telemetry session and its timeline sampler, the fault injector,
        the Section VI/VII methods and the first exec incident's watchdog."""
        from repro.cli import main
        from repro.exec.supervise import CHAOS_ENV

        def repro(*argv: str, **env: str) -> str:
            out = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, text=True, timeout=300,
                env={**_example_env(), **env},
            )
            assert out.returncode == 0, out.stderr[-2000:]
            return out.stdout

        def in_process(*argv: str) -> str:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(list(argv)) == 0
            return out.getvalue()

        grid = ("characterize", "--intervals", "72")
        plain = repro(*grid)
        pooled = ("--workers", "2", "--cache", str(tmp_path / "cache"))
        assert repro(*grid, *pooled) == plain  # cold: the pool fills the cache
        assert os.listdir(tmp_path / "cache")
        assert repro(*grid, *pooled) == plain  # warm: replayed from the cache
        assert repro(*grid, "--telemetry", str(tmp_path / "tel")) == plain
        assert os.path.exists(tmp_path / "tel" / "timeline.jsonl")
        faults = ("faults", "--months", "1", "--interval", "72")
        assert repro(*faults, "--telemetry", str(tmp_path / "tel-faults")) == repro(
            *faults
        )
        for argv in (("calibrate",), ("whatif", "--mtbf-hours", "100")):
            assert repro(*argv) == in_process(*argv)
        # A worker crash is the pooled run's first incident.
        crashed = tmp_path / "tel-crash"
        chaos = {CHAOS_ENV: f"exit_once=1;dir={tmp_path / 'markers'}"}
        assert repro(*grid, "--workers", "2", "--telemetry", str(crashed), **chaos) == plain
        with open(crashed / "events.jsonl", encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh]
        alerts = [rec["fields"]["rule"] for rec in events if rec.get("name") == "obs.alert"]
        assert "exec_worker_crash" in alerts
        metrics = (crashed / "metrics.prom").read_text(encoding="utf-8")
        assert "repro_alert_exec_worker_crash_total" in metrics


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
