"""Lazy package exports (PEP 562).

A package ``__init__`` imports the names it re-exports under
``if TYPE_CHECKING:``, where type checkers and the ``stale-all`` lint rule
read them, lists them in a literal ``__all__`` and ends with::

    __getattr__, __dir__ = lazy_exports(__name__)

Importing the package then runs none of its submodules.  The first lookup of
an exported name imports the submodule that defines it and binds the name
into the package, so every later lookup is a plain attribute read.
"""

from __future__ import annotations

import ast
import os
import sys
import types
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["export_map", "lazy_exports"]


def export_map(package: str) -> Dict[str, Tuple[str, str]]:
    """Each name ``package`` exports -> (defining module, name there).

    Read from the ``from <module> import <name>`` statements under the
    package's top-level ``if TYPE_CHECKING:``.
    """
    tree = ast.parse(sys.modules[package].__spec__.loader.get_source(package))
    exports = {}
    for node in tree.body:
        if (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.ImportFrom):
                    for alias in stmt.names:
                        exports[alias.asname or alias.name] = (stmt.module, alias.name)
    return exports


def lazy_exports(package: str) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``; see the module doc.

    The package's source is parsed for :func:`export_map` on the first
    lookup of an exported name, not at import.
    """
    module = sys.modules[package]
    namespace = vars(module)
    exports: Dict[str, Tuple[str, str]] = {}

    def __getattr__(name: str) -> Any:
        if name not in namespace["__all__"]:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if not exports:
            exports.update(export_map(package))
        source, attr = exports[name]
        # The import statement's machinery, not importlib.import_module:
        # only the former shows up in ``python -X importtime``.
        __import__(source)
        value = getattr(sys.modules[source], attr)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | set(namespace["__all__"]))

    submodules = {entry.removesuffix(".py") for entry in os.listdir(module.__path__[0])}
    if submodules.intersection(namespace["__all__"]):
        module.__class__ = _ExportsShadowSubmodules
    return __getattr__, __dir__


class _ExportsShadowSubmodules(types.ModuleType):
    """A package exporting a name that is also one of its submodules'.

    The import system binds each submodule it loads onto the package, which
    would leave ``from repro.ocean import okubo_weiss`` giving the module
    once anything imported ``repro.ocean.okubo_weiss``.  The export is bound
    instead, as an eager ``from ... import`` in the ``__init__`` would have.
    Only such packages get this class: a module subclass loses the
    interpreter's fast path for attribute reads.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, types.ModuleType) and name in self.__all__:
            value = vars(self)["__getattr__"](name)
        super().__setattr__(name, value)
