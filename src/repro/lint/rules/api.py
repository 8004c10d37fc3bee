"""API-hygiene rules: mutable defaults, bare excepts and ``__all__`` checks."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.engine import FileContext, Finding, Rule, register

__all__ = [
    "BareExceptRule",
    "MissingAllRule",
    "MutableDefaultRule",
    "StaleAllRule",
]

#: Calls to these builtins as a default build a fresh mutable each *def*,
#: shared across calls — same trap as a literal.
_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray"}


@register
class MutableDefaultRule(Rule):
    """Mutable default argument values."""

    id = "mutable-default"
    summary = "function parameter default is a mutable object ([], {}, set(), ...)"

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_FACTORIES
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag list/dict/set literals (or factories) used as defaults."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield ctx.finding(
                        self.id, default,
                        f"mutable default in `{node.name}(...)`; use None "
                        "and create the object inside the function",
                    )


@register
class BareExceptRule(Rule):
    """``except:`` without an exception type."""

    id = "bare-except"
    summary = "bare 'except:' swallows SystemExit/KeyboardInterrupt"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag exception handlers with no exception type."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    self.id, node,
                    "bare 'except:'; catch a specific exception "
                    "(or at least Exception)",
                )


def _has_all(tree: ast.Module) -> bool:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in node.targets):
                return True
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.target.id == "__all__":
                return True
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            if node.target.id == "__all__":
                return True
    return False


@register
class MissingAllRule(Rule):
    """Public library modules must declare ``__all__``."""

    id = "missing-all"
    summary = "public module under repro/ lacks an __all__ declaration"

    def applies_to(self, ctx: FileContext) -> bool:
        """Library modules only; `_private` and `__main__` are exempt."""
        if "/repro/" not in ctx.posix:
            return False
        name = ctx.path.name
        return name == "__init__.py" or not name.startswith("_")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag modules with no module-level ``__all__`` assignment."""
        if not _has_all(ctx.tree):
            yield Finding(
                path=str(ctx.path), line=1, col=1, rule=self.id,
                message="public module has no __all__; declare its API surface",
            )


def _literal_all_names(tree: ast.Module) -> Optional[List[ast.Constant]]:
    for node in tree.body:
        value = None
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            value = node.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "__all__"
        ):
            value = node.value
        if isinstance(value, (ast.List, ast.Tuple)):
            elements = [
                e for e in value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            if len(elements) == len(value.elts):
                return elements
    return None


def _bound_names(tree: ast.Module) -> Optional[Set[str]]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(_target_names(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names.update(_target_names(node.target))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    return None  # star import: cannot verify statically
                bound = alias.asname or alias.name.split(".")[0]
                names.add(bound)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional definitions (version guards, optional deps).
            for child in ast.walk(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    names.add(child.name)
                elif isinstance(child, ast.Assign):
                    for target in child.targets:
                        names.update(_target_names(target))
                elif isinstance(child, (ast.Import, ast.ImportFrom)):
                    for alias in child.names:
                        if alias.name == "*":
                            return None
                        names.add(alias.asname or alias.name.split(".")[0])
    return names


def _target_names(target: ast.expr) -> Set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        out: Set[str] = set()
        for element in target.elts:
            out |= _target_names(element)
        return out
    return set()


@register
class StaleAllRule(Rule):
    """Every ``__all__`` entry must resolve to a module-level name."""

    id = "stale-all"
    summary = "__all__ lists a name the module does not define or import"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``__all__`` entries with no matching top-level binding."""
        entries = _literal_all_names(ctx.tree)
        if entries is None:
            return
        bound = _bound_names(ctx.tree)
        if bound is None:
            return
        for entry in entries:
            if entry.value not in bound:
                yield ctx.finding(
                    self.id, entry,
                    f"__all__ exports `{entry.value}` but the module never "
                    "defines or imports it",
                )
