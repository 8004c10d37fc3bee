"""Units-discipline rule.

The library's internal convention (see :mod:`repro.units`) is seconds /
bytes / watts / joules.  ``magic-number`` flags numeric literals ≥ 1e6
inside ``core/``, ``pipelines/``, ``power/`` or ``storage/`` whose value
duplicates a named constant from :mod:`repro.units` or :mod:`repro.paper`.
Additive arithmetic and comparisons across units are the flow rule
``dim-mix``'s (see :mod:`repro.lint.flow`).
"""

from __future__ import annotations

import ast
import math
from typing import Dict, Iterator, Optional

from repro.lint.engine import FileContext, Finding, Rule, register

__all__ = ["MagicNumberRule"]

#: Paths (posix fragments) where magic-number applies.
_MAGIC_SCOPES = (
    "/repro/core/",
    "/repro/pipelines/",
    "/repro/power/",
    "/repro/storage/",
)

#: Literals below this never count as magic numbers.
_MAGIC_THRESHOLD = 1e6


def _known_constants() -> Dict[str, str]:
    """value-key → qualified name for every large repro.units/paper scalar."""
    import repro.paper
    import repro.units

    table: Dict[str, str] = {}
    for module, label in ((repro.units, "repro.units"), (repro.paper, "repro.paper")):
        for name in sorted(vars(module)):
            value = getattr(module, name)
            if name.startswith("_") or isinstance(value, bool):
                continue
            if not isinstance(value, (int, float)):
                continue
            if abs(value) < _MAGIC_THRESHOLD:
                continue
            table.setdefault(_value_key(value), f"{label}.{name}")
    return table


def _value_key(value: float) -> str:
    return f"{float(value):.12e}"


@register
class MagicNumberRule(Rule):
    """Large literals that duplicate a named units/paper constant."""

    id = "magic-number"
    summary = (
        "numeric literal >= 1e6 in core/pipelines/power/storage duplicates "
        "a named constant from repro.units or repro.paper"
    )

    _table: Optional[Dict[str, str]] = None

    def applies_to(self, ctx: FileContext) -> bool:
        """Only the four unit-sensitive subpackages are in scope."""
        return any(fragment in ctx.posix for fragment in _MAGIC_SCOPES)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag large numeric literals equal to a known named constant."""
        if MagicNumberRule._table is None:
            MagicNumberRule._table = _known_constants()
        table = MagicNumberRule._table
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if not math.isfinite(value) or abs(value) < _MAGIC_THRESHOLD:
                continue
            name = table.get(_value_key(value))
            if name is not None:
                yield ctx.finding(
                    self.id,
                    node,
                    f"literal {value!r} duplicates {name}; use the named constant",
                )
