"""``repro.lint`` — the project's own static-analysis pass.

A small AST-based analyzer that enforces the invariants this reproduction
depends on and that generic linters cannot know about:

* **units discipline** — the strict internal convention of
  :mod:`repro.units` (seconds / bytes / watts / joules) must not be
  violated by arithmetic that mixes identifiers carrying different unit
  suffixes, and large numeric literals must not shadow the named
  constants of :mod:`repro.units` / :mod:`repro.paper`;
* **paper provenance** — every transcribed constant in
  :mod:`repro.paper` carries a ``#:`` citation comment, and no other
  module silently re-embeds a paper value;
* **simulation-loop hygiene** — ocean solver step functions stay pure:
  no printing, file I/O or wall-clock reads (instrumentation goes
  through :mod:`repro.events.tracing`);
* **API hygiene** — no mutable default arguments, no bare ``except``,
  and a present, consistent ``__all__`` in every public module.

Run it as ``python -m repro.lint src/ tests/ benchmarks/`` or through the
main CLI as ``python -m repro lint``.  Findings can be suppressed with
``# repro-lint: disable=RULE`` comments (trailing comment = that line
only, standalone comment line = the whole file).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.lint.engine import (
        FileContext,
        Finding,
        LintRunner,
        Rule,
        iter_python_files,
        registered_rules,
        run_lint,
    )
    from repro.lint.reporters import render_json, render_text

__all__ = [
    "FileContext",
    "Finding",
    "LintRunner",
    "Rule",
    "iter_python_files",
    "registered_rules",
    "render_json",
    "render_text",
    "run_lint",
]

__getattr__, __dir__ = lazy_exports(__name__)
