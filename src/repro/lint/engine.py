"""Analyzer core: file contexts, the rule registry and the runner.

The engine is deliberately small.  A :class:`Rule` sees one parsed file at
a time through a :class:`FileContext` (source text, split lines, AST) and
yields :class:`Finding` objects.  The runner parses each file once, runs
every registered rule over it, and filters the results through the
suppression comments found in the source:

* ``x = a_gb + b_bytes  # repro-lint: disable=dim-mix`` — suppresses the
  named rule(s) on that line only;
* a standalone ``# repro-lint: disable=dim-mix`` comment line —
  suppresses the named rule(s) for the entire file;
* ``disable=all`` — suppresses every rule.

Rules register themselves with the :func:`register` decorator; importing
:mod:`repro.lint.rules` pulls in the built-in rule pack.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Type

__all__ = [
    "FileContext",
    "Finding",
    "LintRunner",
    "Rule",
    "iter_python_files",
    "register",
    "registered_rules",
    "run_lint",
]

#: Matches one suppression comment; group 1 is the comma-separated id list.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")

#: Sentinel rule id meaning "suppress everything".
ALL_RULES = "all"

#: Rule id used for files that fail to parse.
PARSE_ERROR = "parse-error"

#: Rule id for suppression comments that matched no finding.
UNUSED_SUPPRESSION = "unused-suppression"


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic emitted by a rule at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class FileContext:
    """Everything a rule may inspect about one file."""

    def __init__(self, path: Path, source: str, tree: ast.Module) -> None:
        self.path = path
        self.posix = path.resolve().as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.file_suppressions: set = set()
        self.line_suppressions: Dict[int, set] = {}
        #: Every suppression comment: (lineno, ids, is_file_level).
        self.suppression_comments: List[tuple] = []
        #: Rule ids that actually suppressed a finding, per scope.
        self.used_file_suppressions: set = set()
        self.used_line_suppressions: Dict[int, set] = {}
        self._scan_suppressions()

    def _scan_suppressions(self) -> None:
        for lineno, text in self._comment_lines():
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            file_level = text.lstrip().startswith("#")
            self.suppression_comments.append((lineno, frozenset(ids), file_level))
            if file_level:
                self.file_suppressions |= ids
            else:
                self.line_suppressions.setdefault(lineno, set()).update(ids)

    def _comment_lines(self) -> Iterator[tuple]:
        """``(lineno, line-text)`` for lines holding a *real* comment.

        Tokenizing (rather than regex over raw lines) keeps suppression
        directives embedded in string literals — lint-test fixtures,
        docs — from being honoured or judged as stale.
        """
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.source).readline)
            )
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # Fall back to the raw-line scan; the file parsed as AST, so
            # this is about tokenizer quirks, not broken source.
            for lineno, text in enumerate(self.lines, start=1):
                yield (lineno, text)
            return
        for token in tokens:
            if token.type == tokenize.COMMENT:
                lineno = token.start[0]
                if 1 <= lineno <= len(self.lines):
                    yield (lineno, self.lines[lineno - 1])

    def suppressed(self, rule_id: str, line: int) -> bool:
        """True if ``rule_id`` is disabled file-wide or on ``line``.

        A match is recorded so :class:`LintRunner` can report suppression
        comments that never matched anything (``unused-suppression``).
        """
        hit = False
        if rule_id in self.file_suppressions or ALL_RULES in self.file_suppressions:
            self.used_file_suppressions.add(rule_id)
            hit = True
        at_line = self.line_suppressions.get(line, ())
        if rule_id in at_line or ALL_RULES in at_line:
            self.used_line_suppressions.setdefault(line, set()).add(rule_id)
            hit = True
        return hit

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule_id,
            message=message,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` and ``summary`` and implement :meth:`check`.
    ``id`` is what suppression comments and ``--select``/``--disable``
    refer to.
    """

    #: Stable identifier, e.g. ``"dim-mix"``.
    id: str = ""
    #: One-line description shown by ``--list-rules`` and the README.
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError

    def applies_to(self, ctx: FileContext) -> bool:
        """Path-based scoping hook; default: every file."""
        return True


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.id in (ALL_RULES, PARSE_ERROR):
        raise ValueError(f"reserved rule id: {rule.id}")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id: {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def registered_rules() -> Dict[str, Rule]:
    """The registry (id → rule), loading the built-in pack on first use."""
    import repro.lint.rules  # noqa: F401  (registration side effect)

    return dict(_REGISTRY)


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, skipping caches."""
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            if any(part.startswith(".") and part not in (".", "..")
                   for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


class LintRunner:
    """Runs a rule set over a collection of files."""

    def __init__(
        self,
        rules: Optional[Iterable[Rule]] = None,
        select: Optional[Sequence[str]] = None,
        disable: Optional[Sequence[str]] = None,
    ) -> None:
        pool = list(rules) if rules is not None else list(registered_rules().values())
        if select:
            wanted = set(select)
            unknown = wanted - {r.id for r in pool}
            if unknown:
                raise ValueError(f"unknown rule ids: {sorted(unknown)}")
            pool = [r for r in pool if r.id in wanted]
        if disable:
            dropped = set(disable)
            pool = [r for r in pool if r.id not in dropped]
        self.rules = pool
        #: The unused-suppression check is engine-driven (it needs the
        #: post-run hit record), but obeys select/disable like any rule.
        self._judge_unused = any(r.id == UNUSED_SUPPRESSION for r in pool)

    def check_file(self, path: Path) -> List[Finding]:
        """Lint one file; a syntax error yields a single parse-error finding."""
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            return [Finding(str(path), 1, 1, PARSE_ERROR, f"unreadable file: {exc}")]
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return [
                Finding(
                    str(path), exc.lineno or 1, (exc.offset or 0) + 1,
                    PARSE_ERROR, f"syntax error: {exc.msg}",
                )
            ]
        ctx = FileContext(path, source, tree)
        findings: List[Finding] = []
        for rule in self.rules:
            if not rule.applies_to(ctx):
                continue
            for finding in rule.check(ctx):
                if not ctx.suppressed(finding.rule, finding.line):
                    findings.append(finding)
        if self._judge_unused:
            for finding in self._unused_suppressions(ctx):
                if not ctx.suppressed(finding.rule, finding.line):
                    findings.append(finding)
        return findings

    def _unused_suppressions(self, ctx: FileContext) -> List[Finding]:
        """``unused-suppression`` findings for comments that matched nothing.

        An id that no registered rule has is always stale.  Otherwise only
        rule ids the current run actually executed are judged — a
        ``--select`` that excludes a rule cannot prove its suppressions
        stale.  ``disable=all`` counts as used when *any* finding was
        suppressed in its scope.
        """
        active = {rule.id for rule in self.rules} | {PARSE_ERROR}
        known = active | set(registered_rules())
        out: List[Finding] = []
        for lineno, ids, file_level in ctx.suppression_comments:
            if file_level:
                used = ctx.used_file_suppressions
            else:
                used = ctx.used_line_suppressions.get(lineno, set())
            for rule_id in sorted(ids):
                problem = "matched no finding"
                if rule_id == ALL_RULES:
                    if used:
                        continue
                elif rule_id not in known:
                    problem = "names no registered rule"
                elif rule_id not in active or rule_id in used:
                    continue
                scope = "file-level" if file_level else "line"
                out.append(
                    Finding(
                        path=str(ctx.path), line=lineno, col=1,
                        rule=UNUSED_SUPPRESSION,
                        message=f"{scope} suppression of `{rule_id}` {problem}; "
                        "remove the stale comment",
                    )
                )
        return out

    def run(self, paths: Sequence[str]) -> List[Finding]:
        """Lint every python file reachable from ``paths``."""
        findings: List[Finding] = []
        for path in iter_python_files(paths):
            findings.extend(self.check_file(path))
        return sorted(findings)


def run_lint(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    disable: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """One-call API: lint ``paths`` with the registered rule pack."""
    return LintRunner(select=select, disable=disable).run(paths)
