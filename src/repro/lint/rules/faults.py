"""Resilience hygiene: retries must go through ``repro.faults.RetryPolicy``.

Ad-hoc retry loops hide two bugs the fault-injection campaigns are designed
to expose: unbounded ``while True`` loops that spin forever when a fault is
persistent, and ``time.sleep`` backoff that stalls the *wall clock* instead
of the simulator.  :class:`~repro.faults.retry.RetryPolicy` bounds the
attempts, uses simulated (and seeded) backoff, and counts every retry in
telemetry — so inside ``repro`` it is the only sanctioned retry mechanism.

In modules that use ``concurrent.futures``, the rule additionally flags
``future.result()`` / ``as_completed()`` / ``wait()`` calls with no
``timeout`` argument: a hung worker then hangs the sweep forever with no
supervision ever noticing.  An *explicit* ``timeout=None`` is accepted — it
marks the unbounded wait as a decision rather than an oversight (the
execution engine passes its :class:`~repro.exec.supervise.TaskPolicy`
deadline, ``None`` when the policy sets none).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding, Rule, register

__all__ = ["FaultRetryRule"]


def _is_while_true(node: ast.While) -> bool:
    test = node.test
    return isinstance(test, ast.Constant) and test.value is True


def _has_except_continue(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(stmt, ast.Continue) for stmt in ast.walk(handler))


def _retries_forever(loop: ast.While) -> bool:
    """A ``while True`` whose ``try``'s exception path loops again."""
    for stmt in loop.body:
        if isinstance(stmt, ast.Try) and any(
            _has_except_continue(h) for h in stmt.handlers
        ):
            return True
    return False


def _is_time_sleep(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return (
            isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and func.attr == "sleep"
        )
    return isinstance(func, ast.Name) and func.id == "sleep"


def _imports_futures(tree: ast.AST) -> bool:
    """True when the module imports ``concurrent.futures`` (any spelling)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("concurrent") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None and node.module.startswith("concurrent"):
                return True
    return False


def _has_timeout_arg(call: ast.Call) -> bool:
    """True when the call passes ``timeout`` positionally or by keyword.

    ``timeout=None`` counts: writing it out states "wait forever" as a
    deliberate choice, which is all the rule asks for.
    """
    if any(kw.arg == "timeout" for kw in call.keywords):
        return True
    # `.result(5)` / `wait(fs, 5)`: timeout is the first positional arg of
    # result() and the second of wait()/as_completed().
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "result":
        return len(call.args) >= 1
    return len(call.args) >= 2


def _unbounded_wait_call(call: ast.Call) -> str:
    """The offending wait spelling, or ``""`` when the call is fine."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "result":
        # Only futures are waited on with .result() in modules importing
        # concurrent.futures (the applies-to gate).
        if not _has_timeout_arg(call):
            return "future.result()"
        return ""
    name = ""
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name in ("as_completed", "wait") and not _has_timeout_arg(call):
        return f"{name}()"
    return ""


@register
class FaultRetryRule(Rule):
    """Flag ad-hoc retry loops that bypass ``RetryPolicy``."""

    id = "fault-retry"
    summary = (
        "ad-hoc retry loop (while True + except/continue, sleep in a loop) "
        "or a futures wait with no timeout decision"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        """Library code only; tests may spin up whatever loops they need."""
        return "/repro/" in ctx.posix

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag unbounded retry loops, wall-clock backoff, untimed waits."""
        if _imports_futures(ctx.tree):
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                offender = _unbounded_wait_call(node)
                if offender:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"{offender} with no timeout waits forever on a hung "
                        "worker; pass a deadline, or an explicit timeout=None "
                        "to record that waiting forever is intentional",
                    )
        sleeps_seen: set = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.While, ast.For, ast.AsyncFor)):
                continue
            if isinstance(node, ast.While) and _is_while_true(node) and _retries_forever(node):
                yield ctx.finding(
                    self.id,
                    node,
                    "unbounded retry loop (`while True` re-attempting after an "
                    "exception); use repro.faults.RetryPolicy, which bounds "
                    "attempts and backs off in simulated time",
                )
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and _is_time_sleep(inner)
                    and id(inner) not in sleeps_seen
                ):
                    sleeps_seen.add(id(inner))
                    yield ctx.finding(
                        self.id,
                        inner,
                        "time.sleep inside a loop stalls the wall clock, not "
                        "the simulator; use repro.faults.RetryPolicy backoff "
                        "(sim.timeout) instead",
                    )
