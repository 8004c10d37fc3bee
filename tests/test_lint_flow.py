"""Tests for :mod:`repro.lint.flow` — the flow-sensitive dimensional and
determinism analyzer.

Covers the dimension algebra directly, the ``dim-*`` rules on synthetic
sources (including property-style random expression trees with known
dimensions), the inter-procedural call-boundary check, every ``det-*``
rule, and the acceptance meta-test that the shipped tree stays clean
under the flow rules.
"""

from __future__ import annotations

import random as random_module
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.flow import (
    DIMENSIONLESS,
    PackageIndex,
    Unit,
    index_for,
    parse_unit_spec,
    scan_unit_annotations,
    unit_of_name,
)
from repro.lint.flow.dims import conversion_constant, divide, multiply

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path: Path, relpath: str, source: str, select=None) -> list:
    """Write ``source`` at ``tmp_path/relpath`` and lint that one file."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return run_lint([str(target)], select=select)


def rule_ids(findings) -> set:
    return {f.rule for f in findings}


FLOW_RULES = [
    "dim-mix", "dim-arg", "dim-return",
    "det-seed", "det-clock", "det-iter", "det-env",
]


# ---------------------------------------------------------------------------
# The dimension algebra.


class TestUnitAlgebra:
    def test_watts_times_seconds_is_joules(self):
        watts = unit_of_name("p_watts")
        seconds = unit_of_name("t_seconds")
        product = multiply(watts, seconds)
        assert product.dims == parse_unit_spec("joules").dims

    def test_joules_per_second_is_watts(self):
        joules = unit_of_name("e_joules")
        seconds = unit_of_name("t_seconds")
        ratio = divide(joules, seconds)
        assert ratio.dims == parse_unit_spec("watts").dims

    def test_scaled_units_share_dims_but_not_scale(self):
        gb = parse_unit_spec("gb")
        b = parse_unit_spec("bytes")
        assert gb.dims == b.dims
        assert gb.scale == 1e9
        assert b.scale == 1.0

    def test_per_compound_names(self):
        bw = unit_of_name("bw_bytes_per_s")
        assert bw is not None
        assert dict(bw.dims) == {"B": 1, "s": -1}

    def test_adjacent_unit_tokens_without_per_are_not_guessed(self):
        # ``bandwidth_mb_s`` usually means MB/s; without ``_per_`` the
        # analyzer must not read it as megabytes-times-seconds.
        assert unit_of_name("bandwidth_mb_s") is None

    def test_single_letter_units_need_an_underscore(self):
        assert unit_of_name("s") is None
        assert unit_of_name("t_s") is not None
        assert unit_of_name("w") is None
        assert unit_of_name("cap_w") is not None

    def test_non_unit_name_is_unknown(self):
        assert unit_of_name("total") is None
        assert unit_of_name("index") is None

    def test_conversion_constant_times_literal_is_canonical(self):
        hour = conversion_constant("s", "hours")
        lit = Unit(dims=(), scale=3.0, label="literal", literal=True)
        q = multiply(lit, hour)
        assert dict(q.dims) == {"s": 1}

    def test_dimensionless_is_not_dimensioned(self):
        assert not DIMENSIONLESS.dimensioned

    def test_annotation_scan_parses_named_and_bare_specs(self):
        source = (
            "def f(t0, payload):  # repro-unit: joules, t0=seconds\n"
            "    return payload\n"
        )
        annotations = scan_unit_annotations(source.splitlines())
        assert annotations, "annotation comment not found"
        (lineno, spec), = list(annotations.items())
        assert lineno == 1
        assert spec.get("") is not None  # bare spec: the return
        assert dict(spec[""].dims) == {"J": 1}
        assert dict(spec["t0"].dims) == {"s": 1}


# ---------------------------------------------------------------------------
# Property-style: random expression trees with known dimensions.

_VARS = {
    "t_seconds": {"s": 1},
    "dt_seconds": {"s": 1},
    "e_joules": {"J": 1},
    "q_joules": {"J": 1},
    "p_watts": {"J": 1, "s": -1},
    "cap_watts": {"J": 1, "s": -1},
    "n_bytes": {"B": 1},
    "size_bytes": {"B": 1},
}


def _dims_mul(a, b, sign=1):
    out = dict(a)
    for sym, power in b.items():
        out[sym] = out.get(sym, 0) + sign * power
        if out[sym] == 0:
            del out[sym]
    return out


def _random_tree(rng, depth):
    """Returns ``(expr_source, dims_dict)`` for a dimensionally valid tree."""
    if depth <= 0 or rng.random() < 0.3:
        name = rng.choice(sorted(_VARS))
        return name, dict(_VARS[name])
    left, ldims = _random_tree(rng, depth - 1)
    right, rdims = _random_tree(rng, depth - 1)
    op = rng.choice(["+", "*", "/"])
    if op == "+":
        if ldims != rdims:
            # Mismatched operands cannot be added; fall back to multiply,
            # which is dimensionally unrestricted.
            op = "*"
        else:
            return f"({left} + {right})", ldims
    if op == "*":
        return f"({left} * {right})", _dims_mul(ldims, rdims)
    return f"({left} / {right})", _dims_mul(ldims, rdims, sign=-1)


@pytest.mark.parametrize("seed", range(25))
def test_valid_random_trees_lint_clean(tmp_path, seed):
    rng = random_module.Random(seed)
    expr, _ = _random_tree(rng, depth=4)
    params = ", ".join(sorted(_VARS))
    source = f"def f({params}):\n    return {expr}\n"
    findings = lint_source(tmp_path, f"tree_{seed}.py", source, select=["dim-mix"])
    assert findings == [], "\n".join(str(f) for f in findings)


@pytest.mark.parametrize("seed", range(25))
def test_injected_mix_in_random_tree_is_flagged(tmp_path, seed):
    rng = random_module.Random(1000 + seed)
    expr, dims = _random_tree(rng, depth=3)
    # Pick an addend with definitely different, non-empty dimensions.
    foreign = next(
        name for name in sorted(_VARS)
        if _VARS[name] != dims
    )
    if not dims:
        pytest.skip("tree collapsed to dimensionless; addition is unchecked")
    params = ", ".join(sorted(_VARS))
    source = f"def f({params}):\n    return {expr} + {foreign}\n"
    findings = lint_source(tmp_path, f"mix_{seed}.py", source, select=["dim-mix"])
    assert "dim-mix" in rule_ids(findings), source


# ---------------------------------------------------------------------------
# dim-* rules on targeted fixtures.


class TestDimRules:
    def test_watts_plus_joules_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py",
            "def f(p_watts, e_joules):\n    return p_watts + e_joules\n",
        )
        assert "dim-mix" in rule_ids(findings)

    def test_energy_identity_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py",
            "def f(p_watts, t_seconds, e_joules):\n"
            "    return p_watts * t_seconds + e_joules\n",
        )
        assert findings == []

    def test_power_identity_via_division_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py",
            "def f(e_joules, t_seconds, cap_watts):\n"
            "    return e_joules / t_seconds < cap_watts\n",
        )
        assert findings == []

    def test_comparison_across_dims_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py",
            "def f(t_seconds, n_bytes):\n    return t_seconds < n_bytes\n",
        )
        assert "dim-mix" in rule_ids(findings)

    def test_addition_across_families_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py", "def f(t_seconds, n_bytes):\n    return t_seconds + n_bytes\n"
        )
        assert "dim-mix" in rule_ids(findings)

    def test_same_family_different_unit_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py", "def f(size_gb, size_bytes):\n    return size_gb - size_bytes\n"
        )
        assert "dim-mix" in rule_ids(findings)

    def test_comparison_across_scales_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py", "def f(t_hours, t_seconds):\n    return t_hours < t_seconds\n"
        )
        assert "dim-mix" in rule_ids(findings)

    def test_same_unit_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py", "def f(a_gb, b_gb):\n    return a_gb + b_gb\n"
        )
        assert findings == []

    def test_multiplication_across_units_is_fine(self, tmp_path):
        """W x s = J: crossing units under * and / is physics, not a bug."""
        findings = lint_source(
            tmp_path, "mod.py", "def f(p_watts, t_seconds):\n    return p_watts * t_seconds\n"
        )
        assert findings == []

    def test_rate_plus_amount_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            "def f(bw_bytes_per_s, n_bytes):\n    return bw_bytes_per_s + n_bytes\n",
        )
        assert "dim-mix" in rule_ids(findings)

    def test_augmented_assignment_is_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            "def f(total_bytes, t_seconds):\n"
            "    total_bytes += t_seconds\n"
            "    return total_bytes\n",
        )
        assert [(f.rule, f.line) for f in findings] == [("dim-mix", 2)]

    def test_attribute_chains_are_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            "def f(self, other):\n"
            "    return self.size_gb + other.stats.size_bytes\n",
        )
        assert [(f.rule, f.line) for f in findings] == [("dim-mix", 2)]

    def test_suppression_comment(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            "def f(t_seconds, n_bytes):\n"
            "    return t_seconds + n_bytes  # repro-lint: disable=dim-mix\n",
        )
        assert findings == []

    def test_annotation_overrides_name(self, tmp_path):
        source = (
            "def mean(total_joules, n):  # repro-unit: joules\n"
            "    return total_joules / n\n"
        )
        assert lint_source(tmp_path, "mod.py", source) == []

    def test_return_contradicting_annotation_is_flagged(self, tmp_path):
        source = (
            "def energy(p_watts, t_seconds):  # repro-unit: seconds\n"
            "    return p_watts * t_seconds\n"
        )
        findings = lint_source(tmp_path, "mod.py", source)
        assert "dim-return" in rule_ids(findings)

    def test_name_promises_unit_but_returns_another(self, tmp_path):
        source = (
            "def total_seconds(e_joules, p_watts):\n"
            "    return e_joules * p_watts\n"
        )
        findings = lint_source(tmp_path, "mod.py", source)
        assert "dim-return" in rule_ids(findings)

    def test_assignment_propagates_units(self, tmp_path):
        source = (
            "def f(p_watts, t_seconds):\n"
            "    energy = p_watts * t_seconds\n"
            "    return energy + t_seconds\n"
        )
        findings = lint_source(tmp_path, "mod.py", source)
        assert "dim-mix" in rule_ids(findings)

    def test_branch_conflict_degrades_to_unknown(self, tmp_path):
        source = (
            "def f(flag, t_seconds, n_bytes):\n"
            "    if flag:\n"
            "        x = t_seconds\n"
            "    else:\n"
            "        x = n_bytes\n"
            "    return x + t_seconds\n"
        )
        # After the merge ``x`` is unknown, so the add must not fire.
        assert lint_source(tmp_path, "mod.py", source) == []

    def test_intra_file_call_site_is_checked(self, tmp_path):
        source = (
            "def store(payload_bytes):\n"
            "    return payload_bytes\n"
            "\n"
            "\n"
            "def go(duration_seconds):\n"
            "    return store(duration_seconds)\n"
        )
        findings = lint_source(tmp_path, "mod.py", source)
        assert "dim-arg" in rule_ids(findings)


class TestInterProcedural:
    """A wrong-unit value crossing a module boundary must be caught."""

    def _make_package(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "storage.py").write_text(
            "def write(nbytes):  # repro-unit: nbytes=bytes\n"
            "    return nbytes\n",
            encoding="utf-8",
        )
        return pkg

    def test_seconds_into_bytes_parameter_across_modules(self, tmp_path):
        pkg = self._make_package(tmp_path)
        driver = pkg / "driver.py"
        driver.write_text(
            "from pkg.storage import write\n"
            "\n"
            "\n"
            "def go(duration_seconds):\n"
            "    return write(duration_seconds)\n",
            encoding="utf-8",
        )
        findings = run_lint([str(driver)])
        assert "dim-arg" in rule_ids(findings), findings

    def test_correct_unit_across_modules_is_clean(self, tmp_path):
        pkg = self._make_package(tmp_path)
        driver = pkg / "driver.py"
        driver.write_text(
            "from pkg.storage import write\n"
            "\n"
            "\n"
            "def go(payload_bytes):\n"
            "    return write(payload_bytes)\n",
            encoding="utf-8",
        )
        assert run_lint([str(driver)]) == []

    def test_module_alias_call_is_resolved(self, tmp_path):
        pkg = self._make_package(tmp_path)
        driver = pkg / "driver.py"
        driver.write_text(
            "from pkg import storage\n"
            "\n"
            "\n"
            "def go(duration_seconds):\n"
            "    return storage.write(duration_seconds)\n",
            encoding="utf-8",
        )
        findings = run_lint([str(driver)])
        assert "dim-arg" in rule_ids(findings)

    def test_package_index_summarizes_functions(self, tmp_path):
        pkg = self._make_package(tmp_path)
        index, module = index_for(pkg / "storage.py")
        assert isinstance(index, PackageIndex)
        summary = index.function(module, "write")
        assert summary is not None
        assert summary.param_units.get("nbytes") is not None


# ---------------------------------------------------------------------------
# det-* rules.


class TestDetRules:
    def test_module_level_unseeded_rng(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py", "import random\n\nx = random.random()\n",
        )
        assert "det-seed" in rule_ids(findings)

    def test_seeded_instance_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py",
            "import random\n\nrng = random.Random(42)\nx = rng.random()\n",
        )
        assert findings == []

    def test_wall_clock_into_cache_key(self, tmp_path):
        source = (
            "import time\n"
            "\n"
            "\n"
            "def f():\n"
            "    cache_key = time.time()\n"
            "    return cache_key\n"
        )
        findings = lint_source(tmp_path, "mod.py", source)
        assert "det-clock" in rule_ids(findings)

    def test_wall_clock_into_payload(self, tmp_path):
        source = (
            "import time\n"
            "\n"
            "\n"
            "def f(request, RunResult):\n"
            "    stamp = time.time()\n"
            "    return RunResult(request=request, stamp=stamp)\n"
        )
        findings = lint_source(tmp_path, "mod.py", source)
        assert "det-clock" in rule_ids(findings)

    def test_pid_into_payload(self, tmp_path):
        source = (
            "import os\n"
            "\n"
            "\n"
            "def f(request, RunResult):\n"
            "    tag = os.getpid()\n"
            "    return RunResult(request=request, tag=tag)\n"
        )
        findings = lint_source(tmp_path, "mod.py", source)
        assert "det-env" in rule_ids(findings)

    def test_set_iteration_feeding_accumulation(self, tmp_path):
        source = (
            "def total(values):\n"
            "    acc = 0.0\n"
            "    for v in {1.0, 2.0, 3.0}:\n"
            "        acc += v\n"
            "    return acc\n"
        )
        findings = lint_source(tmp_path, "mod.py", source)
        assert "det-iter" in rule_ids(findings)

    def test_sorted_washes_the_order(self, tmp_path):
        source = (
            "def total(values):\n"
            "    acc = 0.0\n"
            "    for v in sorted({1.0, 2.0, 3.0}):\n"
            "        acc += v\n"
            "    return acc\n"
        )
        assert lint_source(tmp_path, "mod.py", source) == []

    def test_suppression_comment_silences_det_rule(self, tmp_path):
        findings = lint_source(
            tmp_path, "mod.py",
            "import random\n\n"
            "x = random.random()  # repro-lint: disable=det-seed\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Acceptance: the shipped tree stays clean under the flow rules.


class TestShippedTreeCleanUnderFlowRules:
    def test_src_is_clean_with_flow_rules_only(self):
        findings = run_lint([str(REPO_ROOT / "src")], select=FLOW_RULES)
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_tests_and_benchmarks_are_clean_with_det_rules(self):
        paths = [str(REPO_ROOT / "tests"), str(REPO_ROOT / "benchmarks")]
        examples = REPO_ROOT / "examples"
        if examples.is_dir():
            paths.append(str(examples))
        findings = run_lint(paths, select=FLOW_RULES)
        assert findings == [], "\n".join(str(f) for f in findings)
