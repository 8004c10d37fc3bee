"""Tests of the end-to-end benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from benchmarks.e2e import hostspeed
from benchmarks.e2e import metrics as catalogue
from benchmarks.e2e.spans import Tracer, layer_metrics, self_times
from benchmarks.e2e.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ------------------------------------------------------------------ catalogue


def test_metric_names_and_units_are_well_formed():
    names = [m.name for m in catalogue.METRICS]
    assert len(names) == len(set(names))
    for metric in catalogue.METRICS:
        assert catalogue.NAME_RE.match(metric.name), metric.name
        assert UNIT_RE.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
        assert (metric.bound is not None) == (metric.kind == catalogue.E2E)


def test_catalogue_agrees_with_benchmark_json():
    bench = _benchmark_json()
    e2e = [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
           for m in catalogue.METRICS if m.contract and m.kind == catalogue.E2E]
    layer = [{"name": m.name, "unit": m.unit, "better": m.better}
             for m in catalogue.METRICS if m.contract and m.kind == catalogue.LAYER]
    assert bench["end_to_end"] == e2e
    assert bench["per_layer"] == layer
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for entry in bench["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert bench["paths"] == ["benchmarks/e2e"]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# ---------------------------------------------------------------------- spans


def _span(sid, parent, name, t0, t1):
    return {"id": sid, "parent": parent, "name": name, "t0": t0, "t1": t1, "cell": None}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, "bench.rep", 0.0, 10.0),
        _span(2, 1, "exec.map", 1.0, 4.0),
        _span(3, 1, "core.calibrate", 3.0, 6.0),  # overlaps span 2
        _span(4, 2, "events.run", 2.0, 3.0),
        _span(5, 4, "storage.write", 2.5, 3.5),  # clipped to its parent
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0)  # union of [1,4] and [3,6]
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0 - 0.5)


def test_layer_self_times_decompose_the_rep():
    spans = [
        _span(1, None, "bench.rep", 0.0, 10.0),
        _span(2, 1, "exec.map", 1.0, 4.0),
        _span(3, 2, "events.run", 2.0, 3.0),
        _span(4, 3, "storage.write", 2.2, 2.4),
        _span(5, 1, "core.calibrate", 5.0, 6.0),
    ]
    out = layer_metrics(spans, Counter({"events.dispatched": 4}), root=1)
    assert out["trace.self_s.bench"] == pytest.approx(6.0)
    assert out["trace.self_s.exec"] == pytest.approx(2.0)
    assert out["trace.self_s.events"] == pytest.approx(0.8)
    assert out["trace.self_s.storage"] == pytest.approx(0.2)
    assert out["trace.self_s.core"] == pytest.approx(1.0)
    total = sum(v for k, v in out.items() if k.startswith("trace.self_s."))
    assert total == pytest.approx(10.0)
    assert out["trace.attributed_frac"] == pytest.approx(0.4)
    assert out["events.run_s"] == pytest.approx(1.0)
    assert out["events.self_s"] == pytest.approx(0.8)
    assert out["events.host_us_per_event"] == pytest.approx(1e6 * 1.0 / 4)
    assert out["storage.write_s"] == pytest.approx(0.2)


def test_generator_proxy_forwards_values_and_interrupts():
    def process():
        got = yield "first"
        try:
            yield got
        except KeyError:
            yield "handled"
        return "done"

    tracer = Tracer()
    gen = tracer.timed_generator("storage.write", process)()
    assert next(gen) == "first"
    assert gen.send("echo") == "echo"
    assert gen.throw(KeyError("x")) == "handled"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert [s["name"] for s in tracer.spans] == ["storage.write"] * 4
    assert tracer.counts["storage.write.calls"] == 1


# ------------------------------------------------------------------ hostspeed


def test_host_factor_is_the_mean_sampled_speed_since_the_mark():
    sampler = hostspeed.Sampler()
    sampler.n, sampler.speed_sum = 2, 2 / hostspeed.NOMINAL_S
    mark = sampler.mark()
    # Kernels at the nominal time and at half of it: the host ran 1.5x as
    # fast as the reference on average, so a second counts as 1.5.
    sampler.n += 2
    sampler.speed_sum += 1 / hostspeed.NOMINAL_S + 2 / hostspeed.NOMINAL_S
    assert sampler.factor(mark) == pytest.approx(1.5)
    with pytest.raises(RuntimeError):  # no sample since the mark
        sampler.factor(sampler.mark())


# -------------------------------------------------------------------- compare


def _report(samples: dict, layer: dict = None, seed: int = 0) -> dict:
    return {"seed": seed, "workloads": {"w": {
        "e2e": {k: dict(catalogue.summarize(v), unit="s") for k, v in samples.items()},
        "layer": {k: {"value": v, "unit": "count"} for k, v in (layer or {}).items()},
    }}}


BASE = [1.00, 1.02, 0.99, 1.01, 0.98, 1.00, 1.03, 0.97, 1.01, 0.99]


@pytest.mark.parametrize("change, expected", [
    ([x * 1.3 for x in BASE], catalogue.WORSE),
    ([x * 1.05 for x in BASE], catalogue.NO_WORSE),
    ([x * 0.7 for x in BASE], catalogue.BETTER),
    (list(BASE), catalogue.NO_WORSE),
])
def test_compare_verdicts(change, expected):
    wall = catalogue.by_name()["wall_s"]
    verdict, _ = catalogue.verdict(wall, BASE, change)
    assert verdict == expected


def test_compare_is_unresolved_when_the_base_spread_exceeds_the_bound():
    wall = catalogue.by_name()["wall_s"]
    noisy = [1.0, 2.0, 0.5, 1.5, 0.7, 1.9, 0.6, 1.2, 0.8, 1.6]
    assert catalogue.verdict(wall, noisy, [x * 1.1 for x in noisy])[0] == catalogue.UNRESOLVED
    # ... unless every change sample beats every base sample.
    assert catalogue.verdict(wall, noisy, [0.1] * 10)[0] == catalogue.BETTER


def test_compare_claims_no_gain_on_fewer_than_ten_pairs():
    wall = catalogue.by_name()["wall_s"]
    assert catalogue.verdict(wall, BASE[:9], [0.5] * 9)[0] == catalogue.NO_WORSE


def test_merged_runs_pair_up_by_run():
    runs = [_report({"wall_s": [v, v]}, seed=seed) for seed, v in enumerate(BASE)]
    merged = catalogue.merge_reports(runs)
    wall = merged["workloads"]["w"]["e2e"]["wall_s"]
    assert wall["samples"] == BASE and wall["n"] == len(BASE)
    assert merged["seed"] == list(range(len(BASE)))


def test_compare_reports_requires_exact_counts_and_flags_failures():
    base = _report({"wall_s": BASE, "failed_frac": [0.0]}, {"events.dispatched": 100})
    same = _report({"wall_s": BASE, "failed_frac": [0.0]}, {"events.dispatched": 100})
    rows, ok = catalogue.compare_reports(base, same)
    assert ok and {r["verdict"] for r in rows} == {catalogue.NO_WORSE, catalogue.MATCH}
    drift = _report({"wall_s": BASE, "failed_frac": [0.5]}, {"events.dispatched": 101})
    rows, ok = catalogue.compare_reports(base, drift)
    verdicts = {r["metric"]: r["verdict"] for r in rows}
    assert not ok
    assert verdicts["events.dispatched"] == catalogue.MISMATCH
    assert verdicts["failed_frac"] == catalogue.WORSE


# --------------------------------------------------------------- end to end


def test_forced_golden_mismatch_fails_the_run(tmp_path):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"schema": 1, "workloads": {"faults-traced": {
        "seed": 0, "digests": {"scenario-0": "0" * 64}}}}))
    out = _run_bench("run", "--workload", "faults-traced", "--quick",
                     "--golden", str(golden))
    assert out.returncode != 0
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "differs from golden.json" in out.stderr


def test_children_share_the_run_and_continue_the_rep_order(tmp_path):
    # No time to share: each of the five children runs the one rep it must.
    out = _run_bench("run", "--workload", "faults-traced", "--seconds", "0",
                     "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2 * 5
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)["workloads"]["faults-traced"]
    # Child k ran rep k, so it took the k-th fault schedule.
    assert {key for key in report["digests"] if key.startswith("scenario-")} == {
        f"scenario-{i}" for i in range(5)}
    assert report["e2e"]["wall_s"]["n"] == 5
    assert report["e2e"]["setup_s"]["n"] == 5
    assert report["threads"] in ([1] * 5, [None] * 5)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmarks", "e2e"),
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_bench("run", "--workload", "cold-cli", "--quick", cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""
