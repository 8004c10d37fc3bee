"""Fig. 7 — storage requirements of both pipelines at 8/24/72 h.

Raw netCDF: 230 / 80 / 27 GB; Cinema image databases: <1 GB — a >=99.5 %
reduction at every cadence.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro import paper
from repro.core.metrics import IN_SITU, POST_PROCESSING
from repro.io.ncformat import nclite_nbytes
from repro.pipelines.real import MiniOceanDriver


def test_fig7_storage(study, benchmark):
    lines = [
        "Fig. 7 — storage committed (GB)",
        f"{'cadence':>10s} {'in-situ':>9s} {'post':>9s} {'reduction':>10s} {'paper post':>11s}",
    ]
    reductions = benchmark(
        lambda: {h: study.metrics.storage_savings(h) for h in paper.SAMPLING_INTERVALS_HOURS}
    )
    for hours in paper.SAMPLING_INTERVALS_HOURS:
        insitu = study.metrics.get(IN_SITU, hours).storage_gb
        post = study.metrics.get(POST_PROCESSING, hours).storage_gb
        red = reductions[hours]
        lines.append(
            f"{hours:>8.0f} h {insitu:>9.2f} {post:>9.1f} {100 * red:>9.2f}% "
            f"{paper.POST_STORAGE_GB[hours]:>10.0f}"
        )
        assert post == pytest.approx(paper.POST_STORAGE_GB[hours], rel=0.15)
        assert insitu < paper.INSITU_STORAGE_GB_MAX
        assert red > paper.STORAGE_REDUCTION_MIN
    emit("fig7_storage", lines)


def test_fig7_outputs_counted(study, benchmark):
    benchmark(study.metrics.sample_intervals)
    for hours, n in paper.N_OUTPUTS.items():
        for pipeline in (IN_SITU, POST_PROCESSING):
            assert study.metrics.get(pipeline, hours).n_outputs == n


def test_fig7_raw_sample_serialization_cost(benchmark):
    """Cost of sizing one raw output sample (the netCDF-lite hot path)."""
    driver = MiniOceanDriver(nx=128, ny=64, seed=0)
    driver.advance(5)
    fields = driver.output_fields()

    nbytes = benchmark(lambda: nclite_nbytes(fields))

    assert nbytes > 8 * len(fields) * 128 * 64
