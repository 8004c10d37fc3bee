"""What-if analysis (Section VII, Figures 9 and 10).

Given calibrated :class:`~repro.core.model.PipelinePredictor` objects for the
two pipelines, :class:`WhatIfAnalyzer` answers the paper's questions:

* *Storage vs. sampling rate* (Fig. 9): how much storage does a 100-year
  campaign need at each cadence, and what is the finest cadence that fits a
  storage budget (the paper's "2 TB budget forces post-processing to once
  every 8 days, while in-situ runs once per day or better")?
* *Energy vs. sampling rate* (Fig. 10): what energy does each pipeline need
  at each cadence, and how much does in-situ save (67.2 % at hourly
  sampling, 49 % at 12-hourly, 38 % at daily)?

The sweep family (:meth:`WhatIfAnalyzer.sweep`, :meth:`~WhatIfAnalyzer.
storage_vs_rate`, :meth:`~WhatIfAnalyzer.energy_vs_rate`,
:meth:`~WhatIfAnalyzer.failure_aware_sweep`) is keyword-only and returns
typed, sequence-like results whose ``to_dict()`` carries the same
``schema_version`` as the obs manifests.  Rows stay tuple-unpackable
(``for h, insitu, post in ...``) so paper-style printing is unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence

from repro.core.model import PipelinePredictor, Prediction
from repro.errors import ConfigurationError, ModelError
from repro.faults.model import FailureModel
from repro.obs.manifest import SCHEMA_VERSION
from repro.paper import TIMESTEP_SECONDS
from repro.units import HOUR

__all__ = [
    "EnergyRateRow",
    "FailureSweepResult",
    "FailureSweepRow",
    "RateSweepResult",
    "StorageRateRow",
    "SweepResult",
    "SweepRow",
    "WhatIfAnalyzer",
]


@dataclass(frozen=True)
class SweepRow:
    """One cadence in a sweep: predictions for both pipelines."""

    interval_hours: float
    insitu: Prediction
    post: Prediction

    def storage_savings(self) -> float:
        """Fractional storage reduction of in-situ at this cadence."""
        if self.post.s_io_gb == 0:
            raise ModelError("post-processing storage is zero; no baseline")
        return 1.0 - self.insitu.s_io_gb / self.post.s_io_gb

    def energy_savings(self) -> float:
        """Fractional energy reduction of in-situ at this cadence."""
        if self.post.energy is None or self.insitu.energy is None:
            raise ModelError("predictors lack power; energy unavailable")
        if self.post.energy == 0:
            raise ModelError("post-processing energy is zero; no baseline")
        return 1.0 - self.insitu.energy / self.post.energy

    def time_savings(self) -> float:
        """Fractional execution-time reduction of in-situ at this cadence."""
        if self.post.execution_time == 0:
            raise ModelError("post-processing time is zero; no baseline")
        return 1.0 - self.insitu.execution_time / self.post.execution_time

    def to_dict(self) -> dict:
        """JSON-safe representation (shared schema with obs manifests)."""
        return {
            "interval_hours": self.interval_hours,
            "insitu": asdict(self.insitu),
            "post": asdict(self.post),
        }


@dataclass(frozen=True)
class FailureSweepRow:
    """One cadence under failures: fault-free vs expected (Daly) outcomes."""

    interval_hours: float
    checkpoint_interval_seconds: float
    insitu: Prediction
    post: Prediction
    insitu_expected_seconds: float
    post_expected_seconds: float
    insitu_expected_joules: Optional[float]
    post_expected_joules: Optional[float]

    def insitu_overhead_ratio(self) -> float:
        """Fractional runtime inflation failures impose on in-situ."""
        if self.insitu.execution_time == 0:
            raise ModelError("in-situ time is zero; no baseline")
        return self.insitu_expected_seconds / self.insitu.execution_time - 1.0

    def post_overhead_ratio(self) -> float:
        """Fractional runtime inflation failures impose on post-processing."""
        if self.post.execution_time == 0:
            raise ModelError("post-processing time is zero; no baseline")
        return self.post_expected_seconds / self.post.execution_time - 1.0

    def energy_savings(self) -> float:
        """In-situ energy savings fraction *including* failure overheads."""
        if self.insitu_expected_joules is None or self.post_expected_joules is None:
            raise ModelError("predictors lack power; energy unavailable")
        if self.post_expected_joules == 0:
            raise ModelError("post-processing energy is zero; no baseline")
        return 1.0 - self.insitu_expected_joules / self.post_expected_joules

    def to_dict(self) -> dict:
        """JSON-safe representation (shared schema with obs manifests)."""
        return {
            "interval_hours": self.interval_hours,
            "checkpoint_interval_seconds": self.checkpoint_interval_seconds,
            "insitu": asdict(self.insitu),
            "post": asdict(self.post),
            "insitu_expected_seconds": self.insitu_expected_seconds,
            "post_expected_seconds": self.post_expected_seconds,
            "insitu_expected_joules": self.insitu_expected_joules,
            "post_expected_joules": self.post_expected_joules,
        }


class StorageRateRow(NamedTuple):
    """One Fig. 9 row; unpacks like the legacy ``(h, insitu, post)`` tuple."""

    interval_hours: float
    insitu_gb: float
    post_gb: float


class EnergyRateRow(NamedTuple):
    """One Fig. 10 row; unpacks like the legacy ``(h, insitu, post)`` tuple."""

    interval_hours: float
    insitu_joules: float
    post_joules: float


class _SweepSequence:
    """Sequence protocol shared by the typed sweep results."""

    rows: tuple = ()

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        return self.rows[index]


@dataclass(frozen=True)
class SweepResult(_SweepSequence):
    """Typed result of :meth:`WhatIfAnalyzer.sweep`: a row per cadence."""

    rows: tuple = ()
    duration_seconds: Optional[float] = None

    def to_dict(self) -> dict:
        """Versioned JSON-safe schema (shared with the obs manifests)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "sweep",
            "duration_seconds": self.duration_seconds,
            "rows": [row.to_dict() for row in self.rows],
        }


@dataclass(frozen=True)
class RateSweepResult(_SweepSequence):
    """Typed Fig. 9 / Fig. 10 result: named-tuple rows, versioned dict."""

    kind: str = ""
    columns: tuple = ()
    rows: tuple = ()
    duration_seconds: float = 0.0

    def to_dict(self) -> dict:
        """Versioned JSON-safe schema (shared with the obs manifests)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "columns": list(self.columns),
            "duration_seconds": self.duration_seconds,
            "rows": [list(row) for row in self.rows],
        }


@dataclass(frozen=True)
class FailureSweepResult(_SweepSequence):
    """Typed result of :meth:`WhatIfAnalyzer.failure_aware_sweep`."""

    rows: tuple = ()
    duration_seconds: float = 0.0
    mtbf_hours: float = 0.0

    def to_dict(self) -> dict:
        """Versioned JSON-safe schema (shared with the obs manifests)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "failure-aware-sweep",
            "duration_seconds": self.duration_seconds,
            "mtbf_hours": self.mtbf_hours,
            "rows": [row.to_dict() for row in self.rows],
        }


class WhatIfAnalyzer:
    """Sweeps and budget inversions over the calibrated models."""

    def __init__(
        self,
        insitu: PipelinePredictor,
        post: PipelinePredictor,
        timestep_seconds: float = TIMESTEP_SECONDS,
    ) -> None:
        if timestep_seconds <= 0:
            raise ConfigurationError(f"timestep must be positive: {timestep_seconds}")
        self.insitu = insitu
        self.post = post
        self.timestep_seconds = float(timestep_seconds)

    def iterations_for(self, duration_seconds: float) -> float:  # repro-unit: count
        """Timesteps of a campaign of ``duration_seconds`` simulated time."""
        if duration_seconds <= 0:
            raise ModelError(f"duration must be positive: {duration_seconds}")
        return duration_seconds / self.timestep_seconds

    # ----------------------------------------------------------------- sweeps

    def sweep(
        self,
        *,
        intervals_hours: Sequence[float],
        duration_seconds: Optional[float] = None,
    ) -> SweepResult:
        """Predict both pipelines at each cadence for a campaign length.

        Returns a :class:`SweepResult` — iterate it like a
        ``list[SweepRow]``, or serialize with ``to_dict()``.
        """
        iters = (
            None if duration_seconds is None else self.iterations_for(duration_seconds)
        )
        rows = []
        for h in intervals_hours:
            rows.append(
                SweepRow(
                    interval_hours=h,
                    insitu=self.insitu.predict(h, iters),
                    post=self.post.predict(h, iters),
                )
            )
        return SweepResult(rows=tuple(rows), duration_seconds=duration_seconds)

    def storage_vs_rate(
        self, *, intervals_hours: Sequence[float], duration_seconds: float
    ) -> RateSweepResult:
        """Fig. 9 rows: ``(interval_hours, insitu_gb, post_gb)``."""
        rows = tuple(
            StorageRateRow(r.interval_hours, r.insitu.s_io_gb, r.post.s_io_gb)
            for r in self.sweep(
                intervals_hours=intervals_hours, duration_seconds=duration_seconds
            )
        )
        return RateSweepResult(
            kind="storage-vs-rate",
            columns=("interval_hours", "insitu_gb", "post_gb"),
            rows=rows,
            duration_seconds=float(duration_seconds),
        )

    def energy_vs_rate(
        self, *, intervals_hours: Sequence[float], duration_seconds: float
    ) -> RateSweepResult:
        """Fig. 10 rows: ``(interval_hours, insitu_joules, post_joules)``."""
        rows = []
        for r in self.sweep(
            intervals_hours=intervals_hours, duration_seconds=duration_seconds
        ):
            if r.insitu.energy is None or r.post.energy is None:
                raise ModelError("predictors lack power; energy sweep unavailable")
            rows.append(EnergyRateRow(r.interval_hours, r.insitu.energy, r.post.energy))
        return RateSweepResult(
            kind="energy-vs-rate",
            columns=("interval_hours", "insitu_joules", "post_joules"),
            rows=tuple(rows),
            duration_seconds=float(duration_seconds),
        )

    def energy_savings(self, interval_hours: float, duration_seconds: float) -> float:
        """In-situ energy savings fraction at one cadence (Fig. 10 callouts)."""
        (row,) = self.sweep(
            intervals_hours=[interval_hours], duration_seconds=duration_seconds
        )
        return row.energy_savings()

    def failure_aware_sweep(
        self,
        *,
        intervals_hours: Sequence[float],
        duration_seconds: float,
        mtbf_hours: float,
        checkpoint_write_seconds: float,
        restart_seconds: float = 30.0,
        checkpoint_interval_seconds: Optional[float] = None,
    ) -> FailureSweepResult:
        """The Fig. 9/10 sweeps with failures folded in (Eq. 4 + Daly).

        Each cadence's fault-free prediction becomes an *expected* runtime
        and energy under a node MTBF of ``mtbf_hours``, a checkpoint that
        costs ``checkpoint_write_seconds`` to write and ``restart_seconds``
        to recover from.  The checkpoint interval defaults to Daly's
        optimum ``sqrt(2 * delta * MTBF)`` per cadence.
        """
        if mtbf_hours <= 0:
            raise ModelError(f"MTBF must be positive: {mtbf_hours}")
        model = FailureModel(
            mtbf_seconds=mtbf_hours * HOUR,
            checkpoint_write_seconds=checkpoint_write_seconds,
            restart_seconds=restart_seconds,
        )
        if checkpoint_interval_seconds is not None:
            tau = float(checkpoint_interval_seconds)
        else:
            tau = model.optimal_interval()
        rows = []
        for base in self.sweep(
            intervals_hours=intervals_hours, duration_seconds=duration_seconds
        ):
            insitu_t = model.expected_time(base.insitu.execution_time, tau)
            post_t = model.expected_time(base.post.execution_time, tau)
            insitu_j = None
            post_j = None
            if base.insitu.energy is not None and base.insitu.execution_time > 0:
                power = base.insitu.energy / base.insitu.execution_time
                insitu_j = model.expected_energy(
                    base.insitu.execution_time, tau, power
                )
            if base.post.energy is not None and base.post.execution_time > 0:
                power = base.post.energy / base.post.execution_time
                post_j = model.expected_energy(base.post.execution_time, tau, power)
            rows.append(
                FailureSweepRow(
                    interval_hours=base.interval_hours,
                    checkpoint_interval_seconds=tau,
                    insitu=base.insitu,
                    post=base.post,
                    insitu_expected_seconds=insitu_t,
                    post_expected_seconds=post_t,
                    insitu_expected_joules=insitu_j,
                    post_expected_joules=post_j,
                )
            )
        return FailureSweepResult(
            rows=tuple(rows),
            duration_seconds=float(duration_seconds),
            mtbf_hours=float(mtbf_hours),
        )

    # ------------------------------------------------------------- inversions

    def finest_interval_for_storage(
        self, pipeline: str, budget_gb: float, duration_seconds: float
    ) -> float:
        """Smallest sampling interval (hours) whose storage fits ``budget_gb``.

        Inverts Eq. (6): storage scales as ``1/interval``, so the finest
        feasible cadence is where predicted storage equals the budget.
        """
        if budget_gb <= 0:
            raise ModelError(f"storage budget must be positive: {budget_gb}")
        predictor = self._predictor(pipeline)
        iters = self.iterations_for(duration_seconds)
        # storage(h) = s_ref * (h_ref / h) * iter_scale  =>  h = h_ref * s(h_ref) / budget
        ref_h = predictor.data.interval_hours_ref
        s_at_ref = predictor.data.s_io_gb(ref_h, iters)
        if s_at_ref == 0:
            # A pipeline that writes nothing fits any budget at any cadence.
            return self.timestep_seconds / HOUR
        return max(ref_h * s_at_ref / budget_gb, self.timestep_seconds / HOUR)

    def finest_interval_for_energy(
        self, pipeline: str, budget_joules: float, duration_seconds: float
    ) -> float:
        """Smallest sampling interval (hours) whose energy fits the budget.

        Inverts Eqs. (1)+(4): ``E(h) = P·(t_sim + c/h)`` with
        ``c = α·S_ref·h_ref·scale + β·N_ref·h_ref·scale``.
        """
        if budget_joules <= 0:
            raise ModelError(f"energy budget must be positive: {budget_joules}")
        predictor = self._predictor(pipeline)
        model = predictor.model
        if model.power_watts is None:
            raise ModelError("predictor lacks power; energy inversion unavailable")
        iters = self.iterations_for(duration_seconds)
        floor_j = model.power_watts * model.simulation_time(iters)
        if budget_joules <= floor_j:
            raise ModelError(
                f"energy budget {budget_joules:.3e} J below the simulation floor "
                f"{floor_j:.3e} J — no cadence can satisfy it"
            )
        ref_h = predictor.data.interval_hours_ref
        variable_at_ref = (
            model.alpha * predictor.data.s_io_gb(ref_h, iters)
            + model.beta * predictor.data.n_viz(ref_h, iters)
        )
        if variable_at_ref == 0:
            return self.timestep_seconds / HOUR
        budget_var_s = budget_joules / model.power_watts - model.simulation_time(iters)
        return max(
            ref_h * variable_at_ref / budget_var_s, self.timestep_seconds / HOUR
        )

    def _predictor(self, pipeline: str) -> PipelinePredictor:
        for p in (self.insitu, self.post):
            if p.pipeline == pipeline:
                return p
        raise ConfigurationError(
            f"unknown pipeline {pipeline!r}; have {self.insitu.pipeline!r} "
            f"and {self.post.pipeline!r}"
        )
