"""The MAD-band drift detector.

The project's longitudinal gate — the cross-run metric trends of the run
registry (:mod:`repro.obs.store.trend`), ingested bench reports included —
answers one question: *is this value an outlier against the recent
history of comparable values?*

The reference band around the history is ``median ± halfwidth`` with

``halfwidth = max(MAD_K * 1.4826 * MAD, REL_FLOOR * |median|)``

(4 MADs, a 25 % floor) — the ``1.4826`` factor makes the MAD a consistent
sigma estimator under normal noise, and the relative floor keeps
near-constant histories (MAD ~ 0) from flagging ordinary jitter.  Drift is
directional: wall times and energy fail *above* the band, speedups fail
*below* it; the opposite direction is improvement, not drift.  Histories
shorter than ``MIN_RECORDS`` (3) values produce no verdict at all, so a
fresh store never blocks a gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "DIRECTIONS",
    "DriftCheck",
    "MAD_K",
    "MAD_SCALE",
    "MIN_RECORDS",
    "REL_FLOOR",
    "check_value",
    "mad_band",
    "median",
]

#: MAD -> sigma consistency factor for normally distributed noise.
MAD_SCALE = 1.4826

#: Band half-width in (consistency-scaled) MAD units.
MAD_K = 4.0

#: Relative floor on the band half-width, as a fraction of |median|.
REL_FLOOR = 0.25

#: Below this many history values there is no trajectory to drift from.
MIN_RECORDS = 3

#: Which side of the band counts as failure.  ``"above"`` suits costs
#: (seconds, joules, bytes), ``"below"`` suits rates and speedups,
#: ``"both"`` treats any departure from the band as drift.
DIRECTIONS = ("above", "below", "both")


def median(values: Sequence[float]) -> float:
    """The sample median (mean of the middle pair for even lengths)."""
    if not values:
        raise ConfigurationError("median of an empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad_band(values: Sequence[float]) -> Tuple[float, float]:
    """``(median, halfwidth)`` of the tolerance band around ``values``."""
    med = median(values)
    mad = median([abs(v - med) for v in values])
    return med, max(MAD_K * MAD_SCALE * mad, REL_FLOOR * abs(med))


@dataclass(frozen=True)
class DriftCheck:
    """One metric's verdict against its trajectory band."""

    metric: str
    value: float
    median: float
    halfwidth: float
    n: int
    direction: str  # which side of the band counts as failure
    failed: bool

    def describe(self) -> str:
        """One human-readable line."""
        edge = (
            self.median + self.halfwidth
            if self.direction == "above"
            else self.median - self.halfwidth
        )
        verdict = "DRIFT" if self.failed else "ok"
        return (
            f"{self.metric:18s} {self.value:10.3f} vs median {self.median:10.3f} "
            f"(n={self.n}, {self.direction}-edge {edge:10.3f})  {verdict}"
        )

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "metric": self.metric,
            "value": self.value,
            "median": self.median,
            "halfwidth": self.halfwidth,
            "n": self.n,
            "direction": self.direction,
            "failed": self.failed,
        }


def check_value(
    metric: str,
    value: float,
    history: Sequence[float],
    direction: str = "above",
) -> Optional[DriftCheck]:
    """The drift verdict for ``value`` against ``history``.

    ``None`` means "no trajectory yet" (fewer than :data:`MIN_RECORDS`
    history values) — callers must treat that as an informational pass.
    """
    if direction not in DIRECTIONS:
        raise ConfigurationError(
            f"unknown drift direction {direction!r}; expected one of {DIRECTIONS}"
        )
    series: List[float] = [float(v) for v in history]
    if len(series) < MIN_RECORDS:
        return None
    med, halfwidth = mad_band(series)
    value = float(value)
    above = value > med + halfwidth
    below = value < med - halfwidth
    if direction == "above":
        failed = above
    elif direction == "below":
        failed = below
    else:
        failed = above or below
    return DriftCheck(
        metric=metric,
        value=value,
        median=med,
        halfwidth=halfwidth,
        n=len(series),
        direction=direction,
        failed=failed,
    )
