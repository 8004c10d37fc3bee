"""Eddy-tracking fidelity vs temporal sampling rate.

"Understanding the simulation becomes difficult when the sampling frequency
gets too low" (Section II-B); "to effectively track their movement in the
ocean, the output has to be written once per simulated day (or even hour)"
(Section VII).  This module measures exactly that on the runnable mini
ocean: it advances the model once at full temporal resolution, detects eddy
cores at every timestep, then evaluates tracking at coarser strides of the
*same* detections, reporting

* the **link rate** — the probability that an eddy present in one output
  frame is re-identified in the next (the quantity that collapses when
  eddies move farther than the matching radius between outputs), and
* the **mean track lifetime** in simulated hours.

The result is the empirical version of Fig. 9's premise: the science
constraint that forces fine sampling in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.ocean.eddies import Eddy, detect_eddies, track_eddies
from repro.pipelines.real import MiniOceanDriver

__all__ = ["SamplingQuality", "evaluate_sampling_quality", "quality_table"]


@dataclass(frozen=True)
class SamplingQuality:
    """Tracking fidelity at one output cadence."""

    #: Timesteps between outputs.
    stride: int
    #: Simulated hours between outputs.
    interval_hours: float
    #: Output frames evaluated.
    n_frames: int
    #: Mean eddies per frame.
    eddies_per_frame: float
    #: Fraction of eddies successfully linked frame-to-frame.
    link_rate: float
    #: Mean track lifetime in simulated hours.
    mean_lifetime_hours: float
    #: Number of tracks produced.
    n_tracks: int

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ConfigurationError(f"stride must be >= 1, got {self.stride}")
        if not 0.0 <= self.link_rate <= 1.0:
            raise ConfigurationError(f"link rate outside [0, 1]: {self.link_rate}")


def _tracking_stats(
    frames: Sequence[list[Eddy]], shape: tuple[int, int], max_distance: float
) -> tuple[float, float, int]:
    """(link rate, mean lifetime in frames, n_tracks) for a frame sequence."""
    tracks = track_eddies(frames, max_distance_cells=max_distance, shape=shape)
    links = sum(len(t.eddies) - 1 for t in tracks)
    possible = sum(min(len(a), len(b)) for a, b in zip(frames[:-1], frames[1:]))
    link_rate = links / possible if possible else 0.0
    mean_life = (
        sum(t.lifetime_frames for t in tracks) / len(tracks) if tracks else 0.0
    )
    return link_rate, mean_life, len(tracks)


def evaluate_sampling_quality(
    strides: Sequence[int] = (1, 2, 4, 8, 16, 32),
    n_steps: int = 96,
    driver_factory: Optional[Callable[[], MiniOceanDriver]] = None,
    max_distance_cells: float = 6.0,
    min_cells: int = 4,
) -> list[SamplingQuality]:
    """Measure tracking fidelity at several output cadences.

    The ocean is advanced **once**; all cadences see subsets of the same
    per-timestep detections, so differences are purely due to sampling.
    ``max_distance_cells`` is the frame-to-frame matching radius — held
    fixed across cadences, as a tracker consuming stored outputs would.
    """
    if not strides or min(strides) < 1:
        raise ConfigurationError(f"invalid strides: {strides}")
    if n_steps < max(strides) * 2:
        raise ConfigurationError(
            f"n_steps={n_steps} gives fewer than two frames at stride {max(strides)}"
        )
    driver = (
        driver_factory()
        if driver_factory is not None
        else _default_driver()
    )
    shape = driver.grid.shape
    step_hours = driver.timestep_seconds / 3_600.0
    detections: list[list[Eddy]] = []
    for step in range(n_steps):
        driver.advance(1)
        w = driver.okubo_weiss_field()
        detections.append(
            detect_eddies(
                w,
                vorticity=driver.solver.vorticity(),
                frame=step,
                min_cells=min_cells,
            )
        )
    results = []
    for stride in sorted(set(strides)):
        frames = detections[::stride]
        link_rate, mean_life_frames, n_tracks = _tracking_stats(
            frames, shape, max_distance_cells
        )
        results.append(
            SamplingQuality(
                stride=stride,
                interval_hours=stride * step_hours,
                n_frames=len(frames),
                eddies_per_frame=sum(len(f) for f in frames) / len(frames),
                link_rate=link_rate,
                mean_lifetime_hours=mean_life_frames * stride * step_hours,
                n_tracks=n_tracks,
            )
        )
    return results


def _default_driver() -> MiniOceanDriver:
    driver = MiniOceanDriver(nx=96, ny=48, seed=12)
    driver.advance(30)  # spin up past the initial adjustment
    return driver


def quality_table(results: Sequence[SamplingQuality]) -> str:
    """Render the fidelity sweep as an aligned text table."""
    lines = [
        f"{'stride':>7s} {'cadence':>9s} {'frames':>7s} {'eddies/frm':>11s} "
        f"{'link rate':>10s} {'track life':>11s}"
    ]
    for q in results:
        lines.append(
            f"{q.stride:>7d} {q.interval_hours:>7.1f} h {q.n_frames:>7d} "
            f"{q.eddies_per_frame:>11.1f} {100 * q.link_rate:>9.1f}% "
            f"{q.mean_lifetime_hours:>9.1f} h"
        )
    return "\n".join(lines)
