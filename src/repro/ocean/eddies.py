"""Eddy detection and tracking (the paper's visualization/analysis task).

Detection follows Woodring et al. (the paper's reference [27]): threshold the
Okubo-Weiss field at ``-0.2 σ_W``, take connected components (with periodic
wrap-around merging on the mini model's grid), and summarize each component
as an :class:`Eddy` feature.  Tracking greedily links detections in
consecutive frames by nearest (periodic) centroid distance, producing
:class:`EddyTrack` objects — eddies in the real ocean "exist for hundreds of
days while traveling hundreds of kilometers" (Section VII), and the tracking
rate requirement is exactly what drives the paper's sampling-rate what-ifs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.ocean.okubo_weiss import DEFAULT_THRESHOLD_FACTOR, okubo_weiss_threshold

__all__ = ["Eddy", "EddyTrack", "detect_eddies", "track_eddies"]


@dataclass(frozen=True)
class Eddy:
    """A single detected eddy in one frame."""

    #: Centroid in grid coordinates ``(row, col)`` (fractional).
    center: tuple[float, float]
    #: Number of grid cells in the core.
    area_cells: int
    #: Most negative Okubo-Weiss value inside the core (the "amplitude").
    min_w: float
    #: Sign of the core-mean vorticity: +1 cyclonic, -1 anticyclonic.
    rotation_sign: int
    #: Effective radius in cells (radius of the equal-area disk).
    radius_cells: float
    #: Frame index the eddy was detected in.
    frame: int = 0

    def __post_init__(self) -> None:
        if self.area_cells < 1:
            raise ConfigurationError(f"eddy with no cells: {self.area_cells}")
        if self.rotation_sign not in (-1, 0, 1):
            raise ConfigurationError(f"rotation sign must be -1/0/+1: {self.rotation_sign}")


@dataclass
class EddyTrack:
    """A linked sequence of the same eddy across frames."""

    eddies: list[Eddy] = field(default_factory=list)

    @property
    def birth_frame(self) -> int:
        """Frame of first detection."""
        return self.eddies[0].frame

    @property
    def death_frame(self) -> int:
        """Frame of last detection."""
        return self.eddies[-1].frame

    @property
    def lifetime_frames(self) -> int:
        """Number of frames the eddy persisted."""
        return self.death_frame - self.birth_frame + 1

    def path_length(self, shape: Optional[tuple[int, int]] = None) -> float:
        """Total centroid travel distance in cells (periodic if ``shape`` given)."""
        total = 0.0
        for a, b in zip(self.eddies[:-1], self.eddies[1:]):
            total += _centroid_distance(a.center, b.center, shape)
        return total


def _centroid_distance(
    a: tuple[float, float], b: tuple[float, float], shape: Optional[tuple[int, int]]
) -> float:
    dr = a[0] - b[0]
    dc = a[1] - b[1]
    if shape is not None:
        ny, nx = shape
        dr = dr - round(dr / ny) * ny
        dc = dc - round(dc / nx) * nx
    return float(np.hypot(dr, dc))


def _merge_periodic_labels(labels: np.ndarray, n: int) -> np.ndarray:
    """Union labels that touch across the periodic boundaries."""
    if n == 0:
        return labels
    parent = np.arange(n + 1)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    top, bottom = labels[0, :], labels[-1, :]
    for a, b in zip(top, bottom):
        if a and b:
            union(int(a), int(b))
    left, right = labels[:, 0], labels[:, -1]
    for a, b in zip(left, right):
        if a and b:
            union(int(a), int(b))
    # Path-compress everything and relabel densely.
    roots = np.array([find(i) for i in range(n + 1)])
    return roots[labels]


def _periodic_centroid(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> tuple[float, float]:
    """Centroid of a point set on a torus (circular mean per axis)."""
    ny, nx = shape
    theta_r = rows * (2.0 * np.pi / ny)
    theta_c = cols * (2.0 * np.pi / nx)
    mr = np.arctan2(np.mean(np.sin(theta_r)), np.mean(np.cos(theta_r)))
    mc = np.arctan2(np.mean(np.sin(theta_c)), np.mean(np.cos(theta_c)))
    return (float(mr % (2 * np.pi)) * ny / (2 * np.pi), float(mc % (2 * np.pi)) * nx / (2 * np.pi))


def detect_eddies(
    w: np.ndarray,
    vorticity: Optional[np.ndarray] = None,
    threshold: Optional[float] = None,
    threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
    min_cells: int = 4,
    periodic: bool = True,
    frame: int = 0,
) -> list[Eddy]:
    """Detect eddy cores in an Okubo-Weiss field.

    Parameters
    ----------
    w:
        The Okubo-Weiss field (``(y, x)`` indexed).
    vorticity:
        Optional relative-vorticity field to attribute a rotation sign; when
        omitted all eddies get sign 0.
    threshold:
        Absolute cut; cells with ``W < threshold`` are core candidates.
        Defaults to ``-threshold_factor * std(W)``.
    min_cells:
        Discard components smaller than this (noise suppression).
    periodic:
        Merge components across wrap-around boundaries.
    frame:
        Frame index stamped onto the detections (for tracking).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ConfigurationError(f"W must be 2-D, got shape {w.shape}")
    if min_cells < 1:
        raise ConfigurationError(f"min_cells must be >= 1, got {min_cells}")
    cut = okubo_weiss_threshold(w, threshold_factor) if threshold is None else float(threshold)
    mask = w < cut
    # Imported here, not at module level: importing scipy.ndimage rewrites
    # the docstring of every function it exports, which is a large share of
    # CLI start-up, and only eddy detection needs it.
    from scipy import ndimage

    labels, n = ndimage.label(mask)
    if periodic:
        labels = _merge_periodic_labels(labels, n)
    eddies: list[Eddy] = []
    for lab in np.unique(labels):
        if lab == 0:
            continue
        rows, cols = np.nonzero(labels == lab)
        if rows.size < min_cells:
            continue
        if periodic:
            center = _periodic_centroid(rows, cols, w.shape)
        else:
            center = (float(rows.mean()), float(cols.mean()))
        core_w = w[rows, cols]
        sign = 0
        if vorticity is not None:
            zeta_mean = float(np.asarray(vorticity)[rows, cols].mean())
            sign = int(np.sign(zeta_mean)) if zeta_mean != 0.0 else 0
        eddies.append(
            Eddy(
                center=center,
                area_cells=int(rows.size),
                min_w=float(core_w.min()),
                rotation_sign=sign,
                radius_cells=float(np.sqrt(rows.size / np.pi)),
                frame=frame,
            )
        )
    eddies.sort(key=lambda e: e.min_w)
    return eddies


def track_eddies(
    frames: Sequence[list[Eddy]],
    max_distance_cells: float = 10.0,
    shape: Optional[tuple[int, int]] = None,
) -> list[EddyTrack]:
    """Link per-frame detections into tracks by nearest-centroid matching.

    Greedy bipartite matching between consecutive frames: closest pairs link
    first; links longer than ``max_distance_cells`` are rejected, ending the
    track.  Unmatched detections start new tracks.  ``shape`` enables
    periodic distances.
    """
    if max_distance_cells <= 0:
        raise ConfigurationError(f"max_distance must be positive: {max_distance_cells}")
    tracks: list[EddyTrack] = []
    open_tracks: dict[int, EddyTrack] = {}
    for frame_eddies in frames:
        if open_tracks and frame_eddies:
            candidates = []
            for tid, track in open_tracks.items():
                last = track.eddies[-1]
                for j, eddy in enumerate(frame_eddies):
                    d = _centroid_distance(last.center, eddy.center, shape)
                    if d <= max_distance_cells:
                        candidates.append((d, tid, j))
            candidates.sort(key=lambda c: c[0])
            used_tracks: set[int] = set()
            used_eddies: set[int] = set()
            matches: dict[int, int] = {}
            for d, tid, j in candidates:
                if tid in used_tracks or j in used_eddies:
                    continue
                used_tracks.add(tid)
                used_eddies.add(j)
                matches[j] = tid
        else:
            matches = {}
            used_tracks = set()
        next_open: dict[int, EddyTrack] = {}
        for j, eddy in enumerate(frame_eddies):
            tid = matches.get(j)
            if tid is not None:
                track = open_tracks[tid]
                track.eddies.append(eddy)
                next_open[tid] = track
            else:
                track = EddyTrack(eddies=[eddy])
                tracks.append(track)
                next_open[id(track)] = track
        open_tracks = next_open
    return tracks
