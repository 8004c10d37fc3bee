"""Tests for eddy detection and tracking (:mod:`repro.ocean.eddies`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ocean.eddies import Eddy, EddyTrack, detect_eddies, track_eddies


def gaussian_well(n, center, radius, depth=1.0):
    """A synthetic negative-W blob at ``center`` (row, col), periodic-safe."""
    y, x = np.mgrid[0:n, 0:n].astype(float)
    dy = np.minimum(np.abs(y - center[0]), n - np.abs(y - center[0]))
    dx = np.minimum(np.abs(x - center[1]), n - np.abs(x - center[1]))
    return -depth * np.exp(-(dx**2 + dy**2) / (2 * radius**2))


class TestDetection:
    def test_single_well_found(self):
        w = gaussian_well(64, (20, 30), 4.0)
        eddies = detect_eddies(w, threshold=-0.5, min_cells=1)
        assert len(eddies) == 1
        e = eddies[0]
        assert e.center[0] == pytest.approx(20.0, abs=0.5)
        assert e.center[1] == pytest.approx(30.0, abs=0.5)
        assert e.min_w == pytest.approx(-1.0, abs=1e-6)

    def test_two_wells_found_sorted_by_depth(self):
        w = gaussian_well(64, (10, 10), 3.0, depth=2.0) + gaussian_well(64, (40, 40), 3.0, depth=1.0)
        eddies = detect_eddies(w, threshold=-0.5, min_cells=1)
        assert len(eddies) == 2
        assert eddies[0].min_w < eddies[1].min_w  # deepest first

    def test_min_cells_filters_specks(self):
        w = np.zeros((32, 32))
        w[5, 5] = -10.0  # single-cell speck
        assert detect_eddies(w, threshold=-1.0, min_cells=2) == []
        assert len(detect_eddies(w, threshold=-1.0, min_cells=1)) == 1

    def test_periodic_merge_across_boundary(self):
        """A well straddling the wrap-around edge is one eddy, not two."""
        w = gaussian_well(64, (0, 32), 4.0)  # centered on the row seam
        eddies = detect_eddies(w, threshold=-0.5, min_cells=1, periodic=True)
        assert len(eddies) == 1
        # Periodic centroid lands on the seam, not mid-domain.
        row = eddies[0].center[0]
        assert min(row, 64 - row) < 1.0

    def test_nonperiodic_splits_boundary_eddy(self):
        w = gaussian_well(64, (0, 32), 4.0)
        eddies = detect_eddies(w, threshold=-0.5, min_cells=1, periodic=False)
        assert len(eddies) == 2

    def test_rotation_sign_from_vorticity(self):
        w = gaussian_well(32, (16, 16), 3.0)
        zeta = np.full((32, 32), 0.7)
        eddies = detect_eddies(w, vorticity=zeta, threshold=-0.5, min_cells=1)
        assert eddies[0].rotation_sign == 1
        eddies = detect_eddies(w, vorticity=-zeta, threshold=-0.5, min_cells=1)
        assert eddies[0].rotation_sign == -1

    def test_sign_zero_without_vorticity(self):
        w = gaussian_well(32, (16, 16), 3.0)
        assert detect_eddies(w, threshold=-0.5, min_cells=1)[0].rotation_sign == 0

    def test_default_threshold_uses_std(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((64, 64))
        eddies = detect_eddies(w, threshold_factor=0.2, min_cells=1)
        assert all(e.min_w < -0.2 * w.std() for e in eddies)

    def test_radius_matches_equal_area_disk(self):
        w = gaussian_well(64, (32, 32), 5.0)
        e = detect_eddies(w, threshold=-0.5, min_cells=1)[0]
        assert e.radius_cells == pytest.approx(np.sqrt(e.area_cells / np.pi))

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            detect_eddies(np.zeros(10))

    def test_invalid_min_cells(self):
        with pytest.raises(ConfigurationError):
            detect_eddies(np.zeros((8, 8)), min_cells=0)

    def test_real_flow_detections(self, mini_driver):
        w = mini_driver.okubo_weiss_field()
        eddies = detect_eddies(w, vorticity=mini_driver.solver.vorticity())
        assert len(eddies) > 3
        signs = {e.rotation_sign for e in eddies}
        assert 1 in signs and -1 in signs  # cyclones and anticyclones


class TestEddyDataclasses:
    def test_eddy_validation(self):
        with pytest.raises(ConfigurationError):
            Eddy(center=(0, 0), area_cells=0, min_w=-1, rotation_sign=0, radius_cells=1)
        with pytest.raises(ConfigurationError):
            Eddy(center=(0, 0), area_cells=1, min_w=-1, rotation_sign=5, radius_cells=1)

    def test_track_lifetime_and_path(self):
        eddies = [
            Eddy(center=(10.0, 10.0), area_cells=5, min_w=-1, rotation_sign=1,
                 radius_cells=1.3, frame=2),
            Eddy(center=(13.0, 14.0), area_cells=5, min_w=-1, rotation_sign=1,
                 radius_cells=1.3, frame=3),
        ]
        track = EddyTrack(eddies=eddies)
        assert track.birth_frame == 2
        assert track.death_frame == 3
        assert track.lifetime_frames == 2
        assert track.path_length() == pytest.approx(5.0)

    def test_periodic_path_length(self):
        eddies = [
            Eddy(center=(1.0, 1.0), area_cells=1, min_w=-1, rotation_sign=0,
                 radius_cells=1, frame=0),
            Eddy(center=(63.0, 1.0), area_cells=1, min_w=-1, rotation_sign=0,
                 radius_cells=1, frame=1),
        ]
        track = EddyTrack(eddies=eddies)
        assert track.path_length(shape=(64, 64)) == pytest.approx(2.0)


class TestTracking:
    def _eddy(self, r, c, frame):
        return Eddy(center=(float(r), float(c)), area_cells=4, min_w=-1.0,
                    rotation_sign=1, radius_cells=1.1, frame=frame)

    def test_stationary_eddy_forms_one_track(self):
        frames = [[self._eddy(10, 10, f)] for f in range(5)]
        tracks = track_eddies(frames, max_distance_cells=3.0)
        assert len(tracks) == 1
        assert tracks[0].lifetime_frames == 5

    def test_moving_eddy_tracked(self):
        frames = [[self._eddy(10, 10 + 2 * f, f)] for f in range(4)]
        tracks = track_eddies(frames, max_distance_cells=3.0)
        assert len(tracks) == 1
        assert tracks[0].path_length() == pytest.approx(6.0)

    def test_jump_beyond_max_distance_splits_track(self):
        frames = [[self._eddy(10, 10, 0)], [self._eddy(10, 40, 1)]]
        tracks = track_eddies(frames, max_distance_cells=5.0)
        assert len(tracks) == 2

    def test_two_parallel_eddies_two_tracks(self):
        frames = [
            [self._eddy(10, 10, f), self._eddy(40, 40, f)] for f in range(3)
        ]
        tracks = track_eddies(frames, max_distance_cells=3.0)
        assert len(tracks) == 2
        assert all(t.lifetime_frames == 3 for t in tracks)

    def test_greedy_matching_prefers_closest(self):
        frames = [
            [self._eddy(10, 10, 0), self._eddy(10, 16, 0)],
            [self._eddy(10, 11, 1), self._eddy(10, 17, 1)],
        ]
        tracks = track_eddies(frames, max_distance_cells=8.0)
        assert len(tracks) == 2
        # Each track moved by 1 cell, not crossed over by 5/7 cells.
        assert all(t.path_length() == pytest.approx(1.0) for t in tracks)

    def test_death_and_birth(self):
        frames = [
            [self._eddy(10, 10, 0)],
            [],  # eddy disappears
            [self._eddy(10, 10, 2)],  # a new one appears at the same spot
        ]
        tracks = track_eddies(frames, max_distance_cells=3.0)
        assert len(tracks) == 2

    def test_periodic_tracking_across_seam(self):
        frames = [
            [self._eddy(1, 10, 0)],
            [self._eddy(63, 10, 1)],  # wrapped around a 64-row domain
        ]
        tracks = track_eddies(frames, max_distance_cells=3.0, shape=(64, 64))
        assert len(tracks) == 1

    def test_invalid_max_distance(self):
        with pytest.raises(ConfigurationError):
            track_eddies([], max_distance_cells=0.0)

    def test_real_flow_produces_persistent_tracks(self, mini_driver):
        """Eddies in the real mini model persist across output frames."""
        import copy
        from repro.pipelines.real import MiniOceanDriver
        driver = MiniOceanDriver(nx=64, ny=32, seed=11)
        driver.advance(20)
        frames = []
        for f in range(4):
            driver.advance(5)
            w = driver.okubo_weiss_field()
            frames.append(detect_eddies(w, vorticity=driver.solver.vorticity(), frame=f))
        tracks = track_eddies(frames, max_distance_cells=6.0, shape=(32, 64))
        assert any(t.lifetime_frames >= 3 for t in tracks)
