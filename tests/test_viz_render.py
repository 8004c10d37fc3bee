"""Tests for contouring, rendering, Catalyst and Cinema."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cluster.topology import Interconnect
from repro.errors import ConfigurationError, PipelineError
from repro.pipelines.real import CatalystAdaptor, render_field, render_okubo_weiss
from repro.viz.cinema import CinemaDatabase
from repro.viz.colormap import grayscale_colormap
from repro.viz.contour import marching_squares
from repro.viz.image import Image
from repro.viz.render import Camera, ImageSpec, RenderCostModel


class TestMarchingSquares:
    def test_circle_contour(self):
        y, x = np.mgrid[0:40, 0:40].astype(float)
        field = (x - 20) ** 2 + (y - 20) ** 2
        lines = marching_squares(field, level=100.0)  # radius-10 circle
        assert lines
        pts = np.vstack(lines)
        radii = np.hypot(pts[:, 0] - 20, pts[:, 1] - 20)
        np.testing.assert_allclose(radii, 10.0, atol=0.6)

    def test_closed_contour_chains_into_one_polyline(self):
        y, x = np.mgrid[0:30, 0:30].astype(float)
        field = (x - 15) ** 2 + (y - 15) ** 2
        # 25.3 avoids passing exactly through grid vertices (3-4-5 triples at
        # 25.0 create genuine 4-way junctions that fragment the chain).
        lines = marching_squares(field, level=25.3)
        assert len(lines) == 1
        # Closed loop: endpoints coincide.
        np.testing.assert_allclose(lines[0][0], lines[0][-1], atol=1e-9)

    def test_vertex_degenerate_level_still_covers_contour(self):
        """A level hitting grid vertices exactly yields closed fragments."""
        y, x = np.mgrid[0:30, 0:30].astype(float)
        field = (x - 15) ** 2 + (y - 15) ** 2
        lines = marching_squares(field, level=25.0)
        assert lines
        pts = np.vstack(lines)
        radii = np.hypot(pts[:, 0] - 15, pts[:, 1] - 15)
        np.testing.assert_allclose(radii, 5.0, atol=0.6)

    def test_no_crossing_no_lines(self):
        assert marching_squares(np.zeros((5, 5)), level=1.0) == []

    def test_plane_gives_straight_line(self):
        y, _ = np.mgrid[0:10, 0:10].astype(float)
        lines = marching_squares(y, level=4.5)
        pts = np.vstack(lines)
        np.testing.assert_allclose(pts[:, 0], 4.5, atol=1e-9)

    def test_exact_level_hit_does_not_crash(self):
        field = np.array([[0.0, 1.0], [1.0, 2.0]])
        lines = marching_squares(field, level=1.0)
        assert isinstance(lines, list)

    def test_saddle_produces_two_segments(self):
        field = np.array([[1.0, 0.0], [0.0, 1.0]])
        lines = marching_squares(field, level=0.5)
        assert sum(len(line) - 1 for line in lines) == 2

    def test_too_small_field_rejected(self):
        with pytest.raises(ConfigurationError):
            marching_squares(np.zeros((1, 5)), 0.0)

    def test_interpolation_position(self):
        field = np.array([[0.0, 1.0], [0.0, 1.0]])
        lines = marching_squares(field, level=0.25)
        pts = np.vstack(lines)
        np.testing.assert_allclose(pts[:, 1], 0.25, atol=1e-9)


class TestCamera:
    def test_default_covers_whole_field(self):
        cam = Camera()
        rows, cols = cam.sample_coordinates((10, 20), width=20, height=10)
        assert rows.min() == pytest.approx(0.0, abs=0.01)
        assert rows.max() == pytest.approx(9.0, abs=0.01)
        assert cols.max() == pytest.approx(19.0, abs=0.01)

    def test_zoom_halves_coverage(self):
        cam = Camera(zoom=2.0)
        rows, _ = cam.sample_coordinates((100, 100), width=10, height=10)
        assert rows.max() - rows.min() < 51

    def test_invalid_camera(self):
        with pytest.raises(ConfigurationError):
            Camera(zoom=0.0)
        with pytest.raises(ConfigurationError):
            Camera(center=(1.5, 0.5))


class TestRenderField:
    def test_output_dimensions(self, mini_fields):
        img = render_field(mini_fields["okubo_weiss"], grayscale_colormap(), 64, 48)
        assert img.width == 64 and img.height == 48

    def test_constant_field_uniform_image(self):
        img = render_field(np.full((16, 16), 5.0), grayscale_colormap(), 32, 32)
        assert (img.pixels == img.pixels[0, 0]).all()

    def test_gradient_direction(self):
        """Rising x-values render brighter to the right in grayscale."""
        field = np.tile(np.linspace(0, 1, 32), (16, 1))
        img = render_field(field, grayscale_colormap(), 64, 32, periodic=False)
        assert img.pixels[:, -1].mean() > img.pixels[:, 0].mean()

    def test_contour_overlay_draws_pixels(self):
        y, x = np.mgrid[0:32, 0:32].astype(float)
        field = (x - 16.0) ** 2 + (y - 16.0) ** 2
        with_c = render_field(field, grayscale_colormap(), 64, 64,
                              contour_levels=(64.0,), contour_color=(255, 0, 0),
                              periodic=False)
        red = (with_c.pixels[:, :, 0] == 255) & (with_c.pixels[:, :, 1] == 0)
        assert red.any()

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigurationError):
            render_field(np.zeros(5), grayscale_colormap())

    def test_render_okubo_weiss_green_and_blue(self, mini_fields):
        img = render_okubo_weiss(mini_fields["okubo_weiss"], width=96, height=48)
        px = img.pixels.astype(int)
        greenish = (px[:, :, 1] > px[:, :, 0] + 20) & (px[:, :, 1] > px[:, :, 2] + 20)
        blueish = (px[:, :, 2] > px[:, :, 0] + 20) & (px[:, :, 2] > px[:, :, 1] + 20)
        assert greenish.any(), "no rotation-dominated (green) regions rendered"
        assert blueish.any(), "no shear-dominated (blue) regions rendered"


class TestImageSpec:
    def test_defaults(self):
        spec = ImageSpec()
        assert spec.pixels == 1920 * 1080
        assert spec.images_per_sample == 1

    def test_multi_camera(self):
        spec = ImageSpec(cameras=(Camera(), Camera(zoom=2.0)))
        assert spec.images_per_sample == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ImageSpec(width=4)
        with pytest.raises(ConfigurationError):
            ImageSpec(cameras=())


class TestRenderCostModel:
    def test_calibrated_beta(self):
        """One 1080p frame of the 60 km mesh on Caddy costs ≈1.2 s (β)."""
        t = RenderCostModel().seconds_per_image(163_842, ImageSpec(), 150, Interconnect())
        assert t == pytest.approx(1.2, abs=0.05)

    def test_scales_with_cameras(self):
        rcm = RenderCostModel()
        ic = Interconnect()
        two = ImageSpec(cameras=(Camera(), Camera(zoom=2.0)))
        assert rcm.seconds_per_sample(1000, two, 10, ic) == pytest.approx(
            2 * rcm.seconds_per_image(1000, two, 10, ic)
        )

    def test_more_nodes_faster_raster(self):
        rcm = RenderCostModel()
        ic = Interconnect()
        t150 = rcm.seconds_per_image(163_842, ImageSpec(), 150, ic)
        t300 = rcm.seconds_per_image(163_842, ImageSpec(), 300, ic)
        assert t300 < t150

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RenderCostModel(raster_ns_per_cell=-1.0)
        with pytest.raises(ConfigurationError):
            RenderCostModel().seconds_per_image(0, ImageSpec(), 1, Interconnect())


class TestCatalystAdaptor:
    def test_coprocess_runs_registered_hooks(self):
        ad = CatalystAdaptor()
        ad.register_pipeline("count", lambda s, t, f: len(f))
        out = ad.coprocess(0, 0.0, {"a": np.zeros(4), "b": np.ones(4)})
        assert out == {"count": 2}

    def test_deep_copy_isolates_simulation_arrays(self):
        """Mutating the sim array after coprocess must not affect the copy."""
        ad = CatalystAdaptor()
        seen = {}
        ad.register_pipeline("keep", lambda s, t, f: seen.update(f))
        live = np.zeros(8)
        ad.coprocess(0, 0.0, {"x": live})
        live[:] = 99.0
        assert (seen["x"] == 0.0).all()

    def test_bytes_copied_accounting(self):
        ad = CatalystAdaptor()
        ad.register_pipeline("noop", lambda s, t, f: None)
        fields = {"a": np.zeros((10, 10)), "b": np.zeros((5, 5), dtype=np.float32)}
        ad.coprocess(0, 0.0, fields)
        assert ad.bytes_copied == 10 * 10 * 8 + 5 * 5 * 4
        assert ad.coprocess_count == 1

    def test_no_pipelines_rejected(self):
        with pytest.raises(PipelineError):
            CatalystAdaptor().coprocess(0, 0.0, {"a": np.zeros(1)})

    def test_duplicate_registration_rejected(self):
        ad = CatalystAdaptor()
        ad.register_pipeline("p", lambda s, t, f: None)
        with pytest.raises(ConfigurationError):
            ad.register_pipeline("p", lambda s, t, f: None)

    def test_unregister(self):
        ad = CatalystAdaptor()
        ad.register_pipeline("p", lambda s, t, f: None)
        ad.unregister_pipeline("p")
        assert ad.pipeline_names == []
        with pytest.raises(ConfigurationError):
            ad.unregister_pipeline("p")

    def test_finalize_blocks_further_coprocessing(self):
        ad = CatalystAdaptor()
        ad.register_pipeline("p", lambda s, t, f: None)
        ad.finalize()
        with pytest.raises(PipelineError):
            ad.coprocess(0, 0.0, {"a": np.zeros(1)})


class TestCinemaDatabase:
    def _image(self):
        return Image.blank(16, 8, (10, 20, 30))

    def test_add_and_total_bytes(self, tmp_path):
        db = CinemaDatabase(str(tmp_path / "db"))
        e = db.add_image({"time": 0}, self._image())
        assert e.nbytes > 0
        assert db.total_bytes == e.nbytes
        assert len(db) == 1

    def test_index_written_on_close(self, tmp_path):
        db = CinemaDatabase(str(tmp_path / "db"), name="test")
        db.add_image({"time": 0, "camera": 1}, self._image())
        db.close()
        with open(tmp_path / "db" / "info.json") as fh:
            index = json.load(fh)
        assert index["type"] == "cinema-database"
        assert index["entries"][0]["parameters"] == {"camera": 1, "time": 0}

    def test_open_round_trip(self, tmp_path):
        db = CinemaDatabase(str(tmp_path / "db"))
        db.add_image({"time": 0}, self._image())
        db.add_image({"time": 1}, self._image())
        db.close()
        back = CinemaDatabase.open(str(tmp_path / "db"))
        assert len(back) == 2
        assert back.total_bytes == db.total_bytes
        assert back.load_image({"time": 1}) == self._image()

    def test_open_missing_index_rejected(self, tmp_path):
        with pytest.raises(PipelineError):
            CinemaDatabase.open(str(tmp_path))

    def test_duplicate_parameters_rejected(self, tmp_path):
        db = CinemaDatabase(str(tmp_path / "db"))
        db.add_image({"time": 0}, self._image())
        with pytest.raises(ConfigurationError):
            db.add_image({"time": 0}, self._image())

    def test_unbacked_accounting_mode(self):
        db = CinemaDatabase()  # no directory
        db.add_accounted({"time": 0}, 1_000)
        db.add_accounted({"time": 1}, 2_000)
        assert db.total_bytes == 3_000
        with pytest.raises(PipelineError):
            db.load_image({"time": 0})

    def test_negative_accounted_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CinemaDatabase().add_accounted({"t": 0}, -1)

    def test_empty_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            CinemaDatabase().add_accounted({}, 10)

    def test_select_and_parameter_values(self):
        db = CinemaDatabase()
        for t in range(3):
            for cam in range(2):
                db.add_accounted({"time": t, "camera": cam}, 10)
        assert len(db.select(camera=1)) == 3
        assert len(db.select(time=2, camera=0)) == 1
        assert db.parameter_values("time") == [0, 1, 2]

    def test_closed_database_rejects_writes(self):
        db = CinemaDatabase()
        db.add_accounted({"t": 0}, 1)
        db.close()
        with pytest.raises(PipelineError):
            db.add_accounted({"t": 1}, 1)
