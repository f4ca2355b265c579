import numpy as np
import pytest

from proxymanip import env2d, render
from proxymanip.env2d import ProxyAction, get_task, reset
from proxymanip.render import (
    CAMERAS, FrameImage, ImageSpec, camera_spec, frame_filename, read_pgm,
    render as draw, world_to_pixel, write_pgm,
)
from proxymanip.numcore import ConfigurationError


@pytest.fixture
def drawer_state():
    task = get_task("open-drawer")
    return reset(task.world_config(), task, seed=0), task


class TestWorldToPixel:
    def test_center_maps_to_center(self):
        spec = ImageSpec(window=(-1.0, -1.0, 1.0, 1.0))
        row, col, inside = world_to_pixel(spec, (0.0, 0.0))
        assert (row, col) == (32, 32)
        assert inside

    def test_min_corner_is_bottom_left(self):
        spec = ImageSpec(window=(-1.0, -1.0, 1.0, 1.0))
        row, col, inside = world_to_pixel(spec, (-1.0, -1.0))
        assert col == 0
        assert row == 63  # clamped bottom row

    def test_affine_arithmetic(self):
        spec = ImageSpec(window=(-1.0, -1.0, 1.0, 1.0))
        row, col, inside = world_to_pixel(spec, (0.5, 0.0))
        assert (row, col) == (32, 48)
        assert inside

    def test_out_of_window_flagged(self):
        spec = ImageSpec(window=(-1.0, -1.0, 1.0, 1.0))
        _, _, inside = world_to_pixel(spec, (2.0, 0.0))
        assert not inside


class TestRender:
    def test_empty_scene_all_zero(self, drawer_state):
        state, _ = drawer_state
        frame = draw(state, None, camera_spec("front"), "none")
        assert frame.pixels.sum() == 0

    def test_deterministic(self, drawer_state):
        state, task = drawer_state
        a = draw(state, task.object, camera_spec("front"), "gripper_disc")
        b = draw(state, task.object, camera_spec("front"), "gripper_disc")
        assert np.array_equal(a.pixels, b.pixels)

    def test_agent_diff_confined_to_glyph(self, drawer_state):
        state, task = drawer_state
        spec = camera_spec("front")
        plain = draw(state, task.object, spec, "none").pixels
        with_agent = draw(state, task.object, spec, "gripper_disc").pixels
        diff = plain != with_agent
        assert diff.any()
        # every differing pixel carries the glyph intensity in the agent frame
        assert np.all(with_agent[diff] == render.INTENSITY_AGENT)

    def test_agent_agnostic_frames_ignore_proxy(self, drawer_state):
        state, task = drawer_state
        spec = camera_spec("front")
        rng = np.random.Generator(np.random.PCG64(12))
        for _ in range(20):
            other = state.copy()
            other.proxy_pos = rng.uniform(-0.5, 0.5, 2)
            a = draw(state, task.object, spec, "none").pixels
            b = draw(other, task.object, spec, "none").pixels
            assert np.array_equal(a, b)

    def test_painter_order_object_over_marker(self, drawer_state):
        state, task = drawer_state
        spec = camera_spec("front")
        center, _ = env2d.rect_center(task.object, state.object_q)
        frame = draw(state, task.object, spec, "none", marker_pos=center)
        row, col, _ = world_to_pixel(spec, center)
        assert frame.pixels[row, col] == render.INTENSITY_OBJECT

    def test_marker_visible_when_clear(self, drawer_state):
        state, task = drawer_state
        spec = camera_spec("front")
        frame = draw(state, task.object, spec, "none", marker_pos=(-0.4, -0.4))
        row, col, _ = world_to_pixel(spec, (-0.4, -0.4))
        assert frame.pixels[row, col] == render.INTENSITY_MARKER

    def test_hand_square_bigger_than_disc(self, drawer_state):
        state, task = drawer_state
        spec = camera_spec("front")
        disc = draw(state, task.object, spec, "gripper_disc").pixels
        square = draw(state, task.object, spec, "hand_square").pixels
        assert (square == 255).sum() > (disc == 255).sum()

    def test_styles_render_on_all_cameras(self, drawer_state):
        state, task = drawer_state
        for cam in CAMERAS:
            frame = draw(state, task.object, camera_spec(cam), "gripper_disc")
            assert (frame.pixels == 255).any(), cam
            assert (frame.pixels == render.INTENSITY_OBJECT).any(), cam


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(3))
        img = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        path = tmp_path / frame_filename(0)
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_header_format(self, tmp_path):
        img = np.zeros((4, 6), dtype=np.uint8)
        path = tmp_path / "f.pgm"
        write_pgm(path, img)
        assert path.read_bytes().startswith(b"P5\n6 4\n255\n")

    @pytest.mark.parametrize("raw, message", [
        (b"P5\n6 4\n255\n" + bytes(23), "truncated raster: 23 bytes"),
        (b"P5\n6 4\n255\n" + bytes(25), "trailing bytes after raster: 25 bytes"),
        (b"P5\n6 x4\n255\n" + bytes(24), "field 2 of 3 is 'x4', not an integer"),
        (b"P5\n6 4\n", "field 3 of 3 is '', not an integer"),
    ])
    def test_rejects_malformed_file_naming_path(self, tmp_path, raw, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(ConfigurationError, match=f"bad.pgm: .*{message}"):
            read_pgm(path)

    def test_filename_pattern(self):
        assert frame_filename(7) == "frame_000007.pgm"
        assert frame_filename(123456) == "frame_123456.pgm"
