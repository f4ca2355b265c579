import math

import numpy as np
import pytest

from proxymanip import env2d, render
from proxymanip.env2d import ProxyAction, get_task, reset
from proxymanip.render import (
    AGENT_STYLES, CAMERAS, FrameImage, ImageSpec, camera_spec, frame_filename,
    read_pgm, render as draw, world_to_pixel, write_pgm,
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
        center = env2d.rect_center(task.object, state.object_q.tolist())[:2]
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

    @pytest.mark.parametrize("style", ["gripper_disc", "hand_square"])
    def test_glyph_is_sized_by_the_contact_radius(self, drawer_state, style):
        state, task = drawer_state
        spec = camera_spec("front")
        assert np.array_equal(
            draw(state, task.object, spec, style).pixels,
            oracle_render(state, task.object, spec, style,
                          proxy_radius=env2d.PROXY_RADIUS))

    def test_styles_render_on_all_cameras(self, drawer_state):
        state, task = drawer_state
        for cam in CAMERAS:
            frame = draw(state, task.object, camera_spec(cam), "gripper_disc")
            assert (frame.pixels == 255).any(), cam
            assert (frame.pixels == render.INTENSITY_OBJECT).any(), cam


# The full-grid fills: every pixel center takes the shape test. The
# rasterizer tests only the pixels a shape's bounding box can cover, and must
# give the same pixels.

def _pixel_centers(spec):
    """World coordinates of every pixel center, as two (H, W) grids."""
    xmin, ymin, xmax, ymax = spec.window
    side = render.FRAME_SIDE
    xs = xmin + (np.arange(side) + 0.5) * (xmax - xmin) / side
    ys = ymax - (np.arange(side) + 0.5) * (ymax - ymin) / side
    return np.meshgrid(xs, ys)


def _full_fill_rect(img, spec, center, theta, extents, value):
    gx, gy = _pixel_centers(spec)
    dx = gx - center[0]
    dy = gy - center[1]
    c, s = math.cos(theta), math.sin(theta)
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    mask = (np.abs(lx) <= extents[0] / 2.0) & (np.abs(ly) <= extents[1] / 2.0)
    img[mask] = value


def _full_fill_disc(img, spec, center, radius, value):
    gx, gy = _pixel_centers(spec)
    mask = (gx - center[0]) ** 2 + (gy - center[1]) ** 2 <= radius * radius
    img[mask] = value
    row, col, inside = world_to_pixel(spec, center)
    if inside:
        img[row, col] = value


def oracle_render(state, obj, spec, style, marker_pos=None,
                  proxy_radius=env2d.PROXY_RADIUS):
    img = np.zeros((render.FRAME_SIDE, render.FRAME_SIDE), dtype=np.uint8)
    if marker_pos is not None:
        half = render.MARKER_HALF_SIZE
        _full_fill_rect(img, spec, marker_pos, 0.0, (2 * half, 2 * half),
                        render.INTENSITY_MARKER)
    if obj is not None:
        x, y, theta = env2d.rect_center(obj, state.object_q.tolist())
        _full_fill_rect(img, spec, (x, y), theta, obj.extents,
                        render.INTENSITY_OBJECT)
    if style == render.STYLE_GRIPPER_DISC:
        _full_fill_disc(img, spec, state.proxy_pos, proxy_radius,
                        render.INTENSITY_AGENT)
    elif style == render.STYLE_HAND_SQUARE:
        side = 3.0 * proxy_radius
        _full_fill_rect(img, spec, state.proxy_pos, 0.0, (side, side),
                        render.INTENSITY_AGENT)
        row, col, inside = world_to_pixel(spec, state.proxy_pos)
        if inside:
            img[row, col] = render.INTENSITY_AGENT
    return img


def _assert_matches_oracle(state, obj, marker_pos=None,
                           proxy_radius=env2d.PROXY_RADIUS):
    for cam in CAMERAS:
        spec = camera_spec(cam)
        for style in AGENT_STYLES:
            got = draw(state, obj, spec, style, marker_pos, proxy_radius).pixels
            want = oracle_render(state, obj, spec, style, marker_pos,
                                 proxy_radius)
            assert np.array_equal(got, want), (cam, style, marker_pos,
                                               state.object_q, state.proxy_pos,
                                               proxy_radius)


def _random_q(task, rng):
    obj = task.object
    if obj.kind == env2d.FREE_BODY:
        return np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8),
                         rng.uniform(-math.pi, math.pi)])
    lo, hi = obj.limits
    return np.array([rng.uniform(lo - 0.2, hi + 0.2)])


class TestWindowedFill:
    @pytest.mark.parametrize("name", sorted(env2d.builtin_catalogue()))
    def test_random_poses_match_full_grid(self, name):
        task = get_task(name)
        rng = np.random.Generator(np.random.PCG64(sum(map(ord, name))))
        state = reset(task.world_config(), task, seed=0)
        for _ in range(40):
            state.object_q = _random_q(task, rng)
            # from well inside the window to wholly outside it
            state.proxy_pos = rng.uniform(-0.9, 0.9, 2)
            marker = tuple(rng.uniform(-0.8, 0.8, 2))
            radius = float(rng.choice([0.02, 0.05, 0.004, 1e-4, 0.0, -0.02]))
            _assert_matches_oracle(state, task.object, marker, radius)

    def test_shapes_outside_the_window(self):
        task = get_task("move-box")
        state = reset(task.world_config(), task, seed=0)
        for x, y in [(0.62, 0.0), (-0.74, 0.3), (0.0, -0.6), (0.2, 0.61),
                     (0.77, 0.65), (0.1, 0.75), (-0.9, 0.1), (3.0, 0.0),
                     (0.0, -40.0), (0.0, 40.0), (1e9, 1e9)]:
            for theta in (0.0, 0.3, math.pi / 4, -2.0):
                state.object_q = np.array([x, y, theta])
                state.proxy_pos = np.array([-y, x])
                _assert_matches_oracle(state, task.object, (y, -x), 0.03)

    def test_edges_on_pixel_centers(self):
        # an edge through a row or column of pixel centers, where only the
        # rounding of the two computations decides a pixel
        task = get_task("move-box")
        state = reset(task.world_config(), task, seed=0)
        half_box = task.object.extents[0] / 2.0
        half_marker = render.MARKER_HALF_SIZE
        radius = 0.02
        for cam in CAMERAS:
            gx, gy = _pixel_centers(camera_spec(cam))
            for k in range(0, 64, 3):
                x, y = gx[0, k], gy[k, 0]
                for sx, sy in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                    state.object_q = np.array([x + sx * half_box,
                                               y + sy * half_box, 0.0])
                    state.proxy_pos = np.array([x + sx * radius, y])
                    marker = (x - sx * half_marker, y - sy * half_marker)
                    _assert_matches_oracle(state, task.object, marker, radius)
                    state.proxy_pos = np.array([x + sx * 1.5 * radius,
                                                y + sy * 1.5 * radius])
                    _assert_matches_oracle(state, task.object, None, radius)

    def test_sub_pixel_disc_marks_its_center(self):
        task = get_task("open-drawer")
        state = reset(task.world_config(), task, seed=0)
        spec = camera_spec("front")
        for pos in [(0.013, -0.2), (-0.54, 0.54), (0.2, 0.1)]:
            state.proxy_pos = np.array(pos)
            frame = draw(state, None, spec, "gripper_disc", proxy_radius=1e-4)
            row, col, _ = world_to_pixel(spec, pos)
            assert frame.pixels[row, col] == render.INTENSITY_AGENT
            assert (frame.pixels > 0).sum() == 1
            _assert_matches_oracle(state, task.object, None, 1e-4)


def _assert_batch_matches_oracle(states, obj, marker_pos=None,
                                 proxy_radius=env2d.PROXY_RADIUS):
    for cam in CAMERAS:
        spec = camera_spec(cam)
        for style in AGENT_STYLES:
            frames = render.render_batch(states, obj, spec, style, marker_pos,
                                         proxy_radius)
            assert len(frames) == len(states)
            for i, (state, frame) in enumerate(zip(states, frames)):
                want = oracle_render(state, obj, spec, style, marker_pos,
                                     proxy_radius)
                assert frame.spec == spec
                assert np.array_equal(frame.pixels, want), (
                    cam, style, i, marker_pos, state.object_q,
                    state.proxy_pos, proxy_radius)


def _far_q(task, far):
    if task.object.kind == env2d.FREE_BODY:
        return np.array([far, -far / 2.0, 0.7])
    return np.array([far])


class TestRenderBatch:
    """A batch gives, frame by frame, the oracle's pixels."""

    @pytest.mark.parametrize("name", sorted(env2d.builtin_catalogue()))
    def test_mixed_batch_matches_oracle(self, name):
        task = get_task(name)
        rng = np.random.Generator(np.random.PCG64(7 + sum(map(ord, name))))
        start = reset(task.world_config(), task, seed=0)
        states = []
        for _ in range(24):
            state = start.copy()
            # joints up to 0.2 past their limits, free bodies off the image
            state.object_q = _random_q(task, rng)
            state.proxy_pos = rng.uniform(-0.9, 0.9, 2)
            states.append(state)
        for far in (0.7, -3.0, 40.0, 1e9, -1e9):
            state = start.copy()
            state.object_q = _far_q(task, far)
            state.proxy_pos = np.array([far, far / 3.0])
            states.append(state)
        states = [states[i] for i in rng.permutation(len(states))]
        for marker, radius in [(None, 0.02),
                               (tuple(rng.uniform(-0.8, 0.8, 2)), 0.05),
                               ((0.9, -0.7), 1e-4), ((0.1, 0.2), 0.0)]:
            _assert_batch_matches_oracle(states, task.object, marker, radius)
        _assert_batch_matches_oracle(states, None, (0.0, 0.0), 0.03)

    def test_edges_on_pixel_centers(self):
        task = get_task("move-box")
        start = reset(task.world_config(), task, seed=0)
        half_box = task.object.extents[0] / 2.0
        radius = 0.02
        for cam in CAMERAS:
            gx, gy = _pixel_centers(camera_spec(cam))
            states = []
            for k in range(0, 64, 5):
                x, y = gx[0, k], gy[k, 0]
                for sx, sy in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                    state = start.copy()
                    state.object_q = np.array([x + sx * half_box,
                                               y + sy * half_box, 0.0])
                    state.proxy_pos = np.array([x + sx * radius, y])
                    states.append(state)
            marker = (gx[0, 7] - render.MARKER_HALF_SIZE,
                      gy[40, 0] + render.MARKER_HALF_SIZE)
            _assert_batch_matches_oracle(states, task.object, marker, radius)

    def test_empty_batch(self):
        task = get_task("move-box")
        spec = camera_spec("front")
        for style in AGENT_STYLES:
            assert render.render_batch([], task.object, spec, style,
                                       marker_pos=(0.1, 0.1)) == []
        with pytest.raises(ConfigurationError, match="agent style"):
            render.render_batch([], task.object, spec, "plaid")

    def test_frames_own_their_pixels(self):
        task = get_task("lift-box")
        start = reset(task.world_config(), task, seed=0)
        states = []
        for dx in (0.0, 0.1, 0.2):
            state = start.copy()
            state.object_q = start.object_q + [dx, 0.0, 0.0]
            states.append(state)
        spec = camera_spec("left")
        marker = (0.2, 0.3)
        frames = render.render_batch(states, task.object, spec, "gripper_disc",
                                     marker_pos=marker)
        for frame in frames:
            px = frame.pixels
            assert px.shape == (render.FRAME_SIDE, render.FRAME_SIDE)
            assert px.dtype == np.uint8 and px.flags.c_contiguous
            assert px.base is None or px.base.nbytes == px.nbytes * len(states)
        assert not np.shares_memory(frames[0].pixels, frames[1].pixels)
        # painting over one frame changes neither the others nor later frames
        frames[0].pixels[:] = 7
        for state, frame in zip(states[1:], frames[1:]):
            assert np.array_equal(frame.pixels, oracle_render(
                state, task.object, spec, "gripper_disc", marker))
        again = render.render_batch(states, task.object, spec, "gripper_disc",
                                    marker_pos=marker)
        assert np.array_equal(again[0].pixels, oracle_render(
            states[0], task.object, spec, "gripper_disc", marker))

    @pytest.mark.parametrize("style, field, value", [
        ("none", "object_q", math.nan),
        ("hand_square", "object_q", math.inf),
        ("gripper_disc", "proxy_pos", math.nan),
        ("hand_square", "proxy_pos", -math.inf),
    ])
    def test_non_finite_pose_mid_batch(self, style, field, value):
        task = get_task("open-door")
        states = [reset(task.world_config(), task, seed=s) for s in range(5)]
        getattr(states[2], field)[0] = value
        match = "object pose" if field == "object_q" else "proxy position"
        with pytest.raises(ConfigurationError, match=match):
            render.render_batch(states, task.object, camera_spec("front"), style)

    def test_non_finite_proxy_unused_without_agent(self):
        task = get_task("open-door")
        states = [reset(task.world_config(), task, seed=s) for s in range(5)]
        states[2].proxy_pos = np.array([math.nan, 0.1])
        frames = render.render_batch(states, task.object, camera_spec("front"),
                                     "none")
        for state, frame in zip(states, frames):
            assert np.array_equal(frame.pixels, oracle_render(
                state, task.object, camera_spec("front"), "none"))


class TestNonFinitePose:
    @pytest.mark.parametrize("name, q", [
        ("move-box", [math.nan, 0.2, 0.3]),
        ("move-box", [0.1, math.nan, 0.3]),
        ("move-box", [0.1, 0.2, math.nan]),
        ("move-box", [0.1, -math.inf, 0.3]),
        ("open-drawer", [math.nan]),
        ("open-door", [math.nan]),
        ("move-box", [0.1, 0.2, math.inf]),
        ("move-box", [0.1, 0.2, -math.inf]),
        ("open-drawer", [math.inf]),
        ("open-door", [math.inf]),
        ("open-door", [-math.inf]),
    ])
    def test_object_pose(self, name, q):
        task = get_task(name)
        state = reset(task.world_config(), task, seed=0)
        state.object_q = np.array(q)
        with pytest.raises(ConfigurationError, match="object pose"):
            draw(state, task.object, camera_spec("front"), "none")

    @pytest.mark.parametrize("style", ["gripper_disc", "hand_square"])
    def test_proxy_position(self, drawer_state, style):
        state, task = drawer_state
        state.proxy_pos = np.array([0.1, math.nan])
        with pytest.raises(ConfigurationError, match="proxy position"):
            draw(state, task.object, camera_spec("front"), style)

    def test_proxy_position_unused_without_agent(self, drawer_state):
        state, task = drawer_state
        plain = draw(state, task.object, camera_spec("front"), "none").pixels
        state.proxy_pos = np.array([math.nan, math.nan])
        frame = draw(state, task.object, camera_spec("front"), "none")
        assert np.array_equal(frame.pixels, plain)

    def test_marker(self, drawer_state):
        state, task = drawer_state
        with pytest.raises(ConfigurationError, match="marker"):
            draw(state, task.object, camera_spec("front"), "none",
                 marker_pos=(math.nan, 0.0))


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
