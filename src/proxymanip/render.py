"""Deterministic grayscale rasterizer for the desk world.

Frames are ``FRAME_SIDE`` x ``FRAME_SIDE`` (64 x 64) single-channel images
of a configurable world window. The agent glyph is optional: omitting it
re-renders the exact scene without the actor, which is the desk-scale ground
truth for segment-and-inpaint. Two distinct glyphs (a disc for the learner,
a square for the demonstrator) deliberately reproduce the
demonstrator/learner appearance gap. Both are sized by the proxy's contact
radius, ``env2d.PROXY_RADIUS``, unless a caller gives another.

Rasterization is batched: :func:`render_batch` draws n frames of one object
and camera in one set of array operations, testing for each shape only a
fixed-size window of pixels around it, and :func:`render` is its n = 1 case.
The per-call overhead is about that of two single frames, so a caller with
several frames draws them in one call. The target marker is the same in
every frame and is painted once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .env2d import PROXY_RADIUS, ObjectModel, WorldState, rect_center
from .numcore import ConfigurationError

STYLE_NONE = "none"
STYLE_GRIPPER_DISC = "gripper_disc"
STYLE_HAND_SQUARE = "hand_square"
AGENT_STYLES = (STYLE_NONE, STYLE_GRIPPER_DISC, STYLE_HAND_SQUARE)

INTENSITY_MARKER = 90
INTENSITY_OBJECT = 180
INTENSITY_AGENT = 255

MARKER_HALF_SIZE = 0.025

FRAME_SIDE = 64


@dataclass(frozen=True)
class ImageSpec:
    # world window as (xmin, ymin, xmax, ymax), meters
    window: tuple[float, float, float, float] = (-0.55, -0.55, 0.55, 0.55)
    camera_id: str = "front"

    def __post_init__(self):
        xmin, ymin, xmax, ymax = self.window
        if not (xmax > xmin and ymax > ymin):
            raise ConfigurationError("degenerate world window")


CAMERAS = {
    "front": ImageSpec(window=(-0.55, -0.55, 0.55, 0.55), camera_id="front"),
    "left": ImageSpec(window=(-0.70, -0.55, 0.40, 0.55), camera_id="left"),
    "right": ImageSpec(window=(-0.40, -0.55, 0.70, 0.55), camera_id="right"),
}


def camera_spec(camera_id: str) -> ImageSpec:
    if camera_id not in CAMERAS:
        raise ConfigurationError(
            f"unknown camera {camera_id!r}; available: {sorted(CAMERAS)}")
    return CAMERAS[camera_id]


@dataclass
class FrameImage:
    spec: ImageSpec
    pixels: np.ndarray  # (H, W) uint8


def world_to_pixel(spec: ImageSpec, point) -> tuple[int, int, bool]:
    """Affine map of the world window onto the pixel grid, y flipped.

    Returns (row, col, in_window); out-of-window points are clamped to the
    border pixel and flagged.
    """
    x, y = float(point[0]), float(point[1])
    xmin, ymin, xmax, ymax = spec.window
    fx = (x - xmin) / (xmax - xmin)
    fy = (ymax - y) / (ymax - ymin)
    col = int(math.floor(fx * FRAME_SIDE))
    row = int(math.floor(fy * FRAME_SIDE))
    inside = 0 <= col < FRAME_SIDE and 0 <= row < FRAME_SIDE
    col = min(max(col, 0), FRAME_SIDE - 1)
    row = min(max(row, 0), FRAME_SIDE - 1)
    return row, col, inside


@functools.lru_cache(maxsize=64)
def _window_geometry(spec: ImageSpec, reach: float):
    """What the windows of every shape of ``reach`` on ``spec`` share.

    A window holds the pixels whose centers can lie within ``reach`` of the
    shape's center, plus two pixels on either side, so that no rounding in
    the shape tests or in placing the window can reach past it. Returns the
    world x of each column's pixel centers and y of each row's, with ``pad``
    NaNs on either side; the affine map (scale, offset) of a center to the
    padded index of its window's first column and row, with the largest
    such index; the column and row ranges of a window; and ``pad``. No shape
    test passes at NaN, so a window reaching past the image paints nothing
    there.
    """
    xmin, ymin, xmax, ymax = spec.window
    sx = FRAME_SIDE / (xmax - xmin)
    sy = FRAME_SIDE / (ymax - ymin)
    kc = math.ceil(2.0 * reach * sx) + 5
    kr = math.ceil(2.0 * reach * sy) + 5
    pad = max(kc, kr)
    nan = np.full(pad, np.nan)
    xs = xmin + (np.arange(FRAME_SIDE) + 0.5) * (xmax - xmin) / FRAME_SIDE
    ys = ymax - (np.arange(FRAME_SIDE) + 0.5) * (ymax - ymin) / FRAME_SIDE
    xs = np.concatenate([nan, xs, nan])
    ys = np.concatenate([nan, ys, nan])
    # pixel k has its center at k + 0.5 in pixel units, y pointing down
    scale = np.array([sx, -sy])
    offset = np.array([pad - 1.5 - (xmin + reach) * sx,
                       pad - 1.5 + (ymax - reach) * sy])
    last = float(FRAME_SIDE + pad)
    return xs, ys, scale, offset, last, np.arange(kc), np.arange(kr), pad


def _windows(spec: ImageSpec, centers: np.ndarray, reach: float,
             field: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One fixed-size pixel window per frame around ``centers[i]`` (see
    :func:`_window_geometry`).

    Returns ``dx`` (n, cols) and ``dy`` (n, rows), the window's pixel-center
    offsets from the shape's center (NaN off the image), and ``flat``
    (n, rows, cols), each window pixel's index into the raveled (n, H, W)
    frames, valid wherever the pixel is on the image. A center or reach
    that is not finite raises ``ConfigurationError`` naming ``field``.
    """
    if not (np.isfinite(centers).all() and math.isfinite(reach)):
        x, y = centers[(~np.isfinite(centers)).any(axis=1).argmax()]
        raise ConfigurationError(
            f"{field} is not finite: center ({x}, {y}), reach {reach}")
    xs, ys, scale, offset, last, col_range, row_range, pad = \
        _window_geometry(spec, reach)
    # a window wholly off the image moves to just past its edge, where it
    # sees only NaN; the clipped start is not negative, so astype floors it
    start = (centers * scale + offset).clip(0.0, last).astype(np.intp)
    cols = start[:, :1] + col_range
    rows = start[:, 1:] + row_range
    dx = xs[cols] - centers[:, :1]
    dy = ys[rows] - centers[:, 1:]
    frame_base = (np.arange(len(centers)) * FRAME_SIDE ** 2
                  - pad * (FRAME_SIDE + 1))
    flat = (rows * FRAME_SIDE + frame_base[:, None])[:, :, None] + cols[:, None, :]
    return dx, dy, flat


def _fill_rects(imgs: np.ndarray, spec: ImageSpec, centers: np.ndarray, c, s,
                extents, value: int, field: str) -> None:
    """Paint into ``imgs[i]`` the rectangle of ``extents`` centered on
    ``centers[i]`` and rotated by the angle of cosine ``c[i]`` and sine
    ``s[i]`` (each (n, 1), or one float for every frame)."""
    hw, hh = extents[0] / 2.0, extents[1] / 2.0
    dx, dy, flat = _windows(spec, centers, math.hypot(hw, hh), field)
    lx = (c * dx)[:, None, :] + (s * dy)[:, :, None]
    ly = (c * dy)[:, :, None] - (s * dx)[:, None, :]
    mask = (np.abs(lx) <= hw) & (np.abs(ly) <= hh)
    imgs.reshape(-1)[flat[mask]] = value


def _fill_discs(imgs: np.ndarray, spec: ImageSpec, centers: np.ndarray,
                radius: float, value: int, field: str) -> None:
    dx, dy, flat = _windows(spec, centers, abs(radius), field)
    mask = (dx ** 2)[:, None, :] + (dy ** 2)[:, :, None] <= radius * radius
    imgs.reshape(-1)[flat[mask]] = value


@functools.lru_cache(maxsize=64)
def _marker_layer(spec: ImageSpec, x: float, y: float) -> np.ndarray:
    """A read-only (1, H, W) frame holding only the target marker at (x, y).
    Cached: every frame of a task shows its marker in the same place."""
    layer = np.zeros((1, FRAME_SIDE, FRAME_SIDE), dtype=np.uint8)
    _fill_rects(layer, spec, np.array([[x, y]]), 1.0, 0.0,
                (2 * MARKER_HALF_SIZE, 2 * MARKER_HALF_SIZE), INTENSITY_MARKER,
                "marker")
    layer.flags.writeable = False
    return layer


def render_batch(states, obj: ObjectModel | None, spec: ImageSpec, style: str,
                 marker_pos=None,
                 proxy_radius: float = PROXY_RADIUS) -> list[FrameImage]:
    """Rasterize one frame per state, all of one object and camera.

    Painter's order: background (0), target marker (90), object (180), agent
    glyph (255). ``style='none'`` omits the agent entirely. Pure function of
    its arguments. A non-finite marker, object pose or proxy position of a
    drawn shape raises ``ConfigurationError`` naming it.
    """
    if style not in AGENT_STYLES:
        raise ConfigurationError(f"unknown agent style {style!r}")
    n = len(states)
    if n == 0:
        return []
    if marker_pos is None:
        imgs = np.zeros((n, FRAME_SIDE, FRAME_SIDE), dtype=np.uint8)
    else:
        imgs = _marker_layer(spec, float(marker_pos[0]),
                             float(marker_pos[1])).repeat(n, axis=0)
    if obj is not None:
        poses = []
        for state in states:
            q = state.object_q.tolist()
            if not all(map(math.isfinite, q)):
                raise ConfigurationError(
                    f"object pose is not finite: {state.object_q}")
            x, y, theta = rect_center(obj, q)
            poses.append((x, y, math.cos(theta), math.sin(theta)))
        poses = np.array(poses)
        _fill_rects(imgs, spec, poses[:, :2], poses[:, 2:3], poses[:, 3:],
                    obj.extents, INTENSITY_OBJECT, "object pose")
    if style != STYLE_NONE:
        pos = np.array([state.proxy_pos for state in states], dtype=float)
        if style == STYLE_GRIPPER_DISC:
            _fill_discs(imgs, spec, pos, proxy_radius, INTENSITY_AGENT,
                        "proxy position")
        else:
            side = 3.0 * proxy_radius
            _fill_rects(imgs, spec, pos, 1.0, 0.0, (side, side),
                        INTENSITY_AGENT, "proxy position")
        # a glyph smaller than a pixel must still mark its center pixel
        for img, p in zip(imgs, pos):
            row, col, inside = world_to_pixel(spec, p)
            if inside:
                img[row, col] = INTENSITY_AGENT
    return [FrameImage(spec, img) for img in imgs]


def render(state: WorldState, obj: ObjectModel | None, spec: ImageSpec,
           style: str, marker_pos=None,
           proxy_radius: float = PROXY_RADIUS) -> FrameImage:
    """Rasterize one frame: the n = 1 case of :func:`render_batch`."""
    return render_batch([state], obj, spec, style, marker_pos, proxy_radius)[0]


# ---------------------------------------------------------------------------
# Binary PGM (P5) persistence
# ---------------------------------------------------------------------------

def write_pgm(path, pixels: np.ndarray) -> None:
    if pixels.dtype != np.uint8 or pixels.ndim != 2:
        raise ConfigurationError("PGM writer expects a 2-D uint8 array")
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM with maxval 255. A missing or non-integer header
    field, or a raster shorter or longer than the header says, raises
    ``ConfigurationError`` naming the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ConfigurationError(f"{path}: not a binary PGM file")
    # header: magic, width, height, maxval, single whitespace, then raster
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise ConfigurationError(
                f"{path}: PGM header field {len(fields) + 1} of 3 is "
                f"{token.decode('latin-1')!r}, not an integer")
        fields.append(int(token))
    w, h, maxval = fields
    if maxval != 255:
        raise ConfigurationError(f"{path}: expected maxval 255, got {maxval}")
    raster = data[pos + 1:]  # after the single whitespace that ends maxval
    if len(raster) != w * h:
        kind = "truncated" if len(raster) < w * h else "trailing bytes after"
        raise ConfigurationError(
            f"{path}: {kind} raster: {len(raster)} bytes for {w}x{h} pixels")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).copy()


def frame_filename(index: int) -> str:
    return f"frame_{index:06d}.pgm"
