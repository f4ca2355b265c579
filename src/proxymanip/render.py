"""Deterministic grayscale rasterizer for the desk world.

Frames are 64x64 single-channel images of a configurable world window. The
agent glyph is optional: omitting it re-renders the exact scene without the
actor, which is the desk-scale ground truth for segment-and-inpaint. Two
distinct glyphs (a disc for the learner, a square for the demonstrator)
deliberately reproduce the demonstrator/learner appearance gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env2d import ObjectModel, WorldState, rect_center
from .numcore import ConfigurationError

STYLE_NONE = "none"
STYLE_GRIPPER_DISC = "gripper_disc"
STYLE_HAND_SQUARE = "hand_square"
AGENT_STYLES = (STYLE_NONE, STYLE_GRIPPER_DISC, STYLE_HAND_SQUARE)

INTENSITY_MARKER = 90
INTENSITY_OBJECT = 180
INTENSITY_AGENT = 255

MARKER_HALF_SIZE = 0.025


@dataclass(frozen=True)
class ImageSpec:
    height: int = 64
    width: int = 64
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
    col = int(math.floor(fx * spec.width))
    row = int(math.floor(fy * spec.height))
    inside = 0 <= col < spec.width and 0 <= row < spec.height
    col = min(max(col, 0), spec.width - 1)
    row = min(max(row, 0), spec.height - 1)
    return row, col, inside


_GRID_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _pixel_centers(spec: ImageSpec) -> tuple[np.ndarray, np.ndarray]:
    """World coordinates of pixel centers, cached per spec."""
    key = (spec.height, spec.width, spec.window)
    hit = _GRID_CACHE.get(key)
    if hit is not None:
        return hit
    xmin, ymin, xmax, ymax = spec.window
    xs = xmin + (np.arange(spec.width) + 0.5) * (xmax - xmin) / spec.width
    ys = ymax - (np.arange(spec.height) + 0.5) * (ymax - ymin) / spec.height
    gx, gy = np.meshgrid(xs, ys)
    _GRID_CACHE[key] = (gx, gy)
    return gx, gy


def _window(spec: ImageSpec, cx: float, cy: float, hx: float, hy: float,
            field: str) -> tuple[slice, slice]:
    """Row and column slices of the pixels whose centers can lie within
    ``hx`` of ``cx`` and ``hy`` of ``cy``, padded by one pixel so that no
    rounding in the shape tests can reach past them. A bound that is not
    finite raises ``ConfigurationError`` naming ``field``."""
    if not all(map(math.isfinite, (cx - hx, cx + hx, cy - hy, cy + hy))):
        raise ConfigurationError(
            f"{field} is not finite: center ({cx}, {cy}), half-size ({hx}, {hy})")
    xmin, ymin, xmax, ymax = spec.window
    sx = spec.width / (xmax - xmin)
    sy = spec.height / (ymax - ymin)
    # pixel k has its center at k + 0.5 in these units
    c0 = math.ceil((cx - hx - xmin) * sx - 0.5) - 1
    c1 = math.floor((cx + hx - xmin) * sx - 0.5) + 2
    r0 = math.ceil((ymax - cy - hy) * sy - 0.5) - 1
    r1 = math.floor((ymax - cy + hy) * sy - 0.5) + 2
    # a negative bound would count from the end; one past the edge is clipped
    return slice(max(r0, 0), max(r1, 0)), slice(max(c0, 0), max(c1, 0))


def _fill_rect(img: np.ndarray, spec: ImageSpec, center, theta: float,
               extents, value: int, field: str) -> None:
    cx, cy = float(center[0]), float(center[1])
    c, s = math.cos(theta), math.sin(theta)
    hw, hh = extents[0] / 2.0, extents[1] / 2.0
    rows, cols = _window(spec, cx, cy, abs(c) * hw + abs(s) * hh,
                         abs(s) * hw + abs(c) * hh, field)
    gx, gy = _pixel_centers(spec)
    dx = gx[rows, cols] - cx
    dy = gy[rows, cols] - cy
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    mask = (np.abs(lx) <= hw) & (np.abs(ly) <= hh)
    img[rows, cols][mask] = value


def _fill_disc(img: np.ndarray, spec: ImageSpec, center, radius: float,
               value: int, field: str) -> None:
    cx, cy = float(center[0]), float(center[1])
    rows, cols = _window(spec, cx, cy, abs(radius), abs(radius), field)
    gx, gy = _pixel_centers(spec)
    mask = (gx[rows, cols] - cx) ** 2 + (gy[rows, cols] - cy) ** 2 <= radius * radius
    img[rows, cols][mask] = value
    # a sub-pixel disc must still mark its center pixel
    row, col, inside = world_to_pixel(spec, center)
    if inside:
        img[row, col] = value


def render(state: WorldState, obj: ObjectModel | None, spec: ImageSpec,
           style: str, marker_pos=None, proxy_radius: float = 0.02) -> FrameImage:
    """Rasterize one frame.

    Painter's order: background (0), target marker (90), object (180), agent
    glyph (255). ``style='none'`` omits the agent entirely. Pure function of
    its arguments. A non-finite marker, object pose or proxy position of a
    drawn shape raises ``ConfigurationError`` naming it.
    """
    if style not in AGENT_STYLES:
        raise ConfigurationError(f"unknown agent style {style!r}")
    img = np.zeros((spec.height, spec.width), dtype=np.uint8)
    if marker_pos is not None:
        _fill_rect(img, spec, marker_pos, 0.0,
                   (2 * MARKER_HALF_SIZE, 2 * MARKER_HALF_SIZE), INTENSITY_MARKER,
                   "marker")
    if obj is not None:
        if not all(map(math.isfinite, state.object_q)):
            raise ConfigurationError(
                f"object pose is not finite: {state.object_q}")
        center, theta = rect_center(obj, state.object_q)
        _fill_rect(img, spec, center, theta, obj.extents, INTENSITY_OBJECT,
                   "object pose")
    if style == STYLE_GRIPPER_DISC:
        _fill_disc(img, spec, state.proxy_pos, proxy_radius, INTENSITY_AGENT,
                   "proxy position")
    elif style == STYLE_HAND_SQUARE:
        side = 3.0 * proxy_radius
        _fill_rect(img, spec, state.proxy_pos, 0.0, (side, side),
                   INTENSITY_AGENT, "proxy position")
        row, col, inside = world_to_pixel(spec, state.proxy_pos)
        if inside:
            img[row, col] = INTENSITY_AGENT
    return FrameImage(spec=spec, pixels=img)


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
