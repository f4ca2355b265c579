"""Deterministic 2-D desk world.

One manipulable object per task (prismatic drawer, revolute door, or a free
rectangular body) plus a free-floating disc proxy standing in for any
end-effector. Episodes run in two phases: position-controlled exploration
until the proxy enters the interactable ball around an annotated grasp point,
then force-controlled interaction with the proxy welded to that grasp point.
Integration is semi-implicit Euler; everything is a pure function of explicit
state, so trajectories are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .numcore import ConfigurationError, require

PRISMATIC = "prismatic"
REVOLUTE = "revolute"
FREE_BODY = "free_body"

OBS_DIM = 12
OBS_PHASE_INDEX = 10


class Phase(IntEnum):
    EXPLORATION = 0
    INTERACTION = 1


# The proxy's dynamics are the same in every world: a unit point mass driven
# by a PD law toward the desired position, with no damping beyond the PD
# law's velocity term, and a contact disc. An object's only damping is its
# own ``ObjectModel.friction``.
DT = 0.02
PROXY_RADIUS = 0.02              # collision radius of the proxy disc
PD_KP = 100.0
PD_KD = 20.0


@dataclass(frozen=True)
class WorldConfig:
    interact_radius: float = 0.10    # grasp-attachment trigger radius
    episode_horizon: int = 400
    force_max: float = 20.0          # per-axis bound on intended force
    arena_half: float = 1.0          # desired positions live in [-arena, arena]^2
    start_jitter: float = 0.0        # uniform proxy-start jitter applied at reset
    two_phase: bool = True           # False: flat action space, contact forces only

    def __post_init__(self):
        for name in ("arena_half", "interact_radius"):
            value = getattr(self, name)
            require(math.isfinite(value) and value > 0, name, value,
                    "finite and positive")
        for name in ("force_max", "start_jitter"):
            value = getattr(self, name)
            require(math.isfinite(value) and value >= 0, name, value,
                    "finite and non-negative")
        require(self.interact_radius > PROXY_RADIUS, "interact_radius",
                self.interact_radius, f"above the proxy radius {PROXY_RADIUS}")
        require(self.episode_horizon >= 1, "episode_horizon",
                self.episode_horizon, "at least 1")


@dataclass(frozen=True)
class GraspPoint:
    position: tuple[float, float]    # object frame
    angle: float                     # gripper orientation, object frame


@dataclass(frozen=True)
class ObjectModel:
    kind: str
    extents: tuple[float, float]     # full rectangle extents, meters
    origin: tuple[float, float]      # frame anchor at q=0 (pivot for revolute)
    axis: tuple[float, float] | None
    limits: tuple                    # [lo, hi], or ((xlo,xhi),(ylo,yhi)) for free bodies
    inertia: float                   # effective mass (prismatic/free) or moment (revolute)
    friction: float                  # viscous coefficient on the object's own DOFs
    grasp_points: tuple[GraspPoint, ...]

    def __post_init__(self):
        if self.kind not in (PRISMATIC, REVOLUTE, FREE_BODY):
            raise ConfigurationError(f"unknown object kind {self.kind!r}")
        if self.inertia <= 0:
            raise ConfigurationError("inertia must be positive")
        if not self.grasp_points:
            raise ConfigurationError("object needs at least one grasp point")
        if self.kind == FREE_BODY:
            (xlo, xhi), (ylo, yhi) = self.limits
            if not (xlo < xhi and ylo < yhi):
                raise ConfigurationError("free-body position limits degenerate")
        else:
            lo, hi = self.limits
            if not lo < hi:
                raise ConfigurationError("joint limits degenerate")
            if self.kind == PRISMATIC and self.axis is None:
                raise ConfigurationError("prismatic object needs an axis")

    @property
    def rot_inertia(self) -> float:
        # uniform rectangle about its center; only used for free bodies
        w, h = self.extents
        return self.inertia * (w * w + h * h) / 12.0


@dataclass(frozen=True)
class TaskSpec:
    name: str
    object: ObjectModel
    proxy_start: tuple[float, float]
    start_q: tuple[float, ...]       # (q,) or (x, y, theta)
    target_q: tuple[float, ...]
    tolerance: float
    gravity: tuple[float, float] = (0.0, 0.0)

    def world_config(self, **overrides) -> WorldConfig:
        """World settings for this task; its gravity stays on the task."""
        return WorldConfig(**overrides)


@dataclass
class WorldState:
    time_step: int
    proxy_pos: np.ndarray            # (2,)
    proxy_vel: np.ndarray            # (2,)
    object_q: np.ndarray             # (1,) joint value or (3,) pose
    object_qdot: np.ndarray
    phase: Phase
    attachment: int | None

    def copy(self) -> "WorldState":
        return WorldState(self.time_step, self.proxy_pos.copy(),
                          self.proxy_vel.copy(), self.object_q.copy(),
                          self.object_qdot.copy(), self.phase, self.attachment)


@dataclass(frozen=True)
class ProxyAction:
    desired_pos: tuple[float, float]   # a_p, used in exploration
    force: tuple[float, float]         # a_f, used in interaction


# ---------------------------------------------------------------------------
# Geometry
#
# The world's geometry is one set of functions on Python floats, used by the
# step and by every other module: a configuration ``q`` is a list of floats,
# such as ``state.object_q.tolist()``, and a point is its x and y. On
# 2-vectors numpy's call overhead costs far more than the arithmetic, and a
# float product rounds the same on every CPU, where a BLAS 2x2 product may
# fuse a multiply-add. Arrays exist only in ``WorldState``.
# ---------------------------------------------------------------------------

def _finite(*values: float) -> bool:
    return all(map(math.isfinite, values))


def clamp(v: float, bound: float) -> float:
    """``v`` limited to [-bound, bound], the float form of ``np.clip``; a
    NaN passes through."""
    return -bound if v < -bound else bound if v > bound else v


def rotate(c: float, s: float, x: float, y: float) -> tuple[float, float]:
    """(x, y) rotated by the angle whose cosine and sine are ``c``, ``s``."""
    return c * x - s * y, s * x + c * y


def _frame(obj: ObjectModel, q: list[float]) -> tuple[float, float, float]:
    """World origin (x, y) of the object frame and its rotation."""
    if obj.kind == PRISMATIC:
        return (obj.origin[0] + obj.axis[0] * q[0],
                obj.origin[1] + obj.axis[1] * q[0], 0.0)
    if obj.kind == REVOLUTE:
        return float(obj.origin[0]), float(obj.origin[1]), q[0]
    return q[0], q[1], q[2]


def rect_center(obj: ObjectModel, q: list[float]) -> tuple[float, float, float]:
    """World center (x, y) and rotation of the drawn/collided rectangle."""
    x, y, theta = _frame(obj, q)
    if obj.kind == REVOLUTE:
        # leaf extends from the pivot along local +x
        dx, dy = rotate(math.cos(theta), math.sin(theta), obj.extents[0] / 2.0, 0.0)
        return x + dx, y + dy, theta
    return x, y, theta


def grasp_world(obj: ObjectModel, q: list[float],
                index: int) -> tuple[float, float, float]:
    """World position (x, y) and gripper angle of grasp point ``index``."""
    gp = obj.grasp_points[index]
    x, y, theta = _frame(obj, q)
    if obj.kind == PRISMATIC:
        return x + gp.position[0], y + gp.position[1], gp.angle
    dx, dy = rotate(math.cos(theta), math.sin(theta), *gp.position)
    return x + dx, y + dy, gp.angle + theta


def closest_on_rect(px: float, py: float, cx: float, cy: float, theta: float,
                    extents: tuple[float, float]) -> tuple[float, ...]:
    """Closest point (x, y) of the rectangle to (px, py), the outward normal
    (x, y) there and the distance; a point inside resolves to the nearest
    face, at negative distance."""
    hw, hh = extents[0] / 2.0, extents[1] / 2.0
    c, s = math.cos(theta), math.sin(theta)
    lx, ly = rotate(c, -s, px - cx, py - cy)
    kx = min(max(lx, -hw), hw)
    ky = min(max(ly, -hh), hh)
    if kx != lx or ky != ly:
        ex, ey = lx - kx, ly - ky
        dist = math.hypot(ex, ey)
        nx, ny = ex / dist, ey / dist
    else:
        # inside: exit through the nearest face
        ex, ey = hw - abs(lx), hh - abs(ly)
        if ex <= ey:
            nx, ny = (1.0 if lx >= 0 else -1.0), 0.0
            kx, dist = nx * hw, -ex
        else:
            nx, ny = 0.0, (1.0 if ly >= 0 else -1.0)
            ky, dist = ny * hh, -ey
    wx, wy = rotate(c, s, kx, ky)
    nx, ny = rotate(c, s, nx, ny)
    return cx + wx, cy + wy, nx, ny, dist


def nearest_grasp(obj: ObjectModel, q: list[float], px: float,
                  py: float) -> tuple[int, float]:
    """Index of the grasp point nearest to (px, py) at configuration ``q``,
    and its distance; ties go to the lowest index."""
    best, best_d = 0, math.inf
    for i in range(len(obj.grasp_points)):
        gx, gy, _ = grasp_world(obj, q, i)
        d = math.hypot(px - gx, py - gy)
        if d < best_d:
            best, best_d = i, d
    return best, best_d


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def reset(config: WorldConfig, task: TaskSpec, seed: int) -> WorldState:
    """Standardized start state; the seed only drives the configured
    proxy-start jitter, so the same seed reproduces the state bitwise."""
    obj = task.object
    q = np.array(task.start_q, dtype=float)
    _check_q(obj, q)
    proxy = np.array(task.proxy_start, dtype=float)
    if config.start_jitter > 0.0:
        rng = np.random.Generator(np.random.PCG64(seed))
        proxy = proxy + rng.uniform(-config.start_jitter, config.start_jitter, 2)
    return WorldState(
        time_step=0,
        proxy_pos=proxy,
        proxy_vel=np.zeros(2),
        object_q=q,
        object_qdot=np.zeros_like(q),
        phase=Phase.EXPLORATION,
        attachment=None,
    )


def _check_q(obj: ObjectModel, q: np.ndarray) -> None:
    if obj.kind == FREE_BODY:
        if q.shape != (3,):
            raise ConfigurationError("free-body configuration must be (x, y, theta)")
    elif q.shape != (1,):
        raise ConfigurationError("joint configuration must be a single value")


def _clamp_action(action: ProxyAction,
                  config: WorldConfig) -> tuple[float, float, float, float]:
    """Desired position (x, y) and force (x, y), each bounded per axis."""
    (px, py), (fx, fy) = action.desired_pos, action.force
    arena, force = config.arena_half, config.force_max
    return (clamp(float(px), arena), clamp(float(py), arena),
            clamp(float(fx), force), clamp(float(fy), force))


def _object_free_dynamics(task: TaskSpec, q: list[float], qd: list[float],
                          gen_force: tuple[float, ...],
                          events: list) -> tuple[list[float], list[float]]:
    """Integrate the object's DOFs one step under a generalized force, then
    clamp each bounded coordinate to its limits."""
    obj = task.object
    damping = obj.friction
    if obj.kind == FREE_BODY:
        m = obj.inertia
        gx, gy = task.gravity
        # grasps are rigid and desk objects sit on a surface, so rotation only
        # ever decays; the viscous scale matches the linear one
        acc = ((gen_force[0] + m * gx - damping * qd[0]) / m,
               (gen_force[1] + m * gy - damping * qd[1]) / m,
               -(damping / m) * qd[2])
        bounds = obj.limits
    else:
        # articulated: scalar joint
        acc = ((gen_force[0] - damping * qd[0]) / obj.inertia,)
        bounds = (obj.limits,)
    qd_new = [v + DT * a for v, a in zip(qd, acc)]
    q_new = [v + DT * w for v, w in zip(q, qd_new)]
    for axis, (lo, hi) in enumerate(bounds):
        if q_new[axis] < lo:
            q_new[axis] = lo
            if qd_new[axis] < 0:
                qd_new[axis] = 0.0
            events.append(("limit_hit", axis, "lo"))
        elif q_new[axis] > hi:
            q_new[axis] = hi
            if qd_new[axis] > 0:
                qd_new[axis] = 0.0
            events.append(("limit_hit", axis, "hi"))
    return q_new, qd_new


def _generalized_force(obj: ObjectModel, px: float, py: float, fx: float,
                       fy: float) -> tuple[float, ...]:
    """Map a world-frame force (fx, fy) applied at a world point (px, py)
    onto the object DOFs.

    Free bodies take the force directly (no induced spin, see
    _object_free_dynamics); prismatic joints project onto the axis; revolute
    joints take the scalar cross product with the pivot arm.
    """
    if obj.kind == PRISMATIC:
        return (obj.axis[0] * fx + obj.axis[1] * fy,)
    if obj.kind == REVOLUTE:
        rx, ry = px - obj.origin[0], py - obj.origin[1]
        return (rx * fy - ry * fx,)
    return fx, fy


def step(state: WorldState, action: ProxyAction, config: WorldConfig,
         task: TaskSpec) -> tuple[WorldState, list]:
    """Advance the world by one ``DT``. Returns (next_state, events); events list
    phase transitions, joint-limit hits, and proxy-object contacts."""
    obj = task.object
    px, py = state.proxy_pos.tolist()
    vx, vy = state.proxy_vel.tolist()
    q, qd = state.object_q.tolist(), state.object_qdot.tolist()
    if not _finite(px, py, *q):
        raise FloatingPointError(
            f"non-finite state at step {state.time_step}: "
            f"proxy={state.proxy_pos}, q={state.object_q}")
    apx, apy, afx, afy = _clamp_action(action, config)
    events: list = []
    phase, attachment = state.phase, state.attachment

    if phase == Phase.INTERACTION:
        gx, gy, _ = grasp_world(obj, q, attachment)
        q, qd = _object_free_dynamics(
            task, q, qd, _generalized_force(obj, gx, gy, afx, afy), events)
        gx, gy, _ = grasp_world(obj, q, attachment)
        vx, vy = (gx - px) / DT, (gy - py) / DT
        px, py = gx, gy
    else:
        # PD toward the desired position, then contact against the rectangle
        fx = PD_KP * (apx - px) - PD_KD * vx
        fy = PD_KP * (apy - py) - PD_KD * vy
        vx, vy = vx + DT * fx, vy + DT * fy
        px, py = px + DT * vx, py + DT * vy

        cx, cy, theta = rect_center(obj, q)
        kx, ky, nx, ny, dist = closest_on_rect(px, py, cx, cy, theta, obj.extents)
        in_contact = dist < PROXY_RADIUS
        if in_contact:
            px, py = kx + nx * PROXY_RADIUS, ky + ny * PROXY_RADIUS
            vn = vx * nx + vy * ny
            if vn < 0.0:
                vx, vy = vx - vn * nx, vy - vn * ny
            events.append(("contact",))

        gen_force = (0.0, 0.0) if obj.kind == FREE_BODY else (0.0,)
        if not config.two_phase and in_contact:
            # flat-action ablation: intended force transmits while touching
            gen_force = _generalized_force(obj, kx, ky, afx, afy)
        q, qd = _object_free_dynamics(task, q, qd, gen_force, events)
        if config.two_phase:
            # the nearest grasp point attaches once the proxy is within reach
            index, dist = nearest_grasp(obj, q, px, py)
            if dist <= config.interact_radius:
                phase, attachment = Phase.INTERACTION, index
                events.append(("phase_transition", index))

    if not _finite(px, py, *q):
        raise FloatingPointError(
            f"step produced non-finite state at t={state.time_step + 1}: "
            f"proxy={[px, py]}, vel={[vx, vy]}, q={q}, from the clamped action "
            f"desired_pos={[apx, apy]}, force={[afx, afy]}")
    return WorldState(state.time_step + 1, np.array([px, py]), np.array([vx, vy]),
                      np.array(q), np.array(qd), phase, attachment), events


def observe(state: WorldState, obj: ObjectModel) -> np.ndarray:
    """Fixed 12-slot observation: proxy pos (2), proxy vel (2), object
    configuration (3, zero padded), object velocity (3, zero padded),
    phase flag, attachment flag."""
    q, qd = state.object_q.tolist(), state.object_qdot.tolist()
    pad = (0.0,) * (3 - len(q))
    return np.array([*state.proxy_pos.tolist(), *state.proxy_vel.tolist(),
                     *q, *pad, *qd, *pad,
                     1.0 if state.phase == Phase.INTERACTION else 0.0,
                     0.0 if state.attachment is None else 1.0])


def is_success(state: WorldState, task: TaskSpec) -> bool:
    q, target = state.object_q.tolist(), task.target_q
    if task.object.kind == FREE_BODY:
        return math.hypot(q[0] - target[0], q[1] - target[1]) <= task.tolerance
    return abs(q[0] - target[0]) <= task.tolerance


@dataclass
class Episode:
    """One episode from reset: ``states`` holds the start state and the state
    after every step; step ``i`` took ``actions[i]`` out of ``states[i]`` and
    raised ``events[i]``."""
    states: list[WorldState]
    actions: list[ProxyAction]
    events: list[list]
    success: bool = False

    @property
    def steps(self) -> int:
        return len(self.actions)

    @property
    def final_state(self) -> WorldState:
        return self.states[-1]


def run_episode(task: TaskSpec, config: WorldConfig, seed: int, act) -> Episode:
    """Reset, then step with ``act(state) -> ProxyAction`` until the task
    succeeds or ``config.episode_horizon`` steps have run."""
    state = reset(config, task, seed)
    episode = Episode([state], [], [])
    for _ in range(config.episode_horizon):
        action = act(state)
        state, events = step(state, action, config, task)
        episode.states.append(state)
        episode.actions.append(action)
        episode.events.append(events)
        if is_success(state, task):
            episode.success = True
            break
    return episode


def state_record(state: WorldState, obj: ObjectModel) -> dict:
    """JSON-ready record of one state: a dataset clip's per-frame summary and
    a frame of the trajectory ``retarget`` reads."""
    return {
        "t": state.time_step,
        "proxy_pos": state.proxy_pos.tolist(),
        "proxy_vel": state.proxy_vel.tolist(),
        "object_q": state.object_q.tolist(),
        "object_qdot": state.object_qdot.tolist(),
        "phase": int(state.phase),
        "attachment": state.attachment,
        "obs": observe(state, obj).tolist(),
    }


def trajectory_record(task: TaskSpec, episode: Episode) -> dict:
    """An episode as the retargeting interchange document."""
    return {"task": task.name, "success": episode.success,
            "frames": [state_record(s, task.object) for s in episode.states],
            "events": [list(e) for events in episode.events for e in events]}


# ---------------------------------------------------------------------------
# Task catalogue
# ---------------------------------------------------------------------------

_DRAWER = ObjectModel(
    kind=PRISMATIC,
    extents=(0.24, 0.16),
    origin=(0.1, 0.0),
    axis=(1.0, 0.0),
    limits=(0.0, 0.3),
    inertia=2.0,
    friction=8.0,
    grasp_points=(GraspPoint((-0.14, 0.0), 0.0),),
)

_DOOR = ObjectModel(
    kind=REVOLUTE,
    extents=(0.3, 0.05),
    origin=(0.0, 0.1),
    axis=None,
    limits=(0.0, 2.094),
    inertia=0.15,
    friction=0.8,
    grasp_points=(GraspPoint((0.27, -0.045), math.pi / 2),),
)

_BOX = ObjectModel(
    kind=FREE_BODY,
    extents=(0.12, 0.12),
    origin=(0.0, 0.0),
    axis=None,
    limits=((-0.6, 0.6), (-0.6, 0.6)),
    inertia=1.0,
    friction=5.0,
    grasp_points=(GraspPoint((-0.08, 0.0), 0.0), GraspPoint((0.08, 0.0), math.pi)),
)

_LIFT_BOX = ObjectModel(
    kind=FREE_BODY,
    extents=(0.12, 0.12),
    origin=(0.0, 0.0),
    axis=None,
    limits=((-0.6, 0.6), (-0.34, 0.6)),   # lower y limit is the resting floor
    inertia=1.0,
    friction=2.0,
    grasp_points=(GraspPoint((0.0, 0.08), -math.pi / 2),),
)


def builtin_catalogue() -> dict[str, TaskSpec]:
    """The six desk tasks with standardized starts, targets, and tolerances."""
    return {
        "open-drawer": TaskSpec("open-drawer", _DRAWER, (-0.3, 0.0),
                                (0.0,), (0.3,), 0.05),
        "close-drawer": TaskSpec("close-drawer", _DRAWER, (-0.3, 0.0),
                                 (0.3,), (0.0,), 0.05),
        "open-door": TaskSpec("open-door", _DOOR, (0.3, -0.2),
                              (0.0,), (2.094,), 0.15),
        "close-door": TaskSpec("close-door", _DOOR, (-0.2, 0.45),
                               (2.094,), (0.0,), 0.15),
        "move-box": TaskSpec("move-box", _BOX, (-0.3, 0.0),
                             (0.0, 0.0, 0.0), (0.3, 0.2, 0.0), 0.05),
        "lift-box": TaskSpec("lift-box", _LIFT_BOX, (0.0, 0.2),
                             (0.0, -0.34, 0.0), (0.0, -0.1, 0.0), 0.05,
                             gravity=(0.0, -9.8)),
    }


def get_task(name: str) -> TaskSpec:
    cat = builtin_catalogue()
    if name not in cat:
        raise ConfigurationError(
            f"unknown task {name!r}; available: {sorted(cat)}")
    return cat[name]
