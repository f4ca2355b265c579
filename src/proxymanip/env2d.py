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

import json
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .numcore import ConfigurationError

PRISMATIC = "prismatic"
REVOLUTE = "revolute"
FREE_BODY = "free_body"

OBS_DIM = 12
OBS_PHASE_INDEX = 10
OBS_ATTACH_INDEX = 11


class Phase(IntEnum):
    EXPLORATION = 0
    INTERACTION = 1


@dataclass(frozen=True)
class WorldConfig:
    dt: float = 0.02
    gravity: tuple[float, float] = (0.0, 0.0)
    proxy_radius: float = 0.02       # collision radius of the proxy disc
    interact_radius: float = 0.10    # grasp-attachment trigger radius
    proxy_mass: float = 1.0
    pd_kp: float = 100.0
    pd_kd: float = 20.0
    proxy_damping: float = 0.0
    object_damping: float = 0.0      # added on top of the object's friction
    episode_horizon: int = 400
    force_max: float = 20.0          # per-axis bound on intended force
    arena_half: float = 1.0          # desired positions live in [-arena, arena]^2
    start_jitter: float = 0.0        # uniform proxy-start jitter applied at reset
    two_phase: bool = True           # False: flat action space, contact forces only

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if not (self.interact_radius > self.proxy_radius > 0):
            raise ConfigurationError("need interact_radius > proxy_radius > 0")


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
        base = dict(gravity=self.gravity)
        base.update(overrides)
        return WorldConfig(**base)


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

    @staticmethod
    def zero() -> "ProxyAction":
        return ProxyAction((0.0, 0.0), (0.0, 0.0))


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def object_frame(obj: ObjectModel, q: np.ndarray) -> tuple[np.ndarray, float]:
    """World position of the object frame origin and its rotation."""
    if obj.kind == PRISMATIC:
        return np.asarray(obj.origin) + np.asarray(obj.axis) * q[0], 0.0
    if obj.kind == REVOLUTE:
        return np.asarray(obj.origin, dtype=float), float(q[0])
    return np.array([q[0], q[1]]), float(q[2])


def rect_center(obj: ObjectModel, q: np.ndarray) -> tuple[np.ndarray, float]:
    """World center and rotation of the drawn/collided rectangle."""
    origin, theta = object_frame(obj, q)
    if obj.kind == REVOLUTE:
        # leaf extends from the pivot along local +x
        local_center = np.array([obj.extents[0] / 2.0, 0.0])
        return origin + _rot(theta) @ local_center, theta
    return origin, theta


def grasp_point_world(obj: ObjectModel, q: np.ndarray, index: int) -> tuple[np.ndarray, float]:
    """World position and gripper angle of grasp point ``index``."""
    gp = obj.grasp_points[index]
    origin, theta = object_frame(obj, q)
    if obj.kind == PRISMATIC:
        return origin + np.asarray(gp.position), gp.angle
    return origin + _rot(theta) @ np.asarray(gp.position), gp.angle + theta


def closest_point_on_rect(point: np.ndarray, center: np.ndarray, theta: float,
                          extents: tuple[float, float]) -> tuple[np.ndarray, np.ndarray, float]:
    """Closest rectangle point to ``point`` plus outward normal and distance.

    Points inside the rectangle are resolved to the nearest face (negative
    distance reported).
    """
    hw, hh = extents[0] / 2.0, extents[1] / 2.0
    rot = _rot(theta)
    local = rot.T @ (point - center)
    lx, ly = float(local[0]), float(local[1])
    cx = min(max(lx, -hw), hw)
    cy = min(max(ly, -hh), hh)
    if cx != lx or cy != ly:
        closest_local = np.array([cx, cy])
        delta = local - closest_local
        dist = float(np.hypot(delta[0], delta[1]))
        normal_local = delta / dist
    else:
        # inside: exit through the nearest face
        dx = hw - abs(lx)
        dy = hh - abs(ly)
        if dx <= dy:
            sx = 1.0 if lx >= 0 else -1.0
            closest_local = np.array([sx * hw, ly])
            normal_local = np.array([sx, 0.0])
            dist = -dx
        else:
            sy = 1.0 if ly >= 0 else -1.0
            closest_local = np.array([lx, sy * hh])
            normal_local = np.array([0.0, sy])
            dist = -dy
    return center + rot @ closest_local, rot @ normal_local, dist


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


def nearest_grasp(obj: ObjectModel, q: np.ndarray,
                  point: np.ndarray) -> tuple[int, float]:
    """Index of the grasp point nearest to a world ``point`` at object
    configuration ``q``, and its distance; ties go to the lowest index."""
    best, best_d = 0, math.inf
    for i in range(len(obj.grasp_points)):
        gp, _ = grasp_point_world(obj, q, i)
        d = float(np.hypot(*(point - gp)))
        if d < best_d:
            best, best_d = i, d
    return best, best_d


def check_phase_transition(state: WorldState, obj: ObjectModel,
                           config: WorldConfig) -> WorldState:
    """Exploration ends when the proxy enters the interactable ball of any
    grasp point; the nearest one attaches (see :func:`nearest_grasp`)."""
    if state.phase != Phase.EXPLORATION or not config.two_phase:
        return state
    index, dist = nearest_grasp(obj, state.object_q, state.proxy_pos)
    if dist > config.interact_radius:
        return state
    out = state.copy()
    out.phase = Phase.INTERACTION
    out.attachment = index
    return out


def _clamp_action(action: ProxyAction, config: WorldConfig) -> tuple[np.ndarray, np.ndarray]:
    a_p = np.clip(np.asarray(action.desired_pos, dtype=float),
                  -config.arena_half, config.arena_half)
    a_f = np.clip(np.asarray(action.force, dtype=float),
                  -config.force_max, config.force_max)
    return a_p, a_f


def _object_free_dynamics(state: WorldState, obj: ObjectModel, config: WorldConfig,
                          gen_force: float | np.ndarray,
                          events: list) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the object's DOFs one step under a generalized force, then
    clamp each bounded coordinate to its limits."""
    dt = config.dt
    damping = config.object_damping + obj.friction
    q = state.object_q
    qd = state.object_qdot
    if obj.kind == FREE_BODY:
        m = obj.inertia
        lin_acc = (np.asarray(gen_force, dtype=float)
                   + m * np.asarray(config.gravity)
                   - damping * qd[:2]) / m
        # grasps are rigid and desk objects sit on a surface, so rotation only
        # ever decays; the viscous scale matches the linear one
        ang_acc = -(damping / m) * qd[2]
        qd_new = qd + dt * np.array([lin_acc[0], lin_acc[1], ang_acc])
        (xlo, xhi), (ylo, yhi) = obj.limits
        bounds = ((0, xlo, xhi), (1, ylo, yhi))
    else:
        # articulated: scalar joint
        acc = (float(gen_force) - damping * qd[0]) / obj.inertia
        qd_new = qd + dt * np.array([acc])
        lo, hi = obj.limits
        bounds = ((0, lo, hi),)
    q_new = q + dt * qd_new
    for axis, lo, hi in bounds:
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


def _generalized_force(obj: ObjectModel, at_point: np.ndarray,
                       force: np.ndarray) -> float | np.ndarray:
    """Map a world-frame force applied at a world point onto the object DOFs.

    Free bodies take the force directly (no induced spin, see
    _object_free_dynamics); prismatic joints project onto the axis; revolute
    joints take the scalar cross product with the pivot arm.
    """
    if obj.kind == PRISMATIC:
        return float(np.dot(np.asarray(obj.axis), force))
    if obj.kind == REVOLUTE:
        r = at_point - np.asarray(obj.origin)
        return float(r[0] * force[1] - r[1] * force[0])
    return force


def step(state: WorldState, action: ProxyAction, config: WorldConfig,
         task: TaskSpec) -> tuple[WorldState, list]:
    """Advance the world by one dt. Returns (next_state, events); events list
    phase transitions, joint-limit hits, and proxy-object contacts."""
    obj = task.object
    if not np.all(np.isfinite(state.proxy_pos)) or not np.all(np.isfinite(state.object_q)):
        raise FloatingPointError(
            f"non-finite state at step {state.time_step}: "
            f"proxy={state.proxy_pos}, q={state.object_q}")
    a_p, a_f = _clamp_action(action, config)
    events: list = []
    dt = config.dt
    nxt = state.copy()

    if state.phase == Phase.INTERACTION:
        gp_old, _ = grasp_point_world(obj, state.object_q, state.attachment)
        gen_force = _generalized_force(obj, gp_old, a_f)
        nxt.object_q, nxt.object_qdot = _object_free_dynamics(
            state, obj, config, gen_force, events)
        gp_new, _ = grasp_point_world(obj, nxt.object_q, state.attachment)
        nxt.proxy_pos = gp_new
        nxt.proxy_vel = (gp_new - state.proxy_pos) / dt
    else:
        # PD toward the desired position, then contact against the rectangle
        force = (config.pd_kp * (a_p - state.proxy_pos)
                 - config.pd_kd * state.proxy_vel
                 - config.proxy_damping * state.proxy_vel)
        vel = state.proxy_vel + dt * force / config.proxy_mass
        pos = state.proxy_pos + dt * vel

        center, theta = rect_center(obj, state.object_q)
        closest, normal, dist = closest_point_on_rect(pos, center, theta, obj.extents)
        in_contact = dist < config.proxy_radius
        if in_contact:
            pos = closest + normal * config.proxy_radius
            vn = float(np.dot(vel, normal))
            if vn < 0.0:
                vel = vel - vn * normal
            events.append(("contact",))
        nxt.proxy_pos = pos
        nxt.proxy_vel = vel

        gen_force: float | np.ndarray = np.zeros(2) if obj.kind == FREE_BODY else 0.0
        if not config.two_phase and in_contact:
            # flat-action ablation: intended force transmits while touching
            gen_force = _generalized_force(obj, closest, a_f)
        nxt.object_q, nxt.object_qdot = _object_free_dynamics(
            state, obj, config, gen_force, events)

    nxt.time_step = state.time_step + 1
    if nxt.phase == Phase.EXPLORATION and config.two_phase:
        after = check_phase_transition(nxt, obj, config)
        if after.phase == Phase.INTERACTION:
            events.append(("phase_transition", after.attachment))
            nxt = after
    if not np.all(np.isfinite(nxt.proxy_pos)) or not np.all(np.isfinite(nxt.object_q)):
        raise FloatingPointError(
            f"step produced non-finite state at t={nxt.time_step}: "
            f"proxy={nxt.proxy_pos}, vel={nxt.proxy_vel}, q={nxt.object_q}")
    return nxt, events


def observe(state: WorldState, obj: ObjectModel) -> np.ndarray:
    """Fixed 12-slot observation: proxy pos (2), proxy vel (2), object
    configuration (3, zero padded), object velocity (3, zero padded),
    phase flag, attachment flag."""
    out = np.zeros(OBS_DIM)
    out[0:2] = state.proxy_pos
    out[2:4] = state.proxy_vel
    nq = state.object_q.shape[0]
    out[4:4 + nq] = state.object_q
    out[7:7 + nq] = state.object_qdot
    out[OBS_PHASE_INDEX] = 1.0 if state.phase == Phase.INTERACTION else 0.0
    out[OBS_ATTACH_INDEX] = 0.0 if state.attachment is None else 1.0
    return out


def is_success(state: WorldState, task: TaskSpec) -> bool:
    if task.object.kind == FREE_BODY:
        err = np.hypot(state.object_q[0] - task.target_q[0],
                       state.object_q[1] - task.target_q[1])
        return bool(err <= task.tolerance)
    return bool(abs(state.object_q[0] - task.target_q[0]) <= task.tolerance)


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
        "proxy_pos": [float(v) for v in state.proxy_pos],
        "proxy_vel": [float(v) for v in state.proxy_vel],
        "object_q": [float(v) for v in state.object_q],
        "object_qdot": [float(v) for v in state.object_qdot],
        "phase": int(state.phase),
        "attachment": state.attachment,
        "obs": [float(v) for v in observe(state, obj)],
    }


def trajectory_record(task: TaskSpec, episode: Episode) -> dict:
    """An episode as the retargeting interchange document."""
    return {"task": task.name, "success": episode.success,
            "frames": [state_record(s, task.object) for s in episode.states],
            "events": [list(e) for events in episode.events for e in events]}


def kinetic_energy(state: WorldState, obj: ObjectModel, config: WorldConfig) -> float:
    ke = 0.5 * config.proxy_mass * float(np.dot(state.proxy_vel, state.proxy_vel))
    if obj.kind == FREE_BODY:
        ke += 0.5 * obj.inertia * float(np.dot(state.object_qdot[:2], state.object_qdot[:2]))
        ke += 0.5 * obj.rot_inertia * float(state.object_qdot[2] ** 2)
    else:
        ke += 0.5 * obj.inertia * float(state.object_qdot[0] ** 2)
    return ke


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


# JSON catalogue interchange -------------------------------------------------

def task_to_dict(task: TaskSpec) -> dict:
    obj = task.object
    return {
        "task_name": task.name,
        "object": {
            "kind": obj.kind,
            "extents": list(obj.extents),
            "origin": list(obj.origin),
            "axis": list(obj.axis) if obj.axis is not None else None,
            "limits": [list(l) for l in obj.limits] if obj.kind == FREE_BODY
                      else list(obj.limits),
            "inertia": obj.inertia,
            "friction": obj.friction,
            "grasp_points": [{"pos": list(g.position), "angle": g.angle}
                             for g in obj.grasp_points],
        },
        "start": {"proxy": list(task.proxy_start), "object": list(task.start_q)},
        "target": list(task.target_q),
        "tolerance": task.tolerance,
        "gravity": list(task.gravity),
    }


def task_from_dict(doc: dict) -> TaskSpec:
    o = doc["object"]
    kind = o["kind"]
    if kind == FREE_BODY:
        limits = tuple(tuple(l) for l in o["limits"])
    else:
        limits = tuple(o["limits"])
    obj = ObjectModel(
        kind=kind,
        extents=tuple(o["extents"]),
        origin=tuple(o["origin"]),
        axis=tuple(o["axis"]) if o.get("axis") is not None else None,
        limits=limits,
        inertia=float(o["inertia"]),
        friction=float(o["friction"]),
        grasp_points=tuple(GraspPoint(tuple(g["pos"]), float(g["angle"]))
                           for g in o["grasp_points"]),
    )
    return TaskSpec(
        name=doc["task_name"],
        object=obj,
        proxy_start=tuple(doc["start"]["proxy"]),
        start_q=tuple(doc["start"]["object"]),
        target_q=tuple(doc["target"]),
        tolerance=float(doc["tolerance"]),
        gravity=tuple(doc.get("gravity", (0.0, 0.0))),
    )


def save_catalogue(path, tasks: dict[str, TaskSpec]) -> None:
    doc = {"tasks": [task_to_dict(tasks[name]) for name in sorted(tasks)]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_catalogue(path) -> dict[str, TaskSpec]:
    with open(path) as fh:
        doc = json.load(fh)
    tasks = [task_from_dict(t) for t in doc["tasks"]]
    return {t.name: t for t in tasks}
