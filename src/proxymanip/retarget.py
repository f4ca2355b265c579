"""Retargeting proxy trajectories onto a planar serial arm.

Exploration frames map the proxy position straight onto the end effector
(orientation free); at the phase transition the end effector snaps to the
attached grasp pose; interaction frames then follow the grasp point as the
object moves, orientation constrained. One IK method per frame kind, both on
Python floats: a position-only target runs damped least squares, warm-started
frame to frame so the solution stays on one elbow branch; an
orientation-constrained target takes the in-limit closed-form branch nearest
the warm start, or raises ``InfeasiblePoseError`` naming the joint and how far
past its limit it would have to go. A frame's joint angles stay floats up to
its emitted row. A kinematic replay drives the object from the retargeted
end-effector trace to confirm the arm actually reproduces task success.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import env2d
from .env2d import PRISMATIC, REVOLUTE, ObjectModel, Phase, TaskSpec, WorldState
from .numcore import ConfigurationError, require

IK_POS_TOL = 1e-6
IK_ORI_TOL = 1e-4  # orientation tolerance of a retargeted frame
IK_MAX_ITERS = 500
IK_DAMPING = 1e-3
IK_STEP_CAP = 0.3
CONTINUITY_LIMIT = 0.2  # rad per joint between consecutive frames


class OutOfReachError(ValueError):
    """Target outside the arm's reachable annulus."""


class InfeasiblePoseError(OutOfReachError):
    """Orientation-constrained target with no joint-limited solution."""


class IkConvergenceError(RuntimeError):
    """Damped-least-squares iteration did not converge."""


@dataclass(frozen=True)
class ArmModel:
    """Planar serial arm with revolute joints, mounted at ``base_position``.

    The default mount, ``(-0.4, 0.25)``, sits up and to the left of the desk
    objects. It was chosen over the whole task catalogue, not one pose: of
    the mounts on a 5 cm grid that keep every frame of the six tasks' expert
    episodes (noise-free, and with start jitter and action noise) within
    reach and stay outside every object's swept footprint, it maximises the
    worst joint margin over every grasp pose those episodes demand. That
    margin is 0.526 rad (move-box), against a required 0.1 rad. From the
    earlier mount at ``(0.0, -0.45)`` the move-box, open-door and close-door
    grasp poses lie outside the joint-limited workspace.
    """

    base_position: tuple[float, float] = (-0.4, 0.25)
    link_lengths: tuple[float, ...] = (0.4, 0.4, 0.2)
    joint_limits: tuple[tuple[float, float], ...] = (
        (-2.967, 2.967), (-2.967, 2.967), (-2.967, 2.967))

    def __post_init__(self):
        if len(self.link_lengths) < 2:
            raise ConfigurationError("arm needs at least two links")
        if len(self.joint_limits) != len(self.link_lengths):
            raise ConfigurationError("one joint limit pair per link")
        require(all(0.0 < l < math.inf for l in self.link_lengths),
                "link_lengths", self.link_lengths, "finite and positive")
        require(len(self.base_position) == 2, "base_position",
                self.base_position, "2 values")
        require(all(map(math.isfinite, self.base_position)), "base_position",
                self.base_position, "finite")
        require(all(len(pair) == 2 for pair in self.joint_limits),
                "joint_limits", self.joint_limits, "pairs of 2 values")
        for lo, hi in self.joint_limits:
            require(math.isfinite(lo) and math.isfinite(hi), "joint_limits",
                    self.joint_limits, "finite")
            if not lo < hi:
                raise ConfigurationError("degenerate joint limits")

    @property
    def n_joints(self) -> int:
        return len(self.link_lengths)

    @cached_property
    def reach(self) -> float:
        return float(sum(self.link_lengths))

    @cached_property
    def inner_reach(self) -> float:
        longest = max(self.link_lengths)
        return max(0.0, 2.0 * longest - self.reach)


def default_arm() -> ArmModel:
    return ArmModel()


def wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _chain(arm: ArmModel, q: list[float]) -> tuple[float, float, float]:
    """End-effector x, y and orientation of joint angles ``q``."""
    x, y = arm.base_position
    for l, c in zip(arm.link_lengths, itertools.accumulate(q)):
        x += l * math.cos(c)
        y += l * math.sin(c)
    return x, y, c


def forward_kinematics(arm: ArmModel, joint_angles) -> tuple[np.ndarray, float]:
    """End-effector position and orientation of the planar chain."""
    q = np.asarray(joint_angles, dtype=float)
    if q.shape != (arm.n_joints,):
        raise ConfigurationError(
            f"expected {arm.n_joints} joint angles, got shape {q.shape}")
    x, y, ori = _chain(arm, q.tolist())
    return np.array([x, y], dtype=float), ori


def jacobian(arm: ArmModel, joint_angles) -> list[tuple[float, float]]:
    """Columns (dx/dq_j, dy/dq_j) of the end-effector position Jacobian."""
    links = [(l * math.sin(c), l * math.cos(c)) for l, c in
             zip(arm.link_lengths, itertools.accumulate(joint_angles))]
    cols = []
    for j in range(arm.n_joints):
        dx = dy = 0.0
        for sin_term, cos_term in links[j:]:
            dx -= sin_term
            dy += cos_term
        cols.append((dx, dy))
    return cols


def _dls_solve(arm: ArmModel, tx: float, ty: float, q0: list[float]):
    """One damped-least-squares descent; returns the solution or None, and
    the residual. Each step solves (J Jᵀ + λ²I) y = e by Cramer's rule."""
    limits = arm.joint_limits
    q = [min(max(a, lo), hi) for a, (lo, hi) in zip(q0, limits)]
    damping = IK_DAMPING * IK_DAMPING
    residual = math.inf
    for _ in range(IK_MAX_ITERS):
        x, y, _ = _chain(arm, q)
        ex, ey = tx - x, ty - y
        residual = math.hypot(ex, ey)
        if residual < IK_POS_TOL:
            return q, residual
        cols = jacobian(arm, q)
        gxx = sum(dx * dx for dx, _ in cols) + damping
        gxy = sum(dx * dy for dx, dy in cols)
        gyy = sum(dy * dy for _, dy in cols) + damping
        det = gxx * gyy - gxy * gxy
        y0 = (ex * gyy - gxy * ey) / det
        y1 = (gxx * ey - gxy * ex) / det
        dq = [dx * y0 + dy * y1 for dx, dy in cols]
        biggest = max(map(abs, dq))
        scale = IK_STEP_CAP / biggest if biggest > IK_STEP_CAP else 1.0
        q = [min(max(a + scale * s, lo), hi)
             for a, s, (lo, hi) in zip(q, dq, limits)]
    return None, residual


def _restart_guesses(arm: ArmModel, tx: float, ty: float):
    """Deterministic fallback seeds, made only when asked for: shoulder
    pointed at the target with the elbow folded either way."""
    heading = math.atan2(ty - arm.base_position[1], tx - arm.base_position[0])
    for elbow in (0.7, -0.7, 1.8, -1.8):
        yield [heading, elbow] + [0.0] * (arm.n_joints - 2)


def _nearest_equivalent(angle: float, lo: float, hi: float) -> float:
    """The 2*pi-equivalent of a revolute joint angle nearest to [lo, hi]."""
    a = lo + (angle - lo) % (2.0 * math.pi)
    below = a - 2.0 * math.pi
    return a if a <= hi or a - hi <= lo - below else below


def closed_form_solutions(arm: ArmModel, target_position,
                          target_orientation: float) -> list[tuple[float, ...]]:
    """Both elbow branches of an orientation-constrained three-link pose.

    The wrist sits one last-link length behind the target along the gripper
    direction; the two inner links reach it by the two-link law of cosines
    and the last joint takes up the remaining orientation. Each joint angle
    is the 2*pi-equivalent nearest its limits, which may still lie past them.
    Raises ``InfeasiblePoseError`` when the wrist is beyond the inner links.
    """
    if arm.n_joints != 3:
        raise ConfigurationError("closed-form solve needs a three-link arm")
    l1, l2, l3 = arm.link_lengths
    (lo1, hi1), (lo2, hi2), (lo3, hi3) = arm.joint_limits
    x, y, phi = (float(target_position[0]), float(target_position[1]),
                 float(target_orientation))
    wx = x - arm.base_position[0] - l3 * math.cos(phi)
    wy = y - arm.base_position[1] - l3 * math.sin(phi)
    r = math.hypot(wx, wy)
    if r > l1 + l2 + IK_POS_TOL or r < abs(l1 - l2) - IK_POS_TOL:
        raise InfeasiblePoseError(
            f"pose ({x:.4f}, {y:.4f}, {phi:.4f}) puts the wrist at distance "
            f"{r:.4f} from the base, outside the reach "
            f"[{abs(l1 - l2):.4f}, {l1 + l2:.4f}] of the two inner links")
    c2 = min(max((r * r - l1 * l1 - l2 * l2) / (2.0 * l1 * l2), -1.0), 1.0)
    solutions = []
    for q2 in (math.acos(c2), -math.acos(c2)):
        q1 = math.atan2(wy, wx) - math.atan2(l2 * math.sin(q2),
                                             l1 + l2 * math.cos(q2))
        solutions.append((_nearest_equivalent(q1, lo1, hi1),
                          _nearest_equivalent(q2, lo2, hi2),
                          _nearest_equivalent(phi - q1 - q2, lo3, hi3)))
    return solutions


def _overshoot_text(overshoot: float) -> str:
    """Three decimals, or two significant digits where three decimals would
    round a positive overshoot to 0.000."""
    text = f"{overshoot:.3f}"
    return text if float(text) else f"{overshoot:.1e}"


def feasibility_margin(arm: ArmModel, target_position,
                       target_orientation: float) -> float:
    """Worst joint margin of the best closed-form solution of a three-link
    orientation-constrained pose.

    Raises ``InfeasiblePoseError`` when no branch is within the joint limits,
    naming per elbow branch the joint (0 is the shoulder) that lies furthest
    past its limit, the angle it needs and the overshoot.
    """
    solutions = closed_form_solutions(arm, target_position, target_orientation)
    # signed clearance of each joint to its nearer limit, negative past it
    margins = [[min(a - lo, hi - a) for a, (lo, hi) in zip(q, arm.joint_limits)]
               for q in solutions]
    best = max(map(min, margins))
    if best >= 0.0:
        return best
    details = []
    for q, m in zip(solutions, margins):
        j = m.index(min(m))
        lo, hi = arm.joint_limits[j]
        details.append(f"joint {j} needs {q[j]:.3f} rad, "
                       f"{_overshoot_text(-m[j])} past "
                       f"limit {lo if q[j] < lo else hi:.3f}")
    raise InfeasiblePoseError(
        f"pose ({float(target_position[0]):.4f}, "
        f"{float(target_position[1]):.4f}, {float(target_orientation):.4f}) "
        f"outside the joint-limited workspace: " + "; ".join(details))


def inverse_kinematics(arm: ArmModel, target_position,
                       target_orientation: float | None = None,
                       initial_guess=None) -> np.ndarray:
    """Joint angles that put the end effector on ``target_position``, and,
    if given, at ``target_orientation``.

    One method per target kind. An orientation-constrained target (three-link
    arm only) returns the in-limit closed-form branch nearest the warm start
    by the largest joint change, or raises ``InfeasiblePoseError``. A
    position-only target runs damped least squares from the warm start, so a
    continuous target path stays on one elbow branch; deterministic restarts
    run only if it stalls.
    """
    tx, ty = (float(v) for v in target_position)
    if not (math.isfinite(tx) and math.isfinite(ty)):
        raise ConfigurationError(f"target position {[tx, ty]} is not finite")
    if target_orientation is not None and not math.isfinite(target_orientation):
        raise ConfigurationError(
            f"target orientation {target_orientation} is not finite")
    dist = math.hypot(tx - arm.base_position[0], ty - arm.base_position[1])
    if dist > arm.reach + 1e-9 or dist < arm.inner_reach - 1e-9:
        raise OutOfReachError(
            f"target {[tx, ty]} at distance {dist:.4f} outside "
            f"reach [{arm.inner_reach:.4f}, {arm.reach:.4f}]")
    q0 = ([0.0] * arm.n_joints if initial_guess is None
          else [float(v) for v in initial_guess])
    if len(q0) != arm.n_joints:
        raise ConfigurationError(
            f"expected {arm.n_joints} joint angles, got {len(q0)}")
    if not all(map(math.isfinite, q0)):
        raise ConfigurationError(f"initial guess {q0} is not finite")
    if target_orientation is not None:
        best = None
        for q in closed_form_solutions(arm, (tx, ty), target_orientation):
            jump = max(abs(a - g) for a, g in zip(q, q0))
            if (best is None or jump < best_jump) and all(  # ties: first wins
                    lo <= a <= hi for a, (lo, hi) in zip(q, arm.joint_limits)):
                best, best_jump = q, jump
        if best is None:  # no branch within the limits; this names the joints
            feasibility_margin(arm, (tx, ty), target_orientation)
        return np.array(best)
    best_residual = math.inf
    for guess in itertools.chain([q0], _restart_guesses(arm, tx, ty)):
        q, residual = _dls_solve(arm, tx, ty, guess)
        if q is not None:
            return np.array(q)
        best_residual = min(best_residual, residual)
    raise IkConvergenceError(
        f"no convergence in {IK_MAX_ITERS} iterations from any start; "
        f"best position residual {best_residual:.3e}")


# ---------------------------------------------------------------------------
# Trajectory retargeting
# ---------------------------------------------------------------------------

@dataclass
class RetargetedTrajectory:
    task_name: str
    joint_angles: list[np.ndarray]
    phase_markers: list[int]          # output indices of snap frames
    frames: list[dict]                # interchange rows
    events: list = field(default_factory=list)

    @property
    def n_frames(self) -> int:
        return len(self.joint_angles)

    def discontinuities(self) -> list:
        return [e for e in self.events if e[0] == "discontinuity"]


def _frame_target(index: int, frame: dict, obj: ObjectModel):
    """IK target for recorded proxy frame ``index``, a position (x, y) and
    an orientation or None: the proxy position while exploring, the attached
    grasp pose from ``env2d.grasp_world`` while interacting. A non-finite
    ``proxy_pos`` or ``object_q`` raises ``ConfigurationError``."""
    for key in ("proxy_pos", "object_q"):
        if not all(map(math.isfinite, frame[key])):
            raise ConfigurationError(
                f"frame {index}: {key} {frame[key]} is not finite")
    if frame["phase"] == int(Phase.INTERACTION):
        attachment = frame["attachment"]
        if not (isinstance(attachment, int)
                and 0 <= attachment < len(obj.grasp_points)):
            raise ConfigurationError(
                f"frame {index}: interaction frame has attachment "
                f"{attachment!r}, not a grasp index in "
                f"[0, {len(obj.grasp_points)})")
        x, y, ang = env2d.grasp_world(
            obj, [float(v) for v in frame["object_q"]], attachment)
        return (x, y), wrap_angle(ang)
    x, y = frame["proxy_pos"]
    return (float(x), float(y)), None


def retarget_trajectory(traj: dict, arm: ArmModel,
                        obj: ObjectModel) -> RetargetedTrajectory:
    """Convert a recorded proxy trajectory to a joint-space arm trajectory.

    Frames follow the proxy directly while exploring; a snap frame with
    constrained orientation is inserted at the phase transition; interaction
    frames track the attached grasp point as the object moves. Joint jumps
    above the continuity limit are flagged (the intentional snap itself is
    exempt, it is already marked). One ``inverse_kinematics`` call per input
    frame, warm-started from the previous frame's joints as Python floats.
    """
    frames_in = traj["frames"]
    if not frames_in:
        raise ConfigurationError("empty trajectory")
    out = RetargetedTrajectory(traj.get("task", "unknown"), [], [], [])
    # start from a ready pose facing the first target, elbow down
    x0, y0 = (float(v) for v in frames_in[0]["proxy_pos"])
    guess = [math.atan2(y0 - arm.base_position[1], x0 - arm.base_position[0]),
             0.7] + [0.0] * (arm.n_joints - 2)
    last_phase = int(Phase.EXPLORATION)
    for idx, frame in enumerate(frames_in):
        phase = frame["phase"]
        target, orientation = _frame_target(idx, frame, obj)
        try:
            q = inverse_kinematics(arm, target, orientation, guess)
        except (OutOfReachError, IkConvergenceError) as exc:
            raise type(exc)(f"frame {idx}: {exc}") from exc
        joints = q.tolist()
        x, y, ori = _chain(arm, joints)
        ee_ori = None if orientation is None else ori
        object_qs = [list(frame["object_q"])]
        if phase == int(Phase.INTERACTION) and last_phase == int(Phase.EXPLORATION):
            # transition: a snap row aligns with the grasp pose before the
            # object is tracked; solved in closed form, both rows have one q
            out.phase_markers.append(len(out.joint_angles))
            object_qs.insert(0, None)
        elif out.joint_angles:
            jump = max(abs(a - b) for a, b in zip(joints, guess))
            if jump >= CONTINUITY_LIMIT:
                out.events.append(["discontinuity", len(out.joint_angles),
                                   round(jump, 6)])
        for object_q in object_qs:
            out.joint_angles.append(q)
            out.frames.append({"t": frame["t"], "proxy_pos": list(target),
                               "phase": 0 if orientation is None else 1,
                               "object_q": object_q, "joints": list(joints),
                               "ee_pose": [x, y, ee_ori]})
        guess = joints
        last_phase = phase
    return out


# ---------------------------------------------------------------------------
# Kinematic replay of a retargeted trajectory
# ---------------------------------------------------------------------------

def _object_q_from_ee(obj: ObjectModel, x: float, y: float, ee_ori: float,
                      attachment: int) -> list[float]:
    """Invert the grasp map: the object configuration that puts the
    attached grasp point at the end-effector pose (x, y, ``ee_ori``)."""
    gp = obj.grasp_points[attachment]
    if obj.kind == PRISMATIC:
        rx = x - obj.origin[0] - gp.position[0]
        ry = y - obj.origin[1] - gp.position[1]
        lo, hi = obj.limits
        return [min(max(obj.axis[0] * rx + obj.axis[1] * ry, lo), hi)]
    if obj.kind == REVOLUTE:
        base_ang = math.atan2(gp.position[1], gp.position[0])
        q = wrap_angle(math.atan2(y - obj.origin[1], x - obj.origin[0]) - base_ang)
        lo, hi = obj.limits
        return [min(max(q, lo), hi)]
    theta = ee_ori - gp.angle
    dx, dy = env2d.rotate(math.cos(theta), math.sin(theta), *gp.position)
    (xlo, xhi), (ylo, yhi) = obj.limits
    return [min(max(x - dx, xlo), xhi), min(max(y - dy, ylo), yhi), theta]


def replay_retargeted(retargeted: RetargetedTrajectory, task: TaskSpec,
                      arm: ArmModel) -> bool:
    """Drive the object from the retargeted arm motion alone and check task
    success: the end effector (the chain's pose at each row's joints) stands
    in for the proxy, and the attached object follows it through the grasp
    map, on Python floats through ``env2d``'s geometry."""
    obj = task.object
    q = [float(v) for v in task.start_q]
    attachment = None
    for i, row in enumerate(retargeted.frames):
        if len(row["joints"]) != arm.n_joints:
            raise ConfigurationError(
                f"row {i}: expected {arm.n_joints} joint angles, "
                f"got {len(row['joints'])}")
        if row["phase"] == 1:
            x, y, ori = _chain(arm, row["joints"])
            if attachment is None:
                attachment, _ = env2d.nearest_grasp(obj, q, x, y)
            q = _object_q_from_ee(obj, x, y, ori, attachment)
    final = WorldState(0, np.zeros(2), np.zeros(2), np.array(q),
                       np.zeros(len(q)), Phase.INTERACTION, attachment)
    return env2d.is_success(final, task)


# ---------------------------------------------------------------------------
# Arms as plain data
# ---------------------------------------------------------------------------

def arm_to_dict(arm: ArmModel) -> dict:
    return {
        "base_position": list(arm.base_position),
        "link_lengths": list(arm.link_lengths),
        "joint_limits": [list(l) for l in arm.joint_limits],
    }


def arm_from_dict(doc: dict) -> ArmModel:
    return ArmModel(
        base_position=tuple(doc["base_position"]),
        link_lengths=tuple(doc["link_lengths"]),
        joint_limits=tuple(tuple(l) for l in doc["joint_limits"]),
    )
