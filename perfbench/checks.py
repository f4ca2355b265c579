"""Correctness checks on the program's outputs.

Every check recomputes what it compares against on its own (forward passes,
Gaussian densities, grasp poses, forward kinematics, task tolerances) or
tests a property the method must have; none compares against stored output.
Each check returns a list of error strings, empty when the output is right.
"""

from __future__ import annotations

import math
import time

import numpy as np

from proxymanip import env2d, render, skillrl

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_ACTIVATIONS = {"tanh": np.tanh, "relu": lambda u: np.maximum(u, 0.0),
                "identity": lambda u: u}


# ---------------------------------------------------------------------------
# Reference computations
# ---------------------------------------------------------------------------

def mlp_forward(weights, biases, activations, x: np.ndarray) -> np.ndarray:
    h = np.asarray(x, dtype=np.float64)
    for w, b, act in zip(weights, biases, activations):
        h = _ACTIVATIONS[act](np.einsum("ni,io->no", h, w) + b)
    return h


def pooled_pixels(frames) -> np.ndarray:
    """2x2 mean pool of each frame, scaled to [0, 1], one row per frame."""
    rows = []
    for f in frames:
        p = f.pixels.astype(np.float64)
        pooled = (p[0::2, 0::2] + p[0::2, 1::2] + p[1::2, 0::2] + p[1::2, 1::2]) / 4.0
        rows.append(pooled.reshape(-1) / 255.0)
    return np.array(rows)


def meets_tolerance(task: env2d.TaskSpec, object_q) -> bool:
    q = [float(v) for v in object_q]
    if task.object.kind == env2d.FREE_BODY:
        return math.hypot(q[0] - task.target_q[0], q[1] - task.target_q[1]) <= task.tolerance
    return abs(q[0] - task.target_q[0]) <= task.tolerance


def grasp_pose(obj: env2d.ObjectModel, q, index: int) -> tuple[float, float, float]:
    """World position and gripper angle of a grasp point."""
    gx, gy = obj.grasp_points[index].position
    angle = obj.grasp_points[index].angle
    if obj.kind == env2d.PRISMATIC:
        return (obj.origin[0] + obj.axis[0] * q[0] + gx,
                obj.origin[1] + obj.axis[1] * q[0] + gy, angle)
    if obj.kind == env2d.REVOLUTE:
        ox, oy, theta = obj.origin[0], obj.origin[1], q[0]
    else:
        ox, oy, theta = q[0], q[1], q[2]
    c, s = math.cos(theta), math.sin(theta)
    return ox + c * gx - s * gy, oy + s * gx + c * gy, angle + theta


def arm_fk(arm, joints) -> tuple[float, float, float]:
    x, y = arm.base_position
    heading = 0.0
    for length, q in zip(arm.link_lengths, joints):
        heading += q
        x += length * math.cos(heading)
        y += length * math.sin(heading)
    return x, y, heading


def _angle_diff(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


# ---------------------------------------------------------------------------
# Skill training
# ---------------------------------------------------------------------------

def rollout_batch(policy, task: env2d.TaskSpec, batch: dict) -> list[str]:
    """Action heads, log-probs and the resting object, on one rollout batch
    collected by ``policy``."""
    errors = []
    obs, actions = batch["obs"], batch["actions"]
    phase = obs[:, env2d.OBS_PHASE_INDEX]
    if not np.all((phase == 0.0) | (phase == 1.0)):
        errors.append("phase flag outside {0, 1}")
    exploring = phase == 0.0
    active = np.zeros(actions.shape, dtype=bool)
    active[exploring, 0:2] = True
    active[~exploring, 2:4] = True
    if not np.array_equal(batch["masks"], active):
        errors.append(f"{int((batch['masks'] != active).any(axis=1).sum())} rows "
                      "with a head mask other than their phase's")
    if np.any(actions[~active] != 0.0):
        errors.append(f"{int((actions[~active] != 0.0).sum())} inactive action "
                      "dimensions are not 0")

    net = policy.actor
    means = np.tanh(mlp_forward(net.weights, net.biases, net.activations, obs))
    means = means * policy.action_scales
    std = np.exp(policy.log_std)
    per_dim = -0.5 * ((actions - means) / std) ** 2 - np.log(std) - _HALF_LOG_2PI
    logp = np.where(active, per_dim, 0.0).sum(axis=1)
    bad = np.abs(logp - batch["log_probs"]) > 1e-9 * (1.0 + np.abs(logp))
    if bad.any():
        worst = float(np.abs(logp - batch["log_probs"]).max())
        errors.append(f"{int(bad.sum())} log-probs differ from the Gaussian "
                      f"density (worst by {worst:.3e})")

    # no force reaches the object while exploring, so an exploring row still
    # holds the start pose, bit for bit, at rest
    nq = len(task.start_q)
    start = np.array(task.start_q, dtype=np.float64).view(np.uint64)
    q = np.ascontiguousarray(obs[exploring, 4:4 + nq]).view(np.uint64)
    qdot = obs[exploring, 7:7 + nq]
    moved = (q != start).any(axis=1) | (qdot != 0.0).any(axis=1)
    if moved.any():
        errors.append(f"object pose changed on {int(moved.sum())} exploration steps")
    return errors


def masked_frames(frames) -> list[str]:
    """A reward frame shows no agent: no pixel at agent intensity."""
    pixels = np.stack([f.pixels for f in frames])
    hits = int((pixels == render.INTENSITY_AGENT).sum())
    return [f"{hits} reward-frame pixels at agent intensity"] if hits else []


def reported_success(task: env2d.TaskSpec, state) -> list[str]:
    if meets_tolerance(task, state.object_q):
        return []
    return [f"{task.name}: success reported at object_q={state.object_q.tolist()}, "
            f"outside tolerance {task.tolerance} of {list(task.target_q)}"]


def final_state(policy, curve: list[dict], budget: int) -> list[str]:
    errors = []
    steps = curve[-1]["env_steps"] if curve else 0
    if steps != budget:
        errors.append(f"training stopped at {steps} env steps, budget {budget}")
    if not all(np.all(np.isfinite(p)) for p in policy.parameters()):
        errors.append("non-finite policy parameters")
    ls = policy.log_std
    if np.any(ls < skillrl.LOG_STD_MIN) or np.any(ls > skillrl.LOG_STD_MAX):
        errors.append(f"log_std {ls.tolist()} outside "
                      f"[{skillrl.LOG_STD_MIN}, {skillrl.LOG_STD_MAX}]")
    return errors


# ---------------------------------------------------------------------------
# Offline stages
# ---------------------------------------------------------------------------

def demos(tasks: dict, generated, loaded) -> list[str]:
    """Each clip ends inside its task tolerance, and the dataset read back
    equals the one generated, pixel for pixel and state for state."""
    errors = []
    for clip in generated.clips:
        if not meets_tolerance(tasks[clip.task_name], clip.states[-1]["object_q"]):
            errors.append(f"clip {clip.clip_id} ends outside its task tolerance")
    if (loaded.style, loaded.seed, loaded.index) != (generated.style, generated.seed,
                                                     generated.index):
        errors.append("reloaded dataset header differs")
    if len(loaded.clips) != len(generated.clips):
        return errors + [f"reloaded {len(loaded.clips)} clips of {len(generated.clips)}"]
    for a, b in zip(generated.clips, loaded.clips):
        same = ((a.clip_id, a.task_name, a.camera_id, a.success, a.n_c)
                == (b.clip_id, b.task_name, b.camera_id, b.success, b.n_c)
                and all(fa.pixels.dtype == fb.pixels.dtype
                        and np.array_equal(fa.pixels, fb.pixels)
                        and fa.spec == fb.spec
                        for fa, fb in zip(a.frames, b.frames))
                and a.states == b.states
                and np.array_equal(a.actions, b.actions))
        if not same:
            errors.append(f"clip {a.clip_id} differs after reload")
    return errors


def encoder(log: list[dict], trained, reloaded, frames) -> list[str]:
    """The loss falls, and the checkpoint holds the trained weights to
    float32 precision."""
    errors = []
    losses = [row["total"] for row in log]
    k = max(1, len(losses) // 10)
    first, last = float(np.mean(losses[:k])), float(np.mean(losses[-k:]))
    if not last < first:
        errors.append(f"encoder loss did not fall: first tenth {first:.4f}, "
                      f"last tenth {last:.4f}")
    a, b = trained.net, reloaded.net
    for i, (p, q) in enumerate(zip(a.parameters(), b.parameters())):
        if not np.array_equal(p.astype(np.float32).astype(np.float64), q):
            errors.append(f"checkpoint parameter {i} is not the float32 rounding "
                          "of the trained one")
    x = pooled_pixels(frames)
    z = mlp_forward(a.weights, a.biases, a.activations, x)
    z_back = mlp_forward(b.weights, b.biases, b.activations, x)
    err = float(np.abs(z - z_back).max())
    if err > 1e-5 * (1.0 + float(np.abs(z).max())):
        errors.append(f"reloaded encoder embeds {err:.3e} away from the trained one")
    return errors


def expected_targets(traj: dict, obj) -> list[tuple]:
    """IK target of every output frame: the proxy while exploring, the
    attached grasp pose while interacting, and the snap frame inserted
    before the first interaction frame."""
    targets = []
    last = 0
    for frame in traj["frames"]:
        if frame["phase"] == 1:
            pose = grasp_pose(obj, frame["object_q"], frame["attachment"])
            if last == 0:
                targets.append(pose)
            targets.append(pose)
        else:
            targets.append((frame["proxy_pos"][0], frame["proxy_pos"][1], None))
        last = frame["phase"]
    return targets


def retargeted(traj: dict, out, arm, obj, replay_ok: bool,
               pos_tol: float, ori_tol: float) -> list[str]:
    """Forward kinematics put every frame on its target; joints stay within
    limits; replay succeeds; no discontinuity is flagged."""
    name = traj["task"]
    errors = []
    targets = expected_targets(traj, obj)
    if len(targets) != out.n_frames:
        return [f"{name}: {out.n_frames} retargeted frames for {len(targets)} targets"]
    off_pos = off_ori = out_of_limits = 0
    for q, (tx, ty, tphi) in zip(out.joint_angles, targets):
        x, y, phi = arm_fk(arm, q)
        if math.hypot(x - tx, y - ty) > pos_tol:
            off_pos += 1
        if tphi is not None and _angle_diff(phi, tphi) > ori_tol:
            off_ori += 1
        if any(not lo <= v <= hi for v, (lo, hi) in zip(q, arm.joint_limits)):
            out_of_limits += 1
    if off_pos:
        errors.append(f"{name}: {off_pos} frames off their target position")
    if off_ori:
        errors.append(f"{name}: {off_ori} frames off their target orientation")
    if out_of_limits:
        errors.append(f"{name}: {out_of_limits} frames outside the joint limits")
    if not replay_ok:
        errors.append(f"{name}: replay of the retargeted trajectory failed")
    if out.discontinuities():
        errors.append(f"{name}: discontinuities {out.discontinuities()}")
    return errors


# ---------------------------------------------------------------------------
# Checks on calls made inside the program
# ---------------------------------------------------------------------------

class Checker:
    """Checks outputs that only exist inside a training call: it wraps the
    functions that carry them, records errors and failed operations, and
    keeps its own time so stage timers can leave it out."""

    def __init__(self):
        self.errors: list[str] = []
        self.failed_ops = 0
        self.seconds = 0.0
        self.eval_steps = 0

    def record(self, errors: list[str], ops: int = 1) -> None:
        if errors:
            self.errors.extend(errors)
            self.failed_ops += ops

    def _timed(self, fn, *args) -> None:
        t0 = time.perf_counter()
        self.record(fn(*args))
        self.seconds += time.perf_counter() - t0

    def points(self):
        """(module, attribute, wrapper factory) of every checked call."""

        def rollouts(fn):
            def checked(policy, slots, *rest):
                batch = fn(policy, slots, *rest)
                self._timed(rollout_batch, policy, slots[0].task, batch)
                return batch
            return checked

        def embedding(fn):
            def checked(encoder, frames):
                self._timed(masked_frames, frames if isinstance(frames, list) else [frames])
                return fn(encoder, frames)
            return checked

        def success(fn):
            def checked(state, task):
                ok = fn(state, task)
                if ok:
                    self._timed(reported_success, task, state)
                return ok
            return checked

        def episode(fn):
            def checked(policy, task, *rest, **kwargs):
                res = fn(policy, task, *rest, **kwargs)
                self.eval_steps += res.steps
                if res.success:
                    self._timed(reported_success, task, res.final_state)
                return res
            return checked

        return [
            (skillrl, "collect_rollouts", rollouts),
            (skillrl, "embed_batch", embedding),
            (skillrl, "embed", embedding),
            (env2d, "is_success", success),
            (skillrl, "run_policy_episode", episode),
        ]
