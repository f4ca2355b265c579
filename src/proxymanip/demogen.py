"""Scripted-expert demonstration generator.

Closed-loop experts solve each catalogued task by seeking the grasp point and
then driving the object toward its target. An expert computes on Python
floats, like ``env2d.step``; its seeded Gaussian action noise is drawn in
blocks of standard normals and scaled per step, with the values and the draw
order of per-step ``rng.normal`` calls. Rollouts are rendered into clips
(optionally without the agent glyph, the masked variant used for
representation pre-training), subsampled, and persisted as PGM frames plus
JSON metadata. Per-clip seeds derive from the master seed by splitmix, so a
dataset regenerates bitwise identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import env2d, render
from .env2d import (PRISMATIC, REVOLUTE, Episode, Phase, ProxyAction,
                    TaskSpec, WorldConfig, WorldState, clamp)
from .numcore import ConfigurationError, derive_seed, require
from .render import AGENT_STYLES, FrameImage, camera_spec

FRAME_SUBSAMPLE = 4
MIN_CLIP_FRAMES = 8
START_JITTER = 0.1
NOISE_BLOCK = 64           # noise rows drawn per standard_normal call
DEFAULT_CAMERA_CYCLE = ("front", "left", "right")


class ExpertFailure(RuntimeError):
    """An expert did not reach success within the horizon; the task or expert
    is misconfigured."""


def goal_marker(task: TaskSpec) -> tuple[float, float]:
    """World position (x, y) marking the task target in every rendered
    frame: the primary grasp point at the target configuration."""
    x, y, _ = env2d.grasp_world(task.object, [float(v) for v in task.target_q], 0)
    return x, y


def goal_state(task: TaskSpec) -> WorldState:
    """A world state with the object posed at the task target."""
    cfg = task.world_config()
    s = env2d.reset(cfg, task, seed=0)
    s.object_q = np.array(task.target_q, dtype=float)
    return s


# ---------------------------------------------------------------------------
# Scripted experts
# ---------------------------------------------------------------------------

def scripted_expert(task: TaskSpec):
    """Closed-loop expert policy for one task.

    Returns ``policy(state) -> ProxyAction``: PD-seek the grasp point during
    exploration, then push the object along its solution direction until the
    success predicate fires. The policy computes on Python floats through
    ``env2d``'s geometry and its ``clamp``, the float form of ``np.clip``,
    so its actions are bitwise those of the same formulas on 2-vectors.
    """
    obj = task.object
    target = [float(v) for v in task.target_q]
    gx, gy = (float(v) for v in task.gravity)
    grasp_choice: dict[str, int] = {}

    def policy(state: WorldState) -> ProxyAction:
        q = state.object_q.tolist()
        if state.phase == Phase.EXPLORATION:
            if "idx" not in grasp_choice:
                grasp_choice["idx"], _ = env2d.nearest_grasp(
                    obj, q, *state.proxy_pos.tolist())
            x, y, _ = env2d.grasp_world(obj, q, grasp_choice["idx"])
            return ProxyAction((x, y), (0.0, 0.0))
        if obj.kind == PRISMATIC:
            push = clamp(8.0 * (target[0] - q[0]), 6.0)
            return ProxyAction((0.0, 0.0), (obj.axis[0] * push, obj.axis[1] * push))
        if obj.kind == REVOLUTE:
            x, y, _ = env2d.grasp_world(obj, q, state.attachment)
            rx, ry = x - obj.origin[0], y - obj.origin[1]
            # np.hypot, not math.hypot: the two differ in the last bit on
            # about one argument pair in 200
            norm = max(float(np.hypot(rx, ry)), 1e-9)
            push = clamp(3.0 * (target[0] - q[0]), 5.0)
            return ProxyAction((0.0, 0.0), (-ry / norm * push, rx / norm * push))
        vx, vy = state.object_qdot.tolist()[:2]
        fx = 12.0 * (target[0] - q[0]) - 6.0 * vx - obj.inertia * gx
        fy = 12.0 * (target[1] - q[1]) - 6.0 * vy - obj.inertia * gy
        return ProxyAction((0.0, 0.0), (clamp(fx, 18.0), clamp(fy, 18.0)))

    return policy


def _check_noise_scale(noise_scale: float) -> None:
    require(math.isfinite(noise_scale) and noise_scale >= 0.0, "noise_scale",
            noise_scale, "finite and non-negative")


def run_expert_episode(task: TaskSpec, config: WorldConfig, seed: int,
                       noise_scale: float = 0.0) -> Episode:
    """Roll one expert episode, with seeded Gaussian noise on both action
    heads; raises ExpertFailure if the horizon runs out.

    Step ``k`` adds ``0.0 + s * z`` to each action coordinate, with ``z``
    from row ``k`` of standard-normal blocks of ``NOISE_BLOCK`` x 4 (position
    x, y, then force x, y) and ``s`` the head's scale. That is the value and
    the draw order of two ``rng.normal(0, s, 2)`` calls per step, without
    their per-call cost; rows left over when the episode ends are dropped.
    """
    _check_noise_scale(noise_scale)
    expert = scripted_expert(task)
    if noise_scale == 0.0:
        act = expert
    else:
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 1)))
        s_p = noise_scale * config.arena_half
        s_f = noise_scale * config.force_max
        rows: list[list[float]] = []

        def act(state: WorldState) -> ProxyAction:
            if not rows:
                rows.extend(reversed(rng.standard_normal((NOISE_BLOCK, 4)).tolist()))
            z0, z1, z2, z3 = rows.pop()
            action = expert(state)
            (px, py), (fx, fy) = action.desired_pos, action.force
            return ProxyAction((px + (0.0 + s_p * z0), py + (0.0 + s_p * z1)),
                               (fx + (0.0 + s_f * z2), fy + (0.0 + s_f * z3)))

    episode = env2d.run_episode(task, config, seed, act)
    if not episode.success:
        raise ExpertFailure(
            f"expert for {task.name!r} missed success in {config.episode_horizon} "
            f"steps (final q={episode.final_state.object_q})")
    return episode


# ---------------------------------------------------------------------------
# Clips and datasets
# ---------------------------------------------------------------------------

@dataclass
class Clip:
    clip_id: str
    task_name: str
    camera_id: str
    frames: list[FrameImage]
    states: list[dict]              # per-frame summaries, includes the obs vector
    actions: np.ndarray             # (n_c, 4); last row is zero padding
    success: bool

    @property
    def n_c(self) -> int:
        return len(self.frames)


@dataclass
class DemoDataset:
    clips: list[Clip]
    style: str
    seed: int
    index: dict[str, list[int]]     # task name -> clip positions

    @property
    def N(self) -> int:
        return len(self.clips)


def _action_row(state: WorldState, action: ProxyAction) -> list[float]:
    """Dataset action row (a_p then a_f): the head the state's phase uses,
    the other one zero."""
    if state.phase == Phase.EXPLORATION:
        return [*action.desired_pos, 0.0, 0.0]
    return [0.0, 0.0, *action.force]


def episode_to_clip(task: TaskSpec, record: Episode, clip_id: str,
                    camera_id: str, style: str) -> Clip:
    """Render an episode into a clip, keeping every ``FRAME_SUBSAMPLE``-th
    frame and always the final (success) frame."""
    keep = list(range(0, len(record.states), FRAME_SUBSAMPLE))
    if keep[-1] != len(record.states) - 1:
        keep.append(len(record.states) - 1)
    if len(keep) < MIN_CLIP_FRAMES:
        raise ConfigurationError(
            f"clip {clip_id} would have {len(keep)} frames; "
            f"expert episodes must yield at least {MIN_CLIP_FRAMES}")
    states = [record.states[t] for t in keep]
    frames = render.render_batch(states, task.object, camera_spec(camera_id),
                                 style, marker_pos=goal_marker(task))
    summaries, acts = [], []
    for t, st in zip(keep, states):
        summaries.append(env2d.state_record(st, task.object))
        if t < record.steps:
            acts.append(_action_row(st, record.actions[t]))
        else:
            acts.append([0.0] * 4)
    return Clip(clip_id, task.name, camera_id, frames, summaries,
                np.array(acts), record.success)


def generate_dataset(tasks: list[TaskSpec], clips_per_task: int,
                     noise_scale: float, style: str, seed: int,
                     cameras: tuple[str, ...] = DEFAULT_CAMERA_CYCLE,
                     start_jitter: float = START_JITTER,
                     out_dir: str | Path | None = None) -> DemoDataset:
    """Expert clips for every task, with seeded action noise and jittered
    start poses. Deterministic for a fixed seed; optionally persisted."""
    if style not in AGENT_STYLES:
        raise ConfigurationError(f"unknown agent style {style!r}")
    require(clips_per_task >= 1, "clips_per_task", clips_per_task, "at least 1")
    _check_noise_scale(noise_scale)
    if not cameras:
        raise ConfigurationError(
            f"cameras must name at least one camera, got {cameras}")
    for camera_id in cameras:
        camera_spec(camera_id)
    clips: list[Clip] = []
    index: dict[str, list[int]] = {}
    for ti, task in enumerate(tasks):
        cfg = task.world_config(start_jitter=start_jitter)
        for ci in range(clips_per_task):
            clip_seed = derive_seed(seed, ti, ci)
            record = run_expert_episode(task, cfg, clip_seed, noise_scale)
            clip_id = f"{task.name}_{ci:04d}"
            camera_id = cameras[ci % len(cameras)]
            clip = episode_to_clip(task, record, clip_id, camera_id, style)
            index.setdefault(task.name, []).append(len(clips))
            clips.append(clip)
    dataset = DemoDataset(clips, style, seed, index)
    if out_dir is not None:
        save_dataset(dataset, out_dir)
    return dataset


def save_dataset(dataset: DemoDataset, root: str | Path) -> None:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    meta = {
        "style": dataset.style,
        "seed": dataset.seed,
        "tasks": sorted(dataset.index),
        "clip_ids": [c.clip_id for c in dataset.clips],
    }
    with open(root / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for clip in dataset.clips:
        cdir = root / f"clip_{clip.clip_id}"
        cdir.mkdir(exist_ok=True)
        cmeta = {
            "task": clip.task_name,
            "camera": clip.camera_id,
            "n_c": clip.n_c,
            "success": clip.success,
            "states": clip.states,
            "actions": [[float(v) for v in row] for row in clip.actions],
        }
        with open(cdir / "meta.json", "w") as fh:
            json.dump(cmeta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for i, frame in enumerate(clip.frames):
            render.write_pgm(cdir / render.frame_filename(i), frame.pixels)


def _read_meta(path: Path, keys: tuple[str, ...]) -> dict:
    with open(path) as fh:
        meta = json.load(fh)
    missing = [key for key in keys if key not in meta]
    if missing:
        raise ConfigurationError(f"{path}: lacks keys {missing}")
    return meta


def load_dataset(root: str | Path) -> DemoDataset:
    """Read back what ``save_dataset`` wrote. A meta file that lacks a key,
    or a clip whose states or actions do not number its ``n_c`` frames,
    raises ``ConfigurationError`` naming the file."""
    root = Path(root)
    meta = _read_meta(root / "meta.json", ("style", "seed", "clip_ids"))
    clips: list[Clip] = []
    index: dict[str, list[int]] = {}
    for clip_id in meta["clip_ids"]:
        cdir = root / f"clip_{clip_id}"
        path = cdir / "meta.json"
        cmeta = _read_meta(path, ("task", "camera", "n_c", "success", "states",
                                  "actions"))
        for key in ("states", "actions"):
            if len(cmeta[key]) != cmeta["n_c"]:
                raise ConfigurationError(
                    f"{path}: {key} has {len(cmeta[key])} rows, expected "
                    f"n_c = {cmeta['n_c']}")
        spec = camera_spec(cmeta["camera"])
        frames = [FrameImage(spec, render.read_pgm(cdir / render.frame_filename(i)))
                  for i in range(cmeta["n_c"])]
        clip = Clip(clip_id, cmeta["task"], cmeta["camera"], frames,
                    cmeta["states"], np.array(cmeta["actions"]), cmeta["success"])
        index.setdefault(clip.task_name, []).append(len(clips))
        clips.append(clip)
    return DemoDataset(clips, meta["style"], meta["seed"], index)


# ---------------------------------------------------------------------------
# Time-contrastive sampling
# ---------------------------------------------------------------------------

class TcnBatch(NamedTuple):
    """A batch of B time-contrastive samples as (B,) int arrays: sample ``r``
    is frames ``i[r] < j[r] < k[r]`` of clip ``clip_index[r]`` and frame
    ``l[r]`` of the other clip ``neg_clip_index[r]``."""

    clip_index: np.ndarray
    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    neg_clip_index: np.ndarray
    l: np.ndarray


def sample_tcn_batch(dataset: DemoDataset, batch_size: int,
                     seed: int) -> TcnBatch:
    """Temporally ordered triplets plus one cross-clip negative per sample,
    drawn for the whole batch in six array calls of one seeded generator.

    The anchor clip is uniform among clips with at least 3 frames. Its
    frames i < j < k are a uniform 3-subset of the clip's ``n`` frames by
    Floyd's algorithm, one column at a time: ``a`` is uniform on
    ``[0, n - 3]``; ``b`` is uniform on ``[0, n - 2]``, replaced by
    ``n - 2`` if it equals ``a``; ``c`` is uniform on ``[0, n - 1]``,
    replaced by ``n - 1`` if it equals ``a`` or ``b``. Each step keeps every
    subset of its range equally likely, so the sorted row is uniform over
    the ``C(n, 3)`` subsets. The negative clip is ``ni + (ni >= ci)`` with
    ``ni`` uniform over ``N - 1`` values, which is uniform over the clips
    other than the anchor ``ci``; its frame is uniform over that clip.
    """
    require(batch_size >= 1, "batch_size", batch_size, "at least 1")
    if dataset.N < 2:
        raise ConfigurationError("need at least two clips for negatives")
    n_c = np.array([c.n_c for c in dataset.clips])
    eligible = np.flatnonzero(n_c >= 3)
    if not eligible.size:
        raise ConfigurationError("no clip has 3 or more frames")
    rng = np.random.Generator(np.random.PCG64(seed))
    ci = eligible[rng.integers(eligible.size, size=batch_size)]
    n = n_c[ci]
    a = rng.integers(0, n - 2)
    b = rng.integers(0, n - 1)
    b = np.where(b == a, n - 2, b)
    c = rng.integers(0, n)
    c = np.where((c == a) | (c == b), n - 1, c)
    i, j, k = np.sort(np.stack([a, b, c]), axis=0)
    ni = rng.integers(dataset.N - 1, size=batch_size)
    ni += ni >= ci
    return TcnBatch(ci, i, j, k, ni, rng.integers(0, n_c[ni]))
