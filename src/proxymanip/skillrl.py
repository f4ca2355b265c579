"""Goal-conditioned skill learning over the two-phase proxy action space.

The policy is one actor network with phase-routed Gaussian heads (desired
position during exploration, intended force during interaction; the phase flag
sits in the observation) plus a critic. Rewards come from the frozen visual
encoder: similarity of the current agent-masked frame to the goal image,
shaped so that improving on the start state is boosted and regressions are
penalized gently. Every goal similarity, of reward frames, baselines and
expert clips alike, comes from ``goal_similarities``, which embeds each
distinct frame (its pixel bytes) once. A rollout forms its rewards in one
pass after its step loop and renders each distinct object pose once.
Optimization is clipped-surrogate PPO with generalized advantage
estimation, all gradients written out by hand. Advantage-weighted
regression over expert clips, weighted by goal progress, is the imitation path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import env2d, numcore, render
from .demogen import Clip, goal_marker, goal_state
from .env2d import (OBS_PHASE_INDEX, ProxyAction, TaskSpec, WorldConfig,
                    WorldState)
from .numcore import (AdamState, ConfigurationError, MlpNetwork, adam_init,
                      adam_step, backward_batch, clip_by_global_norm,
                      derive_seed, forward_batch, init_mlp, require)
from .render import FrameImage, camera_spec
from .reprlearn import Encoder, embed, embed_batch, similarity

OBS_DIM = env2d.OBS_DIM
ACTION_DIM = 4
ACTOR_LAYERS = [OBS_DIM, 64, 64, ACTION_DIM]
CRITIC_LAYERS = [OBS_DIM, 64, 64, 1]
HIDDEN_ACTIVATIONS = ["tanh", "tanh", "identity"]
LOG_STD_MIN, LOG_STD_MAX = -5.0, 1.0
LOG_STD_INIT = (-0.7, -0.7, 1.0, 1.0)
ACTION_SCALES = np.array([1.0, 1.0, 20.0, 20.0])  # position, then force bounds
ACTION_SCALES.flags.writeable = False

ROUTING_TWO_PHASE = "two_phase"
ROUTING_FLAT = "flat"
# the action dimensions each routing activates, one row per phase flag
# (exploration, interaction): two-phase routes position, then force
HEAD_MASKS = {
    ROUTING_TWO_PHASE: np.array([[True, True, False, False],
                                 [False, False, True, True]]),
    ROUTING_FLAT: np.ones((2, ACTION_DIM), dtype=bool),
}

GAMMA = 0.99
GAE_LAMBDA = 0.95
CLIP_RATIO = 0.2
PPO_LR = 3e-4
VALUE_LOSS_COEF = 0.5
ENTROPY_COEF = 0.01
GRAD_CLIP_NORM = 0.5
AWR_LR = 1e-3

# shaped_reward_value amplifies gains beyond the start-goal baseline by
# REWARD_ALPHA and pays nothing on a baseline below BETA_FLOOR in magnitude;
# a step that succeeds adds TERMINAL_BONUS
REWARD_ALPHA = 3.0
BETA_FLOOR = 1e-6
TERMINAL_BONUS = 10.0

# poses per render_batch call in the reward pass: large enough to spread the
# renderer's fixed cost per call, small enough to keep few frames alive
REWARD_CHUNK = 64

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Reward
# ---------------------------------------------------------------------------

def shaped_reward_value(s_t: float, beta: float) -> float:
    """Boosted-progress reward from a similarity value and the start-goal
    baseline. Zero at the baseline; gains beyond it are amplified by
    ``REWARD_ALPHA``. The progress is scaled by |beta|: similarities are
    negative, and dividing by beta itself, as the published form reads,
    would reward regressions."""
    if abs(beta) < BETA_FLOOR:
        return 0.0
    delta = (s_t - beta) / abs(beta)
    boost = 1.0 + (REWARD_ALPHA if delta > 0 else 0.0)
    return float(math.exp(boost * delta) - 1.0)


def make_goal(task: TaskSpec, camera_id: str, encoder: Encoder) -> np.ndarray:
    """Embedding of the agent-masked render of the task's target state. The
    start-goal baseline belongs to each env slot, set at every reset."""
    spec = camera_spec(camera_id)
    frame = render.render(goal_state(task), task.object, spec, "none",
                          marker_pos=goal_marker(task))
    return embed(encoder, frame)


def goal_similarities(frames: list[FrameImage], encoder: Encoder,
                      goal: np.ndarray, by_pixels: dict[bytes, float]) -> list[float]:
    """Goal similarity of each frame. ``by_pixels`` maps the pixel bytes of
    every frame scored so far, a key exact for any render style, to its
    similarity; the distinct frames not in it are embedded in one
    ``embed_batch`` call and added."""
    keys = [frame.pixels.tobytes() for frame in frames]
    new = {key: frame for key, frame in zip(keys, frames) if key not in by_pixels}
    if new:
        z = embed_batch(encoder, list(new.values()))
        for key, z_k in zip(new, z):
            by_pixels[key] = similarity(z_k, goal)
    return [by_pixels[key] for key in keys]


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------

@dataclass
class PolicyCheckpoint:
    actor: MlpNetwork
    critic: MlpNetwork
    log_std: np.ndarray
    routing: str = ROUTING_TWO_PHASE

    @property
    def action_scales(self) -> np.ndarray:
        """The fixed bounds every policy's tanh means are scaled by."""
        return ACTION_SCALES

    def parameters(self) -> list[np.ndarray]:
        return self.actor.parameters() + self.critic.parameters() + [self.log_std]

    def copy(self) -> "PolicyCheckpoint":
        return PolicyCheckpoint(self.actor.copy(), self.critic.copy(),
                                self.log_std.copy(), self.routing)


def _check_routing(routing: str, where: str) -> None:
    if routing not in HEAD_MASKS:
        raise ConfigurationError(
            f"{where}: routing is {routing!r}, expected one of "
            f"{sorted(HEAD_MASKS)}")


def init_policy(seed: int, routing: str = ROUTING_TWO_PHASE) -> PolicyCheckpoint:
    _check_routing(routing, "init_policy")
    return PolicyCheckpoint(
        actor=init_mlp(ACTOR_LAYERS, HIDDEN_ACTIVATIONS, derive_seed(seed, 1)),
        critic=init_mlp(CRITIC_LAYERS, HIDDEN_ACTIVATIONS, derive_seed(seed, 2)),
        log_std=np.clip(np.array(LOG_STD_INIT), LOG_STD_MIN, LOG_STD_MAX),
        routing=routing,
    )


def head_mask(policy: PolicyCheckpoint, obs: np.ndarray) -> np.ndarray:
    """Which action dimensions the routing rule activates per observation."""
    interaction = np.atleast_2d(obs)[:, OBS_PHASE_INDEX] > 0.5
    return HEAD_MASKS[policy.routing][interaction.view(np.uint8)]


def action_means(policy: PolicyCheckpoint, obs: np.ndarray):
    """Tanh-squashed, bound-scaled action means plus the actor cache."""
    out, cache = forward_batch(policy.actor, np.atleast_2d(obs))
    squashed = np.tanh(out)
    return squashed * ACTION_SCALES, squashed, cache


def sample_actions(policy: PolicyCheckpoint, obs: np.ndarray,
                   rng: np.random.Generator):
    """Sample per-observation actions from the active Gaussian head.

    Returns (actions, log_probs, masks); inactive dimensions are zero.
    """
    means, _, _ = action_means(policy, obs)
    # log_std is kept inside [LOG_STD_MIN, LOG_STD_MAX] by projection after
    # every optimizer step, so no clamp is needed and the loss stays smooth
    std = np.exp(policy.log_std)
    mask = head_mask(policy, obs)
    noise = rng.standard_normal(means.shape)
    actions = np.where(mask, means + std * noise, 0.0)
    logp = gaussian_log_prob(actions, means, policy.log_std, mask)
    return actions, logp, mask


def gaussian_log_prob(actions, means, log_std, mask) -> np.ndarray:
    """Log-density of ``actions`` under the diagonal Gaussian heads, summed
    over the dimensions ``mask`` activates."""
    diff = (actions - means) / np.exp(log_std)
    per_dim = -0.5 * diff * diff - log_std - _HALF_LOG_2PI
    return np.where(mask, per_dim, 0.0).sum(axis=1)


def deterministic_action(policy: PolicyCheckpoint, obs: np.ndarray) -> ProxyAction:
    """The mean action of one observation, its inactive head at 0."""
    means, _, _ = action_means(policy, obs)
    active = HEAD_MASKS[policy.routing][int(obs[OBS_PHASE_INDEX] > 0.5)]
    px, py, fx, fy = [m if on else 0.0
                      for m, on in zip(means.tolist()[0], active.tolist())]
    return ProxyAction((px, py), (fx, fy))


def values(policy: PolicyCheckpoint, obs: np.ndarray) -> np.ndarray:
    v, _ = forward_batch(policy.critic, np.atleast_2d(obs))
    return v[:, 0]


# ---------------------------------------------------------------------------
# Generalized advantage estimation
# ---------------------------------------------------------------------------

def gae_advantages(rewards, values_with_bootstrap, dones, gamma: float,
                   lam: float):
    """Standard GAE recursion.

    ``rewards`` and ``dones`` are (T, n_envs) arrays; ``values_with_bootstrap``
    carries one extra trailing row: the value of the state after the last
    transition (ignored where ``dones`` is set). Returns (advantages, returns).
    """
    r = np.asarray(rewards, dtype=float)
    v = np.asarray(values_with_bootstrap, dtype=float)
    d = np.asarray(dones, dtype=float)
    if r.ndim != 2 or d.shape != r.shape or v.shape != (len(r) + 1, r.shape[1]):
        raise ConfigurationError(
            f"gae_advantages needs (T, n_envs) rewards and dones and (T + 1, "
            f"n_envs) values, got shapes {r.shape}, {d.shape} and {v.shape}")
    t_len = r.shape[0]
    adv = np.zeros_like(r)
    carry = np.zeros(r.shape[1])
    for t in range(t_len - 1, -1, -1):
        nonterminal = 1.0 - d[t]
        delta = r[t] + gamma * v[t + 1] * nonterminal - v[t]
        carry = delta + gamma * lam * nonterminal * carry
        adv[t] = carry
    return adv, adv + v[:-1]


# ---------------------------------------------------------------------------
# Rollout collection
# ---------------------------------------------------------------------------

@dataclass
class PpoConfig:
    epochs: int = 4
    minibatch_size: int = 256
    rollout_envs: int = 16
    horizon: int = 128
    total_env_steps: int = 600_000
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "minibatch_size", "rollout_envs", "horizon",
                     "total_env_steps"):
            value = getattr(self, name)
            require(value >= 1, name, value, "at least 1")


@dataclass
class SkillOptions:
    """Run-level switches around the core PPO loop."""
    camera: str = "front"
    two_phase: bool = True               # False: flat-action ablation
    start_jitter: float = 0.05
    episode_horizon: int = 400
    eval_every: int = 32768              # env steps between eval rounds
    eval_episodes: int = 20
    early_stop: bool = True

    def __post_init__(self):
        camera_spec(self.camera)
        for name in ("eval_every", "eval_episodes"):
            value = getattr(self, name)
            require(value >= 1, name, value, "at least 1")

    def world_config(self, task: TaskSpec) -> WorldConfig:
        return task.world_config(start_jitter=self.start_jitter,
                                 episode_horizon=self.episode_horizon,
                                 two_phase=self.two_phase)


@dataclass
class _EnvSlot:
    task: TaskSpec
    config: WorldConfig
    state: WorldState
    beta: float
    episode_index: int
    env_index: int
    master_seed: int
    episode_return: float = 0.0


def _masked_similarities(states: list[WorldState], task: TaskSpec, camera: str,
                         encoder: Encoder, goal: np.ndarray) -> list[float]:
    """Goal similarity of the agent-masked frame of each state, rendered
    ``REWARD_CHUNK`` states at a time and scored by ``goal_similarities``
    with one memo over all chunks."""
    spec, marker = camera_spec(camera), goal_marker(task)
    by_pixels: dict[bytes, float] = {}
    sims: list[float] = []
    for start in range(0, len(states), REWARD_CHUNK):
        frames = render.render_batch(states[start:start + REWARD_CHUNK],
                                     task.object, spec, "none", marker_pos=marker)
        sims += goal_similarities(frames, encoder, goal, by_pixels)
    return sims


def _reset_slot(slot: _EnvSlot) -> None:
    seed = derive_seed(slot.master_seed, slot.env_index, slot.episode_index)
    slot.state = env2d.reset(slot.config, slot.task, seed)


def make_env_slots(task: TaskSpec, options: SkillOptions, encoder: Encoder,
                   goal: np.ndarray, n_envs: int, seed: int) -> list[_EnvSlot]:
    cfg = options.world_config(task)
    slots = [_EnvSlot(task, cfg, None, 0.0, 0, e, seed)  # type: ignore[arg-type]
             for e in range(n_envs)]
    for slot in slots:
        _reset_slot(slot)
    betas = _masked_similarities([slot.state for slot in slots], task,
                                 options.camera, encoder, goal)
    for slot, beta in zip(slots, betas):
        slot.beta = beta
    return slots


def collect_rollouts(policy: PolicyCheckpoint, slots: list[_EnvSlot],
                     encoder: Encoder, goal: np.ndarray, ppo: PpoConfig,
                     options: SkillOptions, rng: np.random.Generator) -> dict:
    """Gather horizon x n_envs transitions.

    The step loop only steps, resets and records. Its rewards are formed
    after it, in one pass over the call. With the agent masked out, a
    reward frame depends only on the object pose, so poses are keyed by
    ``object_q.tobytes()``, and the first state to reach each distinct pose
    of the call is rendered, once. ``goal_similarities`` then embeds each
    distinct frame of the call once. A slot's episode return and baseline
    carry over to the next call.
    """
    n_envs = len(slots)
    # rows of the similarity table: row e < n_envs is the baseline slot e
    # carries into the call, row n_envs + k the k-th distinct pose reached,
    # drawn from pose_states[k]
    pose_rows: dict[bytes, int] = {}
    pose_states: list[WorldState] = []

    def pose_row(state: WorldState) -> int:
        key = state.object_q.tobytes()
        if key not in pose_rows:
            pose_rows[key] = n_envs + len(pose_states)
            pose_states.append(state)
        return pose_rows[key]

    obs_buf = np.zeros((ppo.horizon, n_envs, OBS_DIM))
    act_buf = np.zeros((ppo.horizon, n_envs, ACTION_DIM))
    mask_buf = np.zeros((ppo.horizon, n_envs, ACTION_DIM), dtype=bool)
    logp_buf = np.zeros((ppo.horizon, n_envs))
    done_buf = np.zeros((ppo.horizon, n_envs))
    val_buf = np.zeros((ppo.horizon + 1, n_envs))
    # per (t, e): the table rows of the post-step pose and of the baseline
    frame_rows = np.zeros((ppo.horizon, n_envs), dtype=np.intp)
    beta_rows = np.zeros((ppo.horizon, n_envs), dtype=np.intp)
    success_buf = np.zeros((ppo.horizon, n_envs), dtype=bool)
    slot_beta_rows = list(range(n_envs))

    for t in range(ppo.horizon):
        obs = np.stack([env2d.observe(s.state, s.task.object) for s in slots])
        actions, logp, mask = sample_actions(policy, obs, rng)
        val_buf[t] = values(policy, obs)
        obs_buf[t] = obs
        act_buf[t] = actions
        mask_buf[t] = mask
        logp_buf[t] = logp

        for e, (slot, (px, py, fx, fy)) in enumerate(zip(slots, actions.tolist())):
            slot.state, _ = env2d.step(slot.state, ProxyAction((px, py), (fx, fy)),
                                       slot.config, slot.task)
            frame_rows[t, e] = pose_row(slot.state)
            beta_rows[t, e] = slot_beta_rows[e]
            success = env2d.is_success(slot.state, slot.task)
            success_buf[t, e] = success
            if success or slot.state.time_step >= slot.config.episode_horizon:
                done_buf[t, e] = 1.0
                slot.episode_index += 1
                _reset_slot(slot)
                slot_beta_rows[e] = pose_row(slot.state)

    sims = [slot.beta for slot in slots] + _masked_similarities(
        pose_states, slots[0].task, options.camera, encoder, goal)
    rew_buf = np.zeros((ppo.horizon, n_envs))
    finished_returns: list[float] = []
    finished_successes: list[bool] = []
    for t, (rows, betas, successes, dones) in enumerate(zip(
            frame_rows.tolist(), beta_rows.tolist(), success_buf.tolist(),
            done_buf.tolist())):
        for e, slot in enumerate(slots):
            reward = shaped_reward_value(sims[rows[e]], sims[betas[e]])
            if successes[e]:
                reward += TERMINAL_BONUS
            rew_buf[t, e] = reward
            slot.episode_return += reward
            if dones[e]:
                finished_returns.append(slot.episode_return)
                finished_successes.append(successes[e])
                slot.episode_return = 0.0
    for slot, row in zip(slots, slot_beta_rows):
        slot.beta = sims[row]

    last_obs = np.stack([env2d.observe(s.state, s.task.object) for s in slots])
    val_buf[ppo.horizon] = values(policy, last_obs)
    adv, ret = gae_advantages(rew_buf, val_buf, done_buf, GAMMA, GAE_LAMBDA)
    flat = n_envs * ppo.horizon
    return {
        "obs": obs_buf.reshape(flat, OBS_DIM),
        "actions": act_buf.reshape(flat, ACTION_DIM),
        "masks": mask_buf.reshape(flat, ACTION_DIM),
        "log_probs": logp_buf.reshape(flat),
        "advantages": adv.reshape(flat),
        "returns": ret.reshape(flat),
        "episode_returns": finished_returns,
        "episode_successes": finished_successes,
    }


# ---------------------------------------------------------------------------
# PPO update
# ---------------------------------------------------------------------------

def _minibatch_loss_and_grads(policy: PolicyCheckpoint, obs, actions, masks,
                              logp_old, adv, ret):
    n = obs.shape[0]
    means, squashed, cache = action_means(policy, obs)
    logstd = policy.log_std
    std = np.exp(logstd)
    diff = (actions - means) / std
    logp = gaussian_log_prob(actions, means, logstd, masks)
    ratio = np.exp(logp - logp_old)

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - CLIP_RATIO, 1.0 + CLIP_RATIO) * adv
    surrogate = -np.minimum(unclipped, clipped).mean()
    active = unclipped <= clipped  # gradient flows through the unclipped branch
    dsurr_dlogp = np.where(active, -adv * ratio, 0.0) / n

    # entropy of the active head; constant in the means
    ent_per_dim = logstd + 0.5 + _HALF_LOG_2PI
    entropy = (masks * ent_per_dim).sum(axis=1).mean()

    v_out, v_cache = forward_batch(policy.critic, obs)
    v = v_out[:, 0]
    v_err = v - ret
    value_loss = float(np.mean(v_err * v_err))

    total = float(surrogate + VALUE_LOSS_COEF * value_loss
                  - ENTROPY_COEF * entropy)

    # actor gradients
    dlogp_dmean = np.where(masks, diff / std, 0.0)
    dmean_dout = (1.0 - squashed * squashed) * ACTION_SCALES
    actor_out_grad = dsurr_dlogp[:, None] * dlogp_dmean * dmean_dout
    actor_grads = backward_batch(policy.actor, cache, actor_out_grad)

    # log-std gradients; the [-5, 1] bound is enforced by projection later
    dlogp_dlogstd = np.where(masks, diff * diff - 1.0, 0.0)
    g_logstd = (dsurr_dlogp[:, None] * dlogp_dlogstd).sum(axis=0)
    g_logstd -= ENTROPY_COEF * masks.mean(axis=0)

    # critic gradients
    critic_out_grad = (VALUE_LOSS_COEF * 2.0 * v_err / n)[:, None]
    critic_grads = backward_batch(policy.critic, v_cache, critic_out_grad)

    grads = actor_grads + critic_grads + [g_logstd]
    stats = {
        "loss": total,
        "surrogate": float(surrogate),
        "value_loss": value_loss,
        "entropy": float(entropy),
        "clip_fraction": float(np.mean(~active)),
        "approx_kl": float(np.mean(logp_old - logp)),
    }
    return total, grads, stats


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    std = adv.std()
    if std < 1e-12:
        return adv - adv.mean()
    return (adv - adv.mean()) / std


def ppo_update(policy: PolicyCheckpoint, batch: dict, ppo: PpoConfig,
               adam: AdamState, rng: np.random.Generator) -> dict:
    """Epochs of clipped-surrogate minibatch updates over one rollout batch.

    Mutates the policy in place; non-finite minibatch losses skip that
    minibatch. Returns averaged stats.
    """
    n = batch["obs"].shape[0]
    adv = normalize_advantages(batch["advantages"])
    agg: dict[str, float] = {}
    count = 0
    skipped = 0
    for _ in range(ppo.epochs):
        order = rng.permutation(n)
        for start in range(0, n, ppo.minibatch_size):
            idx = order[start:start + ppo.minibatch_size]
            total, grads, stats = _minibatch_loss_and_grads(
                policy, batch["obs"][idx], batch["actions"][idx],
                batch["masks"][idx], batch["log_probs"][idx], adv[idx],
                batch["returns"][idx])
            if not np.isfinite(total):
                skipped += 1
                continue
            grads = clip_by_global_norm(grads, GRAD_CLIP_NORM)
            adam_step(adam, policy.parameters(), grads)
            np.clip(policy.log_std, LOG_STD_MIN, LOG_STD_MAX, out=policy.log_std)
            for k, v in stats.items():
                agg[k] = agg.get(k, 0.0) + v
            count += 1
    out = {k: v / max(count, 1) for k, v in agg.items()}
    out["minibatches"] = count
    out["skipped"] = skipped
    return out


# ---------------------------------------------------------------------------
# Episodes, evaluation, the training loop
# ---------------------------------------------------------------------------

def run_policy_episode(policy: PolicyCheckpoint, task: TaskSpec,
                       config: WorldConfig, seed: int) -> env2d.Episode:
    """One episode taking the deterministic mean action at every step."""
    def act(state: WorldState) -> ProxyAction:
        return deterministic_action(policy, env2d.observe(state, task.object))

    return env2d.run_episode(task, config, seed, act)


def evaluate_policy(policy: PolicyCheckpoint, task: TaskSpec,
                    config: WorldConfig, seed: int, episodes: int) -> float:
    require(episodes >= 1, "episodes", episodes, "at least 1")
    wins = 0
    for ep in range(episodes):
        res = run_policy_episode(policy, task, config,
                                 derive_seed(seed, 7000, ep))
        wins += int(res.success)
    return wins / episodes


def train_skill(task: TaskSpec, encoder: Encoder, ppo: PpoConfig,
                options: SkillOptions,
                out_dir: str | Path | None = None):
    """Collect/update loop to the env-step budget, tracking the best
    checkpoint by periodic deterministic evaluation.

    Returns (best policy, learning-curve rows).
    """
    goal = make_goal(task, options.camera, encoder)
    routing = ROUTING_TWO_PHASE if options.two_phase else ROUTING_FLAT
    policy = init_policy(ppo.seed, routing=routing)
    adam = adam_init(policy.parameters(), lr=PPO_LR)
    rng = np.random.Generator(np.random.PCG64(derive_seed(ppo.seed, 31)))
    slots = make_env_slots(task, options, encoder, goal,
                           ppo.rollout_envs, ppo.seed)
    eval_cfg = options.world_config(task)

    curve: list[dict] = []
    best = policy.copy()
    best_success = -1.0
    env_steps = 0
    next_eval = options.eval_every
    perfect_streak = 0
    recent_returns: list[float] = []

    while env_steps < ppo.total_env_steps:
        batch = collect_rollouts(policy, slots, encoder, goal, ppo, options, rng)
        env_steps += ppo.rollout_envs * ppo.horizon
        recent_returns.extend(batch["episode_returns"])
        ppo_update(policy, batch, ppo, adam, rng)

        if env_steps >= next_eval or env_steps >= ppo.total_env_steps:
            next_eval += options.eval_every
            success = evaluate_policy(policy, task, eval_cfg,
                                      derive_seed(ppo.seed, 47, env_steps),
                                      options.eval_episodes)
            mean_ret = float(np.mean(recent_returns)) if recent_returns else 0.0
            recent_returns.clear()
            curve.append({"env_steps": env_steps, "mean_return": mean_ret,
                          "eval_success": success})
            if success > best_success:
                best_success = success
                best = policy.copy()
            perfect_streak = perfect_streak + 1 if success >= 1.0 else 0
            if options.early_stop and perfect_streak >= 2:
                break

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_policy(out, best, seed=ppo.seed, step_count=env_steps)
        keys = ["env_steps", "mean_return", "eval_success"]
        numcore.write_run_log(out / "curve.csv", keys, keys, curve)
    return best, curve


def save_policy(out_dir, policy: PolicyCheckpoint, seed: int = 0,
                step_count: int = 0) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    numcore.save_checkpoint(out / "actor.ckpt", policy.actor, seed, step_count,
                            trailing=[("log_std", policy.log_std)])
    numcore.save_checkpoint(out / "critic.ckpt", policy.critic, seed, step_count)
    manifest = {
        "format_version": numcore.CHECKPOINT_FORMAT_VERSION,
        "routing": policy.routing,
        "obs_dim": OBS_DIM,
    }
    with open(out / "policy.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_policy(out_dir) -> PolicyCheckpoint:
    out = Path(out_dir)
    actor_path, critic_path = out / "actor.ckpt", out / "critic.ckpt"
    actor, _, trailing = numcore.load_checkpoint(actor_path)
    numcore.require_layers(actor_path, actor, ACTOR_LAYERS, HIDDEN_ACTIVATIONS)
    log_std = trailing.get("log_std")
    if log_std is None or log_std.size != ACTION_DIM:
        got = "missing" if log_std is None else f"{log_std.size} values"
        raise ConfigurationError(
            f"{actor_path}: log_std is {got}, expected {ACTION_DIM} values")
    # a NaN fails both comparisons
    if not np.all((log_std >= LOG_STD_MIN) & (log_std <= LOG_STD_MAX)):
        raise ConfigurationError(
            f"{actor_path}: log_std is {log_std.tolist()}, expected values in "
            f"[{LOG_STD_MIN}, {LOG_STD_MAX}]")
    critic, _, _ = numcore.load_checkpoint(critic_path)
    numcore.require_layers(critic_path, critic, CRITIC_LAYERS, HIDDEN_ACTIVATIONS)
    path = out / "policy.json"
    with open(path) as fh:
        manifest = json.load(fh)
    unknown = sorted(set(manifest) - {"format_version", "obs_dim", "routing"})
    if unknown:
        raise ConfigurationError(f"{path}: unknown manifest keys {unknown}")
    for name, expected in (("format_version", numcore.CHECKPOINT_FORMAT_VERSION),
                           ("obs_dim", OBS_DIM)):
        if manifest.get(name) != expected:
            raise ConfigurationError(
                f"{path}: {name} is {manifest.get(name)!r}, expected {expected}")
    _check_routing(manifest.get("routing"), str(path))
    return PolicyCheckpoint(actor, critic, log_std, manifest["routing"])


# ---------------------------------------------------------------------------
# Advantage-weighted regression imitation
# ---------------------------------------------------------------------------

def progress_weights(sims_now: np.ndarray, sims_next: np.ndarray,
                     temperature: float) -> np.ndarray:
    """Exponentiated goal-similarity improvement, clipped to [0, 20]."""
    require(temperature > 0, "temperature", temperature, "positive or inf")
    if math.isinf(temperature):
        return np.ones_like(np.asarray(sims_now, dtype=float))
    delta = (np.asarray(sims_next, dtype=float)
             - np.asarray(sims_now, dtype=float)) / temperature
    return np.clip(np.exp(delta), 0.0, 20.0)


def _awr_loss_and_grads(policy: PolicyCheckpoint, obs, actions, weights,
                        wsum: float):
    """Weighted squared error of the phase-active action means against the
    demo actions, ``sum(w * |mask * (mean - a)|^2) / wsum``, and its gradient
    with respect to the actor parameters."""
    mask = head_mask(policy, obs)
    means, squashed, cache = action_means(policy, obs)
    err = np.where(mask, means - actions, 0.0)
    loss = float((weights[:, None] * err * err).sum() / wsum)
    out_grad = (2.0 * weights[:, None] * err / wsum
                * (1.0 - squashed * squashed) * ACTION_SCALES)
    return loss, backward_batch(policy.actor, cache, out_grad)


def awr_fit(demos: list[Clip], encoder: Encoder, goal: np.ndarray,
            temperature: float, epochs: int, seed: int = 0,
            minibatch_size: int = 64) -> PolicyCheckpoint:
    """Weighted regression of the actor means onto demo actions.

    Transition t of a clip is weighted by the goal progress from its frame
    t to t + 1. ``temperature=inf`` gives uniform weights, i.e. plain
    behavior cloning. Only the phase-active action head is regressed.
    """
    if not demos:
        raise ConfigurationError("awr_fit needs at least one demo clip")
    require(epochs >= 0, "epochs", epochs, "at least 0")
    require(minibatch_size >= 1, "minibatch_size", minibatch_size, "at least 1")
    by_pixels: dict[bytes, float] = {}
    obs_rows, act_rows, w_rows = [], [], []
    for clip in demos:
        sims = np.array(goal_similarities(clip.frames, encoder, goal, by_pixels))
        w_rows.append(progress_weights(sims[:-1], sims[1:], temperature))
        obs_rows += [clip.states[t]["obs"] for t in range(clip.n_c - 1)]
        act_rows.append(clip.actions[:-1])
    obs = np.array(obs_rows, dtype=float)
    acts = np.concatenate(act_rows)
    weights = np.concatenate(w_rows)
    wsum = float(weights.sum())
    if wsum <= 0:
        raise ConfigurationError("all regression weights vanished")

    policy = init_policy(seed, routing=ROUTING_TWO_PHASE)
    adam = adam_init(policy.actor.parameters(), lr=AWR_LR)
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 77)))
    n = obs.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, minibatch_size):
            idx = order[start:start + minibatch_size]
            _, grads = _awr_loss_and_grads(policy, obs[idx], acts[idx],
                                           weights[idx], wsum)
            adam_step(adam, policy.actor.parameters(), grads)
    return policy
