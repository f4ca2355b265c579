"""Goal-conditioned skill learning over the two-phase proxy action space.

The policy is one actor network with phase-routed Gaussian heads (desired
position during exploration, intended force during interaction; the phase flag
sits in the observation) plus a critic. Rewards come from the frozen visual
encoder: similarity of the current agent-masked frame to the goal image,
shaped so that improving on the start state is boosted and regressions are
penalized gently. Optimization is clipped-surrogate PPO with generalized
advantage estimation, all gradients written out by hand. Advantage-weighted
regression over expert clips provides the imitation path.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import env2d, numcore, render, reprlearn
from .demogen import Clip, goal_marker, goal_state
from .env2d import (OBS_PHASE_INDEX, Phase, ProxyAction, TaskSpec, WorldConfig,
                    WorldState)
from .numcore import (AdamState, ConfigurationError, MlpNetwork, adam_init,
                      adam_step, backward_batch, clip_by_global_norm,
                      derive_seed, forward_batch, init_mlp)
from .render import FrameImage, ImageSpec, camera_spec
from .reprlearn import Encoder, embed, embed_batch, similarity

OBS_DIM = env2d.OBS_DIM
ACTION_DIM = 4
ACTOR_LAYERS = [OBS_DIM, 64, 64, ACTION_DIM]
CRITIC_LAYERS = [OBS_DIM, 64, 64, 1]
HIDDEN_ACTIVATIONS = ["tanh", "tanh", "identity"]
LOG_STD_MIN, LOG_STD_MAX = -5.0, 1.0
LOG_STD_INIT = (-0.7, -0.7, 1.0, 1.0)

ROUTING_TWO_PHASE = "two_phase"
ROUTING_FLAT = "flat"

VALUE_LOSS_COEF = 0.5
ENTROPY_COEF = 0.01
GRAD_CLIP_NORM = 0.5

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Reward
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RewardConfig:
    alpha: float = 3.0
    beta_floor: float = 1e-6
    # divide by beta itself instead of |beta| (the raw published form; with
    # negative similarities it inverts the incentive, so it is off by default)
    literal_denominator: bool = False

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")


@dataclass
class GoalSpec:
    goal_image: FrameImage
    goal_embedding: np.ndarray
    beta: float


def shaped_reward_value(s_t: float, beta: float, cfg: RewardConfig) -> float:
    """Boosted-progress reward from a similarity value and the start-goal
    baseline. Zero at the baseline; gains beyond it are amplified by alpha."""
    if abs(beta) < cfg.beta_floor:
        return 0.0
    denom = beta if cfg.literal_denominator else abs(beta)
    delta = (s_t - beta) / denom
    boost = 1.0 + (cfg.alpha if delta > 0 else 0.0)
    return float(math.exp(boost * delta) - 1.0)


def shaped_reward(z_t: np.ndarray, goal: GoalSpec, cfg: RewardConfig) -> float:
    return shaped_reward_value(similarity(z_t, goal.goal_embedding),
                               goal.beta, cfg)


def make_goal(task: TaskSpec, camera_id: str, encoder: Encoder) -> GoalSpec:
    """Agent-masked render of the task's target state and its embedding.
    ``beta`` stays 0.0 here: the start-goal baseline belongs to each env slot
    and is set at every episode reset."""
    spec = camera_spec(camera_id)
    frame = render.render(goal_state(task), task.object, spec, "none",
                          marker_pos=goal_marker(task))
    return GoalSpec(frame, embed(encoder, frame), beta=0.0)


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------

@dataclass
class PolicyCheckpoint:
    actor: MlpNetwork
    critic: MlpNetwork
    log_std: np.ndarray
    routing: str = ROUTING_TWO_PHASE
    action_scales: np.ndarray = field(
        default_factory=lambda: np.array([1.0, 1.0, 20.0, 20.0]))

    def parameters(self) -> list[np.ndarray]:
        return self.actor.parameters() + self.critic.parameters() + [self.log_std]

    def set_parameters(self, params: list[np.ndarray]) -> None:
        na = len(self.actor.parameters())
        nb = len(self.critic.parameters())
        self.actor.set_parameters(params[:na])
        self.critic.set_parameters(params[na:na + nb])
        self.log_std = params[na + nb]

    def copy(self) -> "PolicyCheckpoint":
        return PolicyCheckpoint(self.actor.copy(), self.critic.copy(),
                                self.log_std.copy(), self.routing,
                                self.action_scales.copy())


def init_policy(seed: int, routing: str = ROUTING_TWO_PHASE,
                arena_half: float = 1.0, force_max: float = 20.0) -> PolicyCheckpoint:
    scales = np.array([arena_half, arena_half, force_max, force_max])
    return PolicyCheckpoint(
        actor=init_mlp(ACTOR_LAYERS, HIDDEN_ACTIVATIONS, derive_seed(seed, 1)),
        critic=init_mlp(CRITIC_LAYERS, HIDDEN_ACTIVATIONS, derive_seed(seed, 2)),
        log_std=np.clip(np.array(LOG_STD_INIT), LOG_STD_MIN, LOG_STD_MAX),
        routing=routing,
        action_scales=scales,
    )


def head_mask(policy: PolicyCheckpoint, obs: np.ndarray) -> np.ndarray:
    """Which action dimensions the routing rule activates per observation."""
    obs = np.atleast_2d(obs)
    n = obs.shape[0]
    if policy.routing == ROUTING_FLAT:
        return np.ones((n, ACTION_DIM), dtype=bool)
    interaction = obs[:, OBS_PHASE_INDEX] > 0.5
    mask = np.zeros((n, ACTION_DIM), dtype=bool)
    mask[~interaction, 0:2] = True
    mask[interaction, 2:4] = True
    return mask


def action_means(policy: PolicyCheckpoint, obs: np.ndarray):
    """Tanh-squashed, bound-scaled action means plus the actor cache."""
    out, cache = forward_batch(policy.actor, np.atleast_2d(obs))
    squashed = np.tanh(out)
    return squashed * policy.action_scales, squashed, cache

def policy_std(policy: PolicyCheckpoint) -> np.ndarray:
    # log_std is kept inside [LOG_STD_MIN, LOG_STD_MAX] by projection after
    # every optimizer step, so no clamp is needed here and the loss stays
    # smooth in the parameter
    return np.exp(policy.log_std)


def sample_actions(policy: PolicyCheckpoint, obs: np.ndarray,
                   rng: np.random.Generator):
    """Sample per-observation actions from the active Gaussian head.

    Returns (actions, log_probs, masks); inactive dimensions are zero.
    """
    obs = np.atleast_2d(obs)
    means, _, _ = action_means(policy, obs)
    std = policy_std(policy)
    mask = head_mask(policy, obs)
    noise = rng.standard_normal(means.shape)
    actions = np.where(mask, means + std * noise, 0.0)
    logp = gaussian_log_prob(actions, means, std, mask)
    return actions, logp, mask


def gaussian_log_prob(actions, means, std, mask) -> np.ndarray:
    diff = (actions - means) / std
    per_dim = -0.5 * diff * diff - np.log(std) - _HALF_LOG_2PI
    return np.where(mask, per_dim, 0.0).sum(axis=1)


def deterministic_action(policy: PolicyCheckpoint, obs: np.ndarray) -> np.ndarray:
    means, _, _ = action_means(policy, obs)
    mask = head_mask(policy, obs)
    return np.where(mask, means, 0.0)[0]


def values(policy: PolicyCheckpoint, obs: np.ndarray) -> np.ndarray:
    v, _ = forward_batch(policy.critic, np.atleast_2d(obs))
    return v[:, 0]


def to_proxy_action(action: np.ndarray) -> ProxyAction:
    return ProxyAction((float(action[0]), float(action[1])),
                       (float(action[2]), float(action[3])))


# ---------------------------------------------------------------------------
# Generalized advantage estimation
# ---------------------------------------------------------------------------

def gae_advantages(rewards, values_with_bootstrap, dones, gamma: float,
                   lam: float):
    """Standard GAE recursion.

    ``values_with_bootstrap`` carries one extra trailing row: the value of the
    state after the last transition (ignored where ``dones`` is set). Accepts
    1-D sequences or (T, n_envs) arrays; returns (advantages, returns).
    """
    r = np.asarray(rewards, dtype=float)
    v = np.asarray(values_with_bootstrap, dtype=float)
    d = np.asarray(dones, dtype=float)
    squeeze = r.ndim == 1
    if squeeze:
        r, v, d = r[:, None], v[:, None], d[:, None]
    t_len = r.shape[0]
    if v.shape[0] != t_len + 1:
        raise ConfigurationError("values must include a bootstrap row")
    adv = np.zeros_like(r)
    carry = np.zeros(r.shape[1])
    for t in range(t_len - 1, -1, -1):
        nonterminal = 1.0 - d[t]
        delta = r[t] + gamma * v[t + 1] * nonterminal - v[t]
        carry = delta + gamma * lam * nonterminal * carry
        adv[t] = carry
    returns = adv + v[:-1]
    if squeeze:
        return adv[:, 0], returns[:, 0]
    return adv, returns


# ---------------------------------------------------------------------------
# Rollout collection
# ---------------------------------------------------------------------------

@dataclass
class PpoConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    epochs: int = 4
    minibatch_size: int = 256
    rollout_envs: int = 16
    horizon: int = 128
    lr: float = 3e-4
    total_env_steps: int = 600_000
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigurationError("gamma must be in (0, 1]")
        if self.clip_ratio <= 0:
            raise ConfigurationError("clip_ratio must be positive")


@dataclass
class SkillOptions:
    """Run-level switches around the core PPO loop."""
    camera: str = "front"
    reward_mode: str = "shaped"          # or "raw": use the similarity directly
    terminal_bonus: float = 10.0
    two_phase: bool = True               # False: flat-action ablation
    start_jitter: float = 0.05
    episode_horizon: int = 400
    eval_every: int = 32768              # env steps between eval rounds
    eval_episodes: int = 20
    early_stop: bool = True
    reward: RewardConfig = field(default_factory=RewardConfig)

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
    episode_len: int = 0


def _render_masked(slot: _EnvSlot, spec: ImageSpec, marker) -> FrameImage:
    return render.render(slot.state, slot.task.object, spec, "none",
                         marker_pos=marker)


def _masked_similarities(slots: list[_EnvSlot], encoder: Encoder,
                         goal: GoalSpec, spec: ImageSpec, marker,
                         memo: dict) -> list[float]:
    """Goal similarity of each slot's agent-masked frame.

    With the agent masked out, the frame depends only on the object pose
    (task, camera and marker are fixed for the caller), so ``memo`` maps
    ``object_q.tobytes()`` to the similarity. Poses not yet in it are
    rendered once each and embedded in one batch.
    """
    keys = [slot.state.object_q.tobytes() for slot in slots]
    frames: dict[bytes, FrameImage] = {}
    for key, slot in zip(keys, slots):
        if key not in memo and key not in frames:
            frames[key] = _render_masked(slot, spec, marker)
    if frames:
        z = embed_batch(encoder, list(frames.values()))
        for key, z_k in zip(frames, z):
            memo[key] = similarity(z_k, goal.goal_embedding)
    return [memo[key] for key in keys]


def _reset_slots(slots: list[_EnvSlot], encoder: Encoder, goal: GoalSpec,
                 spec: ImageSpec, marker, memo: dict) -> None:
    for slot in slots:
        seed = derive_seed(slot.master_seed, slot.env_index, slot.episode_index)
        slot.state = env2d.reset(slot.config, slot.task, seed)
        slot.episode_return = 0.0
        slot.episode_len = 0
    betas = _masked_similarities(slots, encoder, goal, spec, marker, memo)
    for slot, beta in zip(slots, betas):
        slot.beta = beta


def make_env_slots(task: TaskSpec, options: SkillOptions, encoder: Encoder,
                   goal: GoalSpec, n_envs: int, seed: int) -> list[_EnvSlot]:
    cfg = options.world_config(task)
    slots = [_EnvSlot(task, cfg, None, 0.0, 0, e, seed)  # type: ignore[arg-type]
             for e in range(n_envs)]
    _reset_slots(slots, encoder, goal, camera_spec(options.camera),
                 goal_marker(task), {})
    return slots


def collect_rollouts(policy: PolicyCheckpoint, slots: list[_EnvSlot],
                     encoder: Encoder, goal: GoalSpec, ppo: PpoConfig,
                     options: SkillOptions, rng: np.random.Generator) -> dict:
    """Gather horizon x n_envs transitions. The visual reward of each step is
    the goal similarity of the agent-masked frame, rendered and embedded once
    per distinct object pose within this call."""
    n_envs = len(slots)
    spec = camera_spec(options.camera)
    marker = goal_marker(slots[0].task)
    memo: dict[bytes, float] = {}
    obs_buf = np.zeros((ppo.horizon, n_envs, OBS_DIM))
    act_buf = np.zeros((ppo.horizon, n_envs, ACTION_DIM))
    mask_buf = np.zeros((ppo.horizon, n_envs, ACTION_DIM), dtype=bool)
    logp_buf = np.zeros((ppo.horizon, n_envs))
    rew_buf = np.zeros((ppo.horizon, n_envs))
    done_buf = np.zeros((ppo.horizon, n_envs))
    val_buf = np.zeros((ppo.horizon + 1, n_envs))
    finished_returns: list[float] = []
    finished_successes: list[bool] = []

    for t in range(ppo.horizon):
        obs = np.stack([env2d.observe(s.state, s.task.object) for s in slots])
        actions, logp, mask = sample_actions(policy, obs, rng)
        val_buf[t] = values(policy, obs)
        obs_buf[t] = obs
        act_buf[t] = actions
        mask_buf[t] = mask
        logp_buf[t] = logp

        for e, slot in enumerate(slots):
            slot.state, _ = env2d.step(slot.state, to_proxy_action(actions[e]),
                                       slot.config, slot.task)
            slot.episode_len += 1
        sims = _masked_similarities(slots, encoder, goal, spec, marker, memo)
        finished = []
        for e, slot in enumerate(slots):
            s_t = sims[e]
            if options.reward_mode == "raw":
                reward = s_t
            else:
                reward = shaped_reward_value(s_t, slot.beta, options.reward)
            success = env2d.is_success(slot.state, slot.task)
            timeout = slot.episode_len >= slot.config.episode_horizon
            if success:
                reward += options.terminal_bonus
            rew_buf[t, e] = reward
            slot.episode_return += reward
            if success or timeout:
                done_buf[t, e] = 1.0
                finished_returns.append(slot.episode_return)
                finished_successes.append(success)
                slot.episode_index += 1
                finished.append(slot)
        _reset_slots(finished, encoder, goal, spec, marker, memo)

    last_obs = np.stack([env2d.observe(s.state, s.task.object) for s in slots])
    val_buf[ppo.horizon] = values(policy, last_obs)
    adv, ret = gae_advantages(rew_buf, val_buf, done_buf,
                              ppo.gamma, ppo.gae_lambda)
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
                              logp_old, adv, ret, clip_ratio: float):
    n = obs.shape[0]
    out, cache = forward_batch(policy.actor, obs)
    squashed = np.tanh(out)
    means = squashed * policy.action_scales
    logstd = policy.log_std
    std = np.exp(logstd)
    diff = (actions - means) / std
    per_dim = -0.5 * diff * diff - logstd - _HALF_LOG_2PI
    logp = np.where(masks, per_dim, 0.0).sum(axis=1)
    ratio = np.exp(logp - logp_old)

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio) * adv
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
    dmean_dout = (1.0 - squashed * squashed) * policy.action_scales
    actor_out_grad = dsurr_dlogp[:, None] * dlogp_dmean * dmean_dout
    actor_grads, _ = backward_batch(policy.actor, cache, actor_out_grad)

    # log-std gradients; the [-5, 1] bound is enforced by projection later
    dlogp_dlogstd = np.where(masks, diff * diff - 1.0, 0.0)
    g_logstd = (dsurr_dlogp[:, None] * dlogp_dlogstd).sum(axis=0)
    g_logstd -= ENTROPY_COEF * masks.mean(axis=0)

    # critic gradients
    critic_out_grad = (VALUE_LOSS_COEF * 2.0 * v_err / n)[:, None]
    critic_grads, _ = backward_batch(policy.critic, v_cache, critic_out_grad)

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
                batch["returns"][idx], ppo.clip_ratio)
            if not np.isfinite(total):
                skipped += 1
                continue
            grads = clip_by_global_norm(grads, GRAD_CLIP_NORM)
            new_params = adam_step(adam, policy.parameters(), grads)
            policy.set_parameters(new_params)
            policy.log_std = np.clip(policy.log_std, LOG_STD_MIN, LOG_STD_MAX)
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

@dataclass
class EpisodeResult:
    success: bool
    steps: int
    final_state: WorldState
    trajectory: dict | None = None


def run_policy_episode(policy: PolicyCheckpoint, task: TaskSpec,
                       config: WorldConfig, seed: int,
                       record: bool = False) -> EpisodeResult:
    """One deterministic-mean episode; optionally records the proxy trajectory
    in the retargeting interchange format."""
    state = env2d.reset(config, task, seed)
    frames = []
    events: list = []

    def snap(s: WorldState):
        frames.append({
            "t": s.time_step,
            "proxy_pos": [float(v) for v in s.proxy_pos],
            "phase": int(s.phase),
            "attachment": s.attachment,
            "object_q": [float(v) for v in s.object_q],
        })

    if record:
        snap(state)
    for step_i in range(config.episode_horizon):
        obs = env2d.observe(state, task.object)
        action = deterministic_action(policy, obs)
        state, evs = env2d.step(state, to_proxy_action(action), config, task)
        if record:
            snap(state)
            events.extend([list(e) for e in evs])
        if env2d.is_success(state, task):
            traj = None
            if record:
                traj = {"task": task.name, "success": True,
                        "frames": frames, "events": events}
            return EpisodeResult(True, step_i + 1, state, traj)
    traj = None
    if record:
        traj = {"task": task.name, "success": False,
                "frames": frames, "events": events}
    return EpisodeResult(False, config.episode_horizon, state, traj)


def evaluate_policy(policy: PolicyCheckpoint, task: TaskSpec,
                    config: WorldConfig, seed: int, episodes: int) -> float:
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
    adam = adam_init(policy.parameters(), lr=ppo.lr)
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
        write_curve(out / "curve.csv", curve)
    return best, curve


def write_curve(path, curve: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["env_steps", "mean_return", "eval_success"])
        for row in curve:
            writer.writerow([row["env_steps"], repr(row["mean_return"]),
                             repr(row["eval_success"])])


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
        "action_scales": [float(v) for v in policy.action_scales],
        "obs_dim": OBS_DIM,
    }
    with open(out / "policy.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_policy(out_dir) -> PolicyCheckpoint:
    out = Path(out_dir)
    actor, _, trailing = numcore.load_checkpoint(out / "actor.ckpt")
    critic, _, _ = numcore.load_checkpoint(out / "critic.ckpt")
    with open(out / "policy.json") as fh:
        manifest = json.load(fh)
    return PolicyCheckpoint(actor, critic, trailing["log_std"],
                            manifest["routing"],
                            np.array(manifest["action_scales"]))


# ---------------------------------------------------------------------------
# Advantage-weighted regression imitation
# ---------------------------------------------------------------------------

def progress_weights(sims_now: np.ndarray, sims_next: np.ndarray,
                     temperature: float) -> np.ndarray:
    """Exponentiated goal-similarity improvement, clipped to [0, 20]."""
    if temperature <= 0:
        raise ConfigurationError("temperature must be positive")
    if math.isinf(temperature):
        return np.ones_like(np.asarray(sims_now, dtype=float))
    delta = (np.asarray(sims_next, dtype=float)
             - np.asarray(sims_now, dtype=float)) / temperature
    return np.clip(np.exp(delta), 0.0, 20.0)


def awr_weights(frames, next_frames, goal: GoalSpec, encoder: Encoder,
                temperature: float) -> np.ndarray:
    z_now = embed_batch(encoder, frames)
    z_next = embed_batch(encoder, next_frames)
    s_now = np.array([similarity(z, goal.goal_embedding) for z in z_now])
    s_next = np.array([similarity(z, goal.goal_embedding) for z in z_next])
    return progress_weights(s_now, s_next, temperature)


def awr_fit(demos: list[Clip], encoder: Encoder, goal: GoalSpec,
            temperature: float, epochs: int, seed: int = 0,
            lr: float = 1e-3, minibatch_size: int = 64) -> PolicyCheckpoint:
    """Weighted regression of the actor means onto demo actions.

    ``temperature=inf`` gives uniform weights, i.e. plain behavior cloning.
    Only the phase-active action head of each transition is regressed.
    """
    if not demos:
        raise ConfigurationError("awr_fit needs at least one demo clip")
    obs_rows, act_rows, w_rows = [], [], []
    for clip in demos:
        frames_now = clip.frames[:-1]
        frames_next = clip.frames[1:]
        w = awr_weights(frames_now, frames_next, goal, encoder, temperature)
        for t in range(clip.n_c - 1):
            obs_rows.append(np.array(clip.states[t]["obs"]))
            act_rows.append(clip.actions[t])
            w_rows.append(w[t])
    obs = np.stack(obs_rows)
    acts = np.stack(act_rows)
    weights = np.array(w_rows)
    wsum = float(weights.sum())
    if wsum <= 0:
        raise ConfigurationError("all regression weights vanished")

    policy = init_policy(seed, routing=ROUTING_TWO_PHASE)
    adam = adam_init(policy.actor.parameters(), lr=lr)
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 77)))
    n = obs.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, minibatch_size):
            idx = order[start:start + minibatch_size]
            o, a, w = obs[idx], acts[idx], weights[idx]
            mask = head_mask(policy, o)
            out, cache = forward_batch(policy.actor, o)
            squashed = np.tanh(out)
            means = squashed * policy.action_scales
            err = np.where(mask, means - a, 0.0)
            out_grad = (2.0 * w[:, None] * err / wsum
                        * (1.0 - squashed * squashed) * policy.action_scales)
            grads, _ = backward_batch(policy.actor, cache, out_grad)
            new_params = adam_step(adam, policy.actor.parameters(), grads)
            policy.actor.set_parameters(new_params)
    return policy
