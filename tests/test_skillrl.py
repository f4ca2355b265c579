import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxymanip import numcore as nc
from proxymanip import env2d, render, reprlearn, skillrl
from proxymanip.env2d import get_task
from proxymanip.skillrl import (
    GoalSpec, PolicyCheckpoint, PpoConfig, RewardConfig, SkillOptions,
    collect_rollouts, gae_advantages, init_policy, make_env_slots, make_goal,
    ppo_update, progress_weights, run_policy_episode, shaped_reward,
    shaped_reward_value,
)


class TestShapedReward:
    def test_baseline_gives_zero(self):
        cfg = RewardConfig()
        assert shaped_reward_value(-10.0, -10.0, cfg) == 0.0

    def test_halfway_progress(self):
        cfg = RewardConfig(alpha=3.0)
        r = shaped_reward_value(-5.0, -10.0, cfg)
        assert r == pytest.approx(math.exp(2.0) - 1.0, abs=1e-9)
        assert r == pytest.approx(6.3890561, abs=1e-6)

    def test_regression_penalized_gently(self):
        cfg = RewardConfig(alpha=3.0)
        r = shaped_reward_value(-15.0, -10.0, cfg)
        assert r == pytest.approx(math.exp(-0.5) - 1.0, abs=1e-9)
        assert r == pytest.approx(-0.3934693, abs=1e-6)

    def test_at_goal(self):
        cfg = RewardConfig(alpha=3.0)
        r = shaped_reward_value(0.0, -10.0, cfg)
        assert r == pytest.approx(math.exp(4.0) - 1.0, abs=1e-9)
        assert r == pytest.approx(53.5981500, abs=1e-6)

    def test_degenerate_start_at_goal(self):
        cfg = RewardConfig()
        assert shaped_reward_value(-0.5, 0.0, cfg) == 0.0

    def test_literal_denominator_flag_flips_sign(self):
        literal = RewardConfig(literal_denominator=True)
        # with beta < 0 the raw form rewards moving away from the goal
        assert shaped_reward_value(-5.0, -10.0, literal) < 0.0

    def test_strictly_increasing_and_continuous(self):
        cfg = RewardConfig(alpha=3.0)
        beta = -7.0
        sims = np.linspace(-20.0, 0.0, 400)
        vals = [shaped_reward_value(s, beta, cfg) for s in sims]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        eps = 1e-9
        assert abs(shaped_reward_value(beta + eps, beta, cfg)) < 1e-6
        assert abs(shaped_reward_value(beta - eps, beta, cfg)) < 1e-6

    def test_slope_ratio_at_baseline(self):
        cfg = RewardConfig(alpha=3.0)
        beta = -4.0
        h = 1e-7
        right = shaped_reward_value(beta + h, beta, cfg) / h
        left = -shaped_reward_value(beta - h, beta, cfg) / h
        assert right / left == pytest.approx(1.0 + cfg.alpha, rel=1e-5)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_embedding_isometry(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        z_t = rng.normal(0, 1, 8)
        z_g = rng.normal(0, 1, 8)
        z_0 = rng.normal(0, 1, 8)
        # random orthogonal rotation preserves all pairwise similarities
        q, _ = np.linalg.qr(rng.normal(0, 1, (8, 8)))
        cfg = RewardConfig()
        goal_a = GoalSpec(None, z_g, reprlearn.similarity(z_0, z_g))
        goal_b = GoalSpec(None, q @ z_g,
                          reprlearn.similarity(q @ z_0, q @ z_g))
        ra = shaped_reward(z_t, goal_a, cfg)
        rb = shaped_reward(q @ z_t, goal_b, cfg)
        assert ra == pytest.approx(rb, rel=1e-9, abs=1e-9)


class TestGae:
    def test_single_step(self):
        adv, ret = gae_advantages([1.0], [0.0, 0.0], [1.0], 1.0, 1.0)
        assert adv[0] == 1.0
        assert ret[0] == 1.0

    def test_constant_value_zero_rewards(self):
        adv, _ = gae_advantages(np.zeros(5), np.full(6, 3.0), np.zeros(5),
                                1.0, 0.95)
        assert np.allclose(adv, 0.0)

    def test_two_step_hand_recursion(self):
        adv, _ = gae_advantages([0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0],
                                0.99, 0.95)
        assert adv[1] == pytest.approx(1.0, abs=1e-12)
        assert adv[0] == pytest.approx(0.99 * 0.95 * 1.0, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_reward_to_go_special_case(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        t = int(rng.integers(1, 20))
        rewards = rng.normal(0, 1, t)
        dones = np.zeros(t)
        dones[-1] = 1.0
        adv, ret = gae_advantages(rewards, np.zeros(t + 1), dones, 1.0, 1.0)
        suffix = np.array([rewards[i:].sum() for i in range(t)])
        assert np.allclose(adv, suffix, atol=1e-9)
        assert np.allclose(ret, suffix, atol=1e-9)

    def test_batched_matches_per_env(self):
        rng = np.random.Generator(np.random.PCG64(5)); t, e = 7, 3
        r = rng.normal(0, 1, (t, e))
        v = rng.normal(0, 1, (t + 1, e))
        d = (rng.random((t, e)) < 0.2).astype(float)
        adv2, ret2 = gae_advantages(r, v, d, 0.99, 0.95)
        for col in range(e):
            a1, r1 = gae_advantages(r[:, col], v[:, col], d[:, col], 0.99, 0.95)
            assert np.allclose(adv2[:, col], a1)
            assert np.allclose(ret2[:, col], r1)


def synthetic_batch(policy, n, seed, adv_values=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    obs = rng.uniform(-0.5, 0.5, (n, skillrl.OBS_DIM))
    obs[:, skillrl.OBS_PHASE_INDEX if hasattr(skillrl, 'OBS_PHASE_INDEX') else 10] = \
        (rng.random(n) < 0.5).astype(float)
    actions, logp, masks = skillrl.sample_actions(policy, obs, rng)
    adv = rng.normal(0, 1, n) if adv_values is None else np.asarray(adv_values)
    return {
        "obs": obs, "actions": actions, "masks": masks, "log_probs": logp,
        "advantages": adv, "returns": rng.normal(0, 1, n),
    }


class TestPpoUpdate:
    def test_zero_advantages_leave_actor_means(self):
        policy = init_policy(seed=0)
        batch = synthetic_batch(policy, 64, seed=1, adv_values=np.zeros(64))
        before = [p.copy() for p in policy.actor.parameters()]
        ppo = PpoConfig(epochs=2, minibatch_size=32)
        adam = nc.adam_init(policy.parameters(), lr=ppo.lr)
        ppo_update(policy, batch, ppo, adam,
                   np.random.Generator(np.random.PCG64(0)))
        for a, b in zip(policy.actor.parameters(), before):
            assert np.array_equal(a, b)

    def test_ratio_clipping_saturates_surrogate(self):
        policy = init_policy(seed=2)
        rng = np.random.Generator(np.random.PCG64(3))
        obs = rng.uniform(-0.5, 0.5, (1, skillrl.OBS_DIM))
        obs[0, 10] = 0.0
        actions, logp, masks = skillrl.sample_actions(policy, obs, rng)
        adv = np.array([1.0])
        ret = np.array([0.0])

        def surrogate_for(ratio):
            lp_old = logp - math.log(ratio)
            _, _, stats = skillrl._minibatch_loss_and_grads(
                policy, obs, actions, masks, lp_old, adv, ret, 0.2)
            return stats["surrogate"]

        assert surrogate_for(1.5) == pytest.approx(surrogate_for(1.2), abs=1e-12)

    def test_update_increases_logprob_of_better_action(self):
        policy = init_policy(seed=4)
        rng = np.random.Generator(np.random.PCG64(5))
        obs = np.tile(rng.uniform(-0.3, 0.3, (1, skillrl.OBS_DIM)), (2, 1))
        obs[:, 10] = 0.0
        actions, logp, masks = skillrl.sample_actions(policy, obs, rng)
        batch = {
            "obs": obs, "actions": actions, "masks": masks, "log_probs": logp,
            "advantages": np.array([2.0, -2.0]), "returns": np.zeros(2),
        }
        ppo = PpoConfig(epochs=1, minibatch_size=2)
        adam = nc.adam_init(policy.parameters(), lr=1e-3)
        ppo_update(policy, batch, ppo, adam,
                   np.random.Generator(np.random.PCG64(6)))
        means, _, _ = skillrl.action_means(policy, obs)
        new_logp = skillrl.gaussian_log_prob(
            actions, means, skillrl.policy_std(policy), masks)
        assert new_logp[0] > logp[0]

    def test_normalized_advantage_statistics(self):
        rng = np.random.Generator(np.random.PCG64(7))
        adv = skillrl.normalize_advantages(rng.normal(3.0, 5.0, 2048))
        assert abs(adv.mean()) < 1e-9
        assert abs(adv.std() - 1.0) < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_loss_gradients_match_finite_differences(self, seed):
        policy = init_policy(seed=seed)
        batch = synthetic_batch(policy, 8, seed=100 + seed)
        adv = skillrl.normalize_advantages(batch["advantages"])

        def loss_of(params):
            policy.set_parameters([p.copy() for p in params])
            total, _, _ = skillrl._minibatch_loss_and_grads(
                policy, batch["obs"], batch["actions"], batch["masks"],
                batch["log_probs"], adv, batch["returns"], 0.2)
            return total

        params = [p.copy() for p in policy.parameters()]
        fd = nc.finite_diff_grad(loss_of, params, step=1e-5)
        policy.set_parameters([p.copy() for p in params])
        _, exact, _ = skillrl._minibatch_loss_and_grads(
            policy, batch["obs"], batch["actions"], batch["masks"],
            batch["log_probs"], adv, batch["returns"], 0.2)
        for a, b in zip(exact, fd):
            assert nc.normed_relative_error(a, b) < 1e-4


@pytest.fixture(scope="module")
def encoder():
    return reprlearn.init_encoder(seed=13)


class TestRollouts:
    def test_batch_shape(self, encoder):
        task = get_task("open-drawer")
        options = SkillOptions(start_jitter=0.0)
        goal = make_goal(task, "front", encoder)
        ppo = PpoConfig(rollout_envs=16, horizon=128)
        policy = init_policy(seed=0)
        slots = make_env_slots(task, options, encoder, goal, 16, seed=0)
        rng = np.random.Generator(np.random.PCG64(1))
        batch = collect_rollouts(policy, slots, encoder, goal, ppo, options, rng)
        assert batch["obs"].shape == (2048, 12)
        assert batch["actions"].shape == (2048, 4)
        assert batch["returns"].shape == (2048,)

    def test_first_step_reward_is_baseline(self, encoder):
        # the object is untouched on the first step and the masked render
        # hides the proxy, so the first frame matches the reset frame
        task = get_task("open-drawer")
        options = SkillOptions(start_jitter=0.0)
        goal = make_goal(task, "front", encoder)
        slot = make_env_slots(task, options, encoder, goal, 1, seed=3)[0]
        spec = skillrl.camera_spec(options.camera)
        marker = skillrl.goal_marker(task)
        z0 = reprlearn.embed(encoder, skillrl._render_masked(slot, spec, marker))
        beta = reprlearn.similarity(z0, goal.goal_embedding)
        slot.state, _ = skillrl.env2d.step(
            slot.state, skillrl.to_proxy_action(np.array([0.3, 0.1, 0, 0])),
            slot.config, slot.task)
        z1 = reprlearn.embed(encoder, skillrl._render_masked(slot, spec, marker))
        s1 = reprlearn.similarity(z1, goal.goal_embedding)
        r = shaped_reward_value(s1, beta, options.reward)
        assert abs(r) < 1e-9

    def test_rollout_determinism(self, encoder):
        task = get_task("move-box")
        options = SkillOptions()
        goal = make_goal(task, "front", encoder)
        ppo = PpoConfig(rollout_envs=3, horizon=16)

        def run():
            policy = init_policy(seed=9)
            slots = make_env_slots(task, options, encoder, goal, 3, seed=9)
            rng = np.random.Generator(np.random.PCG64(10))
            return collect_rollouts(policy, slots, encoder, goal, ppo,
                                    options, rng)

        a, b = run(), run()
        assert np.array_equal(a["actions"], b["actions"])
        assert np.array_equal(a["returns"], b["returns"])


def reference_rollouts(policy, task, encoder, goal, ppo, options, seed, rng):
    """The rollout loop without the pose memo, as make_env_slots followed by
    one collect_rollouts call: every step renders all n frames and embeds
    them in one batch, and every reset frame is embedded on its own."""
    spec = skillrl.camera_spec(options.camera)
    marker = skillrl.goal_marker(task)
    cfg = options.world_config(task)
    n = ppo.rollout_envs

    def masked_frame(state):
        return render.render(state, task.object, spec, "none", marker_pos=marker)

    def reset(e, episode):
        state = env2d.reset(cfg, task, nc.derive_seed(seed, e, episode))
        z0 = reprlearn.embed(encoder, masked_frame(state))
        return state, reprlearn.similarity(z0, goal.goal_embedding)

    states, betas = map(list, zip(*[reset(e, 0) for e in range(n)]))
    episodes, lengths, ep_returns = [0] * n, [0] * n, [0.0] * n
    obs_rows, act_rows, mask_rows, logp_rows = [], [], [], []
    rewards = np.zeros((ppo.horizon, n))
    dones = np.zeros((ppo.horizon, n))
    vals = np.zeros((ppo.horizon + 1, n))
    finished_returns, finished_successes = [], []
    for t in range(ppo.horizon):
        obs = np.stack([env2d.observe(s, task.object) for s in states])
        actions, logp, mask = skillrl.sample_actions(policy, obs, rng)
        vals[t] = skillrl.values(policy, obs)
        obs_rows.append(obs)
        act_rows.append(actions)
        mask_rows.append(mask)
        logp_rows.append(logp)
        for e in range(n):
            states[e], _ = env2d.step(states[e],
                                      skillrl.to_proxy_action(actions[e]),
                                      cfg, task)
            lengths[e] += 1
        z = reprlearn.embed_batch(encoder, [masked_frame(s) for s in states])
        for e in range(n):
            s_t = reprlearn.similarity(z[e], goal.goal_embedding)
            reward = shaped_reward_value(s_t, betas[e], options.reward)
            success = env2d.is_success(states[e], task)
            if success:
                reward += options.terminal_bonus
            rewards[t, e] = reward
            ep_returns[e] += reward
            if success or lengths[e] >= cfg.episode_horizon:
                dones[t, e] = 1.0
                finished_returns.append(ep_returns[e])
                finished_successes.append(success)
                episodes[e] += 1
                states[e], betas[e] = reset(e, episodes[e])
                lengths[e], ep_returns[e] = 0, 0.0
    vals[ppo.horizon] = skillrl.values(
        policy, np.stack([env2d.observe(s, task.object) for s in states]))
    adv, ret = gae_advantages(rewards, vals, dones, ppo.gamma, ppo.gae_lambda)
    return {
        "obs": np.concatenate(obs_rows), "actions": np.concatenate(act_rows),
        "masks": np.concatenate(mask_rows), "log_probs": np.concatenate(logp_rows),
        "advantages": adv.reshape(-1), "returns": ret.reshape(-1),
        "episode_returns": finished_returns,
        "episode_successes": finished_successes,
    }


class TestPoseMemo:
    # a short episode horizon makes every slot reset within one call
    OPTIONS = SkillOptions(episode_horizon=20)
    PPO = PpoConfig(rollout_envs=16, horizon=48)

    def setup(self, task, encoder, seed):
        goal = make_goal(task, self.OPTIONS.camera, encoder)
        slots = make_env_slots(task, self.OPTIONS, encoder, goal,
                               self.PPO.rollout_envs, seed)
        rng = np.random.Generator(np.random.PCG64(seed + 1))
        return (init_policy(seed), slots, encoder, goal, self.PPO,
                self.OPTIONS, rng)

    @pytest.mark.parametrize("name", ["lift-box", "move-box", "open-drawer"])
    def test_matches_rendering_every_frame(self, encoder, name):
        task = get_task(name)
        seed = 5
        batch = collect_rollouts(*self.setup(task, encoder, seed))
        rng = np.random.Generator(np.random.PCG64(seed + 1))
        ref = reference_rollouts(init_policy(seed), task, encoder,
                                 make_goal(task, self.OPTIONS.camera, encoder),
                                 self.PPO, self.OPTIONS, seed, rng)
        for key in ("obs", "actions", "masks", "log_probs"):
            assert np.array_equal(batch[key], ref[key]), key
        assert batch["episode_successes"] == ref["episode_successes"]
        assert len(batch["episode_returns"]) >= self.PPO.rollout_envs
        # the embedding batch sizes differ, so rewards may differ in the
        # last bits
        for key in ("advantages", "returns", "episode_returns"):
            np.testing.assert_allclose(batch[key], ref[key], rtol=0,
                                       atol=1e-12, err_msg=key)

    def test_renders_each_distinct_pose_once(self, encoder, monkeypatch):
        args = self.setup(get_task("lift-box"), encoder, seed=2)
        rendered, poses = [], set()
        real_render, real_step, real_reset = render.render, env2d.step, env2d.reset

        def counting_render(state, *a, **kw):
            rendered.append(state.object_q.tobytes())
            return real_render(state, *a, **kw)

        def recording_step(*a, **kw):
            state, events = real_step(*a, **kw)
            poses.add(state.object_q.tobytes())
            return state, events

        def recording_reset(*a, **kw):
            state = real_reset(*a, **kw)
            poses.add(state.object_q.tobytes())
            return state

        monkeypatch.setattr(render, "render", counting_render)
        monkeypatch.setattr(env2d, "step", recording_step)
        monkeypatch.setattr(env2d, "reset", recording_reset)
        collect_rollouts(*args)
        # one render for each distinct pose a step or reset reached
        assert len(rendered) == len(set(rendered))
        assert set(rendered) == poses
        assert len(rendered) < self.PPO.rollout_envs * self.PPO.horizon / 2


class TestEpisodes:
    def test_recorded_trajectory_format(self, encoder):
        task = get_task("open-drawer")
        cfg = task.world_config()
        policy = init_policy(seed=0)
        res = run_policy_episode(policy, task, cfg, seed=0, record=True)
        traj = res.trajectory
        assert traj["task"] == "open-drawer"
        assert {"t", "proxy_pos", "phase", "object_q", "attachment"} <= set(traj["frames"][0])
        json.dumps(traj)  # must be serializable as the interchange format

    def test_expert_actions_replayed_as_policy_succeed(self):
        # sanity: the deterministic runner reports success for a state on target
        task = get_task("open-drawer")
        cfg = task.world_config()
        policy = init_policy(seed=0)
        res = run_policy_episode(policy, task, cfg, seed=0)
        assert res.steps == cfg.episode_horizon or res.success in (True, False)


class TestAwr:
    def test_no_progress_unit_weight(self):
        w = progress_weights(np.array([-3.0]), np.array([-3.0]), 0.5)
        assert w[0] == 1.0

    def test_half_progress_at_half_temperature(self):
        w = progress_weights(np.array([-3.0]), np.array([-2.5]), 0.5)
        assert w[0] == pytest.approx(math.e, abs=1e-12)

    def test_large_regression_effectively_zero(self):
        w = progress_weights(np.array([0.0]), np.array([-10.0]), 0.5)
        assert w[0] == pytest.approx(math.exp(-20.0), abs=1e-12)
        assert w[0] < 1e-8

    def test_infinite_temperature_uniform(self):
        w = progress_weights(np.array([-3.0, -1.0]), np.array([-2.0, -5.0]),
                             math.inf)
        assert np.array_equal(w, [1.0, 1.0])

    def test_clip_ceiling(self):
        w = progress_weights(np.array([-5.0]), np.array([0.0]), 0.1)
        assert w[0] == 20.0


class TestPolicyIO:
    def test_save_load_round_trip(self, tmp_path):
        policy = init_policy(seed=8)
        skillrl.save_policy(tmp_path, policy, seed=8, step_count=42)
        loaded = skillrl.load_policy(tmp_path)
        assert loaded.routing == policy.routing
        obs = np.zeros((1, 12))
        ma, _, _ = skillrl.action_means(policy, obs)
        mb, _, _ = skillrl.action_means(loaded, obs)
        assert np.allclose(ma, mb, atol=1e-6)

    def test_bit_identical_rewrites(self, tmp_path):
        policy = init_policy(seed=8)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        skillrl.save_policy(d1, policy)
        skillrl.save_policy(d2, policy)
        assert (d1 / "actor.ckpt").read_bytes() == (d2 / "actor.ckpt").read_bytes()
        assert (d1 / "policy.json").read_bytes() == (d2 / "policy.json").read_bytes()
