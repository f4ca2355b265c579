import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numcheck
from proxymanip import numcore as nc
from proxymanip import demogen, env2d, render, reprlearn, skillrl
from proxymanip.env2d import get_task
from proxymanip.skillrl import (
    PolicyCheckpoint, PpoConfig, SkillOptions,
    collect_rollouts, gae_advantages, init_policy, make_env_slots, make_goal,
    ppo_update, progress_weights, run_policy_episode, shaped_reward_value,
)


class TestShapedReward:
    def test_baseline_gives_zero(self):
        assert shaped_reward_value(-10.0, -10.0) == 0.0

    def test_halfway_progress(self):
        r = shaped_reward_value(-5.0, -10.0)
        assert r == pytest.approx(math.exp(2.0) - 1.0, abs=1e-9)
        assert r == pytest.approx(6.3890561, abs=1e-6)

    def test_regression_penalized_gently(self):
        r = shaped_reward_value(-15.0, -10.0)
        assert r == pytest.approx(math.exp(-0.5) - 1.0, abs=1e-9)
        assert r == pytest.approx(-0.3934693, abs=1e-6)

    def test_at_goal(self):
        r = shaped_reward_value(0.0, -10.0)
        assert r == pytest.approx(math.exp(4.0) - 1.0, abs=1e-9)
        assert r == pytest.approx(53.5981500, abs=1e-6)

    def test_degenerate_start_at_goal(self):
        assert shaped_reward_value(-0.5, 0.0) == 0.0

    def test_strictly_increasing_and_continuous(self):
        beta = -7.0
        sims = np.linspace(-20.0, 0.0, 400)
        vals = [shaped_reward_value(s, beta) for s in sims]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        eps = 1e-9
        assert abs(shaped_reward_value(beta + eps, beta)) < 1e-6
        assert abs(shaped_reward_value(beta - eps, beta)) < 1e-6

    def test_slope_ratio_at_baseline(self):
        beta = -4.0
        h = 1e-7
        right = shaped_reward_value(beta + h, beta) / h
        left = -shaped_reward_value(beta - h, beta) / h
        assert right / left == pytest.approx(1.0 + skillrl.REWARD_ALPHA, rel=1e-5)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_embedding_isometry(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        z_t = rng.normal(0, 1, 8)
        z_g = rng.normal(0, 1, 8)
        z_0 = rng.normal(0, 1, 8)
        # random orthogonal rotation preserves all pairwise similarities
        q, _ = np.linalg.qr(rng.normal(0, 1, (8, 8)))
        sim = reprlearn.similarity
        ra = shaped_reward_value(sim(z_t, z_g), sim(z_0, z_g))
        rb = shaped_reward_value(sim(q @ z_t, q @ z_g), sim(q @ z_0, q @ z_g))
        assert ra == pytest.approx(rb, rel=1e-9, abs=1e-9)


def column(values) -> np.ndarray:
    """A sequence as one env's (T, 1) column."""
    return np.asarray(values, dtype=float)[:, None]


class TestGae:
    def test_single_step(self):
        adv, ret = gae_advantages(column([1.0]), column([0.0, 0.0]),
                                  column([1.0]), 1.0, 1.0)
        assert adv.shape == ret.shape == (1, 1)
        assert adv[0, 0] == 1.0
        assert ret[0, 0] == 1.0

    def test_constant_value_zero_rewards(self):
        adv, _ = gae_advantages(np.zeros((5, 1)), np.full((6, 1), 3.0),
                                np.zeros((5, 1)), 1.0, 0.95)
        assert np.allclose(adv, 0.0)

    def test_two_step_hand_recursion(self):
        adv, _ = gae_advantages(column([0.0, 1.0]), column([0.0, 0.0, 0.0]),
                                column([0.0, 1.0]), 0.99, 0.95)
        assert adv[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert adv[0, 0] == pytest.approx(0.99 * 0.95 * 1.0, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_reward_to_go_special_case(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        t = int(rng.integers(1, 20))
        rewards = rng.normal(0, 1, t)
        dones = np.zeros(t)
        dones[-1] = 1.0
        adv, ret = gae_advantages(column(rewards), np.zeros((t + 1, 1)),
                                  column(dones), 1.0, 1.0)
        suffix = column([rewards[i:].sum() for i in range(t)])
        assert np.allclose(adv, suffix, atol=1e-9)
        assert np.allclose(ret, suffix, atol=1e-9)

    def test_batched_matches_per_env(self):
        rng = np.random.Generator(np.random.PCG64(5)); t, e = 7, 3
        r = rng.normal(0, 1, (t, e))
        v = rng.normal(0, 1, (t + 1, e))
        d = (rng.random((t, e)) < 0.2).astype(float)
        adv2, ret2 = gae_advantages(r, v, d, 0.99, 0.95)
        for col in range(e):
            one = slice(col, col + 1)
            a1, r1 = gae_advantages(r[:, one], v[:, one], d[:, one], 0.99, 0.95)
            assert np.array_equal(adv2[:, one], a1)
            assert np.array_equal(ret2[:, one], r1)

    @pytest.mark.parametrize("rewards, values, dones, shapes", [
        (np.zeros(2), np.zeros(3), np.zeros(2), "(2,), (2,) and (3,)"),
        (np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)),
         "(2, 3), (2, 3) and (2, 3)"),
        (np.zeros((2, 3)), np.zeros((3, 3)), np.zeros(2),
         "(2, 3), (2,) and (3, 3)"),
        (np.zeros((2, 3)), np.zeros((3, 1)), np.zeros((2, 3)),
         "(2, 3), (2, 3) and (3, 1)"),
    ], ids=["one_dimensional", "no_bootstrap_row", "flat_dones", "one_value_column"])
    def test_rejects_shapes_naming_them(self, rewards, values, dones, shapes):
        with pytest.raises(nc.ConfigurationError,
                           match=re.escape(f"got shapes {shapes}")):
            gae_advantages(rewards, values, dones, 0.99, 0.95)


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
        adam = nc.adam_init(policy.parameters(), lr=skillrl.PPO_LR)
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
                policy, obs, actions, masks, lp_old, adv, ret)
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
        new_logp = skillrl.gaussian_log_prob(actions, means, policy.log_std,
                                             masks)
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
            numcheck.assign(policy.parameters(), params)
            total, _, _ = skillrl._minibatch_loss_and_grads(
                policy, batch["obs"], batch["actions"], batch["masks"],
                batch["log_probs"], adv, batch["returns"])
            return total

        params = [p.copy() for p in policy.parameters()]
        fd = numcheck.finite_diff_grad(loss_of, params, step=1e-5)
        numcheck.assign(policy.parameters(), params)
        _, exact, _ = skillrl._minibatch_loss_and_grads(
            policy, batch["obs"], batch["actions"], batch["masks"],
            batch["log_probs"], adv, batch["returns"])
        for a, b in zip(exact, fd):
            assert numcheck.normed_relative_error(a, b) < 1e-4


@pytest.fixture(scope="module")
def encoder():
    return reprlearn.init_encoder(seed=13)


@pytest.fixture(scope="module")
def expert_clips():
    dataset = demogen.generate_dataset([get_task("move-box")], clips_per_task=2,
                                       noise_scale=0.05, style="none", seed=3)
    return dataset.clips


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
        z0 = reprlearn.embed(encoder, render.render(slot.state, task.object, spec,
                                                    "none", marker_pos=marker))
        beta = reprlearn.similarity(z0, goal)
        slot.state, _ = skillrl.env2d.step(
            slot.state, env2d.ProxyAction((0.3, 0.1), (0.0, 0.0)),
            slot.config, slot.task)
        z1 = reprlearn.embed(encoder, render.render(slot.state, task.object, spec,
                                                    "none", marker_pos=marker))
        s1 = reprlearn.similarity(z1, goal)
        r = shaped_reward_value(s1, beta)
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
        return state, reprlearn.similarity(z0, goal)

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
            px, py, fx, fy = actions[e].tolist()
            states[e], _ = env2d.step(states[e],
                                      env2d.ProxyAction((px, py), (fx, fy)),
                                      cfg, task)
            lengths[e] += 1
        z = reprlearn.embed_batch(encoder, [masked_frame(s) for s in states])
        for e in range(n):
            s_t = reprlearn.similarity(z[e], goal)
            reward = shaped_reward_value(s_t, betas[e])
            success = env2d.is_success(states[e], task)
            if success:
                reward += skillrl.TERMINAL_BONUS
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
    adv, ret = gae_advantages(rewards, vals, dones, skillrl.GAMMA,
                              skillrl.GAE_LAMBDA)
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
        real_render, real_step, real_reset = (render.render_batch, env2d.step,
                                              env2d.reset)

        def counting_render(states, *a, **kw):
            rendered.extend(state.object_q.tobytes() for state in states)
            return real_render(states, *a, **kw)

        def recording_step(*a, **kw):
            state, events = real_step(*a, **kw)
            poses.add(state.object_q.tobytes())
            return state, events

        def recording_reset(*a, **kw):
            state = real_reset(*a, **kw)
            poses.add(state.object_q.tobytes())
            return state

        monkeypatch.setattr(render, "render_batch", counting_render)
        monkeypatch.setattr(env2d, "step", recording_step)
        monkeypatch.setattr(env2d, "reset", recording_reset)
        collect_rollouts(*args)
        # one render for each distinct pose a step or reset reached
        assert len(rendered) == len(set(rendered))
        assert set(rendered) == poses
        assert len(rendered) < self.PPO.rollout_envs * self.PPO.horizon / 2

    def test_calls_carry_episodes_over(self, encoder, monkeypatch):
        # episodes of 20 steps straddle the boundary between calls of 24
        task = get_task("move-box")
        self.check_calls_carry_over(task, encoder, seed=4)
        # every reset puts the box at start_q, so every episode has the same
        # baseline; a start offset drawn from the reset seed gives each
        # episode its own, which a slot must carry into the next call
        real_reset = env2d.reset

        def offset_reset(config, task, seed):
            state = real_reset(config, task, seed)
            rng = np.random.Generator(np.random.PCG64(seed))
            state.object_q[:2] += rng.uniform(-0.1, 0.1, 2)
            return state

        monkeypatch.setattr(env2d, "reset", offset_reset)
        self.check_calls_carry_over(task, encoder, seed=4)

    def check_calls_carry_over(self, task, encoder, seed):
        whole = collect_rollouts(*self.setup(task, encoder, seed))
        policy, slots, _, goal, ppo, options, rng = self.setup(task, encoder,
                                                               seed)
        half = replace(ppo, horizon=ppo.horizon // 2)
        halves = [collect_rollouts(policy, slots, encoder, goal, half, options,
                                   rng) for _ in range(2)]
        for key in ("obs", "actions", "masks", "log_probs"):
            assert np.array_equal(
                np.concatenate([part[key] for part in halves]), whole[key]), key
        assert (halves[0]["episode_successes"] + halves[1]["episode_successes"]
                == whole["episode_successes"])
        np.testing.assert_allclose(
            halves[0]["episode_returns"] + halves[1]["episode_returns"],
            whole["episode_returns"], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["lift-box", "move-box"])
    def test_embeds_each_distinct_frame_once(self, encoder, monkeypatch, name):
        args = self.setup(get_task(name), encoder, seed=2)
        rendered, embedded = [], []
        real_render, real_embed = render.render_batch, skillrl.embed_batch

        def counting_render(*a, **kw):
            frames = real_render(*a, **kw)
            rendered.extend(frame.pixels.tobytes() for frame in frames)
            return frames

        def counting_embed(encoder, frames):
            embedded.extend(frame.pixels.tobytes() for frame in frames)
            return real_embed(encoder, frames)

        monkeypatch.setattr(render, "render_batch", counting_render)
        monkeypatch.setattr(skillrl, "embed_batch", counting_embed)
        collect_rollouts(*args)
        assert len(embedded) == len(set(embedded))
        assert set(embedded) == set(rendered)
        if name == "move-box":
            assert len(embedded) < len(rendered)


class TestEpisodes:
    def test_recorded_trajectory_format(self, encoder):
        task = get_task("open-drawer")
        cfg = task.world_config()
        policy = init_policy(seed=0)
        traj = env2d.trajectory_record(task, run_policy_episode(policy, task,
                                                                cfg, seed=0))
        assert traj["task"] == "open-drawer"
        assert {"t", "proxy_pos", "phase", "object_q", "attachment"} <= set(traj["frames"][0])
        json.dumps(traj)  # must be serializable as the interchange format

    @pytest.mark.parametrize("name", sorted(env2d.builtin_catalogue()))
    def test_runners_report_consistent_outcomes(self, name):
        # policy seeds 0-4 include successes on open-drawer, close-drawer and
        # close-door, and failures everywhere; experts always succeed
        task = get_task(name)
        cfg = SkillOptions().world_config(task)
        runs = [(cfg, run_policy_episode(init_policy(seed), task, cfg, seed))
                for seed in range(5)]
        expert_cfg = task.world_config(start_jitter=0.1, episode_horizon=300)
        runs.append((expert_cfg, demogen.run_expert_episode(
            task, expert_cfg, 3, noise_scale=0.05)))
        for config, ep in runs:
            assert ep.success == env2d.is_success(ep.final_state, task)
            assert ep.steps == len(ep.actions) == len(ep.events)
            assert len(ep.states) == ep.steps + 1
            assert (ep.steps == config.episode_horizon) == (not ep.success)


class TestDeterministicAction:
    @pytest.mark.parametrize("routing", [skillrl.ROUTING_TWO_PHASE,
                                         skillrl.ROUTING_FLAT])
    @pytest.mark.parametrize("name", sorted(env2d.builtin_catalogue()))
    def test_equals_masked_means_bit_for_bit(self, name, routing):
        task = get_task(name)
        cfg = task.world_config(start_jitter=0.1, episode_horizon=300)
        states = demogen.run_expert_episode(task, cfg, 2, noise_scale=0.05).states
        rows = [env2d.observe(s, task.object) for s in states[::3]]
        assert {row[env2d.OBS_PHASE_INDEX] for row in rows} == {0.0, 1.0}
        # the phase flag alone routes: set it apart from the attachment flag,
        # on and off the 0.5 threshold
        for flag in (0.0, 0.5, math.nextafter(0.5, 1.0), 1.0, math.nan):
            rows += [np.where(np.arange(skillrl.OBS_DIM) == env2d.OBS_PHASE_INDEX,
                              flag, row) for row in rows[::4]]
        for seed in range(4):
            policy = init_policy(seed, routing=routing)
            for obs in rows:
                action = skillrl.deterministic_action(policy, obs)
                expected = np.where(skillrl.head_mask(policy, obs),
                                    skillrl.action_means(policy, obs)[0], 0.0)[0]
                got = [*action.desired_pos, *action.force]
                assert all(type(v) is float for v in got)
                assert np.array(got).tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
    def test_rejects_bad_temperature_naming_it(self, value):
        with pytest.raises(nc.ConfigurationError,
                           match=re.escape(f"temperature must be positive or inf, "
                                           f"got {value}")):
            progress_weights(np.array([-3.0]), np.array([-2.0]), value)

    @pytest.mark.parametrize("field, value", [
        ("minibatch_size", 0), ("epochs", -1)])
    def test_fit_rejects_bad_setting_naming_it(self, encoder, expert_clips,
                                               field, value):
        goal = make_goal(get_task("move-box"), "front", encoder)
        with pytest.raises(nc.ConfigurationError,
                           match=re.escape(f"{field} must be") + ".*"
                           + re.escape(f"got {value}")):
            skillrl.awr_fit(expert_clips, encoder, goal, temperature=0.5,
                            **{"epochs": 1, field: value})

    def test_fit_embeds_each_distinct_frame_once(self, encoder, expert_clips,
                                                 monkeypatch):
        rows = []
        real = skillrl.embed_batch

        def counting(enc, frames):
            rows.append(len(frames))
            return real(enc, frames)

        monkeypatch.setattr(skillrl, "embed_batch", counting)
        goal = make_goal(get_task("move-box"), "front", encoder)
        # the repeated clip brings no frame the fit has not scored
        demos = expert_clips + expert_clips[:1]
        skillrl.awr_fit(demos, encoder, goal, temperature=0.5, epochs=0)
        seen, expected = set(), []
        for clip in expert_clips:
            keys = {f.pixels.tobytes() for f in clip.frames} - seen
            seen |= keys
            expected.append(len(keys))
        assert rows == expected
        assert sum(rows) < sum(clip.n_c for clip in expert_clips)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        policy = init_policy(seed=seed)
        batch = synthetic_batch(policy, 8, seed=200 + seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        weights = progress_weights(rng.normal(-3.0, 1.0, 8),
                                   rng.normal(-3.0, 1.0, 8), 0.5)
        # demo actions away from the policy's own samples, in range
        acts = rng.uniform(-1.0, 1.0, (8, 4)) * policy.action_scales
        wsum = float(weights.sum()) + 1.5

        def loss_of(params):
            numcheck.assign(policy.actor.parameters(), params)
            loss, _ = skillrl._awr_loss_and_grads(policy, batch["obs"], acts,
                                                  weights, wsum)
            return loss

        params = [p.copy() for p in policy.actor.parameters()]
        fd = numcheck.finite_diff_grad(loss_of, params, step=1e-5)
        numcheck.assign(policy.actor.parameters(), params)
        _, exact = skillrl._awr_loss_and_grads(policy, batch["obs"], acts,
                                               weights, wsum)
        for a, b in zip(exact, fd):
            assert numcheck.normed_relative_error(a, b) < 1e-4


class TestCurveLog:
    def test_curve_cells_are_row_reprs(self, encoder, tmp_path):
        task = get_task("open-drawer")
        ppo = PpoConfig(rollout_envs=2, horizon=16, epochs=1,
                        minibatch_size=16, total_env_steps=64)
        options = SkillOptions(episode_horizon=20, eval_every=32,
                               eval_episodes=1, early_stop=False)
        _, curve = skillrl.train_skill(task, encoder, ppo, options,
                                       out_dir=tmp_path)
        keys = ("env_steps", "mean_return", "eval_success")
        lines = [",".join(keys)]
        lines += [",".join(repr(row[k]) for k in keys) for row in curve]
        assert len(curve) == 2
        assert (tmp_path / "curve.csv").read_bytes() == \
            "".join(line + "\r\n" for line in lines).encode()


def _copy(out, source, target):
    (out / target).write_bytes((out / source).read_bytes())


# case -> (edit of a saved policy directory, file named, message after it)
FOREIGN_POLICY_FILES = {
    "critic_as_actor": (
        lambda out, p: _copy(out, "critic.ckpt", "actor.ckpt"), "actor.ckpt",
        "layer_sizes is [12, 64, 64, 1], expected [12, 64, 64, 4]"),
    "encoder_as_actor": (
        lambda out, p: reprlearn.save_encoder(out / "actor.ckpt",
                                              reprlearn.init_encoder(0)),
        "actor.ckpt",
        "layer_sizes is [1024, 256, 128, 32], expected [12, 64, 64, 4]"),
    "no_log_std": (
        lambda out, p: nc.save_checkpoint(out / "actor.ckpt", p.actor, 0, 0),
        "actor.ckpt", "log_std is missing, expected 4 values"),
    "short_log_std": (
        lambda out, p: nc.save_checkpoint(
            out / "actor.ckpt", p.actor, 0, 0,
            trailing=[("log_std", p.log_std[:3])]),
        "actor.ckpt", "log_std is 3 values, expected 4 values"),
    "actor_as_critic": (
        lambda out, p: _copy(out, "actor.ckpt", "critic.ckpt"), "critic.ckpt",
        "layer_sizes is [12, 64, 64, 4], expected [12, 64, 64, 1]"),
    "relu_critic": (
        lambda out, p: nc.save_checkpoint(out / "critic.ckpt", nc.init_mlp(
            skillrl.CRITIC_LAYERS, ["relu", "relu", "identity"], 0), 0, 0),
        "critic.ckpt", "activations is ['relu', 'relu', 'identity'], "
                       "expected ['tanh', 'tanh', 'identity']"),
}


class TestPolicyIO:
    def test_save_load_round_trip(self, tmp_path):
        policy = init_policy(seed=8)
        skillrl.save_policy(tmp_path, policy, seed=8, step_count=42)
        manifest = json.loads((tmp_path / "policy.json").read_text())
        assert sorted(manifest) == ["format_version", "obs_dim", "routing"]
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

    @pytest.mark.parametrize("name, value, message", [
        ("obs_dim", 7, "obs_dim is 7, expected 12"),
        ("format_version", 99, "format_version is 99, expected 1"),
        ("routing", "bogus",
         "routing is 'bogus', expected one of ['flat', 'two_phase']"),
        # the bounds are fixed in code; an older manifest that carries them
        # is refused, not silently reread
        ("action_scales", [1.0, 1.0, 20.0, 20.0],
         "unknown manifest keys ['action_scales']"),
        ("camera", "front", "unknown manifest keys ['camera']"),
    ], ids=["obs_dim", "format_version", "routing", "extra_action_scales",
            "unknown_key"])
    def test_load_rejects_bad_manifest_field(self, tmp_path, name, value,
                                             message):
        skillrl.save_policy(tmp_path, init_policy(seed=8))
        path = tmp_path / "policy.json"
        manifest = json.loads(path.read_text())
        manifest[name] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(nc.ConfigurationError,
                           match=re.escape(f"{path}: {message}")):
            skillrl.load_policy(tmp_path)


    @pytest.mark.parametrize("case", sorted(FOREIGN_POLICY_FILES))
    def test_load_rejects_foreign_network_naming_it(self, tmp_path, case):
        policy = init_policy(seed=8)
        skillrl.save_policy(tmp_path, policy)
        edit, name, message = FOREIGN_POLICY_FILES[case]
        edit(tmp_path, policy)
        with pytest.raises(nc.ConfigurationError,
                           match=re.escape(f"{tmp_path / name}: {message}")):
            skillrl.load_policy(tmp_path)

    @pytest.mark.parametrize("log_std", [
        [math.nan, 5.0, -50.0, 0.0], [0.0, 0.0, math.inf, 0.0],
        # the float32 neighbours of the bounds, which a checkpoint keeps
        [-0.7, -0.7, 1.0, float(np.nextafter(np.float32(1.0), np.float32(2.0)))],
        [float(np.nextafter(np.float32(-5.0), np.float32(-6.0))), 0.0, 0.0, 0.0]],
        ids=["nan_and_outside", "inf", "above_max", "below_min"])
    def test_load_rejects_log_std_outside_bounds_naming_it(self, tmp_path,
                                                           log_std):
        policy = init_policy(seed=8)
        policy.log_std = np.array(log_std)
        skillrl.save_policy(tmp_path, policy)
        saved = np.array(log_std, dtype=np.float32).astype(float).tolist()
        with pytest.raises(nc.ConfigurationError, match=re.escape(
                f"{tmp_path / 'actor.ckpt'}: log_std is {saved}, expected "
                f"values in [{skillrl.LOG_STD_MIN}, {skillrl.LOG_STD_MAX}]")):
            skillrl.load_policy(tmp_path)

    def test_load_accepts_log_std_at_bounds(self, tmp_path):
        # both bounds are exact in float32, so a projected log_std survives
        policy = init_policy(seed=8)
        bounds = [skillrl.LOG_STD_MIN, skillrl.LOG_STD_MAX]
        policy.log_std = np.array(bounds * 2)
        skillrl.save_policy(tmp_path, policy)
        assert skillrl.load_policy(tmp_path).log_std.tolist() == bounds * 2


class TestConfig:
    @pytest.mark.parametrize("field", ["rollout_envs", "horizon", "epochs",
                                       "minibatch_size", "total_env_steps"])
    def test_ppo_rejects_below_one_naming_field(self, field):
        with pytest.raises(nc.ConfigurationError, match=field):
            PpoConfig(**{field: 0})
        PpoConfig(**{field: 1})

    @pytest.mark.parametrize("field, value", [
        ("total_env_steps", 0), ("total_env_steps", -5)])
    def test_ppo_rejects_bad_hyperparameter_naming_it(self, field, value):
        with pytest.raises(nc.ConfigurationError,
                           match=re.escape(f"{field} must be") + ".*"
                           + re.escape(f"got {value}")):
            PpoConfig(**{field: value})

    @pytest.mark.parametrize("config, field, value", [
        (SkillOptions, "eval_every", -5),
        (SkillOptions, "eval_episodes", 0)])
    def test_skill_config_rejects_bad_field_naming_it(self, config, field,
                                                      value):
        with pytest.raises(nc.ConfigurationError,
                           match=re.escape(f"{field} must be") + ".*"
                           + re.escape(f"got {value}")):
            config(**{field: value})

    @pytest.mark.parametrize("camera", ["nope", "Front", ""])
    def test_skill_options_reject_unknown_camera_naming_it(self, camera):
        with pytest.raises(nc.ConfigurationError,
                           match=re.escape(f"unknown camera {camera!r}; available: "
                                           "['front', 'left', 'right']")):
            SkillOptions(camera=camera)

    def test_skill_config_accepts_least_values(self):
        SkillOptions(eval_every=1, eval_episodes=1)

    def test_evaluate_policy_rejects_zero_episodes(self):
        task = get_task("open-drawer")
        config = SkillOptions().world_config(task)
        with pytest.raises(nc.ConfigurationError, match="episodes"):
            skillrl.evaluate_policy(init_policy(0), task, config, seed=0,
                                    episodes=0)

    @pytest.mark.parametrize("routing", ["tow_phase", "Flat", ""])
    def test_init_policy_rejects_unknown_routing(self, routing):
        with pytest.raises(nc.ConfigurationError,
                           match=re.escape(f"routing is {routing!r}, expected "
                                           "one of ['flat', 'two_phase']")):
            init_policy(0, routing=routing)

    @pytest.mark.parametrize("routing, active", [
        ("two_phase", [[1, 1, 0, 0], [0, 0, 1, 1]]),
        ("flat", [[1, 1, 1, 1], [1, 1, 1, 1]]),
    ])
    def test_head_mask_routes_by_phase(self, routing, active):
        phases = np.array([0.0, 1.0, 1.0, 0.0, np.nan])
        obs = np.zeros((phases.size, skillrl.OBS_DIM))
        obs[:, env2d.OBS_PHASE_INDEX] = phases
        mask = skillrl.head_mask(init_policy(0, routing=routing), obs)
        expected = np.array(active, dtype=bool)[[0, 1, 1, 0, 0]]
        assert mask.dtype == bool and np.array_equal(mask, expected)
        assert np.array_equal(
            skillrl.head_mask(init_policy(0, routing=routing), obs[1]),
            expected[1:2])
