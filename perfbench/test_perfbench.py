"""Tests of the benchmark itself: every workload runs at a tiny size with all
of its checks, and every check rejects a corrupted output.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from proxymanip import demogen, env2d, render, reprlearn, retarget, skillrl  # noqa: E402

RATES = {"demos.frames_per_s", "encoder.steps_per_s", "retarget.frames_per_s",
         "skill.env_steps_per_s", "skill.eval_steps_per_s"}


def tiny(workload):
    return replace(workload, skill_budget=2048, eval_episodes=1, clips_per_task=1,
                   encoder_steps=10, retarget_per_task=1)


@pytest.fixture
def patched():
    checker = checks.Checker()
    patches = tracing.Patches(checker)
    yield checker, patches
    patches.restore()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_round_passes_every_check(name, tmp_path, patched):
    checker, patches = patched
    patches.install(None)
    session = workloads.Session(tiny(workloads.WORKLOADS[name]), 3, tmp_path, checker)
    session.setup()
    assert session.run_round(0) > 0
    assert checker.errors == []
    assert session.failed == 0
    assert session.attempted == 6 + 10 + 6 + 1 + 1
    assert set(session.rates) == RATES
    assert checker.seconds > 0


def test_traced_round_reports_every_layer(tmp_path, patched):
    checker, patches = patched
    tracer = tracing.Tracer(checker)
    patches.install(tracer)
    # two PPO iterations, so every env ends an episode at the horizon
    workload = replace(tiny(workloads.WORKLOADS["skill-lift-box"]), skill_budget=4096)
    session = workloads.Session(workload, 0, tmp_path, checker)
    session.setup()
    session.run_round(0)
    patches.restore()
    assert checker.errors == []
    metrics = tracing.layer_metrics(tracer, 1)
    for name, (span, _, _) in tracing.SPAN_METRICS.items():
        assert tracer.stats[span].calls > 0, name
        assert metrics[name]["value"] > 0, name
    assert 0.5 < metrics["env2d.step.object_q_unchanged_frac"]["value"] <= 1.0
    assert metrics["skillrl.episodes_finished"]["value"] >= 16
    # self time is the span minus its children
    st = tracer.stats["skillrl.collect_rollouts"]
    assert 0 < st.self_s < st.total_s
    assert all(getattr(m, a) is patches.originals[(m, a)]
               for m, a in patches.originals)


def test_command_prints_result_last(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "skill-move-box",
                        tiny(workloads.WORKLOADS["skill-move-box"]))
    for trace, expected in ((0, {"setup_s", "peak_rss_mb"} | RATES),
                            (1, set(tracing.SPAN_METRICS) | {
                                "env2d.step.object_q_unchanged_frac",
                                "skillrl.episodes_finished", "trace.overhead_pct"})):
        argv = ["--workload", "skill-move-box", "--seed", "5", "--seconds", "0",
                "--trace", str(trace)]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == expected
    assert not list(tmp_path.glob("work-*"))
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in declared["per_layer"]} == expected
    assert {m["name"] for m in declared["end_to_end"]} == {"setup_s", "peak_rss_mb"} | RATES
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_raising_stage_fails_its_operations_and_the_run(tmp_path, patched):
    checker, _ = patched
    session = workloads.Session(workloads.WORKLOADS["skill-lift-box"], 0, tmp_path,
                                checker)

    def broken():
        raise RuntimeError("boom")

    assert session._stage(broken, 3) == 0.0
    assert (session.attempted, session.failed) == (3, 3)
    assert checker.errors and "boom" in checker.errors[0]


def test_missing_declared_metric_makes_the_run_incorrect(tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "skill-lift-box",
                        tiny(workloads.WORKLOADS["skill-lift-box"]))
    monkeypatch.setattr(run, "slow_quarter", lambda rates: 1.0)
    monkeypatch.setattr(run, "cold_setup_s", lambda args: 1.0)
    monkeypatch.setattr(workloads.Session, "evaluate", lambda self, rs: 1.0)
    argv = ["--workload", "skill-lift-box", "--seed", "0", "--seconds", "0",
            "--trace", "0"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "skill.eval_steps_per_s" not in result["metrics"]
    assert result["correct"] is False


def test_spans_leave_out_check_and_hook_time():
    checker = checks.Checker()
    tracer = tracing.Tracer(checker)

    def check():
        time.sleep(0.2)
        return []

    inner = tracer.wrap("inner", lambda: None,
                        lambda tr, args, result: time.sleep(0.2))
    outer = tracer.wrap("outer", lambda: (inner(), checker._timed(check)))
    outer()
    st = tracer.stats["outer"]
    assert 0 <= st.self_s <= st.total_s < 0.05


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "skill-move-box", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# Each check rejects a corrupted output
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rollout():
    task = env2d.get_task("lift-box")
    encoder = reprlearn.init_encoder(0)
    options = skillrl.SkillOptions()
    goal = skillrl.make_goal(task, options.camera, encoder)
    ppo = skillrl.PpoConfig(rollout_envs=4, horizon=32)
    slots = skillrl.make_env_slots(task, options, encoder, goal, 4, 0)
    policy = skillrl.init_policy(0)
    rng = np.random.Generator(np.random.PCG64(0))
    batch = skillrl.collect_rollouts(policy, slots, encoder, goal, ppo, options, rng)
    return task, policy, batch


def corrupted(batch, key, fn):
    out = dict(batch)
    out[key] = batch[key].copy()
    fn(out[key])
    return out


def test_rollout_check(rollout):
    task, policy, batch = rollout
    assert checks.rollout_batch(policy, task, batch) == []
    obs = batch["obs"]
    exploring = np.flatnonzero(obs[:, env2d.OBS_PHASE_INDEX] == 0.0)
    assert exploring.size
    r = int(exploring[0])

    def inactive(a):
        a[r, 2] = 0.1

    def logp(a):
        a[r] += 1e-6

    def pose(a):
        a[r, 5] = np.nextafter(a[r, 5], 1.0)

    def mask(a):
        a[r] = ~a[r]

    for key, fn, message in (("actions", inactive, "inactive"),
                             ("log_probs", logp, "log-probs"),
                             ("obs", pose, "pose changed"),
                             ("masks", mask, "head mask")):
        errors = checks.rollout_batch(policy, task, corrupted(batch, key, fn))
        assert any(message in e for e in errors), (key, errors)


def test_masked_frame_check():
    task = env2d.get_task("move-box")
    state = env2d.reset(task.world_config(), task, 0)
    frame = render.render(state, task.object, render.camera_spec("front"), "none")
    assert checks.masked_frames([frame]) == []
    frame.pixels[10, 10] = render.INTENSITY_AGENT
    assert checks.masked_frames([frame]) != []


@pytest.mark.parametrize("name", ["open-drawer", "move-box"])
def test_success_check(name):
    task = env2d.get_task(name)
    state = env2d.reset(task.world_config(), task, 0)
    state.object_q = np.array(task.target_q, dtype=float)
    assert checks.reported_success(task, state) == []
    state.object_q[0] += 1.01 * task.tolerance
    assert checks.reported_success(task, state) != []


def test_final_state_check():
    policy = skillrl.init_policy(0)
    curve = [{"env_steps": 4096}]
    assert checks.final_state(policy, curve, 4096) == []
    assert checks.final_state(policy, curve, 8192) != []
    bad = policy.copy()
    bad.log_std[0] = skillrl.LOG_STD_MAX + 1e-9
    assert checks.final_state(bad, curve, 4096) != []
    bad = policy.copy()
    bad.actor.weights[0][0, 0] = math.nan
    assert checks.final_state(bad, curve, 4096) != []


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("demos")
    tasks = [env2d.get_task(n) for n in ("open-drawer", "lift-box")]
    generated = demogen.generate_dataset(tasks, 2, 0.05, "none", 1, out_dir=root)
    return generated, root


def test_demos_check(dataset):
    generated, root = dataset
    catalogue = env2d.builtin_catalogue()
    assert checks.demos(catalogue, generated, demogen.load_dataset(root)) == []
    loaded = demogen.load_dataset(root)
    loaded.clips[1].frames[3].pixels[0, 0] ^= 1
    assert checks.demos(catalogue, generated, loaded) != []
    loaded = demogen.load_dataset(root)
    loaded.clips[0].states[2]["proxy_pos"][0] += 1e-12
    assert checks.demos(catalogue, generated, loaded) != []
    loaded = demogen.load_dataset(root)
    loaded.clips[0].states[-1]["object_q"][0] = 0.0     # drawer left shut
    assert checks.demos(catalogue, loaded, loaded) != []


def test_encoder_check(dataset, tmp_path):
    generated, _ = dataset
    cfg = reprlearn.ReprTrainConfig(batch_size=16, total_steps=10, seed=0,
                                    checkpoint_every=5)
    trained, log = reprlearn.train_encoder(generated, cfg, tmp_path)
    frames = [c.frames[0] for c in generated.clips]
    reloaded = reprlearn.load_encoder(tmp_path / "encoder.ckpt")
    assert checks.encoder(log, trained, reloaded, frames) == []
    assert checks.encoder(log[::-1], trained, reloaded, frames) != []
    reloaded.net.weights[1][0, 0] += 1e-3
    assert checks.encoder(log, trained, reloaded, frames) != []


@pytest.fixture(scope="module")
def retargeted():
    task = env2d.get_task("open-door")
    traj = workloads.record_episode(task, 4)
    arm = retarget.default_arm()
    out = retarget.retarget_trajectory(traj, arm, task.object)
    return task, traj, arm, out


def _check(task, traj, arm, out, replay_ok=True):
    return checks.retargeted(traj, out, arm, task.object, replay_ok,
                             retarget.IK_POS_TOL, retarget.IK_ORI_TOL)


def test_retarget_check(retargeted):
    task, traj, arm, out = retargeted
    assert _check(task, traj, arm, out) == []
    assert _check(task, traj, arm, out, replay_ok=False) != []
    snap = out.phase_markers[0]
    for index, message in ((1, "target position"), (snap + 1, "target position")):
        bad = replace(out, joint_angles=list(out.joint_angles))
        bad.joint_angles[index] = bad.joint_angles[index] + np.array([1e-3, 0.0, 0.0])
        assert any(message in e for e in _check(task, traj, arm, bad))
    bad = replace(out, joint_angles=list(out.joint_angles))
    bad.joint_angles[snap] = bad.joint_angles[snap] + np.array([0.0, 0.0, 1e-3])
    assert any("orientation" in e for e in _check(task, traj, arm, bad))
    bad = replace(out, joint_angles=list(out.joint_angles))
    bad.joint_angles[0] = np.array([arm.joint_limits[0][0] - 1e-3, 0.0, 0.0])
    assert any("joint limits" in e for e in _check(task, traj, arm, bad))
    bad = replace(out, events=out.events + [["discontinuity", 3, 0.25]])
    assert any("discontinuities" in e for e in _check(task, traj, arm, bad))
