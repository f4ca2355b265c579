"""The benchmark's workloads and the stages each round runs.

Every round runs every stage once, so every end-to-end metric is measured on
every workload, and each stage is sampled across the whole run rather than
in one slice of it. The workloads differ in the task the skill is trained
on; the stages are the same size in both, each about a second long, so that
no rate rests on a few short samples.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from proxymanip import demogen, env2d, reprlearn, retarget, skillrl

TASK_ORDER = ("open-drawer", "close-drawer", "open-door", "close-door",
              "move-box", "lift-box")
START_JITTER = 0.1       # expert episodes: demos and retarget inputs
ACTION_NOISE = 0.05
ENCODER_BATCH = 64
ITERATION_STEPS = skillrl.PpoConfig().rollout_envs * skillrl.PpoConfig().horizon
TRAIN_EVAL_EPISODES = 2  # train_skill's own evaluation round, at the budget
# two rollouts of 128 steps: every env finishes one episode per training run,
# so the reset path runs (at the default 400, a 4,096-step budget ends none)
EPISODE_HORIZON = 256
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    """What a round runs; BENCHMARK.json says why each workload is there."""

    name: str
    skill_task: str
    skill_budget: int = 4096     # env steps of one train_skill call, 2 PPO iterations
    eval_episodes: int = 16      # evaluate_policy episodes after training
    clips_per_task: int = 2      # demos over all six tasks
    encoder_steps: int = 24      # train_encoder steps at batch 64
    retarget_per_task: int = 4   # expert trajectories retargeted per task


WORKLOADS = {w.name: w for w in (Workload("skill-lift-box", "lift-box"),
                                 Workload("skill-move-box", "move-box"))}


def round_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def skill_options(budget: int) -> skillrl.SkillOptions:
    return skillrl.SkillOptions(early_stop=False, eval_every=budget,
                                eval_episodes=TRAIN_EVAL_EPISODES,
                                episode_horizon=EPISODE_HORIZON)


def record_episode(task, seed: int) -> dict:
    """An expert episode in the retargeting interchange format."""
    cfg = task.world_config(start_jitter=START_JITTER)
    rec = demogen.run_expert_episode(task, cfg, seed, noise_scale=ACTION_NOISE)
    frames = [{"t": s.time_step,
               "proxy_pos": [float(v) for v in s.proxy_pos],
               "phase": int(s.phase),
               "attachment": s.attachment,
               "object_q": [float(v) for v in s.object_q]} for s in rec.states]
    return {"task": task.name, "success": rec.success, "frames": frames,
            "events": []}


class Session:
    """One run of one workload: set-up, then whole rounds of every stage.

    Stage times leave out the checker's own time. ``rates`` holds one value
    per round for each end-to-end rate.
    """

    def __init__(self, workload: Workload, seed: int, work_dir: Path,
                 checker: checks.Checker):
        self.w = workload
        self.seed = seed
        self.work = Path(work_dir)
        self.checker = checker
        self.arm = retarget.default_arm()
        self.rates: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Catalogue, the first round's encoder, goal and env slots, and the
        recorded retarget inputs."""
        self.tasks = env2d.builtin_catalogue()
        task = self.tasks[self.w.skill_task]
        options = skill_options(self.w.skill_budget)
        encoder = reprlearn.init_encoder(round_seed(self.seed, 0))
        goal = skillrl.make_goal(task, options.camera, encoder)
        skillrl.make_env_slots(task, options, encoder, goal,
                               skillrl.PpoConfig().rollout_envs, self.seed)
        self.retarget_inputs = [
            (self.tasks[name], record_episode(self.tasks[name],
                                              round_seed(self.seed, 1000 + 100 * ti + j)))
            for ti, name in enumerate(TASK_ORDER)
            for j in range(self.w.retarget_per_task)]

    # -- rounds ------------------------------------------------------------

    def _timed(self, fn, *args, **kwargs):
        c0 = self.checker.seconds
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0 - (self.checker.seconds - c0)

    def _rate(self, metric: str, work: float, seconds: float) -> None:
        self.rates.setdefault(metric, []).append(work / seconds)

    def _stage(self, fn, ops: int, *args) -> float:
        """Run a stage; one that raises fails all of its operations and makes
        the run incorrect."""
        self.attempted += ops
        before = self.checker.failed_ops
        try:
            seconds = fn(*args)
        except Exception as exc:  # a failed stage is counted, and the run goes on
            traceback.print_exc()
            self.checker.errors.append(f"{fn.__name__} raised {exc!r}")
            self.failed += ops
            return 0.0
        self.failed += min(ops, self.checker.failed_ops - before)
        return seconds

    def run_round(self, index: int) -> float:
        """One round of every stage; returns its timed seconds."""
        rs = round_seed(self.seed, index)
        w = self.w
        n_tasks = len(TASK_ORDER)
        self.dataset = self.policy = None
        # a fresh directory per round: deleting the last round's files just
        # before writing new ones made the writes three times slower and
        # as noisy; the run deletes them all when it ends
        self.passes += 1
        out = self.work / f"pass-{self.passes}"
        return (self._stage(self.demos, n_tasks * w.clips_per_task, rs, out / "demos")
                + self._stage(self.encoder, w.encoder_steps, rs, out / "encoder")
                + self._stage(self.retarget, len(self.retarget_inputs))
                + self._stage(self.skill, w.skill_budget // ITERATION_STEPS, rs)
                + self._stage(self.evaluate, w.eval_episodes, rs))

    def demos(self, rs: int, out: Path) -> float:
        """Expert clips of every task, timed; then the disk round trip,
        checked but not timed. A save of the same 12 clips took from 0.05 s
        to 0.25 s on the shared disk, round to round, so a rate that counted
        it would swing with the disk, not with the program. The traced run
        times save and load per call."""
        tasks = [self.tasks[name] for name in TASK_ORDER]
        generated, seconds = self._timed(demogen.generate_dataset, tasks,
                                         self.w.clips_per_task, ACTION_NOISE,
                                         "none", rs)
        self._rate("demos.frames_per_s", sum(c.n_c for c in generated.clips), seconds)
        demogen.save_dataset(generated, out)
        loaded = demogen.load_dataset(out)
        self.checker.record(checks.demos(self.tasks, generated, loaded),
                            len(generated.clips))
        self.dataset = loaded
        return seconds

    def encoder(self, rs: int, out: Path) -> float:
        """Pretraining, then one float32 checkpoint. Training runs without an
        output directory: its float64 resume sidecar (7 MB a checkpoint)
        would be most of the bytes a round puts on the shared disk, whose
        write times swing fourfold."""
        steps = self.w.encoder_steps
        cfg = reprlearn.ReprTrainConfig(batch_size=ENCODER_BATCH, total_steps=steps,
                                        seed=rs)
        path = out / "encoder.ckpt"

        def train():
            trained, log = reprlearn.train_encoder(self.dataset, cfg)
            out.mkdir(parents=True)
            reprlearn.save_encoder(path, trained, seed=rs, step_count=steps)
            return trained, log

        (trained, log), seconds = self._timed(train)
        self._rate("encoder.steps_per_s", steps, seconds)
        reloaded = reprlearn.load_encoder(path)
        sample = [clip.frames[0] for clip in self.dataset.clips]
        self.checker.record(checks.encoder(log, trained, reloaded, sample), steps)
        return seconds

    def retarget(self) -> float:
        def run_all():
            outs = []
            for task, traj in self.retarget_inputs:
                out = retarget.retarget_trajectory(traj, self.arm, task.object)
                outs.append((out, retarget.replay_retargeted(out, task, self.arm)))
            return outs

        outs, seconds = self._timed(run_all)
        frames = sum(len(traj["frames"]) for _, traj in self.retarget_inputs)
        self._rate("retarget.frames_per_s", frames, seconds)
        for (task, traj), (out, ok) in zip(self.retarget_inputs, outs):
            self.checker.record(checks.retargeted(
                traj, out, self.arm, task.object, ok,
                retarget.IK_POS_TOL, retarget.IK_ORI_TOL))
        return seconds

    def skill(self, rs: int) -> float:
        task = self.tasks[self.w.skill_task]
        budget = self.w.skill_budget
        ppo = skillrl.PpoConfig(total_env_steps=budget, seed=rs)
        options = skill_options(budget)
        encoder = reprlearn.init_encoder(rs)
        (policy, curve), seconds = self._timed(skillrl.train_skill, task, encoder,
                                               ppo, options)
        self._rate("skill.env_steps_per_s", budget, seconds)
        self.checker.record(checks.final_state(policy, curve, budget),
                            budget // ITERATION_STEPS)
        self.policy = policy
        return seconds

    def evaluate(self, rs: int) -> float:
        task = self.tasks[self.w.skill_task]
        config = skill_options(self.w.skill_budget).world_config(task)
        steps0 = self.checker.eval_steps
        _, seconds = self._timed(skillrl.evaluate_policy, self.policy, task, config,
                                 rs, self.w.eval_episodes)
        self._rate("skill.eval_steps_per_s", self.checker.eval_steps - steps0, seconds)
        return seconds
