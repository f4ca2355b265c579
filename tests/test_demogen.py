import collections
import hashlib
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from proxymanip import demogen, env2d
from proxymanip.demogen import (
    generate_dataset, load_dataset, run_expert_episode, sample_tcn_batch,
    scripted_expert,
)
from proxymanip.env2d import builtin_catalogue, get_task
from proxymanip.numcore import ConfigurationError, derive_seed

BAD_NOISE = [-0.1, math.nan, math.inf, -math.inf]


def small_tasks():
    cat = builtin_catalogue()
    return [cat["open-drawer"], cat["move-box"]]


def tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestExperts:
    def test_open_drawer_reaches_target(self):
        task = get_task("open-drawer")
        rec = run_expert_episode(task, task.world_config(), seed=0)
        assert rec.success
        assert rec.states[-1].object_q[0] >= 0.25

    def test_close_door_reaches_target(self):
        task = get_task("close-door")
        rec = run_expert_episode(task, task.world_config(), seed=0)
        assert rec.success
        assert abs(rec.states[-1].object_q[0]) <= task.tolerance

    def test_lift_box_holds_height_against_gravity(self):
        task = get_task("lift-box")
        rec = run_expert_episode(task, task.world_config(), seed=0)
        assert rec.success
        err = np.hypot(rec.states[-1].object_q[0] - task.target_q[0],
                       rec.states[-1].object_q[1] - task.target_q[1])
        assert err <= task.tolerance

    @pytest.mark.parametrize("name", sorted(builtin_catalogue()))
    def test_all_tasks_solvable_with_noise_and_jitter(self, name):
        task = get_task(name)
        cfg = task.world_config(start_jitter=0.1)
        rec = run_expert_episode(task, cfg, seed=5, noise_scale=0.05)
        assert rec.success

    @pytest.mark.parametrize("name", ["open-door", "move-box"])
    def test_noise_is_two_normal_draws_per_step(self, name):
        # episodes longer than one noise block, so blocks are refilled
        task = get_task(name)
        cfg = task.world_config(start_jitter=0.1)
        rec = run_expert_episode(task, cfg, seed=3, noise_scale=0.05)
        assert rec.steps > demogen.NOISE_BLOCK
        expert = scripted_expert(task)
        rng = np.random.Generator(np.random.PCG64(derive_seed(3, 1)))
        for state, action in zip(rec.states, rec.actions):
            clean = expert(state)
            p = np.asarray(clean.desired_pos) + rng.normal(0.0, 0.05, 2)
            f = np.asarray(clean.force) + rng.normal(0.0, 0.05 * cfg.force_max, 2)
            assert action.desired_pos == tuple(p)
            assert action.force == tuple(f)

    @pytest.mark.parametrize("noise", BAD_NOISE)
    def test_rejects_bad_noise_scale(self, noise):
        task = get_task("open-drawer")
        with pytest.raises(ConfigurationError,
                           match=f"noise_scale must be .*, got {noise}"):
            run_expert_episode(task, task.world_config(), seed=0,
                               noise_scale=noise)

    def test_expert_actions_respect_phase(self):
        task = get_task("open-drawer")
        policy = scripted_expert(task)
        cfg = task.world_config()
        s = env2d.reset(cfg, task, seed=0)
        act = policy(s)
        assert act.force == (0.0, 0.0)


class TestGenerateDataset:
    def test_clip_counts(self):
        ds = generate_dataset(small_tasks(), clips_per_task=3,
                              noise_scale=0.05, style="none", seed=1)
        assert ds.N == 6
        assert sorted(ds.index) == ["move-box", "open-drawer"]
        assert all(len(v) == 3 for v in ds.index.values())

    def test_zero_noise_identical_up_to_start(self):
        task = get_task("open-drawer")
        ds = generate_dataset([task], clips_per_task=2, noise_scale=0.0,
                              style="none", seed=3, start_jitter=0.0)
        qa = [s["object_q"] for s in ds.clips[0].states]
        qb = [s["object_q"] for s in ds.clips[1].states]
        assert qa == qb

    def test_style_none_has_no_agent_pixels(self):
        ds = generate_dataset(small_tasks(), clips_per_task=2,
                              noise_scale=0.05, style="none", seed=2)
        for clip in ds.clips:
            for frame in clip.frames:
                assert not (frame.pixels == 255).any()

    def test_hand_square_style_has_agent_pixels(self):
        ds = generate_dataset([get_task("open-drawer")], clips_per_task=1,
                              noise_scale=0.0, style="hand_square", seed=2)
        counts = [(f.pixels == 255).sum() for f in ds.clips[0].frames]
        assert max(counts) > 0

    def test_every_clip_ends_in_success(self):
        ds = generate_dataset(small_tasks(), clips_per_task=2,
                              noise_scale=0.1, style="none", seed=4)
        for clip in ds.clips:
            assert clip.success
            assert clip.n_c >= demogen.MIN_CLIP_FRAMES

    def test_cameras_cycle(self):
        ds = generate_dataset([get_task("open-drawer")], clips_per_task=4,
                              noise_scale=0.0, style="none", seed=5)
        cams = [c.camera_id for c in ds.clips]
        assert cams == ["front", "left", "right", "front"]

    def test_disk_round_trip_and_bitwise_regeneration(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        generate_dataset(small_tasks(), 2, 0.05, "none", seed=7, out_dir=d1)
        generate_dataset(small_tasks(), 2, 0.05, "none", seed=7, out_dir=d2)
        assert tree_hash(d1) == tree_hash(d2)
        loaded = load_dataset(d1)
        assert loaded.N == 4
        assert loaded.style == "none"
        again = generate_dataset(small_tasks(), 2, 0.05, "none", seed=7)
        for c_loaded, c_mem in zip(loaded.clips, again.clips):
            assert c_loaded.clip_id == c_mem.clip_id
            for fa, fb in zip(c_loaded.frames, c_mem.frames):
                assert np.array_equal(fa.pixels, fb.pixels)
            assert np.allclose(c_loaded.actions, c_mem.actions)

    @pytest.mark.parametrize("noise", BAD_NOISE)
    def test_rejects_bad_noise_scale(self, tmp_path, noise):
        with pytest.raises(ConfigurationError,
                           match=f"noise_scale must be .*, got {noise}"):
            generate_dataset(small_tasks(), 1, noise, "none", seed=0,
                             out_dir=tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("cameras, message", [
        ((), "cameras must name at least one camera, got ()"),
        (("front", "nope"), "unknown camera 'nope'; available: "
                            "['front', 'left', 'right']")])
    def test_rejects_bad_cameras_before_any_episode(self, monkeypatch, cameras,
                                                    message):
        def no_episode(*args, **kwargs):
            raise AssertionError("an expert episode ran")

        monkeypatch.setattr(demogen, "run_expert_episode", no_episode)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            generate_dataset(small_tasks(), 1, 0.0, "none", seed=0,
                             cameras=cameras)

    @pytest.mark.parametrize("clips_per_task", [0, -2])
    def test_rejects_clips_per_task_below_one(self, clips_per_task):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"clips_per_task must be at least 1, got {clips_per_task}")):
            generate_dataset(small_tasks(), clips_per_task, 0.0, "none", seed=0)

    # case -> (meta file edited: the dataset's or its first clip's, edit,
    # message after the file's path; {n} is the clip's frame count)
    BAD_META = {
        "no_clip_ids": ("dataset", lambda m: m.pop("clip_ids"),
                        "lacks keys ['clip_ids']"),
        "no_states": ("clip", lambda m: m.pop("states"),
                      "lacks keys ['states']"),
        "short_states": ("clip", lambda m: m.update(states=m["states"][:3]),
                         "states has 3 rows, expected n_c = {n}"),
        "short_actions": ("clip", lambda m: m.update(actions=m["actions"][:2]),
                          "actions has 2 rows, expected n_c = {n}"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_META))
    def test_load_rejects_bad_meta_naming_the_file(self, tmp_path, case):
        ds = generate_dataset([get_task("open-drawer")], 1, 0.0, "none",
                              seed=9, out_dir=tmp_path)
        which, edit, message = self.BAD_META[case]
        path = tmp_path / "meta.json"
        if which == "clip":
            path = tmp_path / f"clip_{ds.clips[0].clip_id}" / "meta.json"
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match=re.escape(
                f"{path}: {message.format(n=ds.clips[0].n_c)}")):
            load_dataset(tmp_path)

    def test_meta_layout(self, tmp_path):
        generate_dataset([get_task("open-drawer")], 2, 0.0, "none",
                         seed=9, out_dir=tmp_path / "ds")
        meta = json.loads((tmp_path / "ds" / "meta.json").read_text())
        assert set(meta) == {"style", "seed", "tasks", "clip_ids"}
        cdir = tmp_path / "ds" / f"clip_{meta['clip_ids'][0]}"
        cmeta = json.loads((cdir / "meta.json").read_text())
        assert {"task", "n_c", "success", "states"} <= set(cmeta)
        assert (cdir / "frame_000000.pgm").exists()


def stub_dataset(frame_counts, seed=0):
    """A dataset of clips with the given frame counts; the sampler reads
    only ``N`` and each clip's ``n_c``."""
    clips = [demogen.Clip(f"c{c}", "stub", "front", [None] * n, [],
                          np.zeros((n, 4)), True)
             for c, n in enumerate(frame_counts)]
    return demogen.DemoDataset(clips, "none", seed, {"stub": list(range(len(clips)))})


class TestTcnSampling:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_dataset(small_tasks(), clips_per_task=3,
                                noise_scale=0.05, style="none", seed=11)

    def test_temporal_order_always_holds(self, dataset):
        batch = sample_tcn_batch(dataset, 500, seed=0)
        n_c = np.array([c.n_c for c in dataset.clips])
        assert np.all(batch.i >= 0)
        assert np.all((batch.i < batch.j) & (batch.j < batch.k))
        assert np.all(batch.k < n_c[batch.clip_index])
        assert np.all((batch.l >= 0) & (batch.l < n_c[batch.neg_clip_index]))

    def test_negative_from_other_clip(self, dataset):
        batch = sample_tcn_batch(dataset, 500, seed=1)
        assert np.all(batch.neg_clip_index != batch.clip_index)

    def test_same_seed_same_batch(self, dataset):
        a = sample_tcn_batch(dataset, 64, seed=5)
        b = sample_tcn_batch(dataset, 64, seed=5)
        assert all(x.shape == (64,) and np.array_equal(x, y)
                   for x, y in zip(a, b))
        c = sample_tcn_batch(dataset, 64, seed=6)
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_short_clips_skipped(self, dataset):
        import copy
        ds = copy.copy(dataset)
        stub = copy.copy(dataset.clips[0])
        stub.frames = stub.frames[:2]
        ds.clips = [stub] + dataset.clips[1:]
        batch = sample_tcn_batch(ds, 200, seed=2)
        assert np.all(batch.clip_index != 0)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_rejects_empty_batch_naming_it(self, dataset, batch_size):
        with pytest.raises(ConfigurationError,
                           match=f"batch_size must be at least 1, got {batch_size}"):
            sample_tcn_batch(dataset, batch_size, seed=0)

    def test_draws_are_uniform(self):
        # Clips of 3, 4 and 5 frames, one 120,000-sample batch at a fixed
        # seed. Every frequency below is a share of a count m with expected
        # value p; each must lie within 5 standard errors, 5 sqrt(p(1-p)/m).
        sizes = (3, 4, 5)
        batch = sample_tcn_batch(stub_dataset(sizes), 120_000, seed=2024)

        def assert_uniform(values, outcomes, label):
            m, p = len(values), 1.0 / len(outcomes)
            counts = collections.Counter(values)
            assert set(counts) == set(outcomes), label
            bound = 5.0 * math.sqrt(p * (1.0 - p) / m)
            for outcome in outcomes:
                assert abs(counts[outcome] / m - p) <= bound, (label, outcome)

        assert_uniform(batch.clip_index.tolist(), range(3), "anchor clip")
        for c, n in enumerate(sizes):
            anchor = batch.clip_index == c
            triples = list(zip(batch.i[anchor].tolist(), batch.j[anchor].tolist(),
                               batch.k[anchor].tolist()))
            assert_uniform(triples, list(itertools.combinations(range(n), 3)),
                           f"3-subsets of clip {c}")
            assert_uniform(batch.neg_clip_index[anchor].tolist(),
                           [d for d in range(3) if d != c],
                           f"negative clip for anchor {c}")
            negative = batch.neg_clip_index == c
            assert_uniform(batch.l[negative].tolist(), range(n),
                           f"negative frame of clip {c}")
