import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numcheck
from proxymanip import numcore as nc
from proxymanip import render
from proxymanip import reprlearn as rl
from proxymanip.demogen import generate_dataset, goal_marker, sample_tcn_batch
from proxymanip.env2d import builtin_catalogue, get_task, reset


def small_dataset(style="none", seed=21, clips=2):
    cat = builtin_catalogue()
    tasks = [cat["open-drawer"], cat["move-box"]]
    return generate_dataset(tasks, clips_per_task=clips, noise_scale=0.05,
                            style=style, seed=seed)


SIX_TASKS = ("open-drawer", "close-drawer", "open-door", "close-door",
             "move-box", "lift-box")


def task_dataset(names, seed=101, clips=2):
    """Masked expert clips of the named tasks, as the benchmark draws them."""
    cat = builtin_catalogue()
    return generate_dataset([cat[n] for n in names], clips_per_task=clips,
                            noise_scale=0.05, style="none", seed=seed)


@pytest.fixture(scope="module")
def six_task_dataset():
    return task_dataset(SIX_TASKS)


def active_columns(dataset):
    return np.flatnonzero(np.any(
        [rl.preprocess_batch(c.frames).any(axis=0) for c in dataset.clips],
        axis=0))


def stacked_batch(pre, batch):
    """The (4B, in_dim) batch of a sampled batch, one row per slot, built
    sample by sample: anchor, positive, later and negative of each sample in
    turn."""
    rows = []
    for ci, i, j, k, ni, l in zip(*(a.tolist() for a in batch)):
        rows.extend((pre[ci][i], pre[ci][j], pre[ci][k], pre[ni][l]))
    return np.stack(rows)


def full_width_train_encoder(dataset, config):
    """rl.train_encoder as a loop over all input columns and every slot of
    the stacked batch: every step updates the full (1024, 256) W0 and its
    moments."""
    encoder = rl.init_encoder(config.seed)
    adam = nc.adam_init(encoder.net.parameters(), lr=config.lr)
    pre = [rl.preprocess_batch(clip.frames) for clip in dataset.clips]
    log = []
    for step in range(config.total_steps):
        samples = sample_tcn_batch(dataset, config.batch_size,
                                   nc.derive_seed(config.seed, 101, step))
        batch = stacked_batch(pre, samples)
        losses, _ = rl.train_step(encoder, batch, np.arange(len(batch)),
                                  config, adam)
        log.append({"step": step, **losses})
    return encoder, log


def assert_matches_full_width(log, encoder, oracle_log, oracle):
    assert [r["step"] for r in log] == [r["step"] for r in oracle_log]
    for row, want in zip(log, oracle_log):
        for key in ("total", "tcn", "reg"):
            assert row[key] == pytest.approx(want[key], rel=1e-12, abs=0)
    assert encoder.net.layer_sizes == rl.ENCODER_LAYER_SIZES
    for p, q in zip(encoder.net.parameters(), oracle.net.parameters()):
        assert np.allclose(p, q, rtol=0, atol=1e-12)


def one_dim(*values):
    return [np.array([float(v)]) for v in values]


# Per-sample loss oracles: the loop form of the objective that
# rl.batch_loss_and_grads computes over whole batches.

def tcn_loss(z_i, z_j, z_k, z_l) -> float:
    """Softmax cross-entropy over similarities: the (i, j) pair must win
    against (i, k) and the cross-clip (i, l). Log-sum-exp stabilized."""
    s = np.array([rl.similarity(z_i, z_j), rl.similarity(z_i, z_k),
                  rl.similarity(z_i, z_l)])
    m = float(s.max())
    return float(m + np.log(np.exp(s - m).sum()) - s[0])


def reg_loss(z) -> float:
    z = np.asarray(z, dtype=float)
    return float(np.abs(z).sum() + np.linalg.norm(z))


def _pair_unit(z_a, z_b):
    d = z_a - z_b
    n = float(np.linalg.norm(d))
    if n < rl._NORM_EPS:
        return np.zeros_like(d), 0.0
    return d / n, n


def tcn_loss_with_grads(z_i, z_j, z_k, z_l):
    """Loss plus exact gradients with respect to all four embeddings."""
    u_ij, _ = _pair_unit(z_i, z_j)
    u_ik, _ = _pair_unit(z_i, z_k)
    u_il, _ = _pair_unit(z_i, z_l)
    s = np.array([rl.similarity(z_i, z_j), rl.similarity(z_i, z_k),
                  rl.similarity(z_i, z_l)])
    m = float(s.max())
    e = np.exp(s - m)
    p = e / e.sum()
    loss = float(m + np.log(e.sum()) - s[0])
    ds = p.copy()
    ds[0] -= 1.0
    # d similarity / d z_anchor is -u, d / d z_other is +u
    g_i = -(ds[0] * u_ij + ds[1] * u_ik + ds[2] * u_il)
    g_j = ds[0] * u_ij
    g_k = ds[1] * u_ik
    g_l = ds[2] * u_il
    return loss, (g_i, g_j, g_k, g_l)


def reg_loss_with_grad(z):
    n = float(np.linalg.norm(z))
    loss = float(np.abs(z).sum() + n)
    g = np.sign(z) + (z / n if n >= rl._NORM_EPS else np.zeros_like(z))
    return loss, g


def loop_batch_loss_and_grads(encoder, batch_inputs, config):
    """rl.batch_loss_and_grads as a loop over samples and rows."""
    n_rows = batch_inputs.shape[0]
    b = n_rows // 4
    z, cache = nc.forward_batch(encoder.net, batch_inputs)
    out_grad = np.zeros_like(z)
    tcn_total = 0.0
    reg_total = 0.0
    for s in range(b):
        loss, grads = tcn_loss_with_grads(*z[4 * s:4 * s + 4])
        tcn_total += loss
        for r, g in enumerate(grads):
            out_grad[4 * s + r] += rl.LAMBDA1 / b * g
    for r in range(n_rows):
        loss, g = reg_loss_with_grad(z[r])
        reg_total += loss
        out_grad[r] += config.lambda2 / n_rows * g
    tcn_mean = tcn_total / b
    reg_mean = reg_total / n_rows
    total = rl.LAMBDA1 * tcn_mean + config.lambda2 * reg_mean
    return (total, tcn_mean, reg_mean,
            nc.backward_batch(encoder.net, cache, out_grad))


def pooled_oracle(frame):
    """2x2 mean of each pixel block, scaled to [0, 1], in Python floats."""
    h, w = frame.shape
    return [(int(frame[r, c]) + int(frame[r, c + 1]) + int(frame[r + 1, c])
             + int(frame[r + 1, c + 1])) / 4.0 / 255.0
            for r in range(0, h, 2) for c in range(0, w, 2)]


class TestEmbed:
    def test_zero_image_zero_net(self):
        enc = rl.init_encoder(seed=0)
        for w in enc.net.weights:
            w[:] = 0.0
        z = rl.embed(enc, np.zeros((64, 64), dtype=np.uint8))
        assert np.array_equal(z, np.zeros(rl.EMBED_DIM))

    def test_identical_frames_identical_embeddings(self):
        enc = rl.init_encoder(seed=1)
        rng = np.random.Generator(np.random.PCG64(2))
        img = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        assert np.array_equal(rl.embed(enc, img), rl.embed(enc, img.copy()))

    def test_preprocess_range_and_size(self):
        x = rl.preprocess_batch([np.full((64, 64), 255, dtype=np.uint8)])
        assert x.shape == (1, 1024)
        assert np.all(x == 1.0)

    @pytest.mark.parametrize("kind", ["random", "zeros", "full"])
    def test_pooling_matches_python_oracle(self, kind):
        rng = np.random.Generator(np.random.PCG64(6))
        frames = {
            "random": rng.integers(0, 256, (3, 64, 64), dtype=np.uint8),
            "zeros": np.zeros((2, 64, 64), dtype=np.uint8),
            "full": np.full((2, 64, 64), 255, dtype=np.uint8),
        }[kind]
        x = rl.preprocess_batch(list(frames))
        expected = np.array([pooled_oracle(f) for f in frames])
        assert x.dtype == np.float64
        assert x.tobytes() == expected.tobytes()

    def test_pooling_rejects_non_uint8(self):
        with pytest.raises(nc.ConfigurationError, match="uint8"):
            rl.preprocess_batch([np.zeros((64, 64))])

    def test_batch_matches_single(self):
        enc = rl.init_encoder(seed=3)
        rng = np.random.Generator(np.random.PCG64(4))
        imgs = [rng.integers(0, 256, (64, 64), dtype=np.uint8) for _ in range(5)]
        zs = rl.embed_batch(enc, imgs)
        for img, z in zip(imgs, zs):
            assert np.allclose(rl.embed(enc, img), z, atol=1e-12)


def reward_frames(style, n=10, seed=8):
    """Frames of random move-box and open-door poses as the reward renders
    them: goal marker, object and, unless ``style`` is none, the agent."""
    rng = np.random.Generator(np.random.PCG64(seed))
    frames = []
    for name in ("move-box", "open-door"):
        task = get_task(name)
        states = []
        for _ in range(n // 2):
            state = reset(task.world_config(), task, seed=0)
            state.object_q = state.object_q + rng.normal(0.0, 0.1,
                                                         state.object_q.shape)
            state.proxy_pos = rng.uniform(-0.5, 0.5, 2)
            states.append(state)
        frames += render.render_batch(states, task.object,
                                      render.camera_spec("front"), style,
                                      marker_pos=goal_marker(task))
    return frames


class TestEmbedActiveColumns:
    """embed_batch runs layer 0 only on the pooled columns that are non-zero
    in the batch; the full-width forward is the oracle."""

    @pytest.mark.parametrize("kind", ["masked", "hand_square", "zeros", "dense"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_full_width_forward(self, kind, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        frames = {
            "masked": lambda: reward_frames("none", seed=seed),
            "hand_square": lambda: reward_frames("hand_square", seed=seed),
            "zeros": lambda: list(np.zeros((4, 64, 64), dtype=np.uint8)),
            "dense": lambda: list(rng.integers(1, 256, (6, 64, 64),
                                               dtype=np.uint8)),
        }[kind]()
        enc = rl.init_encoder(seed)
        # a trained encoder's biases are not zero
        for b in enc.net.biases:
            b[:] = rng.normal(0.0, 0.1, b.shape)
        x = rl.preprocess_batch(frames)
        want, _ = nc.forward_batch(enc.net, x)
        got = rl.embed_batch(enc, frames)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for frame, z in zip(frames, got):
            np.testing.assert_allclose(rl.embed(enc, frame), z, rtol=0,
                                       atol=1e-12)
        # how many of the 1,024 pooled columns layer 0 still multiplies
        active = int(x.any(axis=0).sum())
        assert {"masked": 0 < active < 1024 // 8,
                "hand_square": 0 < active < 1024 // 4,
                "zeros": active == 0, "dense": active == 1024}[kind], active

    def test_zero_frames_give_output_of_biases(self):
        enc = rl.init_encoder(seed=2)
        z = rl.embed_batch(enc, [np.zeros((64, 64), dtype=np.uint8)] * 3)
        h = np.maximum(enc.net.biases[0], 0.0)
        h = np.maximum(h @ enc.net.weights[1] + enc.net.biases[1], 0.0)
        want = h @ enc.net.weights[2] + enc.net.biases[2]
        np.testing.assert_allclose(z, np.tile(want, (3, 1)), rtol=0, atol=1e-12)

    def test_leaves_encoder_unchanged(self):
        enc = rl.init_encoder(seed=4)
        before = [p.copy() for p in enc.net.parameters()]
        rl.embed_batch(enc, reward_frames("none"))
        for p, q in zip(enc.net.parameters(), before):
            assert p.tobytes() == q.tobytes()


class TestSimilarity:
    def test_identical_is_zero(self):
        z = np.array([0.3, -0.7, 2.0])
        assert rl.similarity(z, z) == 0.0

    def test_pythagoras(self):
        assert rl.similarity(np.zeros(2), np.array([3.0, 4.0])) == -5.0

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_negative_metric(self, vals, data):
        a = np.array(vals)
        b = np.array(data.draw(st.lists(
            st.floats(-10, 10), min_size=len(vals), max_size=len(vals))))
        assert rl.similarity(a, b) <= 0.0
        assert rl.similarity(a, b) == rl.similarity(b, a)
        assert rl.similarity(a, a) == 0.0


class TestTcnLoss:
    def test_symmetric_case_is_log3(self):
        # anchor equidistant from the other three: similarities coincide
        zi = np.array([0.0, 0.0, 0.0])
        others = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                  np.array([0.0, 0.0, 1.0])]
        loss = tcn_loss(zi, *others)
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)

    def test_hand_evaluated_mixed_sims(self):
        zi, zj, zk, zl = one_dim(0.0, 0.0, 1.0, 2.0)
        expected = math.log(1.0 + math.exp(-1.0) + math.exp(-2.0))
        assert tcn_loss(zi, zj, zk, zl) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.40760, abs=1e-5)  # quoted to 5 decimals

    def test_dominant_positive_drives_loss_to_zero(self):
        zi, zj, zk, zl = one_dim(0.0, 0.0, 60.0, 60.0)
        assert tcn_loss(zi, zj, zk, zl) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        z = rng.normal(0, 5, (4, 6))
        assert tcn_loss(*z) >= 0.0

    def test_decreases_as_positive_similarity_grows(self):
        zk = np.array([2.0])
        zl = np.array([3.0])
        losses = [tcn_loss(np.array([0.0]), np.array([d]), zk, zl)
                  for d in (1.5, 1.0, 0.5, 0.1)]
        assert all(a > b for a, b in zip(losses, losses[1:]))


class TestRegLoss:
    def test_zero_vector(self):
        assert reg_loss(np.zeros(4)) == 0.0

    def test_three_four(self):
        assert reg_loss(np.array([3.0, -4.0])) == 12.0

    def test_one_one(self):
        assert reg_loss(np.array([1.0, -1.0])) == pytest.approx(
            2.0 + math.sqrt(2.0), abs=1e-12)


def check_fd(enc, rows, index, cfg):
    """rl.batch_loss_and_grads's gradients against finite differences of its
    total loss."""
    def f(params):
        numcheck.assign(enc.net.parameters(), params)
        total, _, _, _ = rl.batch_loss_and_grads(enc, rows, index, cfg)
        return total

    params = [p.copy() for p in enc.net.parameters()]
    fd = numcheck.finite_diff_grad(f, params)
    numcheck.assign(enc.net.parameters(), params)
    _, _, _, exact = rl.batch_loss_and_grads(enc, rows, index, cfg)
    for a, b in zip(exact, fd):
        assert numcheck.relative_error(a, b) < 1e-4


class TestGradients:
    @pytest.mark.parametrize("seed", range(4))
    def test_tcn_grads_match_fd(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        z = [rng.normal(0, 1, 5) for _ in range(4)]
        _, grads = tcn_loss_with_grads(*z)

        for which in range(4):
            def f(params, which=which):
                zz = list(z)
                zz[which] = params[0]
                return tcn_loss(*zz)

            fd = numcheck.finite_diff_grad(f, [z[which].copy()])[0]
            assert numcheck.relative_error(grads[which], fd) < 1e-5

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_loss_grads_match_fd(self, seed):
        # 2-sample batch through a toy encoder, full combined objective
        rng = np.random.Generator(np.random.PCG64(100 + seed))
        net = nc.init_mlp([3, 4, 2], ["relu", "identity"], seed=seed)
        enc = rl.Encoder(net)
        cfg = rl.ReprTrainConfig(total_steps=1, batch_size=2)
        batch = rng.uniform(0.1, 1.0, (8, 3))

        check_fd(enc, batch, np.arange(8), cfg)

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_rows_grads_match_fd(self, seed):
        # 3 distinct rows fill the 8 slots of a 2-sample batch; sample 0 has
        # anchor = positive, and row 0 sits in both samples
        rng = np.random.Generator(np.random.PCG64(200 + seed))
        net = nc.init_mlp([3, 4, 2], ["relu", "identity"], seed=seed)
        enc = rl.Encoder(net)
        cfg = rl.ReprTrainConfig(total_steps=1, batch_size=2, lambda2=0.5)
        rows = rng.uniform(0.1, 1.0, (3, 3))
        check_fd(enc, rows, np.array([0, 0, 1, 2, 2, 1, 0, 1]), cfg)


class TestBatchLossMatchesLoop:
    """The batch loss, given as stacked slots and as distinct rows plus a
    slot index, against the loop over samples and slots."""

    def _check(self, batch, seed=7):
        rows, index = np.unique(batch, axis=0, return_inverse=True)
        index = index.reshape(-1)
        assert rows.shape[0] < batch.shape[0]  # the index repeats rows
        self._check_rows(rows, index, seed)

    def _check_rows(self, rows, index, seed=7):
        enc = rl.init_encoder(seed)
        cfg = rl.ReprTrainConfig(lambda2=0.5)
        batch = rows[index]
        loop = loop_batch_loss_and_grads(enc, batch, cfg)
        for ours in (rl.batch_loss_and_grads(enc, batch, np.arange(len(batch)), cfg),
                     rl.batch_loss_and_grads(enc, rows, index, cfg)):
            for a, b in zip(ours[:3], loop[:3]):
                assert a == pytest.approx(b, rel=0, abs=1e-12)
            for a, b in zip(ours[3], loop[3]):
                assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_anchor_equals_positive(self):
        rng = np.random.Generator(np.random.PCG64(8))
        batch = rng.uniform(0, 1, (16, 1024))
        batch[1::4] = batch[0::4]
        enc = rl.init_encoder(7)
        z, _ = nc.forward_batch(enc.net, batch)
        assert np.array_equal(z[1::4], z[0::4])  # zero distance is reached
        self._check(batch)

    def test_zero_embedding_row(self):
        # zero input through zero biases embeds to exactly zero
        rng = np.random.Generator(np.random.PCG64(9))
        batch = rng.uniform(0, 1, (16, 1024))
        batch[[2, 7]] = 0.0
        enc = rl.init_encoder(7)
        z, _ = nc.forward_batch(enc.net, batch)
        assert not np.any(z[[2, 7]])
        self._check(batch)

    @pytest.mark.parametrize("seed", [3, 0, 1, 17, 101])
    def test_demo_clips(self, seed):
        dataset = small_dataset()
        pre = [rl.preprocess_batch(clip.frames) for clip in dataset.clips]
        samples = sample_tcn_batch(dataset, 16, seed=seed)
        batch_rows, index = rl.stack_batch_inputs(*rl.distinct_pooled_rows(pre),
                                                  samples)
        assert index.shape == (4 * 16,)
        assert np.array_equal(batch_rows[index], stacked_batch(pre, samples))
        assert np.unique(index).size == batch_rows.shape[0] < index.size
        assert len({row.tobytes() for row in batch_rows}) == batch_rows.shape[0]
        self._check_rows(batch_rows, index)

    def test_rows_repeated_across_samples(self):
        # 5 rows fill 16 slots; sample 0 has anchor = positive
        rng = np.random.Generator(np.random.PCG64(10))
        rows = rng.uniform(0, 1, (5, 1024))
        index = np.array([0, 0, 1, 2, 3, 1, 4, 0, 2, 3, 4, 1, 4, 2, 0, 3])
        self._check_rows(rows, index)


class TestDistinctRows:
    def test_identical_frames_in_two_clips_share_a_row(self):
        dataset = small_dataset()
        clips = dataset.clips
        shared = clips[0].frames[5].pixels
        assert not np.array_equal(clips[1].frames[3].pixels, shared)
        clips[1].frames[3] = replace(clips[1].frames[3], pixels=shared.copy())
        pre = [rl.preprocess_batch(clip.frames) for clip in clips]
        rows, frame_rows, clip_start = rl.distinct_pooled_rows(pre)
        sizes = [len(x) for x in pre]
        assert clip_start.tolist() == np.cumsum([0] + sizes[:-1]).tolist()
        assert frame_rows.shape == (sum(sizes),)
        assert frame_rows[clip_start[1] + 3] == frame_rows[5]
        for x, start in zip(pre, clip_start):
            assert np.array_equal(rows[frame_rows[start:start + len(x)]], x)
        distinct = {row.tobytes() for x in pre for row in x}
        assert rows.shape == (len(distinct), 1024)
        assert rows.shape[0] < sum(len(x) for x in pre)


class TestTrainStep:
    def test_equal_similarity_batch_gives_log3_and_gradient(self):
        # embeddings arranged so all three similarities per sample coincide
        net = nc.MlpNetwork([3, 3], [np.eye(3)], [np.zeros(3)], ["identity"])
        enc = rl.Encoder(net)
        cfg = rl.ReprTrainConfig(lambda2=0.0, total_steps=1, batch_size=1)
        batch = np.array([[0.0, 0.0, 0.0],
                          [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0]])
        total, tcn, reg, grads = rl.batch_loss_and_grads(enc, batch,
                                                         np.arange(4), cfg)
        assert total == pytest.approx(math.log(3.0), abs=1e-12)
        assert any(np.abs(g).max() > 0 for g in grads)

    def test_step_reduces_loss_on_repeated_batch(self):
        dataset = small_dataset()
        cfg = rl.ReprTrainConfig(total_steps=1, batch_size=8, lr=1e-3)
        enc = rl.init_encoder(cfg.seed)
        adam = nc.adam_init(enc.net.parameters(), cfg.lr)
        samples = sample_tcn_batch(dataset, 8, seed=0)
        pre = [rl.preprocess_batch(clip.frames) for clip in dataset.clips]
        rows, index = rl.stack_batch_inputs(*rl.distinct_pooled_rows(pre), samples)
        first, _ = rl.train_step(enc, rows, index, cfg, adam)
        for _ in range(30):
            last, _ = rl.train_step(enc, rows, index, cfg, adam)
        assert last["total"] < first["total"]


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("total_steps", -1), ("checkpoint_every", 0)])
    def test_rejects_out_of_range(self, field, value):
        least = 0 if field == "total_steps" else 1
        with pytest.raises(nc.ConfigurationError,
                           match=f"{field} must be at least {least}, got {value}"):
            rl.ReprTrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("lr", 0.0), ("lr", -1e-4), ("lr", math.nan), ("lr", math.inf),
        ("lambda2", -1.0), ("lambda2", math.nan), ("lambda2", math.inf)])
    def test_rejects_bad_hyperparameter_naming_it(self, field, value):
        qualifier = "positive" if field == "lr" else "non-negative"
        with pytest.raises(nc.ConfigurationError,
                           match=f"{field} must be finite and {qualifier}, "
                                 f"got {value}"):
            rl.ReprTrainConfig(**{field: value})

    def test_accepts_least_values(self):
        rl.ReprTrainConfig(batch_size=1, total_steps=0, checkpoint_every=1,
                           lambda2=0.0)


class TestTrainingLog:
    def test_train_log_cells_are_row_reprs(self, tmp_path):
        cfg = rl.ReprTrainConfig(total_steps=3, batch_size=4)
        _, log = rl.train_encoder(small_dataset(), cfg, out_dir=tmp_path)
        keys = ("step", "tcn", "reg", "total")
        lines = ["step,tcn_loss,reg_loss,total"]
        lines += [",".join(repr(row[k]) for k in keys) for row in log]
        assert len(log) == 3
        assert (tmp_path / "train_log.csv").read_bytes() == \
            "".join(line + "\r\n" for line in lines).encode()


class TestActiveColumns:
    """train_encoder trains only the dataset's active input columns; the
    loop over all columns is the oracle."""

    def test_matches_full_width(self, six_task_dataset):
        cols = active_columns(six_task_dataset)
        assert 0 < cols.size < 1024 // 2
        cfg = rl.ReprTrainConfig(batch_size=64, total_steps=100, seed=3)
        enc, log = rl.train_encoder(six_task_dataset, cfg)
        oracle, oracle_log = full_width_train_encoder(six_task_dataset, cfg)
        assert_matches_full_width(log, enc, oracle_log, oracle)
        init_w0 = rl.init_encoder(cfg.seed).net.weights[0]
        inactive = np.setdiff1d(np.arange(1024), cols)
        assert enc.net.weights[0][inactive].tobytes() == \
            init_w0[inactive].tobytes()
        assert not np.allclose(enc.net.weights[0][cols], init_w0[cols])

    def test_all_zero_frames(self, tmp_path):
        ds = small_dataset()
        ds.clips = [replace(c, frames=[replace(f, pixels=np.zeros_like(f.pixels))
                                       for f in c.frames]) for c in ds.clips]
        assert active_columns(ds).size == 0
        cfg = rl.ReprTrainConfig(batch_size=8, total_steps=12,
                                 checkpoint_every=5, seed=2)
        enc, log = rl.train_encoder(ds, cfg, out_dir=tmp_path)
        oracle, oracle_log = full_width_train_encoder(ds, cfg)
        assert_matches_full_width(log, enc, oracle_log, oracle)
        assert enc.net.weights[0].tobytes() == \
            rl.init_encoder(cfg.seed).net.weights[0].tobytes()


class TestTrainEncoder:
    def test_agent_aware_guard(self):
        ds = small_dataset(style="hand_square", seed=31)
        cfg = rl.ReprTrainConfig(total_steps=2, batch_size=4)
        with pytest.raises(nc.ConfigurationError):
            rl.train_encoder(ds, cfg)
        enc, log = rl.train_encoder(
            ds, rl.ReprTrainConfig(total_steps=2, batch_size=4, agent_aware=True))
        assert len(log) == 2

    def test_loss_trends_down(self):
        ds = small_dataset()
        cfg = rl.ReprTrainConfig(total_steps=120, batch_size=16, lr=3e-4)
        _, log = rl.train_encoder(ds, cfg)
        first = np.mean([r["total"] for r in log[:10]])
        last = np.mean([r["total"] for r in log[-10:]])
        assert last < first

    @pytest.mark.parametrize("total_steps", [10, 12])
    def test_checkpoint_is_the_returned_encoder(self, tmp_path, total_steps):
        # 10 ends on a checkpoint_every multiple, 12 writes a last one at 12
        cfg = rl.ReprTrainConfig(total_steps=total_steps, batch_size=8,
                                 checkpoint_every=5, seed=5)
        enc, _ = rl.train_encoder(small_dataset(), cfg, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "encoder.ckpt", "train_log.csv"]
        net, header, trailing = nc.load_checkpoint(tmp_path / "encoder.ckpt")
        assert header["step_count"] == total_steps
        assert trailing == {}
        assert net.layer_sizes == enc.net.layer_sizes
        for p, q in zip(net.parameters(), enc.net.parameters()):
            assert p.tobytes() == q.astype(np.float32).astype(np.float64).tobytes()

    @pytest.mark.parametrize("sizes, activations, message", [
        ([12, 64, 64, 1], ["tanh", "tanh", "identity"],
         "layer_sizes is [12, 64, 64, 1], expected [1024, 256, 128, 32]"),
        (rl.ENCODER_LAYER_SIZES, ["tanh", "tanh", "identity"],
         "activations is ['tanh', 'tanh', 'identity'], "
         "expected ['relu', 'relu', 'identity']"),
    ], ids=["critic", "activations"])
    def test_load_rejects_foreign_network_naming_it(self, tmp_path, sizes,
                                                    activations, message):
        path = tmp_path / "encoder.ckpt"
        nc.save_checkpoint(path, nc.init_mlp(sizes, activations, 0), 0, 0)
        with pytest.raises(nc.ConfigurationError,
                           match=re.escape(f"{path}: {message}")):
            rl.load_encoder(path)

    def test_checkpoint_round_trip(self, tmp_path):
        ds = small_dataset()
        cfg = rl.ReprTrainConfig(total_steps=10, batch_size=8,
                                 checkpoint_every=5)
        enc, _ = rl.train_encoder(ds, cfg, out_dir=tmp_path)
        loaded = rl.load_encoder(tmp_path / "encoder.ckpt")
        img = ds.clips[0].frames[0]
        # checkpoints store float32, so merely close
        assert np.allclose(rl.embed(loaded, img), rl.embed(enc, img), atol=1e-5)
