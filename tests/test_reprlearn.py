import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxymanip import numcore as nc
from proxymanip import reprlearn as rl
from proxymanip.demogen import generate_dataset
from proxymanip.env2d import builtin_catalogue


def small_dataset(style="none", seed=21, clips=2):
    cat = builtin_catalogue()
    tasks = [cat["open-drawer"], cat["move-box"]]
    return generate_dataset(tasks, clips_per_task=clips, noise_scale=0.05,
                            style=style, seed=seed)


def one_dim(*values):
    return [np.array([float(v)]) for v in values]


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

    def test_batch_matches_single(self):
        enc = rl.init_encoder(seed=3)
        rng = np.random.Generator(np.random.PCG64(4))
        imgs = [rng.integers(0, 256, (64, 64), dtype=np.uint8) for _ in range(5)]
        zs = rl.embed_batch(enc, imgs)
        for img, z in zip(imgs, zs):
            assert np.allclose(rl.embed(enc, img), z, atol=1e-12)


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
        loss = rl.tcn_loss(zi, *others)
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)

    def test_hand_evaluated_mixed_sims(self):
        zi, zj, zk, zl = one_dim(0.0, 0.0, 1.0, 2.0)
        expected = math.log(1.0 + math.exp(-1.0) + math.exp(-2.0))
        assert rl.tcn_loss(zi, zj, zk, zl) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.40760, abs=1e-5)  # quoted to 5 decimals

    def test_dominant_positive_drives_loss_to_zero(self):
        zi, zj, zk, zl = one_dim(0.0, 0.0, 60.0, 60.0)
        assert rl.tcn_loss(zi, zj, zk, zl) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        z = rng.normal(0, 5, (4, 6))
        assert rl.tcn_loss(*z) >= 0.0

    def test_decreases_as_positive_similarity_grows(self):
        zk = np.array([2.0])
        zl = np.array([3.0])
        losses = [rl.tcn_loss(np.array([0.0]), np.array([d]), zk, zl)
                  for d in (1.5, 1.0, 0.5, 0.1)]
        assert all(a > b for a, b in zip(losses, losses[1:]))


class TestRegLoss:
    def test_zero_vector(self):
        assert rl.reg_loss(np.zeros(4)) == 0.0

    def test_three_four(self):
        assert rl.reg_loss(np.array([3.0, -4.0])) == 12.0

    def test_one_one(self):
        assert rl.reg_loss(np.array([1.0, -1.0])) == pytest.approx(
            2.0 + math.sqrt(2.0), abs=1e-12)


class TestGradients:
    @pytest.mark.parametrize("seed", range(4))
    def test_tcn_grads_match_fd(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        z = [rng.normal(0, 1, 5) for _ in range(4)]
        _, grads = rl.tcn_loss_with_grads(*z)

        for which in range(4):
            def f(params, which=which):
                zz = list(z)
                zz[which] = params[0]
                return rl.tcn_loss(*zz)

            fd = nc.finite_diff_grad(f, [z[which].copy()])[0]
            assert nc.relative_error(grads[which], fd) < 1e-5

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_loss_grads_match_fd(self, seed):
        # 2-sample batch through a toy encoder, full combined objective
        rng = np.random.Generator(np.random.PCG64(100 + seed))
        net = nc.init_mlp([3, 4, 2], ["relu", "identity"], seed=seed)
        enc = rl.Encoder(net)
        cfg = rl.ReprTrainConfig(total_steps=1, batch_size=2)
        batch = rng.uniform(0.1, 1.0, (8, 3))

        def f(params):
            enc.net.set_parameters(params)
            total, _, _, _ = rl.batch_loss_and_grads(enc, batch, cfg)
            return total

        params = [p.copy() for p in net.parameters()]
        fd = nc.finite_diff_grad(f, params)
        net.set_parameters(params)
        _, _, _, exact = rl.batch_loss_and_grads(enc, batch, cfg)
        for a, b in zip(exact, fd):
            assert nc.relative_error(a, b) < 1e-4


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
        total, tcn, reg, grads = rl.batch_loss_and_grads(enc, batch, cfg)
        assert total == pytest.approx(math.log(3.0), abs=1e-12)
        assert any(np.abs(g).max() > 0 for g in grads)

    def test_step_reduces_loss_on_repeated_batch(self):
        dataset = small_dataset()
        cfg = rl.ReprTrainConfig(total_steps=1, batch_size=8, lr=1e-3)
        enc = rl.init_encoder(cfg.seed)
        adam = nc.adam_init(enc.net.parameters(), cfg.lr)
        from proxymanip.demogen import sample_tcn_batch
        samples = sample_tcn_batch(dataset, 8, seed=0)
        pre = [rl.preprocess_batch(clip.frames) for clip in dataset.clips]
        batch = rl.stack_batch_inputs(pre, samples)
        first, _ = rl.train_step(enc, batch, cfg, adam)
        for _ in range(30):
            last, _ = rl.train_step(enc, batch, cfg, adam)
        assert last["total"] < first["total"]


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

    def test_resume_reproduces_curve(self, tmp_path):
        ds = small_dataset()
        cfg = rl.ReprTrainConfig(total_steps=30, batch_size=8,
                                 checkpoint_every=10, seed=5)
        _, full_log = rl.train_encoder(ds, cfg, out_dir=tmp_path / "full")

        short = rl.ReprTrainConfig(total_steps=10, batch_size=8,
                                   checkpoint_every=10, seed=5)
        rl.train_encoder(ds, short, out_dir=tmp_path / "part")
        _, resumed_log = rl.train_encoder(
            ds, cfg, out_dir=tmp_path / "resumed",
            resume_from=tmp_path / "part" / "train_state.bin")
        assert [r["step"] for r in resumed_log] == list(range(10, 30))
        for a, b in zip(full_log[10:], resumed_log):
            assert a["total"] == b["total"]

    def test_checkpoint_round_trip(self, tmp_path):
        ds = small_dataset()
        cfg = rl.ReprTrainConfig(total_steps=10, batch_size=8,
                                 checkpoint_every=5)
        enc, _ = rl.train_encoder(ds, cfg, out_dir=tmp_path)
        loaded = rl.load_encoder(tmp_path / "encoder.ckpt")
        img = ds.clips[0].frames[0]
        # checkpoints store float32, so merely close
        assert np.allclose(rl.embed(loaded, img), rl.embed(enc, img), atol=1e-5)
