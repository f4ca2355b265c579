"""Visual representation learning on agent-masked clips.

A small MLP encoder maps pooled grayscale frames to a 32-dimensional
embedding. Training pulls temporally ordered frames of the same clip together
against later frames and cross-clip negatives (softmax over negative-L2
similarities) plus an L1+L2 compactness penalty. Gradients are written out
exactly and checked against finite differences in the tests.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numcore
from .demogen import DemoDataset, TcnSample, sample_tcn_batch
from .numcore import (AdamState, ConfigurationError, MlpNetwork, NumericsError,
                      adam_init, adam_step, derive_seed, forward_batch,
                      backward_batch, init_mlp)
from .render import FrameImage

EMBED_DIM = 32
ENCODER_LAYER_SIZES = [1024, 256, 128, EMBED_DIM]
ENCODER_ACTIVATIONS = ["relu", "relu", "identity"]
POOLED_SIDE = 32

_NORM_EPS = 1e-12


@dataclass
class Encoder:
    """Fixed-preprocessing MLP encoder: 2x2 average pool of the 64x64 frame,
    scaled to [0, 1], then three dense layers down to the embedding."""

    net: MlpNetwork

    @property
    def embed_dim(self) -> int:
        return self.net.out_dim


def init_encoder(seed: int) -> Encoder:
    return Encoder(init_mlp(ENCODER_LAYER_SIZES, ENCODER_ACTIVATIONS, seed))


def preprocess_batch(frames) -> np.ndarray:
    """2x2 average pool of each frame, scaled to [0, 1]; one flat float64 row
    per frame."""
    stack = np.stack([f.pixels if isinstance(f, FrameImage) else f
                      for f in frames])
    n, h, w = stack.shape
    if h % 2 or w % 2:
        raise ConfigurationError("frame sides must be even for 2x2 pooling")
    pooled = stack.reshape(n, h // 2, 2, w // 2, 2).astype(np.float64).mean(axis=(2, 4))
    return pooled.reshape(n, -1) / 255.0


def embed(encoder: Encoder, frame) -> np.ndarray:
    """Embedding of one frame (FrameImage or raw pixel array): the n = 1 case
    of :func:`embed_batch`."""
    return embed_batch(encoder, [frame])[0]


def embed_batch(encoder: Encoder, frames) -> np.ndarray:
    x = preprocess_batch(frames)
    z, _ = forward_batch(encoder.net, x)
    return z


def similarity(z_a: np.ndarray, z_b: np.ndarray) -> float:
    """Negative Euclidean distance; zero iff the embeddings coincide."""
    if z_a.shape != z_b.shape:
        raise ConfigurationError("similarity needs equal-length embeddings")
    return -float(np.linalg.norm(z_a - z_b))


def tcn_loss(z_i, z_j, z_k, z_l) -> float:
    """Softmax cross-entropy over similarities: the (i, j) pair must win
    against (i, k) and the cross-clip (i, l). Log-sum-exp stabilized."""
    s = np.array([similarity(z_i, z_j), similarity(z_i, z_k),
                  similarity(z_i, z_l)])
    m = float(s.max())
    return float(m + np.log(np.exp(s - m).sum()) - s[0])


def reg_loss(z) -> float:
    z = np.asarray(z, dtype=float)
    return float(np.abs(z).sum() + np.linalg.norm(z))


def _pair_unit(z_a, z_b):
    d = z_a - z_b
    n = float(np.linalg.norm(d))
    if n < _NORM_EPS:
        return np.zeros_like(d), 0.0
    return d / n, n


def tcn_loss_with_grads(z_i, z_j, z_k, z_l):
    """Loss plus exact gradients with respect to all four embeddings."""
    u_ij, _ = _pair_unit(z_i, z_j)
    u_ik, _ = _pair_unit(z_i, z_k)
    u_il, _ = _pair_unit(z_i, z_l)
    s = np.array([similarity(z_i, z_j), similarity(z_i, z_k),
                  similarity(z_i, z_l)])
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
    g = np.sign(z) + (z / n if n >= _NORM_EPS else np.zeros_like(z))
    return loss, g


@dataclass
class ReprTrainConfig:
    lambda1: float = 1.0
    lambda2: float = 1.0
    batch_size: int = 64
    total_steps: int = 5000
    lr: float = 1e-4
    seed: int = 0
    checkpoint_every: int = 500
    agent_aware: bool = False

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigurationError("loss weights must be non-negative")
        if self.lr <= 0:
            raise ConfigurationError("learning rate must be positive")


def batch_loss_and_grads(encoder: Encoder, batch_inputs: np.ndarray,
                         config: ReprTrainConfig):
    """Combined objective over a stacked (4B, in_dim) batch.

    Rows are grouped per sample as (anchor, positive, later, negative). The
    contrastive term averages over samples; the compactness term averages
    over every embedded frame.
    """
    n_rows = batch_inputs.shape[0]
    if n_rows % 4:
        raise ConfigurationError("batch rows must come in groups of four")
    b = n_rows // 4
    z, cache = forward_batch(encoder.net, batch_inputs)
    out_grad = np.zeros_like(z)
    tcn_total = 0.0
    reg_total = 0.0
    for s in range(b):
        rows = slice(4 * s, 4 * s + 4)
        zi, zj, zk, zl = z[rows]
        loss, (gi, gj, gk, gl) = tcn_loss_with_grads(zi, zj, zk, zl)
        tcn_total += loss
        scale = config.lambda1 / b
        out_grad[4 * s + 0] += scale * gi
        out_grad[4 * s + 1] += scale * gj
        out_grad[4 * s + 2] += scale * gk
        out_grad[4 * s + 3] += scale * gl
    for r in range(n_rows):
        loss, g = reg_loss_with_grad(z[r])
        reg_total += loss
        out_grad[r] += config.lambda2 / n_rows * g
    tcn_mean = tcn_total / b
    reg_mean = reg_total / n_rows
    total = config.lambda1 * tcn_mean + config.lambda2 * reg_mean
    param_grads, _ = backward_batch(encoder.net, cache, out_grad)
    return total, tcn_mean, reg_mean, param_grads


def stack_batch_inputs(pre: list[np.ndarray],
                       samples: list[TcnSample]) -> np.ndarray:
    """Gather the (4B, in_dim) input matrix for a sampled batch from the
    per-clip pooled frame matrices ``pre`` (see :func:`preprocess_batch`)."""
    rows = []
    for s in samples:
        rows.extend((pre[s.clip_index][s.i], pre[s.clip_index][s.j],
                     pre[s.clip_index][s.k], pre[s.neg_clip_index][s.l]))
    return np.stack(rows)


def train_step(encoder: Encoder, batch_inputs: np.ndarray,
               config: ReprTrainConfig, adam: AdamState):
    """One optimizer step over a stacked batch; mutates the encoder in place
    and returns (loss breakdown, encoder)."""
    total, tcn_mean, reg_mean, grads = batch_loss_and_grads(
        encoder, batch_inputs, config)
    if not np.isfinite(total):
        raise NumericsError(
            f"non-finite training loss {total!r} on batch of "
            f"{batch_inputs.shape[0] // 4} samples "
            f"(input range [{batch_inputs.min()}, {batch_inputs.max()}])")
    new_params = adam_step(adam, encoder.net.parameters(), grads)
    encoder.net.set_parameters(new_params)
    return {"total": total, "tcn": tcn_mean, "reg": reg_mean}, encoder


def _save_train_sidecar(path, encoder: Encoder, adam: AdamState, step: int) -> None:
    arrays = [(f"p{i}", p) for i, p in enumerate(encoder.net.parameters())]
    arrays += [(f"m{i}", m) for i, m in enumerate(adam.m)]
    arrays += [(f"v{i}", v) for i, v in enumerate(adam.v)]
    numcore.save_state_blob(path, {"step": step, "adam_step": adam.step}, arrays)


def load_train_sidecar(path, encoder: Encoder, adam: AdamState) -> int:
    meta, arrays = numcore.load_state_blob(path)
    n = len(encoder.net.parameters())
    encoder.net.set_parameters([arrays[f"p{i}"] for i in range(n)])
    adam.m = [arrays[f"m{i}"] for i in range(n)]
    adam.v = [arrays[f"v{i}"] for i in range(n)]
    adam.step = int(meta["adam_step"])
    return int(meta["step"])


def train_encoder(dataset: DemoDataset, config: ReprTrainConfig,
                  out_dir: str | Path | None = None,
                  resume_from: str | Path | None = None):
    """Full pre-training run; returns (encoder, training log rows).

    Batches are seeded per step from the config seed, so a run (or a resumed
    run restarted from a sidecar) reproduces the same loss curve.
    """
    if dataset.N == 0:
        raise ConfigurationError("cannot train on an empty dataset")
    if dataset.style != "none" and not config.agent_aware:
        raise ConfigurationError(
            f"dataset style is {dataset.style!r}; agent-visible training "
            "requires the agent_aware flag")
    encoder = init_encoder(config.seed)
    adam = adam_init(encoder.net.parameters(), lr=config.lr)
    start_step = 0
    if resume_from is not None:
        start_step = load_train_sidecar(resume_from, encoder, adam)
    pre = [preprocess_batch(clip.frames) for clip in dataset.clips]
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    log: list[dict] = []
    for step in range(start_step, config.total_steps):
        samples = sample_tcn_batch(dataset, config.batch_size,
                                   derive_seed(config.seed, 101, step))
        batch = stack_batch_inputs(pre, samples)
        losses, _ = train_step(encoder, batch, config, adam)
        log.append({"step": step, **losses})
        done = step + 1
        if out is not None and (done % config.checkpoint_every == 0
                                or done == config.total_steps):
            numcore.save_checkpoint(out / "encoder.ckpt", encoder.net,
                                    rng_seed=config.seed, step_count=done)
            _save_train_sidecar(out / "train_state.bin", encoder, adam, done)
    if out is not None:
        write_training_log(out / "train_log.csv", log)
    return encoder, log


def write_training_log(path, log: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "tcn_loss", "reg_loss", "total"])
        for row in log:
            writer.writerow([row["step"], repr(row["tcn"]), repr(row["reg"]),
                             repr(row["total"])])


def save_encoder(path, encoder: Encoder, seed: int = 0, step_count: int = 0) -> None:
    numcore.save_checkpoint(path, encoder.net, rng_seed=seed, step_count=step_count)


def load_encoder(path) -> Encoder:
    net, _, _ = numcore.load_checkpoint(path)
    return Encoder(net)
