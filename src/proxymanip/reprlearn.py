"""Visual representation learning on agent-masked clips.

A small MLP encoder maps pooled grayscale frames to a 32-dimensional
embedding. Training pulls temporally ordered frames of the same clip together
against later frames and cross-clip negatives (softmax over negative-L2
similarities) plus an L1+L2 compactness penalty. Gradients are written out
exactly and checked against finite differences in the tests.

A training batch is drawn whole, as arrays of clip and frame indices
(``demogen.sample_tcn_batch``: a uniform anchor clip with at least 3 frames,
a uniform 3-subset of its frames and a uniform frame of a uniform other
clip), and its slots are gathered from a frame-row table built once per run.
The four frames per sample come from a small pool, so a batch repeats
frames. Each step runs the network once over the batch's distinct pooled
rows and sums the gradients of a row's repeats before the backward pass;
identical frames of different clips are one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numcore
from .demogen import DemoDataset, TcnBatch, sample_tcn_batch
from .numcore import (AdamState, ConfigurationError, MlpNetwork, NumericsError,
                      adam_init, adam_step, derive_seed, forward_batch,
                      backward_batch, init_mlp, require)
from .render import FRAME_SIDE, FrameImage

EMBED_DIM = 32
# layer 0 reads the 2x2-pooled frame
ENCODER_LAYER_SIZES = [(FRAME_SIDE // 2) ** 2, 256, 128, EMBED_DIM]
ENCODER_ACTIVATIONS = ["relu", "relu", "identity"]
# the weight of the contrastive term; only its ratio to ``lambda2``, the
# compactness weight, matters, so this one stays 1
LAMBDA1 = 1.0

_NORM_EPS = 1e-12


@dataclass
class Encoder:
    """Fixed-preprocessing MLP encoder: 2x2 average pool of the 64x64 frame,
    scaled to [0, 1], then three dense layers down to the embedding."""

    net: MlpNetwork


def init_encoder(seed: int) -> Encoder:
    return Encoder(init_mlp(ENCODER_LAYER_SIZES, ENCODER_ACTIVATIONS, seed))


def preprocess_batch(frames) -> np.ndarray:
    """2x2 average pool of each frame, scaled to [0, 1]; one flat float64 row
    per frame."""
    stack = np.stack([f.pixels if isinstance(f, FrameImage) else f
                      for f in frames])
    n, h, w = stack.shape
    if stack.dtype != np.uint8:
        raise ConfigurationError(f"frames must be uint8, not {stack.dtype}")
    if h % 2 or w % 2:
        raise ConfigurationError("frame sides must be even for 2x2 pooling")
    # the uint16 sum of four uint8 values is exact, so dividing by 4.0 gives
    # bitwise the float64 mean of the four
    total = stack[:, 0::2, 0::2].astype(np.uint16)
    total += stack[:, 0::2, 1::2]
    total += stack[:, 1::2, 0::2]
    total += stack[:, 1::2, 1::2]
    return (total / 4.0).reshape(n, -1) / 255.0


def embed(encoder: Encoder, frame) -> np.ndarray:
    """Embedding of one frame (FrameImage or raw pixel array): the n = 1 case
    of :func:`embed_batch`."""
    return embed_batch(encoder, [frame])[0]


def embed_batch(encoder: Encoder, frames) -> np.ndarray:
    """Embeddings of a batch of frames (FrameImages or raw pixel arrays).

    Layer 0 runs only on the active columns: the pooled pixels that are
    non-zero in at least one frame of the batch. A zero column adds exactly
    nothing to any product, and a masked frame is a marker and one object on
    black, so most columns are zero. The result differs from the full-width
    forward only in BLAS summation order.
    """
    x = preprocess_batch(frames)
    cols = np.flatnonzero(x.any(axis=0))
    z, _ = forward_batch(_active_columns(encoder, cols).net, x[:, cols])
    return z


def _active_columns(encoder: Encoder, cols: np.ndarray) -> Encoder:
    """The encoder as seen by inputs that are zero outside ``cols``: layer 0
    holds only the rows ``cols`` of ``W0``, and every other layer and bias is
    the encoder's own array."""
    net = encoder.net
    return Encoder(MlpNetwork([cols.size] + net.layer_sizes[1:],
                              [net.weights[0][cols]] + net.weights[1:],
                              list(net.biases), list(net.activations)))


def similarity(z_a: np.ndarray, z_b: np.ndarray) -> float:
    """Negative Euclidean distance; zero iff the embeddings coincide."""
    if z_a.shape != z_b.shape:
        raise ConfigurationError("similarity needs equal-length embeddings")
    return -float(np.linalg.norm(z_a - z_b))


@dataclass
class ReprTrainConfig:
    lambda2: float = 1.0
    batch_size: int = 64
    total_steps: int = 5000
    lr: float = 1e-4
    seed: int = 0
    checkpoint_every: int = 500
    agent_aware: bool = False

    def __post_init__(self):
        require(math.isfinite(self.lambda2) and self.lambda2 >= 0, "lambda2",
                self.lambda2, "finite and non-negative")
        require(math.isfinite(self.lr) and self.lr > 0, "lr", self.lr,
                "finite and positive")
        for name, least in (("batch_size", 1), ("total_steps", 0),
                            ("checkpoint_every", 1)):
            value = getattr(self, name)
            require(value >= least, name, value, f"at least {least}")


def batch_loss_and_grads(encoder: Encoder, rows: np.ndarray,
                         index: np.ndarray, config: ReprTrainConfig):
    """Combined objective over a batch of 4B sample slots.

    Slot ``r`` embeds the input ``rows[index[r]]``: the network runs once
    over the distinct rows, and each slot reads its row's embedding. A plain
    stacked (4B, in_dim) batch is the case ``index = arange(4B)``.

    Slots are grouped per sample as (anchor, positive, later, negative). The
    contrastive term is a softmax cross-entropy over the anchor's similarities
    to the other three, where the positive must win; it averages over samples.
    The compactness term, L1 plus L2 norm of each embedding, averages over
    every slot. A distance or norm below ``_NORM_EPS`` contributes no
    gradient through its unit vector. The output gradient of a row is the sum
    of its slots' gradients, which is the chain rule through the gather.
    """
    n_rows = index.size
    if n_rows % 4:
        raise ConfigurationError("batch rows must come in groups of four")
    b = n_rows // 4
    y, cache = forward_batch(encoder.net, rows)
    z = y[index]
    z4 = z.reshape(b, 4, -1)
    # contrastive term: s = -|anchor - other| for the three others
    diff = z4[:, :1] - z4[:, 1:]
    dist = np.sqrt(np.einsum("bkd,bkd->bk", diff, diff))
    s = -dist
    s_max = s.max(axis=1, keepdims=True)
    e = np.exp(s - s_max)
    e_sum = e.sum(axis=1, keepdims=True)
    tcn = (s_max + np.log(e_sum) - s[:, :1])[:, 0]
    ds = e / e_sum
    ds[:, 0] -= 1.0
    unit = diff / np.where(dist < _NORM_EPS, np.inf, dist)[:, :, None]
    # d s / d anchor is -unit, d s / d other is +unit
    g_other = ds[:, :, None] * unit
    tcn_grad = np.concatenate([-g_other.sum(axis=1, keepdims=True), g_other],
                              axis=1).reshape(n_rows, -1)
    # compactness term
    norm = np.sqrt(np.einsum("rd,rd->r", z, z))
    reg = np.abs(z).sum(axis=1) + norm
    reg_grad = np.sign(z) + z / np.where(norm < _NORM_EPS, np.inf, norm)[:, None]
    out_grad = (LAMBDA1 / b * tcn_grad
                + config.lambda2 / n_rows * reg_grad)
    tcn_mean = float(tcn.sum()) / b
    reg_mean = float(reg.sum()) / n_rows
    total = LAMBDA1 * tcn_mean + config.lambda2 * reg_mean
    row_grad = np.zeros_like(y)
    np.add.at(row_grad, index, out_grad)
    param_grads = backward_batch(encoder.net, cache, row_grad)
    return total, tcn_mean, reg_mean, param_grads


def distinct_pooled_rows(pre: list[np.ndarray]):
    """The distinct rows of the per-clip pooled frame matrices ``pre`` (see
    :func:`preprocess_batch`) as one matrix, in order of first appearance,
    with a flat frame-row table: ``frame_rows[clip_start[c] + f]`` is the
    row of frame ``f`` of clip ``c`` in that matrix. Rows are keyed by their
    bytes, so frames whose pooled rows are equal, in one clip or in two,
    share a row. Returns ``(rows, frame_rows, clip_start)``."""
    keys: dict[bytes, int] = {}
    frame_rows = np.array([keys.setdefault(row.tobytes(), len(keys))
                           for x in pre for row in x], dtype=np.intp)
    clip_start = np.cumsum([0] + [len(x) for x in pre[:-1]])
    rows = np.frombuffer(b"".join(keys), dtype=np.float64)
    return rows.reshape(len(keys), pre[0].shape[1]), frame_rows, clip_start


def stack_batch_inputs(rows: np.ndarray, frame_rows: np.ndarray,
                       clip_start: np.ndarray, batch: TcnBatch):
    """The inputs of a sampled batch as ``(batch_rows, index)``: the distinct
    rows of ``rows`` that the batch uses, and the (4B,) index of each sample
    slot (anchor, positive, later, negative) into them. ``frame_rows`` and
    ``clip_start`` map a clip's frame to its row (see
    :func:`distinct_pooled_rows`); all 4B slots are gathered at once."""
    anchor = clip_start[batch.clip_index]
    slots = np.stack([anchor + batch.i, anchor + batch.j, anchor + batch.k,
                      clip_start[batch.neg_clip_index] + batch.l], axis=1)
    used, index = np.unique(frame_rows[slots.reshape(-1)], return_inverse=True)
    return rows[used], index


def train_step(encoder: Encoder, rows: np.ndarray, index: np.ndarray,
               config: ReprTrainConfig, adam: AdamState):
    """One optimizer step over a batch given as distinct ``rows`` and the
    slot ``index`` into them (see :func:`batch_loss_and_grads`); mutates the
    encoder in place and returns (loss breakdown, encoder)."""
    total, tcn_mean, reg_mean, grads = batch_loss_and_grads(
        encoder, rows, index, config)
    if not np.isfinite(total):
        raise NumericsError(
            f"non-finite training loss {total!r} on batch of "
            f"{index.size // 4} samples "
            f"(input range [{rows.min()}, {rows.max()}])")
    adam_step(adam, encoder.net.parameters(), grads)
    return {"total": total, "tcn": tcn_mean, "reg": reg_mean}, encoder


def train_encoder(dataset: DemoDataset, config: ReprTrainConfig,
                  out_dir: str | Path | None = None):
    """Full pre-training run; returns (encoder, training log rows).

    Batches are seeded per step from the config seed, so rerunning the same
    config reproduces the same loss curve bit for bit; a run is never
    resumed, only rerun. With ``out_dir``, ``encoder.ckpt`` is written every
    ``checkpoint_every`` steps and at the end, and ``train_log.csv`` at the
    end.

    Only the active input columns are trained: those non-zero in at least
    one pooled frame of the dataset. Any other row of ``W0`` gets an exactly
    zero gradient at every step, and with zero moments Adam leaves it
    bitwise unchanged. So the steps run on a compact encoder whose layer 0
    holds only the active rows of ``W0``; its other layers and biases are the
    full encoder's own arrays. The result differs from full-width training
    only in BLAS summation order. The rows are scattered back into the full
    encoder before every checkpoint write and at the end.

    The dataset's pooled frames, on those columns, are reduced once to their
    distinct rows and a flat frame-row table (:func:`distinct_pooled_rows`).
    Each step draws its batch as index arrays (``sample_tcn_batch``, seeded
    by ``derive_seed(config.seed, 101, step)``), gathers its 4B slots from
    the table and forwards only the distinct rows they use
    (:func:`stack_batch_inputs`); the loss and its gradient are those of the
    stacked batch, up to BLAS summation order.
    """
    if dataset.N == 0:
        raise ConfigurationError("cannot train on an empty dataset")
    if dataset.style != "none" and not config.agent_aware:
        raise ConfigurationError(
            f"dataset style is {dataset.style!r}; agent-visible training "
            "requires the agent_aware flag")
    encoder = init_encoder(config.seed)
    net = encoder.net
    pre = [preprocess_batch(clip.frames) for clip in dataset.clips]
    active = np.zeros(net.in_dim, dtype=bool)
    for x in pre:
        active |= x.any(axis=0)
    cols = np.flatnonzero(active)
    rows, frame_rows, clip_start = distinct_pooled_rows(
        [x[:, cols] for x in pre])
    del pre
    compact = _active_columns(encoder, cols)
    adam = adam_init(compact.net.parameters(), lr=config.lr)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    log: list[dict] = []
    for step in range(config.total_steps):
        batch = sample_tcn_batch(dataset, config.batch_size,
                                 derive_seed(config.seed, 101, step))
        batch_rows, index = stack_batch_inputs(rows, frame_rows, clip_start,
                                               batch)
        losses, _ = train_step(compact, batch_rows, index, config, adam)
        log.append({"step": step, **losses})
        done = step + 1
        if out is not None and (done % config.checkpoint_every == 0
                                or done == config.total_steps):
            net.weights[0][cols] = compact.net.weights[0]
            numcore.save_checkpoint(out / "encoder.ckpt", net,
                                    rng_seed=config.seed, step_count=done)
    net.weights[0][cols] = compact.net.weights[0]
    if out is not None:
        numcore.write_run_log(out / "train_log.csv",
                              ["step", "tcn_loss", "reg_loss", "total"],
                              ["step", "tcn", "reg", "total"], log)
    return encoder, log


def save_encoder(path, encoder: Encoder, seed: int = 0, step_count: int = 0) -> None:
    numcore.save_checkpoint(path, encoder.net, rng_seed=seed, step_count=step_count)


def load_encoder(path) -> Encoder:
    net, _, _ = numcore.load_checkpoint(path)
    numcore.require_layers(path, net, ENCODER_LAYER_SIZES, ENCODER_ACTIVATIONS)
    return Encoder(net)
