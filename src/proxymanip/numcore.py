"""Dense numerics for the whole pipeline.

Small feed-forward networks with hand-written exact gradients, a bias-corrected
adaptive-moment optimizer, a central finite-difference oracle for gradient
checks, and the shared on-disk checkpoint format. Everything is float64 so the
finite-difference tests stay tight.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

MASK64 = (1 << 64) - 1

VALID_ACTIVATIONS = ("relu", "tanh", "identity")

CHECKPOINT_FORMAT_VERSION = 1


class NumericsError(RuntimeError):
    """Raised when an operation would propagate non-finite values."""


class ConfigurationError(ValueError):
    """Raised on shape or wiring mismatches that indicate a build bug."""


def splitmix64(seed: int, index: int = 0) -> int:
    """Stateless child-seed derivation; same (seed, index) always maps to the
    same 64-bit value."""
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(master: int, *indices: int) -> int:
    """Chain splitmix64 over a tuple of indices (clip ids, env ids, steps...)."""
    s = master & MASK64
    if not indices:
        return splitmix64(s, 0)
    for ix in indices:
        s = splitmix64(s, ix)
    return s


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

@dataclass
class MlpNetwork:
    """A plain feed-forward network.

    weights[l] has shape (layer_sizes[l], layer_sizes[l+1]) so a batched
    forward is ``X @ W + b``. ``activations`` has one entry per weight layer;
    encoders and policy heads use ``identity`` on the last layer.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]

    def __post_init__(self) -> None:
        n = len(self.layer_sizes) - 1
        if not (len(self.weights) == len(self.biases) == len(self.activations) == n):
            raise ConfigurationError("layer bookkeeping out of sync")
        for l in range(n):
            expect = (self.layer_sizes[l], self.layer_sizes[l + 1])
            if self.weights[l].shape != expect:
                raise ConfigurationError(
                    f"weight {l} has shape {self.weights[l].shape}, expected {expect}")
            if self.biases[l].shape != (self.layer_sizes[l + 1],):
                raise ConfigurationError(f"bias {l} has wrong shape")
            if self.activations[l] not in VALID_ACTIVATIONS:
                raise ConfigurationError(f"unknown activation {self.activations[l]!r}")

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[np.ndarray]:
        """Parameters in declaration order: W0, b0, W1, b1, ..."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def set_parameters(self, params: list[np.ndarray]) -> None:
        n = len(self.weights)
        if len(params) != 2 * n:
            raise ConfigurationError("parameter list length mismatch")
        for l in range(n):
            w, b = params[2 * l], params[2 * l + 1]
            if w.shape != self.weights[l].shape or b.shape != self.biases[l].shape:
                raise ConfigurationError(f"parameter {l} shape mismatch")
            self.weights[l] = w
            self.biases[l] = b

    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def copy(self) -> "MlpNetwork":
        return MlpNetwork(
            list(self.layer_sizes),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            list(self.activations),
        )


def init_mlp(layer_sizes: list[int], activations: list[str], seed: int) -> MlpNetwork:
    """Seeded init, uniform in +-sqrt(6 / (fan_in + fan_out)); biases zero."""
    rng = np.random.Generator(np.random.PCG64(seed))
    weights, biases = [], []
    for l in range(len(layer_sizes) - 1):
        fan_in, fan_out = layer_sizes[l], layer_sizes[l + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpNetwork(list(layer_sizes), weights, biases, list(activations))


def _apply_activation(name: str, u: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(u, 0.0)
    if name == "tanh":
        return np.tanh(u)
    return u


def _activation_grad(name: str, u: np.ndarray) -> np.ndarray:
    if name == "relu":
        # subgradient 0 at exactly 0
        return (u > 0.0).astype(np.float64)
    if name == "tanh":
        t = np.tanh(u)
        return 1.0 - t * t
    return np.ones_like(u)


def forward_batch(net: MlpNetwork, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Run a (B, in_dim) batch through the network.

    Returns the (B, out_dim) output and a cache of per-layer (input,
    pre-activation) pairs sufficient for :func:`backward_batch`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise ConfigurationError(
            f"input has shape {x.shape}, expected (B, {net.in_dim})")
    cache = []
    h = x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        u = h @ w + b
        cache.append((h, u))
        h = _apply_activation(act, u)
    return h, cache


def forward(net: MlpNetwork, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Single-vector forward; thin wrapper over the batched path so both give
    bitwise-identical numbers."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigurationError("forward expects a 1-D input vector")
    y, cache = forward_batch(net, x[None, :])
    return y[0], cache


def backward_batch(
    net: MlpNetwork, cache: list, output_grad: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact reverse-mode gradients for a cached batched forward.

    Returns (param_grads, input_grad) where param_grads matches
    ``net.parameters()`` order and input_grad has the batch shape.
    """
    if len(cache) != len(net.weights):
        raise ConfigurationError("cache does not match network depth")
    g = np.asarray(output_grad, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != (cache[-1][1].shape[0], net.out_dim):
        raise ConfigurationError("output_grad shape does not match cached forward")
    w_grads: list[np.ndarray] = [None] * len(net.weights)  # type: ignore[list-item]
    b_grads: list[np.ndarray] = [None] * len(net.weights)  # type: ignore[list-item]
    for l in range(len(net.weights) - 1, -1, -1):
        h_in, u = cache[l]
        du = g * _activation_grad(net.activations[l], u)
        w_grads[l] = h_in.T @ du
        b_grads[l] = du.sum(axis=0)
        g = du @ net.weights[l].T
    params_grads: list[np.ndarray] = []
    for wg, bg in zip(w_grads, b_grads):
        params_grads.append(wg)
        params_grads.append(bg)
    return params_grads, g


def backward(
    net: MlpNetwork, cache: list, output_grad: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Single-vector companion of :func:`backward_batch`."""
    grads, gin = backward_batch(net, cache, np.asarray(output_grad)[None, :])
    return grads, gin[0]


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state over a parameter list."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def adam_init(params: list[np.ndarray], lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(
        lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> list[np.ndarray]:
    """One optimizer step; returns new parameter arrays, mutates the moments.

    Non-finite gradients abort the update before any state is touched.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ConfigurationError("adam_step shape bookkeeping mismatch")
    for i, g in enumerate(grads):
        if g.shape != params[i].shape:
            raise ConfigurationError(f"gradient {i} shape mismatch")
        if not np.all(np.isfinite(g)):
            bad = int(np.sum(~np.isfinite(g)))
            raise NumericsError(
                f"non-finite gradient at parameter {i} "
                f"(shape {g.shape}, {bad} bad entries); update aborted")
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        out.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return out


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def finite_diff_grad(f, params: list[np.ndarray], step: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient estimate of a scalar function of a
    parameter list. The test oracle; deliberately simple and slow."""
    grads = []
    work = [p.copy() for p in params]
    for i, p in enumerate(work):
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            f_plus = f(work)
            flat[j] = orig - step
            f_minus = f(work)
            flat[j] = orig
            gflat[j] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g)
    return grads


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max per-entry relative error with an absolute floor."""
    num = np.abs(a - b)
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(num / den))


def normed_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Relative error in the Euclidean norm; the right metric for comparing
    whole gradient blocks where single entries sit at roundoff level."""
    den = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b) / den)


def global_norm(arrays: list[np.ndarray]) -> float:
    total = 0.0
    for a in arrays:
        total += float(np.sum(a * a))
    return float(np.sqrt(total))


def clip_by_global_norm(arrays: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    n = global_norm(arrays)
    if n <= max_norm or n == 0.0:
        return arrays
    scale = max_norm / n
    return [a * scale for a in arrays]


# ---------------------------------------------------------------------------
# Checkpoint format (shared repo-wide)
# ---------------------------------------------------------------------------
#
# One file: a 4-byte little-endian unsigned header length, a JSON header
# {format_version, layer_sizes, activations, rng_seed, step_count}, then all
# parameters in declaration order as a little-endian float32 blob. Named
# trailing arrays (e.g. a policy's log-std vector) are appended after the
# network parameters and described by an optional "trailing" header entry.

def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, net: MlpNetwork, rng_seed: int, step_count: int,
                    trailing: list[tuple[str, np.ndarray]] | None = None) -> None:
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "layer_sizes": list(net.layer_sizes),
        "activations": list(net.activations),
        "rng_seed": int(rng_seed),
        "step_count": int(step_count),
    }
    blobs = [p.astype("<f4").tobytes() for p in net.parameters()]
    if trailing:
        header["trailing"] = [[name, int(arr.size)] for name, arr in trailing]
        blobs.extend(arr.astype("<f4").tobytes() for _, arr in trailing)
    head = _canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        for b in blobs:
            fh.write(b)


def load_checkpoint(path) -> tuple[MlpNetwork, dict, dict[str, np.ndarray]]:
    """Read a checkpoint back; parameters are upcast to float64."""
    with open(path, "rb") as fh:
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise ConfigurationError(f"{path}: truncated checkpoint header")
        (hlen,) = struct.unpack("<I", raw_len)
        header = json.loads(fh.read(hlen).decode("utf-8"))
        if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ConfigurationError(
                f"{path}: unsupported checkpoint format_version "
                f"{header.get('format_version')!r}")
        blob = fh.read()
    layer_sizes = list(header["layer_sizes"])
    activations = list(header["activations"])
    values = np.frombuffer(blob, dtype="<f4").astype(np.float64)
    weights, biases = [], []
    pos = 0
    for l in range(len(layer_sizes) - 1):
        n_in, n_out = layer_sizes[l], layer_sizes[l + 1]
        weights.append(values[pos:pos + n_in * n_out].reshape(n_in, n_out).copy())
        pos += n_in * n_out
        biases.append(values[pos:pos + n_out].copy())
        pos += n_out
    trailing: dict[str, np.ndarray] = {}
    for name, size in header.get("trailing", []):
        trailing[name] = values[pos:pos + size].copy()
        pos += size
    if pos != values.size:
        raise ConfigurationError(f"{path}: checkpoint blob size mismatch")
    net = MlpNetwork(layer_sizes, weights, biases, activations)
    return net, header, trailing


# Full-precision sidecar for exact training resume. Same envelope as the
# interchange format but float64 and free-form named arrays; not part of the
# repo-wide checkpoint contract.

def save_state_blob(path, meta: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "meta": meta,
        "arrays": [[name, list(a.shape)] for name, a in arrays],
    }
    head = _canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_state_blob(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        blob = fh.read()
    values = np.frombuffer(blob, dtype="<f8")
    arrays: dict[str, np.ndarray] = {}
    pos = 0
    for name, shape in header["arrays"]:
        size = int(np.prod(shape)) if shape else 1
        arrays[name] = values[pos:pos + size].reshape(shape).copy()
        pos += size
    return header["meta"], arrays
