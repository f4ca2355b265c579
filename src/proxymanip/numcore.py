"""Dense numerics for the whole pipeline.

Small feed-forward networks with hand-written exact gradients, a bias-corrected
adaptive-moment optimizer, the one binary file format, the checkpoint, with a
reader that rejects truncated, padded or foreign files (see "Binary files"
below), and the one CSV writer of run logs.
Everything is float64 so the tests' finite-difference gradient checks stay
tight.
"""

from __future__ import annotations

import csv
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


def require(ok: bool, name: str, value, what: str) -> None:
    """Reject a setting by name: ``<name> must be <what>, got <value>``."""
    if not ok:
        raise ConfigurationError(f"{name} must be {what}, got {value}")


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


def _activation_grad(name: str, out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The upstream gradient ``g`` times the activation's derivative, taken
    from the activation's output ``out``. relu's output is positive exactly
    where its input is (subgradient 0 at exactly 0, and at NaN), and tanh's
    derivative is ``1 - tanh(u)**2``."""
    if name == "relu":
        return g * (out > 0.0)
    if name == "tanh":
        return g * (1.0 - out * out)
    return g


def forward_batch(net: MlpNetwork, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Run a (B, in_dim) batch through the network.

    Returns the (B, out_dim) output and a cache of per-layer (input, output)
    pairs, each output being the next layer's input, sufficient for
    :func:`backward_batch`. Pre-activations are not kept.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise ConfigurationError(
            f"input has shape {x.shape}, expected (B, {net.in_dim})")
    cache = []
    h = x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        out = _apply_activation(act, h @ w + b)
        cache.append((h, out))
        h = out
    return h, cache


def backward_batch(net: MlpNetwork, cache: list,
                   output_grad: np.ndarray) -> list[np.ndarray]:
    """Exact reverse-mode parameter gradients for a cached batched forward,
    in ``net.parameters()`` order. Each layer's activation derivative comes
    from the output cached by :func:`forward_batch`. The gradient with
    respect to the input is not formed."""
    if len(cache) != len(net.weights):
        raise ConfigurationError("cache does not match network depth")
    g = np.asarray(output_grad, dtype=np.float64)
    if g.shape != (cache[-1][1].shape[0], net.out_dim):
        raise ConfigurationError("output_grad shape does not match cached forward")
    grads: list[np.ndarray] = []
    for l in range(len(net.weights) - 1, -1, -1):
        h_in, out = cache[l]
        du = _activation_grad(net.activations[l], out, g)
        grads = [h_in.T @ du, du.sum(axis=0)] + grads
        if l:
            g = du @ net.weights[l].T
    return grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state over a parameter list."""

    lr: float
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    # per parameter, two parameter-shaped scratch slots for adam_step
    work: list[np.ndarray] = field(default_factory=list)


def adam_init(params: list[np.ndarray], lr: float) -> AdamState:
    return AdamState(
        lr=lr,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> None:
    """One optimizer step; updates the parameters and the moments in place.

    With ``b1``, ``b2`` and ``eps`` the ``ADAM_`` constants, the arithmetic
    is that of ``m = b1 * m + (1 - b1) * g``,
    ``v = b2 * v + (1 - b2) * (g * g)`` and
    ``p - lr * (m / c1) / (sqrt(v / c2) + eps)``, operation for operation, so
    the result is bitwise the same; the intermediates go to ``state.work``.
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
    if [w.shape[1:] for w in state.work] != [p.shape for p in params]:
        state.work = [np.empty((2,) + p.shape) for p in params]
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for p, g, m, v, (num, den) in zip(params, grads, state.m, state.v,
                                      state.work):
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(g, 1.0 - ADAM_BETA1, out=num)
        np.add(m, num, out=m)
        np.multiply(g, g, out=num)
        np.multiply(num, 1.0 - ADAM_BETA2, out=num)
        np.multiply(v, ADAM_BETA2, out=v)
        np.add(v, num, out=v)
        np.divide(m, c1, out=num)
        np.multiply(num, state.lr, out=num)
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        np.add(den, ADAM_EPS, out=den)
        np.divide(num, den, out=num)
        np.subtract(p, num, out=p)


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
# Binary files (shared repo-wide)
# ---------------------------------------------------------------------------
#
# Every binary file is a checkpoint: a 4-byte little-endian unsigned header
# length, a canonical JSON header {format_version, layer_sizes, activations,
# rng_seed, step_count}, then a float32 little-endian payload of all
# parameters in declaration order. Named trailing arrays (e.g. a policy's
# log-std vector) follow the network parameters and are listed in an optional
# "trailing" header entry.
#
# The reader raises ConfigurationError, naming the file, on a short length
# prefix, a short or non-JSON header, a foreign format_version, a missing
# header key, a payload that is short, has extra bytes or is not a whole
# number of elements, and a header that describes no valid network.

def save_checkpoint(path, net: MlpNetwork, rng_seed: int, step_count: int,
                    trailing: list[tuple[str, np.ndarray]] | None = None) -> None:
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "layer_sizes": list(net.layer_sizes),
        "activations": list(net.activations),
        "rng_seed": int(rng_seed),
        "step_count": int(step_count),
    }
    arrays = net.parameters()
    if trailing:
        header["trailing"] = [[name, int(arr.size)] for name, arr in trailing]
        arrays = arrays + [arr for _, arr in trailing]
    head = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[MlpNetwork, dict, dict[str, np.ndarray]]:
    """Read a checkpoint back; parameters are upcast to float64."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise ConfigurationError(
            f"{path}: truncated length prefix ({len(raw)} of 4 bytes)")
    (hlen,) = struct.unpack_from("<I", raw)
    if len(raw) < 4 + hlen:
        raise ConfigurationError(
            f"{path}: truncated header ({len(raw) - 4} of {hlen} bytes)")
    try:
        header = json.loads(raw[4:4 + hlen].decode("utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError, JSONDecodeError
        raise ConfigurationError(f"{path}: header is not JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ConfigurationError(f"{path}: header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ConfigurationError(
            f"{path}: unsupported format_version {header.get('format_version')!r}")
    missing = [k for k in ("layer_sizes", "activations", "rng_seed",
                           "step_count") if k not in header]
    if missing:
        raise ConfigurationError(f"{path}: header lacks {missing}")
    try:
        sizes = header["layer_sizes"]
        count = sum(n_in * n_out + n_out for n_in, n_out in zip(sizes, sizes[1:]))
        count += sum(size for _, size in header.get("trailing", []))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: malformed header ({exc})") from exc
    payload = raw[4 + hlen:]
    if len(payload) != count * 4:
        raise ConfigurationError(
            f"{path}: payload has {len(payload)} bytes, the header describes "
            f"{count} values of 4 bytes")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    layer_sizes = list(sizes)
    weights, biases = [], []
    pos = 0
    for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(values[pos:pos + n_in * n_out].reshape(n_in, n_out).copy())
        pos += n_in * n_out
        biases.append(values[pos:pos + n_out].copy())
        pos += n_out
    trailing: dict[str, np.ndarray] = {}
    for name, size in header.get("trailing", []):
        trailing[name] = values[pos:pos + size].copy()
        pos += size
    try:
        net = MlpNetwork(layer_sizes, weights, biases, list(header["activations"]))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return net, header, trailing


def require_layers(path, net: MlpNetwork, layer_sizes: list[int],
                   activations: list[str]) -> None:
    """Reject a loaded network that is not the one expected, such as another
    checkpoint copied over it: ``<path>: <field> is <got>, expected <want>``."""
    for name, want in (("layer_sizes", layer_sizes), ("activations", activations)):
        if getattr(net, name) != want:
            raise ConfigurationError(
                f"{path}: {name} is {getattr(net, name)}, expected {want}")


# ---------------------------------------------------------------------------
# Run logs
# ---------------------------------------------------------------------------

def write_run_log(path, header: list[str], keys: list[str],
                  rows: list[dict]) -> None:
    """A CSV file of ``header`` and then one line per row, each cell the
    ``repr`` of ``row[key]``, so a float reads back bitwise."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(row[k]) for k in keys] for row in rows)
