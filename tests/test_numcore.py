import json
import re
import struct

import numpy as np
import pytest

import numcheck
from proxymanip import numcore as nc
from proxymanip import render, skillrl
from proxymanip import reprlearn as rl


def make_net(sizes, acts, seed=0):
    return nc.init_mlp(sizes, acts, seed)


def _preactivation_grad(name, u, g):
    """The activation derivative taken from the pre-activation ``u``; the
    output-based derivative of ``backward_batch`` must equal it bit for bit."""
    if name == "relu":
        return g * (u > 0.0)
    if name == "tanh":
        t = np.tanh(u)
        return g * (1.0 - t * t)
    return g


def oracle_backward(net, x, output_grad):
    """Reverse-mode gradients from a forward that keeps the pre-activations."""
    inputs, pre = [], []
    h = x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        u = h @ w + b
        inputs.append(h)
        pre.append(u)
        h = nc._apply_activation(act, u)
    g = output_grad
    grads = []
    for l in range(len(net.weights) - 1, -1, -1):
        du = _preactivation_grad(net.activations[l], pre[l], g)
        grads = [inputs[l].T @ du, du.sum(axis=0)] + grads
        if l:
            g = du @ net.weights[l].T
    return grads


def _net_with_zero_preactivations(act, seed):
    """A net and batch in which every layer has pre-activations that are
    exactly 0: a zero input row, zero weight columns and zero biases."""
    rng = np.random.Generator(np.random.PCG64(seed))
    net = make_net([5, 7, 6, 3], [act, act, act], seed=seed)
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        b[:] = rng.uniform(-0.5, 0.5, b.shape)
        b[::2] = 0.0
        w[:, l] = 0.0
    x = rng.uniform(-1, 1, (9, 5))
    x[0] = 0.0
    x[3, 1:] = 0.0
    return net, x, rng.uniform(-1, 1, (9, 3))


class TestForward:
    def test_identity_single_layer(self):
        net = nc.MlpNetwork([2, 2], [np.eye(2)], [np.zeros(2)], ["identity"])
        y, _ = nc.forward_batch(net, np.array([[1.0, 2.0]]))
        assert np.array_equal(y[0], [1.0, 2.0])

    def test_relu_clamp(self):
        net = nc.MlpNetwork([2, 2], [np.eye(2)], [np.zeros(2)], ["relu"])
        y, _ = nc.forward_batch(net, np.array([[-1.0, 2.0]]))
        assert np.array_equal(y[0], [0.0, 2.0])

    def test_hand_evaluated_affine(self):
        net = nc.MlpNetwork(
            [2, 1], [np.array([[0.5], [0.5]])], [np.array([0.25])], ["identity"])
        y, _ = nc.forward_batch(net, np.array([[1.0, 1.0]]))
        assert y[0, 0] == pytest.approx(1.25, abs=0)

    def test_deterministic(self):
        net = make_net([4, 8, 3], ["tanh", "identity"], seed=7)
        x = np.linspace(-1, 1, 4)[None, :]
        y1, _ = nc.forward_batch(net, x)
        y2, _ = nc.forward_batch(net, x)
        assert np.array_equal(y1, y2)

    def test_dimension_mismatch_raises(self):
        net = make_net([4, 3], ["identity"], seed=1)
        with pytest.raises(nc.ConfigurationError):
            nc.forward_batch(net, np.zeros((1, 5)))


class TestBackward:
    def test_linear_bias_gradient_is_one(self):
        net = make_net([3, 2], ["identity"], seed=3)
        y, cache = nc.forward_batch(net, np.array([[0.3, -0.2, 0.9]]))
        grads = nc.backward_batch(net, cache, np.ones((1, 2)))
        # loss = sum(outputs): d loss / d bias = 1 per unit
        assert np.array_equal(grads[1], np.ones(2))

    def test_relu_subgradient_zero_at_zero(self):
        net = nc.MlpNetwork([1, 1], [np.eye(1)], [np.zeros(1)], ["relu"])
        y, cache = nc.forward_batch(net, np.array([[0.0]]))
        grads = nc.backward_batch(net, cache, np.ones((1, 1)))
        assert grads[1][0] == 0.0
        assert grads[0][0, 0] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        net = make_net([3, 4, 2], ["tanh", "identity"], seed=seed)
        # (3*4 + 4) + (4*2 + 2): small, fast oracle
        assert sum(p.size for p in net.parameters()) == 26
        x = rng.uniform(-1, 1, 3)[None, :]
        w = rng.uniform(-1, 1, 2)  # fixed linear readout makes the loss scalar

        def loss(params):
            numcheck.assign(net.parameters(), params)
            y, _ = nc.forward_batch(net, x)
            return float(y[0] @ w)

        params = [p.copy() for p in net.parameters()]
        fd = numcheck.finite_diff_grad(loss, params, step=1e-5)
        numcheck.assign(net.parameters(), params)
        _, cache = nc.forward_batch(net, x)
        exact = nc.backward_batch(net, cache, w[None, :])
        for a, b in zip(exact, fd):
            assert numcheck.relative_error(a, b) < 1e-6

    @pytest.mark.parametrize("act", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_preactivation_oracle_bitwise(self, act, seed):
        net, x, g = _net_with_zero_preactivations(act, seed)
        u0 = x @ net.weights[0] + net.biases[0]
        assert (u0 == 0.0).any()
        y, cache = nc.forward_batch(net, x)
        assert cache[-1][1] is y
        got = nc.backward_batch(net, cache, g)
        want = oracle_backward(net, x, g)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("act", ["relu", "tanh", "identity"])
    def test_matches_preactivation_oracle_with_nan(self, act):
        net, x, g = _net_with_zero_preactivations(act, 5)
        x[4, 2] = np.nan
        _, cache = nc.forward_batch(net, x)
        got = nc.backward_batch(net, cache, g)
        for a, b in zip(got, oracle_backward(net, x, g)):
            assert np.array_equal(a, b, equal_nan=True)

    def test_stale_cache_rejected(self):
        net = make_net([3, 2], ["identity"], seed=0)
        other = make_net([3, 5, 2], ["relu", "identity"], seed=0)
        _, cache = nc.forward_batch(other, np.zeros((1, 3)))
        with pytest.raises(nc.ConfigurationError):
            nc.backward_batch(net, cache, np.ones((1, 2)))

    def test_batched_matches_single(self):
        # across batch shapes BLAS blocking may differ, so merely tight;
        # identical call patterns are bitwise (see test_deterministic)
        net = make_net([4, 6, 3], ["relu", "identity"], seed=11)
        xs = np.random.Generator(np.random.PCG64(5)).uniform(-1, 1, (7, 4))
        ys, _ = nc.forward_batch(net, xs)
        for i in range(7):
            yi, _ = nc.forward_batch(net, xs[i][None, :])
            assert np.allclose(yi[0], ys[i], rtol=0, atol=1e-12)


class TestAdam:
    def test_zero_gradient_from_fresh_state_keeps_params(self):
        params = [np.array([1.0, -2.0])]
        before = [p.copy() for p in params]
        st = nc.adam_init(params, lr=0.1)
        nc.adam_step(st, params, [np.zeros(2)])
        assert np.array_equal(params[0], before[0])

    def test_zero_gradient_decays_moments(self):
        params = [np.array([1.0, -2.0])]
        st = nc.adam_init(params, lr=0.1)
        st.m = [np.array([0.5, 0.5])]
        st.v = [np.array([0.25, 0.25])]
        nc.adam_step(st, params, [np.zeros(2)])
        assert np.allclose(st.m[0], 0.9 * 0.5)
        assert np.allclose(st.v[0], 0.999 * 0.25)

    def test_first_step_scalar_hand_computation(self):
        # one scalar, grad g: m_hat = g, v_hat = g^2,
        # update = -lr * g / (|g| + eps)
        g = 0.37
        lr = 1e-2
        params = [np.array([2.0])]
        st = nc.adam_init(params, lr=lr)
        nc.adam_step(st, params, [np.array([g])])
        expected = 2.0 - lr * g / (abs(g) + nc.ADAM_EPS)
        assert params[0][0] == pytest.approx(expected, abs=1e-15)
        assert st.step == 1

    def test_descends_convex_quadratic(self):
        p = [np.array([3.0])]
        st = nc.adam_init(p, lr=0.05)

        def f(params):
            return float(params[0][0] ** 2)

        v0 = f(p)
        for _ in range(2):
            g = [np.array([2.0 * p[0][0]])]
            nc.adam_step(st, p, g)
        assert f(p) < v0

    def test_lr_zero_is_identity(self):
        params = [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0])]
        before = [p.copy() for p in params]
        st = nc.adam_init(params, lr=0.0)
        grads = [np.ones((2, 2)), np.ones(1)]
        nc.adam_step(st, params, grads)
        for a, b in zip(params, before):
            assert np.array_equal(a, b)

    def test_nonfinite_gradient_aborts(self):
        params = [np.array([1.0])]
        st = nc.adam_init(params, lr=0.1)
        with pytest.raises(nc.NumericsError):
            nc.adam_step(st, params, [np.array([np.nan])])
        assert st.step == 0
        assert np.array_equal(params[0], [1.0])

    def test_in_place_is_bitwise_the_out_of_place_formula(self):
        # six encoder steps: parameters and moments equal the formula's bytes
        enc = rl.init_encoder(seed=3)
        cfg = rl.ReprTrainConfig(batch_size=8, lr=1e-3)
        batch = np.random.Generator(np.random.PCG64(4)).uniform(0, 1, (32, 1024))
        st = nc.adam_init(enc.net.parameters(), lr=cfg.lr)
        ref_p = [p.copy() for p in enc.net.parameters()]
        ref_m = [m.copy() for m in st.m]
        ref_v = [v.copy() for v in st.v]
        for t in range(1, 7):
            grads = rl.batch_loss_and_grads(enc, batch, np.arange(32), cfg)[3]
            ref_p, ref_m, ref_v = adam_out_of_place(st, t, ref_p, ref_m, ref_v,
                                                    grads)
            nc.adam_step(st, enc.net.parameters(), grads)
            for ours, ref in zip(enc.net.parameters() + st.m + st.v,
                                 ref_p + ref_m + ref_v):
                assert ours.tobytes() == ref.tobytes()


def adam_out_of_place(st, t, params, m, v, grads):
    """The Adam update as fresh arrays: the formula adam_step follows."""
    b1, b2 = nc.ADAM_BETA1, nc.ADAM_BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    m = [b1 * mi + (1.0 - b1) * g for mi, g in zip(m, grads)]
    v = [b2 * vi + (1.0 - b2) * (g * g) for vi, g in zip(v, grads)]
    params = [p - st.lr * (mi / c1) / (np.sqrt(vi / c2) + nc.ADAM_EPS)
              for p, mi, vi in zip(params, m, v)]
    return params, m, v


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = make_net([5, 4, 2], ["relu", "identity"], seed=9)
        path = tmp_path / "net.ckpt"
        nc.save_checkpoint(path, net, rng_seed=9, step_count=123)
        loaded, header, trailing = nc.load_checkpoint(path)
        assert header["layer_sizes"] == [5, 4, 2]
        assert header["step_count"] == 123
        assert trailing == {}
        for a, b in zip(loaded.parameters(), net.parameters()):
            assert np.allclose(a, b, atol=1e-6)  # float32 round trip

    def test_trailing_arrays(self, tmp_path):
        net = make_net([3, 2], ["identity"], seed=1)
        extra = np.array([-0.5, 0.25, 1.0, 0.0])
        path = tmp_path / "net.ckpt"
        nc.save_checkpoint(path, net, 1, 0, trailing=[("log_std", extra)])
        _, header, trailing = nc.load_checkpoint(path)
        assert header["trailing"] == [["log_std", 4]]
        assert np.allclose(trailing["log_std"], extra, atol=1e-7)

    def test_deterministic_bytes(self, tmp_path):
        net = make_net([4, 3], ["tanh"], seed=2)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nc.save_checkpoint(p1, net, 2, 7)
        nc.save_checkpoint(p2, net, 2, 7)
        assert p1.read_bytes() == p2.read_bytes()


def _write_checkpoint(path):
    nc.save_checkpoint(path, make_net([3, 2], ["identity"], seed=1), 1, 0,
                       trailing=[("log_std", np.array([-0.5, 0.5]))])


def _write_pgm(path):
    render.write_pgm(path, np.full((64, 64), 7, dtype=np.uint8))


def _write_policy_json(path):
    skillrl.save_policy(path.parent / "policy", skillrl.init_policy(0))
    path.write_bytes((path.parent / "policy" / "policy.json").read_bytes())


# format -> (writer, loader, a header key it requires); the checkpoint is the
# one binary format
ENVELOPE_FORMATS = {
    "checkpoint": (_write_checkpoint, nc.load_checkpoint, "layer_sizes"),
}

# writers of the other files the pipeline leaves, none of them a checkpoint
FOREIGN_FILES = {"pgm": _write_pgm, "policy_json": _write_policy_json}


def _split(raw):
    (hlen,) = struct.unpack_from("<I", raw)
    return json.loads(raw[4:4 + hlen]), raw[4 + hlen:]


def _pack(header_bytes, payload):
    return struct.pack("<I", len(header_bytes)) + header_bytes + payload


def _with_header(raw, edit):
    header, payload = _split(raw)
    edit(header)
    return _pack(json.dumps(header).encode(), payload)


# case -> (valid file bytes, key the format requires) -> bad file bytes
BAD_ENVELOPES = {
    "short_length_prefix": lambda raw, key: raw[:3],
    "short_header": lambda raw, key: raw[:4 + 10],
    "non_json_header": lambda raw, key: _pack(b"{not json", _split(raw)[1]),
    "foreign_version": lambda raw, key: _with_header(
        raw, lambda h: h.update(format_version=99)),
    "missing_key": lambda raw, key: _with_header(raw, lambda h: h.pop(key)),
    "short_payload": lambda raw, key: raw[:-8],
    "extra_bytes": lambda raw, key: raw + bytes(range(8)),
    "ragged_payload": lambda raw, key: raw[:-1],
}


class TestEnvelopeLoaders:
    @pytest.mark.parametrize("case", sorted(BAD_ENVELOPES))
    @pytest.mark.parametrize("fmt", sorted(ENVELOPE_FORMATS))
    def test_bad_file_names_the_path(self, tmp_path, fmt, case):
        write, load, key = ENVELOPE_FORMATS[fmt]
        path = tmp_path / "file.bin"
        write(path)
        load(path)  # the unedited file loads
        path.write_bytes(BAD_ENVELOPES[case](path.read_bytes(), key))
        with pytest.raises(nc.ConfigurationError, match=re.escape(str(path))):
            load(path)

    @pytest.mark.parametrize("activations", [["sigmoid"], ["identity"] * 2])
    def test_invalid_network_names_the_path(self, tmp_path, activations):
        path = tmp_path / "file.bin"
        _write_checkpoint(path)
        path.write_bytes(_with_header(
            path.read_bytes(), lambda h: h.update(activations=activations)))
        with pytest.raises(nc.ConfigurationError, match=re.escape(str(path))):
            nc.load_checkpoint(path)

    @pytest.mark.parametrize("fmt", sorted(ENVELOPE_FORMATS))
    def test_other_format_names_the_path(self, tmp_path, fmt):
        _, load, _ = ENVELOPE_FORMATS[fmt]
        for name, write in FOREIGN_FILES.items():
            path = tmp_path / f"{name}.bin"
            write(path)
            with pytest.raises(nc.ConfigurationError,
                               match=re.escape(str(path))):
                load(path)


def test_derive_seed_stable_and_distinct():
    a = nc.derive_seed(123, 0, 1)
    assert a == nc.derive_seed(123, 0, 1)
    assert a != nc.derive_seed(123, 1, 0)
    assert a != nc.derive_seed(124, 0, 1)
