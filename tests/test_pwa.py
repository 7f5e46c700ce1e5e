"""Tests for the pointwise-affine decomposition.

The central oracle is the network's own forward pass: the affine form
must reproduce it at the anchor to float precision.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurodissip.activations import ACTIVATIONS, ray_gains, secant_gains
from neurodissip.network import Layer, MlpNetwork
from neurodissip.pwa import PwaForm, extract_pwa, extract_pwa_batch, verify_equivalence


def random_net(rng, dims, activation, bias=True, scale=1.0, readout=False):
    layers = []
    for i in range(len(dims) - 1):
        w = scale * rng.standard_normal((dims[i + 1], dims[i]))
        b = rng.standard_normal(dims[i + 1]) if bias else None
        last = i == len(dims) - 2
        layers.append(Layer(weight=w, bias=b,
                            activation=None if (last and readout) else activation))
    return MlpNetwork(layers=tuple(layers))


def rel_residual(net, form):
    y = net.forward(form.anchor)
    return verify_equivalence(net, form) / (1.0 + np.sqrt(np.sum(y * y)))


class TestLinearNetworks:
    def test_pure_linear_stack(self):
        rng = np.random.default_rng(0)
        w0 = rng.standard_normal((3, 2))
        w1 = rng.standard_normal((2, 3))
        net = MlpNetwork(layers=(Layer(weight=w0), Layer(weight=w1)))
        form = extract_pwa(net, [0.5, -1.0])
        np.testing.assert_allclose(form.a_star, w1 @ w0, atol=1e-14)
        np.testing.assert_allclose(form.b_star, np.zeros(2), atol=1e-14)
        assert form.lambdas == ()

    def test_linear_form_is_anchor_independent(self):
        rng = np.random.default_rng(1)
        net = MlpNetwork(layers=(Layer(weight=rng.standard_normal((2, 2)),
                                       bias=rng.standard_normal(2)),))
        f1 = extract_pwa(net, [0.0, 0.0])
        f2 = extract_pwa(net, [5.0, -3.0])
        np.testing.assert_array_equal(f1.a_star, f2.a_star)
        np.testing.assert_array_equal(f1.b_star, f2.b_star)


class TestReluNetworks:
    def test_all_active_orthant_recovers_weight_product(self):
        w0 = np.array([[1.0, 0.5], [0.25, 1.0]])
        w1 = np.array([[0.5, -0.2], [0.1, 0.3]])
        net = MlpNetwork(layers=(
            Layer(weight=w0, activation="relu"),
            Layer(weight=w1),
        ))
        # Anchor chosen so both hidden pre-activations are positive.
        form = extract_pwa(net, [1.0, 2.0])
        np.testing.assert_allclose(form.a_star, w1 @ w0, atol=1e-14)

    def test_a_star_constant_within_activation_region(self):
        rng = np.random.default_rng(2)
        net = random_net(rng, [2, 4, 2], "relu", readout=True)
        x = rng.standard_normal(2)
        _, trace = net.forward_trace(x)
        pattern = [z > 0 for _, z, _ in trace[:-1]]
        # A tiny perturbation that keeps the same sign pattern.
        for _ in range(50):
            dx = 1e-6 * rng.standard_normal(2)
            _, trace2 = net.forward_trace(x + dx)
            if all(((z2 > 0) == p).all()
                   for (_, z2, _), p in zip(trace2[:-1], pattern)):
                f1 = extract_pwa(net, x)
                f2 = extract_pwa(net, x + dx)
                np.testing.assert_array_equal(f1.a_star, f2.a_star)
                break
        else:
            pytest.skip("no same-pattern perturbation found")


class TestEquivalence:
    @pytest.mark.parametrize("activation", ["tanh", "gelu", "selu", "softplus", "sigmoid"])
    def test_deep_network_equivalence(self, activation):
        rng = np.random.default_rng(hash(activation) % 2**32)
        net = random_net(rng, [3] + [6] * 8 + [3], activation, scale=0.5)
        for _ in range(100):
            x = 3.0 * rng.standard_normal(3)
            form = extract_pwa(net, x)
            assert rel_residual(net, form) <= 1e-6

    def test_bias_free_centered_networks_have_zero_b(self):
        rng = np.random.default_rng(3)
        for activation in ("relu", "tanh", "gelu", "selu"):
            net = random_net(rng, [2, 4, 2], activation, bias=False, readout=True)
            for mode in ("affine", "linear"):
                form = extract_pwa(net, rng.standard_normal(2), mode=mode)
                np.testing.assert_array_equal(form.b_star, np.zeros(2))

    def test_linear_mode_exact_through_origin(self):
        # Bias-free sigmoid network: ray gains give f(x) = A(x) x exactly.
        rng = np.random.default_rng(4)
        net = random_net(rng, [2, 3, 2], "sigmoid", bias=False)
        x = np.array([0.8, -1.3])
        form = extract_pwa(net, x, mode="linear")
        np.testing.assert_array_equal(form.b_star, np.zeros(2))
        np.testing.assert_allclose(form.evaluate(x), net.forward(x), atol=1e-12)

    def test_affine_mode_sigmoid_has_offset_b(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, [2, 3, 2], "sigmoid", bias=False)
        form = extract_pwa(net, [0.8, -1.3], mode="affine")
        assert np.any(form.b_star != 0.0)
        assert verify_equivalence(net, form) <= 1e-12

    def test_perturbed_b_raises_residual_by_that_much(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, [2, 4, 2], "tanh")
        form = extract_pwa(net, rng.standard_normal(2))
        delta = np.array([1e-3, 0.0])
        tampered = extract_pwa(net, form.anchor)
        object.__setattr__(tampered, "b_star", tampered.b_star + delta)
        assert verify_equivalence(net, tampered) == pytest.approx(1e-3, rel=1e-6)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, seed):
        rng = np.random.default_rng(seed)
        activation = rng.choice(["relu", "tanh", "gelu", "selu", "sigmoid"])
        depth = int(rng.integers(1, 4))
        dims = [2] + [int(rng.integers(2, 5)) for _ in range(depth)] + [2]
        net = random_net(rng, dims, str(activation), bias=bool(rng.integers(2)))
        x = 4.0 * rng.standard_normal(2)
        for mode in ("affine", "linear"):
            form = extract_pwa(net, x, mode=mode)
            assert rel_residual(net, form) <= 1e-6

    def test_lambda_shapes_follow_activated_layers(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, [2, 5, 3, 2], "tanh", readout=True)
        form = extract_pwa(net, [0.1, 0.2])
        assert [lam.shape for lam in form.lambdas] == [(5,), (3,)]

    def test_mode_validation(self):
        net = MlpNetwork(layers=(Layer(weight=np.eye(2), activation="relu"),))
        with pytest.raises(ValueError, match="mode"):
            extract_pwa(net, [1.0, 1.0], mode="secant")


class TestBatchedExtraction:
    @pytest.mark.parametrize("mode", ["affine", "linear"])
    def test_matches_single_anchor_extraction(self, mode):
        rng = np.random.default_rng(8)
        net = random_net(rng, [2, 4, 4, 2], "selu")
        xs = 3.0 * rng.standard_normal((25, 2))
        a, b, _ = extract_pwa_batch(net, xs, mode=mode)
        for i, x in enumerate(xs):
            form = extract_pwa(net, x, mode=mode)
            np.testing.assert_allclose(a[i], form.a_star, atol=1e-13)
            np.testing.assert_allclose(b[i], form.b_star, atol=1e-13)

    def test_rejects_single_point(self):
        rng = np.random.default_rng(9)
        net = random_net(rng, [2, 2], "relu")
        with pytest.raises(ValueError, match="anchors"):
            extract_pwa_batch(net, np.zeros(2))


def reference_forward_trace(net, x):
    """The single-point forward loop, one W @ h product per layer."""
    h = np.asarray(x, dtype=float)
    zs = []
    for layer in net.layers:
        z = layer.weight @ h
        if layer.bias is not None:
            z = z + layer.bias
        zs.append(z)
        h = layer.act.fn(z) if layer.activation is not None else z
    return h, zs


def reference_extract_pwa(net, x, mode="affine"):
    """The single-anchor A(x) assembly, kept as the bit-for-bit reference."""
    anchor = np.asarray(x, dtype=float)
    _, zs = reference_forward_trace(net, anchor)

    a = None  # accumulated map, input -> current value
    b = np.zeros(net.input_dim)
    lambdas = []
    for layer, z in zip(net.layers, zs):
        w = layer.weight
        a = w.copy() if a is None else w @ a
        b = w @ b
        if layer.bias is not None:
            b = b + layer.bias
        if layer.activation is not None:
            act = layer.act
            if mode == "affine":
                gains = secant_gains(act, z)
                offset = act.value_at_zero
            else:
                gains = ray_gains(act, z)
                offset = 0.0
            a = gains[:, None] * a
            b = gains * b + offset
            lambdas.append(gains)
    return PwaForm(anchor=anchor, a_star=a, b_star=b, lambdas=tuple(lambdas), mode=mode)


class TestBatchOfOneIsBitExact:
    """Single-point calls run the batch code; they must equal the single-point loops."""

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_matches_single_point_loops(self, activation):
        rng = np.random.default_rng(sorted(ACTIVATIONS).index(activation))
        for depth in (1, 2, 4, 8):
            for width in (2, 3, 8, 16):
                for bias in (True, False):
                    for readout in (False, True):
                        dims = [3] + [width] * depth + ([2] if readout else [])
                        net = random_net(rng, dims, activation, bias=bias,
                                         scale=1.0 / np.sqrt(width), readout=readout)
                        anchors = [np.zeros(3)] + list(2.0 * rng.standard_normal((3, 3)))
                        for x in anchors:
                            want_y, want_zs = reference_forward_trace(net, x)
                            y, trace = net.forward_trace(x)
                            np.testing.assert_array_equal(y, want_y)
                            assert len(trace) == len(want_zs)
                            for (_, z, _), want_z in zip(trace, want_zs):
                                np.testing.assert_array_equal(z, want_z)
                            np.testing.assert_array_equal(net.forward(x), want_y)
                            for mode in ("affine", "linear"):
                                want = reference_extract_pwa(net, x, mode)
                                got = extract_pwa(net, x, mode)
                                np.testing.assert_array_equal(got.a_star, want.a_star)
                                np.testing.assert_array_equal(got.b_star, want.b_star)
                                assert len(got.lambdas) == len(want.lambdas)
                                for lam, want_lam in zip(got.lambdas, want.lambdas):
                                    np.testing.assert_array_equal(lam, want_lam)
