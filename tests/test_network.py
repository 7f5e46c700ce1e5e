"""Tests for the activation catalogue and MLP container."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurodissip import activations as acts
from neurodissip.activations import (
    ACTIVATIONS,
    EPS_Z,
    get_activation,
    lambda_entry,
    ray_gains,
    secant_gains,
)
from neurodissip.network import Layer, MlpNetwork, load_network, save_network


class TestActivationValues:
    def test_relu(self):
        relu = get_activation("relu")
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_tanh_at_zero(self):
        assert get_activation("tanh")(0.0) == 0.0

    def test_softplus_at_zero_is_log_two(self):
        assert get_activation("softplus")(0.0) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_sigmoid_at_zero(self):
        assert get_activation("sigmoid")(0.0) == pytest.approx(0.5)

    def test_gelu_uses_exact_gaussian_cdf(self):
        gelu = get_activation("gelu")
        # At z=1: z * Phi(1), Phi(1) = 0.841344746...
        assert gelu(1.0) == pytest.approx(0.8413447460685429, rel=1e-12)

    def test_selu_canonical_constants(self):
        selu = get_activation("selu")
        assert selu(1.0) == pytest.approx(1.0507009873554805, rel=1e-12)
        assert selu(-1e9) == pytest.approx(-1.0507009873554805 * 1.6732632423543772, rel=1e-9)

    def test_value_at_zero_fields_match_functions(self):
        for act in ACTIVATIONS.values():
            assert act(0.0) == pytest.approx(act.value_at_zero, abs=1e-15)

    def test_slope_at_zero_matches_right_difference(self):
        h = 1e-7
        for act in ACTIVATIONS.values():
            fd = (act(h) - act.value_at_zero) / h
            assert fd == pytest.approx(act.slope_at_zero, abs=1e-5), act.name

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="unknown activation"):
            get_activation("swishish")

    def test_value_and_slope_match_fn_and_deriv_bitwise(self):
        special = [0.0, EPS_Z, -EPS_Z, 1e-3, -1e-3, 1.0, -1.0, 40.0, -40.0]
        z = np.concatenate([special, np.random.default_rng(3).standard_normal(1000)])
        for act in ACTIVATIONS.values():
            value, slope = act.value_and_slope(z)
            assert value.tobytes() == act.fn(z).tobytes(), act.name
            assert slope.tobytes() == act.deriv(z).tobytes(), act.name


class TestGains:
    def test_relu_branches(self):
        assert lambda_entry("relu", 2.0) == 1.0
        assert lambda_entry("relu", -2.0) == 0.0
        # Inactive convention at exactly zero.
        assert lambda_entry("relu", 0.0) == 0.0

    def test_small_z_fallback_is_right_slope(self):
        assert lambda_entry("tanh", 1e-12) == 1.0
        assert lambda_entry("sigmoid", 0.0) == 0.25
        assert lambda_entry("gelu", -1e-12) == 0.5

    def test_sigmoid_secant_value(self):
        z = 4.0
        want = (1.0 / (1.0 + np.exp(-z)) - 0.5) / z
        assert lambda_entry("sigmoid", z) == pytest.approx(want, rel=1e-12)

    def test_secant_identity_reconstructs_value(self):
        # sigma(z) == lambda * z + sigma(0) away from the fallback band.
        zs = np.concatenate([
            -np.geomspace(1e-6, 50.0, 200),
            np.geomspace(1e-6, 50.0, 200),
        ])
        for act in ACTIVATIONS.values():
            lam = secant_gains(act, zs)
            np.testing.assert_allclose(
                lam * zs + act.value_at_zero, act.fn(zs),
                atol=1e-12, rtol=1e-10, err_msg=act.name,
            )

    def test_secant_identity_in_fallback_band(self):
        # Inside |z| < EPS_Z the fallback slope keeps the error at |z| scale.
        zs = np.array([-9e-10, -1e-12, 1e-12, 9e-10])
        for act in ACTIVATIONS.values():
            lam = secant_gains(act, zs)
            err = np.abs(lam * zs + act.value_at_zero - act.fn(zs))
            assert np.all(err <= 2.0 * EPS_Z), act.name

    def test_stable_class_gains_bounded_by_one(self):
        zs = np.concatenate([
            -np.geomspace(1e-12, 50.0, 400),
            [0.0],
            np.geomspace(1e-12, 50.0, 400),
        ])
        for act in ACTIVATIONS.values():
            if act.stability_class != acts.STABLE:
                continue
            for gains in (secant_gains(act, zs), ray_gains(act, zs)):
                assert np.max(np.abs(gains)) <= 1.0 + 1e-12, act.name

    def test_selu_and_softplus_exceed_one_somewhere(self):
        zs = np.linspace(-5.0, 5.0, 1001)
        assert np.max(np.abs(secant_gains(get_activation("selu"), zs))) > 1.0
        assert np.max(np.abs(ray_gains(get_activation("softplus"), zs))) > 1.0

    def test_ray_equals_secant_when_centered(self):
        zs = np.linspace(-3.0, 3.0, 101)
        for name in ("relu", "tanh", "gelu", "selu"):
            act = get_activation(name)
            np.testing.assert_array_equal(ray_gains(act, zs), secant_gains(act, zs))

    def test_ray_reconstructs_value_exactly(self):
        # sigma(z) == gain * z away from the fallback band, no offset.
        zs = np.concatenate([-np.geomspace(1e-8, 20.0, 100), np.geomspace(1e-8, 20.0, 100)])
        for name in ("sigmoid", "softplus"):
            act = get_activation(name)
            np.testing.assert_allclose(
                ray_gains(act, zs) * zs, act.fn(zs), rtol=1e-9, atol=1e-12
            )

    def test_ray_sigmoid_diverges_near_zero(self):
        act = get_activation("sigmoid")
        g = ray_gains(act, np.array([1e-12, -1e-12]))
        assert g[0] > 1e8
        assert g[1] < -1e8

    @given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_secant_identity_property(self, z):
        for name in ("tanh", "gelu", "selu", "sigmoid"):
            act = get_activation(name)
            lam = float(secant_gains(act, np.array([z]))[0])
            err = abs(lam * z + act.value_at_zero - float(act(z)))
            assert err <= max(2.0 * EPS_Z, 1e-10 * abs(z))


class TestLayer:
    def test_bias_shape_checked(self):
        with pytest.raises(ValueError, match="bias shape"):
            Layer(weight=np.eye(2), bias=np.zeros(3))

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation"):
            Layer(weight=np.eye(2), activation="blu")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Layer(weight=np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestMlpNetwork:
    def test_dimension_chain_checked(self):
        with pytest.raises(ValueError, match="layer 1"):
            MlpNetwork(layers=(
                Layer(weight=np.ones((3, 2))),
                Layer(weight=np.ones((2, 2))),
            ))

    def test_relu_readout_example(self):
        # relu(1*2 - 1) = 1, then 3 * 1 = 3.
        net = MlpNetwork(layers=(
            Layer(weight=np.array([[1.0]]), bias=np.array([-1.0]), activation="relu"),
            Layer(weight=np.array([[3.0]])),
        ))
        np.testing.assert_allclose(net.forward([2.0]), [3.0])

    def test_identity_network(self):
        net = MlpNetwork(layers=(Layer(weight=np.eye(3), activation="identity"),))
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(net.forward(x), x)

    def test_forward_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        w0, b0 = rng.standard_normal((4, 3)), rng.standard_normal(4)
        w1, b1 = rng.standard_normal((5, 4)), rng.standard_normal(5)
        w2 = rng.standard_normal((2, 5))
        net = MlpNetwork(layers=(
            Layer(weight=w0, bias=b0, activation="tanh"),
            Layer(weight=w1, bias=b1, activation="tanh"),
            Layer(weight=w2),
        ))
        x = rng.standard_normal(3)
        # Step-by-step re-evaluation with plain loops.
        h = np.tanh(w0 @ x + b0)
        h = np.tanh(w1 @ h + b1)
        want = w2 @ h
        np.testing.assert_allclose(net.forward(x), want, atol=1e-12)

    def test_trace_holds_every_preactivation(self):
        rng = np.random.default_rng(1)
        w0 = rng.standard_normal((3, 2))
        w1 = rng.standard_normal((2, 3))
        net = MlpNetwork(layers=(
            Layer(weight=w0, activation="relu"),
            Layer(weight=w1),
        ))
        x = np.array([0.3, -0.7])
        y, zs = net.forward_trace(x)
        assert len(zs) == 2
        np.testing.assert_allclose(zs[0], w0 @ x, atol=1e-15)
        np.testing.assert_allclose(zs[1], y, atol=1e-15)

    def test_forward_batch_matches_single(self):
        rng = np.random.default_rng(2)
        net = MlpNetwork(layers=(
            Layer(weight=rng.standard_normal((4, 2)),
                  bias=rng.standard_normal(4), activation="gelu"),
            Layer(weight=rng.standard_normal((2, 4)), activation="tanh"),
        ))
        xs = rng.standard_normal((10, 2))
        ys, zs = net.forward_batch(xs)
        for i, x in enumerate(xs):
            yi, zi = net.forward_trace(x)
            np.testing.assert_allclose(ys[i], yi, atol=1e-12)
            np.testing.assert_allclose(zs[0][i], zi[0], atol=1e-12)

    def test_wrong_input_dim(self):
        net = MlpNetwork(layers=(Layer(weight=np.eye(2), activation="relu"),))
        with pytest.raises(ValueError, match="input"):
            net.forward([1.0, 2.0, 3.0])


class TestSerialization:
    def _roundtrip(self, net, tmp_path):
        path = tmp_path / "net.json"
        save_network(net, path)
        return load_network(path)

    def test_roundtrip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(3)
        net = MlpNetwork(layers=(
            Layer(weight=rng.standard_normal((3, 2)),
                  bias=rng.standard_normal(3), activation="selu"),
            Layer(weight=rng.standard_normal((2, 3))),
        ))
        back = self._roundtrip(net, tmp_path)
        for a, b in zip(net.layers, back.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            assert a.activation == b.activation
            if a.bias is None:
                assert b.bias is None
            else:
                np.testing.assert_array_equal(a.bias, b.bias)

    def test_bias_null_roundtrip(self, tmp_path):
        net = MlpNetwork(layers=(Layer(weight=np.eye(2), activation="relu"),))
        back = self._roundtrip(net, tmp_path)
        assert back.layers[0].bias is None

    def test_schema_shape(self, tmp_path):
        net = MlpNetwork(layers=(
            Layer(weight=np.array([[1.0, 2.0], [3.0, 4.0]]), activation="tanh"),
        ))
        path = tmp_path / "net.json"
        save_network(net, path)
        doc = json.loads(path.read_text())
        layer = doc["layers"][0]
        assert layer["rows"] == 2 and layer["cols"] == 2
        assert layer["weight"] == [1.0, 2.0, 3.0, 4.0]  # row-major
        assert layer["bias"] is None
        assert layer["activation"] == "tanh"

    def test_corrupt_weight_count(self):
        with pytest.raises(ValueError, match="entries"):
            MlpNetwork.from_dict(
                {"layers": [{"rows": 2, "cols": 2, "weight": [1.0, 2.0],
                             "bias": None, "activation": None}]}
            )

    def test_missing_layers_key(self):
        with pytest.raises(ValueError, match="layers"):
            MlpNetwork.from_dict({})
