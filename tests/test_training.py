"""Training-engine tests.

Gradients are checked against central finite differences, losses against
hand arithmetic, and the dissipativity penalty against an explicit
diag(lambda_l) W_l chain.  The structured-parametrization tests verify the
documented draw order and the raw-parameter gradients (vjp).
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from neurodissip import activations, dissipativity, training
from neurodissip.network import Layer, MlpNetwork
from neurodissip.structured import (
    MAP_KINDS,
    ComplexGershgorinWeight,
    FreeWeight,
    GershgorinWeight,
    PfWeight,
    SpectralWeight,
    draw_map,
)
from neurodissip.training import (
    BlockSSM,
    ConstrainedLayer,
    ConstrainedNetwork,
    TrainConfig,
    TrainingData,
    TrainingDiverged,
    load_checkpoint,
    make_mlp,
    open_loop_mse,
    save_checkpoint,
    train,
)


def rollout_loss(model, states, inputs, horizon):
    """Open-loop MSE over one window: the BPTT forward pass on a batch of one."""
    loss, *_ = training._bptt_forward(
        model.f_net, model.g_net,
        np.asarray(states, dtype=float)[None, :horizon + 1],
        np.asarray(inputs, dtype=float)[None, :horizon])
    return loss


def backward(model, states, inputs, horizon):
    """One window's loss, every weight and bias gradient, and the per-step
    forward traces, straight from the BPTT core."""
    loss, f_traces, g_traces, err = training._bptt_forward(
        model.f_net, model.g_net,
        np.asarray(states, dtype=float)[None, :horizon + 1],
        np.asarray(inputs, dtype=float)[None, :horizon])
    gw_f, gb_f, gw_g, gb_g = training._bptt_backward(
        model.f_net, model.g_net, f_traces, g_traces, err)
    return SimpleNamespace(
        loss=loss, f_weight_grads=gw_f, f_bias_grads=gb_f,
        g_weight_grads=gw_g, g_bias_grads=gb_g,
        f_steps=f_traces, g_steps=g_traces)


def one_step(model, x, u):
    """x+ = f(x) + g(u), as a one-step window of the BPTT forward pass:
    against a zero target, the prediction error is the prediction."""
    x = np.asarray(x, dtype=float)
    xs = np.stack([x, np.zeros_like(x)])[None]
    return training._bptt_forward(model.f_net, model.g_net, xs,
                                  np.asarray(u, dtype=float)[None, None],
                                  slopes=False)[3][0, 0]


def linear_ssm(a, b, f_bias=None, g_bias=None):
    f = MlpNetwork(layers=(Layer(weight=np.asarray(a, dtype=float), bias=f_bias),))
    g = MlpNetwork(layers=(Layer(weight=np.asarray(b, dtype=float), bias=g_bias),))
    return BlockSSM(f_net=f, g_net=g)


def linear_plant_data(a, b, samples=400, seed=0):
    """Roll the exact linear plant x+ = Ax + Bu under random inputs."""
    rng = np.random.default_rng(seed)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n_x, n_u = a.shape[0], b.shape[1]
    inputs = rng.uniform(-1.0, 1.0, (samples, n_u))
    states = np.zeros((samples, n_x))
    states[0] = rng.uniform(-0.5, 0.5, n_x)
    for k in range(samples - 1):
        states[k + 1] = a @ states[k] + b @ inputs[k]
    third = samples // 3
    splits = {
        "train": (0, third),
        "dev": (third, 2 * third),
        "test": (2 * third, samples),
    }
    return TrainingData(states=states, inputs=inputs, splits=splits)


class TestSsmStep:
    def test_zero_input_map_reduces_to_autonomous(self):
        rng = np.random.default_rng(3)
        f = make_mlp((2, 8, 2), activation="tanh", seed=3)
        g = MlpNetwork(layers=(Layer(weight=np.zeros((2, 1))),))
        model = BlockSSM(f_net=f, g_net=g)
        x = rng.uniform(-1, 1, 2)
        out = one_step(model, x, np.asarray([0.7]))
        np.testing.assert_allclose(out, f.forward(x), rtol=0, atol=0)

    def test_zero_state_map_is_pure_input_response(self):
        b = np.asarray([[1.5], [-0.25]])
        model = linear_ssm(np.zeros((2, 2)), b)
        out = one_step(model, np.asarray([9.0, -3.0]), np.asarray([2.0]))
        np.testing.assert_allclose(out, (b @ [2.0]).ravel())

    def test_matches_sum_of_network_forwards(self):
        f = make_mlp((3, 6, 3), activation="gelu", seed=11)
        g = make_mlp((2, 6, 3), activation="gelu", seed=12)
        model = BlockSSM(f_net=f, g_net=g)
        x = np.asarray([0.3, -0.8, 1.1])
        u = np.asarray([0.5, 0.2])
        np.testing.assert_allclose(
            one_step(model, x, u), f.forward(x) + g.forward(u), atol=1e-15
        )

    def test_output_dimension_mismatch_rejected(self):
        f = make_mlp((2, 4, 2), seed=0)
        g = make_mlp((1, 4, 3), seed=0)
        with pytest.raises(ValueError, match="output"):
            BlockSSM(f_net=f, g_net=g)

    def test_state_map_must_be_square(self):
        f = make_mlp((3, 4, 2), seed=0)
        g = make_mlp((1, 4, 2), seed=0)
        with pytest.raises(ValueError, match="state"):
            BlockSSM(f_net=f, g_net=g)


class TestRolloutLoss:
    def test_exact_model_has_zero_loss(self):
        a = [[0.6, 0.1], [0.0, 0.7]]
        b = [[1.0], [0.5]]
        model = linear_ssm(a, b)
        data = linear_plant_data(a, b, samples=60, seed=1)
        loss = rollout_loss(model, data.states[:17], data.inputs[:17], horizon=16)
        assert loss <= 1e-22

    def test_zero_model_on_zero_data(self):
        model = linear_ssm(np.zeros((2, 2)), np.zeros((2, 1)))
        states = np.zeros((9, 2))
        inputs = np.zeros((9, 1))
        assert rollout_loss(model, states, inputs, horizon=8) == 0.0

    def test_two_step_scalar_window_by_hand(self):
        # f(x) = 0.5 x, g(u) = u; from x0 = 1 with u = (0.2, -0.4) the
        # predictions are 0.7 and -0.05 against measured 0.9 and 0.1.
        model = linear_ssm([[0.5]], [[1.0]])
        states = np.asarray([[1.0], [0.9], [0.1]])
        inputs = np.asarray([[0.2], [-0.4]])
        loss = rollout_loss(model, states, inputs, horizon=2)
        expected = ((0.7 - 0.9) ** 2 + (-0.05 - 0.1) ** 2) / 2.0
        assert loss == pytest.approx(expected, abs=1e-15)


def finite_difference_grads(model, states, inputs, horizon, h=1e-5):
    """Central-difference gradient of rollout_loss for every parameter."""

    def loss_with(nets):
        trial = BlockSSM(f_net=nets[0], g_net=nets[1])
        return rollout_loss(trial, states, inputs, horizon)

    grads = {"f": [], "g": []}
    nets = {"f": model.f_net, "g": model.g_net}
    for name in ("f", "g"):
        for li, layer in enumerate(nets[name].layers):
            gw = np.zeros_like(layer.weight)
            for idx in np.ndindex(*layer.weight.shape):
                for sign in (1.0, -1.0):
                    w = layer.weight.copy()
                    w[idx] += sign * h
                    patched = _patch_layer(nets[name], li, weight=w)
                    pair = [patched if name == "f" else model.f_net,
                            patched if name == "g" else model.g_net]
                    gw[idx] += sign * loss_with(pair)
            gw /= 2.0 * h
            gb = None
            if layer.bias is not None:
                gb = np.zeros_like(layer.bias)
                for idx in np.ndindex(*layer.bias.shape):
                    for sign in (1.0, -1.0):
                        b = layer.bias.copy()
                        b[idx] += sign * h
                        patched = _patch_layer(nets[name], li, bias=b)
                        pair = [patched if name == "f" else model.f_net,
                                patched if name == "g" else model.g_net]
                        gb[idx] += sign * loss_with(pair)
                gb /= 2.0 * h
            grads[name].append((gw, gb))
    return grads


def _patch_layer(net, index, weight=None, bias=None):
    layers = list(net.layers)
    old = layers[index]
    layers[index] = Layer(
        weight=old.weight if weight is None else weight,
        bias=old.bias if bias is None else bias,
        activation=old.activation,
    )
    return MlpNetwork(layers=tuple(layers))


def assert_tape_matches_fd(model, states, inputs, horizon, rtol=1e-4):
    tape = backward(model, states, inputs, horizon)
    fd = finite_difference_grads(model, states, inputs, horizon)
    got = {"f": list(zip(tape.f_weight_grads, tape.f_bias_grads)),
           "g": list(zip(tape.g_weight_grads, tape.g_bias_grads))}
    for name in ("f", "g"):
        for (gw, gb), (fw, fb) in zip(got[name], fd[name]):
            rel = np.abs(gw - fw) / (np.abs(fw) + 1e-8)
            assert rel.max() <= rtol
            if fb is not None:
                rel = np.abs(gb - fb) / (np.abs(fb) + 1e-8)
                assert rel.max() <= rtol


class TestBackward:
    def test_scalar_single_parameter_matches_hand_derivative(self):
        # Horizon 1, f(x) = w x, g frozen at zero: L = (w x0 - x1)^2 so
        # dL/dw = 2 (w x0 - x1) x0.
        w = 0.7
        model = linear_ssm([[w]], [[0.0]])
        states = np.asarray([[1.3], [0.2]])
        inputs = np.asarray([[0.0]])
        tape = backward(model, states, inputs, horizon=1)
        expected = 2.0 * (w * 1.3 - 0.2) * 1.3
        assert tape.f_weight_grads[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_gradient_vanishes_at_exact_minimum(self):
        a = [[0.6, -0.2], [0.1, 0.5]]
        b = [[0.8], [0.3]]
        model = linear_ssm(a, b)
        data = linear_plant_data(a, b, samples=40, seed=7)
        tape = backward(model, data.states[:9], data.inputs[:9], horizon=8)
        total = sum(float(np.abs(g).max()) for g in tape.f_weight_grads)
        total += sum(float(np.abs(g).max()) for g in tape.g_weight_grads)
        assert total <= 1e-10

    def test_finite_difference_gelu_two_hidden(self):
        model = BlockSSM(
            f_net=make_mlp((2, 6, 6, 2), activation="gelu", seed=21),
            g_net=make_mlp((1, 6, 6, 2), activation="gelu", seed=22),
        )
        rng = np.random.default_rng(5)
        states = rng.uniform(-1, 1, (9, 2))
        inputs = rng.uniform(-1, 1, (9, 1))
        assert_tape_matches_fd(model, states, inputs, horizon=8)

    def test_finite_difference_tanh_no_bias(self):
        model = BlockSSM(
            f_net=make_mlp((2, 5, 2), activation="tanh", bias=False, seed=31),
            g_net=make_mlp((2, 5, 2), activation="tanh", bias=False, seed=32),
        )
        rng = np.random.default_rng(6)
        states = rng.uniform(-1, 1, (5, 2))
        inputs = rng.uniform(-1, 1, (5, 2))
        assert_tape_matches_fd(model, states, inputs, horizon=4)

    def test_tape_shapes_align_with_networks(self):
        model = BlockSSM(
            f_net=make_mlp((2, 4, 2), seed=1),
            g_net=make_mlp((1, 4, 2), seed=2),
        )
        rng = np.random.default_rng(4)
        states = rng.uniform(-1, 1, (5, 2))
        inputs = rng.uniform(-1, 1, (5, 1))
        tape = backward(model, states, inputs, horizon=4)
        for grads, net in ((tape.f_weight_grads, model.f_net),
                           (tape.g_weight_grads, model.g_net)):
            for g, layer in zip(grads, net.layers):
                assert g.shape == layer.weight.shape
        assert len(tape.f_steps) == len(tape.g_steps) == 4
        for steps, net in ((tape.f_steps, model.f_net), (tape.g_steps, model.g_net)):
            for trace in steps:
                assert len(trace) == len(net.layers)
                for (h, _, slope), layer in zip(trace, net.layers):
                    z = h @ layer.weight.T
                    if layer.bias is not None:
                        z = z + layer.bias
                    if layer.act is None:
                        assert slope is None
                    else:
                        np.testing.assert_array_equal(slope, layer.act.deriv(z))

    def test_backward_is_deterministic(self):
        model = BlockSSM(
            f_net=make_mlp((2, 4, 2), seed=1),
            g_net=make_mlp((1, 4, 2), seed=2),
        )
        rng = np.random.default_rng(9)
        states = rng.uniform(-1, 1, (6, 2))
        inputs = rng.uniform(-1, 1, (6, 1))
        t1 = backward(model, states, inputs, horizon=5)
        t2 = backward(model, states, inputs, horizon=5)
        for a, b in zip(t1.f_weight_grads, t2.f_weight_grads):
            np.testing.assert_array_equal(a, b)


class TestOptimizers:
    def test_sgd_step_is_plain_descent(self):
        opt = training.Sgd()
        params = [np.asarray([1.0, -2.0])]
        opt.step(params, [np.asarray([0.5, -0.5])], lr=0.1)
        np.testing.assert_allclose(params[0], [0.95, -1.95])

    def test_adam_first_step_size_is_learning_rate(self):
        # With bias correction the first update is lr * g / (|g| + eps),
        # i.e. almost exactly lr in magnitude regardless of gradient scale.
        for scale in (1e-2, 1.0, 1e4):
            opt = training.Adam()
            params = [np.asarray([0.0])]
            opt.step(params, [np.asarray([scale])], lr=0.01)
            assert params[0][0] == pytest.approx(-0.01, rel=1e-5)

    def test_adam_constant_gradient_walks_at_lr(self):
        opt = training.Adam()
        params = [np.asarray([0.0])]
        for _ in range(50):
            opt.step(params, [np.asarray([3.0])], lr=0.01)
        assert params[0][0] == pytest.approx(-0.5, rel=1e-4)


class TestTrainLoop:
    def test_linear_system_recovery(self):
        # Two independent inputs so both state directions are excited;
        # with a single input the states are nearly collinear and the
        # weakly excited direction converges far too slowly.
        a = np.asarray([[0.8, 0.1], [0.0, 0.9]])
        b = np.asarray([[1.0, 0.0], [0.5, -0.7]])
        data = linear_plant_data(a, b, samples=600, seed=2)
        model = BlockSSM(
            f_net=make_mlp((2, 2), bias=True, seed=4),
            g_net=make_mlp((2, 2), bias=True, seed=5),
        )
        config = TrainConfig(
            horizon=8, batch=32, epochs=120, learning_rate=0.02, seed=0
        )
        report = train(model, data, config)
        best = report.best_model
        np.testing.assert_allclose(best.f_net.layers[0].weight, a, atol=1e-3)
        np.testing.assert_allclose(best.g_net.layers[0].weight, b, atol=1e-3)
        assert report.train_losses[-1] <= 0.1 * report.train_losses[0]

    def test_identical_seeds_identical_loss_sequences(self):
        a = [[0.7, 0.0], [0.2, 0.6]]
        b = [[0.5], [1.0]]
        data = linear_plant_data(a, b, samples=240, seed=3)
        config = TrainConfig(horizon=4, batch=16, epochs=5, learning_rate=1e-3, seed=7)
        reports = []
        for _ in range(2):
            model = BlockSSM(
                f_net=make_mlp((2, 4, 2), seed=8),
                g_net=make_mlp((1, 4, 2), seed=9),
            )
            reports.append(train(model, data, config))
        assert reports[0].train_losses == reports[1].train_losses
        assert reports[0].dev_losses == reports[1].dev_losses

    def test_best_epoch_tracks_minimum_dev_loss(self):
        data = linear_plant_data([[0.9]], [[1.0]], samples=150, seed=4)
        model = BlockSSM(f_net=make_mlp((1, 1), seed=1),
                         g_net=make_mlp((1, 1), seed=2))
        config = TrainConfig(horizon=4, batch=8, epochs=12, learning_rate=5e-3, seed=1)
        report = train(model, data, config)
        assert report.dev_losses[report.best_epoch] == min(report.dev_losses)
        # The selected and final models are the ones whose dev error was
        # measured, bit for bit.
        dev = data.split_arrays("dev")
        assert open_loop_mse(report.best_model, *dev) == report.best_dev_loss
        assert open_loop_mse(report.final_model, *dev) == report.dev_losses[-1]

    def test_all_infinite_dev_losses_select_epoch_zero(self):
        # x+ = 4x over the 860-sample dev split overflows, so every
        # epoch's dev loss is inf and the epoch-0 model must be selected.
        data = TrainingData(
            states=np.ones((900, 1)), inputs=np.ones((900, 1)),
            splits={"train": (0, 20), "dev": (20, 880), "test": (880, 900)},
        )
        model = linear_ssm([[4.0]], [[0.0]])

        def run(epochs):
            return train(model, data, TrainConfig(
                horizon=1, batch=64, epochs=epochs, learning_rate=1e-4,
                optimizer="sgd", seed=0))

        report, epoch_zero = run(3), run(1)
        assert report.dev_losses == [np.inf] * 3
        assert report.best_epoch == 0
        assert report.best_model is not report.final_model
        np.testing.assert_array_equal(report.best_model.f_net.layers[0].weight,
                                      epoch_zero.final_model.f_net.layers[0].weight)

    def test_divergence_aborts_with_diagnostics(self):
        data = linear_plant_data([[0.9]], [[1.0]], samples=120, seed=5)
        model = BlockSSM(f_net=make_mlp((1, 4, 1), seed=3),
                         g_net=make_mlp((1, 4, 1), seed=4))
        config = TrainConfig(
            horizon=8, batch=8, epochs=10, learning_rate=1e12,
            optimizer="sgd", seed=0,
        )
        with pytest.raises(TrainingDiverged) as err:
            train(model, data, config)
        assert err.value.epoch >= 0
        assert err.value.batch_index >= 0
        assert "batch" in str(err.value)

    @pytest.mark.parametrize("batch", [64, 4])
    def test_non_finite_parameters_name_the_update(self, batch):
        # A learning rate near the float maximum overflows the first SGD
        # update.  With batch 64 that update is the epoch's last one,
        # which once escaped as a bare ValueError from the epoch-end
        # realization; with batch 4 the next batch once took the blame.
        rng = np.random.default_rng(5)
        data = TrainingData(
            states=100.0 * rng.uniform(-1.0, 1.0, (60, 1)),
            inputs=rng.uniform(-1.0, 1.0, (60, 1)),
            splits={"train": (0, 20), "dev": (20, 40), "test": (40, 60)},
        )
        model = BlockSSM(f_net=make_mlp((1, 4, 1), seed=3),
                         g_net=make_mlp((1, 4, 1), seed=4))
        config = TrainConfig(horizon=8, batch=batch, epochs=3,
                             learning_rate=1.7e308, optimizer="sgd", seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged,
                               match="parameters went non-finite") as err:
                train(model, data, config)
        first_batch = np.random.default_rng(0).permutation(np.arange(12))[:batch]
        assert err.value.epoch == 0
        assert err.value.batch_index == 0
        assert err.value.window_starts == first_batch.tolist()

    def test_training_data_split_too_short_rejected(self):
        data = linear_plant_data([[0.9]], [[1.0]], samples=30, seed=6)
        model = BlockSSM(f_net=make_mlp((1, 1), seed=1),
                         g_net=make_mlp((1, 1), seed=2))
        config = TrainConfig(horizon=64, batch=8, epochs=1, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            train(model, data, config)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(horizon=0)
        with pytest.raises(ValueError, match="optimizer"):
            TrainConfig(optimizer="newton")
        with pytest.raises(ValueError, match="regularizer"):
            TrainConfig(regularizers={"entropy": 1.0})


class TestOpenLoopMse:
    def test_zero_for_exact_model(self):
        a = [[0.5, 0.2], [0.0, 0.6]]
        b = [[1.0], [0.0]]
        data = linear_plant_data(a, b, samples=90, seed=8)
        model = linear_ssm(a, b)
        lo, hi = data.splits["test"]
        mse = open_loop_mse(model, data.states[lo:hi], data.inputs[lo:hi])
        assert mse <= 1e-20

    def test_infinite_when_rollout_explodes(self):
        model = linear_ssm([[4.0]], [[0.0]])
        states = np.ones((400, 1))
        inputs = np.zeros((400, 1))
        assert open_loop_mse(model, states, inputs) == np.inf

    def test_is_one_bptt_window_without_slopes(self):
        # The one rollout loop: open_loop_mse is _bptt_forward on a batch
        # of one window, and both equal an explicit f(x) + g(u) recursion
        # from states[0], bit for bit.
        model = BlockSSM(f_net=make_mlp((2, 16, 16, 2), "gelu", seed=21),
                         g_net=make_mlp((1, 16, 16, 2), "gelu", seed=22))
        rng = np.random.default_rng(23)
        states = rng.uniform(-1.0, 1.0, (120, 2))
        inputs = rng.uniform(-1.0, 1.0, (125, 1))  # extra rows are unused
        loss, f_traces, g_traces, _ = training._bptt_forward(
            model.f_net, model.g_net, states[None], inputs[None, :119],
            slopes=False)
        assert f_traces == [] and g_traces == []
        x, predicted = states[0], []
        for u in inputs[:119]:
            x = model.f_net.forward(x) + model.g_net.forward(u)
            predicted.append(x)
        err = np.asarray(predicted) - states[1:]
        mse = open_loop_mse(model, states, inputs)
        assert mse == loss == float(np.mean(err * err))

    def test_rejects_too_few_inputs(self):
        model = linear_ssm([[0.5]], [[1.0]])
        with pytest.raises(ValueError, match="10 states need 9 input rows, got 8"):
            open_loop_mse(model, np.zeros((10, 1)), np.zeros((8, 1)))


class TestRegularizers:
    def test_l2_shrinks_weights_on_flat_objective(self):
        # Zero data gives zero data-gradient, so the l2 term acts alone.
        data = TrainingData(
            states=np.zeros((90, 1)),
            inputs=np.zeros((90, 1)),
            splits={"train": (0, 30), "dev": (30, 60), "test": (60, 90)},
        )
        model = BlockSSM(f_net=make_mlp((1, 1), bias=False, seed=3),
                         g_net=make_mlp((1, 1), bias=False, seed=4))
        before = abs(float(model.f_net.layers[0].weight[0, 0]))
        config = TrainConfig(
            horizon=4, batch=8, epochs=20, learning_rate=0.05,
            optimizer="sgd", regularizers={"l2": 1.0}, seed=0,
        )
        report = train(model, data, config)
        after = abs(float(report.final_model.f_net.layers[0].weight[0, 0]))
        assert after < 0.1 * before

    def test_penalty_value_matches_analysis_module(self):
        # Oracle: the explicit chain diag(lambda_l) W_l ... and LAPACK's
        # sigma_1 per anchor, independent of pwa's A(x) assembly.
        net = make_mlp((2, 8, 2), activation="tanh", seed=13)
        anchors = np.random.default_rng(0).uniform(-1, 1, (16, 2))
        value, _ = dissipativity.dissipativity_penalty(net, anchors)
        norms = []
        for x in anchors:
            h, a = x, np.eye(2)
            for layer in net.layers:
                z = layer.weight @ h + layer.bias
                lam = np.ones_like(z) if layer.act is None else layer.act.fn(z) / z
                a = np.diag(lam) @ layer.weight @ a
                h = lam * z
            norms.append(np.linalg.svd(a, compute_uv=False)[0])
        assert value == pytest.approx(np.mean(np.maximum(1.0, norms)), rel=1e-9)

    def test_penalty_is_inf_when_a_overflows(self):
        # Two bias-free linear layers 1e200 I: every A(x) is 1e400 I.
        data = TrainingData(
            states=np.zeros((90, 2)),
            inputs=np.zeros((90, 1)),
            splits={"train": (0, 30), "dev": (30, 60), "test": (60, 90)},
        )
        f_net = MlpNetwork(layers=(Layer(weight=1e200 * np.eye(2)),
                                   Layer(weight=1e200 * np.eye(2))))
        anchors = np.random.default_rng(3).uniform(-1, 1, (4, 2))
        value, grads = dissipativity.dissipativity_penalty(f_net, anchors)
        assert value == np.inf
        assert all(not g.any() for g in grads)
        model = BlockSSM(f_net=f_net, g_net=linear_ssm(np.eye(2), [[0.0], [0.0]]).g_net)
        config = TrainConfig(
            horizon=4, batch=8, epochs=1, learning_rate=0.05,
            optimizer="sgd", regularizers={"dissipativity": 0.5}, seed=0,
        )
        with pytest.raises(TrainingDiverged, match="non-finite regularizer"):
            train(model, data, config)

    def test_penalty_gradient_matches_frozen_gain_differences(self):
        # The documented approximation holds the activation gains fixed,
        # so the oracle perturbs weights inside a frozen-gain chain.
        net = MlpNetwork(layers=(
            Layer(weight=1.4 * np.asarray([[0.6, -0.8], [0.8, 0.6]]),
                  activation="tanh"),
            Layer(weight=1.3 * np.asarray([[0.9, 0.1], [-0.2, 1.0]]),
                  activation="tanh"),
        ))
        anchors = np.random.default_rng(1).uniform(-2, 2, (5, 2))
        _, grads = dissipativity.dissipativity_penalty(net, anchors)

        gains = []
        for x in anchors:
            _, trace = net.forward_trace(x)
            gains.append([
                np.asarray(activations.ray_gains(layer.act, z))
                for layer, (_, z, _) in zip(net.layers, trace)
            ])

        def frozen_penalty(weights):
            from neurodissip import linalg

            total = 0.0
            for gain_stack in gains:
                a = np.eye(2)
                for w, lam in zip(weights, gain_stack):
                    a = np.diag(lam) @ w @ a
                total += max(1.0, linalg.spectral_norm(a))
            return total / len(gains)

        h = 1e-6
        base = [layer.weight.copy() for layer in net.layers]
        for li in range(2):
            fd = np.zeros((2, 2))
            for idx in np.ndindex(2, 2):
                for sign in (1.0, -1.0):
                    trial = [w.copy() for w in base]
                    trial[li][idx] += sign * h
                    fd[idx] += sign * frozen_penalty(trial)
            fd /= 2.0 * h
            np.testing.assert_allclose(grads[li], fd, rtol=1e-5, atol=1e-8)

    def test_penalty_is_flat_inside_the_unit_ball(self):
        net = MlpNetwork(layers=(
            Layer(weight=0.4 * np.eye(2), activation="tanh"),
        ))
        anchors = np.random.default_rng(2).uniform(-1, 1, (8, 2))
        value, grads = dissipativity.dissipativity_penalty(net, anchors)
        assert value == 1.0
        assert float(np.abs(grads[0]).max()) == 0.0

    def test_train_loop_applies_dissipativity_weight(self):
        # Zero data keeps the data gradient silent; the single linear
        # layer makes the penalty anchor-independent, so each batch
        # records exactly weight * max(1, ||W||) for the current W.
        a = np.array([[0.0, -1.5], [1.5, 0.0]])
        data = TrainingData(
            states=np.zeros((90, 2)),
            inputs=np.zeros((90, 1)),
            splits={"train": (0, 30), "dev": (30, 60), "test": (60, 90)},
        )
        model = linear_ssm(a, [[0.0], [0.0]])
        config = TrainConfig(
            horizon=4, batch=8, epochs=30, learning_rate=0.05,
            optimizer="sgd", regularizers={"dissipativity": 0.5}, seed=0,
        )
        report = train(model, data, config)
        values = report.regularizer_values
        # The epoch value averages its batches while W shrinks, so the
        # first epoch sits just below the untouched 0.5 * 1.5.
        assert 0.70 <= values[0] <= 0.75 + 1e-12
        assert all(v >= 0.5 - 1e-12 for v in values)
        assert values[-1] < values[0]
        assert values[-1] <= 0.5 * 1.05
        final_norm = np.linalg.svd(
            report.final_model.f_net.layers[0].weight)[1][0]
        assert final_norm <= 1.02

    def test_penalty_descent_drives_toward_one(self):
        rng = np.random.default_rng(14)
        weight = 1.6 * draw_map("unstructured", 2, seed=14).realize()
        net = ConstrainedNetwork(layers=[
            ConstrainedLayer(weight=FreeWeight(weight.copy()),
                             bias=None, activation="tanh"),
        ])
        opt = training.Adam()
        anchors = rng.uniform(-2, 2, (32, 2))
        values = []
        for _ in range(300):
            realized = net.realize()
            value, grads = dissipativity.dissipativity_penalty(realized, anchors)
            values.append(value)
            params, grad_list = net.collect(
                [g.copy() for g in grads], [None]
            )
            opt.step(params, grad_list, lr=0.01)
        assert values[0] > 1.05
        assert values[-1] < values[0]
        assert values[-1] <= 1.001


def fd_vjp(weight_obj, direction, h=1e-6):
    """Central differences of sum(direction * realize()) in each raw entry."""
    grads = []
    for p in weight_obj.params():
        g = np.zeros_like(p)
        for idx in np.ndindex(*p.shape):
            orig = p[idx]
            p[idx] = orig + h
            hi = float(np.sum(direction * weight_obj.realize()))
            p[idx] = orig - h
            lo = float(np.sum(direction * weight_obj.realize()))
            p[idx] = orig
            g[idx] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def assert_vjp_matches(weight_obj, seed, rtol=1e-5, atol=1e-7):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(weight_obj.realize().shape)
    analytic = weight_obj.vjp(direction)
    numeric = fd_vjp(weight_obj, direction)
    assert len(analytic) == len(numeric)
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=rtol, atol=atol)


class TestTrainableParametrizations:
    def test_pf_seed_reproduces_generator(self):
        # The documented draw order: m_raw first, then a_raw.
        rng = np.random.default_rng(6)
        m_raw = rng.standard_normal((3, 3))
        a_raw = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(
            draw_map("perron_frobenius", 3, 0.5, 1.0, seed=6).realize(),
            PfWeight(a_raw, m_raw, 0.5, 1.0).realize(),
        )

    def test_spectral_seed_reproduces_generator(self):
        # U's reflectors, then V's, then the raw singular values.
        for rows, cols, seed in ((4, 4, 7), (4, 2, 8)):
            rng = np.random.default_rng(seed)
            u_vectors = [rng.standard_normal(rows) for _ in range(rows)]
            v_vectors = [rng.standard_normal(cols) for _ in range(cols)]
            sigma_raw = rng.standard_normal(min(rows, cols))
            np.testing.assert_array_equal(
                draw_map("spectral_svd", rows, 0.2, 0.9, seed=seed,
                         cols=cols).realize(),
                SpectralWeight(u_vectors, v_vectors, sigma_raw,
                               0.2, 0.9).realize(),
            )

    def test_gershgorin_seed_reproduces_generator(self):
        for kind, cls in (("gershgorin_real", GershgorinWeight),
                          ("gershgorin_complex", ComplexGershgorinWeight)):
            m_raw = np.random.default_rng(9).uniform(0.0, 1.0, (3, 3))
            np.testing.assert_array_equal(
                draw_map(kind, 3, -0.5, 0.5, seed=9).realize(),
                cls(m_raw, -0.5, 0.5).realize(),
            )

    def test_pf_parameter_gradients(self):
        assert_vjp_matches(
            draw_map("perron_frobenius", 3, 0.3, 0.9, seed=1), seed=100
        )

    def test_spectral_parameter_gradients(self):
        assert_vjp_matches(
            draw_map("spectral_svd", 3, 0.2, 1.1, seed=2), seed=101
        )
        assert_vjp_matches(
            draw_map("spectral_svd", 4, 0.0, 1.0, seed=3, cols=2), seed=102
        )

    def test_gershgorin_parameter_gradients(self):
        assert_vjp_matches(
            draw_map("gershgorin_real", 3, -0.8, 0.6, seed=4), seed=103
        )
        assert_vjp_matches(
            draw_map("gershgorin_complex", 3, 0.0, 1.0, seed=5), seed=104
        )

    @pytest.mark.parametrize("case", [
        *[(kind, 3, 3) for kind in MAP_KINDS],
        ("spectral_svd", 4, 2), ("spectral_svd", 2, 4),
    ], ids=lambda case: "%s-%dx%d" % case)
    def test_vjp_matches_finite_differences(self, case):
        kind, rows, cols = case
        weight = draw_map(kind, rows, 0.2, 0.9, seed=31, cols=cols)
        assert_vjp_matches(weight, seed=106)

    def test_realization_respects_bounds_for_arbitrary_raw_values(self):
        # Optimizer steps can move raw parameters anywhere; the guarantees
        # must survive by construction, not by staying near initialization.
        rng = np.random.default_rng(15)
        for _ in range(25):
            pf = draw_map("perron_frobenius", 3, 0.2, 0.9)
            for p in pf.params():
                p[...] = 1e4 * rng.standard_normal(p.shape)
            rows = np.abs(pf.realize()).sum(axis=1)
            assert np.all(rows >= 0.2 - 1e-10) and np.all(rows <= 0.9 + 1e-10)

            sv = draw_map("spectral_svd", 3, 0.3, 1.2)
            for p in sv.params():
                p[...] = 1e4 * rng.standard_normal(p.shape)
            sing = np.linalg.svd(sv.realize(), compute_uv=False)
            assert np.all(sing >= 0.3 - 1e-8) and np.all(sing <= 1.2 + 1e-8)

            gg = draw_map("gershgorin_real", 3, -1.0, 0.5)
            for p in gg.params():
                p[...] = 1e4 * rng.standard_normal(p.shape)
            eig = np.linalg.eigvals(gg.realize())
            assert np.all(np.abs(eig - (-0.25)) <= 0.75 + 1e-10)

    def test_constrained_training_preserves_guarantees(self):
        a = [[0.6, 0.1], [0.0, 0.7]]
        b = [[1.0], [0.5]]
        data = linear_plant_data(a, b, samples=240, seed=9)
        f = ConstrainedNetwork(layers=[
            ConstrainedLayer(weight=draw_map("gershgorin_real", 2, 0.0, 0.95,
                                             seed=10),
                             bias=np.zeros(2), activation="tanh"),
            ConstrainedLayer(weight=draw_map("spectral_svd", 2, 0.0, 0.95,
                                             seed=11),
                             bias=np.zeros(2), activation=None),
        ])
        g = ConstrainedNetwork.from_network(make_mlp((1, 4, 2), seed=12))
        config = TrainConfig(horizon=4, batch=16, epochs=6,
                             learning_rate=5e-3, seed=2)
        report = train(training.ConstrainedSSM(f=f, g=g), data, config)
        assert report.train_losses[-1] < report.train_losses[0]
        final_f = report.final_model.f_net
        eig = np.linalg.eigvals(final_f.layers[0].weight)
        assert np.all(np.abs(eig - 0.475) <= 0.475 + 1e-10)
        sing = np.linalg.svd(final_f.layers[1].weight, compute_uv=False)
        assert np.all(sing <= 0.95 + 1e-8)

    def test_regularized_best_model_is_the_model_scored_on_dev(self):
        data = linear_plant_data([[0.6, 0.1], [0.0, 0.7]], [[1.0], [0.5]],
                                 samples=240, seed=9)
        f = ConstrainedNetwork(layers=[
            ConstrainedLayer(weight=draw_map("spectral_svd", 2, 0.0, 1.2,
                                             seed=11),
                             bias=np.zeros(2), activation="tanh"),
            ConstrainedLayer(weight=FreeWeight(np.eye(2)), activation=None),
        ])
        g = ConstrainedNetwork.from_network(make_mlp((1, 4, 2), seed=12))
        config = TrainConfig(horizon=4, batch=16, epochs=4, learning_rate=1e-2,
                             regularizers={"dissipativity": 0.5, "l2": 1e-3},
                             seed=2)
        report = train(training.ConstrainedSSM(f=f, g=g), data, config)
        assert report.best_epoch > 0
        assert open_loop_mse(report.best_model, *data.split_arrays("dev")) \
            == report.best_dev_loss


class TestCheckpoints:
    def test_roundtrip_and_resume(self, tmp_path):
        a = [[0.85, 0.0], [0.1, 0.8]]
        b = [[1.0], [0.0]]
        data = linear_plant_data(a, b, samples=300, seed=10)
        model = BlockSSM(f_net=make_mlp((2, 2), seed=6),
                         g_net=make_mlp((1, 2), seed=7))
        config = TrainConfig(horizon=4, batch=16, epochs=8,
                             learning_rate=0.01, seed=3)
        report = train(model, data, config)
        save_checkpoint(report.best_model, tmp_path, report=report)

        loaded, meta = load_checkpoint(tmp_path)
        for got, want in zip(loaded.f_net.layers, report.best_model.f_net.layers):
            np.testing.assert_array_equal(got.weight, want.weight)
        assert meta["best_epoch"] == report.best_epoch
        assert len(meta["train_losses"]) == config.epochs

        resumed = train(loaded, data, config)
        assert min(resumed.dev_losses) <= min(report.dev_losses) * 1.5

    def test_report_json_is_plain_data(self, tmp_path):
        data = linear_plant_data([[0.9]], [[1.0]], samples=120, seed=11)
        model = BlockSSM(f_net=make_mlp((1, 1), seed=1),
                         g_net=make_mlp((1, 1), seed=2))
        config = TrainConfig(horizon=4, batch=8, epochs=3,
                             learning_rate=1e-3, seed=4)
        report = train(model, data, config)
        save_checkpoint(report.best_model, tmp_path, report=report)
        with open(tmp_path / "report.json", "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["config"]["horizon"] == 4
        assert doc["config"]["optimizer"] == "adam"


class TestTrainingData:
    def test_from_dataset_normalizes_to_unit_range(self):
        from neurodissip import plants

        ds = plants.benchmark_dataset("two_tank", seed=0, samples=300)
        data = TrainingData.from_dataset(ds)
        assert data.states.min() >= -1.0 - 1e-12
        assert data.states.max() <= 1.0 + 1e-12
        assert (data.splits["train"], data.splits["dev"],
                data.splits["test"]) == ds.splits

    def test_split_bounds_validated(self):
        with pytest.raises(ValueError, match="split"):
            TrainingData(
                states=np.zeros((10, 1)),
                inputs=np.zeros((10, 1)),
                splits={"train": (0, 20), "dev": (0, 5), "test": (5, 10)},
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            TrainingData(
                states=np.zeros((10, 1)),
                inputs=np.zeros((8, 1)),
                splits={"train": (0, 4), "dev": (4, 7), "test": (7, 10)},
            )
