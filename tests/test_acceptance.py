"""End-to-end acceptance gates for the package's headline guarantees.

One test per criterion; ``pytest -v tests/test_acceptance.py`` prints one
pass/fail line for each.  Every tolerance and budget is stated inline at
its assertion.  Numerical oracles come from numpy.linalg so the checks
stay independent of the package's own kernels.
"""

import csv
import time

import numpy as np
import pytest

from neurodissip import cli, dissipativity, dynamics, plants, structured, training
from neurodissip.activations import ACTIVATIONS, STABLE
from neurodissip.dissipativity import GridSpec
from neurodissip.network import Layer, MlpNetwork
from neurodissip.pwa import extract_pwa, verify_equivalence

from test_training import assert_tape_matches_fd, linear_plant_data


def test_criterion_01_pwa_equivalence(capsys):
    # >= 5000 (network, anchor) pairs over the full activation catalogue,
    # depths {1,4,8}, widths {2,8,64}, bias on and off; relative residual
    # <= 1e-6 everywhere, all within 30 seconds.
    start = time.monotonic()
    rng = np.random.default_rng(1)
    pairs = 0
    worst = 0.0
    for act in sorted(ACTIVATIONS):
        for depth in (1, 4, 8):
            for width in (2, 8, 64):
                for bias in (False, True):
                    net = training.make_mlp((width,) * (depth + 1),
                                            activation=act, bias=bias,
                                            seed=pairs)
                    for x in rng.uniform(-3.0, 3.0, (26, width)):
                        form = extract_pwa(net, x, mode="affine")
                        scale = max(1.0, float(np.linalg.norm(net.forward(x))))
                        worst = max(worst, verify_equivalence(net, form) / scale)
                        pairs += 1
    elapsed = time.monotonic() - start
    print(f"criterion 1: {pairs} pairs, worst residual {worst:.3e}, "
          f"{elapsed:.1f}s", flush=True)
    assert pairs >= 5000
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_02_contractive_layers_imply_dissipativity():
    # 200 networks whose layers all have spectral norm < 1 and stable
    # activations: ||A*(x)|| < 1 at all 14,400 default grid anchors.
    stable = [n for n in sorted(ACTIVATIONS)
              if ACTIVATIONS[n].stability_class == STABLE]
    rng = np.random.default_rng(2)
    for i in range(200):
        layers = []
        for _ in range((1, 2, 4)[i % 3]):
            g = rng.standard_normal((2, 2))
            w = g * (rng.uniform(0.30, 0.97) / np.linalg.norm(g, 2))
            bias = rng.uniform(-0.5, 0.5, 2) if i % 2 else None
            layers.append(Layer(weight=w, bias=bias,
                                activation=stable[i % len(stable)]))
        net = MlpNetwork(layers=tuple(layers))
        assert dissipativity.layerwise_certificate(net).certified
        summary = dissipativity.certify_region(net).summary()
        assert summary["cells"] == 14400
        assert summary["errors"] == 0
        assert summary["fraction_dissipative"] == 1.0
        assert summary["max_a_norm"] < 1.0
    print("criterion 2: 200 nets x 14400 anchors, zero violations",
          flush=True)


def test_criterion_03_equilibrium_bounds_bracket_fixed_point():
    # 1000 contractive linear systems: the bound formulas match the
    # numpy oracle and bracket ||(I - A)^-1 b|| within 1e-9 slack.
    rng = np.random.default_rng(3)
    for i in range(1000):
        n = 2 + i % 5
        g = rng.standard_normal((n, n))
        a = g * (rng.uniform(0.05, 0.95) / np.linalg.norm(g, 2))
        b = rng.standard_normal(n) * rng.uniform(0.1, 2.0)
        net = MlpNetwork(layers=(
            Layer(weight=a, bias=b, activation="identity"),
        ))
        form = extract_pwa(net, np.zeros(n), mode="affine")
        bounds = dissipativity.equilibrium_bounds(form)
        truth = float(np.linalg.norm(np.linalg.solve(np.eye(n) - a, b)))
        assert bounds.lower - 1e-9 <= truth <= bounds.upper + 1e-9
        # Formula identity against the numpy oracle; rel 1e-6 covers the
        # power-iteration tolerance of the package's own norm kernel.
        b_norm = float(np.linalg.norm(b))
        assert bounds.lower == pytest.approx(
            b_norm / np.linalg.norm(np.eye(n) - a, 2), rel=1e-6)
        assert bounds.upper == pytest.approx(
            b_norm / (1.0 - np.linalg.norm(a, 2)), rel=1e-6)
    print("criterion 3: 1000 systems bracketed within 1e-9", flush=True)


def test_criterion_04_structured_map_guarantees():
    # 100 seeds per kind, numpy eigen/singular oracles.
    for seed in range(100):
        n = 2 + seed % 5

        m = structured.draw_map("perron_frobenius", n, 0.5, 1.0,
                                seed=seed).realize()
        assert np.all(m >= 0.0)
        rows = m.sum(axis=1)
        assert np.all(rows >= 0.5 - 1e-12) and np.all(rows <= 1.0 + 1e-12)
        assert np.max(np.abs(np.linalg.eigvals(m))) <= 1.0 + 1e-10

        m = structured.draw_map("spectral_svd", n, 0.3, 0.8,
                                seed=seed).realize()
        sv = np.linalg.svd(m, compute_uv=False)
        assert sv.min() >= 0.3 - 1e-8 and sv.max() <= 0.8 + 1e-8

        # Both disc variants confine the spectrum to the disc centered
        # at the bound midpoint with the bound half-width as radius.
        for kind in ("gershgorin_real", "gershgorin_complex"):
            m = structured.draw_map(kind, n, 0.2, 0.9, seed=seed).realize()
            eigs = np.linalg.eigvals(m)
            assert np.all(np.abs(eigs - 0.55) <= 0.35 + 1e-10)
    print("criterion 4: 100 seeds per map kind within guarantees",
        flush=True)


def test_criterion_05_verdict_grid_families():
    # The contractive-bounds ReLU and Tanh stacks are dissipative on the
    # full default grid; the sigmoid stack shows both verdicts.  All four
    # sweeps (including the sampled-only SELU stack) within 60 seconds.
    start = time.monotonic()
    summaries = {}
    for preset in ("contractive-relu", "contractive-tanh", "mixed-sigmoid",
                   "regional-selu"):
        config = cli.ExperimentConfig.from_dict(cli.PRESETS[preset])
        net = cli.build_network(config)
        summaries[preset] = dissipativity.certify_region(net).summary()
    elapsed = time.monotonic() - start
    for preset in ("contractive-relu", "contractive-tanh"):
        assert summaries[preset]["fraction_dissipative"] == 1.0
        assert summaries[preset]["errors"] == 0
    mixed = summaries["mixed-sigmoid"]
    assert 0 < mixed["dissipative"] < mixed["cells"]
    print(f"criterion 5: relu/tanh fully dissipative, sigmoid mixed "
          f"({mixed['fraction_dissipative']:.3f}), {elapsed:.1f}s",
          flush=True)
    assert elapsed < 60.0


def test_criterion_06_depth_trend_of_pooled_spectra():
    # Weight-shared GELU stacks: median pooled eigenvalue modulus falls
    # with depth under contractive bounds and grows under expansive ones.
    medians = {}
    for preset in ("depth-damping", "depth-growth"):
        config = cli.ExperimentConfig.from_dict(cli.PRESETS[preset])
        template = cli.build_network(config).layers[0]
        anchors = config.analysis.cell_centers()
        studies = dynamics.depth_spectra(template, (1, 4, 8), anchors,
                                         mode=config.analysis.mode)
        medians[preset] = [s.median_modulus() for s in studies]
    falling = medians["depth-damping"]
    rising = medians["depth-growth"]
    print(f"criterion 6: (0,1) medians {falling}, (1.2,1.4) medians {rising}",
          flush=True)
    assert falling[0] > falling[1] > falling[2]
    assert rising[0] < rising[1] < rising[2]


def _fan_limits(net, analysis):
    starts = [analysis.x0, (-4.8, -4.8), (-4.8, 4.8), (4.8, -4.8), (4.8, 4.8)]
    limits = []
    for x0 in starts:
        traj = dynamics.rollout(net, x0, steps=2000)
        assert traj.classification == "converged_point"
        if not any(np.linalg.norm(traj.limit - p) <= 1e-6 for p in limits):
            limits.append(traj.limit)
    return limits


def test_criterion_07_bias_creates_shifted_equilibrium():
    biased = cli.ExperimentConfig.from_dict(cli.PRESETS["shifted-equilibrium"])
    net = cli.build_network(biased)
    (point,) = _fan_limits(net, biased.analysis)
    norm = float(np.linalg.norm(point))
    assert norm > 1e-3
    form = extract_pwa(net, point, mode="linear")
    bounds = dissipativity.equilibrium_bounds(form)
    assert bounds.lower - 1e-9 <= norm <= bounds.upper + 1e-9

    plain = cli.ExperimentConfig.from_dict(cli.PRESETS["origin-attractor"])
    (origin,) = _fan_limits(cli.build_network(plain), plain.analysis)
    assert float(np.linalg.norm(origin)) <= 1e-6
    print(f"criterion 7: biased equilibrium norm {norm:.4f} within "
          f"[{bounds.lower:.4f}, {bounds.upper:.4f}]; no-bias at origin",
          flush=True)


def test_criterion_08_gradients_match_finite_differences():
    model = training.BlockSSM(
        f_net=training.make_mlp((2, 6, 6, 2), activation="gelu", seed=81),
        g_net=training.make_mlp((1, 6, 6, 2), activation="gelu", seed=82),
    )
    rng = np.random.default_rng(8)
    states = rng.uniform(-1.0, 1.0, (9, 2))
    inputs = rng.uniform(-1.0, 1.0, (9, 1))
    assert_tape_matches_fd(model, states, inputs, horizon=8, rtol=1e-4)
    print("criterion 8: analytic gradients within 1e-4 of central "
          "differences", flush=True)


def test_criterion_09a_linear_plant_recovery():
    a = np.asarray([[0.8, 0.1], [0.0, 0.9]])
    b = np.asarray([[1.0, 0.0], [0.5, -0.7]])
    data = linear_plant_data(a, b, samples=600, seed=2)
    model = training.BlockSSM(
        f_net=training.make_mlp((2, 2), bias=True, seed=4),
        g_net=training.make_mlp((2, 2), bias=True, seed=5),
    )
    report = training.train(model, data, training.TrainConfig(
        horizon=8, batch=32, epochs=120, learning_rate=0.02, seed=0))
    best = report.best_model
    np.testing.assert_allclose(best.f_net.layers[0].weight, a, atol=1e-3)
    np.testing.assert_allclose(best.g_net.layers[0].weight, b, atol=1e-3)
    print("criterion 9a: linear maps recovered within 1e-3", flush=True)


@pytest.fixture(scope="module")
def identified_models():
    """Train the pinned identification recipes once for 9b and 9c."""
    runs = {}
    for plant, epochs, seed in (("cstr", 150, 6), ("two_tank", 100, 0)):
        start = time.monotonic()
        dataset = plants.benchmark_dataset(plant, seed=0)
        data = training.TrainingData.from_dataset(dataset)
        test_states, test_inputs = data.split_arrays("test")
        n_u = data.inputs.shape[1]
        model = training.BlockSSM(
            f_net=training.make_mlp((2, 32, 32, 2), activation="gelu",
                                    seed=seed),
            g_net=training.make_mlp((n_u, 32, 32, 2), activation="gelu",
                                    seed=seed + 1),
        )
        init_mse = training.open_loop_mse(model, test_states, test_inputs)
        report = training.train(model, data, training.TrainConfig(
            horizon=32, batch=64, epochs=epochs, learning_rate=1e-3,
            seed=seed))
        best_mse = training.open_loop_mse(report.best_model, test_states,
                                          test_inputs)
        runs[plant] = {
            "model": report.best_model,
            "ratio": init_mse / best_mse,
            "elapsed": time.monotonic() - start,
        }
    return runs


def test_criterion_09b_identification_improvement(identified_models):
    for plant in ("cstr", "two_tank"):
        run = identified_models[plant]
        print(f"criterion 9b: {plant} open-loop MSE ratio {run['ratio']:.1f}x "
              f"in {run['elapsed']:.0f}s", flush=True)
        assert run["ratio"] >= 10.0
        assert run["elapsed"] < 600.0


def test_criterion_09c_posthoc_verdicts_on_identified_models(identified_models):
    grid = GridSpec(x_range=(-1.0, 1.0), y_range=(-1.0, 1.0), resolution=40)
    two_tank = dissipativity.certify_region(
        identified_models["two_tank"]["model"].f_net, grid).summary()
    fraction = two_tank["fraction_dissipative"]
    assert 0.0 <= fraction <= 1.0
    cstr = dissipativity.certify_region(
        identified_models["cstr"]["model"].f_net, grid).summary()
    assert 0 < cstr["dissipative"] < cstr["cells"]
    print(f"criterion 9c: two-tank dissipative fraction {fraction:.3f}; "
          f"cstr mixed ({cstr['dissipative']}/{cstr['cells']})", flush=True)


def test_criterion_10_sweep_enumeration_and_runtime(tmp_path):
    assert len(cli.enumerate_sweep(cli.ExperimentConfig())) == 828
    start = time.monotonic()
    rc = cli.main(["sweep", "--threads", "8", "--out", str(tmp_path)])
    elapsed = time.monotonic() - start
    assert rc == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    print(f"criterion 10: 828 configs certified in {elapsed:.0f}s", flush=True)
    assert len(rows) == 828
    assert all(row["status"] != "ERROR" for row in rows)
    assert elapsed < 900.0


def test_criterion_11_dissipation_inequality_along_rollouts():
    # Certified stacks obey ||x_{t+1}|| - ||x_t|| <= ||b*(x_t)|| + 1e-9 at
    # every recorded transition; transitions accumulate across rollouts
    # because certified trajectories halt early once converged.
    rng = np.random.default_rng(11)
    transitions = 0
    for s in range(10):
        config = cli.ExperimentConfig.from_dict({
            "seed": s,
            "network": {
                "depth": (1, 2, 4)[s % 3],
                "activation": ("relu", "tanh", "gelu")[s % 3],
                "bias": bool(s % 2),
            },
            "map": {"kind": "gershgorin_complex",
                    "lambda_min": 0.0, "lambda_max": 1.0},
        })
        net = cli.build_network(config)
        assert dissipativity.layerwise_certificate(net).certified
        for x0 in rng.uniform(-4.0, 4.0, (4, 2)):
            states = dynamics.rollout(net, x0, steps=200).states
            for t in range(states.shape[0] - 1):
                supply = float(np.linalg.norm(
                    extract_pwa(net, states[t], mode="linear").b_star))
                drop = (float(np.linalg.norm(states[t + 1]))
                        - float(np.linalg.norm(states[t])))
                assert drop <= supply + 1e-9
                transitions += 1
    print(f"criterion 11: inequality held on {transitions} transitions",
          flush=True)
    assert transitions >= 1000
