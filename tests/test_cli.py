"""Tests for the command-line driver: config schema, presets, and commands."""

import csv
import json
import os
import re

import numpy as np
import pytest

from neurodissip import cli, structured
from neurodissip.cli import (
    ConfigError,
    ExperimentConfig,
    PRESETS,
    apply_override,
    build_network,
    certificate_report,
    emit_config,
    enumerate_sweep,
    main,
    parse_config,
    sweep_rows,
)
from neurodissip.training import TrainConfig


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigSchema:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.seed == 0
        assert config.network.activation == "relu"
        assert config.map.kind == "gershgorin_complex"
        assert config.analysis.resolution == 120
        assert config.plant.name == "cstr"
        assert config.training.optimizer == "adam"

    def test_round_trip(self):
        config = ExperimentConfig.from_dict({
            "seed": 7,
            "network": {"depth": 3, "width": 4, "activation": "gelu", "bias": True},
            "map": {"kind": "spectral_svd", "lambda_min": 0.5, "lambda_max": 0.9},
            "analysis": {"x_range": [-2, 2], "resolution": 17, "mode": "affine"},
            "training": {"regularizers": {"l2": 1e-4}},
        })
        assert parse_config(emit_config(config)) == config

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'grid'"):
            ExperimentConfig.from_dict({"grid": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="'network'.'depht'"):
            ExperimentConfig.from_dict({"network": {"depht": 4}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="must be an object"):
            ExperimentConfig.from_dict({"network": 3})

    def test_unknown_activation_rejected(self):
        for section in ("network", "training"):
            with pytest.raises(ConfigError,
                               match="unknown activation 'swish'; known: .*relu"):
                ExperimentConfig.from_dict({section: {"activation": "swish"}})

    def test_inverted_range_rejected_at_load(self):
        with pytest.raises(ConfigError, match="x_range must satisfy lo < hi"):
            ExperimentConfig.from_dict({"analysis": {"x_range": [1, 0]}})

    def test_section_value_and_type_errors_become_config_errors(self):
        with pytest.raises(ConfigError, match="resolution must be positive"):
            ExperimentConfig.from_dict({"analysis": {"resolution": 0}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"network": {"depth": "deep"}})

    @pytest.mark.parametrize("seed", ["x", 1.7, True])
    def test_seed_must_be_a_json_integer(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            ExperimentConfig.from_dict({"seed": seed})

    def test_empty_depths_rejected(self):
        with pytest.raises(ConfigError, match="analysis.depths must not be empty"):
            ExperimentConfig.from_dict({"analysis": {"depths": []}})

    def test_unknown_map_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown map kind"):
            ExperimentConfig.from_dict({"map": {"kind": "cayley"}})

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ConfigError, match="lambda_min"):
            ExperimentConfig.from_dict(
                {"map": {"lambda_min": 1.0, "lambda_max": 0.5}})

    def test_bad_analysis_mode_rejected(self):
        with pytest.raises(ConfigError, match="analysis.mode"):
            ExperimentConfig.from_dict({"analysis": {"mode": "secant"}})

    def test_bad_range_length_rejected(self):
        with pytest.raises(ConfigError, match="length 2"):
            ExperimentConfig.from_dict({"analysis": {"x_range": [0, 1, 2]}})

    @pytest.mark.parametrize("argv", [
        ["grid", "--set", "plant.method=bogus"],
        ["simulate", "--set", "map.kind=perron_frobenius",
         "--set", "map.lambda_min=-0.5"],
        ["simulate", "--set", "map.lambda_max=1e999"],
        ["grid", "--set", "analysis.x_range=[0,1e999]",
         "--set", "analysis.resolution=4"],
        ["certify", "--set", "analysis.x_range=[-1e999,0]"],
        ["grid", "--set", "analysis.x_range=[-1e308,1e308]",
         "--set", "analysis.resolution=4"],
    ], ids=["plant-method", "negative-pf-bound", "infinite-bound",
            "infinite-range", "infinite-certify-range", "overflowing-width"])
    def test_library_rules_fail_before_any_file(self, tmp_path, capsys, argv):
        # Each section runs the rule of the library call it configures,
        # also where the command never makes that call.
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_unknown_plant_rejected(self):
        with pytest.raises(ConfigError, match="unknown plant"):
            ExperimentConfig.from_dict({"plant": {"name": "pendulum"}})

    def test_regularizer_values_coerced_to_float(self):
        config = ExperimentConfig.from_dict(
            {"training": {"regularizers": {"l1": 1}}})
        assert config.training.regularizers == {"l1": 1.0}
        assert isinstance(config.training.regularizers["l1"], float)

    @pytest.mark.parametrize("section, message", [
        ({"optimizer": "rmsprop"}, "unknown optimizer 'rmsprop'; use adam or sgd"),
        ({"epochs": 0}, "epochs must be positive"),
        ({"regularizers": {"l3": 1.0}}, "unknown regularizer 'l3'"),
    ])
    def test_training_values_checked_at_load(self, section, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({"training": section})

    def test_training_section_builds_its_train_config(self):
        config = ExperimentConfig.from_dict(
            {"training": {"horizon": 8, "optimizer": "sgd",
                          "regularizers": {"l2": 1}}})
        run = config.training
        assert isinstance(run, TrainConfig)
        assert (run.horizon, run.optimizer, run.regularizers) == (8, "sgd", {"l2": 1.0})
        assert list(run.to_dict()) == [
            "horizon", "batch", "epochs", "learning_rate", "optimizer",
            "regularizers", "seed"]
        assert run.to_dict()["epochs"] == 600

    def test_parse_rejects_malformed_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{seed: 1}")


class TestOverrides:
    def test_json_value(self):
        data = {}
        apply_override(data, "network.depth=8")
        assert data == {"network": {"depth": 8}}

    def test_string_fallback(self):
        data = {}
        apply_override(data, "network.activation=tanh")
        assert data == {"network": {"activation": "tanh"}}

    def test_list_value(self):
        data = {}
        apply_override(data, "analysis.x_range=[-1, 1]")
        assert data == {"analysis": {"x_range": [-1, 1]}}

    def test_top_level_value(self):
        data = {}
        apply_override(data, "seed=5")
        assert data == {"seed": 5}

    def test_overwrites_existing(self):
        data = {"network": {"depth": 1, "bias": False}}
        apply_override(data, "network.depth=4")
        assert data["network"] == {"depth": 4, "bias": False}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_override({}, "network.depth")

    def test_path_through_scalar_rejected(self):
        with pytest.raises(ConfigError, match="non-object"):
            apply_override({"seed": 3}, "seed.nested=1")


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_passes_schema(self, name):
        config = ExperimentConfig.from_dict(PRESETS[name])
        assert isinstance(config, ExperimentConfig)

    def test_preset_dicts_are_not_mutated_by_loading(self):
        before = json.dumps(PRESETS["period-two"], sort_keys=True)
        ExperimentConfig.from_dict(PRESETS["period-two"])
        assert json.dumps(PRESETS["period-two"], sort_keys=True) == before


class TestBuildNetwork:
    def test_shape_and_activation(self):
        config = ExperimentConfig.from_dict(
            {"network": {"depth": 3, "width": 4, "activation": "tanh"}})
        net = build_network(config)
        assert len(net.layers) == 3
        assert all(layer.weight.shape == (4, 4) for layer in net.layers)
        assert all(layer.activation == "tanh" for layer in net.layers)
        assert all(layer.bias is None for layer in net.layers)

    def test_layer_weights_follow_seed_ladder(self):
        config = ExperimentConfig.from_dict(
            {"seed": 11, "network": {"depth": 2, "width": 3}})
        net = build_network(config)
        for i, layer in enumerate(net.layers):
            expected = structured.draw_map(
                "gershgorin_complex", 3, 0.0, 1.0, seed=11 + i).realize()
            assert np.array_equal(layer.weight, expected)

    def test_weights_survive_activation_swap(self):
        base = {"seed": 5, "network": {"depth": 4, "activation": "relu"}}
        relu = build_network(ExperimentConfig.from_dict(base))
        base["network"]["activation"] = "sigmoid"
        sigmoid = build_network(ExperimentConfig.from_dict(base))
        for a, b in zip(relu.layers, sigmoid.layers):
            assert np.array_equal(a.weight, b.weight)

    def test_weights_survive_bias_toggle(self):
        base = {"seed": 5, "network": {"depth": 2, "bias": False}}
        plain = build_network(ExperimentConfig.from_dict(base))
        base["network"]["bias"] = True
        biased = build_network(ExperimentConfig.from_dict(base))
        for a, b in zip(plain.layers, biased.layers):
            assert np.array_equal(a.weight, b.weight)
        assert all(layer.bias is not None for layer in biased.layers)
        assert not np.array_equal(biased.layers[0].bias, biased.layers[1].bias)

    def test_bias_draws_bounded(self):
        config = ExperimentConfig.from_dict(
            {"network": {"depth": 8, "width": 6, "bias": True}})
        net = build_network(config)
        for layer in net.layers:
            assert np.all(np.abs(layer.bias) <= 0.5)


def preset_config(name, **analysis):
    data = json.loads(json.dumps(PRESETS[name]))
    data.setdefault("analysis", {}).update(analysis)
    return ExperimentConfig.from_dict(data)


class TestCertificateReport:
    def test_layerwise_certificate_wins(self):
        report = certificate_report(preset_config("contractive-relu",
                                                  resolution=16))
        assert report["status"] == "GLOBAL (layerwise)"
        assert report["layerwise"]["certified"] is True
        assert report["grid"]["fraction_dissipative"] == 1.0

    def test_sampled_certificate_without_layerwise(self):
        report = certificate_report(preset_config("regional-selu",
                                                  resolution=20))
        assert report["status"] == "REGIONAL (sampled)"
        assert report["layerwise"]["certified"] is False
        assert report["grid"]["fraction_dissipative"] == 1.0

    def test_failed_certificate_reports_worst_cell(self):
        report = certificate_report(preset_config("mixed-sigmoid",
                                                  resolution=16))
        assert report["status"] == "NOT CERTIFIED"
        worst = report["worst_cell"]
        assert worst["a_norm"] > 1.0
        assert report["grid"]["fraction_dissipative"] < 1.0

    def test_equilibrium_entry_within_bounds(self):
        report = certificate_report(preset_config("shifted-equilibrium",
                                                  resolution=16))
        (entry,) = report["equilibria"]
        assert entry["within_bounds"] is True
        assert entry["lower"] <= entry["norm"] <= entry["upper"]
        assert entry["norm"] > 0.1

    def test_wide_network_takes_sampled_path(self):
        config = ExperimentConfig.from_dict({
            "network": {"depth": 2, "width": 3, "activation": "tanh"},
            "analysis": {"anchors": 50},
        })
        report = certificate_report(config)
        assert "grid" not in report
        assert report["sampled"]["anchors"] == 50
        assert report["sampled"]["errors"] == 0


class TestCertificateWithoutEigenvalues:
    """certify and sweep write only norms and flags, so they must not need
    eigenvalues; grid writes them and must."""

    COMMANDS = {
        "certify-tanh": ["certify", "--preset", "contractive-tanh"],
        "certify-wide": ["certify", "--set", "network.width=16"],
        "sweep": ["sweep", "--threads", "1", "--depths", "1",
                  "--activations", "tanh", "--kinds", "unstructured",
                  "--bias", "on,off"],
    }

    @staticmethod
    def written(root):
        return {
            str(path.relative_to(root)):
                re.sub(rb'"created": "[^"]*"', b'"created": "*"', path.read_bytes())
            for path in sorted(root.rglob("*")) if path.is_file()
        }

    def test_certificates_never_take_eigenvalues(self, tmp_path, monkeypatch):
        from neurodissip import linalg

        for name, argv in self.COMMANDS.items():
            assert main(argv + ["--out", str(tmp_path / "plain" / name)]) == 0

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues were computed")

        monkeypatch.setattr(linalg, "_eigenvalues_batch", fail)
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        for name, argv in self.COMMANDS.items():
            assert main(argv + ["--out", str(tmp_path / "patched" / name)]) == 0
        plain = self.written(tmp_path / "plain")
        assert "sweep/sweep.csv" in plain and len(plain) == 5
        assert self.written(tmp_path / "patched") == plain
        assert main(["grid", "--preset", "contractive-tanh",
                     "--out", str(tmp_path / "grid")]) == 1


class TestAllErrorSummary:
    """A grid whose every cell overflows reports null norms in every artifact."""

    OVERRIDES = ["--preset", "depth-growth", "--set", "network.depth=3000",
                 "--set", "analysis.x_range=[5.0, 6.0]",
                 "--set", "analysis.y_range=[5.0, 6.0]",
                 "--set", "analysis.resolution=10"]

    @staticmethod
    def strict_json(path):
        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        with open(path) as fh:
            return json.load(fh, parse_constant=reject)

    def test_certify_and_sweep_row(self, tmp_path):
        assert main(["certify", "--out", str(tmp_path)] + self.OVERRIDES) == 0
        grid = self.strict_json(tmp_path / "certificate.json")["grid"]
        assert grid["errors"] == grid["cells"] == 100
        assert grid["max_a_norm"] is None and grid["min_a_norm"] is None
        config = ExperimentConfig.from_dict(
            self.strict_json(tmp_path / "certificate.json")["metadata"]["config"])
        report = certificate_report(config, equilibria=False)
        row = cli._sweep_row("all-errors", config, report)
        assert row["max_a_norm"] == "" and row["grid_errors"] == 100

    def test_grid(self, tmp_path, capsys):
        assert main(["grid", "--out", str(tmp_path)] + self.OVERRIDES) == 0
        assert "max a_norm nan), 100 error cells" in capsys.readouterr().out
        for name in ("grid.json", "grid_summary.json"):
            summary = self.strict_json(tmp_path / name)["summary"]
            assert summary["errors"] == 100
            assert summary["max_a_norm"] is None and summary["min_a_norm"] is None


class TestSweepEnumeration:
    def test_row_axes(self):
        rows = sweep_rows()
        assert len(rows) == 23
        kinds = [kind for kind, _ in rows]
        assert kinds.count("gershgorin_real") == 7
        assert kinds.count("gershgorin_complex") == 7
        assert kinds.count("spectral_svd") == 7
        assert ("perron_frobenius", (1.0, 1.0)) in rows
        assert ("unstructured", None) in rows

    def test_full_enumeration_count(self):
        configs = enumerate_sweep(ExperimentConfig())
        assert len(configs) == 23 * 3 * 6 * 2
        assert len({name for name, _ in configs}) == len(configs)

    def test_activation_and_bias_variants_share_seed(self):
        configs = enumerate_sweep(ExperimentConfig())
        seeds = {}
        for name, config in configs:
            key = (config.map.kind, config.map.lambda_min,
                   config.map.lambda_max, config.network.depth)
            seeds.setdefault(key, set()).add(config.seed)
        assert all(len(s) == 1 for s in seeds.values())
        assert len(seeds) == 23 * 3

    def test_seed_stride_exceeds_max_depth(self):
        configs = enumerate_sweep(ExperimentConfig(),
                                  activations=("relu",), bias_choices=(False,))
        seeds = sorted({config.seed for _, config in configs})
        gaps = np.diff(seeds)
        assert np.all(gaps >= 16)
        # The deepest stack consumes seeds seed..seed+7, so rows never
        # share a layer draw.
        assert max(c.network.depth for _, c in configs) == 8

    def test_restriction_keeps_full_enumeration_seed(self):
        full = dict(enumerate_sweep(ExperimentConfig()))
        restricted = enumerate_sweep(
            ExperimentConfig(), kinds=("spectral_svd",),
            bounds=((0.99, 1.10),), depths=(8,), activations=("selu",),
            bias_choices=(False,))
        assert len(restricted) == 1
        name, config = restricted[0]
        assert name == "spectral_svd_0.99_1.10_d8_selu_nobias"
        assert config.seed == full[name].seed

    def test_repeated_restriction_values_count_once(self):
        configs = enumerate_sweep(ExperimentConfig(), activations=("relu", "relu"),
                                  bias_choices=(True, False, True))
        names = [name for name, _ in configs]
        assert len(names) == len(set(names)) == 23 * 3 * 2

    def test_values_outside_the_study_select_nothing(self):
        assert enumerate_sweep(ExperimentConfig(), activations=("elu",)) == []

    def test_base_seed_shifts_every_config(self):
        base0 = enumerate_sweep(ExperimentConfig(seed=0))
        base9 = enumerate_sweep(ExperimentConfig(seed=9))
        for (_, a), (_, b) in zip(base0, base9):
            assert b.seed == a.seed + 9


class TestPwaCommand:
    def test_writes_residual_artifact(self, tmp_path, capsys):
        rc = main(["pwa", "--preset", "period-two", "--out", str(tmp_path),
                   "--x", "0.3,-0.2"])
        assert rc == 0
        payload = read_json(tmp_path / "pwa.json")
        assert payload["residual"] <= 1e-6
        assert payload["anchor"] == [0.3, -0.2]
        assert "residual=" in capsys.readouterr().out

    def test_nonzero_exit_on_large_residual(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "verify_equivalence", lambda net, form: 0.5)
        rc = main(["pwa", "--preset", "period-two", "--out", str(tmp_path)])
        assert rc == 1

    def test_rejects_wrong_anchor_length(self, tmp_path, capsys):
        rc = main(["pwa", "--preset", "period-two", "--out", str(tmp_path),
                   "--x", "1.0,2.0,3.0"])
        assert rc == 1
        assert "length 2" in capsys.readouterr().err


class TestGridCommand:
    def test_artifacts_and_counts(self, tmp_path):
        rc = main(["grid", "--preset", "contractive-relu", "--out", str(tmp_path),
                   "--set", "analysis.resolution=10"])
        assert rc == 0
        rows = csv_rows(tmp_path / "grid.csv")
        assert len(rows) == 100
        assert all(row["dissipative"] == "true" for row in rows)
        summary = read_json(tmp_path / "grid_summary.json")
        assert summary["summary"]["fraction_dissipative"] == 1.0
        assert (tmp_path / "grid.json").exists()

    def test_stdout_counts_error_cells(self, tmp_path, capsys):
        rc = main(["grid", "--preset", "depth-growth", "--out", str(tmp_path / "deep"),
                   "--set", "network.depth=3000", "--set", "analysis.resolution=10"])
        assert rc == 0
        errors = read_json(tmp_path / "deep" / "grid_summary.json")["summary"]["errors"]
        assert 0 < errors < 100
        assert capsys.readouterr().out.endswith(f"), {errors} error cells\n")
        rc = main(["grid", "--preset", "depth-growth", "--out", str(tmp_path / "shallow"),
                   "--set", "analysis.resolution=10"])
        assert rc == 0
        assert capsys.readouterr().out.endswith(")\n")

    def test_checkpoint_replaces_drawn_network(self, tmp_path):
        from neurodissip import training
        from neurodissip.network import Layer, MlpNetwork

        model = training.BlockSSM(
            f_net=MlpNetwork(layers=(
                Layer(weight=0.5 * np.eye(2), bias=None, activation="relu"),
            )),
            g_net=training.make_mlp((1, 2), seed=0),
        )
        training.save_checkpoint(model, tmp_path / "ckpt")
        rc = main(["grid", "--checkpoint", str(tmp_path / "ckpt"),
                   "--out", str(tmp_path),
                   "--set", "analysis.x_range=[-1, 1]",
                   "--set", "analysis.y_range=[-1, 1]",
                   "--set", "analysis.resolution=8"])
        assert rc == 0
        summary = read_json(tmp_path / "grid_summary.json")
        assert summary["summary"]["fraction_dissipative"] == 1.0
        assert summary["summary"]["max_a_norm"] == pytest.approx(0.5)


class TestSpectraCommand:
    def test_medians_per_depth(self, tmp_path):
        rc = main(["spectra", "--preset", "depth-damping", "--out", str(tmp_path),
                   "--set", "analysis.resolution=8",
                   "--set", "analysis.depths=[1, 4]"])
        assert rc == 0
        summary = read_json(tmp_path / "spectra_summary.json")
        medians = summary["median_modulus"]
        assert set(medians) == {"1", "4"}
        # Contractive bounds: composing more layers damps the spectrum.
        assert medians["4"] < medians["1"]
        moduli = csv_rows(tmp_path / "eigenvalues.csv")
        assert {row["depth"] for row in moduli} == {"1", "4"}


    def test_empty_depths_fail_before_any_study(self, tmp_path, capsys):
        rc = main(["spectra", "--preset", "depth-damping", "--out", str(tmp_path),
                   "--set", "analysis.resolution=4", "--set", "analysis.depths=[]"])
        assert rc == 1
        assert "analysis.depths must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "spectra_summary.json").exists()

    def test_overflowing_depth_warns_nothing(self, tmp_path, capsys):
        # The suite turns a RuntimeWarning raised in neurodissip into an
        # error, which main would report as a failed command.
        rc = main(["spectra", "--preset", "depth-growth", "--out", str(tmp_path),
                   "--set", "analysis.resolution=10",
                   "--set", "analysis.depths=[1, 3000]"])
        assert rc == 0
        assert capsys.readouterr().err == ""
        medians = read_json(tmp_path / "spectra_summary.json")["median_modulus"]
        assert medians["3000"] is None and medians["1"] > 1.0


class TestRolloutCommand:
    def test_limit_cycle_classification(self, tmp_path):
        rc = main(["rollout", "--preset", "period-two", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "rollout.json")
        assert payload["classification"] == "limit_cycle"
        assert payload["period"] == 2
        with open(tmp_path / "trajectory.csv") as fh:
            assert len(fh.readlines()) > 10

    @pytest.mark.parametrize("argv, message", [
        (["rollout", "--set", "network.width=3"],
         "x0 has 2 entries but the map's state dimension is 3"),
        (["certify", "--set", "analysis.x0=[1, 2, 3]",
          "--set", "analysis.resolution=4"],
         "x0 has 3 entries but the map's state dimension is 2"),
    ], ids=["rollout-width3", "certify-x0-3"])
    def test_wrong_length_x0_is_named(self, tmp_path, capsys, argv, message):
        rc = main(argv + ["--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestBasinCommand:
    def test_class_counts(self, tmp_path, capsys):
        rc = main(["basin", "--preset", "period-two", "--out", str(tmp_path),
                   "--set", "analysis.resolution=6",
                   "--set", "analysis.horizon=600"])
        assert rc == 0
        summary = read_json(tmp_path / "basin_summary.json")["summary"]
        assert summary["cells"] == 36
        assert summary["classes"].get("limit_cycle", 0) > 0
        assert "limit_cycle" in capsys.readouterr().out


class TestSimulateCommand:
    def test_dataset_files(self, tmp_path):
        rc = main(["simulate", "--preset", "two-tank-identification",
                   "--out", str(tmp_path), "--set", "plant.samples=40"])
        assert rc == 0
        rows = csv_rows(tmp_path / "dataset.csv")
        assert len(rows) == 40
        sidecar = read_json(tmp_path / "dataset.json")
        assert sidecar["plant"]["kind"] == "two_tank"


class TestTrainCommand:
    def test_checkpoint_and_summary(self, tmp_path):
        rc = main(["train", "--preset", "two-tank-identification",
                   "--out", str(tmp_path),
                   "--set", "plant.samples=120",
                   "--set", "training.epochs=3",
                   "--set", "training.width=4",
                   "--set", "training.hidden=1",
                   "--set", "training.horizon=4",
                   "--set", "training.batch=8"])
        assert rc == 0
        summary = read_json(tmp_path / "train_summary.json")
        assert summary["plant"] == "two_tank"
        assert summary["best_test_mse"] > 0
        assert summary["best_epoch"] <= 3
        assert (tmp_path / "checkpoint").exists()

    def test_exact_fit_reports_an_infinite_improvement(
            self, tmp_path, capsys, monkeypatch):
        # An all-zero record: zero-bias nets map zeros to zeros, so the
        # test error is 0 before and after training.
        def zero_record(kind, seed=0, samples=3000, method="rk4"):
            plant = cli.plants.make_plant(kind)
            third = samples // 3
            return cli.plants.PlantDataset(
                plant=plant, dt=1.0,
                states=np.zeros((samples, plant.state_dim)),
                inputs=np.zeros((samples, plant.input_dim)),
                splits=((0, third), (third, 2 * third), (2 * third, samples)),
            )

        monkeypatch.setattr(cli.plants, "benchmark_dataset", zero_record)
        rc = main(["train", "--preset", "two-tank-identification",
                   "--out", str(tmp_path), "--set", "plant.samples=120",
                   "--set", "training.epochs=1", "--set", "training.horizon=4",
                   "--set", "training.width=4", "--set", "training.hidden=1"])
        assert rc == 0
        summary = read_json(tmp_path / "train_summary.json")
        assert summary["init_test_mse"] == summary["best_test_mse"] == 0.0
        assert summary["improvement"] is None  # inf, written as null
        assert "(infx, best epoch 0)" in capsys.readouterr().out

    @pytest.mark.parametrize("override, message", [
        ("training.optimizer=rmsprop", "unknown optimizer 'rmsprop'; use adam or sgd"),
        ("training.epochs=0", "epochs must be positive"),
    ])
    def test_bad_training_value_fails_before_simulation(
            self, tmp_path, capsys, monkeypatch, override, message):
        def simulated(*args, **kwargs):
            raise AssertionError("the plant was simulated before the config was checked")

        monkeypatch.setattr(cli.plants, "benchmark_dataset", simulated)
        rc = main(["train", "--preset", "cstr-identification",
                   "--out", str(tmp_path), "--set", override])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCertifyCommand:
    def test_global_status(self, tmp_path, capsys):
        rc = main(["certify", "--preset", "origin-attractor",
                   "--out", str(tmp_path), "--set", "analysis.resolution=12"])
        assert rc == 0
        assert "GLOBAL (layerwise)" in capsys.readouterr().out
        report = read_json(tmp_path / "certificate.json")
        assert report["status"] == "GLOBAL (layerwise)"

    def test_assert_flag_exits_two(self, tmp_path, capsys):
        rc = main(["certify", "--preset", "divergent-softplus", "--assert",
                   "--out", str(tmp_path), "--set", "analysis.resolution=12"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "NOT CERTIFIED" in out
        assert "worst cell" in out

    def test_unstable_activation_claims_no_gain_bound(self, tmp_path):
        rc = main(["certify", "--preset", "regional-selu",
                   "--out", str(tmp_path), "--set", "analysis.resolution=12"])
        assert rc == 0
        assert '"lambda_bound": null' in (tmp_path / "certificate.json").read_text()
        layerwise = read_json(tmp_path / "certificate.json")["layerwise"]
        assert layerwise["lambda_bound"] is None
        assert not layerwise["lambda_bound_analytic"]

    def test_failure_without_assert_exits_zero(self, tmp_path):
        rc = main(["certify", "--preset", "divergent-softplus",
                   "--out", str(tmp_path), "--set", "analysis.resolution=12"])
        assert rc == 0

    @pytest.mark.parametrize("overrides", [
        # Rank-deficient A(x) whose top singular values lie within 6e-4
        # of one another.
        ["network.width=8", "network.activation=relu",
         "map.lambda_min=0.99", "map.lambda_max=1.01"],
        # Width-16 A(x) on which an earlier QR eigenvalue iteration failed
        # to deflate.
        ["network.width=16", "network.activation=relu", "map.kind=spectral_svd"],
    ])
    def test_wide_relu_anchors_have_no_errors(self, tmp_path, overrides):
        argv = ["certify", "--out", str(tmp_path)]
        for assignment in overrides:
            argv += ["--set", assignment]
        assert main(argv) == 0
        sampled = read_json(tmp_path / "certificate.json")["sampled"]
        assert sampled["errors"] == 0


class TestSweepCommand:
    def test_count_only(self, tmp_path, capsys):
        rc = main(["sweep", "--count-only", "--out", str(tmp_path)])
        assert rc == 0
        assert "828 configurations" in capsys.readouterr().out

    def test_count_only_makes_no_out(self, tmp_path):
        assert main(["sweep", "--count-only", "--out", str(tmp_path / "out")]) == 0
        assert not (tmp_path / "out").exists()

    def test_restricted_sweep_artifacts(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path),
                   "--kinds", "gershgorin_complex", "--bounds", "0.00:1.00",
                   "--depths", "1", "--activations", "relu,sigmoid",
                   "--bias", "off", "--threads", "2",
                   "--set", "analysis.resolution=10"])
        assert rc == 0
        rows = csv_rows(tmp_path / "sweep.csv")
        assert len(rows) == 2
        by_name = {row["name"]: row for row in rows}
        relu = by_name["gershgorin_complex_0.00_1.00_d1_relu_nobias"]
        assert relu["fraction_dissipative"] == "1.0"
        assert relu["status"] == "GLOBAL (layerwise)"
        sigmoid = by_name["gershgorin_complex_0.00_1.00_d1_sigmoid_nobias"]
        assert relu["seed"] == sigmoid["seed"]
        for name in by_name:
            assert (tmp_path / "configs" / f"{name}.json").exists()
        assert "2 configurations" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--kinds", "spectral"), ("--depths", "5"), ("--bounds", "0.5:0.9"),
        ("--depths", "x"), ("--bounds", "a:b"), ("--activations", "elu"),
    ])
    def test_filter_value_outside_study_rejected(self, tmp_path, capsys,
                                                 flag, value):
        rc = main(["sweep", "--count-only", "--out", str(tmp_path),
                   flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert flag in err and repr(value) in err

    @pytest.mark.parametrize("flag, value, count", [
        ("--activations", "relu,relu", 138), ("--bias", "on,on", 414),
        ("--depths", "8,1,8", 552),
    ])
    def test_repeated_filter_values_count_once(self, tmp_path, capsys,
                                               flag, value, count):
        rc = main(["sweep", "--count-only", "--out", str(tmp_path), flag, value])
        assert rc == 0
        assert capsys.readouterr().out == f"sweep: {count} configurations\n"

    def test_bad_bias_token_rejected(self, tmp_path, capsys):
        rc = main(["sweep", "--count-only", "--out", str(tmp_path),
                   "--bias", "on,yes"])
        assert rc == 1
        assert capsys.readouterr().err == "error: --bias takes a comma list of on/off\n"

    def test_inverted_range_fails_before_any_config(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path), "--depths", "1",
                   "--set", "analysis.x_range=[1, 0]"])
        assert rc == 1
        assert "x_range must satisfy lo < hi" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_valid_filters_may_select_nothing(self, tmp_path, capsys):
        rc = main(["sweep", "--count-only", "--out", str(tmp_path),
                   "--kinds", "perron_frobenius", "--bounds", "0.00:1.00"])
        assert rc == 0
        assert "sweep: 0 configurations" in capsys.readouterr().out

    def test_bad_bounds_token_rejected(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path), "--bounds", "0.99"])
        assert rc == 1
        assert "lo:hi" in capsys.readouterr().err


class TestGenWeightsCommand:
    def test_guarantee_artifact(self, tmp_path, capsys):
        rc = main(["gen-weights", "--out", str(tmp_path),
                   "--set", "map.kind=perron_frobenius",
                   "--set", "map.lambda_min=1.0", "--set", "map.lambda_max=1.0",
                   "--set", "network.width=5"])
        assert rc == 0
        payload = read_json(tmp_path / "weights.json")
        assert len(payload["matrix"]) == 5
        assert payload["report"]["passed"] is True
        assert "guarantees ok" in capsys.readouterr().out


class TestCommandPlumbing:
    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(emit_config(preset_config("period-two", resolution=6,
                                                  horizon=400)))
        rc = main(["rollout", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "rollout.json")
        assert payload["metadata"]["config"]["analysis"]["resolution"] == 6

    def test_preset_and_config_conflict(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{}")
        rc = main(["rollout", "--preset", "period-two", "--config", str(path),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "not both" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{nope}")
        rc = main(["rollout", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_preset_is_a_parser_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["rollout", "--preset", "does-not-exist", "--out", str(tmp_path)])

    def test_override_schema_error_sets_exit_code(self, tmp_path, capsys):
        rc = main(["rollout", "--preset", "period-two", "--out", str(tmp_path),
                   "--set", "network.depht=2"])
        assert rc == 1
        assert "depht" in capsys.readouterr().err

    def test_threads_explicit_or_cpu_count(self):
        assert cli.resolve_threads(5) == 5
        assert cli.resolve_threads(1) == 1
        assert cli.resolve_threads(None) >= 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_sweep_rejects_threads_below_one(self, tmp_path, capsys, threads):
        rc = main(["sweep", "--threads", threads, "--count-only",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error: --threads must be at least 1" in capsys.readouterr().err

    def test_rejected_threads_make_no_out(self, tmp_path, capsys):
        assert main(["sweep", "--threads", "0", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_outputs_deterministic_modulo_timestamp(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["certify", "--preset", "mixed-sigmoid",
                       "--out", str(tmp_path / sub),
                       "--set", "analysis.resolution=8"])
            assert rc == 0
        first = read_json(tmp_path / "a" / "certificate.json")
        second = read_json(tmp_path / "b" / "certificate.json")
        first["metadata"].pop("created")
        second["metadata"].pop("created")
        assert first == second
