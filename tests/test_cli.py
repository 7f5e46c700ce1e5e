"""Tests for the command-line driver: config schema, presets, and commands."""

import csv
import json
import os

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
        with pytest.raises(ConfigError, match="unknown activation"):
            ExperimentConfig.from_dict({"network": {"activation": "swish"}})

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

    def test_unknown_plant_rejected(self):
        with pytest.raises(ConfigError, match="unknown plant"):
            ExperimentConfig.from_dict({"plant": {"name": "pendulum"}})

    def test_regularizer_values_coerced_to_float(self):
        config = ExperimentConfig.from_dict(
            {"training": {"regularizers": {"l1": 1}}})
        assert config.training.regularizers == {"l1": 1.0}
        assert isinstance(config.training.regularizers["l1"], float)

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


class TestRolloutCommand:
    def test_limit_cycle_classification(self, tmp_path):
        rc = main(["rollout", "--preset", "period-two", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "rollout.json")
        assert payload["classification"] == "limit_cycle"
        assert payload["period"] == 2
        with open(tmp_path / "trajectory.csv") as fh:
            assert len(fh.readlines()) > 10


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

    def test_threads_env_fallback(self, monkeypatch):
        monkeypatch.setenv("NEURODISSIP_THREADS", "3")
        assert cli.resolve_threads(None) == 3
        assert cli.resolve_threads(5) == 5
        monkeypatch.delenv("NEURODISSIP_THREADS")
        assert cli.resolve_threads(None) >= 1

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
