"""The artifact writers against the per-module writers they replaced.

Each ``reference_*`` function is the writer body as it stood before every
artifact went through ``neurodissip.artifacts``; the writers must produce
the same bytes on the same inputs.  Two differences are pinned: an error
cell's ``eig_moduli`` field in grid.csv is written ``[]``, minimally
quoted like every other CSV field, where it used to be ``"[]"``; and a
non-finite float in a JSON document is ``null`` (``null_non_finite``),
where ``json.dumps`` writes ``NaN`` or ``Infinity``.
"""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from neurodissip import artifacts, cli
from neurodissip.dissipativity import (
    GridSpec,
    certify_region,
    write_grid_csv,
    write_grid_json,
)
from neurodissip.dynamics import (
    basin_map,
    depth_spectra,
    rollout,
    write_basin_csv,
    write_spectra_csv,
    write_trajectory_csv,
)
from neurodissip.network import Layer, MlpNetwork, save_network
from neurodissip.plants import benchmark_dataset, write_dataset
from neurodissip.training import (
    BlockSSM,
    TrainConfig,
    TrainReport,
    make_mlp,
    save_checkpoint,
)


# --- the replaced writers, verbatim ---------------------------------------------

GRID_ERROR = "non-finite decomposition or norm did not converge"


def _csv_float(x: float) -> str:
    return repr(float(x))


def reference_write_grid_csv(analysis, path) -> None:
    xs = analysis.spec.axis_centers(0)
    ys = analysis.spec.axis_centers(1)
    r = analysis.resolution
    lines = [
        "x1,x2,a_norm,b_norm,dissipative,contractive_affine,"
        "max_eig_re,max_eig_im,eig_moduli,error"
    ]
    for i in range(r):
        for j in range(r):
            if not analysis.error[i, j]:
                eig = analysis.eigenvalues[i, j]
                moduli = json.dumps([float(m) for m in np.abs(eig)])
                contr = int(analysis.contractive[i, j])
                row = [
                    _csv_float(xs[i]),
                    _csv_float(ys[j]),
                    _csv_float(analysis.a_norm[i, j]),
                    _csv_float(analysis.b_norm[i, j]),
                    "true" if analysis.dissipative[i, j] else "false",
                    "" if contr == -1 else ("true" if contr == 1 else "false"),
                    _csv_float(eig[0].real),
                    _csv_float(eig[0].imag),
                    f'"{moduli}"',
                    "",
                ]
            else:
                row = [_csv_float(xs[i]), _csv_float(ys[j]),
                       "", "", "false", "", "", "", '"[]"', GRID_ERROR]
            lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_write_grid_json(analysis, path) -> None:
    doc = {
        "mode": analysis.mode,
        "x_range": list(analysis.spec.x_range),
        "y_range": list(analysis.spec.y_range),
        "resolution": analysis.resolution,
        "summary": analysis.summary(),
        "a_norm": reference_nan_to_none(analysis.a_norm),
        "b_norm": reference_nan_to_none(analysis.b_norm),
        "dissipative": analysis.dissipative.tolist(),
        "contractive_affine": analysis.contractive.tolist(),
        "eigenvalues_re": reference_nan_to_none(analysis.eigenvalues.real),
        "eigenvalues_im": reference_nan_to_none(analysis.eigenvalues.imag),
        "errors": [
            {"i": i, "j": j, "message": GRID_ERROR}
            for i, j in np.argwhere(analysis.error).tolist()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def reference_nan_to_none(arr: np.ndarray):
    out = arr.tolist()

    def scrub(x):
        if isinstance(x, list):
            return [scrub(v) for v in x]
        return None if (x != x) else x  # nan != nan

    return scrub(out)


def reference_write_trajectory_csv(traj, path) -> None:
    dim = traj.states.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(dim)])
        for t, state in enumerate(traj.states):
            writer.writerow([t] + [repr(float(v)) for v in state])


def reference_write_basin_csv(basin, path) -> None:
    xs = basin.spec.axis_centers(0)
    ys = basin.spec.axis_centers(1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "class", "limit_id"])
        for i in range(basin.spec.resolution):
            for j in range(basin.spec.resolution):
                writer.writerow([
                    repr(float(xs[i])), repr(float(ys[j])),
                    basin.classifications[i, j],
                    int(basin.limit_ids[i, j]),
                ])


def reference_write_spectra_csv(studies, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count", "depth"])
        for study in studies:
            for b in range(study.histogram.shape[0]):
                writer.writerow([
                    repr(float(study.bin_edges[b])),
                    repr(float(study.bin_edges[b + 1])),
                    int(study.histogram[b]),
                    study.depth,
                ])


def reference_write_eigenvalues_csv(studies, path) -> None:
    """The eigenvalues.csv loop of ``cmd_spectra``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth", "modulus"])
        for study in studies:
            for value in study.eigenvalue_moduli:
                writer.writerow([study.depth, repr(float(value))])


def reference_write_dataset(dataset, csv_path, sidecar_path) -> None:
    n_x, n_u = dataset.plant.state_dim, dataset.plant.input_dim
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t"]
            + [f"x{i + 1}" for i in range(n_x)]
            + [f"u{i + 1}" for i in range(n_u)]
        )
        for k in range(dataset.samples):
            writer.writerow(
                [repr(k * dataset.dt)]
                + [repr(float(v)) for v in dataset.states[k]]
                + [repr(float(v)) for v in dataset.inputs[k]]
            )
    sidecar = {
        "plant": {
            "kind": dataset.plant.kind,
            "parameters": dataset.plant.parameters,
            "state_dim": n_x,
            "input_dim": n_u,
            "state_bounds": dataset.plant.state_bounds.tolist(),
            "input_bounds": dataset.plant.input_bounds.tolist(),
            "clamp_states": dataset.plant.clamp_states,
        },
        "dt": dataset.dt,
        "seed": dataset.seed,
        "samples": dataset.samples,
        "splits": [list(span) for span in dataset.splits],
        "normalization": dataset.normalization(),
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def reference_save_network(net, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(net.to_dict(), fh, indent=2)
        fh.write("\n")


def null_non_finite(value):
    """``value`` with each non-finite float as None, lists for tuples: what
    ``json.dumps`` needs to write the bytes ``write_json`` writes."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: null_non_finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [null_non_finite(v) for v in value]
    return value


def reference_train_config_dict(config) -> dict:
    """``TrainConfig.to_dict``."""
    return {
        "horizon": config.horizon,
        "batch": config.batch,
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "optimizer": config.optimizer,
        "regularizers": dict(config.regularizers),
        "seed": config.seed,
    }


def reference_experiment_config_dict(config) -> dict:
    """``ExperimentConfig.to_dict``."""
    def plain(value):
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value

    out: dict = {"seed": config.seed}
    for name, section_cls in cli._SECTIONS.items():
        spec = getattr(config, name)
        out[name] = {f.name: plain(getattr(spec, f.name))
                     for f in dataclasses.fields(section_cls)}
    return out


def reference_sweep_row(name, config, report) -> dict:
    row = {
        "name": name,
        "kind": config.map.kind,
        "lambda_min": config.map.lambda_min,
        "lambda_max": config.map.lambda_max,
        "depth": config.network.depth,
        "activation": config.network.activation,
        "bias": int(config.network.bias),
        "seed": config.seed,
        "status": "", "certified_layerwise": "", "max_w_norm": "",
        "fraction_dissipative": "", "max_a_norm": "", "grid_errors": "",
        "error": "",
    }
    if isinstance(report, Exception):
        row["status"] = "ERROR"
        row["error"] = str(report)
        return row
    row["status"] = report["status"]
    row["certified_layerwise"] = int(report["layerwise"]["certified"])
    row["max_w_norm"] = repr(max(report["layerwise"]["w_norms"]))
    grid = report.get("grid")
    if grid is not None:
        row["fraction_dissipative"] = repr(grid["fraction_dissipative"])
        if grid["max_a_norm"] is not None:
            row["max_a_norm"] = repr(grid["max_a_norm"])
        row["grid_errors"] = grid["errors"]
    return row


def reference_write_sweep_csv(path, rows) -> None:
    """The sweep.csv part of ``cmd_sweep``."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cli._SWEEP_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


# --- byte-for-byte checks ---------------------------------------------------------

def same_bytes(tmp_path, name, write, reference, *args):
    new, old = tmp_path / f"new_{name}", tmp_path / f"old_{name}"
    write(*args, new)
    reference(*args, old)
    assert new.read_bytes() == old.read_bytes()
    return new.read_bytes()


def preset_config(name, **analysis):
    data = json.loads(json.dumps(cli.PRESETS[name]))
    data.setdefault("analysis", {}).update(analysis)
    return cli.ExperimentConfig.from_dict(data)


class TestGridWriters:
    def test_undefined_contractive_cell(self, tmp_path):
        net = cli.build_network(preset_config("shifted-equilibrium"))
        # Odd resolution on a symmetric range puts a cell center on the origin.
        analysis = certify_region(net, GridSpec((-1.0, 1.0), (-1.0, 1.0), 5))
        assert analysis.contractive[2, 2] == -1
        assert not analysis.error.any()
        table = same_bytes(tmp_path, "grid.csv", write_grid_csv,
                           reference_write_grid_csv, analysis)
        assert b"\r" not in table
        same_bytes(tmp_path, "grid.json", write_grid_json,
                   reference_write_grid_json, analysis)

    def test_error_cells_pin_bare_empty_moduli(self, tmp_path):
        big = 1e200 * np.eye(2)
        net = MlpNetwork(layers=(Layer(weight=big, activation="relu"),
                                 Layer(weight=big, activation="relu")))
        analysis = certify_region(net, GridSpec((-1.0, 1.0), (-1.0, 1.0), 5))
        errors = int(np.count_nonzero(analysis.error))
        assert 0 < errors < 25
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_grid_csv(analysis, new)
        reference_write_grid_csv(analysis, old)
        assert old.read_bytes().count(b',"[]",') == errors
        assert new.read_bytes() == old.read_bytes().replace(b',"[]",', b",[],")
        same_bytes(tmp_path, "grid.json", write_grid_json,
                   reference_write_grid_json, analysis)


class TestDynamicsWriters:
    def test_diverged_trajectory_with_inf_and_nan(self, tmp_path):
        net = MlpNetwork(layers=(Layer(
            weight=np.array([[1e300, -1e300], [1e300, 0.0]]),
            activation="identity"),))
        traj = rollout(net, [1e10, 1e10], steps=10)
        assert traj.halt == "diverged" and np.isinf(traj.states[-1]).all()
        # A rollout halts at its first non-finite state, so a NaN one is added.
        traj = dataclasses.replace(
            traj, states=np.vstack([traj.states, [[np.nan, -1e-310]]]))
        same_bytes(tmp_path, "trajectory.csv", write_trajectory_csv,
                   reference_write_trajectory_csv, traj)

    def test_basin(self, tmp_path):
        config = preset_config("period-five", resolution=7)
        basin = basin_map(cli.build_network(config), config.analysis,
                          steps=config.analysis.horizon)
        assert len(set(basin.classifications.ravel().tolist())) > 1
        same_bytes(tmp_path, "basin.csv", write_basin_csv,
                   reference_write_basin_csv, basin)

    def test_spectra_at_three_depths(self, tmp_path):
        config = preset_config("depth-damping", resolution=6, depths=[1, 2, 4])
        anchors = config.analysis.cell_centers()
        studies = depth_spectra(cli.build_network(config).layers[0],
                                config.analysis.depths, anchors)
        assert [s.depth for s in studies] == [1, 2, 4]
        same_bytes(tmp_path, "histograms.csv", write_spectra_csv,
                   reference_write_spectra_csv, studies)

        out = tmp_path / "cli"
        assert cli.main(["spectra", "--preset", "depth-damping", "--out", str(out),
                         "--set", "analysis.resolution=6",
                         "--set", "analysis.depths=[1,2,4]"]) == 0
        reference_write_spectra_csv(studies, tmp_path / "old_histograms.csv")
        reference_write_eigenvalues_csv(studies, tmp_path / "old_eigenvalues.csv")
        for name in ("histograms.csv", "eigenvalues.csv"):
            assert (out / name).read_bytes() == (tmp_path / f"old_{name}").read_bytes()


class TestDatasetWriter:
    def test_two_tank_dataset(self, tmp_path):
        ds = benchmark_dataset("two_tank", seed=3, samples=90)
        assert ds.dt == 1.0
        new = (tmp_path / "new.csv", tmp_path / "new.json")
        old = (tmp_path / "old.csv", tmp_path / "old.json")
        write_dataset(ds, *new)
        reference_write_dataset(ds, *old)
        for a, b in zip(new, old):
            assert a.read_bytes() == b.read_bytes()


class TestJsonWriters:
    def test_network_and_checkpoint_report(self, tmp_path):
        f_net = make_mlp((2, 3, 2), "tanh", seed=1)
        g_net = make_mlp((1, 3, 2), "gelu", seed=2)
        same_bytes(tmp_path, "net.json", save_network, reference_save_network, f_net)
        model = BlockSSM(f_net=f_net, g_net=g_net)
        report = TrainReport(
            train_losses=[0.5, float("nan")], dev_losses=[0.25, float("inf")],
            regularizer_values=[0.0, 1e-3], best_epoch=0, best_model=model,
            final_model=model,
            config=TrainConfig(epochs=2, regularizers={"l2": 1e-4}),
        )
        save_checkpoint(model, tmp_path / "ckpt", report)
        expected = json.dumps(null_non_finite(report.to_dict()), indent=2) + "\n"
        assert (tmp_path / "ckpt" / "report.json").read_text() == expected

    def test_every_document_is_strict_json(self, tmp_path):
        def refuse(constant):
            raise ValueError(f"{constant} in a JSON document")

        assert cli.main(["certify", "--preset", "consensus-line",
                         "--out", str(tmp_path / "certify")]) == 0
        assert cli.main(["spectra", "--preset", "depth-growth",
                         "--set", "analysis.resolution=10",
                         "--set", "analysis.depths=[1, 3000]",
                         "--out", str(tmp_path / "spectra")]) == 0
        model = BlockSSM(f_net=make_mlp((2, 3, 2), seed=1),
                         g_net=make_mlp((1, 3, 2), seed=2))
        report = TrainReport(
            train_losses=[float("nan"), 0.5], dev_losses=[float("inf"), 0.25],
            regularizer_values=[0.0, 0.0], best_epoch=1, best_model=model,
            final_model=model, config=TrainConfig(epochs=2))
        save_checkpoint(model, tmp_path / "ckpt", report)
        docs = {path.relative_to(tmp_path).as_posix():
                json.loads(path.read_text(), parse_constant=refuse)
                for path in tmp_path.rglob("*.json")}
        assert len(docs) == 5
        uppers = [e["upper"] for e in docs["certify/certificate.json"]["equilibria"]]
        assert uppers == [None, 0.0, None, None]
        assert docs["spectra/spectra_summary.json"]["median_modulus"]["3000"] is None
        losses = docs["ckpt/report.json"]
        assert losses["train_losses"][0] is None and losses["dev_losses"][0] is None


class TestConfigDicts:
    def test_experiment_config_dict(self):
        for name in sorted(cli.PRESETS):
            config = preset_config(name)
            assert (json.dumps(config.to_dict())
                    == json.dumps(reference_experiment_config_dict(config)))

    def test_train_config_dict(self):
        config = TrainConfig(horizon=8, epochs=2, optimizer="sgd",
                             regularizers={"l2": 1e-4}, seed=3)
        assert (list(config.to_dict().items())
                == list(reference_train_config_dict(config).items()))


class TestSweepCsv:
    def test_error_row_with_comma_and_quote(self, tmp_path, monkeypatch):
        message = 'cell (3, 4) failed: "overflow", retried'
        real = cli.certificate_report

        def flaky(config, equilibria=True):
            if config.network.activation == "sigmoid":
                raise ValueError(message)
            return real(config, equilibria=equilibria)

        monkeypatch.setattr(cli, "certificate_report", flaky)
        assert cli.main(["sweep", "--out", str(tmp_path / "cli"),
                         "--kinds", "gershgorin_complex,spectral_svd",
                         "--bounds", "0.00:1.00", "--depths", "1",
                         "--activations", "relu,sigmoid", "--bias", "off",
                         "--threads", "1",
                         "--set", "analysis.resolution=6"]) == 0

        base = cli.ExperimentConfig.from_dict({"analysis": {"resolution": 6}})
        configs = cli.enumerate_sweep(
            base, kinds=["gershgorin_complex", "spectral_svd"],
            bounds=((0.0, 1.0),), depths=[1], activations=["relu", "sigmoid"],
            bias_choices=(False,))
        rows = []
        for name, config in sorted(configs, key=lambda item: item[0]):
            try:
                report = flaky(config, equilibria=False)
            except ValueError as exc:
                report = exc
            rows.append(reference_sweep_row(name, config, report))
        assert [row["status"] for row in rows].count("ERROR") == 2
        reference_write_sweep_csv(tmp_path / "old_sweep.csv", rows)
        table = (tmp_path / "cli" / "sweep.csv").read_bytes()
        assert table == (tmp_path / "old_sweep.csv").read_bytes()
        assert b'"cell (3, 4) failed: ""overflow"", retried"\r\n' in table


class TestFormats:
    def test_number_is_repr_of_the_float64(self):
        assert artifacts.number(np.float64(0.1)) == "0.1"
        column = artifacts.numbers(np.array([[1e-300, np.nan], [-np.inf, 2.0]]))
        assert list(column) == ["1e-300", "nan", "-inf", "2.0"]

    def test_nan_to_none_matches_reference(self, tmp_path):
        # write_json writes a float array as its nested lists, NaN and inf
        # as null.
        arr = np.array([[0.5, np.nan], [np.inf, -1.0]])
        artifacts.write_json(tmp_path / "doc.json", {"a": arr})
        text = (tmp_path / "doc.json").read_text()
        assert text == json.dumps({"a": null_non_finite(arr.tolist())}, indent=2) + "\n"
        assert artifacts.read_json(tmp_path / "doc.json")["a"] == [[0.5, None],
                                                                   [None, -1.0]]

    def test_repeated_numbers_keep_each_bit_pattern(self):
        values = np.array([0.0, -0.0, np.nan, 0.1, -np.inf, 0.0, np.nan, -0.0,
                           5e-324, 0.1])
        values = np.concatenate([values, values[::-1]])
        assert (list(artifacts.repeated_numbers(values))
                == list(artifacts.numbers(values)))

    def test_json_pairs_match_json_dumps(self):
        rows = np.array([[0.1, 2.0], [np.nan, 1.0], [np.inf, -0.0],
                         [5e-324, 1e16], [-np.inf, np.nan]])
        expected = [json.dumps(null_non_finite(row)) for row in rows.tolist()]
        assert list(artifacts.json_pairs(rows)) == expected
        assert list(artifacts.json_pairs(rows[[0, 3]])) == expected[0:4:3]

    def test_read_json_reads_what_write_json_wrote(self, tmp_path):
        doc = {"b": [1.0, None], "a": {"x": 0.1}}
        artifacts.write_json(tmp_path / "doc.json", doc)
        assert artifacts.read_json(tmp_path / "doc.json") == doc
        assert (tmp_path / "doc.json").read_text().endswith("}\n")

    @pytest.mark.parametrize("sort_keys", [False, True])
    def test_json_key_order(self, tmp_path, sort_keys):
        artifacts.write_json(tmp_path / "doc.json", {"b": 1, "a": 2},
                             sort_keys=sort_keys)
        text = (tmp_path / "doc.json").read_text()
        assert (text.index('"a"') < text.index('"b"')) == sort_keys


# --- write_json against json.dumps(indent=2) ----------------------------------

SPECIAL_FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
                  1e16, 1e-5, 0.1)
json_scalars = (
    st.floats()
    | st.sampled_from(SPECIAL_FLOATS)
    | st.sampled_from(SPECIAL_FLOATS).map(np.float64)
    | st.floats(allow_nan=False).map(np.float64)
    | st.booleans()
    | st.integers()
    | st.none()
    | st.text()
    | st.sampled_from(['"quoted"', "back\\slash", "caf\u00e9 \u2013 \U0001d70e",
                       "tab\tnew\nline", ""])
)
json_docs = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24,
)
NESTED = {"z": [{"a": ({"b": [[], {}, ()]},), "": -0.0}], "y": float("nan")}


class TestWriteJson:
    @given(doc=json_docs)
    @example(doc=NESTED)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @pytest.mark.parametrize("sort_keys", [False, True])
    def test_matches_json_dumps(self, tmp_path, doc, sort_keys):
        path = tmp_path / "doc.json"
        artifacts.write_json(path, doc, sort_keys=sort_keys)
        expected = json.dumps(null_non_finite(doc), indent=2,
                              sort_keys=sort_keys) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_non_string_keys_match_json_dumps(self, tmp_path):
        doc = {1: "a", 2.5: [1], True: None, None: {}, float("inf"): 0, "k": 1}
        artifacts.write_json(tmp_path / "doc.json", doc)
        # A non-finite key is written as its value would be: "null".
        expected = json.dumps(doc, indent=2).replace('"Infinity"', '"null"')
        assert (tmp_path / "doc.json").read_text() == expected + "\n"

    @pytest.mark.parametrize("arr", [
        np.array([[0.5, np.nan], [np.inf, -np.inf]]),
        np.full((3, 4), np.nan),
        np.array([-0.0, 5e-324, 1e16, 1e-5]),
        np.zeros(0),
        np.zeros((3, 0)),
        np.zeros((0, 3)),
        np.random.default_rng(0).standard_normal((120, 120, 2)),
        np.array(np.nan),
        np.float32([0.1, np.nan]),
    ], ids=["mixed", "all-nan", "special", "empty", "empty-rows",
            "no-rows", "grid", "0-d", "float32"])
    def test_float_arrays_match_nan_to_none(self, tmp_path, arr):
        doc = {"a": [arr, {"b": arr}], "c": 1}
        old = null_non_finite(
            {"a": [reference_nan_to_none(np.asarray(arr, dtype=float)),
                   {"b": reference_nan_to_none(np.asarray(arr, dtype=float))}],
             "c": 1})
        artifacts.write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == json.dumps(old, indent=2) + "\n"

    @pytest.mark.parametrize("arr", [
        np.array([[True, False], [False, False]]),
        np.zeros((2, 0), dtype=bool),
        np.array([[1, -1, 0]], dtype=np.int8),
        np.arange(24, dtype=np.int64).reshape(2, 3, 4),
        np.array(7),
    ])
    def test_bool_and_int_arrays_match_tolist(self, tmp_path, arr):
        artifacts.write_json(tmp_path / "doc.json", {"a": arr}, sort_keys=True)
        expected = json.dumps({"a": arr.tolist()}, indent=2, sort_keys=True)
        assert (tmp_path / "doc.json").read_text() == expected + "\n"

    def test_other_objects_are_refused(self, tmp_path):
        with pytest.raises(TypeError):
            artifacts.write_json(tmp_path / "doc.json", {"a": np.array(["x"])})
        with pytest.raises(TypeError):
            artifacts.write_json(tmp_path / "doc.json", {"a": {1, 2}})


csv_values = (
    st.text()
    | st.sampled_from(["a,b", 'say "hi"', '"', ",", "cr\rhere", "lf\nhere",
                       "crlf\r\nhere", "\r", "\n", "", " lead", "tab\t"])
    | st.none()
    | st.integers()
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.floats()
    | st.floats().map(np.float64)
    | st.booleans()
)


class TestWriteCsv:
    @given(header=st.lists(csv_values, max_size=4),
           columns=st.lists(st.lists(csv_values, max_size=6), max_size=4))
    @example(header=[""], columns=[["", None, "x", ""]])
    @example(header=[None], columns=[[None]])
    @example(header=["a", "b"], columns=[["", None], [None, ""]])
    @example(header=[], columns=[])
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @pytest.mark.parametrize("lineterminator", ["\r\n", "\n"])
    def test_matches_csv_writer(self, tmp_path, header, columns, lineterminator):
        path = tmp_path / "table.csv"
        artifacts.write_csv(path, iter(header), [iter(c) for c in columns],
                            lineterminator=lineterminator)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(zip(*columns))
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
