"""Tests for the pointwise certificates and grid sweeps."""

import csv
import json

import numpy as np
import pytest

from neurodissip import linalg
from neurodissip.dissipativity import (
    GridSpec,
    certify_region,
    dissipativity_penalty,
    equilibrium_bounds,
    layerwise_certificate,
    lhs_anchors,
    verdicts_at,
    write_grid_csv,
    write_grid_json,
)
from neurodissip.dynamics import basin_map, depth_spectra, rollout
from neurodissip.network import Layer, MlpNetwork
from neurodissip.pwa import extract_pwa
from neurodissip.structured import draw_map
from neurodissip.training import BlockSSM


def linear_net(a, b=None):
    return MlpNetwork(layers=(Layer(weight=np.asarray(a, dtype=float),
                                    bias=b if b is None else np.asarray(b, dtype=float)),))


def scaled_tanh_net(rng, dims, scale):
    layers = []
    for i in range(len(dims) - 1):
        w = rng.standard_normal((dims[i + 1], dims[i]))
        w *= scale / linalg.spectral_norm(w)
        layers.append(Layer(weight=w, activation="tanh"))
    return MlpNetwork(layers=tuple(layers))


class TestPointVerdict:
    """verdicts_at on a batch of one is the single-point API."""

    def test_contractive_linear(self):
        v = verdicts_at(linear_net(0.5 * np.eye(2)), [[3.0, 1.0]])
        assert v.a_norm[0] == pytest.approx(0.5, abs=1e-10)
        assert v.dissipative[0]
        assert v.b_norm[0] == 0.0
        np.testing.assert_allclose(v.eigenvalues[0], [0.5, 0.5], atol=1e-12)

    def test_expanding_linear(self):
        v = verdicts_at(linear_net(2.0 * np.eye(2)), [[1.0, 0.0]])
        assert v.a_norm[0] == pytest.approx(2.0, abs=1e-9)
        assert not v.dissipative[0]

    def test_contractive_affine_splits_on_bias(self):
        net = linear_net(0.5 * np.eye(2), b=[1.0, 0.0])
        # 0.5 < 1 - 1/0.5 fails at the first anchor, 0.5 < 1 - 1/10 holds
        # at the second.
        v = verdicts_at(net, [[0.5, 0.0], [10.0, 0.0]])
        assert v.contractive.tolist() == [0, 1]

    def test_contractive_affine_undefined_at_origin(self):
        v = verdicts_at(linear_net(0.5 * np.eye(2)), [[0.0, 0.0]])
        assert v.contractive[0] == -1

    def test_rejects_non_square(self):
        net = MlpNetwork(layers=(Layer(weight=np.ones((1, 2))),))
        with pytest.raises(ValueError, match="square"):
            verdicts_at(net, [[1.0, 1.0]])

    def test_one_step_dissipation_inequality(self):
        rng = np.random.default_rng(0)
        net = scaled_tanh_net(rng, [2, 4, 2], 0.8)
        xs = rng.uniform(-6.0, 6.0, (50, 2))
        v = verdicts_at(net, xs)
        assert v.dissipative.all()
        for x, b_norm in zip(xs, v.b_norm):
            gain = np.linalg.norm(net.forward(x)) - np.linalg.norm(x)
            assert gain <= b_norm + 1e-9

    def test_one_step_contraction_where_flagged(self):
        rng = np.random.default_rng(1)
        net = MlpNetwork(layers=(
            Layer(weight=0.4 * np.eye(2), bias=np.array([0.1, -0.05]),
                  activation="tanh"),
        ))
        xs = rng.uniform(-5.0, 5.0, (100, 2))
        flagged = xs[verdicts_at(net, xs).contractive == 1]
        assert len(flagged) > 0
        for x in flagged:
            assert np.linalg.norm(net.forward(x)) < np.linalg.norm(x)


class TestGrid:
    def test_grid_spec_centers(self):
        spec = GridSpec(x_range=(0.0, 4.0), y_range=(0.0, 4.0), resolution=4)
        np.testing.assert_allclose(spec.axis_centers(0), [0.5, 1.5, 2.5, 3.5])
        assert spec.cell_centers().shape == (16, 2)

    def test_contractive_linear_fully_dissipative(self):
        res = certify_region(linear_net(0.5 * np.eye(2)), GridSpec(resolution=10))
        assert res.summary()["fraction_dissipative"] == 1.0
        assert res.summary()["errors"] == 0

    def test_cells_match_point_verdicts(self):
        rng = np.random.default_rng(2)
        net = scaled_tanh_net(rng, [2, 3, 2], 0.9)
        res = certify_region(net, GridSpec(resolution=5))
        for i in (0, 2, 4):
            for j in (1, 3):
                anchor = res.anchors[i, j]
                np.testing.assert_array_equal(
                    anchor, [res.spec.axis_centers(0)[i], res.spec.axis_centers(1)[j]])
                ref = verdicts_at(net, [anchor])
                assert res.a_norm[i, j] == pytest.approx(ref.a_norm[0], rel=1e-9)
                assert res.dissipative[i, j] == ref.dissipative[0]
                np.testing.assert_allclose(res.eigenvalues[i, j], ref.eigenvalues[0],
                                           atol=1e-9)

    def test_fields_are_shaped_to_the_grid(self):
        res = certify_region(linear_net(0.3 * np.eye(2)), GridSpec(resolution=3))
        for name in ("a_norm", "b_norm", "dissipative", "contractive", "error"):
            assert getattr(res, name).shape == (3, 3)
        assert res.anchors.shape == (3, 3, 2)
        assert res.a.shape == (3, 3, 2, 2)
        assert res.eigenvalues.shape == (3, 3, 2)

    def test_eigenvalues_computed_on_first_read(self, monkeypatch):
        net = linear_net(np.diag([0.5, -0.25]))
        calls = []
        real = linalg._eigenvalues_batch
        monkeypatch.setattr(linalg, "_eigenvalues_batch",
                            lambda a: calls.append(len(a)) or real(a))
        v = verdicts_at(net, [[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
        res = certify_region(net, GridSpec(resolution=4))
        assert calls == []
        np.testing.assert_array_equal(v.eigenvalues, [[0.5, -0.25]] * 3)
        assert v.eigenvalues is v.eigenvalues
        assert res.eigenvalues.shape == (4, 4, 2)
        assert calls == [3, 16]

    def test_shared_anchor_refinement_is_bit_identical(self):
        rng = np.random.default_rng(3)
        net = scaled_tanh_net(rng, [2, 4, 2], 0.9)
        coarse = certify_region(net, GridSpec(resolution=20))
        fine = certify_region(net, GridSpec(resolution=60))
        # Center i of the coarse grid equals center 3i+1 of the fine grid.
        cx = coarse.spec.axis_centers(0)
        fx = fine.spec.axis_centers(0)
        np.testing.assert_array_equal(cx, fx[1::3])
        for i in (0, 7, 19):
            for j in (3, 12):
                assert coarse.a_norm[i, j] == fine.a_norm[3 * i + 1, 3 * j + 1]

    def test_certified_tanh_net_dissipative_at_2500_anchors(self):
        w = draw_map("gershgorin_complex", 2, 0.0, 1.0, seed=5).realize()
        net = MlpNetwork(layers=tuple(
            Layer(weight=w.copy(), activation="tanh") for _ in range(4)
        ))
        assert layerwise_certificate(net).certified
        res = certify_region(net, GridSpec(resolution=50))
        assert res.summary()["dissipative"] == 2500

    def test_error_cells_do_not_abort(self):
        net = MlpNetwork(layers=(
            Layer(weight=1e200 * np.eye(2), activation="identity"),
            Layer(weight=1e200 * np.eye(2), activation="identity"),
        ))
        res = certify_region(net, GridSpec(resolution=3))
        assert res.error.all()
        assert not res.dissipative.any()
        assert (res.contractive == 0).all()
        assert np.isnan(res.a_norm).all() and np.isnan(res.eigenvalues).all()
        assert verdicts_at(net, [[1.0, 1.0]]).error[0]

    def test_all_error_summary_reports_null_norms(self, tmp_path):
        net = MlpNetwork(layers=(
            Layer(weight=1e200 * np.eye(2), activation="identity"),
            Layer(weight=1e200 * np.eye(2), activation="identity"),
        ))
        res = certify_region(net, GridSpec(resolution=3))
        summary = res.summary()
        assert summary["errors"] == summary["cells"] == 9
        assert summary["max_a_norm"] is None and summary["min_a_norm"] is None
        assert res.worst_cell() is None
        write_grid_json(res, tmp_path / "grid.json")

        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        doc = json.loads((tmp_path / "grid.json").read_text(), parse_constant=reject)
        assert doc["summary"]["max_a_norm"] is None

    def test_grid_rejects_higher_dimensions(self):
        net = linear_net(0.5 * np.eye(3))
        with pytest.raises(ValueError, match="2-D"):
            certify_region(net, GridSpec(resolution=4))

    def test_verdicts_at_for_higher_dims(self):
        net = linear_net(0.5 * np.eye(4))
        anchors = lhs_anchors(4, 50, (-6.0, 6.0), seed=0)
        verdicts = verdicts_at(net, anchors)
        assert verdicts.dissipative.shape == (50,)
        assert verdicts.dissipative.all()
        assert verdicts.eigenvalues.shape == (50, 4)

    def test_lhs_anchors_stratified(self):
        anchors = lhs_anchors(3, 100, (0.0, 1.0), seed=1)
        assert anchors.shape == (100, 3)
        # Each axis has exactly one sample per stratum of width 1/100.
        for d in range(3):
            strata = np.floor(anchors[:, d] * 100).astype(int)
            assert len(set(strata.tolist())) == 100


# Each entry point of a state-map analysis, called on net.
ENTRY_POINTS = {
    "verdicts_at": lambda net: verdicts_at(net, [[1.0, 1.0]]),
    "certify_region": lambda net: certify_region(net, GridSpec(resolution=4)),
    "dissipativity_penalty": lambda net: dissipativity_penalty(net, [[1.0, 1.0]]),
    "rollout": lambda net: rollout(net, [1.0, 1.0]),
    "basin_map": lambda net: basin_map(net, GridSpec(resolution=4)),
    "depth_spectra": lambda net: depth_spectra(net.layers[0], [1], np.ones((3, 2))),
    "BlockSSM": lambda net: BlockSSM(
        f_net=net, g_net=linear_net(np.ones((net.output_dim, 1)))),
}
SQUARE = "state-transition analysis needs a square map, got 2 -> 3"


class TestShapeRule:
    @pytest.mark.parametrize("entry, shape, message", [
        *(pytest.param(name, (3, 2), SQUARE, id=f"{name}-2to3")
          for name in ENTRY_POINTS),
        pytest.param("certify_region", (3, 3), "grid sweeps are defined for "
                     "2-D state spaces, got dimension 3", id="certify_region-3d"),
        pytest.param("basin_map", (3, 3), "basin maps are defined for 2-D "
                     "state spaces, got dimension 3", id="basin_map-3d"),
    ])
    def test_one_function_states_the_rule(self, entry, shape, message):
        net = linear_net(0.5 * np.eye(*shape))
        with pytest.raises(ValueError) as info:
            ENTRY_POINTS[entry](net)
        assert str(info.value) == message
        assert info.traceback[-1].name == "require_square"


class TestLayerwiseCertificate:
    def test_scaled_tanh_certifies(self):
        rng = np.random.default_rng(4)
        net = scaled_tanh_net(rng, [2, 4, 4, 2], 0.9)
        cert = layerwise_certificate(net)
        assert cert.certified and cert.certified_relaxed
        assert cert.lambda_bound == 1.0 and cert.lambda_bound_analytic
        assert all(w == pytest.approx(0.9, abs=1e-8) for w in cert.w_norms)

    def test_one_large_weight_fails(self):
        rng = np.random.default_rng(5)
        net = scaled_tanh_net(rng, [2, 4, 2], 0.9)
        big = Layer(weight=1.5 * np.eye(2), activation="tanh")
        net2 = MlpNetwork(layers=net.layers + (big,))
        cert = layerwise_certificate(net2)
        assert not cert.certified and not cert.certified_relaxed

    def test_relaxed_allows_unit_norms(self):
        rotation = np.array([[0.6, -0.8], [0.8, 0.6]])  # exact unit norm
        net = MlpNetwork(layers=(
            Layer(weight=rotation, activation="tanh"),
            Layer(weight=0.9 * np.eye(2), activation="tanh"),
        ))
        cert = layerwise_certificate(net)
        assert not cert.certified
        assert cert.certified_relaxed

    def test_unstable_class_never_certifies(self):
        net = MlpNetwork(layers=(Layer(weight=0.5 * np.eye(2), activation="selu"),))
        cert = layerwise_certificate(net)
        assert not cert.certified
        assert not cert.lambda_bound_analytic
        assert cert.lambda_bound is None  # no gain bound was computed

    def test_certificate_implies_clean_sweep(self):
        rng = np.random.default_rng(6)
        net = scaled_tanh_net(rng, [2, 5, 2], 0.95)
        assert layerwise_certificate(net).certified
        res = certify_region(net, GridSpec(resolution=30))
        assert res.summary()["non_dissipative"] == 0
        assert res.summary()["errors"] == 0


class TestRoundingMargin:
    """A computed sigma_1 one ulp below 1 is no proof of dissipativity."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("top, holds", [(1.0 - EPS, False), (1.0 - 1e-6, True)])
    def test_strict_verdicts_need_the_margin(self, n, top, holds):
        d = np.diag([top] + [0.5] * (n - 1))
        v = verdicts_at(linear_net(d), [np.ones(n)])
        assert v.a_norm[0] < 1.0  # the reported norm stays the computed one
        assert v.dissipative[0] == holds
        assert v.contractive[0] == holds
        cert = layerwise_certificate(
            MlpNetwork(layers=(Layer(weight=d, activation="relu"),)))
        assert cert.certified is holds
        assert cert.certified_relaxed

    def test_eigenvalue_failures_keep_the_norm_verdict(self, monkeypatch):
        # An anchor is an error only when A(x) or a norm is non-finite; an
        # eigenvalue failure leaves its verdict standing and reads nan.
        def failing_eigvals(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        rng = np.random.default_rng(8)
        net = scaled_tanh_net(rng, [3, 4, 3], 0.9)
        anchors = rng.standard_normal((5, 3))
        want = verdicts_at(net, anchors)
        monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
        got = verdicts_at(net, anchors)
        assert not got.error.any() and got.dissipative.all()
        np.testing.assert_array_equal(got.a_norm, want.a_norm)
        np.testing.assert_array_equal(got.contractive, want.contractive)
        assert np.isnan(got.eigenvalues).all()


class TestEquilibriumBounds:
    def test_symmetric_case_bounds_coincide(self):
        form = extract_pwa(linear_net(0.5 * np.eye(2), b=[1.0, 0.0]), [0.0, 0.0])
        eq = equilibrium_bounds(form)
        assert eq.lower == pytest.approx(2.0, abs=1e-9)
        assert eq.upper == pytest.approx(2.0, abs=1e-9)
        # And the true equilibrium sits inside: x = (2, 0).
        assert eq.lower - 1e-9 <= 2.0 <= eq.upper + 1e-9

    def test_zero_bias_gives_origin(self):
        form = extract_pwa(linear_net(0.3 * np.eye(2)), [1.0, 1.0])
        eq = equilibrium_bounds(form)
        assert eq.lower == 0.0 and eq.upper == 0.0

    def test_expanding_map_upper_is_infinite(self):
        form = extract_pwa(linear_net(2.0 * np.eye(2), b=[1.0, 0.0]), [0.0, 0.0])
        eq = equilibrium_bounds(form)
        assert np.isinf(eq.upper)
        assert eq.lower > 0.0

    @pytest.mark.parametrize("top, finite", [(1.0 - np.finfo(float).eps, False),
                                             (1.0 - 1e-6, True)])
    def test_upper_bound_needs_the_margin(self, top, finite):
        form = extract_pwa(linear_net(np.diag([top, 0.5]), b=[1.0, 0.0]), [0.0, 0.0])
        eq = equilibrium_bounds(form)
        assert bool(np.isfinite(eq.upper)) is finite
        assert eq.lower <= 1.0 / (1.0 - top) <= eq.upper

    def test_identity_map_degenerate(self):
        form = extract_pwa(linear_net(np.eye(2), b=[1.0, 0.0]), [0.0, 0.0])
        with pytest.raises(ValueError, match="identity"):
            equilibrium_bounds(form)

    def test_random_contractive_systems_respect_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 5))
            a = rng.standard_normal((n, n))
            a *= rng.uniform(0.05, 0.95) / linalg.spectral_norm(a)
            b = rng.standard_normal(n)
            net = linear_net(a, b=b)
            form = extract_pwa(net, np.zeros(n))
            eq = equilibrium_bounds(form)
            x_bar = np.linalg.solve(np.eye(n) - a, b)
            norm = np.linalg.norm(x_bar)
            assert eq.lower - 1e-9 <= norm <= eq.upper + 1e-9


class TestPenalty:
    def test_clamps_at_one(self):
        net = linear_net(0.5 * np.eye(2))
        assert dissipativity_penalty(net, [[1.0, 0.0], [0.0, 2.0]])[0] == 1.0

    def test_expanding_linear(self):
        net = linear_net(2.0 * np.eye(2))
        assert dissipativity_penalty(net, [[1.0, 1.0]])[0] == pytest.approx(2.0, abs=1e-9)

    def test_mean_matches_per_point_recomputation(self):
        rng = np.random.default_rng(8)
        net = MlpNetwork(layers=(
            Layer(weight=rng.standard_normal((2, 2)), activation="selu"),
            Layer(weight=rng.standard_normal((2, 2)), activation="selu"),
        ))
        anchors = rng.uniform(-4.0, 4.0, (30, 2))
        want = np.mean([
            max(1.0, verdicts_at(net, [x]).a_norm[0]) for x in anchors
        ])
        got, _ = dissipativity_penalty(net, anchors)
        assert got == pytest.approx(want, rel=1e-9)


class TestExports:
    @pytest.fixture()
    def analysis(self):
        rng = np.random.default_rng(9)
        net = scaled_tanh_net(rng, [2, 3, 2], 0.9)
        return certify_region(net, GridSpec(resolution=4))

    def test_csv_columns_and_rows(self, analysis, tmp_path):
        path = tmp_path / "grid.csv"
        write_grid_csv(analysis, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert list(rows[0].keys()) == [
            "x1", "x2", "a_norm", "b_norm", "dissipative", "contractive_affine",
            "max_eig_re", "max_eig_im", "eig_moduli", "error",
        ]
        moduli = json.loads(rows[0]["eig_moduli"])
        assert len(moduli) == 2
        assert rows[0]["dissipative"] in ("true", "false")
        assert float(rows[0]["a_norm"]) == pytest.approx(analysis.a_norm[0, 0])

    def test_json_export_roundtrips_summary(self, analysis, tmp_path):
        path = tmp_path / "grid.json"
        write_grid_json(analysis, path)
        doc = json.loads(path.read_text())
        assert doc["resolution"] == 4
        assert doc["summary"]["cells"] == 16
        assert len(doc["a_norm"]) == 4
        assert doc["errors"] == []

    def test_error_cells_serialize(self, tmp_path):
        net = MlpNetwork(layers=(
            Layer(weight=1e200 * np.eye(2), activation="identity"),
            Layer(weight=1e200 * np.eye(2), activation="identity"),
        ))
        res = certify_region(net, GridSpec(resolution=2))
        csv_path = tmp_path / "g.csv"
        json_path = tmp_path / "g.json"
        write_grid_csv(res, csv_path)
        write_grid_json(res, json_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["error"] for r in rows)
        doc = json.loads(json_path.read_text())
        assert len(doc["errors"]) == 4
        assert doc["a_norm"][0][0] is None
