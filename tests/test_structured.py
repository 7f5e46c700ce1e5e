"""Tests for the structured weight classes."""

import re

import numpy as np
import pytest

from neurodissip import linalg
from neurodissip.structured import (
    MAP_KINDS,
    MAPS,
    ComplexGershgorinWeight,
    FreeWeight,
    GershgorinWeight,
    PfWeight,
    SpectralWeight,
    draw_map,
    guarantee_report,
    householder_orthogonal,
)


# --- reference generators ---------------------------------------------------
# The seeded generators as they stood before the weight classes replaced
# them, copied with their helpers so the reference shares no code with the
# module under test.  draw_map(...).realize() must reproduce them bit for
# bit: every stored network and sweep artifact depends on these draws.

WIDTHS = (1, 2, 3, 8, 16)
SPECTRAL_SHAPES = [(4, 2), (2, 4)]
BOUNDS = [(0.0, 1.0), (0.5, 1.0), (-0.5, 0.5), (0.99, 1.01), (1.0, 1.0)]


def reference_logistic(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def reference_check_bounds(lambda_min, lambda_max, nonnegative):
    if not (np.isfinite(lambda_min) and np.isfinite(lambda_max)):
        raise ValueError("eigenvalue bounds must be finite")
    if lambda_min > lambda_max:
        raise ValueError(
            f"invalid bounds: lambda_min {lambda_min} > lambda_max {lambda_max}"
        )
    if nonnegative and lambda_min < 0.0:
        raise ValueError(
            f"invalid bounds: lambda_min {lambda_min} must be nonnegative"
        )


def reference_damping_interval(raw, lambda_min, lambda_max):
    return lambda_max - (lambda_max - lambda_min) * reference_logistic(raw)


def reference_householder_orthogonal(vectors):
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        raise ValueError("at least one reflector vector is required")
    dim = vecs[0].shape[0]
    q = np.eye(dim)
    for v in vecs:
        if v.shape != (dim,):
            raise ValueError("reflector vectors must share one dimension")
        norm = np.sqrt(v @ v)
        if norm == 0.0:
            raise ValueError("zero reflector vector")
        v = v / norm
        q = q @ (np.eye(dim) - 2.0 * np.outer(v, v))
    return q


def reference_pf_from_params(a_raw, m_raw, lambda_min, lambda_max):
    reference_check_bounds(lambda_min, lambda_max, nonnegative=True)
    a_raw = linalg.as_matrix(a_raw, "a_raw")
    m_raw = linalg.as_matrix(m_raw, "m_raw")
    if a_raw.shape != m_raw.shape:
        raise ValueError("a_raw and m_raw must have matching shapes")
    shifted = a_raw - a_raw.max(axis=1, keepdims=True)
    expa = np.exp(shifted)
    softmax = expa / expa.sum(axis=1, keepdims=True)
    damping = reference_damping_interval(m_raw, lambda_min, lambda_max)
    return softmax * damping


def reference_spectral_from_params(u_vectors, v_vectors, sigma_raw,
                                   lambda_min, lambda_max):
    reference_check_bounds(lambda_min, lambda_max, nonnegative=False)
    u = reference_householder_orthogonal(u_vectors)
    v = reference_householder_orthogonal(v_vectors)
    sigma_raw = linalg.as_vector(sigma_raw, "sigma_raw")
    k = sigma_raw.shape[0]
    if k > min(u.shape[0], v.shape[0]):
        raise ValueError("more singular values than matrix dimensions allow")
    sig = reference_damping_interval(sigma_raw, lambda_min, lambda_max)
    return u[:, :k] @ np.diag(sig) @ v[:k, :]


def reference_gershgorin_from_params(m_raw, lambda_min, lambda_max,
                                     complex_conjugate):
    reference_check_bounds(lambda_min, lambda_max, nonnegative=False)
    m = linalg.as_matrix(m_raw, "m_raw").copy()
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("m_raw must be square")
    lam = (lambda_min + lambda_max) / 2.0
    rad = (lambda_max - lambda_min) / 2.0
    np.fill_diagonal(m, 0.0)
    if complex_conjugate:
        m = (m - m.T) / 2.0
    s = np.sum(np.abs(m), axis=1, keepdims=True)
    s[s == 0.0] = 1.0
    return lam * np.eye(n) + rad * m / s


def reference_realize_pf(n, lambda_min, lambda_max, rng):
    if n < 1:
        raise ValueError("n must be at least 1")
    m_raw = rng.standard_normal((n, n))
    a_raw = rng.standard_normal((n, n))
    return reference_pf_from_params(a_raw, m_raw, lambda_min, lambda_max)


def reference_realize_spectral(rows, cols, lambda_min, lambda_max, rng):
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be at least 1")
    reference_check_bounds(lambda_min, lambda_max, nonnegative=False)
    u_vectors = [rng.standard_normal(rows) for _ in range(rows)]
    v_vectors = [rng.standard_normal(cols) for _ in range(cols)]
    sigma_raw = rng.standard_normal(min(rows, cols))
    return reference_spectral_from_params(u_vectors, v_vectors, sigma_raw,
                                          lambda_min, lambda_max)


def reference_realize_gershgorin(n, lambda_min, lambda_max,
                                 complex_conjugate, rng):
    if n < 1:
        raise ValueError("n must be at least 1")
    m_raw = rng.uniform(0.0, 1.0, (n, n))
    return reference_gershgorin_from_params(m_raw, lambda_min, lambda_max,
                                            complex_conjugate)


def reference_realize_unstructured(rows, cols, rng):
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be at least 1")
    return rng.standard_normal((rows, cols)) / np.sqrt(cols)


def reference_draw(kind, rows, cols, lambda_min, lambda_max, seed):
    rng = np.random.default_rng(seed)
    if kind == "unstructured":
        return reference_realize_unstructured(rows, cols, rng)
    if kind == "perron_frobenius":
        return reference_realize_pf(rows, lambda_min, lambda_max, rng)
    if kind == "spectral_svd":
        return reference_realize_spectral(rows, cols, lambda_min, lambda_max, rng)
    return reference_realize_gershgorin(rows, lambda_min, lambda_max,
                                        kind == "gershgorin_complex", rng)


class TestPerronFrobenius:
    def test_stochastic_when_bounds_are_one(self):
        w = draw_map("perron_frobenius", 5, 1.0, 1.0, seed=3).realize()
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert (w >= 0).all()
        eigs = np.linalg.eigvals(w)
        assert np.abs(eigs).max() == pytest.approx(1.0, abs=1e-8)

    def test_zero_upper_bound_gives_zero_matrix(self):
        w = draw_map("perron_frobenius", 4, 0.0, 0.0, seed=0).realize()
        np.testing.assert_array_equal(w, np.zeros((4, 4)))

    def test_bounds_hold_over_seeds(self):
        for seed in range(100):
            w = draw_map("perron_frobenius", 6, 0.0, 1.0, seed=seed).realize()
            assert (w >= 0).all()
            sums = w.sum(axis=1)
            assert (sums >= -1e-10).all() and (sums <= 1.0 + 1e-10).all()
            assert np.abs(np.linalg.eigvals(w)).max() <= 1.0 + 1e-10

    def test_rejects_negative_lower_bound(self):
        with pytest.raises(ValueError, match="nonnegative"):
            draw_map("perron_frobenius", 3, -0.5, 1.0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="invalid bounds"):
            draw_map("perron_frobenius", 3, 1.0, 0.5)


class TestSpectral:
    def test_equal_bounds_pin_all_singular_values(self):
        w = draw_map("spectral_svd", 4, 0.7, 0.7, seed=2).realize()
        s = np.linalg.svd(w, compute_uv=False)
        np.testing.assert_allclose(s, 0.7, atol=1e-10)
        assert linalg.spectral_norm(w) == pytest.approx(0.7, abs=1e-8)

    def test_singular_values_within_bounds(self):
        for seed in range(100):
            w = draw_map("spectral_svd", 5, 0.99, 1.10, seed=seed).realize()
            s = np.linalg.svd(w, compute_uv=False)
            assert (s >= 0.99 - 1e-8).all() and (s <= 1.10 + 1e-8).all()

    def test_non_square_shape(self):
        w = draw_map("spectral_svd", 4, 0.5, 0.9, seed=1, cols=2).realize()
        assert w.shape == (4, 2)
        s = np.linalg.svd(w, compute_uv=False)
        assert s.shape == (2,)
        assert (s >= 0.5 - 1e-8).all() and (s <= 0.9 + 1e-8).all()

    def test_negative_interval_sets_singular_magnitudes(self):
        # Bounds entirely below zero realize W = U diag(sigma) V with
        # negative sigma; the singular values are the magnitudes.
        w = draw_map("spectral_svd", 4, -1.5, -1.1, seed=0).realize()
        s = np.linalg.svd(w, compute_uv=False)
        assert (s >= 1.1 - 1e-8).all() and (s <= 1.5 + 1e-8).all()

    def test_householder_product_is_orthogonal(self):
        rng = np.random.default_rng(0)
        q = householder_orthogonal([rng.standard_normal(6) for _ in range(6)])
        np.testing.assert_allclose(q.T @ q, np.eye(6), atol=1e-8)
        np.testing.assert_allclose(q @ q.T, np.eye(6), atol=1e-8)

    def test_householder_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero reflector"):
            householder_orthogonal([np.zeros(3)])


class TestGershgorin:
    def test_zero_radius_is_scaled_identity(self):
        w = draw_map("gershgorin_real", 4, 0.5, 0.5, seed=0).realize()
        np.testing.assert_array_equal(w, 0.5 * np.eye(4))

    @pytest.mark.parametrize("complex_conjugate", [False, True])
    def test_eigenvalues_inside_disc(self, complex_conjugate):
        cls = ComplexGershgorinWeight if complex_conjugate else GershgorinWeight
        for seed in range(100):
            w = cls.draw(8, 8, 0.0, 1.0, np.random.default_rng(seed)).realize()
            eigs = np.linalg.eigvals(w)
            assert (np.abs(eigs - 0.5) <= 0.5 + 1e-10).all()

    def test_off_diagonal_rows_carry_the_radius(self):
        w = draw_map("gershgorin_real", 6, 0.0, 1.0, seed=7).realize()
        off = w - np.diag(np.diag(w))
        np.testing.assert_allclose(np.abs(off).sum(axis=1), 0.5, atol=1e-12)
        np.testing.assert_allclose(np.diag(w), 0.5, atol=1e-15)

    def test_two_by_two_real_structure(self):
        w = draw_map("gershgorin_real", 2, 0.0, 1.0, seed=11).realize()
        np.testing.assert_allclose(w, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_two_by_two_complex_structure(self):
        w = draw_map("gershgorin_complex", 2, 0.0, 1.0, seed=11).realize()
        assert w[0, 0] == w[1, 1] == 0.5
        assert w[0, 1] == -w[1, 0]
        assert abs(w[0, 1]) == pytest.approx(0.5, abs=1e-15)
        assert np.linalg.norm(w, 2) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_unstable_interval_spectral_radius_exceeds_one(self):
        w = draw_map("gershgorin_real", 2, 1.1, 1.5, seed=0).realize()
        assert np.abs(np.linalg.eigvals(w)).max() > 1.0

    def test_negative_interval(self):
        w = draw_map("gershgorin_complex", 3, -1.5, -1.1, seed=4).realize()
        eigs = np.linalg.eigvals(w)
        assert (np.abs(eigs + 1.3) <= 0.2 + 1e-10).all()

    def test_size_one_has_no_radius_term(self):
        w = draw_map("gershgorin_real", 1, 0.0, 1.0, seed=0).realize()
        np.testing.assert_array_equal(w, [[0.5]])


class TestDeterminism:
    @pytest.mark.parametrize("kind", [
        "unstructured", "perron_frobenius", "spectral_svd",
        "gershgorin_real", "gershgorin_complex",
    ])
    def test_same_seed_same_matrix(self, kind):
        a = draw_map(kind, 4, 0.0, 1.0, seed=9).realize()
        b = draw_map(kind, 4, 0.0, 1.0, seed=9).realize()
        c = draw_map(kind, 4, 0.0, 1.0, seed=10).realize()
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_draw_map_matches_seeded_generators(self):
        # Bit for bit against the generators the classes replaced, over
        # every kind, width, bound pair and seed; a bound pair a kind
        # rejects must be rejected with the same message.
        for kind in MAP_KINDS:
            for rows, cols in [(n, n) for n in WIDTHS] + SPECTRAL_SHAPES:
                if kind != "spectral_svd" and rows != cols:
                    continue
                for lo, hi in BOUNDS:
                    for seed in (0, 7):
                        try:
                            expected = reference_draw(kind, rows, cols, lo, hi, seed)
                        except ValueError as exc:
                            with pytest.raises(ValueError, match=re.escape(str(exc))):
                                draw_map(kind, rows, lo, hi, seed=seed, cols=cols)
                            continue
                        got = draw_map(kind, rows, lo, hi, seed=seed, cols=cols)
                        np.testing.assert_array_equal(got.realize(), expected)

    def test_rng_draw_order_is_stable(self):
        # Regression pin: the Gershgorin generator draws a full n x n
        # Uniform(0,1) block and zeroes the diagonal afterwards.
        rng = np.random.default_rng(5)
        m = rng.uniform(0.0, 1.0, (2, 2))
        np.fill_diagonal(m, 0.0)
        m = (m - m.T) / 2.0
        s = np.sum(np.abs(m), axis=1, keepdims=True)
        expected = 0.5 * np.eye(2) + 0.5 * m / s
        got = draw_map("gershgorin_complex", 2, 0.0, 1.0, seed=5).realize()
        np.testing.assert_array_equal(got, expected)


class TestRecord:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown map kind"):
            draw_map("magic", 2)

    def test_rejects_non_square_gershgorin(self):
        with pytest.raises(ValueError, match="square"):
            draw_map("gershgorin_real", 3, cols=2)
        with pytest.raises(ValueError, match="square"):
            draw_map("gershgorin_complex", 2, cols=3)

    def test_rejects_non_square_perron_frobenius(self):
        with pytest.raises(ValueError, match="perron_frobenius maps must be square"):
            draw_map("perron_frobenius", 3, cols=2)

    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_rejects_empty_shapes(self, kind):
        with pytest.raises(ValueError, match="at least 1"):
            draw_map(kind, 0)
        with pytest.raises(ValueError, match="at least 1"):
            draw_map(kind, 2, cols=-1)

    def test_draw_map_returns_the_class_of_its_kind(self):
        classes = {
            "unstructured": FreeWeight, "perron_frobenius": PfWeight,
            "spectral_svd": SpectralWeight, "gershgorin_real": GershgorinWeight,
            "gershgorin_complex": ComplexGershgorinWeight,
        }
        for kind in MAP_KINDS:
            weight = draw_map(kind, 3, 0.2, 0.9, seed=1)
            assert type(weight) is classes[kind]
            assert weight.kind == kind

    def test_maps_key_each_class_by_its_kind_in_the_old_order(self):
        assert MAP_KINDS == ("unstructured", "perron_frobenius", "spectral_svd",
                             "gershgorin_real", "gershgorin_complex")
        assert tuple(MAPS) == MAP_KINDS
        for kind, cls in MAPS.items():
            assert cls.kind == kind

    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_only_perron_frobenius_rejects_a_negative_lower_bound(self, kind):
        if kind == "perron_frobenius":
            with pytest.raises(ValueError, match="must be nonnegative"):
                MAPS[kind].check_bounds(-0.5, 0.5)
        else:
            MAPS[kind].check_bounds(-0.5, 0.5)
        for lo, hi, message in ((0.5, 0.2, "lambda_min 0.5 > lambda_max 0.2"),
                                (0.0, np.inf, "must be finite")):
            with pytest.raises(ValueError, match=message):
                MAPS[kind].check_bounds(lo, hi)

    def test_guarantee_reports_pass(self):
        for kind in ("perron_frobenius", "spectral_svd",
                     "gershgorin_real", "gershgorin_complex"):
            slm = draw_map(kind, 4, 0.0, 1.0, seed=13)
            report = guarantee_report(slm)
            assert report["passed"], (kind, report)
            assert len(report["singular_values"]) == 4
            assert len(report["eigenvalues"]) == 4

    def test_guarantee_report_catches_a_planted_violation(self):
        slm = draw_map("gershgorin_real", 3, 0.0, 1.0, seed=0)
        w = slm.realize()
        w[0, 0] += 2.0  # push an eigenvalue out of the disc
        report = guarantee_report(slm, w=w)
        assert not report["passed"]
        assert not report["checks"]["eigenvalues_in_disc"]

    def test_unstructured_passes_vacuously(self):
        report = guarantee_report(draw_map("unstructured", 3, seed=1))
        assert report["passed"] and report["checks"] == {}
