"""Tests for the dense matrix kernels.

Above 2x2 the kernels call LAPACK through np.linalg, so what this package
owns is the 2x2 closed forms, the masking of non-finite or failed stack
items, the eigenvalue ordering and the choice of the top singular value.
Those are checked against matrices whose spectra are known by
construction, with np.linalg as the oracle for random matrices.
"""

import numpy as np
import pytest

from neurodissip import linalg
from neurodissip.dissipativity import point_verdict
from neurodissip.linalg import eigenvalues, spectral_norm, svd
from neurodissip.network import Layer, MlpNetwork


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert spectral_norm(np.diag([0.5, -2.0])) == pytest.approx(2.0, abs=1e-9)

    def test_rank_one(self):
        u = np.array([3.0, 4.0])
        v = np.array([1.0, 0.0, 0.0])
        assert spectral_norm(np.outer(u, v)) == pytest.approx(5.0, abs=1e-8)

    def test_start_orthogonal_to_dominant_direction(self):
        # Dominant singular direction (1, -1)/sqrt(2) is orthogonal to the
        # all-ones vector, which an iterative method might start from.
        q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        a = q @ np.diag([1.0, 2.0]) @ q.T
        assert spectral_norm(a) == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (6, 3), (8, 8)])
    def test_matches_numpy_oracle(self, shape):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal(shape)
            want = np.linalg.norm(a, 2)
            assert spectral_norm(a) == pytest.approx(want, rel=1e-8)

    def test_submultiplicative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            assert spectral_norm(a + b) <= spectral_norm(a) + spectral_norm(b) + 1e-9

    def test_equal_singular_values_no_gap(self):
        # A scaled rotation has both singular values equal; the closed
        # form must still answer exactly.
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        assert spectral_norm(0.995 * rot) == pytest.approx(0.995, rel=1e-12)

    def test_near_degenerate_pair_matches_numpy(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            q1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            q2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            a = q1 @ np.diag(rng.uniform(0.99, 1.0, 2)) @ q2
            assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2),
                                                     rel=1e-12)

    def test_degenerate_larger_matrix_falls_back(self):
        # 4x4 scaled orthogonal: all singular values equal, so no gap
        # separates the top one; the answer must still be exact.
        rng = np.random.default_rng(19)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert spectral_norm(0.9 * q) == pytest.approx(0.9, rel=1e-10)

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((40, 3, 3))
        got = linalg._spectral_norm_batch(stack)
        want = np.array([spectral_norm(m) for m in stack])
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_batched_2x2_matches_numpy_incl_degenerate(self):
        rng = np.random.default_rng(13)
        stack = rng.standard_normal((30, 2, 2))
        theta = 1.1
        stack[0] = 0.97 * np.array([[np.cos(theta), -np.sin(theta)],
                                    [np.sin(theta), np.cos(theta)]])
        got = linalg._spectral_norm_batch(stack)
        want = np.array([np.linalg.norm(m, 2) for m in stack])
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_batched_marks_non_finite_items(self):
        stack = np.stack([np.eye(2), np.full((2, 2), np.inf)])
        got = linalg._spectral_norm_batch(stack)
        assert got[0] == pytest.approx(1.0)
        assert np.isnan(got[1])


    def test_batched_lapack_failure_is_per_item(self, monkeypatch):
        # A LAPACK failure on one item of a stack leaves that item nan and
        # the rest exact, instead of aborting the whole stack.
        real_svd = np.linalg.svd

        def failing_svd(a, *args, **kwargs):
            if np.any(a[..., 0, 0] == 7.0):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        stack = np.stack([np.diag([0.5, 0.25, 0.1]), np.diag([7.0, 1.0, 1.0]),
                          np.diag([0.1, -2.0, 0.3])])
        got = linalg._spectral_norm_batch(stack)
        assert got[0] == pytest.approx(0.5, rel=1e-15)
        assert np.isnan(got[1])
        assert got[2] == pytest.approx(2.0, rel=1e-15)


class TestNearUnit:
    """sigma_1 = 1 + 1e-7 must never read below 1, nor pass as dissipative."""

    @pytest.mark.parametrize("n", range(3, 33))
    def test_near_unit_family_is_not_dissipative(self, n):
        rng = np.random.default_rng(1000 + n)
        stack = []
        for _ in range(60):
            u, _ = np.linalg.qr(rng.standard_normal((n, n)))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)))
            # The rest lie within 1e-4 below 1: a small gap that stalls
            # an iterative estimate short of sigma_1.
            s = 1.0 - 10.0 ** rng.uniform(-7.0, -4.0, n)
            s[0] = 1.0 + 1e-7
            stack.append(u @ np.diag(s) @ v.T)
        stack = np.array(stack)
        assert np.all(linalg._spectral_norm_batch(stack) >= 1.0)
        for a in stack:
            assert spectral_norm(a) >= 1.0
            net = MlpNetwork(layers=(Layer(weight=a),))
            assert not point_verdict(net, np.ones(n)).dissipative


class TestEigenvalues:
    def test_diagonal(self):
        vals = eigenvalues(np.diag([3.0, -1.0]))
        np.testing.assert_allclose(vals, [3.0 + 0.0j, -1.0 + 0.0j])

    def test_rotation_is_conjugate_pair(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        vals = eigenvalues(rot)
        np.testing.assert_allclose(sorted(vals.imag), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(vals.real, [0.0, 0.0], atol=1e-12)

    def test_one_by_one(self):
        np.testing.assert_allclose(eigenvalues([[4.5]]), [4.5 + 0.0j])

    def test_ordering_is_deterministic(self):
        vals = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        # Descending modulus, ties by ascending argument.
        assert vals[0] == pytest.approx(-1.0j)
        assert vals[1] == pytest.approx(1.0j)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
    def test_matches_numpy_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            a = rng.standard_normal((n, n))
            got = np.sort_complex(eigenvalues(a))
            want = np.sort_complex(np.linalg.eigvals(a))
            np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-7)

    def test_characteristic_residual(self):
        # Independent check without np.linalg.eigvals: each eigenvalue must
        # (nearly) zero the characteristic determinant.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        for lam in eigenvalues(a):
            d = np.linalg.det(a.astype(complex) - lam * np.eye(5))
            assert abs(d) < 1e-6

    def test_real_matrix_spectrum_closed_under_conjugation(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6))
        vals = eigenvalues(a)
        conj = np.sort_complex(vals.conj())
        np.testing.assert_allclose(np.sort_complex(vals), conj, atol=1e-7)

    def test_modulus_bounded_by_spectral_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            assert np.max(np.abs(eigenvalues(a))) <= spectral_norm(a) + 1e-8

    def test_defective_matrix(self):
        # Jordan block: eigenvalue 2 with multiplicity 3.
        j = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
        vals = eigenvalues(j)
        # A defective eigenvalue is only resolved to ~eps^(1/3).
        np.testing.assert_allclose(vals, [2.0] * 3, atol=1e-4)

    def test_repeated_and_complex_mixed(self):
        rng = np.random.default_rng(9)
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        d = np.zeros((5, 5))
        d[0, 0] = d[1, 1] = 1.5
        d[2:4, 2:4] = [[0.3, -0.9], [0.9, 0.3]]
        d[4, 4] = -0.2
        a = q @ d @ q.T
        got = np.sort_complex(eigenvalues(a))
        want = np.sort_complex(np.linalg.eigvals(d))
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eigenvalues(np.ones((2, 3)))

    def test_batched_2x2_matches_scalar(self):
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((50, 2, 2))
        got = linalg._eig2_batch(stack)
        for row, m in zip(got, stack):
            np.testing.assert_allclose(row, eigenvalues(m), atol=1e-10)


    def test_batched_wider_sorted_from_known_spectra(self):
        # Similar to diagonal and rotation blocks, so the spectra are known.
        rng = np.random.default_rng(21)
        d = np.zeros((4, 4))
        d[0, 0], d[1, 1] = 0.5, -3.0
        d[2:, 2:] = [[0.0, -2.0], [2.0, 0.0]]
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        stack = np.stack([d, q @ d @ q.T])
        want = [-3.0, -2.0j, 2.0j, 0.5]
        for row in linalg._eigenvalues_batch(stack):
            np.testing.assert_allclose(row, want, atol=1e-12)

    def test_batched_failure_and_non_finite_are_per_item(self, monkeypatch):
        real_eigvals = np.linalg.eigvals

        def failing_eigvals(a):
            if np.any(a[..., 0, 0] == 7.0):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
        stack = np.stack([np.diag([0.5, 2.0, 1.0]), np.diag([7.0, 1.0, 1.0]),
                          np.full((3, 3), np.nan)])
        got = linalg._eigenvalues_batch(stack)
        np.testing.assert_array_equal(got[0], [2.0, 1.0, 0.5])
        assert np.isnan(got[1:]).all()


class TestSvdBounded:
    def test_diagonal(self):
        u, s, v = svd(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(s, [2.0, 1.0], atol=1e-12)

    def test_rank_one(self):
        a = np.outer([3.0, 4.0], [0.0, 1.0])
        u, s, v = svd(a)
        np.testing.assert_allclose(s, [5.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, a, atol=1e-10)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (5, 5), (4, 7)])
    def test_reconstruction(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(10):
            a = rng.standard_normal(shape)
            u, s, v = svd(a)
            norm_a = np.linalg.norm(a, 2)
            err = np.linalg.norm(u @ np.diag(s) @ v.T - a, 2)
            assert err <= 1e-8 * max(norm_a, 1e-300)

    def test_factors_orthonormal(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 3))
        u, s, v = svd(a)
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-10)

    def test_singular_values_sorted_and_match_oracle(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((6, 4))
        _, s, _ = svd(a)
        assert np.all(np.diff(s) <= 1e-12)
        np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False), atol=1e-9)

    def test_zero_matrix(self):
        u, s, v = svd(np.zeros((3, 2)))
        np.testing.assert_array_equal(s, [0.0, 0.0])
        np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)
