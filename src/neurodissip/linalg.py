"""Dense real-matrix kernels used throughout the package.

2x2 matrices, which every verdict grid and 2-D preset produces, get exact
closed forms for the top singular value and the eigenvalues.  Larger
matrices go to LAPACK through stacked np.linalg calls.  Single-point
functions are batches of one of the stacked ones.

A computed sigma_1 can sit a few ulps below the true one, so verdicts
that compare it with 1 use sigma_upper, a bound inflated by an explicit
rounding margin; reported norms stay the computed values.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "spectral_norm",
    "sigma_upper",
    "eigenvalues",
    "svd",
]


def as_matrix(a, name="a") -> np.ndarray:
    """Validate and convert to a 2-D float64 array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(v, name="v") -> np.ndarray:
    """Validate and convert to a 1-D float64 array with finite entries."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def sigma_upper(sigma, shape):
    """Upper bound on the true sigma_1 of matrices of `shape` (trailing axes).

    Inflates the computed sigma_1 to sigma * (1 + 8 n eps), n the larger
    matrix dimension.
    """
    # LAPACK's SVD is backward stable: the computed sigma_1 is off by O(n eps sigma_1).
    n = max(shape[-2:])
    return sigma * (1.0 + 8.0 * n * np.finfo(float).eps)


def _finite_items(a: np.ndarray):
    """(usable, a_safe): a mask of all-finite stack items, and a with the rest zeroed."""
    if a.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got ndim={a.ndim}")
    usable = np.all(np.isfinite(a.reshape(a.shape[0], -1)), axis=1)
    return usable, np.where(usable[:, None, None], a, 0.0)


def _lapack(fn, stack: np.ndarray, fill) -> np.ndarray:
    """fn on a whole stack; if LAPACK fails on it, item by item, `fill` where it still fails."""
    try:
        return fn(stack)
    except np.linalg.LinAlgError:
        rows = []
        for m in stack:
            try:
                rows.append(fn(m[None])[0])
            except np.linalg.LinAlgError:
                rows.append(fill)
        return np.array(rows)


def _sigma_max_2x2(a: np.ndarray) -> np.ndarray:
    """Exact top singular value of 2x2 matrices (trailing axes).

    Splitting the matrix into its rotation-like and reflection-like parts
    gives sigma_max = (|z_plus| + |z_minus|) / 2 with z_plus/z_minus built
    from sums and differences of the entries; exact for any gap.
    """
    plus = np.hypot(a[..., 0, 0] + a[..., 1, 1], a[..., 0, 1] - a[..., 1, 0])
    minus = np.hypot(a[..., 0, 0] - a[..., 1, 1], a[..., 0, 1] + a[..., 1, 0])
    return 0.5 * (plus + minus)


def _spectral_norm_batch(a: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of matrices (N, r, c).

    2x2 stacks use the closed form, larger ones one stacked LAPACK SVD.
    Items with non-finite entries, or on which LAPACK fails, come back as
    nan; callers turn those into per-item error markers instead of
    aborting the whole sweep.
    """
    usable, a_safe = _finite_items(a)
    if a.shape[1:] == (2, 2):
        top = _sigma_max_2x2(a_safe)
    else:
        top = _lapack(lambda m: np.linalg.svd(m, compute_uv=False)[:, 0],
                      a_safe, np.nan)
    return np.where(usable, top, np.nan)


def spectral_norm(a) -> float:
    """Largest singular value of one matrix (a batch of one)."""
    return float(_spectral_norm_batch(as_matrix(a, "a")[None])[0])


def _eig2_closed(a: np.ndarray):
    """Unsorted closed-form eigenvalues of a (N, 2, 2) stack, and the discriminants."""
    tr = a[:, 0, 0] + a[:, 1, 1]
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    disc = tr * tr - 4.0 * det
    sq = np.sqrt(disc.astype(complex))
    out = np.empty((a.shape[0], 2), dtype=complex)
    out[:, 0] = (tr + sq) / 2.0
    out[:, 1] = (tr - sq) / 2.0
    return out, disc


def _eig2_batch(a: np.ndarray) -> np.ndarray:
    """Closed-form eigenvalues for a stack (N, 2, 2) -> (N, 2) complex.

    Squaring the trace overflows once entries reach about 1e154, so items
    whose discriminant is non-finite are recomputed on the same closed
    form after an exact power-of-two scaling of their entries below one.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out, disc = _eig2_closed(a)
        redo = ~np.isfinite(disc)
        if redo.any():
            _, e = np.frexp(np.abs(a[redo]).max(axis=(1, 2)))
            scaled, _ = _eig2_closed(np.ldexp(a[redo], -e[:, None, None]))
            out.real[redo] = np.ldexp(scaled.real, e[:, None])
            out.imag[redo] = np.ldexp(scaled.imag, e[:, None])
    return _sort_eigs_batch(out)


def _sort_eigs_batch(vals: np.ndarray) -> np.ndarray:
    """Deterministic order per row: descending modulus, ties by ascending argument."""
    order = np.lexsort((np.angle(vals), -np.abs(vals)), axis=1)
    return np.take_along_axis(vals, order, axis=1)


def _eigenvalues_batch(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of square matrices (N, n, n) -> (N, n) complex.

    2x2 stacks use the closed form, larger ones one stacked LAPACK call.
    Rows are sorted as in _sort_eigs_batch; items with non-finite entries,
    or on which LAPACK fails, are all nan.
    """
    usable, a_safe = _finite_items(a)
    if a.shape[1] != a.shape[2]:
        raise ValueError(f"eigenvalues require square matrices, got {a.shape[1:]}")
    if a.shape[1:] == (2, 2):
        vals = _eig2_batch(a_safe)
    else:
        fill = np.full(a.shape[1], np.nan, dtype=complex)
        vals = _sort_eigs_batch(_lapack(np.linalg.eigvals, a_safe, fill).astype(complex))
    vals[~usable] = np.nan
    return vals


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of one square matrix, as complex128 (a batch of one)."""
    return _eigenvalues_batch(as_matrix(a, "a")[None])[0]


def svd(a):
    """Thin SVD (u, s, v) with a = u @ diag(s) @ v.T and s descending, by LAPACK."""
    u, s, vt = np.linalg.svd(as_matrix(a, "a"), full_matrices=False)
    return u, s, vt.T
