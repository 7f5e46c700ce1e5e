"""Dense real-matrix kernels used throughout the package.

Self-contained implementations of the handful of numerical routines the
analysis needs: spectral norm by power iteration, eigenvalues by closed
form (n <= 2) or Hessenberg + Francis double-shift QR, a one-sided Jacobi
SVD, and a partial-pivot LU solve.  numpy supplies array arithmetic;
np.linalg is deliberately not used here so the test suite can treat it as
an independent oracle.

All routines take real float64 matrices.  Intended scale is the small
dense systems of this package (state dimensions up to a few hundred);
no attempt is made at LAPACK-grade performance on large inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinAlgError",
    "ConvergenceError",
    "SingularMatrixError",
    "as_matrix",
    "as_vector",
    "matmul",
    "spectral_norm",
    "eigenvalues",
    "svd_bounded",
    "solve_linear",
]

# Power iteration controls (spectral_norm).
_PI_TOL = 1e-10
_PI_MAX_ITER = 5000
# Pivot magnitude below which solve_linear declares the matrix singular.
_PIVOT_TOL = 1e-12
# Seed for the deterministic fallback/second start vector.
_START_SEED = 7


class LinAlgError(RuntimeError):
    """Base class for numerical failures in this module."""


class ConvergenceError(LinAlgError):
    """An iteration hit its cap without meeting tolerance.

    Carries enough state to diagnose the failure: the iteration count,
    the last residual, and the last iterate.
    """

    def __init__(self, message, iterations=None, residual=None, last_iterate=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.last_iterate = last_iterate


class SingularMatrixError(LinAlgError):
    """solve_linear met a pivot below the singularity threshold."""


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


def matmul(a, b) -> np.ndarray:
    """Matrix product with shape validation.

    Accepts (m,k)@(k,n) matrices or an (m,k)@(k,) vector.
    """
    am = as_matrix(a, "a")
    bb = np.asarray(b, dtype=float)
    if bb.ndim == 1:
        bv = as_vector(bb, "b")
        if am.shape[1] != bv.shape[0]:
            raise ValueError(
                f"shape mismatch: a is {am.shape}, b has length {bv.shape[0]}"
            )
        return am @ bv
    bm = as_matrix(bb, "b")
    if am.shape[1] != bm.shape[0]:
        raise ValueError(f"shape mismatch: a is {am.shape}, b is {bm.shape}")
    return am @ bm


def _seeded_unit(n: int) -> np.ndarray:
    rng = np.random.default_rng(_START_SEED)
    v = rng.standard_normal(n)
    return v / np.sqrt(np.sum(v * v))


def _power_iteration(gram: np.ndarray, v0: np.ndarray):
    """Dominant eigenvalue estimate of a PSD matrix from start vector v0.

    Returns (eigenvalue, vector, iterations).  Raises ConvergenceError at
    the iteration cap.
    """
    v = v0
    lam = 0.0
    for it in range(1, _PI_MAX_ITER + 1):
        w = gram @ v
        norm_w = np.sqrt(np.sum(w * w))
        if norm_w == 0.0:
            # v landed in the kernel; restart from the seeded direction.
            v = _seeded_unit(v.shape[0])
            continue
        v = w / norm_w
        lam_new = float(v @ (gram @ v))
        if abs(lam_new - lam) <= _PI_TOL * max(abs(lam_new), 1e-300):
            return lam_new, v, it
        lam = lam_new
    residual = float(np.sqrt(np.sum((gram @ v - lam * v) ** 2)))
    raise ConvergenceError(
        f"power iteration did not converge in {_PI_MAX_ITER} iterations "
        f"(last residual {residual:.3e})",
        iterations=_PI_MAX_ITER,
        residual=residual,
        last_iterate=v,
    )


def _sigma_max_2x2(a: np.ndarray) -> np.ndarray:
    """Exact top singular value of 2x2 matrices (trailing axes).

    Splitting the matrix into its rotation-like and reflection-like parts
    gives sigma_max = (|z_plus| + |z_minus|) / 2 with z_plus/z_minus built
    from sums and differences of the entries; exact for any gap, unlike
    the iterative route.
    """
    plus = np.hypot(a[..., 0, 0] + a[..., 1, 1], a[..., 0, 1] - a[..., 1, 0])
    minus = np.hypot(a[..., 0, 0] - a[..., 1, 1], a[..., 0, 1] + a[..., 1, 0])
    return 0.5 * (plus + minus)


def spectral_norm(a) -> float:
    """Largest singular value, by power iteration on the Gram matrix.

    2x2 inputs use the closed form (the dominant case on verdict grids,
    and immune to degenerate singular pairs).  Larger inputs run two
    deterministic starts, the normalized all-ones vector and a fixed-seed
    unit vector, and return the larger estimate; the second start guards
    against an all-ones vector orthogonal to the dominant singular
    direction.  Relative tolerance 1e-10, at most 5000 iterations per
    start; if the gap is too small for that cap (near-equal top singular
    values), the exact Jacobi SVD route takes over.
    """
    am = as_matrix(a, "a")
    if am.shape == (2, 2):
        return float(_sigma_max_2x2(am))
    if not am.any():
        return 0.0
    # Work with the smaller Gram matrix.
    gram = am.T @ am if am.shape[1] <= am.shape[0] else am @ am.T
    n = gram.shape[0]
    ones = np.ones(n) / np.sqrt(n)
    try:
        lam1, _, _ = _power_iteration(gram, ones)
        lam2, _, _ = _power_iteration(gram, _seeded_unit(n))
    except ConvergenceError:
        return float(svd_bounded(am)[1][0])
    return float(np.sqrt(max(lam1, lam2, 0.0)))


def _pi_pass_batch(gram: np.ndarray, v0: np.ndarray, usable: np.ndarray) -> np.ndarray:
    """One vectorized power-iteration pass over a stack of Gram matrices.

    Returns per-item dominant-eigenvalue estimates, nan where the item is
    unusable (non-finite input) or failed to converge within the cap.
    """
    n_items, dim = gram.shape[0], gram.shape[1]
    v = np.broadcast_to(v0, (n_items, dim)).copy()
    lam = np.zeros(n_items)
    active = usable.copy()
    for _ in range(_PI_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        g = gram[idx]
        w = np.einsum("njk,nk->nj", g, v[idx])
        norm_w = np.sqrt(np.sum(w * w, axis=1))
        dead = norm_w == 0.0
        if dead.any():
            w[dead] = _seeded_unit(dim)
            norm_w[dead] = 1.0
        vn = w / norm_w[:, None]
        lam_new = np.einsum("nj,nj->n", vn, np.einsum("njk,nk->nj", g, vn))
        done = np.abs(lam_new - lam[idx]) <= _PI_TOL * np.maximum(
            np.abs(lam_new), 1e-300
        )
        v[idx] = vn
        lam[idx] = lam_new
        active[idx[done]] = False
    lam[active] = np.nan
    lam[~usable] = np.nan
    return lam


def _spectral_norm_batch(a: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of matrices (N, r, c).

    2x2 stacks use the closed form.  Larger stacks run the same two
    deterministic power-iteration starts as spectral_norm, vectorized,
    with the exact Jacobi route resolving any item whose gap stalls the
    iteration.  Items with non-finite entries, or on which the Jacobi route
    fails too, come back as nan; callers turn those into per-item error
    markers instead of aborting the whole sweep.
    """
    if a.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got ndim={a.ndim}")
    n_items = a.shape[0]
    usable = np.all(np.isfinite(a.reshape(n_items, -1)), axis=1)
    a_safe = np.where(usable[:, None, None], a, 0.0)
    if a.shape[1:] == (2, 2):
        return np.where(usable, _sigma_max_2x2(a_safe), np.nan)
    if a.shape[2] <= a.shape[1]:
        gram = np.einsum("nij,nik->njk", a_safe, a_safe)
    else:
        gram = np.einsum("nij,nkj->nik", a_safe, a_safe)
    dim = gram.shape[1]
    lam_a = _pi_pass_batch(gram, np.ones(dim) / np.sqrt(dim), usable)
    lam_b = _pi_pass_batch(gram, _seeded_unit(dim), usable)
    both_nan = np.isnan(lam_a) & np.isnan(lam_b)
    lam = np.where(both_nan, np.nan, np.fmax(lam_a, lam_b))
    for i in np.flatnonzero(usable & np.isnan(lam)):
        try:
            lam[i] = float(svd_bounded(a[i])[1][0]) ** 2
        except ConvergenceError:
            pass  # stays nan: the caller's per-item error marker
    return np.sqrt(np.maximum(lam, 0.0))


def _eig2(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 2x2 real matrix from the characteristic polynomial."""
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    sq = np.sqrt(complex(tr * tr - 4.0 * det))
    return np.array([(tr + sq) / 2.0, (tr - sq) / 2.0], dtype=complex)


def _eig2_batch(a: np.ndarray) -> np.ndarray:
    """Closed-form eigenvalues for a stack (N, 2, 2) -> (N, 2) complex."""
    tr = a[:, 0, 0] + a[:, 1, 1]
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    sq = np.sqrt((tr * tr - 4.0 * det).astype(complex))
    out = np.empty((a.shape[0], 2), dtype=complex)
    out[:, 0] = (tr + sq) / 2.0
    out[:, 1] = (tr - sq) / 2.0
    return _sort_eigs_batch(out)


def _sort_eigs(vals: np.ndarray) -> np.ndarray:
    """Deterministic order: descending modulus, ties by ascending argument."""
    order = np.lexsort((np.angle(vals), -np.abs(vals)))
    return vals[order]


def _sort_eigs_batch(vals: np.ndarray) -> np.ndarray:
    order = np.lexsort((np.angle(vals), -np.abs(vals)), axis=1)
    return np.take_along_axis(vals, order, axis=1)


def _hessenberg(a: np.ndarray) -> np.ndarray:
    """Reduce to upper Hessenberg form by Householder similarity."""
    h = a.copy()
    n = h.shape[0]
    for k in range(n - 2):
        x = h[k + 1 :, k]
        alpha = np.sqrt(np.sum(x * x))
        if alpha == 0.0:
            continue
        if x[0] > 0:
            alpha = -alpha
        v = x.copy()
        v[0] -= alpha
        vnorm2 = np.sum(v * v)
        if vnorm2 == 0.0:
            continue
        beta = 2.0 / vnorm2
        h[k + 1 :, k:] -= beta * np.outer(v, v @ h[k + 1 :, k:])
        h[:, k + 1 :] -= beta * np.outer(h[:, k + 1 :] @ v, v)
    return h


def _reflector(col: np.ndarray):
    """Householder (v, beta, alpha) sending col to (alpha, 0, ...), or None."""
    alpha = np.sqrt(np.sum(col * col))
    if alpha == 0.0:
        return None
    if col[0] > 0:
        alpha = -alpha
    v = col.astype(float).copy()
    v[0] -= alpha
    vnorm2 = np.sum(v * v)
    if vnorm2 == 0.0:
        return None
    return v, 2.0 / vnorm2, alpha


def _francis_sweep(h: np.ndarray, lo: int, hi: int, exceptional: bool) -> None:
    """One implicit double-shift QR sweep on the active block h[lo:hi+1].

    The similarity is applied only within the block, which is valid for
    eigenvalue extraction because deflated boundary subdiagonals are
    exactly zero.
    """
    if exceptional:
        # Ad-hoc shift that breaks symmetry-induced stalls.
        s = abs(h[hi, hi - 1]) + (abs(h[hi - 1, hi - 2]) if hi - 2 >= lo else 0.0)
        tr = 1.5 * s
        det = -0.4375 * s * s
    else:
        tr = h[hi - 1, hi - 1] + h[hi, hi]
        det = h[hi - 1, hi - 1] * h[hi, hi] - h[hi - 1, hi] * h[hi, hi - 1]
    x = h[lo, lo] * h[lo, lo] + h[lo, lo + 1] * h[lo + 1, lo] - tr * h[lo, lo] + det
    y = h[lo + 1, lo] * (h[lo, lo] + h[lo + 1, lo + 1] - tr)
    z = h[lo + 2, lo + 1] * h[lo + 1, lo] if lo + 2 <= hi else 0.0

    for k in range(lo, hi - 1):
        ref = _reflector(np.array([x, y, z]))
        if ref is not None:
            v, beta, alpha = ref
            c0 = max(lo, k - 1)
            rows = h[k : k + 3, c0 : hi + 1]
            rows -= beta * np.outer(v, v @ rows)
            r1 = min(k + 3, hi)
            cols = h[lo : r1 + 1, k : k + 3]
            cols -= beta * np.outer(cols @ v, v)
            if k > lo:
                h[k, k - 1] = alpha
                h[k + 1, k - 1] = 0.0
                h[k + 2, k - 1] = 0.0
        x = h[k + 1, k]
        y = h[k + 2, k]
        z = h[k + 3, k] if k + 3 <= hi else 0.0

    ref = _reflector(np.array([x, y]))
    if ref is not None:
        v, beta, alpha = ref
        k = hi - 1
        c0 = max(lo, k - 1)
        rows = h[k : hi + 1, c0 : hi + 1]
        rows -= beta * np.outer(v, v @ rows)
        cols = h[lo : hi + 1, k : hi + 1]
        cols -= beta * np.outer(cols @ v, v)
        if k > lo:
            h[k, k - 1] = alpha
            h[hi, k - 1] = 0.0


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square real matrix, as complex128.

    n <= 2 uses the characteristic polynomial in closed form; larger
    matrices go through Hessenberg reduction and Francis double-shift QR
    with trailing-block deflation.  Order is deterministic: descending
    modulus, ties broken by ascending argument.
    """
    am = as_matrix(a, "a")
    n, m = am.shape
    if n != m:
        raise ValueError(f"eigenvalues requires a square matrix, got {am.shape}")
    if n == 1:
        return np.array([complex(am[0, 0])])
    if n == 2:
        return _sort_eigs(_eig2(am))

    h = _hessenberg(am)
    eps = np.finfo(float).eps
    vals: list[complex] = []
    hi = n - 1
    stalled = 0
    total_sweeps = 0
    max_sweeps = 100 * n
    while hi >= 0:
        if hi == 0:
            vals.append(complex(h[0, 0]))
            break
        if total_sweeps > max_sweeps:
            raise ConvergenceError(
                f"QR iteration did not deflate within {max_sweeps} sweeps",
                iterations=total_sweeps,
                residual=float(abs(h[hi, hi - 1])),
                last_iterate=h,
            )
        # Find the top of the active block: the nearest negligible
        # subdiagonal below which no deflation has happened yet.
        lo = hi
        while lo > 0:
            s = abs(h[lo - 1, lo - 1]) + abs(h[lo, lo])
            if s == 0.0:
                s = 1.0
            if abs(h[lo, lo - 1]) <= eps * s:
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi:
            vals.append(complex(h[hi, hi]))
            hi -= 1
            stalled = 0
            continue
        if lo == hi - 1:
            vals.extend(_eig2(h[lo : hi + 1, lo : hi + 1]))
            hi -= 2
            stalled = 0
            continue
        _francis_sweep(h, lo, hi, exceptional=stalled in (10, 20))
        stalled += 1
        total_sweeps += 1
    return _sort_eigs(np.array(vals, dtype=complex))


def _complete_orthonormal(u: np.ndarray, have: int) -> None:
    """Fill columns have.. of u with an orthonormal completion, in place."""
    m, k = u.shape
    col = have
    cand = 0
    while col < k:
        if cand < m:
            v = np.zeros(m)
            v[cand] = 1.0
            cand += 1
        else:  # degenerate input; fall back to a seeded direction
            v = _seeded_unit(m)
        for j in range(col):
            v -= (u[:, j] @ v) * u[:, j]
        nv = np.sqrt(np.sum(v * v))
        if nv > 1e-10:
            u[:, col] = v / nv
            col += 1


def svd_bounded(a):
    """Thin SVD (u, s, v) with a ~= u @ diag(s) @ v.T, by one-sided Jacobi.

    s is non-negative and sorted descending; u is (rows, k) and v is
    (cols, k) with orthonormal columns, k = min(rows, cols).  Raises
    ConvergenceError if the Jacobi sweeps fail to settle (practically out
    of reach at the matrix sizes this package works with).
    """
    am = as_matrix(a, "a")
    rows, cols = am.shape
    transposed = rows < cols
    b = (am.T if transposed else am).copy()
    m, k = b.shape
    v = np.eye(k)
    scale = float(np.max(np.abs(b)))
    if scale == 0.0:
        s = np.zeros(k)
        u = np.zeros((m, k))
        _complete_orthonormal(u, 0)
        return (v, s, u) if transposed else (u, s, v)

    max_sweeps = 60
    tol = 1e-15
    off = 0.0
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(k - 1):
            for q in range(p + 1, k):
                bp = b[:, p].copy()
                bq = b[:, q].copy()
                alpha = bp @ bp
                beta = bq @ bq
                gamma = bp @ bq
                if gamma == 0.0 or abs(gamma) <= tol * np.sqrt(alpha * beta):
                    continue
                off = max(off, abs(gamma) / np.sqrt(alpha * beta))
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s_ = c * t
                b[:, p] = c * bp - s_ * bq
                b[:, q] = s_ * bp + c * bq
                vp = v[:, p].copy()
                v[:, p] = c * vp - s_ * v[:, q]
                v[:, q] = s_ * vp + c * v[:, q]
        if off == 0.0:
            break
    else:
        raise ConvergenceError(
            f"Jacobi SVD did not converge in {max_sweeps} sweeps",
            iterations=max_sweeps,
            residual=off,
            last_iterate=b,
        )

    s = np.sqrt(np.sum(b * b, axis=0))
    order = np.argsort(-s, kind="stable")
    s = s[order]
    b = b[:, order]
    v = v[:, order]
    u = np.zeros((m, k))
    nz = 0
    for j in range(k):
        if s[j] > scale * 1e-300:
            u[:, j] = b[:, j] / s[j]
            nz = j + 1
        else:
            s[j] = 0.0
    _complete_orthonormal(u, nz)
    return (v, s, u) if transposed else (u, s, v)


def solve_linear(a, b) -> np.ndarray:
    """Solve a @ x = b by LU with partial pivoting.

    b may be a vector or a matrix of right-hand sides.  A pivot magnitude
    below 1e-12 raises SingularMatrixError (absolute threshold; callers
    working near that scale should rescale first).
    """
    am = as_matrix(a, "a").copy()
    n, m = am.shape
    if n != m:
        raise ValueError(f"solve_linear requires a square matrix, got {am.shape}")
    bb = np.asarray(b, dtype=float)
    vector_rhs = bb.ndim == 1
    if vector_rhs:
        bb = bb[:, None]
    if bb.ndim != 2 or bb.shape[0] != n:
        raise ValueError(f"rhs shape {np.asarray(b).shape} does not match a {am.shape}")
    if not np.all(np.isfinite(bb)):
        raise ValueError("b contains non-finite entries")
    x = bb.astype(float).copy()
    for col in range(n):
        piv = col + int(np.argmax(np.abs(am[col:, col])))
        if abs(am[piv, col]) < _PIVOT_TOL:
            raise SingularMatrixError(
                f"matrix is singular to working precision (pivot "
                f"{am[piv, col]:.3e} at column {col})"
            )
        if piv != col:
            am[[col, piv]] = am[[piv, col]]
            x[[col, piv]] = x[[piv, col]]
        factors = am[col + 1 :, col] / am[col, col]
        am[col + 1 :, col + 1 :] -= np.outer(factors, am[col, col + 1 :])
        x[col + 1 :] -= np.outer(factors, x[col])
    for col in range(n - 1, -1, -1):
        x[col] /= am[col, col]
        x[:col] -= np.outer(am[:col, col], x[col])
    return x[:, 0] if vector_rhs else x
