"""Generators for spectrally constrained weight matrices.

Four families of square (or, for the SVD route, rectangular) linear maps:

* ``perron_frobenius``: nonnegative rows built from a row-wise softmax,
  damped into [lambda_min, lambda_max]; the dominant eigenvalue is bounded
  by the largest row sum.
* ``spectral_svd``: W = U diag(sigma) V with U, V products of Householder
  reflectors, so the singular values are set directly.
* ``gershgorin_real`` / ``gershgorin_complex``: off-diagonal mass scaled so
  every Gershgorin disc has the prescribed centre and radius; the complex
  variant antisymmetrizes the off-diagonal mass to favour conjugate pairs.
* ``unstructured``: plain Gaussian entries scaled by 1/sqrt(cols), no
  guarantee.

Every generator is deterministic given (dims, bounds, seed), and the raw
parameters are kept on the returned record so a map can be re-realized
(for example inside a training step) without touching an RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg

MAP_KINDS = (
    "unstructured",
    "perron_frobenius",
    "spectral_svd",
    "gershgorin_real",
    "gershgorin_complex",
)

_PF_TOL = 1e-10
_SVD_TOL = 1e-8
_GERSH_TOL = 1e-10


def _logistic(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def _check_bounds(lambda_min: float, lambda_max: float, nonnegative: bool) -> None:
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


def damping_interval(raw, lambda_min: float, lambda_max: float) -> np.ndarray:
    """Map raw parameters into (lambda_min, lambda_max) via a logistic."""
    return lambda_max - (lambda_max - lambda_min) * _logistic(raw)


def householder_orthogonal(vectors) -> np.ndarray:
    """Orthogonal matrix from a product of Householder reflectors.

    Each vector is normalized and contributes the reflector I - 2 v v^T;
    the product of dim reflectors parametrizes the orthogonal group densely
    enough for random initialization.
    """
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


def pf_from_params(a_raw, m_raw, lambda_min: float, lambda_max: float) -> np.ndarray:
    """Perron-Frobenius weight from raw parameter matrices.

    Row-wise softmax of a_raw, elementwise damped by m_raw squashed into
    [lambda_min, lambda_max]; all entries nonnegative when lambda_min >= 0
    and every row sum lies in [lambda_min, lambda_max].
    """
    _check_bounds(lambda_min, lambda_max, nonnegative=True)
    a_raw = linalg.as_matrix(a_raw, "a_raw")
    m_raw = linalg.as_matrix(m_raw, "m_raw")
    if a_raw.shape != m_raw.shape:
        raise ValueError("a_raw and m_raw must have matching shapes")
    shifted = a_raw - a_raw.max(axis=1, keepdims=True)
    expa = np.exp(shifted)
    softmax = expa / expa.sum(axis=1, keepdims=True)
    damping = damping_interval(m_raw, lambda_min, lambda_max)
    return softmax * damping


def spectral_from_params(
    u_vectors, v_vectors, sigma_raw, lambda_min: float, lambda_max: float
) -> np.ndarray:
    """SVD-factorized weight from reflector vectors and raw singular values."""
    _check_bounds(lambda_min, lambda_max, nonnegative=False)
    u = householder_orthogonal(u_vectors)
    v = householder_orthogonal(v_vectors)
    sigma_raw = linalg.as_vector(sigma_raw, "sigma_raw")
    k = sigma_raw.shape[0]
    if k > min(u.shape[0], v.shape[0]):
        raise ValueError("more singular values than matrix dimensions allow")
    sig = damping_interval(sigma_raw, lambda_min, lambda_max)
    return u[:, :k] @ np.diag(sig) @ v[:k, :]


def gershgorin_from_params(
    m_raw, lambda_min: float, lambda_max: float, complex_conjugate: bool
) -> np.ndarray:
    """Gershgorin-disc weight from a raw off-diagonal mass matrix.

    The diagonal of m_raw is ignored.  Rows are scaled so the absolute
    off-diagonal sums equal the disc radius exactly (rows with no mass stay
    zero), then the disc centre goes on the diagonal.
    """
    _check_bounds(lambda_min, lambda_max, nonnegative=False)
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


def realize_pf(n: int, lambda_min: float, lambda_max: float, rng) -> np.ndarray:
    """Draw a Perron-Frobenius weight with standard-normal raw parameters."""
    if n < 1:
        raise ValueError("n must be at least 1")
    m_raw = rng.standard_normal((n, n))
    a_raw = rng.standard_normal((n, n))
    return pf_from_params(a_raw, m_raw, lambda_min, lambda_max)


def realize_spectral(
    rows: int, cols: int, lambda_min: float, lambda_max: float, rng
) -> np.ndarray:
    """Draw an SVD-factorized weight; non-square shapes are allowed."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be at least 1")
    _check_bounds(lambda_min, lambda_max, nonnegative=False)
    u_vectors = [rng.standard_normal(rows) for _ in range(rows)]
    v_vectors = [rng.standard_normal(cols) for _ in range(cols)]
    sigma_raw = rng.standard_normal(min(rows, cols))
    return spectral_from_params(u_vectors, v_vectors, sigma_raw, lambda_min, lambda_max)


def realize_gershgorin(
    n: int, lambda_min: float, lambda_max: float, complex_conjugate: bool, rng
) -> np.ndarray:
    """Draw a Gershgorin-disc weight with Uniform(0,1) off-diagonal mass."""
    if n < 1:
        raise ValueError("n must be at least 1")
    m_raw = rng.uniform(0.0, 1.0, (n, n))
    return gershgorin_from_params(m_raw, lambda_min, lambda_max, complex_conjugate)


def realize_unstructured(rows: int, cols: int, rng) -> np.ndarray:
    """Draw a plain Gaussian weight scaled by 1/sqrt(cols)."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be at least 1")
    return rng.standard_normal((rows, cols)) / np.sqrt(cols)


def perron_frobenius_map(
    n: int, lambda_min: float, lambda_max: float, seed: int = 0
) -> np.ndarray:
    return realize_pf(n, lambda_min, lambda_max, np.random.default_rng(seed))


def spectral_svd_map(
    rows: int,
    lambda_min: float,
    lambda_max: float,
    seed: int = 0,
    cols: Optional[int] = None,
) -> np.ndarray:
    cols = rows if cols is None else cols
    return realize_spectral(rows, cols, lambda_min, lambda_max, np.random.default_rng(seed))


def gershgorin_map(
    n: int,
    lambda_min: float,
    lambda_max: float,
    seed: int = 0,
    complex_conjugate: bool = False,
) -> np.ndarray:
    return realize_gershgorin(
        n, lambda_min, lambda_max, complex_conjugate, np.random.default_rng(seed)
    )


def unstructured_map(rows: int, seed: int = 0, cols: Optional[int] = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return realize_unstructured(rows, cols, np.random.default_rng(seed))


@dataclass(frozen=True)
class StructuredLinearMap:
    """A weight parametrization with its raw parameters and bounds.

    ``params`` holds whatever the kind needs to re-realize the matrix
    without an RNG, so two calls to realize() are bit-identical and a
    training loop can perturb the raw parameters directly.
    """

    kind: str
    rows: int
    cols: int
    lambda_min: float = 0.0
    lambda_max: float = 1.0
    params: dict = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be at least 1")
        if self.kind != "unstructured":
            _check_bounds(
                self.lambda_min,
                self.lambda_max,
                nonnegative=self.kind == "perron_frobenius",
            )
        if self.kind not in ("spectral_svd", "unstructured") and self.rows != self.cols:
            raise ValueError(f"{self.kind} maps must be square")

    def realize(self) -> np.ndarray:
        if self.kind == "unstructured":
            return self.params["raw"] / np.sqrt(self.cols)
        if self.kind == "perron_frobenius":
            return pf_from_params(
                self.params["a_raw"], self.params["m_raw"],
                self.lambda_min, self.lambda_max,
            )
        if self.kind == "spectral_svd":
            return spectral_from_params(
                self.params["u_vectors"], self.params["v_vectors"],
                self.params["sigma_raw"], self.lambda_min, self.lambda_max,
            )
        complex_conjugate = self.kind == "gershgorin_complex"
        return gershgorin_from_params(
            self.params["m_raw"], self.lambda_min, self.lambda_max, complex_conjugate
        )


def draw_map(
    kind: str,
    rows: int,
    lambda_min: float = 0.0,
    lambda_max: float = 1.0,
    seed: int = 0,
    cols: Optional[int] = None,
) -> StructuredLinearMap:
    """Draw raw parameters for a map kind and wrap them in a record.

    The draw order per kind matches the realize_* generators, so
    draw_map(...).realize() equals the corresponding generator output for
    the same seed.
    """
    cols = rows if cols is None else cols
    rng = np.random.default_rng(seed)
    if kind == "unstructured":
        params = {"raw": rng.standard_normal((rows, cols))}
    elif kind == "perron_frobenius":
        params = {
            "m_raw": rng.standard_normal((rows, rows)),
            "a_raw": rng.standard_normal((rows, rows)),
        }
    elif kind == "spectral_svd":
        params = {
            "u_vectors": [rng.standard_normal(rows) for _ in range(rows)],
            "v_vectors": [rng.standard_normal(cols) for _ in range(cols)],
            "sigma_raw": rng.standard_normal(min(rows, cols)),
        }
    elif kind in ("gershgorin_real", "gershgorin_complex"):
        params = {"m_raw": rng.uniform(0.0, 1.0, (rows, rows))}
    else:
        raise ValueError(f"unknown map kind {kind!r}")
    return StructuredLinearMap(
        kind=kind, rows=rows, cols=cols,
        lambda_min=lambda_min, lambda_max=lambda_max,
        params=params, seed=seed,
    )


def weight_norm_penalties(w) -> dict:
    """Elementwise L1 sum, Frobenius norm, and spectral norm of a matrix."""
    wm = linalg.as_matrix(w, "w")
    return {
        "l1": float(np.abs(wm).sum()),
        "l2": float(np.sqrt((wm * wm).sum())),
        "spectral": linalg.spectral_norm(wm),
    }


def guarantee_report(slm: StructuredLinearMap, w: Optional[np.ndarray] = None) -> dict:
    """Check the realized matrix against its kind's spectral guarantee.

    Returns eigenvalues (square maps), singular values, the checks run,
    and an overall pass flag.  Unstructured maps pass vacuously.
    """
    if w is None:
        w = slm.realize()
    report: dict = {"kind": slm.kind, "rows": slm.rows, "cols": slm.cols}
    _, sing, _ = linalg.svd(w)
    report["singular_values"] = [float(s) for s in sing]
    eigs = None
    if w.shape[0] == w.shape[1]:
        eigs = linalg.eigenvalues(w)
        report["eigenvalues"] = [[float(e.real), float(e.imag)] for e in eigs]
    checks: dict = {}
    if slm.kind == "perron_frobenius":
        row_sums = w.sum(axis=1)
        checks["nonnegative"] = bool((w >= -_PF_TOL).all())
        checks["row_sums_in_bounds"] = bool(
            (row_sums >= slm.lambda_min - _PF_TOL).all()
            and (row_sums <= slm.lambda_max + _PF_TOL).all()
        )
        checks["spectral_radius_bounded"] = bool(
            np.abs(eigs).max() <= slm.lambda_max + _PF_TOL
        )
    elif slm.kind == "spectral_svd":
        lo, hi = sorted((abs(slm.lambda_min), abs(slm.lambda_max)))
        if slm.lambda_min < 0.0 < slm.lambda_max:
            lo = 0.0
        checks["singular_values_in_bounds"] = bool(
            (sing >= lo - _SVD_TOL).all() and (sing <= hi + _SVD_TOL).all()
        )
    elif slm.kind in ("gershgorin_real", "gershgorin_complex"):
        centre = (slm.lambda_min + slm.lambda_max) / 2.0
        radius = (slm.lambda_max - slm.lambda_min) / 2.0
        checks["eigenvalues_in_disc"] = bool(
            (np.abs(eigs - centre) <= radius + _GERSH_TOL).all()
        )
    report["checks"] = checks
    report["passed"] = all(checks.values())
    return report
