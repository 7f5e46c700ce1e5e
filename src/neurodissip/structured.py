"""Spectrally constrained weight matrices: one class per factorization.

Four families of square (or, for the SVD route, rectangular) linear maps:

* ``perron_frobenius`` (PfWeight): nonnegative rows built from a row-wise
  softmax, damped into [lambda_min, lambda_max]; the dominant eigenvalue
  is bounded by the largest row sum.
* ``spectral_svd`` (SpectralWeight): W = U diag(sigma) V with U, V
  products of Householder reflectors, so the singular values are set
  directly.
* ``gershgorin_real`` (GershgorinWeight) / ``gershgorin_complex``
  (ComplexGershgorinWeight): off-diagonal mass scaled so every Gershgorin
  disc has the prescribed centre and radius; the complex subclass
  antisymmetrizes the off-diagonal mass to favour conjugate pairs.
* ``unstructured`` (FreeWeight): plain Gaussian entries scaled by
  1/sqrt(cols), no guarantee.

Every draw is deterministic given (dims, bounds, seed), and the drawn
object keeps its raw parameters, so the weight can be re-realized (for
example inside a training step) without touching an RNG, and a
weight-space gradient pulled back onto them.

Each class owns its kind's bound rule (check_bounds, which config loading
applies before any draw) and guarantee (checks, which guarantee_report
runs); MAPS maps each kind to its class.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import linalg

_PF_TOL = 1e-10
_SVD_TOL = 1e-8
_GERSH_TOL = 1e-10


def _logistic(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


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


def _square(kind: str, rows: int, cols: int) -> None:
    if rows != cols:
        raise ValueError(f"{kind} maps must be square")


class StructuredWeight:
    """A weight matrix defined by raw parameters.

    draw() samples the raw parameters from an RNG in the kind's one fixed
    order; params() returns the live arrays an optimizer mutates;
    realize() maps them to the weight without touching an RNG, so two
    calls are bit-identical; vjp(g) pulls a weight-space gradient back to
    raw-parameter space.  Constructors validate bounds and shapes once,
    so realize() is plain arithmetic and a non-finite optimizer step
    shows up in its output.
    """

    kind = ""
    nonnegative = False  # whether lambda_min must be at least 0

    @classmethod
    def check_bounds(cls, lambda_min: float, lambda_max: float) -> None:
        """The kind's bound rule: finite, ordered, nonnegative if cls.nonnegative."""
        if not (np.isfinite(lambda_min) and np.isfinite(lambda_max)):
            raise ValueError("eigenvalue bounds must be finite")
        if lambda_min > lambda_max:
            raise ValueError(
                f"invalid bounds: lambda_min {lambda_min} > lambda_max {lambda_max}"
            )
        if cls.nonnegative and lambda_min < 0.0:
            raise ValueError(
                f"invalid bounds: lambda_min {lambda_min} must be nonnegative"
            )

    @classmethod
    def draw(cls, rows: int, cols: int, lambda_min: float, lambda_max: float,
             rng) -> "StructuredWeight":
        raise NotImplementedError

    def params(self) -> list:
        raise NotImplementedError

    def realize(self) -> np.ndarray:
        raise NotImplementedError

    def vjp(self, grad) -> list:
        raise NotImplementedError

    def checks(self, w, sing, eigs) -> dict:
        """{check: passed} on realized w, its singular values and eigenvalues."""
        raise NotImplementedError

    def _set_bounds(self, lambda_min: float, lambda_max: float) -> None:
        self.check_bounds(lambda_min, lambda_max)
        self.lambda_min = float(lambda_min)
        self.lambda_max = float(lambda_max)


class FreeWeight(StructuredWeight):
    """An unconstrained matrix; raw parameters are the entries themselves."""

    kind = "unstructured"

    def __init__(self, value):
        self.value = np.array(value, dtype=float)
        if self.value.ndim != 2:
            raise ValueError("weight must be a matrix")

    @classmethod
    def draw(cls, rows, cols, lambda_min, lambda_max, rng):
        """Gaussian entries scaled by 1/sqrt(cols); the bounds are unused."""
        return cls(rng.standard_normal((rows, cols)) / np.sqrt(cols))

    def params(self):
        return [self.value]

    def realize(self):
        return self.value

    def vjp(self, grad):
        return [np.asarray(grad, dtype=float)]

    def checks(self, w, sing, eigs):
        return {}  # no guarantee, so the report passes vacuously


class PfWeight(StructuredWeight):
    """Perron-Frobenius weight: row-wise softmax of a_raw, elementwise
    damped by m_raw squashed into [lambda_min, lambda_max].

    All entries are nonnegative and every row sum lies in the bounds, so
    the dominant eigenvalue is bounded by the largest row sum.
    """

    kind = "perron_frobenius"
    nonnegative = True

    def __init__(self, a_raw, m_raw, lambda_min: float, lambda_max: float):
        self._set_bounds(lambda_min, lambda_max)
        self.a_raw = linalg.as_matrix(a_raw, "a_raw").copy()
        self.m_raw = linalg.as_matrix(m_raw, "m_raw").copy()
        if self.a_raw.shape != self.m_raw.shape:
            raise ValueError("a_raw and m_raw must have matching shapes")

    @classmethod
    def draw(cls, rows, cols, lambda_min, lambda_max, rng):
        _square(cls.kind, rows, cols)
        m_raw = rng.standard_normal((rows, rows))
        a_raw = rng.standard_normal((rows, rows))
        return cls(a_raw, m_raw, lambda_min, lambda_max)

    def params(self):
        return [self.a_raw, self.m_raw]

    def _softmax(self):
        shifted = self.a_raw - self.a_raw.max(axis=1, keepdims=True)
        expa = np.exp(shifted)
        return expa / expa.sum(axis=1, keepdims=True)

    def realize(self):
        return self._softmax() * damping_interval(
            self.m_raw, self.lambda_min, self.lambda_max
        )

    def vjp(self, grad):
        grad = np.asarray(grad, dtype=float)
        softmax = self._softmax()
        p = _logistic(self.m_raw)
        damping = self.lambda_max - (self.lambda_max - self.lambda_min) * p
        gp = grad * damping
        ga = softmax * (gp - np.sum(gp * softmax, axis=1, keepdims=True))
        gm = grad * softmax * (-(self.lambda_max - self.lambda_min)
                               * p * (1.0 - p))
        return [ga, gm]

    def checks(self, w, sing, eigs):
        row_sums = w.sum(axis=1)
        lo, hi = self.lambda_min - _PF_TOL, self.lambda_max + _PF_TOL
        return {
            "nonnegative": bool((w >= -_PF_TOL).all()),
            "row_sums_in_bounds": bool((row_sums >= lo).all() and (row_sums <= hi).all()),
            "spectral_radius_bounded": bool(np.abs(eigs).max() <= hi),
        }


class GershgorinWeight(StructuredWeight):
    """Disc-confined weight built from an off-diagonal mass matrix.

    The diagonal of m_raw is ignored.  Rows are scaled so the absolute
    off-diagonal sums equal the disc radius exactly (rows with no mass stay
    zero), then the disc centre goes on the diagonal.
    """

    kind = "gershgorin_real"
    complex_conjugate = False

    def __init__(self, m_raw, lambda_min: float, lambda_max: float):
        self._set_bounds(lambda_min, lambda_max)
        self.m_raw = linalg.as_matrix(m_raw, "m_raw").copy()
        if self.m_raw.shape[1] != self.m_raw.shape[0]:
            raise ValueError("m_raw must be square")

    @classmethod
    def draw(cls, rows, cols, lambda_min, lambda_max, rng):
        """Uniform(0,1) mass over the full block, diagonal included."""
        _square(cls.kind, rows, cols)
        m_raw = rng.uniform(0.0, 1.0, (rows, rows))
        return cls(m_raw, lambda_min, lambda_max)

    def params(self):
        return [self.m_raw]

    def _mass(self):
        """Off-diagonal mass and its row L1 sums (1 where a row is empty)."""
        m = self.m_raw.copy()
        np.fill_diagonal(m, 0.0)
        if self.complex_conjugate:
            m = (m - m.T) / 2.0
        s = np.sum(np.abs(m), axis=1, keepdims=True)
        s[s == 0.0] = 1.0
        return m, s

    def realize(self):
        m, s = self._mass()
        lam = (self.lambda_min + self.lambda_max) / 2.0
        rad = (self.lambda_max - self.lambda_min) / 2.0
        return lam * np.eye(m.shape[0]) + rad * m / s

    def vjp(self, grad):
        grad = np.asarray(grad, dtype=float)
        m, s = self._mass()
        rad = (self.lambda_max - self.lambda_min) / 2.0
        # y = rad * m / s with s the row L1 mass; the second term carries
        # the dependence of s on each entry through d|m|/dm = sign(m).
        row_dot = np.sum(grad * m, axis=1, keepdims=True)
        gn = rad * (grad / s - row_dot / (s * s) * np.sign(m))
        if self.complex_conjugate:
            gn = (gn - gn.T) / 2.0
        np.fill_diagonal(gn, 0.0)
        return [gn]

    def checks(self, w, sing, eigs):
        centre = (self.lambda_min + self.lambda_max) / 2.0
        radius = (self.lambda_max - self.lambda_min) / 2.0
        return {"eigenvalues_in_disc": bool((np.abs(eigs - centre) <= radius + _GERSH_TOL).all())}


class ComplexGershgorinWeight(GershgorinWeight):
    """GershgorinWeight with antisymmetrized off-diagonal mass, favouring conjugate pairs."""

    kind = "gershgorin_complex"
    complex_conjugate = True


def _householder_backward(vectors, grad_q):
    """Raw-vector gradients of a product of reflectors.

    The product is Q = H(v_1) ... H(v_m) with H(v) = I - (2/s) v v^T and
    s = v^T v, matching householder_orthogonal up to the explicit
    normalization (which the 2/s factor absorbs).
    """
    mats = [np.eye(v.shape[0]) - (2.0 / float(v @ v)) * np.outer(v, v)
            for v in vectors]
    m = len(mats)
    dim = mats[0].shape[0]
    prefixes = [np.eye(dim)]
    for h in mats:
        prefixes.append(prefixes[-1] @ h)
    suffixes = [np.eye(dim)] * (m + 1)
    for j in range(m - 1, -1, -1):
        suffixes[j] = mats[j] @ suffixes[j + 1]
    grads = np.zeros((m, dim))
    for j in range(m):
        gh = prefixes[j].T @ grad_q @ suffixes[j + 1].T
        v = vectors[j]
        s = float(v @ v)
        gv = gh @ v
        gtv = gh.T @ v
        grads[j] = (-(2.0 / s) * (gv + gtv)
                    + (4.0 / (s * s)) * float(v @ gv) * v)
    return grads


class SpectralWeight(StructuredWeight):
    """SVD-factorized weight W = U diag(sigma) V with reflector-product
    orthogonal factors, so the singular values are set directly.

    Non-square shapes are allowed.
    """

    kind = "spectral_svd"

    def __init__(self, u_vectors, v_vectors, sigma_raw,
                 lambda_min: float, lambda_max: float):
        self._set_bounds(lambda_min, lambda_max)
        self.u_vectors = np.array(u_vectors, dtype=float)
        self.v_vectors = np.array(v_vectors, dtype=float)
        self.sigma_raw = linalg.as_vector(
            np.array(sigma_raw, dtype=float).reshape(-1), "sigma_raw"
        )
        u, v = self._factors()  # rejects empty, ragged or zero reflectors
        if self.sigma_raw.shape[0] > min(u.shape[0], v.shape[0]):
            raise ValueError("more singular values than matrix dimensions allow")

    @classmethod
    def draw(cls, rows, cols, lambda_min, lambda_max, rng):
        u_vectors = [rng.standard_normal(rows) for _ in range(rows)]
        v_vectors = [rng.standard_normal(cols) for _ in range(cols)]
        sigma_raw = rng.standard_normal(min(rows, cols))
        return cls(u_vectors, v_vectors, sigma_raw, lambda_min, lambda_max)

    def params(self):
        return [self.u_vectors, self.v_vectors, self.sigma_raw]

    def _factors(self):
        return (householder_orthogonal(self.u_vectors),
                householder_orthogonal(self.v_vectors))

    def realize(self):
        u, v = self._factors()
        k = self.sigma_raw.shape[0]
        sig = damping_interval(self.sigma_raw, self.lambda_min, self.lambda_max)
        return u[:, :k] @ np.diag(sig) @ v[:k, :]

    def vjp(self, grad):
        """Gradients of U[:, :k] diag(sigma) V[:k, :] in the raw parameters."""
        grad = np.asarray(grad, dtype=float)
        u, v = self._factors()
        k = self.sigma_raw.shape[0]
        lo, hi = self.lambda_min, self.lambda_max
        sig = damping_interval(self.sigma_raw, lo, hi)
        uk, vk = u[:, :k], v[:k, :]
        g_sig = np.einsum("ai,ab,ib->i", uk, grad, vk)
        p = _logistic(self.sigma_raw)
        g_sigma_raw = g_sig * (-(hi - lo) * p * (1.0 - p))
        gu = np.zeros_like(u)
        gu[:, :k] = grad @ vk.T * sig
        gv = np.zeros_like(v)
        gv[:k, :] = sig[:, None] * (uk.T @ grad)
        # The raw vectors are used unnormalized; householder_orthogonal's
        # explicit normalization equals the 2/s form differentiated here.
        return [
            _householder_backward(self.u_vectors, gu),
            _householder_backward(self.v_vectors, gv),
            g_sigma_raw,
        ]

    def checks(self, w, sing, eigs):
        lo, hi = sorted((abs(self.lambda_min), abs(self.lambda_max)))
        if self.lambda_min < 0.0 < self.lambda_max:
            lo = 0.0
        ok = (sing >= lo - _SVD_TOL).all() and (sing <= hi + _SVD_TOL).all()
        return {"singular_values_in_bounds": bool(ok)}


MAPS = {cls.kind: cls for cls in (FreeWeight, PfWeight, SpectralWeight,
                                  GershgorinWeight, ComplexGershgorinWeight)}
MAP_KINDS = tuple(MAPS)


def draw_map(
    kind: str,
    rows: int,
    lambda_min: float = 0.0,
    lambda_max: float = 1.0,
    seed: int = 0,
    cols: Optional[int] = None,
) -> StructuredWeight:
    """Draw a weight of the given kind from a fresh RNG seeded with seed."""
    if kind not in MAPS:
        raise ValueError(f"unknown map kind {kind!r}")
    cols = rows if cols is None else cols
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be at least 1")
    return MAPS[kind].draw(rows, cols, lambda_min, lambda_max,
                           np.random.default_rng(seed))


def guarantee_report(weight: StructuredWeight, w: Optional[np.ndarray] = None) -> dict:
    """Check the realized matrix against its kind's spectral guarantee.

    The kind, bounds and checks come from the weight; w defaults to its
    realization.  Returns eigenvalues (square maps), singular values, the
    checks run, and an overall pass flag.  The unstructured kind has no
    guarantee and passes vacuously.
    """
    if w is None:
        w = weight.realize()
    report: dict = {"kind": weight.kind, "rows": w.shape[0], "cols": w.shape[1]}
    _, sing, _ = linalg.svd(w)
    report["singular_values"] = [float(s) for s in sing]
    eigs = None
    if w.shape[0] == w.shape[1]:
        eigs = linalg.eigenvalues(w)
        report["eigenvalues"] = [[float(e.real), float(e.imag)] for e in eigs]
    checks = weight.checks(w, sing, eigs)
    report["checks"] = checks
    report["passed"] = all(checks.values())
    return report
