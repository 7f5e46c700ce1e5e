"""Executable stability certificates for neural state-transition maps.

Given x_{t+1} = f(x_t) with f an MLP, the pointwise-affine form
f(x) = A(x) x + b(x) turns classical arguments into checkable numbers:

* dissipative at x:        ||A(x)||_2 < 1
* contractive affine at x: ||A(x)||_2 < 1 - ||b(x)||_2 / ||x||_2 (x != 0)
* equilibrium norm bounds: ||b|| / ||I - A||  <=  ||x_bar||  <=  ||b|| / (1 - ||A||)
* layerwise certificate:   per-layer ||W||_2 < 1 plus a unit bound on the
  activation gains, which is analytic for stable-class activations

Verdicts default to the ray gain convention ("linear" mode), under which
f(x) = A(x) x holds exactly for bias-free networks; see pwa for the
distinction between the conventions.

Every verdict comes from verdicts_at, which returns one Verdicts record
of per-anchor arrays; a single point is a batch of one.  Grid sweeps
cover 2-D state spaces: certify_region is verdicts_at at the cell
centers, with each field shaped to the grid.  Higher dimensions use
sampled anchor sets (lhs_anchors) with the same record.

An anchor is an error when its A(x), ||A(x)|| or ||b(x)|| is non-finite;
its norms are nan, it is neither dissipative nor contractive, and a
summary whose every anchor is an error reports null norms.  A record
computes its eigenvalues the first time they are read (nan at error
anchors), so certificates, which read only norms and flags, never take
them.  An anchor on which LAPACK fails for the eigenvalues keeps its norm
verdict and reads nan eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import artifacts, linalg
from .activations import STABLE
from .network import MlpNetwork
from .pwa import PwaForm, extract_pwa_batch

__all__ = [
    "Verdicts",
    "GridSpec",
    "GridAnalysis",
    "EquilibriumBounds",
    "LayerwiseCertificate",
    "require_square",
    "verdicts_at",
    "certify_region",
    "layerwise_certificate",
    "equilibrium_bounds",
    "dissipativity_penalty",
    "lhs_anchors",
    "write_grid_csv",
    "write_grid_json",
]

# Below this anchor norm the affine-contraction test is left undefined.
_ORIGIN_TOL = 1e-12
# Message written for error anchors; the wording is kept so that
# artifacts keep their bytes.
_ERROR = "non-finite decomposition or norm did not converge"


@dataclass(frozen=True, eq=False)
class Verdicts:
    """Stability facts at a set of anchors, one array entry per anchor.

    Fields share the anchors' leading shape.  contractive codes: 1 true,
    0 false, -1 undefined (anchor at the origin).  error marks anchors
    whose A(x), ||A(x)|| or ||b(x)|| is non-finite; their norms are nan
    and they are neither dissipative nor contractive.
    """

    anchors: np.ndarray
    a: np.ndarray  # the A(x) stack
    a_norm: np.ndarray
    b_norm: np.ndarray
    dissipative: np.ndarray  # bool
    contractive: np.ndarray  # int8
    error: np.ndarray  # bool

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Complex, descending modulus, computed on first read; nan at error
        anchors and where LAPACK fails."""
        n = self.a.shape[-1]
        eigs = linalg._eigenvalues_batch(self.a.reshape(-1, n, n))
        eigs = eigs.reshape(self.a.shape[:-1])
        eigs[self.error] = np.nan
        return eigs


@dataclass(frozen=True)
class GridSpec:
    """A uniform cell grid over a rectangle; anchors are cell centers.

    Centers are computed as lo + (hi - lo) * (2i + 1) / (2 * resolution),
    with the fraction formed by exact integer division, so grids whose
    resolutions share anchors (odd refinement factors) produce bit-equal
    anchor coordinates.
    """

    x_range: tuple[float, float] = (-6.0, 6.0)
    y_range: tuple[float, float] = (-6.0, 6.0)
    resolution: int = 120

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        for name, (lo, hi) in (("x_range", self.x_range), ("y_range", self.y_range)):
            if not 0 < hi - lo < np.inf:
                raise ValueError(f"{name} must satisfy lo < hi with a finite "
                                 f"width, got ({lo}, {hi})")

    def axis_centers(self, axis: int) -> np.ndarray:
        lo, hi = self.x_range if axis == 0 else self.y_range
        i = np.arange(self.resolution)
        return lo + (hi - lo) * ((2 * i + 1) / (2.0 * self.resolution))

    def cell_centers(self) -> np.ndarray:
        """All anchors, shape (resolution**2, 2), row-major in (i, j)."""
        xs = self.axis_centers(0)
        ys = self.axis_centers(1)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])


@dataclass(frozen=True)
class EquilibriumBounds:
    lower: float
    upper: float  # may be +inf


@dataclass(frozen=True)
class LayerwiseCertificate:
    """Outcome of the sufficient per-layer condition.

    certified requires every ||W||_2 strictly below 1 and an analytic
    unit gain bound (stable activation classes only).  The relaxed flag
    allows norms equal to 1 as long as at least one is strict.  With a
    non-stable activation no gain bound is computed: lambda_bound is None
    and the net never certifies.
    """

    certified: bool
    certified_relaxed: bool
    w_norms: tuple[float, ...]
    lambda_bound: float | None
    lambda_bound_analytic: bool


@dataclass(frozen=True, eq=False)
class GridAnalysis(Verdicts):
    """Verdicts at a GridSpec's cell centers, each field shaped (res, res, ...)."""

    spec: GridSpec
    mode: str

    @property
    def resolution(self) -> int:
        return self.spec.resolution

    def summary(self) -> dict:
        """Cell counts and norm range; norms are None when every cell is an error."""
        n_diss = int(np.count_nonzero(self.dissipative))
        errors = int(np.count_nonzero(self.error))
        total = self.a_norm.size
        finite = self.a_norm[~self.error]
        return {
            "cells": total,
            "dissipative": n_diss,
            "non_dissipative": total - n_diss - errors,
            "errors": errors,
            "fraction_dissipative": n_diss / total,
            "max_a_norm": float(np.max(finite)) if finite.size else None,
            "min_a_norm": float(np.min(finite)) if finite.size else None,
        }

    @cached_property
    def _numbers(self) -> dict:
        """The number fields grid.csv and grid.json share, formatted once."""
        eigs = self.eigenvalues
        return {name: artifacts.Numbers(values) for name, values in (
            ("a_norm", self.a_norm), ("b_norm", self.b_norm),
            ("eig_re", eigs.real), ("eig_im", eigs.imag),
        )}

    def worst_cell(self):
        """(i, j, a_norm) of the largest finite a_norm, or None."""
        if self.error.all():
            return None
        masked = np.where(self.error, -np.inf, self.a_norm)
        i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
        return int(i), int(j), float(masked[i, j])


def require_square(net: MlpNetwork, plane: str | None = None) -> None:
    """The shape rule of every state-map analysis: x_{t+1} = f(x_t) needs a
    square map, and an analysis defined on the plane, named by plane
    (say "basin maps"), needs it 2-D.  Raises ValueError otherwise."""
    if net.input_dim != net.output_dim:
        raise ValueError(
            f"state-transition analysis needs a square map, got "
            f"{net.input_dim} -> {net.output_dim}"
        )
    if plane is not None and net.input_dim != 2:
        raise ValueError(
            f"{plane} are defined for 2-D state spaces, got dimension "
            f"{net.input_dim}"
        )


def verdicts_at(net: MlpNetwork, anchors, mode: str = "linear") -> Verdicts:
    """Pointwise verdicts over an (n, dim) anchor set, any state dim."""
    require_square(net)
    anchors = np.asarray(anchors, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        a, b = extract_pwa_batch(net, anchors, mode=mode)[:2]
    a_norm = linalg._spectral_norm_batch(a)
    with np.errstate(invalid="ignore", over="ignore"):
        b_norm = np.sqrt(np.sum(b * b, axis=1))
    # A non-finite A has a nan norm.
    error = ~np.isfinite(a_norm) | ~np.isfinite(b_norm)
    a_upper = linalg.sigma_upper(a_norm, a.shape)

    x_norm = np.sqrt(np.sum(anchors * anchors, axis=1))
    defined = x_norm >= _ORIGIN_TOL
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = a_upper < 1.0 - b_norm / np.where(defined, x_norm, 1.0)
    contractive = np.where(defined, ok.astype(np.int8), np.int8(-1))
    contractive[error] = 0
    return Verdicts(
        anchors=anchors,
        a=a,
        a_norm=np.where(error, np.nan, a_norm),
        b_norm=np.where(error, np.nan, b_norm),
        dissipative=(a_upper < 1.0) & ~error,
        contractive=contractive,
        error=error,
    )


def certify_region(
    net: MlpNetwork, grid: GridSpec | None = None, mode: str = "linear"
) -> GridAnalysis:
    """Verdicts at the cell centers of a 2-D grid.

    Per-cell numerical failures (overflowed decompositions or norms) become
    error cells; the sweep always completes.
    """
    require_square(net, plane="grid sweeps")
    grid = grid or GridSpec()
    verdicts = verdicts_at(net, grid.cell_centers(), mode)
    r = grid.resolution
    shaped = {}
    for f in fields(Verdicts):
        value = getattr(verdicts, f.name)
        shaped[f.name] = value.reshape((r, r) + value.shape[1:])
    return GridAnalysis(spec=grid, mode=mode, **shaped)


def layerwise_certificate(net: MlpNetwork) -> LayerwiseCertificate:
    """Check the sufficient per-layer conditions for global dissipativity."""
    w_norms = tuple(linalg.spectral_norm(layer.weight) for layer in net.layers)
    analytic = all(layer.act.stability_class == STABLE
                   for layer in net.layers if layer.act is not None)
    strict = all(linalg.sigma_upper(w, layer.weight.shape) < 1.0
                 for w, layer in zip(w_norms, net.layers))
    weak = all(w <= 1.0 for w in w_norms) and any(w < 1.0 for w in w_norms)
    return LayerwiseCertificate(
        certified=analytic and strict,
        certified_relaxed=analytic and weak,
        w_norms=w_norms,
        lambda_bound=1.0 if analytic else None,
        lambda_bound_analytic=analytic,
    )


def equilibrium_bounds(form: PwaForm) -> EquilibriumBounds:
    """Norm bounds on the equilibrium implied by the affine form at a point."""
    a = form.a_star
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"equilibrium bounds need a square map, got {a.shape}")
    b_norm = float(np.sqrt(np.sum(form.b_star**2)))
    denom = linalg.spectral_norm(np.eye(a.shape[0]) - a)
    if denom < 1e-12:
        raise ValueError(
            "A(x) is within 1e-12 of the identity; equilibrium bounds are "
            "degenerate"
        )
    # Both divisors carry the rounding margin, so the bracket stays sound.
    a_upper = linalg.sigma_upper(linalg.spectral_norm(a), a.shape)
    lower = b_norm / linalg.sigma_upper(denom, a.shape)
    upper = b_norm / (1.0 - a_upper) if a_upper < 1.0 else float("inf")
    return EquilibriumBounds(lower=lower, upper=upper)


def dissipativity_penalty(net: MlpNetwork, anchors):
    """Mean over anchors of max(1, ||A(x)||_2), with its weight gradients.

    The training regularizer, in the "linear" gain convention.  Returns
    (value, weight_grads), one gradient per layer; the value is inf when
    any anchor's A(x) overflows.  The gradient of ||A|| = u^T A v goes
    through the factored product A = D_L W_L ... D_1 W_1 with the leading
    singular pair, holding the activation gains D_l fixed (their
    dependence on the weights is not differentiated; for piecewise-linear
    activations it is not differentiable in the first place).
    """
    require_square(net)
    anchors = np.asarray(anchors, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        a, _, lambdas = extract_pwa_batch(net, anchors, mode="linear")
    norms = linalg._spectral_norm_batch(a)
    grads = [np.zeros_like(layer.weight) for layer in net.layers]
    if not np.isfinite(norms).all():
        return float("inf"), grads
    over = norms > 1.0
    if over.any():
        u, _, vt = np.linalg.svd(a[over])
        it = iter(lambdas)
        # Up the layers: layer l's input along v is R_l v, and its gains
        # D_l take the place of the slopes in the network's transpose
        # walk, which sums (D_l L_l^T u)(R_l v)^T over the anchors.
        r, trace = vt[:, 0, :], []
        for layer in net.layers:
            g = None if layer.act is None else next(it)[over]
            trace.append((r, None, g))
            r = r @ layer.weight.T
            r = r if g is None else g * r
        net.backward(trace, u[:, :, 0], grads, [None] * len(net.layers))
        grads = [g / anchors.shape[0] for g in grads]
    return float(np.mean(np.maximum(1.0, norms))), grads


def lhs_anchors(dim: int, count: int, bounds, seed: int) -> np.ndarray:
    """Latin-hypercube anchor sample for state dimensions above 2.

    bounds is a (lo, hi) pair applied to every coordinate or a sequence of
    per-dimension pairs.
    """
    rng = np.random.default_rng(seed)
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim == 1:
        bounds = np.tile(bounds, (dim, 1))
    if bounds.shape != (dim, 2):
        raise ValueError(f"bounds must be (2,) or ({dim}, 2), got {bounds.shape}")
    u = (rng.permuted(np.tile(np.arange(count), (dim, 1)), axis=1).T
         + rng.uniform(size=(count, dim))) / count
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


def write_grid_csv(analysis: GridAnalysis, path) -> None:
    """Write the pinned per-cell table.

    Columns: x1,x2,a_norm,b_norm,dissipative,contractive_affine,
    max_eig_re,max_eig_im,eig_moduli (a JSON array, quoted).  Undefined
    contractive entries are left empty; error cells carry empty numeric
    fields, an empty ``[]`` eig_moduli and the message in an extra final
    column.
    """
    r = analysis.resolution
    failed = analysis.error
    centers = analysis.spec.cell_centers()
    nums = analysis._numbers
    # The eigenvalue fields run over (i, j, k); column k = 0 is the largest.
    n = analysis.eigenvalues.shape[-1]
    artifacts.write_csv(path, (
        "x1", "x2", "a_norm", "b_norm", "dissipative", "contractive_affine",
        "max_eig_re", "max_eig_im", "eig_moduli", "error",
    ), (
        artifacts.repeated_numbers(centers[:, 0]),
        artifacts.repeated_numbers(centers[:, 1]),
        artifacts.blank(failed, nums["a_norm"].fields),
        artifacts.blank(failed, nums["b_norm"].fields),
        artifacts.flags(analysis.dissipative),
        artifacts.blank(failed | (analysis.contractive == -1),
                        artifacts.flags(analysis.contractive == 1)),
        artifacts.blank(failed, nums["eig_re"].fields[::n]),
        artifacts.blank(failed, nums["eig_im"].fields[::n]),
        artifacts.blank(failed, artifacts.json_pairs(
            np.abs(analysis.eigenvalues).reshape(r * r, -1)), "[]"),
        (_ERROR if bad else "" for bad in failed.ravel()),
    ), lineterminator="\n")


def write_grid_json(analysis: GridAnalysis, path) -> None:
    """Full-structure JSON export of a grid analysis."""
    nums = analysis._numbers
    artifacts.write_json(path, {
        "mode": analysis.mode,
        "x_range": list(analysis.spec.x_range),
        "y_range": list(analysis.spec.y_range),
        "resolution": analysis.resolution,
        "summary": analysis.summary(),
        "a_norm": nums["a_norm"],
        "b_norm": nums["b_norm"],
        "dissipative": analysis.dissipative,
        "contractive_affine": analysis.contractive,
        "eigenvalues_re": nums["eig_re"],
        "eigenvalues_im": nums["eig_im"],
        "errors": [
            {"i": int(i), "j": int(j), "message": _ERROR}
            for i, j in np.argwhere(analysis.error)
        ],
    })
