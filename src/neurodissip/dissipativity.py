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

Grid sweeps cover 2-D state spaces with cell-center anchors; higher
dimensions use sampled anchor sets with the same per-point schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .activations import STABLE, get_activation, ray_gains
from .network import MlpNetwork
from .pwa import PwaForm, extract_pwa_batch

__all__ = [
    "PointVerdict",
    "GridSpec",
    "GridAnalysis",
    "EquilibriumBounds",
    "LayerwiseCertificate",
    "point_verdict",
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
# Message on anchors whose decomposition, norm or eigenvalues failed; the
# wording is kept so that artifacts keep their bytes.
_ERROR = "non-finite decomposition or norm did not converge"


@dataclass(frozen=True, eq=False)
class PointVerdict:
    """Stability facts about one anchor point."""

    anchor: np.ndarray
    a_norm: float
    b_norm: float
    eigenvalues: np.ndarray  # complex, descending modulus
    dissipative: bool
    contractive_affine: bool | None
    error: str | None = None


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
            if not hi > lo:
                raise ValueError(f"{name} must satisfy lo < hi, got ({lo}, {hi})")

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
    norm_p: int = 2


@dataclass(frozen=True)
class LayerwiseCertificate:
    """Outcome of the sufficient per-layer condition.

    certified requires every ||W||_2 strictly below 1 and an analytic
    unit gain bound (stable activation classes only).  The relaxed flag
    allows norms equal to 1 as long as at least one is strict.  For
    non-stable activations lambda_bound is a sampled supremum and is
    advisory: it never certifies.
    """

    certified: bool
    certified_relaxed: bool
    w_norms: tuple[float, ...]
    lambda_bound: float
    lambda_bound_analytic: bool


@dataclass(eq=False)
class GridAnalysis:
    """Dense per-cell stability fields over a GridSpec.

    contractive codes: 1 true, 0 false, -1 undefined (anchor at origin).
    errors maps (i, j) -> message for cells whose linear algebra failed;
    their numeric fields are nan and dissipative is False.
    """

    spec: GridSpec
    mode: str
    a_norm: np.ndarray
    b_norm: np.ndarray
    eigenvalues: np.ndarray  # (res, res, n) complex
    dissipative: np.ndarray  # bool
    contractive: np.ndarray  # int8
    errors: dict[tuple[int, int], str] = field(default_factory=dict)

    @property
    def resolution(self) -> int:
        return self.spec.resolution

    def cell(self, i: int, j: int) -> PointVerdict:
        anchor = np.array([self.spec.axis_centers(0)[i], self.spec.axis_centers(1)[j]])
        contr = {1: True, 0: False, -1: None}[int(self.contractive[i, j])]
        return PointVerdict(
            anchor=anchor,
            a_norm=float(self.a_norm[i, j]),
            b_norm=float(self.b_norm[i, j]),
            eigenvalues=self.eigenvalues[i, j].copy(),
            dissipative=bool(self.dissipative[i, j]),
            contractive_affine=contr,
            error=self.errors.get((i, j)),
        )

    @property
    def cells(self):
        """2-D nested list of PointVerdict, shaped [resolution][resolution]."""
        r = self.resolution
        return [[self.cell(i, j) for j in range(r)] for i in range(r)]

    def summary(self) -> dict:
        n_err = len(self.errors)
        n_diss = int(np.count_nonzero(self.dissipative))
        total = self.resolution**2
        finite = self.a_norm[np.isfinite(self.a_norm)]
        return {
            "cells": total,
            "dissipative": n_diss,
            "non_dissipative": total - n_diss - n_err,
            "errors": n_err,
            "fraction_dissipative": n_diss / total,
            "max_a_norm": float(np.max(finite)) if finite.size else float("nan"),
            "min_a_norm": float(np.min(finite)) if finite.size else float("nan"),
        }

    def worst_cell(self):
        """(i, j, a_norm) of the largest finite a_norm, or None."""
        masked = np.where(np.isfinite(self.a_norm), self.a_norm, -np.inf)
        if not np.isfinite(masked).any():
            return None
        i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
        return int(i), int(j), float(masked[i, j])


def _require_square(net: MlpNetwork) -> None:
    if net.input_dim != net.output_dim:
        raise ValueError(
            f"state-transition analysis needs a square map, got "
            f"{net.input_dim} -> {net.output_dim}"
        )


def _batched_fields(net: MlpNetwork, anchors: np.ndarray, mode: str):
    """Shared vectorized core: per-anchor norms, eigenvalues, flags, errors."""
    n = anchors.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):
        a, b = extract_pwa_batch(net, anchors, mode=mode)
    a_norm = linalg._spectral_norm_batch(a)
    with np.errstate(invalid="ignore", over="ignore"):
        b_norm = np.sqrt(np.sum(b * b, axis=1))
    bad = ~np.isfinite(a_norm) | ~np.isfinite(b_norm)

    eigs = linalg._eigenvalues_batch(a)
    bad |= np.isnan(eigs).any(axis=1)
    eigs[bad] = np.nan
    a_upper = linalg.sigma_upper(a_norm, a.shape)

    x_norm = np.sqrt(np.sum(anchors * anchors, axis=1))
    contractive = np.full(n, -1, dtype=np.int8)
    defined = x_norm >= _ORIGIN_TOL
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = a_upper < 1.0 - b_norm / np.where(defined, x_norm, 1.0)
    contractive[defined & ok] = 1
    contractive[defined & ~ok] = 0
    contractive[bad] = 0

    dissipative = np.where(bad, False, a_upper < 1.0)
    a_norm = np.where(bad, np.nan, a_norm)
    b_norm = np.where(bad, np.nan, b_norm)
    return a_norm, b_norm, eigs, dissipative.astype(bool), contractive, bad


def verdicts_at(net: MlpNetwork, anchors, mode: str = "linear") -> list[PointVerdict]:
    """Pointwise verdicts over an arbitrary anchor set (any state dim)."""
    _require_square(net)
    anchors = np.asarray(anchors, dtype=float)
    if anchors.ndim != 2 or anchors.shape[1] != net.input_dim:
        raise ValueError(
            f"anchors must be (n, {net.input_dim}), got shape {anchors.shape}"
        )
    a_norm, b_norm, eigs, diss, contr, bad = _batched_fields(net, anchors, mode)
    out = []
    for k in range(anchors.shape[0]):
        out.append(
            PointVerdict(
                anchor=anchors[k],
                a_norm=float(a_norm[k]),
                b_norm=float(b_norm[k]),
                eigenvalues=eigs[k],
                dissipative=bool(diss[k]),
                contractive_affine={1: True, 0: False, -1: None}[int(contr[k])],
                error=_ERROR if bad[k] else None,
            )
        )
    return out


def point_verdict(net: MlpNetwork, x, mode: str = "linear") -> PointVerdict:
    """Evaluate the pointwise stability facts at one anchor (a batch of one)."""
    return verdicts_at(net, [x], mode)[0]


def certify_region(
    net: MlpNetwork, grid: GridSpec | None = None, mode: str = "linear"
) -> GridAnalysis:
    """Sweep a 2-D grid of cell centers and record per-cell verdicts.

    Per-cell numerical failures (overflowed decompositions, norms or
    eigenvalues LAPACK failed on) become error markers on those cells; the
    sweep always completes.
    """
    _require_square(net)
    if net.input_dim != 2:
        raise ValueError(
            f"grid sweeps are defined for 2-D state spaces, got dimension "
            f"{net.input_dim}; use verdicts_at with sampled anchors instead"
        )
    grid = grid or GridSpec()
    anchors = grid.cell_centers()
    a_norm, b_norm, eigs, diss, contr, bad = _batched_fields(net, anchors, mode)

    r = grid.resolution
    errors = {
        (int(k) // r, int(k) % r): _ERROR for k in np.flatnonzero(bad)
    }
    return GridAnalysis(
        spec=grid,
        mode=mode,
        a_norm=a_norm.reshape(r, r),
        b_norm=b_norm.reshape(r, r),
        eigenvalues=eigs.reshape(r, r, -1),
        dissipative=diss.reshape(r, r),
        contractive=contr.reshape(r, r),
        errors=errors,
    )


def layerwise_certificate(
    net: MlpNetwork, z_samples=None
) -> LayerwiseCertificate:
    """Check the sufficient per-layer conditions for global dissipativity."""
    w_norms = tuple(linalg.spectral_norm(layer.weight) for layer in net.layers)
    act_names = [l.activation for l in net.layers if l.activation is not None]
    analytic = all(
        get_activation(name).stability_class == STABLE for name in act_names
    )
    if analytic:
        lambda_bound = 1.0
    else:
        # Advisory sampled supremum over the provided pre-activation samples.
        lambda_bound = 0.0
        if z_samples is not None:
            zs = np.concatenate([np.ravel(np.asarray(z)) for z in z_samples])
            for name in act_names:
                act = get_activation(name)
                if act.stability_class != STABLE:
                    lambda_bound = max(
                        lambda_bound, float(np.max(np.abs(ray_gains(act, zs))))
                    )
    strict = all(linalg.sigma_upper(w, layer.weight.shape) < 1.0
                 for w, layer in zip(w_norms, net.layers))
    weak = all(w <= 1.0 for w in w_norms) and any(w < 1.0 for w in w_norms)
    return LayerwiseCertificate(
        certified=analytic and strict,
        certified_relaxed=analytic and weak,
        w_norms=w_norms,
        lambda_bound=lambda_bound,
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
    return EquilibriumBounds(lower=lower, upper=upper, norm_p=2)


def dissipativity_penalty(net: MlpNetwork, anchors, mode: str = "linear") -> float:
    """Mean over anchors of max(1, ||A(x)||_2); the training regularizer."""
    _require_square(net)
    anchors = np.asarray(anchors, dtype=float)
    if anchors.ndim != 2:
        raise ValueError(f"anchors must be (n, dim), got shape {anchors.shape}")
    a, _ = extract_pwa_batch(net, anchors, mode=mode)
    norms = linalg._spectral_norm_batch(a)
    if np.any(~np.isfinite(norms)):
        raise linalg.LinAlgError("penalty undefined: non-finite norms at anchors")
    return float(np.mean(np.maximum(1.0, norms)))


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


def _csv_float(x: float) -> str:
    return repr(float(x))


def write_grid_csv(analysis: GridAnalysis, path) -> None:
    """Write the pinned per-cell table.

    Columns: x1,x2,a_norm,b_norm,dissipative,contractive_affine,
    max_eig_re,max_eig_im,eig_moduli (a JSON array, quoted).  Undefined
    contractive entries are left empty; error cells carry empty numeric
    fields and the message in an extra final column.
    """
    xs = analysis.spec.axis_centers(0)
    ys = analysis.spec.axis_centers(1)
    r = analysis.resolution
    lines = [
        "x1,x2,a_norm,b_norm,dissipative,contractive_affine,"
        "max_eig_re,max_eig_im,eig_moduli,error"
    ]
    for i in range(r):
        for j in range(r):
            err = analysis.errors.get((i, j))
            if err is None:
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
                       "", "", "false", "", "", "", '"[]"', err]
            lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_grid_json(analysis: GridAnalysis, path) -> None:
    """Full-structure JSON export of a grid analysis."""
    doc = {
        "mode": analysis.mode,
        "x_range": list(analysis.spec.x_range),
        "y_range": list(analysis.spec.y_range),
        "resolution": analysis.resolution,
        "summary": analysis.summary(),
        "a_norm": _nan_to_none(analysis.a_norm),
        "b_norm": _nan_to_none(analysis.b_norm),
        "dissipative": analysis.dissipative.tolist(),
        "contractive_affine": analysis.contractive.tolist(),
        "eigenvalues_re": _nan_to_none(analysis.eigenvalues.real),
        "eigenvalues_im": _nan_to_none(analysis.eigenvalues.imag),
        "errors": [
            {"i": i, "j": j, "message": msg}
            for (i, j), msg in sorted(analysis.errors.items())
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _nan_to_none(arr: np.ndarray):
    out = arr.tolist()

    def scrub(x):
        if isinstance(x, list):
            return [scrub(v) for v in x]
        return None if (x != x) else x  # nan != nan

    return scrub(out)
