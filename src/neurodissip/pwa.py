"""Pointwise-affine reading of an MLP.

At any anchor x, replacing each activation by the diagonal gain matrix it
induces there turns the network into an affine map that reproduces the
network's output at x exactly:

    f(x) = A(x) x + b(x)

Two gain conventions are supported (see activations), one row each of
``GAINS``, which names the gain function and whether the activation
offsets sigma(0) are routed into b:

* ``"affine"``: secant gains (sigma(z) - sigma(0)) / z; the activation
  offsets sigma(0) are routed into b, so b is nonzero for sigmoid or
  softplus networks even without bias terms.
* ``"linear"``: ray gains sigma(z)/z; no offsets, so a bias-free network
  satisfies f(x) = A(x) x exactly.  This is the convention the stability
  verdicts use.

The conventions coincide for sigma(0) = 0 activations.  The diagonal
gain matrices are never materialized; A accumulates through row scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import ray_gains, secant_gains
from .network import MlpNetwork

__all__ = ["GAINS", "PwaForm", "extract_pwa", "verify_equivalence"]

# mode -> (gain function, whether sigma(0) is routed into b).
GAINS = {"affine": (secant_gains, True), "linear": (ray_gains, False)}


@dataclass(frozen=True, eq=False)
class PwaForm:
    """The affine map equivalent to a network at one anchor point."""

    anchor: np.ndarray
    a_star: np.ndarray
    b_star: np.ndarray
    lambdas: tuple[np.ndarray, ...]  # per activated layer, in order
    mode: str

    def evaluate(self, x) -> np.ndarray:
        """Apply the affine map to an arbitrary point."""
        return self.a_star @ np.asarray(x, dtype=float) + self.b_star


def extract_pwa(net: MlpNetwork, x, mode: str = "affine") -> PwaForm:
    """Decompose the network at anchor x into A(x), b(x) and the gains.

    The batch of one of extract_pwa_batch, bit for bit.
    """
    anchor = np.asarray(x, dtype=float)
    if anchor.ndim != 1:
        raise ValueError(f"anchor must be (dim,), got shape {anchor.shape}")
    a, b, lambdas = extract_pwa_batch(net, anchor[None], mode=mode)
    return PwaForm(anchor=anchor, a_star=a[0], b_star=b[0],
                   lambdas=tuple(lam[0] for lam in lambdas), mode=mode)


def extract_pwa_batch(net: MlpNetwork, xs, mode: str = "affine"):
    """Decomposition at a batch of anchors, the package's one A(x) assembly.

    Returns (a (n, out, in), b (n, out), lambdas), where lambdas holds the
    (n, rows) gains of each activated layer, in order.
    """
    if mode not in GAINS:
        raise ValueError(f"mode must be one of {tuple(GAINS)}, got {mode!r}")
    gain_fn, routes_offset = GAINS[mode]
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValueError(f"anchors must be (n, dim), got shape {xs.shape}")
    n = xs.shape[0]
    _, trace = net.forward_trace(xs)

    a = None  # accumulated map, input -> current value
    b = np.zeros((n, net.input_dim))
    lambdas = []
    for layer, (_, z, _) in zip(net.layers, trace):
        w = layer.weight
        # The stacked w @ a runs one matrix product per anchor, so a batch
        # of one rounds as a single-anchor loop; a fused contraction over
        # the stack would not.
        a = np.broadcast_to(w, (n,) + w.shape).copy() if a is None else w @ a
        b = b @ w.T
        if layer.bias is not None:
            b = b + layer.bias
        if layer.activation is not None:
            act = layer.act
            gains = gain_fn(act, z)
            a = gains[:, :, None] * a
            b = gains * b + (act.value_at_zero if routes_offset else 0.0)
            lambdas.append(gains)
    return a, b, tuple(lambdas)


def verify_equivalence(net: MlpNetwork, form: PwaForm) -> float:
    """2-norm residual between the network and its affine form at the anchor.

    In "affine" mode this is the equivalence f(x) = A(x) x + b(x); in
    "linear" mode the same holds with the ray-gain A and its (offset-free)
    b.  Callers assert the residual against their own tolerance.
    """
    y = net.forward(form.anchor)
    return float(np.sqrt(np.sum((y - form.evaluate(form.anchor)) ** 2)))
