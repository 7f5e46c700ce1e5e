"""Reference computations made apart from neurodissip's analysis code.

Everything here is plain numpy/scipy: the activations, the forward pass,
the ray-gain assembly of A(x), LAPACK singular values and eigenvalues,
the reactor ODE and the identified model's rollout.  Weights and sampled
anchors are the program's inputs, so the checks take them from
``cli.build_network`` and ``dissipativity.lhs_anchors``; what is checked
is everything the program computes from them.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf, expit

SELU_SCALE = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717

# The ray gain sigma(z)/z switches to its limit below this |z|: the slope
# at 0+ plus sigma(0)/z with |z| clamped here (the program's convention).
EPS_Z = 1e-9

# name -> (fn, sigma(0), slope at 0+, gain |sigma(z)/z| <= 1 everywhere)
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), 0.0, 1.0, True),
    "tanh": (np.tanh, 0.0, 1.0, True),
    "gelu": (lambda z: 0.5 * z * (1.0 + erf(z / np.sqrt(2.0))), 0.0, 0.5, True),
    "sigmoid": (expit, 0.5, 0.25, False),
    "selu": (lambda z: SELU_SCALE * np.where(
        z > 0, z, SELU_ALPHA * np.expm1(np.minimum(z, 0.0))), 0.0, SELU_SCALE, False),
    "softplus": (lambda z: np.logaddexp(0.0, z), float(np.log(2.0)), 0.5, False),
}


def gain_bounded(name: str) -> bool:
    return ACTIVATIONS[name][3]


def layers_of(net) -> list:
    """(W, b or None, activation name or None) per layer of a program network."""
    return [(np.array(l.weight, dtype=float),
             None if l.bias is None else np.array(l.bias, dtype=float),
             l.activation) for l in net.layers]


def layers_from_json(doc: dict) -> list:
    """Parse the saved-network schema without the program's loader."""
    out = []
    for spec in doc["layers"]:
        w = np.asarray(spec["weight"], dtype=float).reshape(spec["rows"], spec["cols"])
        b = spec.get("bias")
        out.append((w, None if b is None else np.asarray(b, dtype=float),
                    spec.get("activation")))
    return out


def forward(layers, x: np.ndarray) -> np.ndarray:
    """Batched forward pass, x of shape (n, dim)."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    for w, b, act in layers:
        z = h @ w.T
        if b is not None:
            z = z + b
        h = z if act is None else ACTIVATIONS[act][0](z)
    return h


def ray_gains(act: str, z: np.ndarray) -> np.ndarray:
    fn, at_zero, slope, _ = ACTIVATIONS[act]
    small = np.abs(z) < EPS_Z
    with np.errstate(divide="ignore", invalid="ignore"):
        g = fn(z) / np.where(small, 1.0, z)
    clamped = np.where(z < 0.0, -EPS_Z, EPS_Z)
    g = np.where(small, slope + at_zero / clamped, g)
    if act == "relu":
        g = np.where(z == 0.0, 0.0, g)
    return g


def assemble_a(layers, x: np.ndarray) -> np.ndarray:
    """A(x) = prod_l diag(sigma(z_l)/z_l) W_l at each anchor, shape (n, d, d)."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    a = None
    with np.errstate(over="ignore", invalid="ignore"):
        for w, b, act in layers:
            z = h @ w.T
            if b is not None:
                z = z + b
            scaled = w[None] if act is None else ray_gains(act, z)[:, :, None] * w[None]
            a = scaled if a is None else scaled @ a
            h = z if act is None else ACTIVATIONS[act][0](z)
    return np.broadcast_to(a, (h.shape[0],) + a.shape[1:])


def sigma_max(a: np.ndarray) -> np.ndarray:
    """LAPACK top singular value of each matrix; nan where not finite."""
    a = np.asarray(a, dtype=float)
    finite = np.all(np.isfinite(a.reshape(a.shape[0], -1)), axis=1)
    out = np.full(a.shape[0], np.nan)
    if finite.any():
        out[finite] = np.linalg.svd(a[finite], compute_uv=False)[:, 0]
    return out


def eig_moduli(a: np.ndarray) -> np.ndarray:
    """LAPACK eigenvalue moduli of each matrix, descending."""
    return -np.sort(-np.abs(np.linalg.eigvals(a)), axis=1)


def cell_centers(x_range, y_range, resolution: int) -> np.ndarray:
    """Row-major (i over x, j over y) cell centres of a uniform grid."""
    i = np.arange(resolution)
    frac = (2 * i + 1) / (2.0 * resolution)
    xs = x_range[0] + (x_range[1] - x_range[0]) * frac
    ys = y_range[0] + (y_range[1] - y_range[0]) * frac
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def cstr_rhs(params: dict, u: float):
    """Reactor ODE: Arrhenius consumption and energy balance with jacket."""
    p = params
    qv = p["q"] / p["V"]
    heat = p["dH"] / (p["rho"] * p["cp"])
    jacket = p["UA"] / (p["V"] * p["rho"] * p["cp"])

    def rhs(_t, x):
        rate = p["k0"] * np.exp(-p["ER"] / x[1]) * x[0]
        return [qv * (p["Caf"] - x[0]) - rate,
                qv * (p["Tf"] - x[1]) + heat * rate + jacket * (u - x[1])]

    return rhs


def rk4(rhs, x: np.ndarray, dt: float, substeps: int) -> np.ndarray:
    """Classic fixed-step RK4 over one held-input interval."""
    h = dt / substeps
    x = np.asarray(x, dtype=float)
    for _ in range(substeps):
        k1 = np.asarray(rhs(0.0, x))
        k2 = np.asarray(rhs(0.0, x + 0.5 * h * k1))
        k3 = np.asarray(rhs(0.0, x + 0.5 * h * k2))
        k4 = np.asarray(rhs(0.0, x + h * k3))
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def unit_range(arr: np.ndarray) -> np.ndarray:
    """Min-max map of each column into [-1, 1]; constant columns map to 0."""
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    span = hi - lo
    live = span > 1e-12
    return np.where(live, 2.0 * (arr - lo) / np.where(live, span, 1.0) - 1.0, 0.0)


def open_loop_mse(f_layers, g_layers, states: np.ndarray, inputs: np.ndarray) -> float:
    """Roll x+ = f(x) + g(u) from the first state; mean squared error."""
    x = states[0]
    pred = np.empty_like(states[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(states.shape[0] - 1):
            x = forward(f_layers, x)[0] + forward(g_layers, inputs[t])[0]
            pred[t] = x
        err = pred - states[1:]
        mse = float(np.mean(err * err))
    return mse if np.isfinite(mse) else float("inf")
