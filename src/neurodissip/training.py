"""Gradient-based identification of block state-space models.

The model under training is x+ = f(x) + g(u) with both maps plain MLPs.
Everything here is reverse-mode by hand: the rollout loss is unrolled
over the horizon and backpropagated through time, activations are
differentiated analytically, and the optimizers keep their own state on
a flat list of parameter arrays.

Weights can be free matrices or structured parametrizations (row-sum,
SVD, or disc-confined factorizations from the structured module).  A
parametrized weight stores its raw parameters and is re-realized from
them at every step, so its spectral guarantee holds after every
optimizer update by construction rather than by projection.

Batches are processed as one stacked tensor per step, which is the only
parallelism the loop needs; the external contract is single-threaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linalg
from .activations import get_activation, ray_gains, secant_gains
from .network import Layer, MlpNetwork, load_network, save_network
from .structured import (
    _logistic,
    damping_interval,
    gershgorin_from_params,
    householder_orthogonal,
    pf_from_params,
    spectral_from_params,
)

__all__ = [
    "BlockSSM",
    "TrainConfig",
    "TrainingData",
    "TrainingDiverged",
    "GradientTape",
    "TrainReport",
    "Adam",
    "Sgd",
    "FreeWeight",
    "PfWeight",
    "SpectralWeight",
    "SpectralFreeWeight",
    "GershgorinWeight",
    "ConstrainedLayer",
    "ConstrainedNetwork",
    "ConstrainedSSM",
    "make_mlp",
    "ssm_step",
    "ssm_rollout",
    "rollout_loss",
    "backward",
    "open_loop_mse",
    "dissipativity_regularizer",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class BlockSSM:
    """Additive state-space model: the state map plus the input map."""

    f_net: MlpNetwork
    g_net: MlpNetwork

    def __post_init__(self):
        if self.f_net.input_dim != self.f_net.output_dim:
            raise ValueError(
                f"state map must be square, got {self.f_net.input_dim} -> "
                f"{self.f_net.output_dim}"
            )
        if self.g_net.output_dim != self.f_net.output_dim:
            raise ValueError(
                f"output dims disagree: state map produces "
                f"{self.f_net.output_dim}, input map {self.g_net.output_dim}"
            )

    @property
    def state_dim(self) -> int:
        return self.f_net.output_dim

    @property
    def input_dim(self) -> int:
        return self.g_net.input_dim


def ssm_step(model: BlockSSM, x, u) -> np.ndarray:
    """One transition x+ = f(x) + g(u)."""
    return model.f_net.forward(x) + model.g_net.forward(u)


def ssm_rollout(model: BlockSSM, x0, inputs) -> np.ndarray:
    """Iterate the model from x0 through a whole input sequence.

    Returns len(inputs)+1 states; once a state goes non-finite the rest
    of the record is NaN.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    x = np.asarray(x0, dtype=float).reshape(-1)
    states = np.full((inputs.shape[0] + 1, model.state_dim), np.nan)
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(inputs.shape[0]):
            x = ssm_step(model, x, inputs[t])
            if not np.isfinite(x).all():
                break
            states[t + 1] = x
    return states


def rollout_loss(model: BlockSSM, states, inputs, horizon: int) -> float:
    """Open-loop MSE over one window.

    The model is iterated from the window's first state using the true
    inputs; the loss averages squared error over the horizon steps and
    the state dimensions.
    """
    states = np.asarray(states, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    _check_window(model, states, inputs, horizon)
    spec_f, spec_g = _net_spec(model.f_net), _net_spec(model.g_net)
    loss, *_ = _bptt_forward(spec_f, spec_g, states[None, : horizon + 1],
                             inputs[None, :horizon])
    return loss


def open_loop_mse(model: BlockSSM, states, inputs) -> float:
    """Whole-trace open-loop error; infinite if the rollout blows up."""
    states = np.asarray(states, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    n = states.shape[0]
    if n < 2:
        raise ValueError("need at least two states for an open-loop error")
    predicted = ssm_rollout(model, states[0], inputs[: n - 1])
    with np.errstate(over="ignore", invalid="ignore"):
        err = predicted[1:] - states[1:]
        mse = float(np.mean(err * err))
    return mse if np.isfinite(mse) else float(np.inf)


def _check_window(model, states, inputs, horizon):
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if states.ndim != 2 or states.shape[1] != model.state_dim:
        raise ValueError(
            f"window states must be (n, {model.state_dim}), got {states.shape}"
        )
    if states.shape[0] < horizon + 1:
        raise ValueError(
            f"window holds {states.shape[0]} states but horizon {horizon} "
            f"needs horizon+1"
        )
    if inputs.ndim != 2 or inputs.shape[1] != model.input_dim:
        raise ValueError(
            f"window inputs must be (n, {model.input_dim}), got {inputs.shape}"
        )
    if inputs.shape[0] < horizon:
        raise ValueError(
            f"window holds {inputs.shape[0]} inputs but horizon {horizon} "
            f"needs that many"
        )


# --- the reverse-mode core -------------------------------------------------

def _net_spec(net: MlpNetwork):
    """(weight, bias, activation) triples the hot loops iterate over."""
    return [(layer.weight, layer.bias, layer.act) for layer in net.layers]


def _mlp_forward(spec, h):
    """Batched forward through one spec; returns output, inputs, slopes.

    A layer's slope is its activation's derivative at the pre-activation
    (None for a linear layer), which is all backward needs of it.
    """
    hs, slopes = [], []
    for w, b, act in spec:
        hs.append(h)
        z = h @ w.T
        if b is not None:
            z = z + b
        if act is None:
            h, slope = z, None
        else:
            h, slope = act.value_and_slope(z)
        slopes.append(slope)
    return h, hs, slopes


def _mlp_backward(spec, hs, slopes, gout, gw, gb):
    """Accumulate parameter gradients; returns the input gradient."""
    for l in range(len(spec) - 1, -1, -1):
        w, b, _ = spec[l]
        gz = gout if slopes[l] is None else gout * slopes[l]
        gw[l] += gz.T @ hs[l]
        if b is not None:
            gb[l] += gz.sum(axis=0)
        gout = gz @ w
    return gout


def _bptt_forward(spec_f, spec_g, xs, us):
    """Forward pass over a window batch.

    xs is (B, horizon+1, n_x) measured states, us (B, horizon, n_u).
    Returns the loss, the per-step traces, and the prediction errors.
    """
    b, steps = us.shape[0], us.shape[1]
    n_x = xs.shape[2]
    xh = xs[:, 0]
    f_traces, g_traces = [], []
    err = np.empty((b, steps, n_x))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            out_f, hf, sf = _mlp_forward(spec_f, xh)
            out_g, hg, sg = _mlp_forward(spec_g, us[:, t])
            f_traces.append((hf, sf))
            g_traces.append((hg, sg))
            xh = out_f + out_g
            err[:, t] = xh - xs[:, t + 1]
        loss = float(np.sum(err * err) / err.size)
    return loss, f_traces, g_traces, err


def _bptt_backward(spec_f, spec_g, f_traces, g_traces, err):
    """Backpropagate the window-batch loss through time."""
    b, steps, n_x = err.shape
    gw_f = [np.zeros_like(w) for w, _, _ in spec_f]
    gb_f = [None if bi is None else np.zeros_like(bi) for _, bi, _ in spec_f]
    gw_g = [np.zeros_like(w) for w, _, _ in spec_g]
    gb_g = [None if bi is None else np.zeros_like(bi) for _, bi, _ in spec_g]
    scale = 2.0 / err.size
    delta = np.zeros((b, n_x))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps - 1, -1, -1):
            delta = delta + scale * err[:, t]
            hg, sg = g_traces[t]
            _mlp_backward(spec_g, hg, sg, delta, gw_g, gb_g)
            hf, sf = f_traces[t]
            delta = _mlp_backward(spec_f, hf, sf, delta, gw_f, gb_f)
    return gw_f, gb_f, gw_g, gb_g


@dataclass
class GradientTape:
    """Gradients of one window's rollout loss, aligned with the layers.

    Bias slots are None exactly where the layer has no bias.  The step
    records hold each step's layer inputs and activation slopes (the
    derivative at the pre-activation, None for a linear layer) in forward
    order.
    """

    loss: float
    f_weight_grads: list
    f_bias_grads: list
    g_weight_grads: list
    g_bias_grads: list
    f_steps: list
    g_steps: list


def backward(model: BlockSSM, states, inputs, horizon: int) -> GradientTape:
    """Gradients of rollout_loss for every weight and bias of both maps."""
    states = np.asarray(states, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    _check_window(model, states, inputs, horizon)
    spec_f, spec_g = _net_spec(model.f_net), _net_spec(model.g_net)
    loss, f_traces, g_traces, err = _bptt_forward(
        spec_f, spec_g, states[None, : horizon + 1], inputs[None, :horizon]
    )
    gw_f, gb_f, gw_g, gb_g = _bptt_backward(
        spec_f, spec_g, f_traces, g_traces, err
    )
    return GradientTape(
        loss=loss,
        f_weight_grads=gw_f,
        f_bias_grads=gb_f,
        g_weight_grads=gw_g,
        g_bias_grads=gb_g,
        f_steps=f_traces,
        g_steps=g_traces,
    )


# --- optimizers -------------------------------------------------------------

class Sgd:
    """Plain gradient descent on a flat parameter list."""

    def step(self, params, grads, lr: float) -> None:
        for p, g in zip(params, grads):
            p -= lr * g


class Adam:
    """Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.count = 0
        self._m = None
        self._v = None

    def step(self, params, grads, lr: float) -> None:
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        if len(params) != len(self._m):
            raise ValueError("parameter list changed size between steps")
        self.count += 1
        c1 = 1.0 - self.beta1 ** self.count
        c2 = 1.0 - self.beta2 ** self.count
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


# --- trainable weight parametrizations --------------------------------------

class TrainableWeight:
    """A weight matrix defined by raw parameters.

    params() returns the live arrays the optimizer mutates; realize()
    maps them to the weight; param_grads(g) pulls a weight-space gradient
    back to raw-parameter space.  penalty()/penalty_grads() expose a
    structural soft penalty (zero for everything except the free-factor
    SVD form).
    """

    def params(self) -> list:
        raise NotImplementedError

    def realize(self) -> np.ndarray:
        raise NotImplementedError

    def param_grads(self, grad) -> list:
        raise NotImplementedError

    def penalty(self) -> float:
        return 0.0

    def penalty_grads(self):
        return None


class FreeWeight(TrainableWeight):
    """An unconstrained matrix; raw parameters are the entries themselves."""

    def __init__(self, value):
        self.value = np.array(value, dtype=float)
        if self.value.ndim != 2:
            raise ValueError("weight must be a matrix")

    def params(self):
        return [self.value]

    def realize(self):
        return self.value

    def param_grads(self, grad):
        return [np.asarray(grad, dtype=float)]


class PfWeight(TrainableWeight):
    """Row-stochastic-times-damping weight with row sums inside the bounds."""

    def __init__(self, a_raw, m_raw, lambda_min: float, lambda_max: float):
        self.a_raw = np.array(a_raw, dtype=float)
        self.m_raw = np.array(m_raw, dtype=float)
        self.lambda_min = float(lambda_min)
        self.lambda_max = float(lambda_max)
        self.realize()  # validates shapes and bounds

    @classmethod
    def from_seed(cls, n: int, lambda_min: float, lambda_max: float,
                  seed: int = 0) -> "PfWeight":
        rng = np.random.default_rng(seed)
        m_raw = rng.standard_normal((n, n))
        a_raw = rng.standard_normal((n, n))
        return cls(a_raw, m_raw, lambda_min, lambda_max)

    def params(self):
        return [self.a_raw, self.m_raw]

    def realize(self):
        return pf_from_params(self.a_raw, self.m_raw,
                              self.lambda_min, self.lambda_max)

    def param_grads(self, grad):
        grad = np.asarray(grad, dtype=float)
        shifted = self.a_raw - self.a_raw.max(axis=1, keepdims=True)
        expa = np.exp(shifted)
        softmax = expa / expa.sum(axis=1, keepdims=True)
        p = _logistic(self.m_raw)
        damping = self.lambda_max - (self.lambda_max - self.lambda_min) * p
        gp = grad * damping
        ga = softmax * (gp - np.sum(gp * softmax, axis=1, keepdims=True))
        gm = grad * softmax * (-(self.lambda_max - self.lambda_min)
                               * p * (1.0 - p))
        return [ga, gm]


class GershgorinWeight(TrainableWeight):
    """Disc-confined weight; only the off-diagonal mass matrix is trained."""

    def __init__(self, m_raw, lambda_min: float, lambda_max: float,
                 complex_conjugate: bool = False):
        self.m_raw = np.array(m_raw, dtype=float)
        self.lambda_min = float(lambda_min)
        self.lambda_max = float(lambda_max)
        self.complex_conjugate = bool(complex_conjugate)
        self.realize()

    @classmethod
    def from_seed(cls, n: int, lambda_min: float, lambda_max: float,
                  seed: int = 0, complex_conjugate: bool = False
                  ) -> "GershgorinWeight":
        rng = np.random.default_rng(seed)
        m_raw = rng.uniform(0.0, 1.0, (n, n))
        return cls(m_raw, lambda_min, lambda_max, complex_conjugate)

    def params(self):
        return [self.m_raw]

    def realize(self):
        return gershgorin_from_params(self.m_raw, self.lambda_min,
                                      self.lambda_max, self.complex_conjugate)

    def param_grads(self, grad):
        grad = np.asarray(grad, dtype=float)
        m = self.m_raw.copy()
        np.fill_diagonal(m, 0.0)
        if self.complex_conjugate:
            m = (m - m.T) / 2.0
        s = np.sum(np.abs(m), axis=1, keepdims=True)
        s[s == 0.0] = 1.0
        rad = (self.lambda_max - self.lambda_min) / 2.0
        # y = rad * m / s with s the row L1 mass; the second term carries
        # the dependence of s on each entry through d|m|/dm = sign(m).
        row_dot = np.sum(grad * m, axis=1, keepdims=True)
        gn = rad * (grad / s - row_dot / (s * s) * np.sign(m))
        if self.complex_conjugate:
            gn = (gn - gn.T) / 2.0
        np.fill_diagonal(gn, 0.0)
        return [gn]


def _householder_matrices(vectors):
    mats = []
    for v in vectors:
        s = float(v @ v)
        if s == 0.0:
            raise ValueError("zero reflector vector")
        mats.append(np.eye(v.shape[0]) - (2.0 / s) * np.outer(v, v))
    return mats


def _householder_backward(vectors, grad_q):
    """Raw-vector gradients of a product of reflectors.

    The product is Q = H(v_1) ... H(v_m) with H(v) = I - (2/s) v v^T and
    s = v^T v, matching householder_orthogonal up to the explicit
    normalization (which the 2/s factor absorbs).
    """
    mats = _householder_matrices(vectors)
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


class SpectralWeight(TrainableWeight):
    """SVD-factorized weight with reflector-product orthogonal factors."""

    def __init__(self, u_vectors, v_vectors, sigma_raw,
                 lambda_min: float, lambda_max: float):
        self.u_vectors = np.array(u_vectors, dtype=float)
        self.v_vectors = np.array(v_vectors, dtype=float)
        self.sigma_raw = np.array(sigma_raw, dtype=float).reshape(-1)
        self.lambda_min = float(lambda_min)
        self.lambda_max = float(lambda_max)
        self.realize()

    @classmethod
    def from_seed(cls, rows: int, cols: int, lambda_min: float,
                  lambda_max: float, seed: int = 0) -> "SpectralWeight":
        rng = np.random.default_rng(seed)
        u_vectors = np.stack([rng.standard_normal(rows) for _ in range(rows)])
        v_vectors = np.stack([rng.standard_normal(cols) for _ in range(cols)])
        sigma_raw = rng.standard_normal(min(rows, cols))
        return cls(u_vectors, v_vectors, sigma_raw, lambda_min, lambda_max)

    def params(self):
        return [self.u_vectors, self.v_vectors, self.sigma_raw]

    def realize(self):
        return spectral_from_params(list(self.u_vectors), list(self.v_vectors),
                                    self.sigma_raw, self.lambda_min,
                                    self.lambda_max)

    def param_grads(self, grad):
        grad = np.asarray(grad, dtype=float)
        u = householder_orthogonal(list(self.u_vectors))
        v = householder_orthogonal(list(self.v_vectors))
        k = self.sigma_raw.shape[0]
        sig = damping_interval(self.sigma_raw, self.lambda_min, self.lambda_max)
        uk, vk = u[:, :k], v[:k, :]
        g_sig = np.einsum("ai,ab,ib->i", uk, grad, vk)
        p = _logistic(self.sigma_raw)
        g_sigma_raw = g_sig * (-(self.lambda_max - self.lambda_min)
                               * p * (1.0 - p))
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


class SpectralFreeWeight(TrainableWeight):
    """SVD-factorized weight with free factors and a soft orthogonality pull.

    The documented alternative to reflector products: U and V are plain
    matrices, and penalty() adds softplus(||U^T U - I||_F^2) per factor so
    training keeps them near the orthogonal manifold without enforcing it.
    The singular-value bounds remain hard (they come from the logistic
    squash), only orthogonality is soft, so the spectral guarantee is
    approximate for this variant.
    """

    def __init__(self, u_mat, v_mat, sigma_raw, lambda_min: float,
                 lambda_max: float, penalty_weight: float = 1.0):
        self.u_mat = np.array(u_mat, dtype=float)
        self.v_mat = np.array(v_mat, dtype=float)
        self.sigma_raw = np.array(sigma_raw, dtype=float).reshape(-1)
        self.lambda_min = float(lambda_min)
        self.lambda_max = float(lambda_max)
        self.penalty_weight = float(penalty_weight)
        self.realize()

    @classmethod
    def from_seed(cls, rows: int, cols: int, lambda_min: float,
                  lambda_max: float, seed: int = 0,
                  penalty_weight: float = 1.0) -> "SpectralFreeWeight":
        rng = np.random.default_rng(seed)
        u_mat = householder_orthogonal(
            [rng.standard_normal(rows) for _ in range(rows)]
        )
        v_mat = householder_orthogonal(
            [rng.standard_normal(cols) for _ in range(cols)]
        )
        sigma_raw = rng.standard_normal(min(rows, cols))
        return cls(u_mat, v_mat, sigma_raw, lambda_min, lambda_max,
                   penalty_weight)

    def params(self):
        return [self.u_mat, self.v_mat, self.sigma_raw]

    def realize(self):
        k = self.sigma_raw.shape[0]
        sig = damping_interval(self.sigma_raw, self.lambda_min, self.lambda_max)
        return self.u_mat[:, :k] @ np.diag(sig) @ self.v_mat[:k, :]

    def param_grads(self, grad):
        grad = np.asarray(grad, dtype=float)
        k = self.sigma_raw.shape[0]
        sig = damping_interval(self.sigma_raw, self.lambda_min, self.lambda_max)
        uk, vk = self.u_mat[:, :k], self.v_mat[:k, :]
        g_sig = np.einsum("ai,ab,ib->i", uk, grad, vk)
        p = _logistic(self.sigma_raw)
        g_sigma_raw = g_sig * (-(self.lambda_max - self.lambda_min)
                               * p * (1.0 - p))
        gu = np.zeros_like(self.u_mat)
        gu[:, :k] = grad @ vk.T * sig
        gv = np.zeros_like(self.v_mat)
        gv[:k, :] = sig[:, None] * (uk.T @ grad)
        return [gu, gv, g_sigma_raw]

    def _factor_penalties(self):
        out = []
        for mat in (self.u_mat, self.v_mat):
            dev = mat.T @ mat - np.eye(mat.shape[1])
            out.append((float(np.sum(dev * dev)), dev))
        return out

    def penalty(self) -> float:
        total = 0.0
        for q, _ in self._factor_penalties():
            total += float(np.logaddexp(0.0, q))
        return self.penalty_weight * total

    def penalty_grads(self):
        grads = []
        for mat, (q, dev) in zip((self.u_mat, self.v_mat),
                                 self._factor_penalties()):
            grads.append(self.penalty_weight * _logistic(np.asarray(q))
                         * 4.0 * mat @ dev)
        grads.append(np.zeros_like(self.sigma_raw))
        return grads


# --- constrained network plumbing -------------------------------------------

@dataclass
class ConstrainedLayer:
    """One trainable layer: a weight parametrization, bias, activation."""

    weight: TrainableWeight
    bias: np.ndarray | None = None
    activation: str | None = None

    def __post_init__(self):
        if self.bias is not None:
            self.bias = np.array(self.bias, dtype=float).reshape(-1)


class ConstrainedNetwork:
    """An MLP whose weights are trainable parametrizations."""

    def __init__(self, layers):
        self.layers = list(layers)
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        self.realize()  # surfaces dimension mismatches immediately

    @classmethod
    def from_network(cls, net: MlpNetwork) -> "ConstrainedNetwork":
        return cls([
            ConstrainedLayer(
                weight=FreeWeight(layer.weight.copy()),
                bias=None if layer.bias is None else layer.bias.copy(),
                activation=layer.activation,
            )
            for layer in net.layers
        ])

    def realize(self) -> MlpNetwork:
        return MlpNetwork(layers=tuple(
            Layer(
                weight=layer.weight.realize().copy(),
                bias=None if layer.bias is None else layer.bias.copy(),
                activation=layer.activation,
            )
            for layer in self.layers
        ))

    def all_params(self):
        params = []
        for layer in self.layers:
            params.extend(layer.weight.params())
            if layer.bias is not None:
                params.append(layer.bias)
        return params

    def collect(self, weight_grads, bias_grads):
        """Map realized-weight gradients onto the flat raw-parameter list.

        Returns (params, grads) aligned pairwise; bias slots with a None
        gradient are left out of both lists.
        """
        params, grads = [], []
        for layer, gw, gb in zip(self.layers, weight_grads, bias_grads):
            params.extend(layer.weight.params())
            grads.extend(layer.weight.param_grads(np.asarray(gw, dtype=float)))
            if layer.bias is not None and gb is not None:
                params.append(layer.bias)
                grads.append(np.asarray(gb, dtype=float))
        return params, grads


@dataclass
class ConstrainedSSM:
    """Block model whose maps carry trainable weight parametrizations."""

    f: ConstrainedNetwork
    g: ConstrainedNetwork


def make_mlp(dims, activation: str = "gelu", bias: bool = True,
             seed: int = 0) -> MlpNetwork:
    """Gaussian-initialized MLP: hidden layers activated, linear readout.

    Weights are standard normal over sqrt(fan-in); biases start at zero.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValueError("dims needs an input and an output size")
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(dims) - 1):
        w = rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i])
        layers.append(Layer(
            weight=w,
            bias=np.zeros(dims[i + 1]) if bias else None,
            activation=activation if i < len(dims) - 2 else None,
        ))
    return MlpNetwork(layers=tuple(layers))


# --- data and configuration --------------------------------------------------

_KNOWN_REGULARIZERS = ("l1", "l2", "dissipativity")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for train(); defaults are the package's pinned ones."""

    horizon: int = 32
    batch: int = 64
    epochs: int = 300
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    regularizers: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        for name in ("horizon", "batch", "epochs"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; use adam or sgd"
            )
        for key in self.regularizers:
            if key not in _KNOWN_REGULARIZERS:
                known = ", ".join(_KNOWN_REGULARIZERS)
                raise ValueError(f"unknown regularizer {key!r}; known: {known}")

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "batch": self.batch,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "optimizer": self.optimizer,
            "regularizers": dict(self.regularizers),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class TrainingData:
    """State/input record with named contiguous splits."""

    states: np.ndarray
    inputs: np.ndarray
    splits: dict

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        inputs = np.asarray(self.inputs, dtype=float)
        if inputs.ndim == 1:
            inputs = inputs[:, None]
        if states.ndim != 2 or inputs.ndim != 2:
            raise ValueError("states and inputs must be 2-D records")
        if states.shape[0] != inputs.shape[0]:
            raise ValueError(
                f"states length {states.shape[0]} and inputs length "
                f"{inputs.shape[0]} disagree"
            )
        n = states.shape[0]
        for name in ("train", "dev", "test"):
            if name not in self.splits:
                raise ValueError(f"missing split {name!r}")
        for name, (lo, hi) in self.splits.items():
            if not (0 <= lo < hi <= n):
                raise ValueError(
                    f"split {name!r} range ({lo}, {hi}) is outside the "
                    f"record of length {n}"
                )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(
            self, "splits",
            {k: (int(lo), int(hi)) for k, (lo, hi) in self.splits.items()},
        )

    @classmethod
    def from_dataset(cls, dataset, normalize: bool = True) -> "TrainingData":
        """Adopt a plant dataset, min-max normalized to [-1, 1] by default.

        The dataset's three positional splits become the named ones here.
        """
        if normalize:
            states = dataset.normalized_states()
            inputs = dataset.normalized_inputs()
        else:
            states = dataset.states.copy()
            inputs = dataset.inputs.copy()
        train, dev, test = dataset.splits
        return cls(states=states, inputs=inputs,
                   splits={"train": train, "dev": dev, "test": test})

    def split_arrays(self, name: str):
        lo, hi = self.splits[name]
        return self.states[lo:hi], self.inputs[lo:hi]


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries which batch blew up."""

    def __init__(self, message, epoch: int, batch_index: int, window_starts):
        super().__init__(message)
        self.epoch = epoch
        self.batch_index = batch_index
        self.window_starts = list(int(s) for s in np.asarray(window_starts))


@dataclass
class TrainReport:
    """Per-epoch record plus the selected and the last realized models."""

    train_losses: list
    dev_losses: list
    regularizer_values: list
    best_epoch: int
    best_model: BlockSSM
    final_model: BlockSSM
    config: TrainConfig

    @property
    def best_dev_loss(self) -> float:
        return self.dev_losses[self.best_epoch]

    def to_dict(self) -> dict:
        return {
            "train_losses": [float(v) for v in self.train_losses],
            "dev_losses": [float(v) for v in self.dev_losses],
            "regularizer_values": [float(v) for v in self.regularizer_values],
            "best_epoch": int(self.best_epoch),
            "best_dev_loss": float(self.best_dev_loss),
            "config": self.config.to_dict(),
        }


# --- the dissipativity regularizer ------------------------------------------

def dissipativity_regularizer(net: MlpNetwork, anchors, mode: str = "linear"):
    """Mean max(1, ||A(x)||_2) over anchors, with weight gradients.

    The gradient goes through the factored product via the leading
    singular pair, holding the activation gains fixed (their dependence
    on the weights is not differentiated; for piecewise-linear
    activations it is not differentiable in the first place).
    """
    anchors = np.asarray(anchors, dtype=float)
    if anchors.ndim != 2 or anchors.shape[1] != net.input_dim:
        raise ValueError(
            f"anchors must be (n, {net.input_dim}), got {anchors.shape}"
        )
    gains_fn = ray_gains if mode == "linear" else secant_gains
    count = len(net.layers)
    grads = [np.zeros_like(layer.weight) for layer in net.layers]
    total = 0.0
    for x in anchors:
        _, zs = net.forward_trace(x)
        gains = [
            gains_fn(layer.act, z) if layer.activation is not None
            else np.ones(layer.rows)
            for layer, z in zip(net.layers, zs)
        ]
        factors = [g[:, None] * layer.weight
                   for g, layer in zip(gains, net.layers)]
        rights = [np.eye(net.input_dim)]
        for f in factors[:-1]:
            rights.append(f @ rights[-1])
        a = factors[-1] @ rights[-1]
        if not np.isfinite(a).all():
            total += np.inf
            continue
        u, s, v = linalg.svd(a)
        norm = float(s[0])
        total += max(1.0, norm)
        if norm <= 1.0:
            continue
        pull = np.outer(u[:, 0], v[:, 0])
        left = np.eye(net.output_dim)
        for i in range(count - 1, -1, -1):
            grads[i] += gains[i][:, None] * (left.T @ pull @ rights[i].T)
            left = left @ factors[i]
    value = total / anchors.shape[0]
    return value, [g / anchors.shape[0] for g in grads]


# --- the training loop --------------------------------------------------------

def _as_constrained(model):
    if isinstance(model, ConstrainedSSM):
        return model.f, model.g
    if isinstance(model, BlockSSM):
        return (ConstrainedNetwork.from_network(model.f_net),
                ConstrainedNetwork.from_network(model.g_net))
    raise TypeError(f"cannot train a {type(model).__name__}")


def _realized_spec(cnet: ConstrainedNetwork):
    spec = []
    for layer in cnet.layers:
        w = layer.weight.realize()
        if not np.isfinite(w).all():
            return None
        act = None if layer.activation is None else get_activation(
            layer.activation
        )
        spec.append((w, layer.bias, act))
    return spec


# Anchors drawn per epoch for the dissipativity regularizer; the box is
# the normalized state range, so the penalty surveys the data region.
_DISS_ANCHORS = 32


def train(model, data: TrainingData, config: TrainConfig) -> TrainReport:
    """Fit the block model to the data's train split.

    Windows of horizon+1 states are shuffled each epoch and processed in
    batches; model selection picks the epoch with the lowest open-loop
    error over the dev split.  Deterministic given (data, config, seed).
    Raises TrainingDiverged as soon as a batch loss goes non-finite.

    Regularizer weights are plain floats: ``l1``/``l2`` act on every
    realized weight matrix, while ``dissipativity`` scales the mean
    excess operator norm of the state map over 32 anchors redrawn each
    epoch from the [-1, 1] normalized state box.
    """
    f_cnet, g_cnet = _as_constrained(model)
    f_probe = f_cnet.realize()
    g_probe = g_cnet.realize()
    BlockSSM(f_net=f_probe, g_net=g_probe)  # dimension contract
    n_x, n_u = f_probe.output_dim, g_probe.input_dim
    if data.states.shape[1] != n_x or data.inputs.shape[1] != n_u:
        raise ValueError(
            f"model is ({n_x} states, {n_u} inputs) but data is "
            f"({data.states.shape[1]}, {data.inputs.shape[1]})"
        )

    lo, hi = data.splits["train"]
    if hi - lo < config.horizon + 1:
        raise ValueError(
            f"train split holds {hi - lo} samples, too short for "
            f"horizon {config.horizon}"
        )
    starts = np.arange(lo, hi - config.horizon)
    dev_states, dev_inputs = data.split_arrays("dev")

    rng = np.random.default_rng(config.seed)
    opt = Adam() if config.optimizer == "adam" else Sgd()
    l1 = float(config.regularizers.get("l1", 0.0))
    l2 = float(config.regularizers.get("l2", 0.0))
    diss_weight = float(config.regularizers.get("dissipativity", 0.0))

    offs_x = np.arange(config.horizon + 1)
    offs_u = np.arange(config.horizon)
    train_losses, dev_losses, reg_values = [], [], []
    best_epoch, best_dev, best_model = -1, np.inf, None

    for epoch in range(config.epochs):
        order = rng.permutation(starts)
        anchors = None
        if diss_weight > 0.0:
            anchors = rng.uniform(-1.0, 1.0, (_DISS_ANCHORS, n_x))
        batch_losses, batch_regs = [], []
        for bi in range(0, order.shape[0], config.batch):
            chunk = order[bi:bi + config.batch]
            spec_f = _realized_spec(f_cnet)
            spec_g = _realized_spec(g_cnet)
            if spec_f is None or spec_g is None:
                raise TrainingDiverged(
                    f"parameters went non-finite at epoch {epoch}, "
                    f"batch {bi // config.batch}",
                    epoch, bi // config.batch, chunk,
                )
            xs = data.states[chunk[:, None] + offs_x]
            us = data.inputs[chunk[:, None] + offs_u]
            loss, f_tr, g_tr, err = _bptt_forward(spec_f, spec_g, xs, us)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, "
                    f"batch {bi // config.batch}",
                    epoch, bi // config.batch, chunk,
                )
            gw_f, gb_f, gw_g, gb_g = _bptt_backward(
                spec_f, spec_g, f_tr, g_tr, err
            )
            reg_total = 0.0
            for gw_list, spec in ((gw_f, spec_f), (gw_g, spec_g)):
                for gw, (w, _, _) in zip(gw_list, spec):
                    if l2:
                        gw += 2.0 * l2 * w
                        reg_total += l2 * float(np.sum(w * w))
                    if l1:
                        gw += l1 * np.sign(w)
                        reg_total += l1 * float(np.sum(np.abs(w)))
            if diss_weight > 0.0:
                realized_f = MlpNetwork(layers=tuple(
                    Layer(weight=w, bias=b,
                          activation=layer.activation)
                    for (w, b, _), layer in zip(spec_f, f_cnet.layers)
                ))
                d_value, d_grads = dissipativity_regularizer(
                    realized_f, anchors
                )
                if not np.isfinite(d_value):
                    raise TrainingDiverged(
                        f"non-finite regularizer at epoch {epoch}, "
                        f"batch {bi // config.batch}",
                        epoch, bi // config.batch, chunk,
                    )
                reg_total += diss_weight * d_value
                for gw, dg in zip(gw_f, d_grads):
                    gw += diss_weight * dg

            params, grads = [], []
            for cnet, gw_list, gb_list in ((f_cnet, gw_f, gb_f),
                                           (g_cnet, gw_g, gb_g)):
                for layer, gw, gb in zip(cnet.layers, gw_list, gb_list):
                    raw = layer.weight.param_grads(gw)
                    pen = layer.weight.penalty_grads()
                    if pen is not None:
                        raw = [r + p for r, p in zip(raw, pen)]
                        reg_total += layer.weight.penalty()
                    params.extend(layer.weight.params())
                    grads.extend(raw)
                    if layer.bias is not None:
                        params.append(layer.bias)
                        grads.append(gb)
            opt.step(params, grads, config.learning_rate)
            batch_losses.append(loss)
            batch_regs.append(reg_total)

        train_losses.append(float(np.mean(batch_losses)))
        reg_values.append(float(np.mean(batch_regs)))
        snapshot = BlockSSM(f_net=f_cnet.realize(), g_net=g_cnet.realize())
        dev_loss = open_loop_mse(snapshot, dev_states, dev_inputs)
        dev_losses.append(dev_loss)
        if dev_loss < best_dev:
            best_epoch, best_dev, best_model = epoch, dev_loss, snapshot

    if best_model is None:
        best_epoch = 0
        best_model = BlockSSM(f_net=f_cnet.realize(), g_net=g_cnet.realize())
    return TrainReport(
        train_losses=train_losses,
        dev_losses=dev_losses,
        regularizer_values=reg_values,
        best_epoch=best_epoch,
        best_model=best_model,
        final_model=BlockSSM(f_net=f_cnet.realize(), g_net=g_cnet.realize()),
        config=config,
    )


# --- checkpoints ---------------------------------------------------------------

def save_checkpoint(model: BlockSSM, directory, report: TrainReport | None = None
                    ) -> None:
    """Write f_net.json / g_net.json (and report.json when given)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_network(model.f_net, directory / "f_net.json")
    save_network(model.g_net, directory / "g_net.json")
    if report is not None:
        with open(directory / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")


def load_checkpoint(directory):
    """Read a checkpoint back; returns (model, report dict or None).

    Resuming continues from the stored weights with a fresh optimizer
    (no moment estimates are persisted).
    """
    directory = Path(directory)
    model = BlockSSM(
        f_net=load_network(directory / "f_net.json"),
        g_net=load_network(directory / "g_net.json"),
    )
    report_path = directory / "report.json"
    report = None
    if report_path.exists():
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    return model, report
