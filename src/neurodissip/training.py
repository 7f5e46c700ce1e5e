"""Gradient-based identification of block state-space models.

The model under training is x+ = f(x) + g(u) with both maps plain MLPs.
Everything here is reverse-mode by hand: the rollout loss is unrolled
over the horizon and backpropagated through time, and the optimizers keep
their own state on a flat list of parameter arrays.  Each step reads both
maps' forward walk with activation slopes (MlpNetwork.forward_trace) and
pulls the error back through their transpose walk (MlpNetwork.backward),
the same walk the dissipativity penalty's gradient takes.  That forward
pass is the one rollout of x+ = f(x) + g(u): the open-loop error that
model selection reads is its batch of one window, run without slopes.

Weights can be free matrices or structured parametrizations (row-sum,
SVD, or disc-confined factorizations from the structured module).  A
parametrized weight stores its raw parameters, and the trainer realizes
both maps from them once before the first batch and once after each
optimizer update, so the spectral guarantee holds after every update by
construction rather than by projection.  That one realized pair is what
the next batch's forward and backward pass, the regularizers, the dev
error and model selection all read.

Batches are processed as one stacked tensor per step, which is the only
parallelism the loop needs; the external contract is single-threaded.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import artifacts
from .dissipativity import dissipativity_penalty, require_square
from .network import Layer, MlpNetwork, load_network, save_network
from .structured import FreeWeight, StructuredWeight

__all__ = [
    "BlockSSM",
    "TrainConfig",
    "TrainingData",
    "TrainingDiverged",
    "TrainReport",
    "Adam",
    "Sgd",
    "ConstrainedLayer",
    "ConstrainedNetwork",
    "ConstrainedSSM",
    "make_mlp",
    "open_loop_mse",
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
        require_square(self.f_net)
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


def open_loop_mse(model: BlockSSM, states, inputs) -> float:
    """Whole-trace open-loop error from states[0], as one window of the
    BPTT forward pass without slopes; infinite if the rollout blows up."""
    states = np.asarray(states, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    n = states.shape[0]
    if n < 2:
        raise ValueError("need at least two states for an open-loop error")
    if inputs.shape[0] < n - 1:
        raise ValueError(f"{n} states need {n - 1} input rows, got {inputs.shape[0]}")
    mse = _bptt_forward(model.f_net, model.g_net, states[None],
                        inputs[None, : n - 1], slopes=False)[0]
    return mse if np.isfinite(mse) else float(np.inf)


# --- the reverse-mode core -------------------------------------------------

def _bptt_forward(f_net: MlpNetwork, g_net: MlpNetwork, xs, us, slopes: bool = True):
    """Forward pass over a window batch: the one loop over x+ = f(x) + g(u).

    xs is (B, horizon+1, n_x) measured states, us (B, horizon, n_u).
    Returns the loss, each step's forward_trace of both maps (with z
    dropped), and the prediction errors.  slopes is forward_trace's flag,
    and the traces are kept (with slopes) only when it is set.
    """
    b, steps = us.shape[0], us.shape[1]
    n_x = xs.shape[2]
    xh = xs[:, 0]
    f_traces, g_traces = [], []
    err = np.empty((b, steps, n_x))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            out_f, f_trace = f_net.forward_trace(xh, slopes)
            out_g, g_trace = g_net.forward_trace(us[:, t], slopes)
            if slopes:
                # The transpose walk reads only each layer's input and
                # slope.  Dropping z keeps the horizon's pre-activations
                # from staying alive: they raised training's peak RSS by
                # about 4 MB on the identification presets.
                f_traces.append([(h, None, s) for h, _, s in f_trace])
                g_traces.append([(h, None, s) for h, _, s in g_trace])
            xh = out_f + out_g
            err[:, t] = xh - xs[:, t + 1]
        loss = float(np.sum(err * err) / err.size)
    return loss, f_traces, g_traces, err


def _bptt_backward(f_net: MlpNetwork, g_net: MlpNetwork, f_traces, g_traces,
                   err):
    """Backpropagate the window-batch loss through time."""
    b, steps, n_x = err.shape
    gw_f, gw_g = ([np.zeros_like(layer.weight) for layer in net.layers]
                  for net in (f_net, g_net))
    gb_f, gb_g = ([None if layer.bias is None else np.zeros_like(layer.bias)
                   for layer in net.layers] for net in (f_net, g_net))
    scale = 2.0 / err.size
    delta = np.zeros((b, n_x))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps - 1, -1, -1):
            delta = delta + scale * err[:, t]
            g_net.backward(g_traces[t], delta, gw_g, gb_g)
            delta = f_net.backward(f_traces[t], delta, gw_f, gb_f)
    return gw_f, gb_f, gw_g, gb_g


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


# --- constrained network plumbing -------------------------------------------

@dataclass
class ConstrainedLayer:
    """One trainable layer: a weight parametrization, bias, activation."""

    weight: StructuredWeight
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

    def collect(self, weight_grads, bias_grads):
        """Map realized-weight gradients onto the flat raw-parameter list.

        Returns (params, grads) aligned pairwise: each weight's raw
        parameters with their vjp gradients, then its bias, left out of
        both where the bias or its gradient is None.
        """
        params, grads = [], []
        for layer, gw, gb in zip(self.layers, weight_grads, bias_grads):
            params.extend(layer.weight.params())
            grads.extend(layer.weight.vjp(gw))
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

    Weights are ``FreeWeight`` draws (standard normal over sqrt(fan-in))
    from one stream; biases start at zero.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValueError("dims needs an input and an output size")
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(dims) - 1):
        layers.append(Layer(
            weight=FreeWeight.draw(dims[i + 1], dims[i], 0.0, 1.0, rng).realize(),
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
        """This class's fields in order, also on a subclass that adds more."""
        data = asdict(self)
        return {f.name: data[f.name] for f in fields(TrainConfig)}


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
    def from_dataset(cls, dataset) -> "TrainingData":
        """Adopt a plant dataset, min-max normalized to [-1, 1].

        The dataset's three positional splits become the named ones here.
        """
        train, dev, test = dataset.splits
        return cls(states=dataset.normalized_states(),
                   inputs=dataset.normalized_inputs(),
                   splits={"train": train, "dev": dev, "test": test})

    def split_arrays(self, name: str):
        lo, hi = self.splits[name]
        return self.states[lo:hi], self.inputs[lo:hi]


class TrainingDiverged(RuntimeError):
    """Loss, regularizer or a parameter went non-finite; names the batch."""

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


# --- the training loop --------------------------------------------------------

def _as_constrained(model):
    if isinstance(model, ConstrainedSSM):
        return model.f, model.g
    if isinstance(model, BlockSSM):
        return (ConstrainedNetwork.from_network(model.f_net),
                ConstrainedNetwork.from_network(model.g_net))
    raise TypeError(f"cannot train a {type(model).__name__}")


# Anchors drawn per epoch for the dissipativity regularizer; the box is
# the normalized state range, so the penalty surveys the data region.
_DISS_ANCHORS = 32


def train(model, data: TrainingData, config: TrainConfig) -> TrainReport:
    """Fit the block model to the data's train split.

    Windows of horizon+1 states are shuffled each epoch and processed in
    batches; model selection picks the epoch with the lowest open-loop
    error over the dev split.  Deterministic given (data, config, seed).
    Raises TrainingDiverged, naming the epoch, batch and window starts,
    as soon as a batch loss or the dissipativity regularizer goes
    non-finite, or an update leaves a weight or bias non-finite.

    Regularizer weights are plain floats: ``l1``/``l2`` act on every
    realized weight matrix, while ``dissipativity`` scales the mean
    excess operator norm of the state map over 32 anchors redrawn each
    epoch from the [-1, 1] normalized state box.
    """
    f_cnet, g_cnet = _as_constrained(model)
    # The one realized pair: rebuilt after every update, read by the next
    # batch, the penalty, the dev error and model selection alike.
    realized = BlockSSM(f_net=f_cnet.realize(), g_net=g_cnet.realize())
    n_x, n_u = realized.state_dim, realized.input_dim
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
            batch = bi // config.batch
            f_net, g_net = realized.f_net, realized.g_net
            xs = data.states[chunk[:, None] + offs_x]
            us = data.inputs[chunk[:, None] + offs_u]
            loss, f_tr, g_tr, err = _bptt_forward(f_net, g_net, xs, us)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {batch}",
                    epoch, batch, chunk,
                )
            gw_f, gb_f, gw_g, gb_g = _bptt_backward(
                f_net, g_net, f_tr, g_tr, err
            )
            reg_total = 0.0
            for gw, layer in zip(gw_f + gw_g, f_net.layers + g_net.layers):
                w = layer.weight
                if l2:
                    gw += 2.0 * l2 * w
                    reg_total += l2 * float(np.sum(w * w))
                if l1:
                    gw += l1 * np.sign(w)
                    reg_total += l1 * float(np.sum(np.abs(w)))
            if diss_weight > 0.0:
                d_value, d_grads = dissipativity_penalty(f_net, anchors)
                if not np.isfinite(d_value):
                    raise TrainingDiverged(
                        f"non-finite regularizer at epoch {epoch}, "
                        f"batch {batch}",
                        epoch, batch, chunk,
                    )
                reg_total += diss_weight * d_value
                for gw, dg in zip(gw_f, d_grads):
                    gw += diss_weight * dg

            params, grads = f_cnet.collect(gw_f, gb_f)
            params_g, grads_g = g_cnet.collect(gw_g, gb_g)
            opt.step(params + params_g, grads + grads_g,
                     config.learning_rate)
            try:
                realized = BlockSSM(f_net=f_cnet.realize(),
                                    g_net=g_cnet.realize())
            except ValueError:  # Layer rejects a non-finite weight or bias
                raise TrainingDiverged(
                    f"parameters went non-finite at epoch {epoch}, "
                    f"batch {batch}",
                    epoch, batch, chunk,
                ) from None
            batch_losses.append(loss)
            batch_regs.append(reg_total)

        train_losses.append(float(np.mean(batch_losses)))
        reg_values.append(float(np.mean(batch_regs)))
        dev_loss = open_loop_mse(realized, dev_states, dev_inputs)
        dev_losses.append(dev_loss)
        # Epoch 0 stands until a finite dev loss beats it; min keeps a
        # nan loss from blocking every later one.
        if best_model is None or dev_loss < best_dev:
            best_epoch, best_model = epoch, realized
            best_dev = min(best_dev, dev_loss)

    return TrainReport(
        train_losses=train_losses,
        dev_losses=dev_losses,
        regularizer_values=reg_values,
        best_epoch=best_epoch,
        best_model=best_model,
        final_model=realized,
        config=config,
    )


# --- checkpoints ---------------------------------------------------------------

def save_checkpoint(model: BlockSSM, directory, report: TrainReport | None = None
                    ) -> None:
    """Write f_net.json / g_net.json (and report.json when given)."""
    directory = Path(directory)
    save_network(model.f_net, directory / "f_net.json")
    save_network(model.g_net, directory / "g_net.json")
    if report is not None:
        artifacts.write_json(directory / "report.json", report.to_dict())


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
    report = artifacts.read_json(report_path) if report_path.exists() else None
    return model, report
