"""Plain multilayer perceptrons as explicit weight/bias/activation stacks.

A network is a tuple of layers, each computing act(W h + b); a layer with
activation None is a linear readout.  "Depth L" throughout the package
means L activated layers with no extra readout, so a 1-layer relu network
is x -> relu(W x + b).

MlpNetwork owns the one forward walk, forward_trace, which also keeps
each layer's input, pre-activation and, on request, activation slope.
It owns the one transpose walk too, backward, which the BPTT trainer and
the dissipativity penalty's gradient share.

The JSON schema round-trips float64 weights losslessly::

    {"layers": [{"rows": 2, "cols": 2,
                 "weight": [...row-major...],
                 "bias": [...] | null,
                 "activation": "tanh" | null}]}
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .activations import Activation, get_activation

__all__ = ["Layer", "MlpNetwork", "save_network", "load_network"]


@dataclass(frozen=True, eq=False)
class Layer:
    """One affine map plus optional elementwise activation."""

    weight: np.ndarray
    bias: np.ndarray | None = None
    activation: str | None = None
    act: Activation | None = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.ndim != 2 or w.size == 0:
            raise ValueError(f"layer weight must be a non-empty matrix, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("layer weight contains non-finite entries")
        object.__setattr__(self, "weight", w)
        if self.bias is not None:
            b = np.asarray(self.bias, dtype=float)
            if b.shape != (w.shape[0],):
                raise ValueError(
                    f"bias shape {b.shape} does not match weight rows {w.shape[0]}"
                )
            if not np.all(np.isfinite(b)):
                raise ValueError("layer bias contains non-finite entries")
            object.__setattr__(self, "bias", b)
        # Looked up once, not on every forward pass; raises on unknown names.
        act = None if self.activation is None else get_activation(self.activation)
        object.__setattr__(self, "act", act)

    @property
    def rows(self) -> int:
        return self.weight.shape[0]

    @property
    def cols(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True, eq=False)
class MlpNetwork:
    """A chain of layers with compatible dimensions."""

    layers: tuple[Layer, ...] = field(default_factory=tuple)

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        for i in range(1, len(layers)):
            prev, cur = layers[i - 1], layers[i]
            if cur.cols != prev.rows:
                raise ValueError(
                    f"layer {i} expects {cur.cols} inputs but layer {i - 1} "
                    f"produces {prev.rows}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].cols

    @property
    def output_dim(self) -> int:
        return self.layers[-1].rows

    def forward(self, x) -> np.ndarray:
        """Evaluate the network at a point (dim,) or a batch (n, dim)."""
        return self.forward_trace(x)[0]

    def forward_trace(self, x, slopes: bool = False):
        """Evaluate and return (output, trace): the package's one forward walk.

        x is one point (dim,) or a batch (n, dim); a point is the batch
        of one, bit for bit, since h @ W.T on a vector equals W @ h.
        trace[l] is (h_l, z_l, s_l): layer l's input, its pre-activation
        z_l = h_l W_l^T + b_l (for an unactivated readout, the output
        itself), and, only when slopes is set, the activation's derivative
        at z_l from value_and_slope; s_l is None for a linear layer.  The
        output and every z_l are the same bits with or without slopes.
        """
        h = np.asarray(x, dtype=float)
        if h.ndim not in (1, 2) or h.shape[-1] != self.input_dim:
            raise ValueError(
                f"input shape {h.shape} does not match network input "
                f"dimension {self.input_dim}"
            )
        trace = []
        for layer in self.layers:
            z = h @ layer.weight.T
            if layer.bias is not None:
                z = z + layer.bias
            s = None
            if layer.act is None:
                out = z
            elif slopes:
                out, s = layer.act.value_and_slope(z)
            else:
                out = layer.act.fn(z)
            trace.append((h, z, s))
            h = out
        return h, trace

    def backward(self, trace, gout, gw, gb):
        """The one transpose walk: pull an output gradient back to the input.

        trace is forward_trace's, or any list of (h_l, _, s_l) with the
        same meaning, for a batch: gout is (n, output_dim).  Layer l's
        pre-activation gradient is gz = gout * s_l (gout where s_l is
        None); gz^T h_l is added into gw[l] and, where gb[l] is not None,
        gz summed over the batch into gb[l].  Returns the (n, input_dim)
        input gradient.
        """
        for l in range(len(self.layers) - 1, -1, -1):
            h, _, s = trace[l]
            gz = gout if s is None else gout * s
            gw[l] += gz.T @ h
            if gb[l] is not None:
                gb[l] += gz.sum(axis=0)
            gout = gz @ self.layers[l].weight
        return gout

    def to_dict(self) -> dict:
        return {
            "layers": [
                {
                    "rows": layer.rows,
                    "cols": layer.cols,
                    "weight": layer.weight.reshape(-1).tolist(),
                    "bias": None if layer.bias is None else layer.bias.tolist(),
                    "activation": layer.activation,
                }
                for layer in self.layers
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MlpNetwork":
        try:
            raw_layers = data["layers"]
        except (KeyError, TypeError):
            raise ValueError("network document must contain a 'layers' list") from None
        layers = []
        for i, spec in enumerate(raw_layers):
            rows, cols = int(spec["rows"]), int(spec["cols"])
            weight = np.asarray(spec["weight"], dtype=float)
            if weight.size != rows * cols:
                raise ValueError(
                    f"layer {i}: weight has {weight.size} entries, expected "
                    f"{rows}x{cols}"
                )
            bias = spec.get("bias")
            layers.append(
                Layer(
                    weight=weight.reshape(rows, cols),
                    bias=None if bias is None else np.asarray(bias, dtype=float),
                    activation=spec.get("activation"),
                )
            )
        return cls(layers=tuple(layers))


def save_network(net: MlpNetwork, path) -> None:
    artifacts.write_json(path, net.to_dict())


def load_network(path) -> MlpNetwork:
    return MlpNetwork.from_dict(artifacts.read_json(path))
