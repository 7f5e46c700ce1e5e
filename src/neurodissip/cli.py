"""Command-line driver tying networks, grids, rollouts, plants, and training together.

Every subcommand reads one ExperimentConfig (from a named preset, a JSON
file, or built-in defaults), optionally patched by ``--set`` dotted-path
overrides, and writes fixed-name artifacts under ``--out``.  Outputs are
deterministic for a given config and seed; the only run-dependent value
is a timestamp kept inside each JSON file's metadata block.

Exit codes: 0 on success, 1 on errors (bad config, runtime failure, PWA
residual above tolerance), 2 when ``certify --assert`` finds no
certificate.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from . import dissipativity, dynamics, plants, structured, training
from .activations import get_activation
from .dissipativity import GridSpec
from .network import Layer, MlpNetwork
from .pwa import extract_pwa, verify_equivalence


class ConfigError(ValueError):
    """A config file, preset, or override failed schema validation."""


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


def _as_tuple(value, kind, name, length=None):
    try:
        out = tuple(kind(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a sequence of {kind.__name__}s")
    if length is not None and len(out) != length:
        raise ConfigError(f"{name} must have length {length}")
    return out


@dataclass(frozen=True)
class NetworkSpec:
    """Depth, width, activation, and bias toggle of an analyzed network."""

    depth: int = 1
    width: int = 2
    activation: str = "relu"
    bias: bool = False

    def __post_init__(self):
        if self.depth < 1 or self.width < 1:
            raise ConfigError("network depth and width must be at least 1")
        try:
            get_activation(self.activation)
        except ValueError:
            raise ConfigError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class MapSpec:
    """Weight parametrization kind and its eigenvalue/singular bounds."""

    kind: str = "gershgorin_complex"
    lambda_min: float = 0.0
    lambda_max: float = 1.0

    def __post_init__(self):
        if self.kind not in structured.MAP_KINDS:
            raise ConfigError(f"unknown map kind {self.kind!r}")
        if not float(self.lambda_min) <= float(self.lambda_max):
            raise ConfigError("lambda_min must not exceed lambda_max")


@dataclass(frozen=True)
class AnalysisSpec:
    """Grid ranges, rollout horizon, and anchor budget for analyses."""

    x_range: tuple = (-6.0, 6.0)
    y_range: tuple = (-6.0, 6.0)
    resolution: int = 120
    horizon: int = 2000
    anchors: int = 400
    mode: str = "linear"
    depths: tuple = (1, 4, 8)
    x0: tuple = (4.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "x_range", _as_tuple(self.x_range, float, "analysis.x_range", 2))
        object.__setattr__(self, "y_range", _as_tuple(self.y_range, float, "analysis.y_range", 2))
        object.__setattr__(self, "depths", _as_tuple(self.depths, int, "analysis.depths"))
        object.__setattr__(self, "x0", _as_tuple(self.x0, float, "analysis.x0"))
        if self.resolution < 1 or self.horizon < 1 or self.anchors < 1:
            raise ConfigError("analysis resolution, horizon, and anchors must be positive")
        if self.mode not in ("linear", "affine"):
            raise ConfigError(f"analysis.mode must be 'linear' or 'affine', got {self.mode!r}")
        if any(d < 1 for d in self.depths):
            raise ConfigError("analysis.depths must be positive")

    def grid(self) -> GridSpec:
        return GridSpec(x_range=self.x_range, y_range=self.y_range,
                        resolution=self.resolution)


@dataclass(frozen=True)
class PlantSpec:
    """Which benchmark plant to simulate and how many samples to record."""

    name: str = "cstr"
    samples: int = 3000
    seed: int = 0
    method: str = "rk4"

    def __post_init__(self):
        if self.name not in ("cstr", "two_tank"):
            raise ConfigError(f"unknown plant {self.name!r}")
        if self.samples < 3:
            raise ConfigError("plant.samples must be at least 3")


@dataclass(frozen=True)
class TrainSpec:
    """Model size and optimizer settings for system identification."""

    width: int = 32
    hidden: int = 2
    activation: str = "gelu"
    horizon: int = 32
    batch: int = 64
    epochs: int = 600
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    regularizers: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.width < 1 or self.hidden < 0:
            raise ConfigError("training width must be positive and hidden nonnegative")
        try:
            get_activation(self.activation)
        except ValueError:
            raise ConfigError(f"unknown activation {self.activation!r}")
        regs = dict(self.regularizers)
        for key, value in regs.items():
            regs[key] = float(value)
        object.__setattr__(self, "regularizers", regs)


_SECTIONS = {
    "network": NetworkSpec,
    "map": MapSpec,
    "analysis": AnalysisSpec,
    "plant": PlantSpec,
    "training": TrainSpec,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a seed plus per-concern sub-specs.

    ``seed`` drives the weight draws (layer i uses seed + i) and, offset
    by one, the bias draws, so toggling ``network.bias`` or swapping
    ``network.activation`` never changes the underlying parameters.
    """

    seed: int = 0
    network: NetworkSpec = field(default_factory=NetworkSpec)
    map: MapSpec = field(default_factory=MapSpec)
    analysis: AnalysisSpec = field(default_factory=AnalysisSpec)
    plant: PlantSpec = field(default_factory=PlantSpec)
    training: TrainSpec = field(default_factory=TrainSpec)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - set(_SECTIONS) - {"seed"}
        if unknown:
            raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
        kwargs: dict = {}
        if "seed" in data:
            kwargs["seed"] = int(data["seed"])
        for name, section_cls in _SECTIONS.items():
            if name not in data:
                continue
            section = data[name]
            if not isinstance(section, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            known = {f.name for f in fields(section_cls)}
            bad = set(section) - known
            if bad:
                raise ConfigError(f"unknown config key {name!r}.{sorted(bad)[0]!r}")
            kwargs[name] = section_cls(**section)
        return cls(**kwargs)

    def to_dict(self) -> dict:
        def plain(value):
            if isinstance(value, tuple):
                return [plain(v) for v in value]
            if isinstance(value, dict):
                return {k: plain(v) for k, v in value.items()}
            return value

        out: dict = {"seed": self.seed}
        for name, section_cls in _SECTIONS.items():
            spec = getattr(self, name)
            out[name] = {f.name: plain(getattr(spec, f.name))
                         for f in fields(section_cls)}
        return out


def parse_config(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return ExperimentConfig.from_dict(data)


def emit_config(config: ExperimentConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def apply_override(data: dict, assignment: str) -> None:
    """Apply one ``section.key=value`` override onto a raw config dict."""
    path, sep, raw = assignment.partition("=")
    if not sep or not path:
        raise ConfigError(f"override must look like key=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    keys = path.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {path!r} crosses a non-object value")
    node[keys[-1]] = value


# ---------------------------------------------------------------------------
# Named presets
# ---------------------------------------------------------------------------

# Curated configurations, named for the behavior they exhibit.  Weight
# seeds are part of the pin: the attractor presets were classified by
# rolling out every start on a coarse grid, and the verdict-grid presets
# by a full 120x120 sweep.
PRESETS: dict = {
    "origin-attractor": {
        "network": {"depth": 1, "activation": "relu"},
        "map": {"kind": "gershgorin_complex", "lambda_min": 0.0, "lambda_max": 1.0},
    },
    "shifted-equilibrium": {
        "network": {"depth": 1, "activation": "relu", "bias": True},
        "map": {"kind": "gershgorin_complex", "lambda_min": 0.0, "lambda_max": 1.0},
    },
    "contractive-relu": {
        "network": {"depth": 4, "activation": "relu"},
        "map": {"kind": "gershgorin_complex", "lambda_min": 0.0, "lambda_max": 1.0},
    },
    "contractive-tanh": {
        "network": {"depth": 4, "activation": "tanh"},
        "map": {"kind": "gershgorin_complex", "lambda_min": 0.0, "lambda_max": 1.0},
    },
    "regional-selu": {
        # Seed 2: seeds 0 and 1 leave a sliver of non-dissipative cells,
        # while this draw is dissipative on every sampled cell yet never
        # certifiable layerwise (selu gains can exceed one).
        "seed": 2,
        "network": {"depth": 4, "activation": "selu"},
        "map": {"kind": "spectral_svd", "lambda_min": 0.0, "lambda_max": 1.0},
    },
    "mixed-sigmoid": {
        "network": {"depth": 4, "activation": "sigmoid"},
        "map": {"kind": "gershgorin_complex", "lambda_min": 0.0, "lambda_max": 1.0},
    },
    "depth-damping": {
        "network": {"depth": 1, "activation": "gelu"},
        "map": {"kind": "gershgorin_complex", "lambda_min": 0.0, "lambda_max": 1.0},
        "analysis": {"x_range": [0.0, 6.0], "y_range": [0.0, 6.0], "resolution": 60},
    },
    "depth-near-unit": {
        "network": {"depth": 1, "activation": "gelu"},
        "map": {"kind": "gershgorin_complex", "lambda_min": 0.99, "lambda_max": 1.00},
        "analysis": {"x_range": [0.0, 6.0], "y_range": [0.0, 6.0], "resolution": 60},
    },
    "depth-growth": {
        "network": {"depth": 1, "activation": "gelu"},
        "map": {"kind": "gershgorin_complex", "lambda_min": 1.20, "lambda_max": 1.40},
        "analysis": {"x_range": [0.0, 6.0], "y_range": [0.0, 6.0], "resolution": 60},
    },
    "deep-contraction": {
        "network": {"depth": 8, "activation": "tanh"},
        "map": {"kind": "gershgorin_complex", "lambda_min": 0.99, "lambda_max": 1.00},
        "analysis": {"resolution": 40},
    },
    "quasiperiodic-orbit": {
        "network": {"depth": 8, "activation": "tanh"},
        "map": {"kind": "spectral_svd", "lambda_min": 0.99, "lambda_max": 1.10},
        "analysis": {"resolution": 40},
    },
    "deep-shifted-equilibrium": {
        # Seed 1: the seed-0 draw of this deep softplus stack diverges.
        "seed": 1,
        "network": {"depth": 8, "activation": "softplus", "bias": True},
        "map": {"kind": "gershgorin_complex", "lambda_min": 1.00, "lambda_max": 1.01},
        "analysis": {"resolution": 40},
    },
    "consensus-line": {
        "seed": 3,
        "network": {"depth": 1, "activation": "relu"},
        "map": {"kind": "perron_frobenius", "lambda_min": 1.0, "lambda_max": 1.0},
        "analysis": {"resolution": 40},
    },
    "period-two": {
        "network": {"depth": 1, "activation": "selu", "bias": True},
        "map": {"kind": "gershgorin_complex", "lambda_min": -1.5, "lambda_max": -1.1},
        "analysis": {"resolution": 40},
    },
    "period-five": {
        "seed": 2,
        "network": {"depth": 8, "activation": "selu"},
        "map": {"kind": "spectral_svd", "lambda_min": 0.99, "lambda_max": 1.10},
        "analysis": {"resolution": 40},
    },
    "divergent-softplus": {
        "network": {"depth": 1, "activation": "softplus"},
        "map": {"kind": "gershgorin_complex", "lambda_min": 0.99, "lambda_max": 1.10},
        "analysis": {"resolution": 40},
    },
    "cstr-identification": {
        # Training seed 6: dev selection picks its epoch-52 checkpoint
        # and the open-loop test error drops twelvefold; nearby seeds
        # land anywhere between 2.6x and 11.5x on this plant.
        "plant": {"name": "cstr"},
        "training": {"epochs": 600, "seed": 6},
    },
    "two-tank-identification": {
        "plant": {"name": "two_tank"},
        "training": {"epochs": 100},
    },
}


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def build_network(config: ExperimentConfig) -> MlpNetwork:
    """Realize the configured stack of structured layers.

    Layer i draws its weight from seed + i; bias vectors come from one
    stream seeded at seed + 1, so the weights are untouched by the bias
    toggle and by activation swaps.
    """
    net, slm = config.network, config.map
    bias_rng = np.random.default_rng(config.seed + 1)
    layers = []
    for i in range(net.depth):
        weight = structured.draw_map(
            slm.kind, net.width, slm.lambda_min, slm.lambda_max,
            seed=config.seed + i,
        ).realize()
        bias = bias_rng.uniform(-0.5, 0.5, net.width) if net.bias else None
        layers.append(Layer(weight=weight, bias=bias, activation=net.activation))
    return MlpNetwork(layers=tuple(layers))


def resolve_threads(requested) -> int:
    if requested:
        return max(1, int(requested))
    env = os.environ.get("NEURODISSIP_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _plain(value):
    """Recursively convert numpy scalars/arrays into JSON-ready values."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [[float(v.real), float(v.imag)] for v in value.ravel()]
        return value.tolist()
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _metadata(command: str, config: ExperimentConfig) -> dict:
    return {
        "command": command,
        "config": config.to_dict(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_plain(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

STATUS_GLOBAL = "GLOBAL (layerwise)"
STATUS_REGIONAL = "REGIONAL (sampled)"
STATUS_FAILED = "NOT CERTIFIED"


def _equilibrium_entries(net: MlpNetwork, analysis: AnalysisSpec) -> list:
    """Roll out a deterministic fan of starts and bound each fixed point."""
    (x_lo, x_hi), (y_lo, y_hi) = analysis.x_range, analysis.y_range
    starts = [
        analysis.x0,
        (0.8 * x_lo, 0.8 * y_lo),
        (0.8 * x_lo, 0.8 * y_hi),
        (0.8 * x_hi, 0.8 * y_lo),
        (0.8 * x_hi, 0.8 * y_hi),
    ]
    points: list = []
    for x0 in starts:
        traj = dynamics.rollout(net, x0, steps=analysis.horizon)
        if traj.classification != "converged_point":
            continue
        if any(np.linalg.norm(traj.limit - p) <= 1e-6 for p in points):
            continue
        points.append(traj.limit)
    entries = []
    for point in points:
        form = extract_pwa(net, point, mode="linear")
        entry: dict = {"point": point, "norm": float(np.linalg.norm(point))}
        try:
            bounds = dissipativity.equilibrium_bounds(form)
        except ValueError as exc:
            entry["error"] = str(exc)
        else:
            entry["lower"] = bounds.lower
            entry["upper"] = bounds.upper
            entry["within_bounds"] = bool(
                bounds.lower - 1e-9 <= entry["norm"] <= bounds.upper + 1e-9
            )
        entries.append(entry)
    return entries


def certificate_report(config: ExperimentConfig, equilibria: bool = True) -> dict:
    """Layerwise check, sampled verdict sweep, and fixed-point bounds."""
    net = build_network(config)
    analysis = config.analysis
    cert = dissipativity.layerwise_certificate(net)
    report: dict = {
        "layerwise": {
            "certified": cert.certified,
            "certified_relaxed": cert.certified_relaxed,
            "w_norms": list(cert.w_norms),
            "lambda_bound": cert.lambda_bound,
            "lambda_bound_analytic": cert.lambda_bound_analytic,
        },
    }

    if net.input_dim == 2 and net.output_dim == 2:
        grid = dissipativity.certify_region(net, analysis.grid(), analysis.mode)
        summary = grid.summary()
        report["grid"] = summary
        worst = grid.worst_cell()
        if worst is not None:
            i, j, a_norm = worst
            report["worst_cell"] = {
                "x": float(grid.spec.axis_centers(0)[i]),
                "y": float(grid.spec.axis_centers(1)[j]),
                "a_norm": a_norm,
            }
        clean = summary["fraction_dissipative"] == 1.0 and not grid.errors
    else:
        box = [analysis.x_range] * net.input_dim
        anchors = dissipativity.lhs_anchors(net.input_dim, analysis.anchors,
                                            box, seed=config.seed)
        verdicts = dissipativity.verdicts_at(net, anchors, mode=analysis.mode)
        bad = [v for v in verdicts if v.error is not None]
        hostile = [v for v in verdicts if v.error is None and not v.dissipative]
        finite = [v.a_norm for v in verdicts if v.error is None]
        report["sampled"] = {
            "anchors": len(verdicts),
            "dissipative": len(verdicts) - len(bad) - len(hostile),
            "errors": len(bad),
            "max_a_norm": max(finite) if finite else None,
        }
        if hostile:
            w = max(hostile, key=lambda v: v.a_norm)
            report["worst_cell"] = {"anchor": w.anchor, "a_norm": w.a_norm}
        clean = not bad and not hostile

    if cert.certified:
        status = STATUS_GLOBAL
    elif clean:
        status = STATUS_REGIONAL
    else:
        status = STATUS_FAILED
    report["status"] = status

    if equilibria and net.input_dim == 2 and net.output_dim == 2:
        report["equilibria"] = _equilibrium_entries(net, analysis)
    return report


# ---------------------------------------------------------------------------
# Sweep enumeration
# ---------------------------------------------------------------------------

SWEEP_BOUNDS = (
    (-1.50, -1.10), (0.00, 1.00), (0.99, 1.00), (0.99, 1.01),
    (0.99, 1.10), (1.00, 1.01), (1.10, 1.50),
)
SWEEP_DEPTHS = (1, 4, 8)
SWEEP_ACTIVATIONS = ("relu", "selu", "gelu", "tanh", "sigmoid", "softplus")
# Seeds are spaced wider than the deepest stack so no two rows share a
# layer draw; every activation/bias variant of a row reuses its seed.
_SEED_STRIDE = 16


def sweep_rows() -> list:
    rows = [("gershgorin_real", b) for b in SWEEP_BOUNDS]
    rows += [("gershgorin_complex", b) for b in SWEEP_BOUNDS]
    rows += [("spectral_svd", b) for b in SWEEP_BOUNDS]
    rows.append(("perron_frobenius", (1.00, 1.00)))
    rows.append(("unstructured", None))
    return rows


def _config_name(kind, bounds, depth, activation, bias) -> str:
    parts = [kind]
    if bounds is not None:
        parts.append(f"{bounds[0]:.2f}")
        parts.append(f"{bounds[1]:.2f}")
    parts.append(f"d{depth}")
    parts.append(activation)
    parts.append("bias" if bias else "nobias")
    return "_".join(parts)


def enumerate_sweep(base: ExperimentConfig, kinds=None, bounds=None,
                    depths=None, activations=None, bias_choices=None) -> list:
    """The cross product of map rows, depths, activations, and bias flags.

    Restrictions filter the full product; seeds always come from a row's
    position in the unrestricted enumeration, so a partial sweep studies
    the same draws as the full one.
    """
    depth_axis = tuple(depths) if depths else SWEEP_DEPTHS
    act_axis = tuple(activations) if activations else SWEEP_ACTIVATIONS
    bias_axis = tuple(bias_choices) if bias_choices is not None else (False, True)
    configs = []
    combo = 0
    for kind, row_bounds in sweep_rows():
        for depth in SWEEP_DEPTHS:
            seed = base.seed + _SEED_STRIDE * combo
            combo += 1
            if depth not in depth_axis:
                continue
            if kinds and kind not in kinds:
                continue
            if bounds and row_bounds is not None and row_bounds not in bounds:
                continue
            lmin, lmax = row_bounds if row_bounds is not None else (0.0, 1.0)
            for act in act_axis:
                for bias in bias_axis:
                    name = _config_name(kind, row_bounds, depth, act, bias)
                    config = ExperimentConfig(
                        seed=seed,
                        network=NetworkSpec(depth=depth, width=2,
                                            activation=act, bias=bias),
                        map=MapSpec(kind=kind, lambda_min=lmin, lambda_max=lmax),
                        analysis=base.analysis,
                        plant=base.plant,
                        training=base.training,
                    )
                    configs.append((name, config))
    return configs


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "preset", None) and getattr(args, "config", None):
        raise ConfigError("give either --preset or --config, not both")
    data: dict = {}
    if getattr(args, "preset", None):
        data = json.loads(json.dumps(PRESETS[args.preset]))
    elif getattr(args, "config", None):
        with open(args.config) as fh:
            text = fh.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    for assignment in getattr(args, "set", None) or []:
        apply_override(data, assignment)
    return ExperimentConfig.from_dict(data)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_pwa(args) -> int:
    config = _load_config(args)
    out = _outdir(args)
    net = build_network(config)
    x = _as_tuple(args.x.split(","), float, "--x", net.input_dim)
    form = extract_pwa(net, x, mode=config.analysis.mode)
    residual = verify_equivalence(net, form)
    _write_json(os.path.join(out, "pwa.json"), {
        "anchor": form.anchor,
        "a_star": form.a_star,
        "b_star": form.b_star,
        "mode": form.mode,
        "residual": residual,
        "metadata": _metadata("pwa", config),
    })
    print(f"pwa: residual={residual:.3e} at x={list(x)}")
    return 0 if residual <= 1e-6 else 1


def cmd_grid(args) -> int:
    config = _load_config(args)
    out = _outdir(args)
    if args.checkpoint:
        # Post-hoc analysis of an identified model: the state map f is
        # the autonomous part, so it is what the grid interrogates.
        net = training.load_checkpoint(args.checkpoint)[0].f_net
    else:
        net = build_network(config)
    analysis = dissipativity.certify_region(net, config.analysis.grid(),
                                            config.analysis.mode)
    dissipativity.write_grid_csv(analysis, os.path.join(out, "grid.csv"))
    dissipativity.write_grid_json(analysis, os.path.join(out, "grid.json"))
    summary = analysis.summary()
    _write_json(os.path.join(out, "grid_summary.json"), {
        "summary": summary,
        "worst_cell": analysis.worst_cell(),
        "metadata": _metadata("grid", config),
    })
    print(f"grid: {summary['dissipative']}/{summary['cells']} dissipative cells "
          f"(fraction {summary['fraction_dissipative']:.4f}, "
          f"max a_norm {summary['max_a_norm']:.4f})")
    return 0


def cmd_spectra(args) -> int:
    config = _load_config(args)
    out = _outdir(args)
    template = build_network(config).layers[0]
    anchors = config.analysis.grid().cell_centers()
    studies = dynamics.depth_spectra(template, config.analysis.depths, anchors,
                                     mode=config.analysis.mode)
    dynamics.write_spectra_csv(studies, os.path.join(out, "histograms.csv"))
    with open(os.path.join(out, "eigenvalues.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth", "modulus"])
        for study in studies:
            for value in study.eigenvalue_moduli:
                writer.writerow([study.depth, repr(float(value))])
    medians = {study.depth: study.median_modulus() for study in studies}
    _write_json(os.path.join(out, "spectra_summary.json"), {
        "median_modulus": {str(d): m for d, m in medians.items()},
        "anchors": anchors.shape[0],
        "metadata": _metadata("spectra", config),
    })
    print("spectra: median modulus " + ", ".join(
        f"depth {d}: {m:.4f}" for d, m in medians.items()))
    return 0


def cmd_rollout(args) -> int:
    config = _load_config(args)
    out = _outdir(args)
    net = build_network(config)
    traj = dynamics.rollout(net, config.analysis.x0,
                            steps=config.analysis.horizon)
    dynamics.write_trajectory_csv(traj, os.path.join(out, "trajectory.csv"))
    _write_json(os.path.join(out, "rollout.json"), {
        "classification": traj.classification,
        "halt": traj.halt,
        "steps": traj.steps,
        "period": traj.period,
        "limit": traj.limit,
        "tail_bounds": traj.tail_bounds,
        "metadata": _metadata("rollout", config),
    })
    print(f"rollout: {traj.classification} after {traj.steps} steps")
    return 0


def cmd_basin(args) -> int:
    config = _load_config(args)
    out = _outdir(args)
    net = build_network(config)
    basin = dynamics.basin_map(net, config.analysis.grid(),
                               steps=config.analysis.horizon)
    dynamics.write_basin_csv(basin, os.path.join(out, "basin.csv"))
    summary = basin.summary()
    _write_json(os.path.join(out, "basin_summary.json"), {
        "summary": summary,
        "limit_points": basin.limit_points,
        "metadata": _metadata("basin", config),
    })
    print("basin: " + ", ".join(f"{k}={v}" for k, v in sorted(
        summary["classes"].items())) + f", clusters={summary['limit_clusters']}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    out = _outdir(args)
    spec = config.plant
    dataset = plants.benchmark_dataset(spec.name, seed=spec.seed,
                                       samples=spec.samples, method=spec.method)
    plants.write_dataset(dataset, os.path.join(out, "dataset.csv"),
                         os.path.join(out, "dataset.json"))
    print(f"simulate: {spec.name} {dataset.samples} samples, "
          f"splits {dataset.splits}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    out = _outdir(args)
    spec = config.training
    dataset = plants.benchmark_dataset(config.plant.name, seed=config.plant.seed,
                                       samples=config.plant.samples,
                                       method=config.plant.method)
    data = training.TrainingData.from_dataset(dataset)
    n_x = data.states.shape[1]
    n_u = data.inputs.shape[1]
    hidden = (spec.width,) * spec.hidden
    model = training.BlockSSM(
        f_net=training.make_mlp((n_x,) + hidden + (n_x,), spec.activation,
                                seed=spec.seed),
        g_net=training.make_mlp((n_u,) + hidden + (n_x,), spec.activation,
                                seed=spec.seed + 1),
    )
    test_states, test_inputs = data.split_arrays("test")
    init_mse = training.open_loop_mse(model, test_states, test_inputs)
    report = training.train(model, data, training.TrainConfig(
        horizon=spec.horizon, batch=spec.batch, epochs=spec.epochs,
        learning_rate=spec.learning_rate, optimizer=spec.optimizer,
        regularizers=spec.regularizers, seed=spec.seed,
    ))
    best_mse = training.open_loop_mse(report.best_model, test_states,
                                      test_inputs)
    training.save_checkpoint(report.best_model,
                             os.path.join(out, "checkpoint"), report)
    _write_json(os.path.join(out, "train_summary.json"), {
        "plant": config.plant.name,
        "init_test_mse": init_mse,
        "best_test_mse": best_mse,
        "improvement": init_mse / best_mse if best_mse > 0 else float("inf"),
        "best_epoch": report.best_epoch,
        "best_dev_loss": report.best_dev_loss,
        "metadata": _metadata("train", config),
    })
    print(f"train: {config.plant.name} test mse {init_mse:.5f} -> {best_mse:.5f} "
          f"({init_mse / best_mse:.1f}x, best epoch {report.best_epoch})")
    return 0


def cmd_certify(args) -> int:
    config = _load_config(args)
    out = _outdir(args)
    report = certificate_report(config)
    report["metadata"] = _metadata("certify", config)
    _write_json(os.path.join(out, "certificate.json"), report)
    line = f"certify: {report['status']}"
    if report["status"] == STATUS_FAILED and "worst_cell" in report:
        worst = report["worst_cell"]
        if "x" in worst:
            line += (f" (worst cell x=({worst['x']:.4f}, {worst['y']:.4f}), "
                     f"a_norm={worst['a_norm']:.4f})")
        else:
            line += f" (worst anchor a_norm={worst['a_norm']:.4f})"
    print(line)
    if args.assert_certified and report["status"] == STATUS_FAILED:
        return 2
    return 0


_SWEEP_CSV_COLUMNS = (
    "name", "kind", "lambda_min", "lambda_max", "depth", "activation", "bias",
    "seed", "status", "certified_layerwise", "max_w_norm",
    "fraction_dissipative", "max_a_norm", "grid_errors", "error",
)


def _sweep_row(name: str, config: ExperimentConfig, report) -> dict:
    row = {
        "name": name,
        "kind": config.map.kind,
        "lambda_min": config.map.lambda_min,
        "lambda_max": config.map.lambda_max,
        "depth": config.network.depth,
        "activation": config.network.activation,
        "bias": int(config.network.bias),
        "seed": config.seed,
        "status": "", "certified_layerwise": "", "max_w_norm": "",
        "fraction_dissipative": "", "max_a_norm": "", "grid_errors": "",
        "error": "",
    }
    if isinstance(report, Exception):
        row["status"] = "ERROR"
        row["error"] = str(report)
        return row
    row["status"] = report["status"]
    row["certified_layerwise"] = int(report["layerwise"]["certified"])
    row["max_w_norm"] = repr(max(report["layerwise"]["w_norms"]))
    grid = report.get("grid")
    if grid is not None:
        row["fraction_dissipative"] = repr(grid["fraction_dissipative"])
        if grid["max_a_norm"] is not None:
            row["max_a_norm"] = repr(grid["max_a_norm"])
        row["grid_errors"] = grid["errors"]
    return row


def cmd_sweep(args) -> int:
    base = _load_config(args)
    out = _outdir(args)
    threads = resolve_threads(args.threads)
    kinds = args.kinds.split(",") if args.kinds else None
    depths = [int(d) for d in args.depths.split(",")] if args.depths else None
    activations = args.activations.split(",") if args.activations else None
    bias_choices = None
    if args.bias:
        mapping = {"on": True, "off": False}
        try:
            bias_choices = tuple(mapping[b] for b in args.bias.split(","))
        except KeyError:
            raise ConfigError("--bias takes a comma list of on/off")
    bounds = None
    if args.bounds:
        bounds = []
        for token in args.bounds.split(","):
            lo, sep, hi = token.partition(":")
            if not sep:
                raise ConfigError("--bounds takes a comma list of lo:hi pairs")
            bounds.append((float(lo), float(hi)))
        bounds = tuple(bounds)

    configs = enumerate_sweep(base, kinds=kinds, bounds=bounds, depths=depths,
                              activations=activations,
                              bias_choices=bias_choices)
    if args.count_only:
        print(f"sweep: {len(configs)} configurations")
        return 0

    report_dir = os.path.join(out, "configs")
    os.makedirs(report_dir, exist_ok=True)

    def work(item):
        name, config = item
        try:
            # Parallelism comes from running configs side by side.
            # Equilibrium rollouts are a phase-portrait concern, not a
            # certificate one, so the sweep skips them.
            return name, config, certificate_report(config, equilibria=False)
        except Exception as exc:  # logged per config, sweep continues
            return name, config, exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, configs))
    else:
        results = [work(item) for item in configs]
    results.sort(key=lambda item: item[0])

    counts = {STATUS_GLOBAL: 0, STATUS_REGIONAL: 0, STATUS_FAILED: 0, "ERROR": 0}
    rows = []
    for name, config, report in results:
        rows.append(_sweep_row(name, config, report))
        if isinstance(report, Exception):
            counts["ERROR"] += 1
            print(f"sweep: {name} failed: {report}", file=sys.stderr)
            continue
        counts[report["status"]] += 1
        report["metadata"] = _metadata("sweep", config)
        _write_json(os.path.join(report_dir, f"{name}.json"), report)

    with open(os.path.join(out, "sweep.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SWEEP_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"sweep: {len(configs)} configurations, "
          f"{counts[STATUS_GLOBAL]} global, {counts[STATUS_REGIONAL]} regional, "
          f"{counts[STATUS_FAILED]} not certified, {counts['ERROR']} errors")
    return 0


def cmd_gen_weights(args) -> int:
    config = _load_config(args)
    out = _outdir(args)
    slm = structured.draw_map(config.map.kind, config.network.width,
                              config.map.lambda_min, config.map.lambda_max,
                              seed=config.seed)
    matrix = slm.realize()
    report = structured.guarantee_report(slm, matrix)
    _write_json(os.path.join(out, "weights.json"), {
        "matrix": matrix,
        "report": report,
        "metadata": _metadata("gen-weights", config),
    })
    print(f"gen-weights: {config.map.kind} {matrix.shape[0]}x{matrix.shape[1]} "
          f"guarantees {'ok' if report['passed'] else 'VIOLATED'}")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neurodissip",
        description="Pointwise-affine stability analysis and system "
                    "identification for neural dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="named built-in config")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path override, e.g. network.depth=8")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("pwa", help="affine form and residual at one point")
    common(p)
    p.add_argument("--x", default="1.0,1.0", help="anchor, comma separated")
    p.set_defaults(func=cmd_pwa)

    p = sub.add_parser("grid", help="per-cell stability verdicts over a grid")
    common(p)
    p.add_argument("--checkpoint", help="analyze the state network of a saved "
                                        "checkpoint instead of drawing one")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("spectra", help="pooled eigenvalue spectra across depths")
    common(p)
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("rollout", help="iterate the network and classify the tail")
    common(p)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("basin", help="attractor basins over a start grid")
    common(p)
    p.set_defaults(func=cmd_basin)

    p = sub.add_parser("simulate", help="generate a benchmark plant dataset")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="fit a block state-space model to a plant")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("certify", help="layerwise and sampled certificates")
    common(p)
    p.add_argument("--assert", dest="assert_certified", action="store_true",
                   help="exit with status 2 when no certificate holds")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="certify every config in the study grid")
    common(p)
    p.add_argument("--threads", type=int, default=None,
                   help="configs certified side by side (default: "
                        "NEURODISSIP_THREADS or the machine's cpu count)")
    p.add_argument("--kinds", help="comma list of map kinds to keep")
    p.add_argument("--bounds", help="comma list of lo:hi bound pairs to keep")
    p.add_argument("--depths", help="comma list of depths to keep")
    p.add_argument("--activations", help="comma list of activations to keep")
    p.add_argument("--bias", help="comma list of on/off")
    p.add_argument("--count-only", action="store_true",
                   help="print the configuration count and exit")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-weights", help="draw one structured map and "
                                           "check its guarantee")
    common(p)
    p.set_defaults(func=cmd_gen_weights)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
