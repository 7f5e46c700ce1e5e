"""Command-line driver tying networks, grids, rollouts, plants, and training together.

Every subcommand reads one ExperimentConfig (from a named preset, a JSON
file, or built-in defaults), optionally patched by ``--set`` dotted-path
overrides, and writes fixed-name artifacts under ``--out``; ``main`` loads
the config before any subcommand runs, and ``--out`` is made when a
command writes its first file, so a failed or count-only run leaves
none.  Sections are checked at load; ``analysis`` is a GridSpec and
``training`` a TrainConfig, each passed to the library as it is.  Outputs are deterministic for a
given config and seed; the only run-dependent value is a timestamp kept
inside each JSON file's metadata block.

Exit codes: 0 on success, 1 on errors (bad config, runtime failure, PWA
residual above tolerance), 2 when ``certify --assert`` finds no
certificate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from itertools import chain, repeat

import numpy as np

from . import artifacts, dissipativity, dynamics, plants, structured, training
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
        get_activation(self.activation)


@dataclass(frozen=True)
class MapSpec:
    """Weight parametrization kind and its eigenvalue/singular bounds."""

    kind: str = "gershgorin_complex"
    lambda_min: float = 0.0
    lambda_max: float = 1.0

    def __post_init__(self):
        if self.kind not in structured.MAPS:
            raise ConfigError(f"unknown map kind {self.kind!r}")
        structured.MAPS[self.kind].check_bounds(float(self.lambda_min), float(self.lambda_max))


@dataclass(frozen=True)
class AnalysisSpec(GridSpec):
    """The analysis GridSpec, plus rollout horizon and start, anchor
    budget, A(x) mode, and spectra depths."""

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
        super().__post_init__()
        if self.horizon < 1 or self.anchors < 1:
            raise ConfigError("analysis horizon and anchors must be positive")
        if self.mode not in ("linear", "affine"):
            raise ConfigError(f"analysis.mode must be 'linear' or 'affine', got {self.mode!r}")
        if not self.depths:
            raise ConfigError("analysis.depths must not be empty")
        if any(d < 1 for d in self.depths):
            raise ConfigError("analysis.depths must be positive")


@dataclass(frozen=True)
class PlantSpec:
    """Which benchmark plant to simulate and how many samples to record."""

    name: str = "cstr"
    samples: int = 3000
    seed: int = 0
    method: str = "rk4"

    def __post_init__(self):
        if self.name not in plants.PLANT_KINDS:
            raise ConfigError(f"unknown plant {self.name!r}")
        if self.method not in plants.STEPPERS:
            raise ConfigError(f"unknown plant.method {self.method!r}; "
                              f"use {' or '.join(plants.STEPPERS)}")
        if self.samples < 3:
            raise ConfigError("plant.samples must be at least 3")


@dataclass(frozen=True)
class TrainSpec(training.TrainConfig):
    """The TrainConfig that train() runs, plus the model's size and
    activation; its checkpoint report keeps the TrainConfig fields."""

    epochs: int = 600
    width: int = 32
    hidden: int = 2
    activation: str = "gelu"

    def __post_init__(self):
        if self.width < 1 or self.hidden < 0:
            raise ConfigError("training width must be positive and hidden nonnegative")
        get_activation(self.activation)
        regs = {key: float(value) for key, value in dict(self.regularizers).items()}
        object.__setattr__(self, "regularizers", regs)
        super().__post_init__()


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
            # A JSON integer only: int() would truncate 1.7 and accept true.
            if type(data["seed"]) is not int:
                raise ConfigError(f"seed must be an integer, got {data['seed']!r}")
            kwargs["seed"] = data["seed"]
        for name, section_cls in _SECTIONS.items():
            if name not in data:
                continue
            section = data[name]
            if not isinstance(section, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            bad = set(section) - {f.name for f in fields(section_cls)}
            if bad:
                raise ConfigError(f"unknown config key {name!r}.{sorted(bad)[0]!r}")
            try:
                kwargs[name] = section_cls(**section)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(str(exc)) from None
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return asdict(self)


def _config_data(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def parse_config(text: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_config_data(text))


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
    if requested is None:
        return os.cpu_count() or 1
    if requested < 1:
        raise ConfigError(f"--threads must be at least 1, got {requested}")
    return requested


def _metadata(command: str, config: ExperimentConfig) -> dict:
    return {
        "command": command,
        "config": config.to_dict(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


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
    limits = []
    # Five batches of one, not one batch of five: a multi-row matmul may
    # round differently, which would move the equilibria in
    # certificate.json in the last bits.
    for x0 in starts:
        traj = dynamics.rollout(net, x0, steps=analysis.horizon)
        if traj.classification == "converged_point":
            limits.append(traj.limit)
    # A limit within 1e-6 of an earlier kept one is the same equilibrium.
    points = dynamics._cluster(np.reshape(limits, (-1, net.input_dim)), 1e-6)[1]
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
    report: dict = {"layerwise": asdict(cert)}

    # Norms and flags only: the certificate writes no eigenvalues.
    if net.input_dim == 2:
        region = dissipativity.certify_region(net, analysis, analysis.mode)
        summary = report["grid"] = region.summary()
        worst = region.worst_cell()
        if worst is not None:
            i, j, a_max = worst
            report["worst_cell"] = {
                "x": float(region.spec.axis_centers(0)[i]),
                "y": float(region.spec.axis_centers(1)[j]),
                "a_norm": a_max,
            }
        clean = summary["fraction_dissipative"] == 1.0 and not region.error.any()
    else:
        box = [analysis.x_range] * net.input_dim
        anchors = dissipativity.lhs_anchors(net.input_dim, analysis.anchors,
                                            box, seed=config.seed)
        v = dissipativity.verdicts_at(net, anchors, analysis.mode)
        hostile = ~v.error & ~v.dissipative
        report["sampled"] = {
            "anchors": len(anchors),
            "dissipative": int(np.count_nonzero(v.dissipative)),
            "errors": int(np.count_nonzero(v.error)),
            "max_a_norm": None if v.error.all() else float(np.max(v.a_norm[~v.error])),
        }
        if hostile.any():
            # Ties go to the first anchor.
            k = np.flatnonzero(hostile)[np.argmax(v.a_norm[hostile])]
            report["worst_cell"] = {"anchor": anchors[k], "a_norm": float(v.a_norm[k])}
        clean = not v.error.any() and not hostile.any()

    if cert.certified:
        status = STATUS_GLOBAL
    elif clean:
        status = STATUS_REGIONAL
    else:
        status = STATUS_FAILED
    report["status"] = status

    if equilibria and net.input_dim == 2:
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

    Each axis is the study's own; a restriction other than None keeps the
    points whose value it holds, and the unstructured row passes any
    bounds.  Seeds always come from a row's position in the unrestricted
    enumeration, so a partial sweep studies the same draws as the full one.
    """
    def kept(allowed, value):
        return allowed is None or value in allowed

    configs = []
    combo = 0
    for kind, row_bounds in sweep_rows():
        for depth in SWEEP_DEPTHS:
            seed = base.seed + _SEED_STRIDE * combo
            combo += 1
            if not (kept(kinds, kind) and kept(depths, depth)
                    and (row_bounds is None or kept(bounds, row_bounds))):
                continue
            lmin, lmax = row_bounds if row_bounds is not None else (0.0, 1.0)
            for act in SWEEP_ACTIVATIONS:
                for bias in (False, True):
                    if not (kept(activations, act) and kept(bias_choices, bias)):
                        continue
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
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    data: dict = {}
    if args.preset:
        data = json.loads(json.dumps(PRESETS[args.preset]))
    elif args.config:
        with open(args.config) as fh:
            data = _config_data(fh.read())
    for assignment in args.set or []:
        apply_override(data, assignment)
    return ExperimentConfig.from_dict(data)


def cmd_pwa(args, config) -> int:
    net = build_network(config)
    x = _as_tuple(args.x.split(","), float, "--x", net.input_dim)
    form = extract_pwa(net, x, mode=config.analysis.mode)
    residual = verify_equivalence(net, form)
    artifacts.write_json(os.path.join(args.out, "pwa.json"), {
        "anchor": form.anchor,
        "a_star": form.a_star,
        "b_star": form.b_star,
        "mode": form.mode,
        "residual": residual,
        "metadata": _metadata("pwa", config),
    }, sort_keys=True)
    print(f"pwa: residual={residual:.3e} at x={list(x)}")
    return 0 if residual <= 1e-6 else 1


def cmd_grid(args, config) -> int:
    if args.checkpoint:
        # Post-hoc analysis of an identified model: the state map f is
        # the autonomous part, so it is what the grid interrogates.
        net = training.load_checkpoint(args.checkpoint)[0].f_net
    else:
        net = build_network(config)
    analysis = dissipativity.certify_region(net, config.analysis,
                                            config.analysis.mode)
    dissipativity.write_grid_csv(analysis, os.path.join(args.out, "grid.csv"))
    dissipativity.write_grid_json(analysis, os.path.join(args.out, "grid.json"))
    summary = analysis.summary()
    artifacts.write_json(os.path.join(args.out, "grid_summary.json"), {
        "summary": summary,
        "worst_cell": analysis.worst_cell(),
        "metadata": _metadata("grid", config),
    }, sort_keys=True)
    errors = f", {summary['errors']} error cells" if summary["errors"] else ""
    max_a = summary["max_a_norm"]
    print(f"grid: {summary['dissipative']}/{summary['cells']} dissipative cells "
          f"(fraction {summary['fraction_dissipative']:.4f}, "
          f"max a_norm {float('nan') if max_a is None else max_a:.4f}){errors}")
    return 0


def cmd_spectra(args, config) -> int:
    template = build_network(config).layers[0]
    anchors = config.analysis.cell_centers()
    studies = dynamics.depth_spectra(template, config.analysis.depths, anchors,
                                     mode=config.analysis.mode)
    dynamics.write_spectra_csv(studies, os.path.join(args.out, "histograms.csv"))
    artifacts.write_csv(os.path.join(args.out, "eigenvalues.csv"),
                        ("depth", "modulus"), (
        chain.from_iterable(repeat(s.depth, s.eigenvalue_moduli.size) for s in studies),
        chain.from_iterable(artifacts.numbers(s.eigenvalue_moduli) for s in studies),
    ))
    medians = {study.depth: study.median_modulus() for study in studies}
    artifacts.write_json(os.path.join(args.out, "spectra_summary.json"), {
        "median_modulus": {str(d): m for d, m in medians.items()},
        "anchors": anchors.shape[0],
        "metadata": _metadata("spectra", config),
    }, sort_keys=True)
    print("spectra: median modulus " + ", ".join(
        f"depth {d}: {m:.4f}" for d, m in medians.items()))
    return 0


def cmd_rollout(args, config) -> int:
    net = build_network(config)
    traj = dynamics.rollout(net, config.analysis.x0,
                            steps=config.analysis.horizon)
    dynamics.write_trajectory_csv(traj, os.path.join(args.out, "trajectory.csv"))
    artifacts.write_json(os.path.join(args.out, "rollout.json"), {
        "classification": traj.classification,
        "halt": traj.halt,
        "steps": traj.steps,
        "period": traj.period,
        "limit": traj.limit,
        "tail_bounds": traj.tail_bounds,
        "metadata": _metadata("rollout", config),
    }, sort_keys=True)
    print(f"rollout: {traj.classification} after {traj.steps} steps")
    return 0


def cmd_basin(args, config) -> int:
    net = build_network(config)
    basin = dynamics.basin_map(net, config.analysis,
                               steps=config.analysis.horizon)
    dynamics.write_basin_csv(basin, os.path.join(args.out, "basin.csv"))
    summary = basin.summary()
    artifacts.write_json(os.path.join(args.out, "basin_summary.json"), {
        "summary": summary,
        "limit_points": basin.limit_points,
        "metadata": _metadata("basin", config),
    }, sort_keys=True)
    print("basin: " + ", ".join(f"{k}={v}" for k, v in sorted(
        summary["classes"].items())) + f", clusters={summary['limit_clusters']}")
    return 0


def cmd_simulate(args, config) -> int:
    spec = config.plant
    dataset = plants.benchmark_dataset(spec.name, seed=spec.seed,
                                       samples=spec.samples, method=spec.method)
    plants.write_dataset(dataset, os.path.join(args.out, "dataset.csv"),
                         os.path.join(args.out, "dataset.json"))
    print(f"simulate: {spec.name} {dataset.samples} samples, "
          f"splits {dataset.splits}")
    return 0


def cmd_train(args, config) -> int:
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
    report = training.train(model, data, spec)
    best_mse = training.open_loop_mse(report.best_model, test_states,
                                      test_inputs)
    training.save_checkpoint(report.best_model,
                             os.path.join(args.out, "checkpoint"), report)
    improvement = init_mse / best_mse if best_mse > 0 else float("inf")
    artifacts.write_json(os.path.join(args.out, "train_summary.json"), {
        "plant": config.plant.name,
        "init_test_mse": init_mse,
        "best_test_mse": best_mse,
        "improvement": improvement,
        "best_epoch": report.best_epoch,
        "best_dev_loss": report.best_dev_loss,
        "metadata": _metadata("train", config),
    }, sort_keys=True)
    print(f"train: {config.plant.name} test mse {init_mse:.5f} -> {best_mse:.5f} "
          f"({improvement:.1f}x, best epoch {report.best_epoch})")
    return 0


def cmd_certify(args, config) -> int:
    report = certificate_report(config)
    report["metadata"] = _metadata("certify", config)
    artifacts.write_json(os.path.join(args.out, "certificate.json"), report,
                         sort_keys=True)
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
    row = dict.fromkeys(_SWEEP_CSV_COLUMNS, "")
    row.update(
        name=name,
        kind=config.map.kind,
        lambda_min=config.map.lambda_min,
        lambda_max=config.map.lambda_max,
        depth=config.network.depth,
        activation=config.network.activation,
        bias=int(config.network.bias),
        seed=config.seed,
    )
    if isinstance(report, Exception):
        row["status"] = "ERROR"
        row["error"] = str(report)
        return row
    row["status"] = report["status"]
    row["certified_layerwise"] = int(report["layerwise"]["certified"])
    row["max_w_norm"] = artifacts.number(max(report["layerwise"]["w_norms"]))
    grid = report.get("grid")
    if grid is not None:
        row["fraction_dissipative"] = artifacts.number(grid["fraction_dissipative"])
        if grid["max_a_norm"] is not None:
            row["max_a_norm"] = artifacts.number(grid["max_a_norm"])
        row["grid_errors"] = grid["errors"]
    return row


def _sweep_filter(flag, text, parse, axis):
    """Parse a comma list of study values; each comes back once, in axis order."""
    if not text:
        return None
    chosen = set()
    for token in text.split(","):
        try:
            value = parse(token)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"{flag} value {token!r} cannot be parsed") from None
        if value not in axis:
            raise ConfigError(f"{flag} value {token!r} is not in the sweep")
        chosen.add(value)
    return tuple(value for value in axis if value in chosen)


def _bound_pair(token):
    lo, sep, hi = token.partition(":")
    if not sep:
        raise ConfigError("--bounds takes a comma list of lo:hi pairs")
    return float(lo), float(hi)


def _on_off(token):
    if token not in ("on", "off"):
        raise ConfigError("--bias takes a comma list of on/off")
    return token == "on"


def cmd_sweep(args, base) -> int:
    threads = resolve_threads(args.threads)
    study = sweep_rows()
    configs = enumerate_sweep(
        base, kinds=_sweep_filter("--kinds", args.kinds, str,
                                  tuple(dict.fromkeys(k for k, _ in study))),
        bounds=_sweep_filter("--bounds", args.bounds, _bound_pair, tuple(
            dict.fromkeys(b for _, b in study if b is not None))),
        depths=_sweep_filter("--depths", args.depths, int, SWEEP_DEPTHS),
        activations=_sweep_filter("--activations", args.activations, str,
                                  SWEEP_ACTIVATIONS),
        bias_choices=_sweep_filter("--bias", args.bias, _on_off, (False, True)),
    )
    if args.count_only:
        print(f"sweep: {len(configs)} configurations")
        return 0

    report_dir = os.path.join(args.out, "configs")

    def work(item):
        name, config = item
        try:
            # Parallelism comes from running configs side by side.
            # Equilibrium rollouts are a phase-portrait concern, not a
            # certificate one, so the sweep skips them.
            return name, config, certificate_report(config, equilibria=False)
        except Exception as exc:  # logged per config, sweep continues
            return name, config, exc

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(work, configs))
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
        artifacts.write_json(os.path.join(report_dir, f"{name}.json"), report,
                             sort_keys=True)

    artifacts.write_csv(os.path.join(args.out, "sweep.csv"), _SWEEP_CSV_COLUMNS,
                        ([row[c] for row in rows] for c in _SWEEP_CSV_COLUMNS))
    print(f"sweep: {len(configs)} configurations, "
          f"{counts[STATUS_GLOBAL]} global, {counts[STATUS_REGIONAL]} regional, "
          f"{counts[STATUS_FAILED]} not certified, {counts['ERROR']} errors")
    return 0


def cmd_gen_weights(args, config) -> int:
    weight = structured.draw_map(config.map.kind, config.network.width,
                                 config.map.lambda_min, config.map.lambda_max,
                                 seed=config.seed)
    matrix = weight.realize()
    report = structured.guarantee_report(weight, matrix)
    artifacts.write_json(os.path.join(args.out, "weights.json"), {
        "matrix": matrix,
        "report": report,
        "metadata": _metadata("gen-weights", config),
    }, sort_keys=True)
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
                   help="configs certified side by side, at least 1 "
                        "(default: the machine's cpu count)")
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
        config = _load_config(args)
        return args.func(args, config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
