"""Ground-truth plants, fixed-step integration, and dataset assembly.

Two benchmark plants are provided for system identification, one record
each in ``PLANTS`` (parameters, derivative kernel, state and input boxes,
and the benchmark protocol's start, sample interval, substeps and
per-channel excitation):

* ``cstr``: an exothermic continuous stirred-tank reactor with states
  (concentration, temperature) and a cooling-jacket temperature input.
  The classic benchmark parameter set is pinned so runs are reproducible.
* ``two_tank``: two gravity-drained tanks in series with a pump and a
  valve input; levels clamp at empty and stop filling past full.

Integration is fixed-step RK4 (or Euler, see ``STEPPERS``) with
zero-order-hold inputs, stepped on Python floats: a per-step numpy call
would cost more than the arithmetic of a two-state plant.
Datasets follow the 3000-sample protocol with contiguous
train/dev/test thirds and carry min-max normalization constants so models
can train in [-1, 1] and report in physical units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import artifacts

__all__ = [
    "PLANTS",
    "PlantModel",
    "PlantDataset",
    "IntegrationError",
    "make_plant",
    "plant_derivative",
    "integrate",
    "excitation_signal",
    "benchmark_dataset",
    "minmax_constants",
    "to_unit_range",
    "write_dataset",
]

CSTR_PARAMETERS = {
    "q": 100.0,      # volumetric flow rate
    "V": 100.0,      # reactor volume
    "rho": 1000.0,   # density
    "cp": 0.239,     # heat capacity
    "dH": 5e4,       # heat of reaction (exothermic, enters with + sign)
    "ER": 8750.0,    # activation energy over gas constant
    "k0": 7.2e10,    # pre-exponential factor
    "UA": 5e4,       # heat transfer coefficient times area
    "Tf": 350.0,     # feed temperature
    "Caf": 1.0,      # feed concentration
}

TWO_TANK_PARAMETERS = {
    "c1": 0.08,  # inlet gain
    "c2": 0.04,  # outlet gain
}


class IntegrationError(RuntimeError):
    """Raised when a simulated state stops being finite."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True, eq=False)
class PlantModel:
    """One plant kind: its parameters, kernel, boxes and benchmark protocol.

    kernel maps the parameter dict to the derivative on Python floats.
    state_bounds and input_bounds are (2, dim) [lower; upper] boxes; the
    dimensions are read off them, each input channel's excitation range is
    its column of input_bounds, and only plants with clamp_states set have
    their states clipped to the state box during integration.  The
    protocol benchmark_dataset runs starts at x0, samples every dt with
    substeps integrator steps per sample, and drives input channel j with
    the (signal, hold) pair excitation[j].
    """

    kind: str
    parameters: dict
    kernel: Callable
    state_bounds: np.ndarray
    input_bounds: np.ndarray
    x0: tuple
    dt: float
    excitation: tuple
    substeps: int = 1
    clamp_states: bool = False

    def __post_init__(self):
        for name in ("state_bounds", "input_bounds"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 2 or arr.shape[0] != 2 or not np.isfinite(arr).all():
                raise ValueError(f"{name} must be a finite (2, dim) box")
            object.__setattr__(self, name, arr)

    @property
    def state_dim(self) -> int:
        return self.state_bounds.shape[1]

    @property
    def input_dim(self) -> int:
        return self.input_bounds.shape[1]


def make_plant(kind: str, parameters: Optional[dict] = None) -> PlantModel:
    """PLANTS[kind] with a copy of its parameters, optionally overridden."""
    if kind not in PLANTS:
        raise ValueError(f"unknown plant kind {kind!r}")
    record = PLANTS[kind]
    return replace(record, parameters={**record.parameters, **(parameters or {})})


def _cstr_kernel(p: dict):
    """Reactor derivative on Python floats: (x1, x2, u) -> (dx1, dx2).

    Arrhenius reaction consuming x1, energy balance on x2 with feed,
    reaction heating, and jacket cooling (UA/(V rho cp))(u - x2).  The
    constant groups are folded once; the Arrhenius factor stays np.exp,
    whose last bit differs from math.exp on some arguments.
    """
    k0, er, caf, tf = p["k0"], p["ER"], p["Caf"], p["Tf"]
    qv = p["q"] / p["V"]
    heat = p["dH"] / (p["rho"] * p["cp"])
    cool = p["UA"] / (p["V"] * p["rho"] * p["cp"])

    def derivative(x1, x2, u):
        if x2 <= 0.0:
            raise ValueError(
                f"non-physical reactor temperature {x2} (absolute scale)"
            )
        r = k0 * float(np.exp(-er / x2)) * x1
        return (qv * (caf - x1) - r,
                qv * (tf - x2) + heat * r + cool * (u[0] - x2))

    return derivative


def _two_tank_kernel(p: dict):
    """Tank level derivatives on Python floats, with overflow shutoff.

    A level past full stops rising (derivative clamped to zero when the
    formula is positive) but may still drain; square roots are taken on
    the nonnegative part so tiny negative levels cannot produce NaNs.
    """
    c1, c2 = p["c1"], p["c2"]

    def derivative(x1, x2, u):
        root1 = math.sqrt(max(x1, 0.0))
        root2 = math.sqrt(max(x2, 0.0))
        d1 = (1.0 - u[0]) * c1 * u[1] - c2 * root1
        d2 = c1 * u[0] * u[1] + c2 * root1 - c2 * root2
        if x1 > 1.0 and d1 > 0.0:
            d1 = 0.0
        if x2 > 1.0 and d2 > 0.0:
            d2 = 0.0
        return d1, d2

    return derivative


# One record per plant kind: what make_plant, integrate and
# benchmark_dataset read.  The CSTR is sampled every 0.05 min around its
# nominal operating point under a stepped jacket temperature, with 40
# integrator substeps per sample because the reaction rate stiffens sharply
# when the reactor ignites onto its hot branch.  The two tanks start empty
# and are sampled every 1.0 under a PRBS valve and a stepped pump.
PLANTS = {plant.kind: plant for plant in (
    PlantModel(
        kind="cstr", parameters=CSTR_PARAMETERS, kernel=_cstr_kernel,
        state_bounds=[[0.0, 250.0], [1.0, 500.0]], input_bounds=[[290.0], [310.0]],
        x0=(0.878, 324.5), dt=0.05, substeps=40, excitation=(("steps", 20),),
    ),
    PlantModel(
        kind="two_tank", parameters=TWO_TANK_PARAMETERS, kernel=_two_tank_kernel,
        state_bounds=[[0.0, 0.0], [1.2, 1.2]], input_bounds=[[0.0, 0.0], [1.0, 1.0]],
        x0=(0.0, 0.0), dt=1.0, excitation=(("prbs", 100), ("steps", 50)),
        clamp_states=True,
    ),
)}


def plant_derivative(plant: PlantModel, x, u) -> np.ndarray:
    """The plant's state derivative at one state and input."""
    kernel = plant.kernel(plant.parameters)
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1).tolist()
    return np.array(kernel(float(x[0]), float(x[1]), u))


def _rk4_step(f, x1, x2, u, h):
    a1, b1 = f(x1, x2, u)
    a2, b2 = f(x1 + 0.5 * h * a1, x2 + 0.5 * h * b1, u)
    a3, b3 = f(x1 + 0.5 * h * a2, x2 + 0.5 * h * b2, u)
    a4, b4 = f(x1 + h * a3, x2 + h * b3, u)
    return (x1 + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            x2 + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4))


def _euler_step(f, x1, x2, u, h):
    a, b = f(x1, x2, u)
    return x1 + h * a, x2 + h * b


# The integrators ``integrate`` offers, by ``method`` name.
STEPPERS = {"rk4": _rk4_step, "euler": _euler_step}


def _clip(v, lo, hi):
    """np.clip of one float: NaN passes, a zero at a bound takes its sign."""
    v = lo if v <= lo else v
    return hi if v >= hi else v


@dataclass(frozen=True, eq=False)
class PlantDataset:
    """Simulated trajectory with contiguous train/dev/test splits.

    states and inputs are stored in physical units; normalization()
    returns the min-max constants over the full record, and
    normalized_states()/normalized_inputs() map into [-1, 1].
    """

    plant: PlantModel
    dt: float
    states: np.ndarray
    inputs: np.ndarray
    splits: tuple
    seed: Optional[int] = None

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        inputs = np.asarray(self.inputs, dtype=float)
        if states.ndim != 2 or inputs.ndim != 2:
            raise ValueError("states and inputs must be 2-D arrays")
        if states.shape[0] != inputs.shape[0]:
            raise ValueError("states and inputs must have equal length")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        spans = tuple((int(lo), int(hi)) for lo, hi in self.splits)
        if len(spans) != 3 or any(lo >= hi for lo, hi in spans):
            raise ValueError("splits must be three non-empty (lo, hi) ranges")
        if spans[0][0] != 0 or spans[2][1] != states.shape[0]:
            raise ValueError("splits must tile the record")
        if spans[0][1] != spans[1][0] or spans[1][1] != spans[2][0]:
            raise ValueError("splits must be contiguous")
        object.__setattr__(self, "splits", spans)

    @property
    def samples(self) -> int:
        return self.states.shape[0]

    def normalization(self) -> dict:
        s_min, s_max = minmax_constants(self.states)
        u_min, u_max = minmax_constants(self.inputs)
        return {
            "states": {"min": s_min.tolist(), "max": s_max.tolist()},
            "inputs": {"min": u_min.tolist(), "max": u_max.tolist()},
        }

    def normalized_states(self) -> np.ndarray:
        s_min, s_max = minmax_constants(self.states)
        return to_unit_range(self.states, s_min, s_max)

    def normalized_inputs(self) -> np.ndarray:
        u_min, u_max = minmax_constants(self.inputs)
        return to_unit_range(self.inputs, u_min, u_max)


def minmax_constants(arr: np.ndarray):
    arr = np.asarray(arr, dtype=float)
    return arr.min(axis=0), arr.max(axis=0)


def to_unit_range(arr, mins, maxs) -> np.ndarray:
    """Min-max map into [-1, 1]; constant channels map to 0."""
    span = np.asarray(maxs, dtype=float) - np.asarray(mins, dtype=float)
    live = span > 1e-12
    z = 2.0 * (np.asarray(arr, dtype=float) - mins) / np.where(live, span, 1.0) - 1.0
    return np.where(live, z, 0.0)


def _third_splits(n: int) -> tuple:
    third = n // 3
    return ((0, third), (third, 2 * third), (2 * third, n))


def integrate(
    plant: PlantModel,
    x0,
    input_sequence,
    dt: float,
    method: str = "rk4",
    substeps: int = 1,
    seed: Optional[int] = None,
) -> PlantDataset:
    """Simulate the plant under a zero-order-hold input sequence.

    Produces one state per input sample (the first being x0); the final
    input only matters to models trained on transitions.  States are
    clipped to the plant box after each step when the plant asks for it.

    substeps > 1 divides each sample interval into that many internal
    integrator steps (input still held), decoupling the data rate from
    the stiffness of the plant.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if substeps < 1:
        raise ValueError("substeps must be at least 1")
    if method not in STEPPERS:
        raise ValueError(f"unknown method {method!r}; use {' or '.join(STEPPERS)}")
    step = STEPPERS[method]
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != plant.state_dim:
        raise ValueError(f"x0 must have dimension {plant.state_dim}")
    inputs = np.asarray(input_sequence, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    if inputs.shape[1] != plant.input_dim:
        raise ValueError(f"inputs must have {plant.input_dim} channels")

    n = inputs.shape[0]
    f = plant.kernel(plant.parameters)
    x1, x2 = x.tolist()
    (lo1, lo2), (hi1, hi2) = plant.state_bounds.tolist()
    h = float(dt) / substeps
    states = np.empty((n, plant.state_dim))
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1):
            u = inputs[k].tolist()
            for _ in range(substeps):
                x1, x2 = step(f, x1, x2, u, h)
                if plant.clamp_states:
                    x1, x2 = _clip(x1, lo1, hi1), _clip(x2, lo2, hi2)
            if not (math.isfinite(x1) and math.isfinite(x2)):
                raise IntegrationError(
                    f"state became non-finite at step {k + 1}", step=k + 1
                )
            states[k + 1] = x1, x2
    return PlantDataset(
        plant=plant, dt=dt, states=states, inputs=inputs,
        splits=_third_splits(n), seed=seed,
    )


def excitation_signal(kind: str, length: int, bounds, hold: int, rng) -> np.ndarray:
    """Piecewise-constant random excitation, one channel.

    ``steps`` draws uniform levels in [lo, hi]; ``prbs`` flips between the
    two bound values.  Each level is held for `hold` samples.
    """
    if hold < 1:
        raise ValueError("hold must be at least 1")
    if length < 1:
        raise ValueError("length must be at least 1")
    lo, hi = float(bounds[0]), float(bounds[1])
    if lo > hi:
        raise ValueError("bounds must be ordered")
    n_blocks = -(-length // hold)
    if kind == "steps":
        levels = rng.uniform(lo, hi, n_blocks)
    elif kind == "prbs":
        levels = lo + (hi - lo) * rng.integers(0, 2, n_blocks)
    else:
        raise ValueError(f"unknown excitation kind {kind!r}; use steps or prbs")
    return np.repeat(levels, hold)[:length]


def benchmark_dataset(
    kind: str,
    seed: int = 0,
    samples: int = 3000,
    method: str = "rk4",
) -> PlantDataset:
    """The identification protocol: simulate the plant's record, then split
    into thirds.

    Every input channel is drawn in table order from one rng seeded with
    seed; 3000 samples give the 1000/1000/1000 protocol.
    """
    plant = make_plant(kind)
    rng = np.random.default_rng(seed)
    u = np.column_stack([
        excitation_signal(signal, samples, bounds, hold=hold, rng=rng)
        for (signal, hold), bounds in zip(plant.excitation, plant.input_bounds.T)
    ])
    return integrate(plant, plant.x0, u, dt=plant.dt, method=method,
                     substeps=plant.substeps, seed=seed)


def write_dataset(dataset: PlantDataset, csv_path, sidecar_path) -> None:
    """Emit the trajectory CSV plus a JSON sidecar with all metadata."""
    n_x, n_u = dataset.plant.state_dim, dataset.plant.input_dim
    artifacts.write_csv(
        csv_path,
        ["t"] + [f"x{i + 1}" for i in range(n_x)] + [f"u{i + 1}" for i in range(n_u)],
        [artifacts.numbers(np.arange(dataset.samples) * dataset.dt)]
        + [artifacts.numbers(col) for col in dataset.states.T]
        + [artifacts.numbers(col) for col in dataset.inputs.T],
    )
    artifacts.write_json(sidecar_path, {
        "plant": {
            "kind": dataset.plant.kind,
            "parameters": dataset.plant.parameters,
            "state_dim": n_x,
            "input_dim": n_u,
            "state_bounds": dataset.plant.state_bounds.tolist(),
            "input_bounds": dataset.plant.input_bounds.tolist(),
            "clamp_states": dataset.plant.clamp_states,
        },
        "dt": dataset.dt,
        "seed": dataset.seed,
        "samples": dataset.samples,
        "splits": [list(span) for span in dataset.splits],
        "normalization": dataset.normalization(),
    })
