"""Trajectory rollout, attractor classification, and depth spectra.

The autonomous system is x_{t+1} = net.forward(x_t).  Rollouts halt early
on divergence (state norm above 1e6) or convergence (five consecutive
steps smaller than 1e-9).  Completed trajectories are classified as
converged_point, limit_cycle, diverged, or undetermined; line-like and
quasi-periodic tails both land in undetermined with a tail bounding box,
since no finite-horizon test separates them robustly.

basin_map sweeps a grid of initial conditions with a batched rollout and
clusters the observed limit points (including every state of a detected
limit cycle) within a 1e-4 radius, so a two-point cycle counts as two
distinct limits.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .dissipativity import GridSpec
from .network import Layer, MlpNetwork
from .pwa import extract_pwa_batch

__all__ = [
    "Trajectory",
    "BasinMap",
    "SpectraStudy",
    "rollout",
    "classify_attractor",
    "basin_map",
    "depth_spectra",
    "write_trajectory_csv",
    "write_basin_csv",
    "write_spectra_csv",
]

CLASS_CONVERGED = "converged_point"
CLASS_CYCLE = "limit_cycle"
CLASS_DIVERGED = "diverged"
CLASS_UNDETERMINED = "undetermined"

DIVERGENCE_NORM = 1e6
CONVERGENCE_TOL = 1e-9
CONVERGENCE_RUN = 5
DEFAULT_HORIZON = 2000
DEFAULT_CYCLE_TOL = 1e-6
DEFAULT_MAX_PERIOD = 512
DEFAULT_CLUSTER_TOL = 1e-4

_HALT_HORIZON = "horizon"
_HALT_CONVERGED = "converged"
_HALT_DIVERGED = "diverged"


@dataclass(frozen=True)
class Trajectory:
    """A completed rollout with its classification.

    limit is the final state for converged_point, the (period, dim) cycle
    states for limit_cycle, and None otherwise.  tail_bounds carries the
    per-coordinate (min, max) box of the trailing window for undetermined
    trajectories.
    """

    states: np.ndarray
    halt: str
    classification: str
    limit: Optional[np.ndarray] = None
    period: Optional[int] = None
    tail_bounds: Optional[np.ndarray] = None

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1


@dataclass(frozen=True)
class BasinMap:
    """Grid of rollout outcomes plus the deduplicated limit points."""

    spec: GridSpec
    classifications: np.ndarray  # (res, res) strings
    limit_ids: np.ndarray        # (res, res) int, -1 where no limit applies
    periods: np.ndarray          # (res, res) int, 0 where not a cycle
    limit_points: np.ndarray     # (clusters, dim)

    def summary(self) -> dict:
        labels, counts = np.unique(self.classifications, return_counts=True)
        return {
            "cells": int(self.classifications.size),
            "classes": {str(l): int(c) for l, c in zip(labels, counts)},
            "limit_clusters": int(self.limit_points.shape[0]),
        }


@dataclass(frozen=True)
class SpectraStudy:
    """Pooled local eigenvalue moduli of a weight-shared net at one depth."""

    depth: int
    eigenvalue_moduli: np.ndarray
    bin_edges: np.ndarray
    histogram: np.ndarray

    def median_modulus(self) -> float:
        return float(np.median(self.eigenvalue_moduli))


def _detect_cycle(states: np.ndarray, cycle_tol: float, max_period: int):
    """Find the smallest period >= 2 recurring at the end of a state array.

    Requires a full extra period of history for verification, so periods up
    to (len(states) - 1) // 2 are considered.  Near-constant tails (cycle
    diameter within cycle_tol) are rejected as slow convergence rather
    than oscillation.
    """
    m = states.shape[0]
    last = states[-1]
    cap = min(max_period, (m - 1) // 2)
    if cap < 2:
        return None
    lags = states[m - 1 - cap : m - 1][::-1]  # lags[p-1] = states[-1-p]
    gaps = np.sqrt(np.sum((lags - last) ** 2, axis=1))
    for p in range(2, cap + 1):
        if gaps[p - 1] >= cycle_tol:
            continue
        block = states[m - p :]
        prev = states[m - 2 * p : m - p]
        if np.sqrt(np.sum((block - prev) ** 2, axis=1)).max() >= cycle_tol:
            continue
        diameter = np.sqrt(
            np.sum((block[:, None, :] - block[None, :, :]) ** 2, axis=2)
        ).max()
        if diameter <= cycle_tol:
            continue  # a fixed point approached slowly, not a cycle
        return p, block.copy()
    return None


def _classify(states: np.ndarray, halt: str, cycle_tol: float, max_period: int):
    """Returns (classification, limit, period, tail_bounds)."""
    if halt == _HALT_CONVERGED:
        return CLASS_CONVERGED, states[-1].copy(), None, None
    if halt == _HALT_DIVERGED:
        return CLASS_DIVERGED, None, None, None
    hit = _detect_cycle(states, cycle_tol, max_period)
    if hit is not None:
        period, cycle = hit
        return CLASS_CYCLE, cycle, period, None
    tail = states[-min(states.shape[0], max_period) :]
    bounds = np.stack([tail.min(axis=0), tail.max(axis=0)])
    return CLASS_UNDETERMINED, None, None, bounds


def rollout(
    net: MlpNetwork,
    x0,
    steps: int = DEFAULT_HORIZON,
    cycle_tol: float = DEFAULT_CYCLE_TOL,
    max_period: int = DEFAULT_MAX_PERIOD,
) -> Trajectory:
    """Iterate the network from x0, halting early on the standard rules."""
    if net.output_dim != net.input_dim:
        raise ValueError(
            f"autonomous rollout needs a square net, got "
            f"{net.input_dim} -> {net.output_dim}"
        )
    if steps < 1:
        raise ValueError("steps must be at least 1")
    x = linalg.as_vector(x0, "x0")
    states = [x.copy()]
    halt = _HALT_HORIZON
    consec = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            x_next = net.forward(x)
            states.append(x_next.copy())
            norm = float(np.sqrt(np.sum(x_next * x_next)))
            if not np.isfinite(norm) or norm > DIVERGENCE_NORM:
                halt = _HALT_DIVERGED
                break
            step = float(np.sqrt(np.sum((x_next - x) ** 2)))
            consec = consec + 1 if step < CONVERGENCE_TOL else 0
            x = x_next
            if consec >= CONVERGENCE_RUN:
                halt = _HALT_CONVERGED
                break
    arr = np.asarray(states)
    cls, limit, period, bounds = _classify(arr, halt, cycle_tol, max_period)
    return Trajectory(
        states=arr, halt=halt, classification=cls,
        limit=limit, period=period, tail_bounds=bounds,
    )


def classify_attractor(
    traj: Trajectory,
    cycle_tol: float = DEFAULT_CYCLE_TOL,
    max_period: int = DEFAULT_MAX_PERIOD,
) -> str:
    """Re-derive the classification of a completed trajectory."""
    cls, _, _, _ = _classify(traj.states, traj.halt, cycle_tol, max_period)
    return cls


class _LimitClusters:
    """Online clustering of limit points by a fixed merge radius."""

    def __init__(self, tol: float):
        self.tol = tol
        self.points: list[np.ndarray] = []

    def assign(self, point: np.ndarray) -> int:
        if self.points:
            reps = np.asarray(self.points)
            dists = np.sqrt(np.sum((reps - point) ** 2, axis=1))
            hit = int(np.argmin(dists))
            if dists[hit] <= self.tol:
                return hit
        self.points.append(np.asarray(point, dtype=float).copy())
        return len(self.points) - 1

    def as_array(self, dim: int) -> np.ndarray:
        if not self.points:
            return np.zeros((0, dim))
        return np.asarray(self.points)


def _rollout_tails(net: MlpNetwork, starts: np.ndarray, steps: int, window: int):
    """Batched rollout keeping a ring buffer of each trajectory's tail.

    Returns (tails, halts, counts) where tails[k] is the (m_k, dim) ordered
    tail of trajectory k, halts[k] a halt label, and counts[k] the number
    of states produced (initial state included).
    """
    n_traj, dim = starts.shape
    buf = np.empty((window, n_traj, dim))
    buf[0] = starts
    counts = np.ones(n_traj, dtype=np.int64)
    halts = np.full(n_traj, _HALT_HORIZON, dtype=object)
    consec = np.zeros(n_traj, dtype=np.int64)
    active = np.ones(n_traj, dtype=bool)
    x = starts.copy()

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            cur = x[idx]
            nxt, _ = net.forward_batch(cur)
            norms = np.sqrt(np.sum(nxt * nxt, axis=1))
            steps_len = np.sqrt(np.sum((nxt - cur) ** 2, axis=1))

            buf[counts[idx] % window, idx] = nxt
            counts[idx] += 1
            x[idx] = nxt

            diverged = ~np.isfinite(norms) | (norms > DIVERGENCE_NORM)
            small = steps_len < CONVERGENCE_TOL
            consec[idx] = np.where(small, consec[idx] + 1, 0)
            converged = (consec[idx] >= CONVERGENCE_RUN) & ~diverged

            halts[idx[diverged]] = _HALT_DIVERGED
            halts[idx[converged]] = _HALT_CONVERGED
            active[idx] = ~(diverged | converged)

    tails = []
    for k in range(n_traj):
        m = int(min(counts[k], window))
        order = (counts[k] - m + np.arange(m)) % window
        tails.append(buf[order, k])
    return tails, halts, counts


def basin_map(
    net: MlpNetwork,
    grid: Optional[GridSpec] = None,
    steps: int = DEFAULT_HORIZON,
    cycle_tol: float = DEFAULT_CYCLE_TOL,
    max_period: int = DEFAULT_MAX_PERIOD,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> BasinMap:
    """Roll out every grid cell centre and cluster the limit points."""
    if net.output_dim != net.input_dim:
        raise ValueError("basin maps need a square net")
    if net.input_dim != 2:
        raise ValueError(
            f"basin maps are defined for 2-D state spaces, got dimension "
            f"{net.input_dim}"
        )
    grid = grid or GridSpec(resolution=40)
    starts = grid.cell_centers()
    window = min(steps + 1, 2 * max_period + 1)
    tails, halts, _ = _rollout_tails(net, starts, steps, window)

    res = grid.resolution
    classes = np.full(starts.shape[0], CLASS_UNDETERMINED, dtype="U16")
    limit_ids = np.full(starts.shape[0], -1, dtype=np.int64)
    periods = np.zeros(starts.shape[0], dtype=np.int64)
    clusters = _LimitClusters(cluster_tol)

    for k in range(starts.shape[0]):
        cls, limit, period, _ = _classify(tails[k], halts[k], cycle_tol, max_period)
        classes[k] = cls
        if cls == CLASS_CONVERGED:
            limit_ids[k] = clusters.assign(limit)
        elif cls == CLASS_CYCLE:
            ids = [clusters.assign(state) for state in limit]
            canonical = int(np.lexsort(limit.T[::-1])[0])
            limit_ids[k] = ids[canonical]
            periods[k] = period

    return BasinMap(
        spec=grid,
        classifications=classes.reshape(res, res),
        limit_ids=limit_ids.reshape(res, res),
        periods=periods.reshape(res, res),
        limit_points=clusters.as_array(2),
    )


def depth_spectra(
    layer: Layer,
    depths: Sequence[int],
    anchors,
    mode: str = "linear",
    bins: int = 50,
) -> list[SpectraStudy]:
    """Pooled eigenvalue moduli of weight-shared nets at several depths.

    For each depth L, an L-layer net repeating the given layer is built,
    the affine form is extracted at every anchor, and the moduli of the
    A(x) eigenvalues are pooled and binned into a fixed histogram over
    [0, max].
    """
    rows, cols = layer.weight.shape
    if rows != cols:
        raise ValueError("depth spectra need a square layer template")
    anchors = np.asarray(anchors, dtype=float)
    if anchors.ndim != 2 or anchors.shape[1] != cols:
        raise ValueError(
            f"anchors must be (count, {cols}), got {anchors.shape}"
        )
    studies = []
    for depth in depths:
        if depth < 1:
            raise ValueError("depths must be at least 1")
        net = MlpNetwork(layers=tuple(layer for _ in range(depth)))
        a, _ = extract_pwa_batch(net, anchors, mode=mode)
        eigs = linalg._eigenvalues_batch(a)
        moduli = np.abs(eigs).ravel()
        hi = float(moduli.max()) if moduli.size and moduli.max() > 0 else 1.0
        counts, edges = np.histogram(moduli, bins=bins, range=(0.0, hi))
        studies.append(SpectraStudy(
            depth=int(depth),
            eigenvalue_moduli=moduli,
            bin_edges=edges,
            histogram=counts,
        ))
    return studies


def write_trajectory_csv(traj: Trajectory, path) -> None:
    dim = traj.states.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(dim)])
        for t, state in enumerate(traj.states):
            writer.writerow([t] + [repr(float(v)) for v in state])


def write_basin_csv(basin: BasinMap, path) -> None:
    xs = basin.spec.axis_centers(0)
    ys = basin.spec.axis_centers(1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "class", "limit_id"])
        for i in range(basin.spec.resolution):
            for j in range(basin.spec.resolution):
                writer.writerow([
                    repr(float(xs[i])), repr(float(ys[j])),
                    basin.classifications[i, j],
                    int(basin.limit_ids[i, j]),
                ])


def write_spectra_csv(studies: Sequence[SpectraStudy], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count", "depth"])
        for study in studies:
            for b in range(study.histogram.shape[0]):
                writer.writerow([
                    repr(float(study.bin_edges[b])),
                    repr(float(study.bin_edges[b + 1])),
                    int(study.histogram[b]),
                    study.depth,
                ])
