"""Trajectory rollout, attractor classification, and depth spectra.

The autonomous system is x_{t+1} = net.forward(x_t).  Rollouts halt early
on divergence (state norm above 1e6) or convergence (five consecutive
steps smaller than 1e-9).  Completed trajectories are classified as
converged_point, limit_cycle, diverged, or undetermined; line-like and
quasi-periodic tails both land in undetermined with a tail bounding box,
since no finite-horizon test separates them robustly.

One batched stepper applies these halting rules and one classifier
labels its trajectories: basin_map runs both on a grid of initial
conditions, and rollout is their batch of one.  The stepper steps each
distinct state once: trajectories that reach the same state bits (with
the same convergence run) share one row from then on, so a basin whose
cells fall onto a few attractors soon steps only a few rows, and the
classifier detects the cycle of a tail that such cells share once.  The
stepper stops once its whole state repeats bit for bit and replays that
cycle for the rest of the horizon.  basin_map clusters the observed
limit points (including every state of a detected limit cycle) within a
1e-4 radius, so a two-point cycle counts as two distinct limits; certify
merges its equilibria by the same rule within 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional, Sequence

import numpy as np

from . import artifacts, linalg
from .dissipativity import GridSpec, require_square
from .network import Layer, MlpNetwork
from .pwa import extract_pwa_batch

__all__ = [
    "Trajectory",
    "BasinMap",
    "SpectraStudy",
    "rollout",
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

# Steps between checks for trajectories that share a state; the gap
# doubles after a check that finds none.
_MERGE_GAP = 16
# Multiplier of the int64 hash the check sorts rows by.
_HASH_PRIME = 1000003


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    # ~(>=) keeps a nan gap a candidate, as a failed >= test did.
    for p in (np.flatnonzero(~(gaps[1:] >= cycle_tol)) + 2).tolist():
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


def _classify(ring, final, halts, tail_rows, cycle_tol: float, max_period: int):
    """Label _rollout_tails' trajectories; returns (classes, periods,
    points, labels).  points holds the limits in trajectory order (a final
    state, or every state of a cycle), and labels[k] indexes k's limit in
    it (a cycle's smallest state), -1 where none applies.
    """
    # Trajectories that shared a stepper row when their tail began have
    # bit-equal tails, so each such group's cycle is detected once.
    n = halts.shape[0]
    periods = np.zeros(n, dtype=np.int64)
    horizon = np.flatnonzero(halts == _HALT_HORIZON)
    order = np.argsort(tail_rows[horizon])
    edges = np.flatnonzero(np.diff(tail_rows[horizon[order]])) + 1
    cycles = []
    for cells in np.split(horizon[order], edges) if horizon.size else ():
        hit = _detect_cycle(ring[:, cells[0]], cycle_tol, max_period)
        if hit is not None:
            periods[cells] = hit[0]
            cycles.append((cells, hit[1]))
    converged = halts == _HALT_CONVERGED
    classes = np.full(n, CLASS_UNDETERMINED, dtype="U16")
    classes[converged] = CLASS_CONVERGED
    classes[halts == _HALT_DIVERGED] = CLASS_DIVERGED
    classes[periods > 0] = CLASS_CYCLE

    sizes = np.where(converged, 1, periods)
    first = np.cumsum(sizes) - sizes
    points = np.empty((int(sizes.sum()), ring.shape[2]))
    points[first[converged]] = final[converged]
    labels = np.where(sizes > 0, first, -1)
    for cells, cycle in cycles:
        points[first[cells, None] + np.arange(cycle.shape[0])] = cycle
        labels[cells] += int(np.lexsort(cycle.T[::-1])[0])
    return classes, periods, points, labels


def rollout(
    net: MlpNetwork,
    x0,
    steps: int = DEFAULT_HORIZON,
    cycle_tol: float = DEFAULT_CYCLE_TOL,
    max_period: int = DEFAULT_MAX_PERIOD,
) -> Trajectory:
    """Iterate the network from x0, halting early on the standard rules.

    This is the batch of one of basin_map's stepper and classifier, so a
    rollout and a basin cell from the same start share their rules, but
    not always the bits: a one-row product may round differently from the
    same row in a larger batch, and the states then drift apart.
    """
    require_square(net)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    x = linalg.as_vector(x0, "x0")
    if x.shape[0] != net.input_dim:
        raise ValueError(f"x0 has {x.shape[0]} entries but the map's state "
                         f"dimension is {net.input_dim}")
    # One trajectory with a window of steps + 1 has shift 0, so the ring
    # holds the whole trajectory in order.
    ring, final, halts, ends, tail_rows = _rollout_tails(net, x[None], steps, steps + 1)
    classes, periods, points, _ = _classify(ring, final, halts, tail_rows, cycle_tol, max_period)
    states, cls = ring[: ends[0] + 1, 0], str(classes[0])
    period = int(periods[0]) or None  # periods is 0 where no cycle was found
    limit = points[0] if cls == CLASS_CONVERGED else points if period else None
    bounds = None
    if cls == CLASS_UNDETERMINED:
        tail = states[-min(states.shape[0], max_period) :]
        bounds = np.stack([tail.min(axis=0), tail.max(axis=0)])
    return Trajectory(states=states, halt=halts[0], classification=cls,
                      limit=limit, period=period, tail_bounds=bounds)


def _cluster(points: np.ndarray, tol: float):
    """Cluster finite points by a fixed merge radius, in point order.

    Point j joins the nearest representative drawn from the points before
    it (the earliest one on a tie) when that lies within tol, and becomes
    a representative itself otherwise.  One pass per representative
    updates the later points' nearest distance, so the cost is
    points x representatives inside numpy.  Returns (ids, reps).
    """
    n, dim = points.shape
    best = np.full(n, np.inf)
    ids = np.zeros(n, dtype=np.int64)
    reps = []
    j = 0
    while j < n:
        rep = points[j]
        ids[j] = len(reps)
        reps.append(rep)
        dists = np.sqrt(np.sum((rep - points[j + 1 :]) ** 2, axis=1))
        # Strict <: an equally near later representative never wins.
        closer = dists < best[j + 1 :]
        best[j + 1 :][closer] = dists[closer]
        ids[j + 1 :][closer] = len(reps) - 1
        far = best[j + 1 :] > tol
        if not far.any():
            break
        j += 1 + int(np.argmax(far))
    return ids, np.array(reps).reshape(-1, dim)


def _shared_rows(cur: np.ndarray, consec: np.ndarray):
    """Group rows whose state bits and convergence-run count are equal.

    Returns (first, inverse): the kept rows and, for each row, its group's
    index into them; None when every row is distinct.  Rows are sorted by a
    hash of their key and compared in full with their sorted neighbour, so
    a hash collision can only hide a merge, never make a false one.
    """
    bits = cur.view(np.int64)
    key = consec * _HASH_PRIME
    for column in bits.T:
        key = (key ^ column) * _HASH_PRIME
    order = np.argsort(key)
    ordered = bits[order]
    same = (ordered[1:] == ordered[:-1]).all(axis=1)
    same &= consec[order[1:]] == consec[order[:-1]]
    if not same.any():
        return None
    new = np.concatenate(([True], ~same))
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _rollout_tails(net: MlpNetwork, starts: np.ndarray, steps: int, window: int):
    """Batched rollout keeping a ring buffer of each trajectory's tail.

    Every running trajectory has made the same number of steps, so state t
    of each goes to ring slot (t + shift) % window, with the shift chosen
    so that a trajectory reaching the horizon ends with its last ``window``
    states in slot order.  Returns (ring, final, halts, ends, tail_rows):
    ring[:, k] is the ordered tail of trajectory k if it ran to the
    horizon, final[k] its last state if it halted early, halts[k] its halt
    label and ends[k] the step it halted at (steps at the horizon).

    Trajectories that meet are stepped once: each distinct running
    (state bits, convergence-run count) is one row of the stepper, and
    ``row_of`` maps every running trajectory to its row (None while each
    is its own row).  The ring gathers every trajectory's state from its
    row, and halting is judged per row and fanned out.  Rows are merged
    on a check every ``_MERGE_GAP`` steps; the gap doubles after a check
    that finds nothing.  While two or more trajectories run, at least two
    rows are stepped, because a one-row product may round differently
    from the same row in a larger one.  A batch of one never merges.
    tail_rows[k] is the row trajectory k held at state steps + 1 - window,
    where its tail begins (-1 if it had halted), so horizon trajectories
    with equal labels have bit-equal tails.

    The rows' state bits, their run counts and ``row_of`` determine every
    later step, so once they equal a snapshot taken at step 1, 2, 4, 8, ...
    (Brent's cycle search) with no merge or halt between, the state has
    closed a cycle of period P.  If P < window, stepping stops there: the
    ring still holds each trajectory's last P states, and they are
    replayed into the slots the window keeps up to the horizon.  A fixed
    point still halts by the run rule, since its run count changes every
    step.
    """
    n_traj, dim = starts.shape
    shift = (window - steps - 1) % window
    tail_start = steps + 1 - window
    buf = np.empty((window, n_traj, dim))
    buf[shift] = starts
    final = np.empty_like(starts)
    halts = np.full(n_traj, _HALT_HORIZON, dtype=object)
    ends = np.full(n_traj, steps, dtype=np.int64)
    tail_rows = np.full(n_traj, -1, dtype=np.int64)
    if tail_start == 0:
        tail_rows[:] = np.arange(n_traj)
    idx = np.arange(n_traj)
    cur = np.array(starts, dtype=float)
    consec = np.zeros(n_traj, dtype=np.int64)
    row_of = None
    gap = check = _MERGE_GAP
    seen = seen_rows = None
    seen_t = 0

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, steps + 1):
            if cur.shape[0] == 1 < idx.size:
                nxt = net.forward_trace(np.repeat(cur, 2, axis=0))[0][:1]
            else:
                nxt, _ = net.forward_trace(cur)
            norms = np.sqrt((nxt * nxt).sum(axis=1))
            steps_len = np.sqrt(((nxt - cur) ** 2).sum(axis=1))
            slot = buf[(t + shift) % window]
            if idx.size < n_traj:
                slot[idx] = nxt if row_of is None else nxt.take(row_of, axis=0)
            elif row_of is None:
                slot[...] = nxt
            else:
                nxt.take(row_of, axis=0, out=slot)

            # A nan or infinite norm fails <= too, so it diverges.
            diverged = ~(norms <= DIVERGENCE_NORM)
            consec = np.where(steps_len < CONVERGENCE_TOL, consec + 1, 0)
            halted = diverged | (consec >= CONVERGENCE_RUN)
            cur = nxt
            if halted.any():
                keep = ~halted
                cur, consec = nxt[keep], consec[keep]
                if row_of is not None:
                    # Each row's verdict holds for all its trajectories.
                    halted, diverged = halted[row_of], diverged[row_of]
                    row_of = (np.cumsum(keep) - 1)[row_of[~halted]]
                out = idx[halted]
                final[out] = slot[out]
                ends[out] = t
                halts[idx[diverged]] = _HALT_DIVERGED
                halts[idx[halted & ~diverged]] = _HALT_CONVERGED
                idx = idx[~halted]
                if idx.size == 0:
                    break

            if t == check:
                shared = _shared_rows(cur, consec) if cur.shape[0] > 1 else None
                if shared is None:
                    gap *= 2
                else:
                    first, inverse = shared
                    cur, consec = cur[first], consec[first]
                    row_of = inverse if row_of is None else inverse[row_of]
                    gap = _MERGE_GAP
                check = t + gap
            # The same row_of object means no merge or halt since the
            # snapshot; a merge still due would change which rows are
            # stepped, never a trajectory's bits.
            key = cur.tobytes() + consec.tobytes()
            repeats = (key == seen and row_of is seen_rows
                       and t - seen_t < window)
            if t == tail_start or repeats and t < tail_start:
                tail_rows[idx] = np.arange(idx.size) if row_of is None else row_of
            if repeats:
                _replay_cycle(buf, shift, t, t - seen_t, max(t + 1, tail_start), steps)
                break
            if not t & (t - 1):
                seen, seen_rows, seen_t = key, row_of, t

    return buf, final, halts, ends, tail_rows


def _replay_cycle(buf, shift, t, period, start, steps):
    """Fill the ring slots of states start..steps from the cycle of states
    t - period + 1..t, which the ring still holds (period < window)."""
    window = buf.shape[0]
    cycle = buf[(np.arange(t - period + 1, t + 1) + shift) % window]
    slots = (np.arange(start, steps + 1) + shift) % window
    for i in range(min(period, slots.size)):
        buf[slots[i::period]] = cycle[(start + i - t - 1) % period]


def basin_map(
    net: MlpNetwork,
    grid: Optional[GridSpec] = None,
    steps: int = DEFAULT_HORIZON,
    cycle_tol: float = DEFAULT_CYCLE_TOL,
    max_period: int = DEFAULT_MAX_PERIOD,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> BasinMap:
    """Roll out every grid cell centre and cluster the limit points."""
    require_square(net, plane="basin maps")
    grid = grid or GridSpec(resolution=40)
    starts = grid.cell_centers()
    window = min(steps + 1, 2 * max_period + 1)
    ring, final, halts, _, tail_rows = _rollout_tails(net, starts, steps, window)
    classes, periods, points, labels = _classify(ring, final, halts, tail_rows,
                                                 cycle_tol, max_period)
    ids, reps = _cluster(points, cluster_tol)
    limit_ids = np.append(ids, -1)[labels]  # a label of -1 reads the -1

    res = grid.resolution
    return BasinMap(
        spec=grid,
        classifications=classes.reshape(res, res),
        limit_ids=limit_ids.reshape(res, res),
        periods=periods.reshape(res, res),
        limit_points=reps,
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
    require_square(MlpNetwork(layers=(layer,)))
    studies = []
    for depth in depths:
        if depth < 1:
            raise ValueError("depths must be at least 1")
        net = MlpNetwork(layers=tuple(layer for _ in range(depth)))
        # An overflowing depth leaves non-finite A(x) and so nan moduli.
        with np.errstate(over="ignore", invalid="ignore"):
            a = extract_pwa_batch(net, anchors, mode=mode)[0]
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
    steps, dim = traj.states.shape
    artifacts.write_csv(
        path, ["t"] + [f"x{i + 1}" for i in range(dim)],
        [range(steps)] + [artifacts.numbers(col) for col in traj.states.T],
    )


def write_basin_csv(basin: BasinMap, path) -> None:
    centers = basin.spec.cell_centers()
    artifacts.write_csv(path, ("x1", "x2", "class", "limit_id"), (
        artifacts.repeated_numbers(centers[:, 0]),
        artifacts.repeated_numbers(centers[:, 1]),
        basin.classifications.ravel().tolist(),
        basin.limit_ids.ravel().tolist(),
    ))


def write_spectra_csv(studies: Sequence[SpectraStudy], path) -> None:
    artifacts.write_csv(path, ("bin_lo", "bin_hi", "count", "depth"), (
        chain.from_iterable(artifacts.numbers(s.bin_edges[:-1]) for s in studies),
        chain.from_iterable(artifacts.numbers(s.bin_edges[1:]) for s in studies),
        chain.from_iterable(s.histogram.tolist() for s in studies),
        chain.from_iterable(repeat(s.depth, s.histogram.shape[0]) for s in studies),
    ))
