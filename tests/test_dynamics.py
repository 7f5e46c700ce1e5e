"""Tests for rollouts, attractor classification, and depth spectra."""

import csv
import json

import numpy as np
import pytest

from neurodissip import cli, dynamics, linalg
from neurodissip.dissipativity import GridSpec
from neurodissip.dynamics import (
    basin_map,
    depth_spectra,
    rollout,
    write_basin_csv,
    write_spectra_csv,
    write_trajectory_csv,
)
from neurodissip.network import Layer, MlpNetwork
from neurodissip.pwa import extract_pwa
from neurodissip.structured import draw_map


def linear_net(a, b=None, activation="identity"):
    return MlpNetwork(layers=(Layer(
        weight=np.asarray(a, dtype=float),
        bias=b if b is None else np.asarray(b, dtype=float),
        activation=activation,
    ),))


def rotation(theta, scale=1.0):
    c, s = np.cos(theta), np.sin(theta)
    return scale * np.array([[c, -s], [s, c]])


class TestRollout:
    def test_geometric_decay_converges_to_origin(self):
        traj = rollout(linear_net(0.5 * np.eye(2)), [4.0, 0.0], steps=200)
        assert traj.classification == "converged_point"
        assert traj.steps <= 60
        assert np.linalg.norm(traj.limit) <= 1e-6

    def test_expansion_diverges(self):
        traj = rollout(linear_net(2.0 * np.eye(2)), [1.0, 0.0])
        assert traj.classification == "diverged"
        assert np.linalg.norm(traj.states[-1]) > 1e6
        assert traj.limit is None

    def test_non_finite_states_count_as_divergence(self):
        net = MlpNetwork(layers=(
            Layer(weight=1e200 * np.eye(2), activation="identity"),
            Layer(weight=1e200 * np.eye(2), activation="identity"),
        ))
        traj = rollout(net, [1.0, 1.0], steps=10)
        assert traj.classification == "diverged"

    def test_irrational_rotation_stays_undetermined_and_bounded(self):
        traj = rollout(linear_net(rotation(1.0)), [1.0, 0.0])
        assert traj.classification == "undetermined"
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-10
        assert traj.tail_bounds is not None
        assert (np.abs(traj.tail_bounds) <= 1.0 + 1e-10).all()

    def test_sign_flip_is_a_period_two_cycle(self):
        traj = rollout(linear_net(-np.eye(2)), [1.0, 0.0], steps=50)
        assert traj.classification == "limit_cycle"
        assert traj.period == 2
        got = {tuple(np.round(s, 9)) for s in traj.limit}
        assert got == {(1.0, 0.0), (-1.0, 0.0)}

    def test_slow_creep_is_not_a_cycle(self):
        traj = rollout(linear_net((1.0 - 1e-8) * np.eye(2)), [1.0, 0.0])
        assert traj.classification == "undetermined"
        box = traj.tail_bounds
        assert (box[1] - box[0]).max() < 1e-4

    def test_rejects_non_square(self):
        net = MlpNetwork(layers=(Layer(weight=np.ones((1, 2))),))
        with pytest.raises(ValueError, match="square"):
            rollout(net, [1.0, 1.0])

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError, match="steps"):
            rollout(linear_net(np.eye(2)), [1.0, 0.0], steps=0)

    def test_certified_zero_bias_nets_converge_to_origin(self):
        rng = np.random.default_rng(0)
        w1 = rng.standard_normal((2, 2))
        w1 *= 0.9 / linalg.spectral_norm(w1)
        w2 = rng.standard_normal((2, 2))
        w2 *= 0.9 / linalg.spectral_norm(w2)
        net = MlpNetwork(layers=(
            Layer(weight=w1, activation="tanh"),
            Layer(weight=w2, activation="tanh"),
        ))
        for _ in range(20):
            x0 = rng.uniform(-6.0, 6.0, 2)
            traj = rollout(net, x0)
            assert traj.classification == "converged_point"
            assert np.linalg.norm(traj.limit) <= 1e-6

    def test_norm_decay_bound_along_trajectory(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((2, 2))
        w *= 0.8 / linalg.spectral_norm(w)
        net = MlpNetwork(layers=(
            Layer(weight=w, bias=np.array([0.3, -0.2]), activation="tanh"),
        ))
        traj = rollout(net, [5.0, -3.0], steps=300)
        for t in range(traj.steps):
            form = extract_pwa(net, traj.states[t], mode="affine")
            bound = (
                linalg.spectral_norm(form.a_star) * np.linalg.norm(traj.states[t])
                + np.linalg.norm(form.b_star)
            )
            assert np.linalg.norm(traj.states[t + 1]) <= bound + 1e-9


class TestClassify:
    def test_reclassify_converged(self):
        traj = rollout(linear_net(0.5 * np.eye(2)), [1.0, 0.0])
        assert traj.classification == "converged_point"

    def test_cycle_detection_respects_max_period(self):
        net = linear_net(-np.eye(2))
        short = rollout(net, [1.0, 0.0], steps=50, max_period=1)
        assert short.classification == "undetermined"
        assert rollout(net, [1.0, 0.0], steps=50, max_period=8).classification == "limit_cycle"

    def test_row_stochastic_relu_reaches_consensus_points(self):
        w = draw_map("perron_frobenius", 2, 1.0, 1.0, seed=3).realize()
        net = linear_net(w, activation="relu")
        limits = []
        for x0 in ([4.0, 1.0], [1.0, 4.0], [-2.0, 5.0], [0.5, 0.25]):
            traj = rollout(net, x0)
            assert traj.classification == "converged_point"
            limits.append(traj.limit)
        limits = np.asarray(limits)
        # Every limit sits on the diagonal line of consensus states.
        np.testing.assert_allclose(limits[:, 0], limits[:, 1], atol=1e-6)
        assert np.ptp(limits[:, 0]) > 0.1  # distinct points along the line


class TestBasin:
    def test_contractive_net_has_single_origin_cluster(self):
        basin = basin_map(linear_net(0.5 * np.eye(2), activation="tanh"),
                          GridSpec(resolution=9))
        assert (basin.classifications == "converged_point").all()
        assert basin.limit_points.shape[0] == 1
        assert np.linalg.norm(basin.limit_points[0]) <= 1e-6
        assert (basin.limit_ids == 0).all()

    def test_consensus_line_yields_many_collinear_clusters(self):
        w = draw_map("perron_frobenius", 2, 1.0, 1.0, seed=3).realize()
        basin = basin_map(linear_net(w, activation="relu"),
                          GridSpec(resolution=15))
        assert (basin.classifications == "converged_point").all()
        pts = basin.limit_points
        assert pts.shape[0] > 5
        np.testing.assert_allclose(pts[:, 0], pts[:, 1], atol=1e-6)

    def test_global_two_point_cycle_makes_two_clusters(self):
        w = draw_map("gershgorin_complex", 2, -1.5, -1.1, seed=1).realize()
        bias = np.random.default_rng(1).uniform(-0.5, 0.5, 2)
        net = MlpNetwork(layers=(Layer(weight=w, bias=bias, activation="selu"),))
        basin = basin_map(net, GridSpec(resolution=9))
        assert (basin.classifications == "limit_cycle").all()
        assert (basin.periods == 2).all()
        assert basin.limit_points.shape[0] == 2
        assert len(np.unique(basin.limit_ids)) == 1  # one shared cycle

    def test_batched_rollout_matches_scalar(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((2, 2))
        w *= 0.9 / linalg.spectral_norm(w)
        net = MlpNetwork(layers=(
            Layer(weight=w, bias=np.array([0.2, 0.1]), activation="gelu"),
        ))
        grid = GridSpec(resolution=5)
        basin = basin_map(net, grid)
        for i in (0, 2, 4):
            for j in (1, 3):
                traj = rollout(net, [grid.axis_centers(0)[i],
                                     grid.axis_centers(1)[j]])
                assert basin.classifications[i, j] == traj.classification
                cluster = basin.limit_points[basin.limit_ids[i, j]]
                np.testing.assert_allclose(cluster, traj.limit, atol=1e-6)

    def test_deterministic(self):
        net = linear_net(rotation(1.0, scale=0.99), activation="tanh")
        a = basin_map(net, GridSpec(resolution=7))
        b = basin_map(net, GridSpec(resolution=7))
        np.testing.assert_array_equal(a.classifications, b.classifications)
        np.testing.assert_array_equal(a.limit_ids, b.limit_ids)
        np.testing.assert_array_equal(a.limit_points, b.limit_points)

    def test_rejects_higher_dimensions(self):
        with pytest.raises(ValueError, match="2-D"):
            basin_map(linear_net(0.5 * np.eye(3)))


# --- the per-trajectory basin loop, verbatim -----------------------------------

def reference_rollout_tails(net, starts, steps, window):
    n_traj, dim = starts.shape
    buf = np.empty((window, n_traj, dim))
    buf[0] = starts
    counts = np.ones(n_traj, dtype=np.int64)
    halts = np.full(n_traj, dynamics._HALT_HORIZON, dtype=object)
    consec = np.zeros(n_traj, dtype=np.int64)
    active = np.ones(n_traj, dtype=bool)
    x = starts.copy()

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            cur = x[idx]
            nxt, _ = net.forward_trace(cur)
            norms = np.sqrt(np.sum(nxt * nxt, axis=1))
            steps_len = np.sqrt(np.sum((nxt - cur) ** 2, axis=1))

            buf[counts[idx] % window, idx] = nxt
            counts[idx] += 1
            x[idx] = nxt

            diverged = ~np.isfinite(norms) | (norms > dynamics.DIVERGENCE_NORM)
            small = steps_len < dynamics.CONVERGENCE_TOL
            consec[idx] = np.where(small, consec[idx] + 1, 0)
            converged = (consec[idx] >= dynamics.CONVERGENCE_RUN) & ~diverged

            halts[idx[diverged]] = dynamics._HALT_DIVERGED
            halts[idx[converged]] = dynamics._HALT_CONVERGED
            active[idx] = ~(diverged | converged)

    tails = []
    for k in range(n_traj):
        m = int(min(counts[k], window))
        order = (counts[k] - m + np.arange(m)) % window
        tails.append(buf[order, k])
    return tails, halts, counts


def reference_classify(states, halt, cycle_tol, max_period):
    """The scalar classifier of one trajectory, as it stood before basin_map
    and rollout shared the grouped one.  Returns (classification, limit,
    period, tail_bounds)."""
    if halt == dynamics._HALT_CONVERGED:
        return "converged_point", states[-1].copy(), None, None
    if halt == dynamics._HALT_DIVERGED:
        return "diverged", None, None, None
    hit = dynamics._detect_cycle(states, cycle_tol, max_period)
    if hit is not None:
        period, cycle = hit
        return "limit_cycle", cycle, period, None
    tail = states[-min(states.shape[0], max_period) :]
    bounds = np.stack([tail.min(axis=0), tail.max(axis=0)])
    return "undetermined", None, None, bounds


class ReferenceLimitClusters:
    def __init__(self, tol):
        self.tol = tol
        self.points = []

    def assign(self, point):
        if self.points:
            reps = np.asarray(self.points)
            dists = np.sqrt(np.sum((reps - point) ** 2, axis=1))
            hit = int(np.argmin(dists))
            if dists[hit] <= self.tol:
                return hit
        self.points.append(np.asarray(point, dtype=float).copy())
        return len(self.points) - 1

    def as_array(self, dim):
        if not self.points:
            return np.zeros((0, dim))
        return np.asarray(self.points)


def reference_basin_map(net, grid, steps):
    cycle_tol = dynamics.DEFAULT_CYCLE_TOL
    max_period = dynamics.DEFAULT_MAX_PERIOD
    starts = grid.cell_centers()
    window = min(steps + 1, 2 * max_period + 1)
    tails, halts, _ = reference_rollout_tails(net, starts, steps, window)

    res = grid.resolution
    classes = np.full(starts.shape[0], "undetermined", dtype="U16")
    limit_ids = np.full(starts.shape[0], -1, dtype=np.int64)
    periods = np.zeros(starts.shape[0], dtype=np.int64)
    clusters = ReferenceLimitClusters(dynamics.DEFAULT_CLUSTER_TOL)

    for k in range(starts.shape[0]):
        cls, limit, period, _ = reference_classify(tails[k], halts[k],
                                                   cycle_tol, max_period)
        classes[k] = cls
        if cls == "converged_point":
            limit_ids[k] = clusters.assign(limit)
        elif cls == "limit_cycle":
            ids = [clusters.assign(state) for state in limit]
            canonical = int(np.lexsort(limit.T[::-1])[0])
            limit_ids[k] = ids[canonical]
            periods[k] = period

    return (classes.reshape(res, res), limit_ids.reshape(res, res),
            periods.reshape(res, res), clusters.as_array(2))


MIXED_HALTS = ("network.activation=selu", "map.lambda_min=0.99",
               "map.lambda_max=1.10", "analysis.resolution=40")


def basin_config(preset, *overrides):
    data = json.loads(json.dumps(cli.PRESETS[preset])) if preset else {}
    for assignment in overrides:
        cli.apply_override(data, assignment)
    return cli.ExperimentConfig.from_dict(data)


class TestBasinBitForBit:
    """basin_map against the per-trajectory loop it replaced."""

    @pytest.mark.parametrize("preset, overrides, classes, clusters", [
        ("period-five", (), {"limit_cycle": 1600}, 5),
        ("period-two", (), {"limit_cycle": 1600}, 2),
        ("shifted-equilibrium", (), {"converged_point": 14400}, 1),
        ("quasiperiodic-orbit", (), {"undetermined": 1600}, 0),
        ("consensus-line", (), {"converged_point": 1600}, 925),
        ("divergent-softplus", (), {"diverged": 1600}, 0),
        (None, MIXED_HALTS, {"converged_point": 442, "diverged": 1158}, 1),
        ("period-five", ("analysis.horizon=1",), {"undetermined": 1600}, 0),
        ("period-two", ("analysis.horizon=3",), {"undetermined": 1600}, 0),
    ])
    def test_matches_reference(self, preset, overrides, classes, clusters):
        config = basin_config(preset, *overrides)
        basin = self.same_as_reference(cli.build_network(config),
                                       config.analysis, config.analysis.horizon)
        assert basin.summary()["classes"] == classes
        assert basin.summary()["limit_clusters"] == clusters

    @pytest.mark.parametrize("diagonal, classes", [
        ((-1.0, 0.5), {"converged_point": 9, "limit_cycle": 72}),
        ((-1.0, 1.5), {"converged_point": 1, "limit_cycle": 8, "diverged": 72}),
    ])
    def test_halts_beside_horizon_runs(self, diagonal, classes):
        # On an odd grid the column x1 = 0 converges while every other
        # cell keeps flipping sign: early halts next to horizon runs whose
        # ring buffer has wrapped.  (-1, 1.5) adds divergence off x2 = 0.
        basin = self.same_as_reference(linear_net(np.diag(diagonal)),
                                       GridSpec(resolution=9), dynamics.DEFAULT_HORIZON)
        assert basin.summary()["classes"] == classes

    @staticmethod
    def same_as_reference(net, grid, steps):
        basin = basin_map(net, grid, steps=steps)
        classes, limit_ids, periods, points = reference_basin_map(net, grid, steps)
        np.testing.assert_array_equal(basin.classifications, classes)
        np.testing.assert_array_equal(basin.limit_ids, limit_ids)
        np.testing.assert_array_equal(basin.periods, periods)
        assert basin.limit_points.shape == points.shape
        assert basin.limit_points.tobytes() == points.tobytes()
        return basin

    @pytest.mark.parametrize("seed", range(4))
    def test_clusters_match_online_assignment_on_ties(self, seed):
        # Lattice points 2**-15 apart, within a few merge radii of each
        # other: many points are exactly as far from two representatives.
        rng = np.random.default_rng(seed)
        points = rng.integers(-12, 13, size=(400, 2)) * 2.0**-15
        reference = ReferenceLimitClusters(dynamics.DEFAULT_CLUSTER_TOL)
        expected = [reference.assign(p) for p in points]
        ids, reps = dynamics._cluster(points, dynamics.DEFAULT_CLUSTER_TOL)
        assert ids.tolist() == expected
        assert reps.tobytes() == reference.as_array(2).tobytes()

    def test_no_points_no_clusters(self):
        ids, reps = dynamics._cluster(np.zeros((0, 2)), 1e-4)
        assert ids.shape == (0,) and reps.shape == (0, 2)


# --- the scalar rollout loop, verbatim -----------------------------------------

def reference_rollout(net, x0, steps=dynamics.DEFAULT_HORIZON,
                      cycle_tol=dynamics.DEFAULT_CYCLE_TOL,
                      max_period=dynamics.DEFAULT_MAX_PERIOD):
    x = linalg.as_vector(x0, "x0")
    states = [x.copy()]
    halt = dynamics._HALT_HORIZON
    consec = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            x_next = net.forward(x)
            states.append(x_next.copy())
            norm = float(np.sqrt(np.sum(x_next * x_next)))
            if not np.isfinite(norm) or norm > dynamics.DIVERGENCE_NORM:
                halt = dynamics._HALT_DIVERGED
                break
            step = float(np.sqrt(np.sum((x_next - x) ** 2)))
            consec = consec + 1 if step < dynamics.CONVERGENCE_TOL else 0
            x = x_next
            if consec >= dynamics.CONVERGENCE_RUN:
                halt = dynamics._HALT_CONVERGED
                break
    arr = np.asarray(states)
    cls, limit, period, bounds = reference_classify(arr, halt, cycle_tol, max_period)
    return dynamics.Trajectory(
        states=arr, halt=halt, classification=cls,
        limit=limit, period=period, tail_bounds=bounds,
    )


def square_2d_presets():
    names = []
    for name in sorted(cli.PRESETS):
        net = cli.build_network(basin_config(name))
        if net.input_dim == net.output_dim == 2:
            names.append(name)
    return names


def preset_starts(analysis, seed):
    """analysis.x0, the four 0.8 x range corners, three random starts, 1e10."""
    (x_lo, x_hi), (y_lo, y_hi) = analysis.x_range, analysis.y_range
    corners = [(0.8 * x, 0.8 * y) for x in (x_lo, x_hi) for y in (y_lo, y_hi)]
    rng = np.random.default_rng(seed)
    randoms = rng.uniform((x_lo, y_lo), (x_hi, y_hi), size=(3, 2))
    return [analysis.x0, *corners, *randoms, (1e10, 1e10)]


class TestRolloutIsBatchOfOne:
    """rollout runs basin_map's stepper; it must equal the scalar loop it replaced."""

    @staticmethod
    def same_as_reference(net, x0, **kwargs):
        traj = rollout(net, x0, **kwargs)
        want = reference_rollout(net, x0, **kwargs)
        np.testing.assert_array_equal(traj.states, want.states)
        assert traj.halt == want.halt
        assert traj.classification == want.classification
        assert traj.period == want.period
        for got, ref in ((traj.limit, want.limit), (traj.tail_bounds, want.tail_bounds)):
            assert (got is None) == (ref is None)
            if ref is not None:
                np.testing.assert_array_equal(got, ref)
        return traj

    @pytest.mark.parametrize("preset", square_2d_presets())
    def test_every_2d_preset(self, preset):
        config = basin_config(preset)
        net = cli.build_network(config)
        seed = sorted(cli.PRESETS).index(preset)
        for x0 in preset_starts(config.analysis, seed):
            self.same_as_reference(net, x0, steps=config.analysis.horizon)

    def test_diverging_start(self):
        traj = self.same_as_reference(linear_net(0.5 * np.eye(2)), [1e10, 1e10])
        assert traj.halt == "diverged" and traj.steps == 1

    @pytest.mark.parametrize("steps", [1, 50, 2000])
    @pytest.mark.parametrize("max_period", [1, 8, 512])
    @pytest.mark.parametrize("preset", ["period-five", "period-two",
                                        "quasiperiodic-orbit", "shifted-equilibrium"])
    def test_horizons_and_periods(self, preset, steps, max_period):
        config = basin_config(preset)
        net = cli.build_network(config)
        for x0 in preset_starts(config.analysis, seed=steps + max_period)[:3]:
            self.same_as_reference(net, x0, steps=steps, max_period=max_period)

    @pytest.mark.parametrize("activation", ["tanh", "selu", "gelu"])
    def test_three_dimensional_net(self, activation):
        rng = np.random.default_rng(7)
        w1, w2 = rng.standard_normal((2, 3, 3))
        net = MlpNetwork(layers=(
            Layer(weight=w1, bias=rng.uniform(-0.5, 0.5, 3), activation=activation),
            Layer(weight=w2 / linalg.spectral_norm(w2), activation=activation),
        ))
        for x0 in [np.zeros(3), *(3.0 * rng.standard_normal((3, 3))), np.full(3, 1e10)]:
            self.same_as_reference(net, x0)


# --- the stepper before trajectories shared rows, verbatim ---------------------

def plain_rollout_tails(net, starts, steps, window):
    n_traj, dim = starts.shape
    shift = (window - steps - 1) % window
    buf = np.empty((window, n_traj, dim))
    buf[shift] = starts
    final = np.empty_like(starts)
    halts = np.full(n_traj, dynamics._HALT_HORIZON, dtype=object)
    ends = np.full(n_traj, steps, dtype=np.int64)
    idx = np.arange(n_traj)
    cur = np.array(starts, dtype=float)
    consec = np.zeros(n_traj, dtype=np.int64)

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, steps + 1):
            nxt, _ = net.forward_trace(cur)
            norms = np.sqrt((nxt * nxt).sum(axis=1))
            steps_len = np.sqrt(((nxt - cur) ** 2).sum(axis=1))
            if idx.size == n_traj:
                buf[(t + shift) % window] = nxt
            else:
                buf[(t + shift) % window, idx] = nxt

            # A nan or infinite norm fails <= too, so it diverges.
            diverged = ~(norms <= dynamics.DIVERGENCE_NORM)
            consec = np.where(steps_len < dynamics.CONVERGENCE_TOL, consec + 1, 0)
            halted = diverged | (consec >= dynamics.CONVERGENCE_RUN)
            if not halted.any():
                cur = nxt
                continue
            converged = halted & ~diverged
            final[idx[halted]] = nxt[halted]
            ends[idx[halted]] = t
            halts[idx[diverged]] = dynamics._HALT_DIVERGED
            halts[idx[converged]] = dynamics._HALT_CONVERGED
            keep = ~halted
            idx, cur, consec = idx[keep], nxt[keep], consec[keep]
            if idx.size == 0:
                break

    return buf, final, halts, ends


def near_rotation_tanh():
    """0.999999 R(2 pi / 5), then tanh(1.3 I): a slowly decaying rotation."""
    return MlpNetwork(layers=(
        Layer(weight=rotation(2 * np.pi / 5, scale=0.999999)),
        Layer(weight=1.3 * np.eye(2), activation="tanh"),
    ))


class RowCounter:
    """Records the batch size of every network forward pass."""

    def __init__(self, monkeypatch):
        self.rows = []
        forward_trace = MlpNetwork.forward_trace

        def counted(net, x):
            self.rows.append(np.shape(x)[0])
            return forward_trace(net, x)

        monkeypatch.setattr(MlpNetwork, "forward_trace", counted)


class TestSharedRows:
    """The stepper that steps each distinct state once, against the plain one."""

    @staticmethod
    def same_as_plain(net, starts, steps, window):
        ring, final, halts, ends, tail_rows = dynamics._rollout_tails(
            net, starts, steps, window)
        want = plain_rollout_tails(net, starts, steps, window)
        assert halts.tolist() == want[2].tolist()
        np.testing.assert_array_equal(ends, want[3])
        # A ring column holds a tail only if its trajectory reached the
        # horizon, and final a state only if it halted early.
        horizon = halts == dynamics._HALT_HORIZON
        assert ring[:, horizon].tobytes() == want[0][:, horizon].tobytes()
        assert final[~horizon].tobytes() == want[1][~horizon].tobytes()
        assert (tail_rows[horizon] >= 0).all()
        return want

    @pytest.mark.parametrize("preset, overrides", [
        *(pytest.param(name, (), id=name) for name in square_2d_presets()),
        pytest.param(None, MIXED_HALTS, id="basin-mixed-halts"),
    ])
    def test_presets(self, preset, overrides, monkeypatch):
        config = basin_config(preset, *overrides)
        self.basin_same_as_plain(cli.build_network(config), config.analysis,
                                 config.analysis.horizon, monkeypatch)

    @classmethod
    def basin_same_as_plain(cls, net, grid, steps, monkeypatch):
        window = min(steps + 1, 2 * dynamics.DEFAULT_MAX_PERIOD + 1)
        want = cls.same_as_plain(net, grid.cell_centers(), steps, window)
        basin = basin_map(net, grid, steps=steps)

        # basin_map on the plain stepper, with every cell its own tail group.
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_rollout_tails",
                          lambda *args: (*want, np.arange(grid.resolution ** 2)))
            plain = basin_map(net, grid, steps=steps)
        np.testing.assert_array_equal(basin.classifications, plain.classifications)
        np.testing.assert_array_equal(basin.periods, plain.periods)
        np.testing.assert_array_equal(basin.limit_ids, plain.limit_ids)
        assert basin.limit_points.shape == plain.limit_points.shape
        assert basin.limit_points.tobytes() == plain.limit_points.tobytes()

    def test_copies_of_one_start_step_two_rows(self, monkeypatch):
        # A one-row product rounds differently from the same row in a
        # larger one under this net, so merged copies must keep two rows.
        net, starts = near_rotation_tanh(), np.tile([0.7, -0.4], (3, 1))
        self.same_as_plain(net, starts, 300, 301)
        counter = RowCounter(monkeypatch)
        dynamics._rollout_tails(net, starts, 300, 301)
        assert counter.rows[:dynamics._MERGE_GAP] == [3] * dynamics._MERGE_GAP
        assert set(counter.rows[dynamics._MERGE_GAP:]) == {2}

    def test_one_state_with_two_run_counts_stays_two_rows(self):
        # x1 counts down by one to 0 and stays there.  At the first merge
        # check both trajectories sit at the origin, one four small steps
        # into its convergence run and one just arrived, so they must
        # halt on different steps.
        gap = dynamics._MERGE_GAP
        net = linear_net(np.eye(2), b=[-1.0, 0.0], activation="relu")
        starts = np.array([[gap - 4.0, 0.0], [float(gap), 0.0]])
        self.same_as_plain(net, starts, 40, 41)
        ends = dynamics._rollout_tails(net, starts, 40, 41)[3]
        assert ends.tolist() == [gap + 1, gap + 5]

    def test_tails_are_shared_only_after_a_merge(self):
        # x1 counts down by one to 0 while x2 flips sign: (0, 1) is on a
        # two-cycle from the start, and (gap, 1) joins it at the first
        # merge check.
        net = MlpNetwork(layers=(
            Layer(weight=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                  bias=np.array([-1.0, 0.0, 0.0]), activation="relu"),
            Layer(weight=np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 1.0]])),
        ))
        gap = dynamics._MERGE_GAP
        starts = np.array([[0.0, 1.0], [float(gap), 1.0]])
        tail_rows = dynamics._rollout_tails(net, starts, gap + 4, 3)[4]
        assert tail_rows[0] == tail_rows[1]
        # A tail that begins before the merge still holds the countdown.
        ring, *_, tail_rows = dynamics._rollout_tails(net, starts, gap + 1, 5)
        assert tail_rows[0] != tail_rows[1]
        assert dynamics._detect_cycle(ring[:, 0], 1e-6, 2) is not None
        assert dynamics._detect_cycle(ring[:, 1], 1e-6, 2) is None

    def test_period_five_collapses_to_its_cycle(self, monkeypatch):
        # 5 rows from the merge check at step 64; the stepper's state then
        # repeats within one period, and the rest of the horizon is replayed.
        config = basin_config("period-five")
        net = cli.build_network(config)
        counter = RowCounter(monkeypatch)
        basin_map(net, config.analysis, steps=config.analysis.horizon)
        assert counter.rows[0] == 1600
        assert set(counter.rows[64:]) == {5}
        assert len(counter.rows) < 200

    def test_rollout_never_merges(self, monkeypatch):
        net = near_rotation_tanh()
        counter = RowCounter(monkeypatch)
        rollout(net, [0.7, -0.4], steps=300)
        assert counter.rows == [1] * 300


class TestCycleReplay:
    """Once the stepper's whole state repeats, the cycle is replayed to the
    horizon; the result must be the bits that further stepping gives."""

    @pytest.mark.parametrize("horizon, replays", [
        pytest.param(2000, True, id="closes-before-tail"),
        pytest.param(600, True, id="closes-in-tail"),
        pytest.param(60, False, id="horizon-first"),
    ])
    def test_period_five(self, horizon, replays, monkeypatch):
        config = basin_config("period-five", f"analysis.horizon={horizon}")
        net, analysis = cli.build_network(config), config.analysis
        TestSharedRows.basin_same_as_plain(net, analysis, horizon, monkeypatch)
        TestRolloutIsBatchOfOne.same_as_reference(net, analysis.x0, steps=horizon)

        window = min(horizon + 1, 2 * dynamics.DEFAULT_MAX_PERIOD + 1)
        tail_start = horizon + 1 - window
        counter = RowCounter(monkeypatch)
        dynamics._rollout_tails(net, analysis.cell_centers(), horizon, window)
        basin_steps, counter.rows = len(counter.rows), []
        rollout(net, analysis.x0, steps=horizon)
        if replays:
            # The basin stops before its tail window where that begins late.
            assert basin_steps < (tail_start or horizon)
            assert len(counter.rows) < horizon
        else:
            assert basin_steps == len(counter.rows) == horizon

    def test_cycle_as_long_as_the_window_is_stepped(self, monkeypatch):
        config = basin_config("period-five")
        net, starts = cli.build_network(config), config.analysis.cell_centers()
        TestSharedRows.same_as_plain(net, starts, 300, 5)
        counter = RowCounter(monkeypatch)
        dynamics._rollout_tails(net, starts, 300, 5)
        assert len(counter.rows) == 300

    def test_bitwise_fixed_point_still_converges(self):
        # relu(x1 - 1) counts x1 down to 0, which it then maps to 0: the
        # state bits repeat, but the run count grows until it halts.
        net = linear_net(np.eye(2), b=[-1.0, 0.0], activation="relu")
        starts = np.array([[0.0, 0.0], [3.0, 0.0], [7.0, 0.0]])
        TestSharedRows.same_as_plain(net, starts, 40, 41)
        ends = dynamics._rollout_tails(net, starts, 40, 41)[3]
        assert ends.tolist() == [5, 8, 12]
        for x0, end in zip(starts, ends):
            traj = TestRolloutIsBatchOfOne.same_as_reference(net, x0, steps=40)
            assert traj.halt == "converged" and traj.steps == end


class TestDepthSpectra:
    def test_linear_moduli_follow_the_power(self):
        w = rotation(0.7, scale=0.9)
        layer = Layer(weight=w, activation="identity")
        anchors = np.random.default_rng(5).uniform(-6, 6, (40, 2))
        studies = depth_spectra(layer, [1, 4, 8], anchors)
        for study in studies:
            expected = 0.9 ** study.depth
            np.testing.assert_allclose(study.eigenvalue_moduli, expected,
                                       atol=1e-10)

    def test_stable_power_bound(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((2, 2))
        w *= 0.9 / linalg.spectral_norm(w)
        layer = Layer(weight=w, activation="tanh")
        anchors = rng.uniform(-6, 6, (100, 2))
        for study in depth_spectra(layer, [1, 4, 8], anchors):
            assert study.eigenvalue_moduli.max() <= 0.9 ** study.depth + 1e-8

    def test_histogram_shape_and_mass(self):
        layer = Layer(weight=rotation(0.3, scale=0.8), activation="gelu")
        anchors = np.random.default_rng(7).uniform(-6, 6, (30, 2))
        (study,) = depth_spectra(layer, [4], anchors)
        assert study.histogram.shape == (50,)
        assert study.bin_edges.shape == (51,)
        assert study.bin_edges[0] == 0.0
        assert study.histogram.sum() == study.eigenvalue_moduli.size
        assert study.median_modulus() == pytest.approx(
            np.median(study.eigenvalue_moduli))

    def test_rejects_non_square_template(self):
        layer = Layer(weight=np.ones((1, 2)))
        with pytest.raises(ValueError, match="square"):
            depth_spectra(layer, [1], np.zeros((3, 2)))


class TestCsv:
    def test_trajectory_csv(self, tmp_path):
        traj = rollout(linear_net(0.5 * np.eye(2)), [4.0, 2.0], steps=100)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "x2"]
        assert len(rows) == traj.states.shape[0] + 1
        assert float(rows[1][1]) == 4.0

    def test_basin_csv(self, tmp_path):
        basin = basin_map(linear_net(0.5 * np.eye(2), activation="tanh"),
                          GridSpec(resolution=4))
        path = tmp_path / "basin.csv"
        write_basin_csv(basin, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert rows[0]["class"] == "converged_point"
        assert rows[0]["limit_id"] == "0"

    def test_spectra_csv(self, tmp_path):
        layer = Layer(weight=rotation(0.3, scale=0.8), activation="tanh")
        anchors = np.random.default_rng(8).uniform(-6, 6, (10, 2))
        studies = depth_spectra(layer, [1, 4], anchors)
        path = tmp_path / "spectra.csv"
        write_spectra_csv(studies, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        assert {r["depth"] for r in rows} == {"1", "4"}
