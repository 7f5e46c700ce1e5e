"""Tests for the benchmark plants, integrator, and dataset protocol."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from neurodissip.plants import (
    CSTR_PARAMETERS,
    IntegrationError,
    PlantDataset,
    benchmark_dataset,
    excitation_signal,
    integrate,
    make_plant,
    minmax_constants,
    plant_derivative,
    to_unit_range,
    write_dataset,
)


def cstr_steady_temperature(u: float, p: dict) -> float:
    """Bisection oracle: solve the scalar steady-state equation for T.

    At steady state x1 = Caf / (1 + (V/q) k(T)); substituting into the
    energy balance leaves one equation in T, monotone near the
    low-temperature branch.
    """
    def g(T):
        k = p["k0"] * np.exp(-p["ER"] / T)
        x1 = p["Caf"] / (1.0 + (p["V"] / p["q"]) * k)
        return (
            (p["q"] / p["V"]) * (p["Tf"] - T)
            + (p["dH"] / (p["rho"] * p["cp"])) * k * x1
            + (p["UA"] / (p["V"] * p["rho"] * p["cp"])) * (u - T)
        )
    lo, hi = 300.0, 330.0
    assert g(lo) > 0 > g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_derivative(plant, x, u) -> np.ndarray:
    """The plant derivatives in array form, as integrate computed them before
    it stepped on Python floats."""
    p = plant.parameters
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float).reshape(-1)
    if plant.kind == "cstr":
        if x[1] <= 0.0:
            raise ValueError(f"non-physical reactor temperature {x[1]}")
        r = p["k0"] * np.exp(-p["ER"] / x[1]) * x[0]
        qv = p["q"] / p["V"]
        return np.array([
            qv * (p["Caf"] - x[0]) - r,
            qv * (p["Tf"] - x[1])
            + (p["dH"] / (p["rho"] * p["cp"])) * r
            + (p["UA"] / (p["V"] * p["rho"] * p["cp"])) * (u[0] - x[1]),
        ])
    root1 = np.sqrt(max(x[0], 0.0))
    root2 = np.sqrt(max(x[1], 0.0))
    d1 = (1.0 - u[0]) * p["c1"] * u[1] - p["c2"] * root1
    d2 = p["c1"] * u[0] * u[1] + p["c2"] * root1 - p["c2"] * root2
    if x[0] > 1.0 and d1 > 0.0:
        d1 = 0.0
    if x[1] > 1.0 and d2 > 0.0:
        d2 = 0.0
    return np.array([d1, d2])


def reference_rk4_step(plant, x, u, dt):
    k1 = reference_derivative(plant, x, u)
    k2 = reference_derivative(plant, x + 0.5 * dt * k1, u)
    k3 = reference_derivative(plant, x + 0.5 * dt * k2, u)
    k4 = reference_derivative(plant, x + dt * k3, u)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_euler_step(plant, x, u, dt):
    return x + dt * reference_derivative(plant, x, u)


def reference_states(plant, x0, inputs, dt, method="rk4", substeps=1):
    """integrate's states, stepped on arrays one numpy call at a time."""
    step = {"rk4": reference_rk4_step, "euler": reference_euler_step}[method]
    inputs = np.asarray(inputs, dtype=float).reshape(len(inputs), -1)
    states = np.empty((inputs.shape[0], plant.state_dim))
    states[0] = x0
    lower, upper = plant.state_bounds
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(inputs.shape[0] - 1):
            x = states[k]
            for _ in range(substeps):
                x = step(plant, x, inputs[k], dt / substeps)
                if plant.clamp_states:
                    x = np.clip(x, lower, upper)
            states[k + 1] = x
    return states


class TestCstrDerivative:
    def test_no_reactant_means_no_reaction(self):
        p = CSTR_PARAMETERS
        dx = plant_derivative(make_plant("cstr", p), [0.0, 320.0], [300.0])
        assert dx[0] == pytest.approx(p["q"] / p["V"] * p["Caf"])

    def test_cooling_term_vanishes_at_equal_temperatures(self):
        p = CSTR_PARAMETERS
        base = plant_derivative(make_plant("cstr", p), [0.0, 320.0], [320.0])
        # With u = x2 and no reactant the temperature change is feed-only.
        assert base[1] == pytest.approx(p["q"] / p["V"] * (p["Tf"] - 320.0))

    def test_rejects_non_physical_temperature(self):
        with pytest.raises(ValueError, match="non-physical"):
            plant_derivative(make_plant("cstr"), [0.5, -1.0], [300.0])

    def test_steady_state_matches_bisection_oracle(self):
        p = CSTR_PARAMETERS
        t_ss = cstr_steady_temperature(300.0, p)
        assert 324.0 <= t_ss <= 325.0
        k = p["k0"] * np.exp(-p["ER"] / t_ss)
        x1_ss = p["Caf"] / (1.0 + (p["V"] / p["q"]) * k)
        assert 0.87 <= x1_ss <= 0.90
        residual = plant_derivative(make_plant("cstr", p), [x1_ss, t_ss], [300.0])
        assert np.abs(residual).max() < 1e-6

    def test_simulation_settles_onto_the_steady_state(self):
        p = CSTR_PARAMETERS
        plant = make_plant("cstr")
        u = np.full(2000, 300.0)
        ds = integrate(plant, [0.5, 330.0], u, dt=0.1)
        t_ss = cstr_steady_temperature(300.0, p)
        assert ds.states[-1, 1] == pytest.approx(t_ss, abs=1e-6)

    def test_mass_balance_without_reaction_is_exponential(self):
        plant = make_plant("cstr", parameters={"k0": 0.0})
        u = np.full(101, 300.0)
        ds = integrate(plant, [0.2, 350.0], u, dt=0.01)
        p = plant.parameters
        t = 100 * 0.01
        expected = p["Caf"] + (0.2 - p["Caf"]) * np.exp(-p["q"] / p["V"] * t)
        assert ds.states[-1, 0] == pytest.approx(expected, abs=1e-9)


class TestTwoTankDerivative:
    def test_empty_and_idle_stays_empty(self):
        p = {"c1": 0.08, "c2": 0.04}
        dx = plant_derivative(make_plant("two_tank", p), [0.0, 0.0], [0.0, 0.0])
        np.testing.assert_array_equal(dx, [0.0, 0.0])

    def test_pump_fills_first_tank(self):
        p = {"c1": 0.08, "c2": 0.04}
        dx = plant_derivative(make_plant("two_tank", p), [0.5, 0.5], [0.0, 1.0])
        assert dx[0] == pytest.approx(0.08 - 0.04 * np.sqrt(0.5))

    def test_boundary_level_belongs_to_the_active_case(self):
        p = {"c1": 0.08, "c2": 0.04}
        dx = plant_derivative(make_plant("two_tank", p), [1.0, 0.5], [0.0, 1.0])
        assert dx[0] == pytest.approx(0.08 - 0.04)  # formula, not clamp

    def test_overfull_tank_stops_rising_but_can_drain(self):
        p = {"c1": 0.08, "c2": 0.04}
        rising = plant_derivative(make_plant("two_tank", p), [1.01, 0.0], [0.0, 1.0])
        assert rising[0] == 0.0
        draining = plant_derivative(make_plant("two_tank", p), [1.01, 0.0], [0.0, 0.0])
        assert draining[0] == pytest.approx(-0.04 * np.sqrt(1.01))

    def test_negative_levels_do_not_nan(self):
        p = {"c1": 0.08, "c2": 0.04}
        dx = plant_derivative(make_plant("two_tank", p), [-1e-9, -1e-9], [1.0, 1.0])
        assert np.isfinite(dx).all()

    def test_levels_stay_in_the_physical_box(self):
        plant = make_plant("two_tank")
        rng = np.random.default_rng(0)
        valve = excitation_signal("prbs", 2000, (0.0, 1.0), hold=40, rng=rng)
        pump = excitation_signal("steps", 2000, (0.0, 1.0), hold=30, rng=rng)
        ds = integrate(plant, [0.0, 0.0], np.column_stack([valve, pump]), dt=1.0)
        assert ds.states.min() >= 0.0
        assert ds.states.max() <= 1.0 + 1.0 * 0.08 + 1e-12


class TestIntegrate:
    def test_rk4_matches_the_exponential(self):
        # The linear test equation through the two-tank interface: set
        # c1 = 0, c2 so the outflow is sqrt-free at the fixed level? No:
        # use the CSTR with k0 = 0 instead (exact linear relaxation).
        plant = make_plant("cstr", parameters={"k0": 0.0, "UA": 0.0})
        u = np.full(101, 300.0)
        ds = integrate(plant, [1.0, 351.0], u, dt=0.01)
        # x2 relaxes to Tf at rate q/V = 1: (x2 - 350) = e^{-t}.
        expected = 350.0 + 1.0 * np.exp(-1.0)
        assert ds.states[-1, 1] == pytest.approx(expected, abs=1e-6)

    def test_rk4_error_scales_as_fourth_order(self):
        plant = make_plant("cstr", parameters={"k0": 0.0, "UA": 0.0})

        def final(dt, steps):
            u = np.full(steps + 1, 300.0)
            return integrate(plant, [1.0, 351.0], u, dt=dt).states[-1, 1]

        exact = 350.0 + np.exp(-1.0)
        err_coarse = abs(final(0.1, 10) - exact)
        err_fine = abs(final(0.05, 20) - exact)
        assert err_coarse / err_fine == pytest.approx(16.0, rel=0.2)

    def test_euler_is_first_order(self):
        plant = make_plant("cstr", parameters={"k0": 0.0, "UA": 0.0})

        def final(dt, steps):
            u = np.full(steps + 1, 300.0)
            return integrate(plant, [1.0, 351.0], u, dt=dt,
                             method="euler").states[-1, 1]

        exact = 350.0 + np.exp(-1.0)
        err_coarse = abs(final(0.1, 10) - exact)
        err_fine = abs(final(0.05, 20) - exact)
        assert err_coarse / err_fine == pytest.approx(2.0, rel=0.2)

    def test_constant_trajectory_under_zero_dynamics(self):
        plant = make_plant("two_tank")
        ds = integrate(plant, [0.0, 0.0], np.zeros((50, 2)), dt=1.0)
        np.testing.assert_array_equal(ds.states, np.zeros((50, 2)))

    def test_non_finite_state_names_the_step(self):
        plant = make_plant("cstr", parameters={"k0": 1e300})
        u = np.full(50, 300.0)
        with pytest.raises((IntegrationError, ValueError)):
            integrate(plant, [0.9, 400.0], u, dt=1.0)

    def test_rejects_bad_method_and_dt(self):
        plant = make_plant("two_tank")
        with pytest.raises(ValueError, match="method"):
            integrate(plant, [0, 0], np.zeros((5, 2)), dt=1.0, method="rk8")
        with pytest.raises(ValueError, match="dt"):
            integrate(plant, [0, 0], np.zeros((5, 2)), dt=0.0)


class TestMatchesArrayReference:
    """integrate and the public derivatives equal the array form bit for bit."""

    @pytest.mark.parametrize("seed", [0, 506])  # 506 crosses the ignition
    @pytest.mark.parametrize("method", ["rk4", "euler"])
    def test_cstr_dataset(self, seed, method):
        ds = benchmark_dataset("cstr", seed=seed, samples=900, method=method)
        ref = reference_states(ds.plant, [0.878, 324.5], ds.inputs, dt=0.05,
                               method=method, substeps=40)
        np.testing.assert_array_equal(ds.states, ref)
        assert ds.states.tobytes() == ref.tobytes()

    def test_two_tank_dataset_with_active_clamp(self):
        ds = benchmark_dataset("two_tank", seed=0, samples=3000)
        ref = reference_states(ds.plant, [0.0, 0.0], ds.inputs, dt=1.0)
        unclamped = dataclasses.replace(ds.plant, clamp_states=False)
        assert not np.array_equal(
            ref, reference_states(unclamped, [0.0, 0.0], ds.inputs, dt=1.0))
        np.testing.assert_array_equal(ds.states, ref)
        assert ds.states.tobytes() == ref.tobytes()

    def test_failures_still_raise(self):
        u = np.full(50, 300.0)
        runaway = make_plant("cstr", parameters={"k0": 1e300})
        with pytest.raises(ValueError, match="non-physical reactor temperature -inf"):
            integrate(runaway, [0.9, 400.0], u, dt=1.0)
        with pytest.raises(ValueError, match="non-physical"):
            integrate(make_plant("cstr"), [0.9, 400.0], u, dt=5.0)
        inputs = np.zeros((5, 2))
        inputs[2, 1] = np.nan
        with pytest.raises(IntegrationError) as info:
            integrate(make_plant("two_tank"), [0.5, 0.5], inputs, dt=1.0)
        assert info.value.step == 3

    def test_public_derivatives(self):
        rng = np.random.default_rng(11)
        for kind, lo, hi in (("cstr", [0.0, 280.0, 290.0], [1.0, 480.0, 310.0]),
                             ("two_tank", [-0.1, -0.1, 0.0, 0.0],
                              [1.3, 1.3, 1.0, 1.0])):
            plant = make_plant(kind)
            for point in rng.uniform(lo, hi, (200, len(lo))):
                x, u = point[:2], point[2:]
                assert (plant_derivative(plant, x, u).tobytes()
                        == reference_derivative(plant, x, u).tobytes())


class TestExcitation:
    def test_hold_equal_to_length_is_constant(self):
        rng = np.random.default_rng(1)
        sig = excitation_signal("steps", 100, (0.0, 1.0), hold=100, rng=rng)
        assert np.ptp(sig) == 0.0

    def test_degenerate_bounds_are_constant(self):
        rng = np.random.default_rng(2)
        sig = excitation_signal("steps", 50, (0.7, 0.7), hold=5, rng=rng)
        np.testing.assert_array_equal(sig, np.full(50, 0.7))

    def test_prbs_is_binary(self):
        rng = np.random.default_rng(3)
        sig = excitation_signal("prbs", 500, (0.0, 1.0), hold=7, rng=rng)
        assert set(np.unique(sig).tolist()) <= {0.0, 1.0}
        assert len(np.unique(sig)) == 2

    def test_blocks_have_the_requested_hold(self):
        rng = np.random.default_rng(4)
        sig = excitation_signal("steps", 60, (0.0, 1.0), hold=20, rng=rng)
        for block in sig.reshape(3, 20):
            assert np.ptp(block) == 0.0

    def test_deterministic_given_seed(self):
        a = excitation_signal("steps", 30, (0, 1), 5, np.random.default_rng(9))
        b = excitation_signal("steps", 30, (0, 1), 5, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestDatasetProtocol:
    def test_three_thousand_sample_protocol(self):
        ds = benchmark_dataset("two_tank", seed=0)
        assert ds.samples == 3000
        assert ds.splits == ((0, 1000), (1000, 2000), (2000, 3000))
        lo, hi = ds.splits[0]
        train_x, train_u = ds.states[lo:hi], ds.inputs[lo:hi]
        assert train_x.shape == (1000, 2) and train_u.shape == (1000, 2)

    def test_determinism(self):
        a = benchmark_dataset("two_tank", seed=5)
        b = benchmark_dataset("two_tank", seed=5)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_normalization_roundtrip(self):
        ds = benchmark_dataset("cstr", seed=1, samples=600)
        z = ds.normalized_states()
        assert z.min() >= -1.0 - 1e-12 and z.max() <= 1.0 + 1e-12
        mins, maxs = minmax_constants(ds.states)
        back = (z + 1.0) * (maxs - mins) / 2.0 + mins
        np.testing.assert_allclose(back, ds.states, atol=1e-9)

    def test_constant_channel_normalizes_to_zero(self):
        z = to_unit_range(np.full((5, 1), 3.0), np.array([3.0]), np.array([3.0]))
        np.testing.assert_array_equal(z, np.zeros((5, 1)))

    def test_rejects_gapped_splits(self):
        plant = make_plant("two_tank")
        with pytest.raises(ValueError, match="contiguous"):
            PlantDataset(
                plant=plant, dt=1.0,
                states=np.zeros((30, 2)), inputs=np.zeros((30, 2)),
                splits=((0, 10), (12, 20), (20, 30)),
            )

    def test_csv_and_sidecar_roundtrip(self, tmp_path):
        ds = benchmark_dataset("two_tank", seed=2, samples=300)
        csv_path = tmp_path / "data.csv"
        sidecar_path = tmp_path / "data.json"
        write_dataset(ds, csv_path, sidecar_path)

        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "x2", "u1", "u2"]
        assert len(rows) == 301

        doc = json.loads(sidecar_path.read_text())
        assert doc["plant"]["kind"] == "two_tank"
        assert doc["splits"] == [[0, 100], [100, 200], [200, 300]]
        assert "normalization" in doc

        data = np.array([[float(v) for v in row] for row in rows[1:]])
        np.testing.assert_array_equal(data[:, 0], np.arange(300) * ds.dt)
        np.testing.assert_array_equal(data[:, 1:3], ds.states)
        np.testing.assert_array_equal(data[:, 3:], ds.inputs)
        assert tuple(tuple(span) for span in doc["splits"]) == ds.splits
        assert doc["plant"]["parameters"] == ds.plant.parameters
        assert doc["dt"] == ds.dt
        assert doc["seed"] == 2
