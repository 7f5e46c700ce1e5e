"""The four workloads: the commands of one round, and the checks of their outputs.

A round is the list of CLI commands a workload runs, each exactly as a
user would type it.  Every command writes into its own directory, so after
the timed rounds the checks read what the last round left there.  Checks
return a list of problems; an empty list means every output agreed with
the independent computation in oracle.py.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import oracle

# Rounding bands and tolerances; the README gives the reason for each.
VERDICT_BAND = 1e-9       # |sigma_1 - 1| within this: either verdict is right
NORM_RTOL = 1e-6          # program sigma_1 / A(x) vs LAPACK on our own A(x)
ITERATIVE_UNDER = 1e-3    # power iteration may read this far below sigma_1
ITERATIVE_BAND = 1e-3     # ... so verdicts this close to 1 may go either way
EIG_RTOL = 1e-6           # eigenvalue moduli, relative to sigma_1 of A(x)
STEP_RTOL = 1e-12         # one recorded rollout step vs a numpy forward pass
FIXED_TOL = 1e-8          # |f(p) - p| for converged limit points
CYCLE_TOL = 1e-5          # |f^k(p) - p| for limit-cycle points
CLUSTER_TOL = 2e-4        # cycle states must sit this close to a limit point
BRACKET_RTOL = 1e-6       # equilibrium bracket slack, relative to 1 + |x_bar|
CSTR_RTOL = 5e-6          # RK4 sample vs Radau over one interval, or else
CSTR_SUBSTEPS = 40        # ... the sample must be the documented 40-substep
RK4_RTOL = 1e-9           # ... RK4 step to this precision
CSTR_SAMPLES = 24         # transitions compared per dataset
MSE_RTOL = 1e-6           # recomputed best_test_mse vs the reported one

# The sweep's map rows, as the study defines them: three factorizations
# over seven bound pairs, one Perron-Frobenius row and one unstructured.
SWEEP_BOUNDS = ((-1.50, -1.10), (0.00, 1.00), (0.99, 1.00), (0.99, 1.01),
                (0.99, 1.10), (1.00, 1.01), (1.10, 1.50))
SWEEP_ROWS = ([(k, b) for k in ("gershgorin_real", "gershgorin_complex", "spectral_svd")
               for b in SWEEP_BOUNDS]
              + [("perron_frobenius", (1.00, 1.00)), ("unstructured", None)])
SWEEP_DEPTHS = (1,)
SWEEP_ACTIVATIONS = ("tanh", "selu")  # one gain-bounded, one that can amplify


class Op:
    """One CLI command of a round."""

    def __init__(self, argv: list, out: str, configs: int = 1):
        self.argv = list(argv) + ["--out", out]
        self.out = out
        self.configs = configs
        self.command = argv[0]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _config_net(cli, doc: dict):
    """The program network for a written config (weights are inputs)."""
    config = cli.ExperimentConfig.from_dict(doc["metadata"]["config"])
    return config, oracle.layers_of(cli.build_network(config))


def _verdict_count_ok(reported: int, sigma: np.ndarray, band: float) -> bool:
    finite = sigma[np.isfinite(sigma)]
    return int(np.sum(finite < 1.0 - band)) <= reported <= int(np.sum(finite < 1.0 + band))


def _check_norms(tag, reported, layers, under: float) -> list:
    problems = []
    for i, ((w, _, _), norm) in enumerate(zip(layers, reported)):
        ref = float(np.linalg.norm(w, 2))
        if not ref * (1.0 - under) - 1e-300 <= norm <= ref * (1.0 + 1e-12):
            problems.append(f"{tag}: layer {i} norm {norm!r} vs LAPACK {ref!r}")
    return problems


def _check_status(tag, report, layers, band, claimed_all, lapack_all) -> list:
    """GLOBAL iff gain-bounded activations and every LAPACK norm below 1;
    GLOBAL or REGIONAL only when every cell is dissipative."""
    norms = [float(np.linalg.norm(w, 2)) for w, _, _ in layers]
    bounded = all(oracle.gain_bounded(a) for _, _, a in layers if a is not None)
    status = report["status"]
    problems = []
    near = any(abs(n - 1.0) <= band for n in norms)
    if not near and (status == "GLOBAL (layerwise)") != (bounded and max(norms) < 1.0):
        problems.append(f"{tag}: status {status!r} but bounded={bounded}, norms={norms}")
    if status != "NOT CERTIFIED" and not (claimed_all and lapack_all):
        problems.append(f"{tag}: {status} yet some cell is not dissipative")
    if status == "NOT CERTIFIED" and claimed_all and not (bounded and max(norms) < 1.0):
        problems.append(f"{tag}: every cell dissipative yet NOT CERTIFIED")
    return problems


def _check_grid_summary(tag, summary, sigma, band) -> list:
    problems = []
    n_err = int(np.sum(~np.isfinite(sigma)))
    if summary["cells"] != sigma.size or summary["errors"] != n_err:
        problems.append(f"{tag}: {summary['cells']} cells/{summary['errors']} errors, "
                        f"expected {sigma.size}/{n_err}")
    if not _verdict_count_ok(summary["dissipative"], sigma, band):
        problems.append(f"{tag}: {summary['dissipative']} dissipative cells, LAPACK gives "
                        f"{int(np.sum(sigma < 1.0))}")
    if n_err < sigma.size and _rel(summary["max_a_norm"], float(np.nanmax(sigma))) > NORM_RTOL:
        problems.append(f"{tag}: max_a_norm {summary['max_a_norm']!r} vs LAPACK "
                        f"{float(np.nanmax(sigma))!r}")
    return problems


def _check_certificate_2d(cli, tag, report) -> list:
    config, layers = _config_net(cli, report)
    an = config.analysis
    sigma = oracle.sigma_max(oracle.assemble_a(
        layers, oracle.cell_centers(an.x_range, an.y_range, an.resolution)))
    problems = _check_norms(tag, report["layerwise"]["w_norms"], layers, 1e-10)
    problems += _check_grid_summary(tag, report["grid"], sigma, VERDICT_BAND)
    grid = report["grid"]
    problems += _check_status(tag, report, layers, VERDICT_BAND,
                              grid["dissipative"] == grid["cells"] and not grid["errors"],
                              bool(np.all(sigma < 1.0 + VERDICT_BAND)))
    return problems


# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, out_root: str):
        self.seed = seed
        self.out_root = out_root
        self.rng = np.random.default_rng(seed)
        self.ops = self.build()

    def op_dir(self, index: int, command: str) -> str:
        return os.path.join(self.out_root, f"{index:02d}-{command}")

    def build(self) -> list:
        raise NotImplementedError

    def failures(self, op: Op, rc: int) -> int:
        """Failed configs of one finished command."""
        return 0 if rc == 0 else op.configs

    def check(self, cli, failed_ops: set) -> list:
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"

    def build(self):
        argv = ["sweep", "--set", f"seed={self.seed}",
                "--depths", ",".join(map(str, SWEEP_DEPTHS)),
                "--activations", ",".join(SWEEP_ACTIVATIONS)]
        count = len(SWEEP_ROWS) * len(SWEEP_DEPTHS) * len(SWEEP_ACTIVATIONS) * 2
        return [Op(argv, self.op_dir(0, "sweep"), configs=count)]

    def failures(self, op, rc):
        path = os.path.join(op.out, "sweep.csv")
        if rc != 0 or not os.path.exists(path):
            return op.configs
        rows = _read_csv(path)
        return sum(r["status"] == "ERROR" for r in rows) + max(op.configs - len(rows), 0)

    def check(self, cli, failed_ops):
        op = self.ops[0]
        if id(op) in failed_ops:
            return []
        rows = _read_csv(os.path.join(op.out, "sweep.csv"))
        expected = set()
        for kind, bounds in SWEEP_ROWS:
            for depth in SWEEP_DEPTHS:
                for act in SWEEP_ACTIVATIONS:
                    for bias in ("nobias", "bias"):
                        parts = [kind] + ([f"{bounds[0]:.2f}", f"{bounds[1]:.2f}"]
                                          if bounds else [])
                        expected.add("_".join(parts + [f"d{depth}", act, bias]))
        problems = []
        if {r["name"] for r in rows} != expected:
            problems.append("sweep: sweep.csv does not list the slice's configs")
        for row in rows:
            if row["status"] == "ERROR":
                continue
            tag = f"sweep/{row['name']}"
            report = _read_json(os.path.join(op.out, "configs", row["name"] + ".json"))
            if row["status"] != report["status"]:
                problems.append(f"{tag}: csv status {row['status']!r} vs json")
            if float(row["fraction_dissipative"]) != report["grid"]["fraction_dissipative"]:
                problems.append(f"{tag}: csv fraction differs from json")
            problems += _check_certificate_2d(cli, tag, report)
        return problems


class CertifyWide(Workload):
    name = "certify-wide"
    # (width, depth, activation, map kind, lambda_min, lambda_max).  Relu and
    # the 0.99-1.01 / 0.99-1.10 bounds abort or misjudge today (CHANGES.md).
    SHAPES = ((8, 1, "tanh", "gershgorin_complex", 0.0, 1.0),
              (8, 4, "gelu", "spectral_svd", 1.10, 1.50),
              (8, 8, "selu", "gershgorin_real", -1.50, -1.10),
              (16, 1, "tanh", "spectral_svd", 0.0, 1.0),
              (16, 4, "gelu", "gershgorin_complex", 1.10, 1.50),
              (16, 8, "selu", "gershgorin_complex", 0.0, 1.0))

    def build(self):
        ops = []
        for i, (width, depth, act, kind, lo, hi) in enumerate(self.SHAPES):
            # The draws stay pinned: their iteration counts, hence their cost,
            # vary by a third from draw to draw.  The seed moves the box.
            half = 6.0 * self.rng.uniform(0.95, 1.05)
            argv = ["certify", "--set", f"seed={100 * i}",
                    "--set", f"analysis.x_range=[{-half!r}, {half!r}]",
                    "--set", f"network.width={width}", "--set", f"network.depth={depth}",
                    "--set", f"network.activation={act}", "--set", f"map.kind={kind}",
                    "--set", f"map.lambda_min={lo}", "--set", f"map.lambda_max={hi}"]
            ops.append(Op(argv, self.op_dir(i, "certify")))
        return ops

    def check(self, cli, failed_ops):
        from neurodissip import dissipativity

        problems = []
        for op in self.ops:
            if id(op) in failed_ops:
                continue
            tag = f"certify-wide/{os.path.basename(op.out)}"
            report = _read_json(os.path.join(op.out, "certificate.json"))
            config, layers = _config_net(cli, report)
            dim = config.network.width
            anchors = dissipativity.lhs_anchors(dim, config.analysis.anchors,
                                                [config.analysis.x_range] * dim,
                                                seed=config.seed)
            sigma = oracle.sigma_max(oracle.assemble_a(layers, anchors))
            sampled = report["sampled"]
            problems += _check_norms(tag, report["layerwise"]["w_norms"], layers,
                                     ITERATIVE_UNDER)
            if sampled["anchors"] != anchors.shape[0] or sampled["errors"] != int(
                    np.sum(~np.isfinite(sigma))):
                problems.append(f"{tag}: anchors/errors {sampled['anchors']}/"
                                f"{sampled['errors']}")
            if not _verdict_count_ok(sampled["dissipative"], sigma, ITERATIVE_BAND):
                problems.append(f"{tag}: {sampled['dissipative']} dissipative anchors, "
                                f"LAPACK gives {int(np.sum(sigma < 1.0))}")
            top = float(np.nanmax(sigma))
            if not top * (1.0 - ITERATIVE_UNDER) <= sampled["max_a_norm"] <= top * (1 + 1e-12):
                problems.append(f"{tag}: max_a_norm {sampled['max_a_norm']!r} vs LAPACK {top!r}")
            problems += _check_status(
                tag, report, layers, ITERATIVE_BAND,
                sampled["dissipative"] == sampled["anchors"] and not sampled["errors"],
                bool(np.all(sigma < 1.0 + ITERATIVE_BAND)))
        return problems


class Identify(Workload):
    name = "identify"
    # (preset, samples or None for the preset's, epochs).  Both plants keep
    # the presets' plant and training seeds: on some plant seeds the model
    # selected on the dev split does no better on the test split
    # (CHANGES.md, FOUND).  The seed picks the transitions checked.
    PLANTS = (("cstr-identification", 900, 10), ("two-tank-identification", None, 5))

    def build(self):
        ops = []
        for preset, samples, epochs in self.PLANTS:
            common = ["--preset", preset]
            if samples is not None:
                common += ["--set", f"plant.samples={samples}"]
            ops.append(Op(["simulate"] + common, self.op_dir(len(ops), "simulate")))
            ops.append(Op(["train"] + common + ["--set", f"training.epochs={epochs}"],
                          self.op_dir(len(ops), "train")))
        return ops

    def check(self, cli, failed_ops):
        problems = []
        for sim, train in zip(self.ops[0::2], self.ops[1::2]):
            if id(sim) in failed_ops:
                continue
            meta = _read_json(os.path.join(sim.out, "dataset.json"))
            rows = np.array([[float(v) for v in r.values()]
                             for r in _read_csv(os.path.join(sim.out, "dataset.csv"))])
            n_x = meta["plant"]["state_dim"]
            states, inputs = rows[:, 1:1 + n_x], rows[:, 1 + n_x:]
            kind = meta["plant"]["kind"]
            tag = f"identify/{kind}"
            if kind == "cstr":
                problems += self._check_cstr(tag, meta, states, inputs)
            else:
                if not (np.all(states >= 0.0) and np.all(states <= 1.2)):
                    problems.append(f"{tag}: levels leave the [0, 1.2] clamp box")
            if id(train) not in failed_ops:
                problems += self._check_model(tag, train, states, inputs)
        return problems

    def _check_cstr(self, tag, meta, states, inputs):
        from scipy.integrate import solve_ivp

        problems = []
        dt = float(meta["dt"])
        picks = self.rng.choice(states.shape[0] - 1, CSTR_SAMPLES, replace=False)
        for k in sorted(int(p) for p in picks):
            rhs = oracle.cstr_rhs(meta["plant"]["parameters"], inputs[k, 0])
            sol = solve_ivp(rhs, (0.0, dt), states[k], method="Radau",
                            rtol=1e-11, atol=1e-12 * np.maximum(np.abs(states[k]), 1.0))
            ref = sol.y[:, -1]
            gap = float(np.max(np.abs(states[k + 1] - ref) / np.abs(ref)))
            if sol.success and gap <= CSTR_RTOL:
                continue
            # Through the ignition transient 40 RK4 substeps are off the
            # exact solution by up to a few percent (CHANGES.md, FOUND);
            # there the sample must at least be that RK4 step.
            own = oracle.rk4(rhs, states[k], dt, CSTR_SUBSTEPS)
            if float(np.max(np.abs(states[k + 1] - own) / np.abs(ref))) > RK4_RTOL:
                problems.append(f"{tag}: transition {k} off Radau by {gap:.2e} and "
                                f"not a {CSTR_SUBSTEPS}-substep RK4 step")
        return problems

    def _check_model(self, tag, train, states, inputs):
        summary = _read_json(os.path.join(train.out, "train_summary.json"))
        ck = os.path.join(train.out, "checkpoint")
        f_layers = oracle.layers_from_json(_read_json(os.path.join(ck, "f_net.json")))
        g_layers = oracle.layers_from_json(_read_json(os.path.join(ck, "g_net.json")))
        n = states.shape[0]
        lo = 2 * (n // 3)
        mse = oracle.open_loop_mse(f_layers, g_layers, oracle.unit_range(states)[lo:],
                                   oracle.unit_range(inputs)[lo:])
        problems = []
        if _rel(summary["best_test_mse"], mse) > MSE_RTOL:
            problems.append(f"{tag}: best_test_mse {summary['best_test_mse']!r}, "
                            f"numpy rollout gives {mse!r}")
        if not mse < summary["init_test_mse"]:
            problems.append(f"{tag}: trained model ({mse!r}) no better than its "
                            f"initialisation ({summary['init_test_mse']!r})")
        return problems


class Portrait(Workload):
    name = "portrait"
    # (command, preset); ranges and rollout starts are jittered by the seed.
    COMMANDS = (("grid", "mixed-sigmoid"), ("grid", "regional-selu"),
                ("certify", "shifted-equilibrium"), ("certify", "deep-shifted-equilibrium"),
                ("basin", "shifted-equilibrium"), ("basin", "period-five"),
                ("rollout", "quasiperiodic-orbit"), ("rollout", "period-five"),
                ("spectra", "depth-damping"), ("spectra", "depth-near-unit"))

    def build(self):
        from neurodissip import cli

        ops = []
        for i, (command, preset) in enumerate(self.COMMANDS):
            analysis = cli.PRESETS[preset].get("analysis", {})
            argv = [command, "--preset", preset]
            for key in ("x_range", "y_range"):
                lo, hi = analysis.get(key, (-6.0, 6.0))
                scale = self.rng.uniform(0.95, 1.05)
                argv += ["--set", f"analysis.{key}=[{lo * scale!r}, {hi * scale!r}]"]
            if command == "rollout":
                x0 = np.array([4.0, 0.0]) + self.rng.uniform(-0.5, 0.5, 2)
                argv += ["--set", f"analysis.x0=[{float(x0[0])!r}, {float(x0[1])!r}]"]
            ops.append(Op(argv, self.op_dir(i, command)))
        return ops

    def check(self, cli, failed_ops):
        problems = []
        for op in self.ops:
            if id(op) in failed_ops:
                continue
            tag = f"portrait/{os.path.basename(op.out)}"
            check = getattr(self, "_check_" + op.command)
            problems += check(cli, tag, op.out)
        return problems

    def _check_grid(self, cli, tag, out):
        doc = _read_json(os.path.join(out, "grid.json"))
        _, layers = _config_net(cli, _read_json(os.path.join(out, "grid_summary.json")))
        anchors = oracle.cell_centers(doc["x_range"], doc["y_range"], doc["resolution"])
        sigma = oracle.sigma_max(oracle.assemble_a(layers, anchors))
        a_norm = np.array([[np.nan if v is None else v for v in row] for row in doc["a_norm"]],
                          dtype=float).ravel()
        diss = np.array(doc["dissipative"], dtype=bool).ravel()
        problems = _check_grid_summary(tag, doc["summary"], sigma, VERDICT_BAND)
        finite = np.isfinite(sigma)
        if not np.array_equal(finite, np.isfinite(a_norm)):
            problems.append(f"{tag}: error cells differ from non-finite A(x)")
        gap = np.abs(a_norm[finite] - sigma[finite]) / sigma[finite]
        if gap.size and gap.max() > NORM_RTOL:
            problems.append(f"{tag}: cell a_norm off LAPACK by {gap.max():.2e}")
        clear = finite & (np.abs(sigma - 1.0) > VERDICT_BAND)
        if np.any(diss[clear] != (sigma[clear] < 1.0)):
            problems.append(f"{tag}: {int(np.sum(diss[clear] != (sigma[clear] < 1.0)))} "
                            f"cell verdicts disagree with LAPACK")
        with open(os.path.join(out, "grid.csv")) as fh:
            lines = sum(1 for _ in fh)
        if lines != sigma.size + 1:
            problems.append(f"{tag}: grid.csv has {lines} lines")
        return problems

    def _check_certify(self, cli, tag, out):
        report = _read_json(os.path.join(out, "certificate.json"))
        problems = _check_certificate_2d(cli, tag, report)
        _, layers = _config_net(cli, report)
        if not report.get("equilibria"):
            problems.append(f"{tag}: no equilibrium found to bracket")
        for entry in report.get("equilibria", []):
            x = np.asarray(entry["point"], dtype=float)
            norm = float(np.linalg.norm(x))
            residual = float(np.linalg.norm(oracle.forward(layers, x)[0] - x))
            a = oracle.assemble_a(layers, x)[0]
            b = oracle.forward(layers, x)[0] - a @ x
            lower = float(np.linalg.norm(b)) / float(np.linalg.norm(np.eye(2) - a, 2))
            a_top = float(np.linalg.norm(a, 2))
            upper = float(np.linalg.norm(b)) / (1.0 - a_top) if a_top < 1.0 else math.inf
            slack = BRACKET_RTOL * (1.0 + norm)
            if residual > FIXED_TOL * (1.0 + norm):
                problems.append(f"{tag}: equilibrium {x} is not fixed ({residual:.2e})")
            if not lower - slack <= norm <= upper + slack:
                problems.append(f"{tag}: [{lower}, {upper}] does not contain |x|={norm}")
            if _rel(entry["lower"], lower) > BRACKET_RTOL or (
                    math.isfinite(upper) and _rel(entry["upper"], upper) > BRACKET_RTOL):
                problems.append(f"{tag}: bracket [{entry['lower']}, {entry['upper']}] vs "
                                f"[{lower}, {upper}]")
        return problems

    def _orbit_return(self, layers, p, tol):
        """Smallest k <= 512 with |f^k(p) - p| <= tol, and the orbit."""
        x = p.copy()
        orbit = [p]
        for k in range(1, 513):
            x = oracle.forward(layers, x)[0]
            if np.linalg.norm(x - p) <= tol:
                return k, orbit
            orbit.append(x)
        return None, orbit

    def _check_basin(self, cli, tag, out):
        summary = _read_json(os.path.join(out, "basin_summary.json"))
        _, layers = _config_net(cli, summary)
        points = np.asarray(summary["limit_points"], dtype=float).reshape(-1, 2)
        rows = _read_csv(os.path.join(out, "basin.csv"))
        fixed_ids = {int(r["limit_id"]) for r in rows if r["class"] == "converged_point"}
        cycle_ids = {int(r["limit_id"]) for r in rows if r["class"] == "limit_cycle"}
        problems = []
        for i in sorted(fixed_ids | cycle_ids):
            p = points[i]
            if i in fixed_ids:
                residual = float(np.linalg.norm(oracle.forward(layers, p)[0] - p))
                if residual > FIXED_TOL:
                    problems.append(f"{tag}: limit point {i} is not fixed ({residual:.2e})")
                continue
            k, orbit = self._orbit_return(layers, p, CYCLE_TOL)
            if k is None or k < 2:
                problems.append(f"{tag}: limit point {i} does not close a cycle")
                continue
            dist = [float(np.min(np.linalg.norm(points - q, axis=1))) for q in orbit[:k]]
            if max(dist) > CLUSTER_TOL:
                problems.append(f"{tag}: cycle of point {i} leaves the limit set")
        return problems

    def _check_rollout(self, cli, tag, out):
        doc = _read_json(os.path.join(out, "rollout.json"))
        _, layers = _config_net(cli, doc)
        states = np.array([[float(v) for v in list(r.values())[1:]]
                           for r in _read_csv(os.path.join(out, "trajectory.csv"))])
        problems = []
        if states.shape[0] != doc["steps"] + 1:
            problems.append(f"{tag}: {states.shape[0]} states for {doc['steps']} steps")
        nxt = oracle.forward(layers, states[:-1])
        gap = np.abs(nxt - states[1:]) / (1.0 + np.abs(states[1:]))
        if gap.size and gap.max() > STEP_RTOL:
            problems.append(f"{tag}: step differs from numpy forward by {gap.max():.2e}")
        if doc["classification"] == "limit_cycle":
            cycle = np.asarray(doc["limit"], dtype=float)
            k, _ = self._orbit_return(layers, cycle[0], CYCLE_TOL)
            if k != doc["period"]:
                problems.append(f"{tag}: cycle returns after {k}, period {doc['period']}")
        elif doc["classification"] == "converged_point":
            p = np.asarray(doc["limit"], dtype=float)
            if np.linalg.norm(oracle.forward(layers, p)[0] - p) > FIXED_TOL:
                problems.append(f"{tag}: converged limit is not fixed")
        return problems

    def _check_spectra(self, cli, tag, out):
        summary = _read_json(os.path.join(out, "spectra_summary.json"))
        config, layers = _config_net(cli, summary)
        an = config.analysis
        anchors = oracle.cell_centers(an.x_range, an.y_range, an.resolution)
        rows = _read_csv(os.path.join(out, "eigenvalues.csv"))
        problems = []
        for depth in an.depths:
            got = np.array([float(r["modulus"]) for r in rows if int(r["depth"]) == depth])
            a = oracle.assemble_a(layers[:1] * depth, anchors)
            ref = oracle.eig_moduli(a).ravel()
            scale = np.repeat(oracle.sigma_max(a), a.shape[1])
            if got.shape != ref.shape:
                problems.append(f"{tag}: depth {depth} has {got.size} moduli, "
                                f"expected {ref.size}")
                continue
            gap = np.abs(got - ref) / np.maximum(scale, 1e-300)
            if gap.max() > EIG_RTOL:
                problems.append(f"{tag}: depth {depth} moduli off LAPACK by {gap.max():.2e}")
        return problems


WORKLOADS = {w.name: w for w in (Sweep, CertifyWide, Identify, Portrait)}
