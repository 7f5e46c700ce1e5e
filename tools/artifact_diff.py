"""Check that two source trees write the same artifacts.

    python3 tools/artifact_diff.py PARENT_ROOT CHANGE_ROOT

Runs one fixed list of ``neurodissip`` commands against each root, in one
subprocess per root that imports ``neurodissip.cli`` from that root's
``src/`` and calls ``cli.main`` once per command.  Every command writes
into its own directory, together with its exit code, stdout and stderr.
The two trees are then compared file by file, with the ``created``
timestamp of the JSON metadata masked.  Prints ``identical N of M`` and
every differing path, then every ``.json`` file of CHANGE_ROOT that is
not strict JSON (RFC 8259 has no ``NaN`` or ``Infinity``), and exits 1 on
any difference or any such file.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS_2D = (
    "origin-attractor", "shifted-equilibrium", "contractive-relu",
    "contractive-tanh", "regional-selu", "mixed-sigmoid", "depth-damping",
    "depth-near-unit", "depth-growth", "deep-contraction",
    "quasiperiodic-orbit", "deep-shifted-equilibrium", "consensus-line",
    "period-two", "period-five", "divergent-softplus",
)
MAP_KINDS = ("unstructured", "perron_frobenius", "spectral_svd",
             "gershgorin_real", "gershgorin_complex")


def commands() -> list:
    """(directory name, argv without --out) of every compared command."""
    cmds = []
    for preset in PRESETS_2D:
        for command in ("grid", "certify", "spectra", "pwa", "rollout", "basin"):
            cmds.append((f"{command}-{preset}", [command, "--preset", preset]))
    # An error-cell grid (3568 of 3600 cells) and a basin whose trajectories
    # halt both ways (442 converged, 1158 diverged).
    cmds.append(("grid-depth-growth-3000",
                 ["grid", "--preset", "depth-growth", "--set", "network.depth=3000"]))
    # Error paths: a square 3-D map on the two plane analyses, and an
    # infinite range, which the config load rejects.
    for command in ("grid", "basin"):
        cmds.append((f"{command}-width3", [command, "--set", "network.width=3"]))
    cmds.append(("grid-infinite-x-range",
                 ["grid", "--set", "analysis.x_range=[0,1e999]",
                  "--set", "analysis.resolution=4"]))
    cmds.append(("basin-mixed-halts",
                 ["basin", "--set", "network.activation=selu",
                  "--set", "map.lambda_min=0.99", "--set", "map.lambda_max=1.10",
                  "--set", "analysis.resolution=40"]))
    # Basins whose 1600 or 6400 cells collapse onto a few stepper rows:
    # period-five on ranges scaled by 1.03, as the bench jitters them, and
    # period-two on a finer grid.
    cmds.append(("basin-period-five-scaled",
                 ["basin", "--preset", "period-five",
                  "--set", "analysis.x_range=[-6.18, 6.18]",
                  "--set", "analysis.y_range=[-6.18, 6.18]"]))
    cmds.append(("basin-period-two-80",
                 ["basin", "--preset", "period-two",
                  "--set", "analysis.resolution=80"]))
    # Edges of the cycle replay: a long horizon after an early repeat, a
    # horizon that ends before any repeat, and a repeat inside the tail
    # window (window 601, which begins at state 0).
    cmds.append(("rollout-period-two-5000",
                 ["rollout", "--preset", "period-two",
                  "--set", "analysis.horizon=5000"]))
    cmds.append(("rollout-period-five-60",
                 ["rollout", "--preset", "period-five",
                  "--set", "analysis.horizon=60"]))
    cmds.append(("basin-period-five-600",
                 ["basin", "--preset", "period-five",
                  "--set", "analysis.horizon=600"]))
    for width in (3, 8, 16):
        cmds.append((f"certify-width{width}",
                     ["certify", "--set", f"network.width={width}"]))
    # Sampled certificates on which eigenvalue and SVD failures once made
    # error anchors.
    for width in (3, 8, 16):
        for activation in ("relu", "tanh", "gelu"):
            for lo, hi in (("0.00", "1.00"), ("0.99", "1.01"), ("0.99", "1.10")):
                cmds.append((f"certify-width{width}-{activation}-{lo}-{hi}",
                             ["certify", "--set", f"network.width={width}",
                              "--set", f"network.activation={activation}",
                              "--set", f"map.lambda_min={lo}",
                              "--set", f"map.lambda_max={hi}"]))
    for kind in MAP_KINDS:
        for width in (2, 8):
            cmds.append((f"gen-weights-{kind}-{width}",
                         ["gen-weights", "--set", f"map.kind={kind}",
                          "--set", f"network.width={width}"]))
    for preset in ("cstr-identification", "two-tank-identification"):
        cmds.append((f"simulate-{preset}", ["simulate", "--preset", preset]))
        cmds.append((f"simulate-{preset}-euler",
                     ["simulate", "--preset", preset, "--set", "plant.method=euler"]))
    # Plant seed 506 crosses the reactor's ignition transient.
    cmds.append(("simulate-cstr-identification-506",
                 ["simulate", "--preset", "cstr-identification",
                  "--set", "plant.seed=506", "--set", "plant.samples=900"]))
    cmds.append(("train-cstr-identification",
                 ["train", "--preset", "cstr-identification",
                  "--set", "plant.samples=900", "--set", "training.epochs=3"]))
    cmds.append(("train-two-tank-identification",
                 ["train", "--preset", "two-tank-identification",
                  "--set", "training.epochs=2"]))
    # The regularized trainer: l1, l2 and the dissipativity penalty, and Sgd.
    cmds.append(("train-two-tank-regularized",
                 ["train", "--preset", "two-tank-identification",
                  "--set", "training.epochs=2",
                  "--set", 'training.regularizers={"l1": 1e-4, "l2": 1e-4, '
                           '"dissipativity": 0.5}']))
    cmds.append(("train-cstr-sgd",
                 ["train", "--preset", "cstr-identification",
                  "--set", "plant.samples=900", "--set", "training.epochs=3",
                  "--set", "training.optimizer=sgd",
                  "--set", "training.learning_rate=0.01"]))
    # The penalty's gradient branch under tanh's fn/deriv pair, then a grid
    # of the saved checkpoint (the relative path works because every
    # command runs with the output root as its working directory).
    cmds.append(("train-two-tank-tanh-dissipative",
                 ["train", "--preset", "two-tank-identification",
                  "--set", "training.epochs=2",
                  "--set", "training.activation=tanh",
                  "--set", 'training.regularizers={"dissipativity": 0.5}']))
    cmds.append(("grid-checkpoint-tanh-dissipative",
                 ["grid", "--checkpoint",
                  "train-two-tank-tanh-dissipative/checkpoint",
                  "--set", "analysis.x_range=[-1, 1]",
                  "--set", "analysis.y_range=[-1, 1]"]))
    # Affine-mode A(x), and certify --assert's exit 2.
    for command in ("pwa", "grid"):
        cmds.append((f"{command}-mixed-sigmoid-affine",
                     [command, "--preset", "mixed-sigmoid",
                      "--set", "analysis.mode=affine"]))
    cmds.append(("certify-mixed-sigmoid-assert",
                 ["certify", "--preset", "mixed-sigmoid", "--assert"]))
    cmds.append(("sweep", ["sweep", "--threads", "2"]))
    # Filtered sweeps: the bench's slice, and one whose bounds filter the
    # unstructured row (which has no bounds) passes.
    cmds.append(("sweep-bench-slice",
                 ["sweep", "--threads", "2", "--depths", "1",
                  "--activations", "tanh,selu"]))
    cmds.append(("sweep-svd-unstructured",
                 ["sweep", "--threads", "2", "--kinds", "spectral_svd,unstructured",
                  "--bounds", "0.99:1.10", "--bias", "off"]))
    return cmds


# Runs in the subprocess: argv is (root, output directory), stdin the
# command list as JSON.
DRIVER = r"""
import contextlib, io, json, os, sys
root, out = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.join(root, "src"))
from neurodissip import cli
for name, argv in json.load(sys.stdin):
    target = os.path.join(out, name)
    os.makedirs(target)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv + ["--out", target])
        except SystemExit as exc:
            code = exc.code
    for stream, text in (("exit", f"{code}\n"), ("stdout", stdout.getvalue()),
                         ("stderr", stderr.getvalue())):
        with open(os.path.join(target, "." + stream), "w") as fh:
            fh.write(text)
"""

_CREATED = re.compile(rb'"created": "[^"]*"')


def run_root(root: Path, out: Path) -> None:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run([sys.executable, "-c", DRIVER, str(root), str(out)],
                   input=json.dumps(commands()), text=True, env=env,
                   cwd=out, check=True)


def masked(path: Path) -> bytes:
    return _CREATED.sub(b'"created": "*"', path.read_bytes())


def compare(a: Path, b: Path) -> tuple:
    """(identical count, differing relative paths) over both trees."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    differing = sorted(
        str(rel) for rel in files_a | files_b
        if rel not in files_a or rel not in files_b
        or masked(a / rel) != masked(b / rel)
    )
    return len(files_a | files_b) - len(differing), differing


def _reject(constant):
    raise ValueError(f"{constant} is not a JSON value")


def non_strict_json(root: Path) -> list:
    """Relative paths of the .json files under root that a strict parser
    refuses."""
    refused = []
    for path in sorted(root.rglob("*.json")):
        try:
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject)
        except ValueError:
            refused.append(str(path.relative_to(root)))
    return refused


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for label, root in zip(("parent", "change"), args):
            out = Path(tmp) / label
            out.mkdir()
            run_root(Path(root).resolve(), out)
            outs.append(out)
        same, differing = compare(*outs)
        refused = non_strict_json(outs[1])
    print(f"identical {same} of {same + len(differing)}")
    for rel in differing:
        print(rel)
    for rel in refused:
        print(f"not strict JSON: {rel}")
    return 1 if differing or refused else 0


if __name__ == "__main__":
    sys.exit(main())
