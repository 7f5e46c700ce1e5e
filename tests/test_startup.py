"""Start-up on numpy alone: scipy.special loads at the first erf/expit call.

Every check runs in a fresh interpreter, because this test process has
loaded scipy long before these tests run.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter on this tree's ``src``; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


IMPORT_CHAIN = r"""
import contextlib, io, json, os, sys
out = sys.argv[1]
from neurodissip import cli
cli.build_parser()
loaded = {"import + build_parser": "scipy" in sys.modules}
for argv in (["certify", "--preset", "contractive-relu"],
             ["gen-weights"],
             ["simulate", "--preset", "two-tank-identification"],
             ["sweep", "--count-only"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", os.path.join(out, argv[0])])
    assert code == 0, argv
    loaded[" ".join(argv)] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def test_commands_without_gelu_sigmoid_softplus_never_load_scipy(tmp_path):
    loaded = json.loads(run_python(IMPORT_CHAIN, tmp_path))
    assert len(loaded) == 5
    assert loaded == {step: False for step in loaded}


FIRST_GELU = r"""
import sys
import numpy as np
from neurodissip import activations
assert "scipy" not in sys.modules
activations.get_activation("gelu").fn(np.array([0.5]))
assert "scipy.special" in sys.modules
import scipy.special
assert activations.erf is scipy.special.erf
assert activations.expit is scipy.special.expit
"""


def test_first_gelu_loads_scipy_and_binds_its_ufuncs():
    run_python(FIRST_GELU)


# Evaluates every output of the named activations, in that order, before
# scipy is imported here; only then builds the references from scipy.special
# directly and prints every output that differs from its reference bit for bit.
FIRST_USE_BITS = r"""
import sys
import numpy as np
from neurodissip.activations import get_activation
order = sys.argv[1].split(",")
rng = np.random.default_rng(5)
inputs = [np.asarray(0.3), np.linspace(-40.0, 40.0, 801),
          rng.normal(scale=4.0, size=(7, 5))]
assert "scipy" not in sys.modules
got = {}
for name in order:
    act = get_activation(name)
    for i, z in enumerate(inputs):
        both = act.value_and_slope(z)
        got[name, i] = (act.fn(z), act.deriv(z), both[0], both[1])

from scipy.special import erf, expit

def gelu(z):
    cdf = 0.5 * (1.0 + erf(z / np.sqrt(2.0)))
    return z * cdf, cdf + z * (np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi))

def sigmoid(z):
    return expit(z), expit(z) * (1.0 - expit(z))

def softplus(z):
    return np.logaddexp(0.0, z), expit(z)

formulas = {"gelu": gelu, "sigmoid": sigmoid, "softplus": softplus}
for (name, i), outputs in got.items():
    value, slope = formulas[name](inputs[i])
    for label, a, b in zip(("fn", "deriv", "joint value", "joint slope"),
                           outputs, (value, slope, value, slope)):
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            print(name, label, inputs[i].shape)
"""


@pytest.mark.parametrize("order", ["sigmoid,gelu,softplus",
                                   "gelu,softplus,sigmoid"])
def test_outputs_do_not_depend_on_which_activation_runs_first(order):
    assert run_python(FIRST_USE_BITS, order) == ""


SWEEP = r"""
import contextlib, io, sys
from neurodissip import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sweep", "--depths", "1", "--activations", "gelu,sigmoid",
                     "--kinds", "unstructured", "--threads", sys.argv[1],
                     "--out", sys.argv[2]])
assert code == 0
"""

_CREATED = re.compile(rb'"created": "[^"]*"')


def test_first_use_from_the_sweep_thread_pool(tmp_path):
    trees = []
    for threads in (2, 1):
        out = tmp_path / f"threads{threads}"
        run_python(SWEEP, threads, out)
        trees.append({str(p.relative_to(out)):
                      _CREATED.sub(b'"created": "*"', p.read_bytes())
                      for p in out.rglob("*") if p.is_file()})
    assert len(trees[0]) == 5  # sweep.csv and four per-config reports
    assert trees[0] == trees[1]
