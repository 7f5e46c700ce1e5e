"""Activation catalogue with the per-entry gain factors of the analysis.

Every activation carries its value, its derivative, sigma(0), the
right-hand slope sigma'(0+), and a stability class:

* ``stable``: the gain sigma(z)/z never exceeds 1 in magnitude, so the
  activation by itself cannot amplify the state.
* ``unstable_regions``: the gain exceeds 1 on part of the real line
  (selu through its scale factor, softplus because sigma(z) > z for all
  positive z).
* ``clamped``: bounded output with sigma(0) != 0; the gain diverges near
  zero and exceeds 1 on a central band, but the saturation clamps
  trajectories (sigmoid).

Two gain conventions are provided.  ``secant_gains`` uses
(sigma(z) - sigma(0)) / z and pairs with the affine decomposition that
routes sigma(0) into the bias aggregate.  ``ray_gains`` uses sigma(z)/z,
which makes f(x) = A(x) x exact for bias-free networks and is the form
the grid verdicts use.  The two coincide whenever sigma(0) = 0, which is
every catalogue member except sigmoid and softplus.

Entries with |z| below EPS_Z fall back to sigma'(0+) (plus the
sigma(0)/z singular term in ray form, clamped to |z| = EPS_Z); relu at
exactly z = 0 uses the inactive convention and returns gain 0.

The selu and gelu constants are the canonical published values.

Only numpy is imported here, so every command starts on numpy alone.
gelu, sigmoid and softplus evaluate scipy.special's ``erf``/``expit``
ufuncs and load scipy.special the first time either is called; from then
on the module names ``erf`` and ``expit`` are scipy's own ufuncs.  Every
other activation, and every command that evaluates none of the three,
never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "EPS_Z",
    "SELU_SCALE",
    "SELU_ALPHA",
    "STABLE",
    "UNSTABLE_REGIONS",
    "CLAMPED",
    "Activation",
    "ACTIVATIONS",
    "get_activation",
    "activation_names",
    "secant_gains",
    "ray_gains",
]

# Below this magnitude the secant/ray quotient switches to its limit form.
EPS_Z = 1e-9

# Canonical self-normalizing constants.
SELU_SCALE = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717

LEAKY_SLOPE = 0.01


def _load_special():
    """Rebind ``erf`` and ``expit`` to scipy's ufuncs.

    Two threads may both get here; the import lock makes the second wait
    for a fully loaded module, and both bind the same objects.
    """
    global erf, expit
    from scipy.special import erf, expit


def _erf(x):
    _load_special()
    return erf(x)


def _expit(x):
    _load_special()
    return expit(x)


# Stand-ins until the first call; see _load_special.
erf, expit = _erf, _expit

STABLE = "stable"
UNSTABLE_REGIONS = "unstable_regions"
CLAMPED = "clamped"


@dataclass(frozen=True)
class Activation:
    """A scalar nonlinearity applied elementwise."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    value_at_zero: float
    slope_at_zero: float  # right-hand derivative at 0
    stability_class: str
    joint: Optional[Callable[[np.ndarray], tuple]] = None

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=float))

    def __reduce__(self):
        # Pickles as its registry name, since the lambdas do not pickle.
        return get_activation, (self.name,)

    def value_and_slope(self, z):
        """(fn(z), deriv(z)) bit for bit, sharing work where ``joint`` does."""
        if self.joint is None:
            return self.fn(z), self.deriv(z)
        return self.joint(z)


def _sigmoid(z):
    # expit is the numerically stable logistic for both signs of z.
    return expit(z)


def _norm_cdf(z):
    return 0.5 * (1.0 + erf(z / np.sqrt(2.0)))


def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def _gelu_joint(z):
    cdf = _norm_cdf(z)
    return z * cdf, cdf + z * _norm_pdf(z)


def _selu(z):
    return SELU_SCALE * np.where(z > 0, z, SELU_ALPHA * np.expm1(np.minimum(z, 0.0)))


def _selu_deriv(z):
    return SELU_SCALE * np.where(
        z > 0, 1.0, SELU_ALPHA * np.exp(np.minimum(z, 0.0))
    )


def _elu(z):
    return np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))


ACTIVATIONS: dict[str, Activation] = {}


def _register(name, fn, deriv, value_at_zero, slope_at_zero, stability_class,
              joint=None):
    ACTIVATIONS[name] = Activation(
        name, fn, deriv, value_at_zero, slope_at_zero, stability_class, joint
    )


_register("relu", lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float),
          0.0, 1.0, STABLE)
_register("leaky_relu",
          lambda z: np.where(z > 0, z, LEAKY_SLOPE * z),
          lambda z: np.where(z > 0, 1.0, LEAKY_SLOPE),
          0.0, 1.0, STABLE)
_register("tanh", np.tanh, lambda z: 1.0 - np.tanh(z) ** 2, 0.0, 1.0, STABLE)
_register("sigmoid", _sigmoid, lambda z: _sigmoid(z) * (1.0 - _sigmoid(z)),
          0.5, 0.25, CLAMPED)
_register("gelu",
          lambda z: z * _norm_cdf(z),
          lambda z: _norm_cdf(z) + z * _norm_pdf(z),
          0.0, 0.5, STABLE, joint=_gelu_joint)
_register("selu", _selu, _selu_deriv, 0.0, SELU_SCALE, UNSTABLE_REGIONS)
_register("softplus", lambda z: np.logaddexp(0.0, z), _sigmoid,
          float(np.log(2.0)), 0.5, UNSTABLE_REGIONS)
_register("elu", _elu, lambda z: np.where(z > 0, 1.0, np.exp(np.minimum(z, 0.0))),
          0.0, 1.0, STABLE)
_register("softsign",
          lambda z: z / (1.0 + np.abs(z)),
          lambda z: 1.0 / (1.0 + np.abs(z)) ** 2,
          0.0, 1.0, STABLE)
_register("hardtanh",
          lambda z: np.clip(z, -1.0, 1.0),
          lambda z: ((z >= -1.0) & (z < 1.0)).astype(float),
          0.0, 1.0, STABLE)
_register("identity", lambda z: z, lambda z: np.ones_like(z), 0.0, 1.0, STABLE)


def get_activation(name: str) -> Activation:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        known = ", ".join(sorted(ACTIVATIONS))
        raise ValueError(f"unknown activation {name!r}; known: {known}") from None


def activation_names() -> tuple[str, ...]:
    return tuple(sorted(ACTIVATIONS))


def secant_gains(act: Activation, z: np.ndarray) -> np.ndarray:
    """Per-entry gains (sigma(z) - sigma(0)) / z with the small-z fallback."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < EPS_Z
    denom = np.where(small, 1.0, z)
    out = np.where(small, act.slope_at_zero, (act.fn(z) - act.value_at_zero) / denom)
    if act.name == "relu":
        out = np.where(z == 0.0, 0.0, out)
    return out


def ray_gains(act: Activation, z: np.ndarray) -> np.ndarray:
    """Per-entry gains sigma(z)/z, finite via a clamped denominator near 0.

    Identical to secant_gains plus sigma(0)/z.  For sigma(0) != 0 the
    quotient genuinely diverges at z -> 0; entries with |z| < EPS_Z are
    evaluated at |z| = EPS_Z (sign preserved, zero treated as positive),
    which keeps the blow-up visible without producing inf.
    """
    z = np.asarray(z, dtype=float)
    base = secant_gains(act, z)
    if act.value_at_zero == 0.0:
        return base
    denom = np.where(z < 0.0, np.minimum(z, -EPS_Z), np.maximum(z, EPS_Z))
    return base + act.value_at_zero / denom

