"""Energy levels of a particle in an infinite well with fractional kinetics.

The kinetic term is D_alpha |p|^alpha with D_alpha = (1/(2m))^(alpha/2) and
1 < alpha <= 2; alpha = 2 recovers the ordinary quadratic dispersion.  All
quantities use natural units, hbar = k_B = 1.

The model's validity domain is one table here, `_DOMAIN`, with the floor
`_T_MIN` of a temperature; every check of a width, alpha, mass or
temperature reads it and words a failure with `_check_domain` or `_check_beta`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

_INF = float("inf")
_MAX = sys.float_info.max

# The validity domain: each quantity lies in the (lo, hi] interval of its
# row, and a row (0, _MAX] admits the positive finite floats.  The rows
# follow the argument order of `summarize_many`.
_DOMAIN = {"width": (0.0, _MAX), "alpha": (1.0, 2.0), "mass": (0.0, _MAX), "temperature": (0.0, _MAX)}

# The smallest temperature whose reciprocal, beta, is a finite float
_T_MIN = math.nextafter(1.0 / _MAX, 1.0)


def _check_domain(name: str, value, quantity: str | None = None) -> None:
    """Raise the ValueError of a field `name` whose value lies outside `_DOMAIN`.

    `quantity`, the row of the table, defaults to `name`.
    """
    lo, hi = _DOMAIN[quantity or name]
    if not lo < value <= hi:
        if hi < _MAX:
            raise ValueError(f"{name} must lie in ({lo:g}, {hi:g}], got {value}")
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_beta(temperature: float) -> None:
    if not temperature >= _T_MIN:
        raise ValueError(f"temperature must be at least {_T_MIN}, where 1/T is finite, got {temperature}")


@dataclass(frozen=True)
class WellSpec:
    """Static configuration of one confining well.

    `width` is the well's size parameter L (the box spans 2L between its
    impenetrable walls), `alpha` the kinetic exponent, `mass` the particle
    mass.  Validation is strict at construction; downstream code assumes a
    constructed WellSpec is valid.
    """

    width: float
    alpha: float
    mass: float = 1.0

    def __post_init__(self) -> None:
        for name in ("width", "alpha", "mass"):
            _check_domain(name, getattr(self, name))


class FracStirlingError(RuntimeError):
    """A computation failed on valid inputs; invalid ones raise ValueError.

    A sweep records its message in `errors`, a trace a gap, the CLI exit 1.
    """


def _levels_error(spec: WellSpec) -> FracStirlingError:
    return FracStirlingError(f"energy levels of {spec} exceed the float range")


def level_scale(width, alpha, mass):
    """E_1 = (1/(2m))^(alpha/2) (pi/(2L))^alpha, the factor of n^alpha in E_n.

    numpy's power, on floats and arrays alike: the one formula of E_1, so the
    kernel and every level function agree bit for bit.  Past the float range
    a power is inf, and inf times a power that underflows to 0 is nan, without
    a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.power(0.5 / mass, 0.5 * alpha) * np.power(np.pi / (2.0 * width), alpha)


def energy_level(spec: WellSpec, n: int) -> float:
    """Return the n-th eigenvalue, E_n = (1/(2m))^(a/2) (pi/(2L))^a n^a.

    Strictly increasing in n and strictly decreasing in the well width.
    n starts at 1 (the ground state).  E_n equals `energy_levels(spec, n)[n - 1]`
    bit for bit.  Raises FracStirlingError, "energy levels of ... exceed the
    float range", where E_n is not a finite float.
    """
    if n < 1:
        raise ValueError(f"level index must be a positive integer, got {n}")
    return float(_levels(spec, float(n)))


def energy_levels(spec: WellSpec, n_max: int) -> np.ndarray:
    """First `n_max` eigenvalues as a strictly increasing float array; raises as `energy_level` does."""
    if n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max}")
    return _levels(spec, np.arange(1.0, n_max + 1.0))


def _levels(spec: WellSpec, n):
    """E_1 n^alpha with numpy's power, or the error of a level that is not a finite float."""
    with np.errstate(over="ignore"):
        levels = level_scale(spec.width, spec.alpha, spec.mass) * np.power(n, spec.alpha)
    if not np.isfinite(levels).all():
        raise _levels_error(spec)
    return levels
