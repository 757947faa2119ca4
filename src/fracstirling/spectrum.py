"""Energy levels of a particle in an infinite well with fractional kinetics.

The kinetic term is D_alpha |p|^alpha with D_alpha = (1/(2m))^(alpha/2) and
1 < alpha <= 2; alpha = 2 recovers the ordinary quadratic dispersion.  All
quantities use natural units, hbar = k_B = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_INF = float("inf")  # bounds the finite floats in one-comparison range checks


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
        if not 0.0 < self.width < _INF:
            raise ValueError(f"width must be positive and finite, got {self.width}")
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if not 0.0 < self.mass < _INF:
            raise ValueError(f"mass must be positive and finite, got {self.mass}")


def level_scale(width: float, alpha: float, mass: float) -> float:
    """E_1 = (1/(2m))^(alpha/2) (pi/(2L))^alpha, the factor of n^alpha in E_n.

    Computed in Python floats: a power past the float range raises
    OverflowError, while a product past it is inf.
    """
    return (0.5 / mass) ** (0.5 * alpha) * (np.pi / (2.0 * width)) ** alpha


def energy_level(spec: WellSpec, n: int) -> float:
    """Return the n-th eigenvalue, E_n = (1/(2m))^(a/2) (pi/(2L))^a n^a.

    Strictly increasing in n and strictly decreasing in the well width.
    n starts at 1 (the ground state).
    """
    if n < 1:
        raise ValueError(f"level index must be a positive integer, got {n}")
    return level_scale(spec.width, spec.alpha, spec.mass) * float(n) ** spec.alpha


def energy_levels(spec: WellSpec, n_max: int) -> np.ndarray:
    """First `n_max` eigenvalues as a strictly increasing float array."""
    if n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max}")
    n = np.arange(1, n_max + 1, dtype=float)
    return level_scale(spec.width, spec.alpha, spec.mass) * n**spec.alpha
