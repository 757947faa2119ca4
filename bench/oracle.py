"""Independent reference for corner energies and entropies.

A plain numpy level sum over E_n = (1/(2m))^(a/2) (pi/(2L))^a n^a. It shares
no code with the package: it sums every level up to beta (E_n - E_1) = 60,
past which each weight is below 1e-26 of the ground state's, instead of the
package's adaptive tail-bounded cut.
"""

from __future__ import annotations

import math

import numpy as np

_CUT = 60.0


def energy_entropy(width: float, alpha: float, mass: float, temperature: float) -> tuple[float, float]:
    """Internal energy U and entropy S of one canonical state."""
    scale = (0.5 / mass) ** (0.5 * alpha) * (math.pi / (2.0 * width)) ** alpha
    # largest n with scale * (n^alpha - 1) <= _CUT * temperature, plus one
    n_max = int((_CUT * temperature / scale + 1.0) ** (1.0 / alpha)) + 2
    energies = scale * np.arange(1, n_max + 1, dtype=float) ** alpha
    excess = energies - energies[0]
    weights = np.exp(-excess / temperature)
    excited = float(np.sum(weights[1:]))
    z = 1.0 + excited
    u_excess = float(np.sum(weights * excess)) / z
    return float(energies[0] + u_excess), u_excess / temperature + math.log1p(excited)


def corner_values(p: dict) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(U_A, U_B, U_C, U_D), (S_A, S_B, S_C, S_D) for CycleParams fields `p`."""
    corners = (
        (p["width_a"], p["alpha_2"], p["t_hot"]),
        (p["width_b"], p["alpha_1"], p["t_hot"]),
        (p["width_b"], p["alpha_1"], p["t_cold"]),
        (p["width_a"], p["alpha_2"], p["t_cold"]),
    )
    pairs = [energy_entropy(w, a, p["mass"], t) for w, a, t in corners]
    return tuple(u for u, _ in pairs), tuple(s for _, s in pairs)
