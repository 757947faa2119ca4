"""Canonical-ensemble quantities of a particle in a fractional well.

Each level sum is cut at a level count computed in closed form from alpha,
beta E_1 and the relative tolerance before any level is computed (see
`_cut`), so a state computes one block of levels and searches for nothing.

All sums are accumulated after factoring out e^(-beta E_1); beta E_1 can
exceed 700 in narrow wells, where the unshifted weights underflow.  In the
shifted representation S = beta (U - E_1) + ln Z_s, which is nonnegative by
construction and needs no per-term x ln x guard.  `summarize` returns
scalars and is memoised; `occupations` recomputes the kept weights on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectrum import _INF, WellSpec, energy_level, energy_levels

DEFAULT_REL_TOL = 1e-12

# Hard cap on the truncation index.  A cut beyond it means the spectrum is
# so dense relative to T that the single-particle picture is pushed far
# outside its intended regime; fail before any level is computed.
MAX_LEVELS = 10**6


class FracStirlingError(RuntimeError):
    """A computation failed on valid inputs; invalid ones raise ValueError.

    A sweep records it as a NodeError, a trace as a gap, the CLI as exit 1.
    """


class TruncationLimitError(FracStirlingError):
    """The level sum needs more than MAX_LEVELS levels; no level is computed."""


@dataclass(frozen=True)
class ThermalState:
    """A well in equilibrium with a bath at fixed temperature."""

    well: WellSpec
    temperature: float

    def __post_init__(self) -> None:
        if not 0.0 < self.temperature < _INF:
            raise ValueError(
                f"temperature must be positive and finite, got {self.temperature}"
            )


@dataclass(frozen=True)
class EnsembleSummary:
    """Derived equilibrium quantities of one ThermalState, all scalars.

    `tail_bound` is the rigorous upper bound on the neglected partition
    function tail, relative to the kept sum.  `heat_capacity` is
    dU/dT = beta^2 Var(E) over the kept levels.  See `occupations` for P_n.
    """

    partition_function: float
    internal_energy: float
    entropy: float
    free_energy: float
    n_cut: int
    tail_bound: float
    heat_capacity: float


def summarize(
    state: ThermalState,
    rel_tol: float = DEFAULT_REL_TOL,
    levels: int | None = None,
) -> EnsembleSummary:
    """Compute partition function, U, S, F and C for one state.

    `rel_tol` bounds the relative weight of the neglected tail and must lie
    in (0, 1e-6].  `levels`, when given, bypasses the adaptive rule and uses
    exactly that many levels, at most MAX_LEVELS; the reported tail_bound
    then simply records how much spectrum the fixed cut ignores.  Results
    are deterministic functions of the inputs and are memoised.
    """
    return _summarize(state, rel_tol, levels)


def occupations(
    state: ThermalState,
    rel_tol: float = DEFAULT_REL_TOL,
    levels: int | None = None,
) -> np.ndarray:
    """P_1 .. P_{n_cut} at the cut `summarize` takes, recomputed on each call."""
    _, weights = _kept_weights(state, rel_tol, levels)
    return weights / float(np.sum(weights))


def _cut(state: ThermalState, rel_tol: float) -> int:
    """A level count N whose neglected tails are certified below rel_tol.

    With x = beta E_1 the weights are w_n = e^(-u_n), u_n = x(n^alpha - 1).
    Write y = x(N^alpha - 1) and D = x alpha N^(alpha-1), the slope du/dn at
    N.  Past N the weights decrease, and so do the terms u_n w_n once y >= 1;
    as du/dn >= D there, the integral test bounds both tails, sum w_n and
    sum u_n w_n, by e^(-y)(1 + y)/D.  The kept sums are at least w_1 = 1, so
    both tails are below rel_tol once e^(-y)(1 + y) <= rel_tol D.  Take
    N_L = (1 + ln(1/rel_tol)/x)^(1/alpha), D_L = x alpha N_L^(alpha-1),
    L = -ln(rel_tol min(1, D_L)) and y = L + ln(1 + 2L).  Then
    e^(-y)(1 + y) <= e^(-L), as ln(1 + 2L) <= L for L >= ln(1e6), and
    N = (1 + y/x)^(1/alpha) >= N_L, so D >= D_L.  N is rounded up; where y/x
    is near the float resolution it may round to 1, and the first neglected
    weight, e^(-x(2^alpha - 1)), then underflows to 0.

    Raises TruncationLimitError, before any level is computed, when x
    underflows to 0 or N is not finite or exceeds MAX_LEVELS.
    """
    alpha = state.well.alpha
    x = energy_level(state.well, 1) / state.temperature
    if x > 0.0:
        n_l = (1.0 + math.log(1.0 / rel_tol) / x) ** (1.0 / alpha)
        big_l = -math.log(rel_tol * min(1.0, x * alpha * n_l ** (alpha - 1.0)))
        n_real = (1.0 + (big_l + math.log1p(2.0 * big_l)) / x) ** (1.0 / alpha)
        if n_real <= MAX_LEVELS:  # before ceil, which fails on inf
            return math.ceil(n_real)
    raise TruncationLimitError(
        f"partition sum for width={state.well.width}, "
        f"alpha={state.well.alpha}, mass={state.well.mass}, "
        f"T={state.temperature} still unconverged at "
        f"{MAX_LEVELS} levels (rel_tol={rel_tol})"
    )


def _kept_weights(state: ThermalState, rel_tol: float, levels: int | None):
    """E_1 .. E_{n_cut+1} and the n_cut weights e^(-beta (E_n - E_1))."""
    if not 0.0 < rel_tol <= 1e-6:
        raise ValueError(f"rel_tol must lie in (0, 1e-6], got {rel_tol}")
    if levels is not None and not 1 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must lie in [1, {MAX_LEVELS}], got {levels}")
    beta = 1.0 / state.temperature
    # one block of n_cut + 1 levels: the extra level feeds the tail bound
    try:
        n_cut = levels or _cut(state, rel_tol)
        # an inf top level raises below; an inf beta (E_n - E_1) weighs 0
        with np.errstate(over="ignore"):
            energies = energy_levels(state.well, n_cut + 1)
            if not energies[-1] < _INF:  # a product overflowed without raising
                raise OverflowError
            weights = np.exp(-beta * (energies[:-1] - energies[0]))
    except OverflowError:
        raise FracStirlingError(
            f"energy levels of {state.well} exceed the float range"
        ) from None
    return energies, weights


@lru_cache(maxsize=65536)
def _summarize(
    state: ThermalState, rel_tol: float, levels: int | None
) -> EnsembleSummary:
    beta = 1.0 / state.temperature
    energies, weights = _kept_weights(state, rel_tol, levels)
    n_cut = weights.size

    # Python floats, so that beta E_1 and beta dE overflow without a warning
    e1 = float(energies[0])
    kept = energies[:n_cut]
    z_shifted = float(np.sum(weights))
    occ = weights / z_shifted

    delta = kept - e1
    weighted = occ * delta
    excess = float(np.sum(weighted))  # U - E_1, free of cancellation
    # beta^2 Var(E) from moments about E_1: their mean square exceeds Var(E) by a
    # small factor only; scaling `weighted` by beta first keeps the dot finite
    weighted *= beta
    heat_capacity = beta * float(np.dot(weighted, delta)) - (beta * excess) ** 2
    internal_energy = e1 + excess
    entropy = beta * excess + np.log(z_shifted)
    free_energy = e1 - state.temperature * np.log(z_shifted)
    partition_function = float(np.exp(-beta * e1) * z_shifted)

    ratio = float(np.exp(-beta * float(energies[n_cut] - energies[n_cut - 1])))
    # a fixed cut at a level spacing far below T leaves an unbounded tail
    tail_bound = _INF if ratio == 1.0 else (
        float(weights[-1]) * ratio / ((1.0 - ratio) * z_shifted)
    )

    return EnsembleSummary(
        partition_function=partition_function,
        internal_energy=float(internal_energy),
        entropy=float(entropy),
        free_energy=float(free_energy),
        n_cut=n_cut,
        tail_bound=tail_bound,
        heat_capacity=heat_capacity,
    )
