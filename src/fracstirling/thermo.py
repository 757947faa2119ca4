"""Canonical-ensemble quantities of a particle in a fractional well.

The level sum is truncated adaptively: weights are accumulated in increasing
n until a rigorous geometric bound on the neglected tail drops below the
requested relative tolerance.  Because E_n grows like n^alpha with alpha > 1
the weight ratios e^(-beta(E_{n+1}-E_n)) decrease with n, so the remainder
past n is bounded by w_n r_n / (1 - r_n) with r_n the local ratio.

All sums are accumulated after factoring out e^(-beta E_1); beta E_1 can
exceed 700 in narrow wells, where the unshifted weights underflow.  In the
shifted representation S = beta (U - E_1) + ln Z_s, which is nonnegative by
construction and needs no per-term x ln x guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectrum import _INF, WellSpec, energy_levels

DEFAULT_REL_TOL = 1e-12

# Hard cap on the truncation index.  Exceeding it means the spectrum is so
# dense relative to T that the single-particle picture is being pushed far
# outside its intended regime; fail loudly instead of summing forever.
MAX_LEVELS = 10**6

_FIRST_BLOCK = 64
_GROWTH = 4


class FracStirlingError(RuntimeError):
    """A computation failed on valid inputs; invalid ones raise ValueError.

    A sweep records it as a NodeError, a trace as a gap, the CLI as exit 1.
    """


class TruncationLimitError(FracStirlingError):
    """Level sum did not converge within MAX_LEVELS levels."""


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
    """Derived equilibrium quantities of one ThermalState.

    `occupations` holds P_1 .. P_{n_cut}, normalised over the kept levels.
    `tail_bound` is the rigorous upper bound on the neglected partition
    function tail, relative to the kept sum.  `heat_capacity` is
    dU/dT = beta^2 Var(E) over the kept levels; it defaults to nan for a
    summary built by hand.
    """

    partition_function: float
    occupations: np.ndarray
    internal_energy: float
    entropy: float
    free_energy: float
    n_cut: int
    tail_bound: float
    heat_capacity: float = float("nan")


def _find_cut(
    weights: np.ndarray, ratios: np.ndarray, excess: np.ndarray, rel_tol: float
) -> int:
    """First cut n (1-based) with both partial sums converged to rel_tol.

    Ratios r_n = w_{n+1}/w_n decrease with n (E_n is convex in n), so the
    weight tail past n is below w_n r_n/(1-r_n).  The energy-weighted tail
    additionally uses x_{n+j} <= x_{n+1} j^2 for the excess-energy factors
    x_n = beta(E_n - E_1), valid for alpha <= 2, giving the bound
    w_n x_{n+1} r(1+r)/(1-r)^3.  Returns 0 when no cut qualifies.
    """
    z_part = np.cumsum(weights)
    x_part = np.cumsum(weights * excess[:-1])
    tail_z = weights * ratios / (1.0 - ratios)
    tail_x = weights * excess[1:] * ratios * (1.0 + ratios) / (1.0 - ratios) ** 3
    ok = (tail_z <= rel_tol * z_part) & (
        tail_x <= rel_tol * np.maximum(x_part, z_part)
    )
    hit = np.nonzero(ok)[0]
    return int(hit[0]) + 1 if hit.size else 0


def summarize(
    state: ThermalState,
    rel_tol: float = DEFAULT_REL_TOL,
    levels: int | None = None,
    cached: bool = True,
) -> EnsembleSummary:
    """Compute partition function, occupations, U, S, F and C for one state.

    `rel_tol` bounds the relative weight of the neglected tail and must lie
    in (0, 1e-6].  `levels`, when given, bypasses the adaptive rule and uses
    exactly that many levels, at most MAX_LEVELS; the reported tail_bound
    then simply records how much spectrum the fixed cut ignores.  Results
    are deterministic functions of the inputs.  Summaries are memoised
    unless `cached` is false, which suits states that will not recur.
    """
    if not 0.0 < rel_tol <= 1e-6:
        raise ValueError(f"rel_tol must lie in (0, 1e-6], got {rel_tol}")
    if levels is not None and not 1 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must lie in [1, {MAX_LEVELS}], got {levels}")
    return (_summarize_cached if cached else _summarize)(state, rel_tol, levels)


def _summarize(
    state: ThermalState, rel_tol: float, levels: int | None
) -> EnsembleSummary:
    beta = 1.0 / state.temperature

    # A fixed `levels` takes one block of exactly that size; otherwise the
    # block grows until the adaptive cut falls inside it.  Either way the
    # kept weights are a prefix of the block's, computed once.
    size = levels or _FIRST_BLOCK
    while True:
        try:
            energies = energy_levels(state.well, size + 1)
            if not energies[-1] < _INF:  # a product overflowed without raising
                raise OverflowError
        except OverflowError:
            raise FracStirlingError(
                f"energy levels of {state.well} exceed the float range"
            ) from None
        excess = beta * (energies - energies[0])
        weights = np.exp(-excess[:-1])
        n_cut = levels or _find_cut(
            weights, np.exp(-beta * np.diff(energies)), excess, rel_tol
        )
        if n_cut:
            break
        if size >= MAX_LEVELS:
            raise TruncationLimitError(
                f"partition sum for width={state.well.width}, "
                f"alpha={state.well.alpha}, mass={state.well.mass}, "
                f"T={state.temperature} still unconverged at "
                f"{MAX_LEVELS} levels (rel_tol={rel_tol})"
            )
        size = min(size * _GROWTH, MAX_LEVELS)

    e1 = energies[0]
    kept = energies[:n_cut]
    weights = weights[:n_cut]
    z_shifted = float(np.sum(weights))
    occ = weights / z_shifted
    occ.setflags(write=False)

    weighted = occ * (kept - e1)
    excess = float(np.sum(weighted))  # U - E_1, free of cancellation
    # Var(E) from moments about E_1, where the mean square exceeds the
    # variance by at most a small factor, so the difference stays accurate
    heat_capacity = beta * beta * (float(np.dot(weighted, kept - e1)) - excess * excess)
    internal_energy = e1 + excess
    entropy = beta * excess + np.log(z_shifted)
    free_energy = e1 - state.temperature * np.log(z_shifted)
    partition_function = float(np.exp(-beta * e1) * z_shifted)

    ratio = float(np.exp(-beta * (energies[n_cut] - energies[n_cut - 1])))
    # a fixed cut at a level spacing far below T leaves an unbounded tail
    tail_bound = _INF if ratio == 1.0 else (
        float(weights[-1]) * ratio / ((1.0 - ratio) * z_shifted)
    )

    return EnsembleSummary(
        partition_function=partition_function,
        occupations=occ,
        internal_energy=float(internal_energy),
        entropy=float(entropy),
        free_energy=float(free_energy),
        n_cut=n_cut,
        tail_bound=tail_bound,
        heat_capacity=heat_capacity,
    )


_summarize_cached = lru_cache(maxsize=65536)(_summarize)
