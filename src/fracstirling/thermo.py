"""Canonical-ensemble quantities of a particle in a fractional well.

Each level sum is cut at a level count computed in closed form from alpha,
beta E_1 and the relative tolerance before any level is computed (see `_cut`;
`summarize_many` forms it as arrays, with the same result), so a state
computes one block of levels and searches for nothing.

There is one ensemble kernel: `_row_sums` sums a 2-D block of levels, one
state per row, and `_summary_fields` turns the row sums into U, S, F, Z, C
and the tail bound.  `summarize_many` groups any number of states by their
cut and sums each group in capped blocks; `summarize` is it on one state.
Every reduction runs along a row, so a state's sums do not depend on the
block it lands in.

All sums are accumulated after factoring out e^(-beta E_1); beta E_1 can
exceed 700 in narrow wells, where the unshifted weights underflow.  In the
shifted representation S = beta (U - E_1) + ln Z_s, which is nonnegative by
construction and needs no per-term x ln x guard.  Nothing is memoised;
`occupations` recomputes the kept weights on demand.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .spectrum import _INF, WellSpec, energy_levels, level_scale

DEFAULT_REL_TOL = 1e-12

# Hard cap on the truncation index.  A cut beyond it means the spectrum is
# so dense relative to T that the single-particle picture is pushed far
# outside its intended regime; fail before any level is computed.
MAX_LEVELS = 10**6

# Cap on the level entries of one kernel block: a group of states that share a
# cut is summed in blocks of at most this many entries, or of one row.
_BLOCK_ENTRIES = 1 << 16

# The smallest temperature whose reciprocal, beta, is a finite float
_T_MIN = math.nextafter(1.0 / np.finfo(float).max, 1.0)


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
        _check_beta(self.temperature)


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
    then simply records how much spectrum the fixed cut ignores.  This is
    `summarize_many` on one state, its fields as Python scalars.
    """
    well = state.well
    row = summarize_many([well.width], [well.alpha], [well.mass], [state.temperature], rel_tol, levels)
    if not row["n_cut"][0]:
        raise _cut_error(state, rel_tol, levels)
    return EnsembleSummary(**{name: v.item() for name, v in row.items()})


def occupations(
    state: ThermalState,
    rel_tol: float = DEFAULT_REL_TOL,
    levels: int | None = None,
) -> np.ndarray:
    """P_1 .. P_{n_cut} at the cut `summarize` takes, recomputed on each call."""
    energies = energy_levels(state.well, summarize(state, rel_tol, levels).n_cut + 1)
    with np.errstate(over="ignore"):
        _, weights, _ = _weights(energies[None, :], 1.0 / state.temperature)
    return weights[0] / float(np.sum(weights))


def summarize_many(
    width,
    alpha,
    mass,
    temperature,
    rel_tol: float = DEFAULT_REL_TOL,
    levels=None,
) -> dict[str, np.ndarray]:
    """Every EnsembleSummary field of many states, as arrays keyed by field name.

    State i is ThermalState(WellSpec(width[i], alpha[i], mass[i]),
    temperature[i]); the four arguments are equal-length 1-D sequences.
    `levels` is None, one count for all states or a sequence of one per
    state.  Where `summarize` raises a FracStirlingError, n_cut is 0 and the
    other fields are nan.  The states are grouped by their cut, and each
    group is summed in blocks of at most _BLOCK_ENTRIES levels (or one row),
    so the memory held is bounded for any number of states.
    """
    per_state = np.ndim(levels) > 0
    _check_cut_args(rel_tol, None if per_state else levels)
    width, alpha, mass, temperature = (
        np.asarray(v, dtype=float) for v in (width, alpha, mass, temperature)
    )
    if width.ndim != 1 or len({v.shape for v in (width, alpha, mass, temperature)}) > 1:
        raise ValueError("need four 1-D sequences of equal length")
    if not (
        np.all((0.0 < width) & (width < _INF)) and np.all((1.0 < alpha) & (alpha <= 2.0))
        and np.all((0.0 < mass) & (mass < _INF))
        and np.all((0.0 < temperature) & (temperature < _INF))
    ):
        raise ValueError(
            "need finite positive widths, masses and temperatures and alphas in (1, 2]"
        )
    _check_beta(temperature.min(initial=_INF))
    fixed = np.broadcast_to(levels if per_state else levels or 0, temperature.shape)
    if per_state and not np.all((1 <= fixed) & (fixed <= MAX_LEVELS) & (fixed % 1 == 0)):
        raise ValueError(f"need one integer level count in [1, {MAX_LEVELS}] per state")
    count = temperature.size
    # E_1 in Python floats, as `_cut_error` forms it: a power past the float
    # range raises, and is nan here; the lists die before the level sums
    columns = (width, alpha, mass)
    try:
        scale = np.array(list(map(level_scale, *(v.tolist() for v in columns))))
    except OverflowError:
        scale = np.full(count, np.nan)
        for i, state in enumerate(zip(*(v.tolist() for v in columns))):
            with suppress(OverflowError):
                scale[i] = level_scale(*state)
    if levels is not None:
        n_cut = np.where(np.isnan(scale), 0, fixed).astype(np.int64)
    else:  # `_cut` as arrays: numpy's log and power move N by a few ulps, so
        # `_cut` decides within 1e-9 of an integer; x = 0 or a nan E_1 cuts 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x = scale / temperature
            n_real = _real_cut(alpha, x, rel_tol, np.log, np.log1p, np.minimum)
            n_cut = np.where(n_real <= MAX_LEVELS, np.ceil(n_real), 0).astype(np.int64)
            near = np.abs(n_real - np.rint(n_real)) <= 1e-9 * n_real
        for i in np.flatnonzero(near).tolist():
            n_cut[i] = _cut(float(alpha[i]), float(x[i]), rel_tol)

    # per state: E_1, E_{N+1} - E_N, the last kept weight and the three sums
    sums = np.full((6, count), np.nan)
    order = np.argsort(n_cut, kind="stable")
    cuts, starts = np.unique(n_cut[order], return_index=True)
    ends = [*starts[1:].tolist(), count]
    with np.errstate(over="ignore", divide="ignore"):
        for n, lo, hi in zip(cuts.tolist(), starts.tolist(), ends):
            if n == 0:
                continue
            ladder = np.arange(1, n + 2, dtype=float)
            rows = max(1, _BLOCK_ENTRIES // (n + 1))
            for start in range(lo, hi, rows):
                idx = order[start:min(start + rows, hi)]
                energies = np.power(ladder, alpha[idx, None])
                energies *= scale[idx, None]
                finite = energies[:, -1] < _INF
                if not finite.all():
                    n_cut[idx[~finite]] = 0
                    idx, energies = idx[finite], energies[finite]
                sums[:, idx] = _row_sums(energies, 1.0 / temperature[idx, None])
        return {"n_cut": n_cut, **_summary_fields(*sums, temperature)}


def _check_beta(temperature: float) -> None:
    if not temperature >= _T_MIN:
        raise ValueError(
            f"temperature must be at least {_T_MIN}, where 1/T is finite, got {temperature}"
        )


def _check_cut_args(rel_tol: float, levels: int | None) -> None:
    if not 0.0 < rel_tol <= 1e-6:
        raise ValueError(f"rel_tol must lie in (0, 1e-6], got {rel_tol}")
    if levels is not None and not 1 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must lie in [1, {MAX_LEVELS}], got {levels}")
    if levels is not None and levels % 1:
        raise ValueError(f"levels must be an integer, got {levels}")


def _cut(alpha: float, x: float, rel_tol: float) -> int:
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

    Returns 0 when x underflows to 0 or N is not finite or exceeds
    MAX_LEVELS: no cut exists, and no level may be computed.
    """
    if x > 0.0:
        n_real = _real_cut(alpha, x, rel_tol, math.log, math.log1p, min)
        if n_real <= MAX_LEVELS:  # before ceil, which fails on inf
            return math.ceil(n_real)
    return 0


def _real_cut(alpha, x, rel_tol, log, log1p, least):
    """The real N of `_cut`, before rounding, with the given log, log1p and min."""
    n_l = (1.0 + log(1.0 / rel_tol) / x) ** (1.0 / alpha)
    big_l = -log(rel_tol * least(1.0, x * alpha * n_l ** (alpha - 1.0)))
    return (1.0 + (big_l + log1p(2.0 * big_l)) / x) ** (1.0 / alpha)


def _cut_error(state: ThermalState, rel_tol: float, levels: int | None) -> FracStirlingError:
    """The error of a state that `summarize_many` cuts at 0 levels; computes no level.

    Without a cut, fixed or from `_cut`, no level count up to MAX_LEVELS
    meets rel_tol; with one, a level left the float range.  E_1 is formed
    from Python floats, as in `summarize_many`, so an overflow never warns.
    """
    well = state.well
    with suppress(OverflowError):
        scale = level_scale(float(well.width), float(well.alpha), float(well.mass))
        if not (levels or _cut(float(well.alpha), scale / float(state.temperature), rel_tol)):
            return TruncationLimitError(
                f"partition sum for width={well.width}, alpha={well.alpha}, mass={well.mass}, "
                f"T={state.temperature} still unconverged at {MAX_LEVELS} levels (rel_tol={rel_tol})"
            )
    return FracStirlingError(f"energy levels of {well} exceed the float range")


def _weights(energies: np.ndarray, beta):
    """Shift a level block to E_n - E_1 in place; return E_1 and the weights.

    `beta` is a float or a column of one per row.  Returns the column of
    E_1, the weights e^(-beta (E_n - E_1)) of all but the last level, 0
    where beta (E_n - E_1) overflows, and a view of the shifted levels they
    belong to.
    """
    e1 = energies[:, :1].copy()
    energies -= e1
    delta = energies[:, :-1]
    weights = np.multiply(delta, -beta)
    np.exp(weights, out=weights)
    return e1, weights, delta


def _row_sums(energies: np.ndarray, beta):
    """The level sums of the ensemble kernel, one state per row of a block.

    Row i of the C-contiguous (rows, N + 1) block holds E_1 .. E_{N+1} of a
    state; the first N levels are kept.  `beta` is a float or a column of
    one per row.  Returns per row E_1, E_{N+1} - E_N, the last kept weight
    w_N, Z_s = sum w_n, U - E_1 and beta <(E_n - E_1)^2>.  The block is
    overwritten.  Every reduction runs along a row, so a row sums bit for
    bit as the 1-D array of its own levels would, in whatever block it is.
    """
    spacing = energies[:, -1] - energies[:, -2]
    e1, weights, delta = _weights(energies, beta)
    last_weight = weights[:, -1].copy()
    z_shifted = np.add.reduce(weights, axis=1, keepdims=True)
    weights /= z_shifted
    weights *= delta
    excess = np.add.reduce(weights, axis=1)  # U - E_1, free of cancellation
    # moments about E_1: their mean square exceeds Var(E) by a small factor
    # only; scaling the terms by beta first keeps the dot finite
    weights *= beta
    moment = np.vecdot(weights, delta)
    return e1[:, 0], spacing, last_weight, z_shifted[:, 0], excess, moment


def _summary_fields(e1, spacing, last_weight, z_shifted, excess, moment, temperature):
    """The EnsembleSummary fields other than n_cut, from `_row_sums`.

    Floats or arrays alike, in one operation order.  Call under
    np.errstate(over="ignore", divide="ignore"): beta E_1 and beta dE may
    overflow, to a weight of 0, and the tail bound may divide by 0.
    """
    beta = 1.0 / temperature
    log_z = np.log(z_shifted)
    ratio = np.exp(-beta * spacing)  # a numpy float, so x / 0 is inf
    beta_excess = beta * excess
    return {
        "partition_function": np.exp(-beta * e1) * z_shifted,
        "internal_energy": e1 + excess,
        "entropy": beta_excess + log_z,
        "free_energy": e1 - temperature * log_z,
        # a fixed cut at a level spacing far below T rounds the ratio to 1
        # and leaves an unbounded tail
        "tail_bound": last_weight * ratio / ((1.0 - ratio) * z_shifted),
        "heat_capacity": beta * moment - beta_excess * beta_excess,
    }
