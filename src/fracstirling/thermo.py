"""Canonical-ensemble quantities of a particle in a fractional well.

Each level sum is cut at a level count N computed in closed form from alpha,
x = E_1/T and the relative tolerance before any level is computed (see
`_level_count`), so a state computes one block of levels and searches for
nothing.  A state cut at N <= _HEAD levels sums all N; one cut past it sums
its first _HEAD levels and closes levels _HEAD + 1 .. N with Euler-Maclaurin
(`_tail_sums`) to about 1e-15 of the explicit sum: 274 levels whatever N is,
a row of _HEAD + _PAD and the closure's two ends.  The adaptive cut has no
cap: N is finite for x down to about 1e-305, far below the x of about 1e-103
where the sums leave the float range, so a state fails only where they do.

There is one ensemble kernel, and it sees a state only through alpha, x and
N.  A level enters as g_n = n^alpha - 1, its weight relative to the ground
level as e^(-x g_n): `_row_sums` sums a 2-D block of them, one state per row,
into T_k = sum g_n^k e^(-x g_n), k = 0, 1, 2, a closed row adds the T_k of
`_tail_sums`, and `_summary_fields`, the one place E_1 and T enter, turns
them and N into U, S, F, Z, C and the tail bound.  The ground weight is 1,
so the sums hold where x exceeds 700 in narrow wells and e^(-x) underflows,
and no energy E_n is formed: levels past the float range weigh 0.  S = x <g>
+ ln T_0 is nonnegative by construction and needs no per-term p ln p guard.
E_1 is `spectrum.level_scale`, numpy's power, which `summarize_many` calls
once on the arrays of all its states, so the kernel, `energy_levels` and
`occupations` share one formula bit for bit.
`summarize_many` pads each state's row of explicit levels, min(N, _HEAD) of
them, with zero weights to the multiple of _PAD above that count, and sums
all states of one padded length in one capped block, so a call holding
dozens of distinct cuts sums a few blocks; `summarize` is it on one state.
A row's length depends on its own cut alone, every reduction runs along a
row and the closure is elementwise, so a state's sums do not depend on the
block it lands in or the states beside it.  Nothing is memoised;
`occupations` recomputes the kept weights on demand.
A state's validity domain is `spectrum._DOMAIN`, from which `_LOWEST` and
`_HIGHEST` take the smallest and largest valid values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import (  # energy_levels: tracer-only import, bench/tracer.py rebinds thermo.energy_levels
    _DOMAIN, _INF, _MAX, _T_MIN, FracStirlingError, WellSpec, _check_beta, _check_domain, _levels_error,
    energy_levels, level_scale,
)

DEFAULT_REL_TOL = 1e-12

# Cap on a level count that a caller fixes and on the levels `occupations`
# forms one by one; an adaptive cut has none
MAX_LEVELS = 10**6

# Cap on the level entries of one kernel block: a group of states that share a
# padded length is summed in blocks of at most this many entries, or of one row.
_BLOCK_ENTRIES = 1 << 16

# A state's row of explicit levels is padded to the multiple of this just
# above its kept count, so states with nearby cuts share one block.
_PAD = 16
# row k: 1 for the first k of the last _PAD entries of a row, 0 past them
_KEEP = np.tri(_PAD, k=-1)

# The levels summed explicitly by a state cut past them; the rest of its sum
# is closed in form.  Past it the step x alpha n^(alpha-1) of the exponent
# x (n^alpha - 1) is below 0.3 wherever a weight reaches 1e-16 (x 256^alpha <
# 37), so two Euler-Maclaurin end terms leave under 1e-15 relative.
_HEAD = 256

# Where `_gamma_ratios` switches from the series of the lower incomplete gamma
# to the continued fraction of the upper one, and the terms of each: both are
# within 1e-15 relative on their side of it.
_GAMMA_SPLIT, _SERIES_TERMS, _FRACTION_TERMS = 10.0, 50, 14

# The smallest and largest valid width, alpha, mass and temperature, one row
# each, from the validity domain: one comparison checks every state
_LOWEST = np.array([[math.nextafter(lo, _INF)] for lo, _ in _DOMAIN.values()])
_LOWEST[-1] = _T_MIN  # where 1/T is finite
_HIGHEST = np.array([[hi] for _, hi in _DOMAIN.values()])


@dataclass(frozen=True)
class ThermalState:
    """A well in equilibrium with a bath at fixed temperature."""

    well: WellSpec
    temperature: float

    def __post_init__(self) -> None:
        _check_domain("temperature", self.temperature)
        _check_beta(self.temperature)


@dataclass(frozen=True)
class EnsembleSummary:
    """Derived equilibrium quantities of one ThermalState, all scalars.

    `n_cut` is the level count N the sums run to, an int of any size: an
    adaptive cut in a wide or hot well may pass 1e100.  `tail_bound` is the
    rigorous upper bound on the neglected partition function tail, relative
    to the kept sum T_0: the weights w_n = e^(-x(n^alpha - 1)), x = E_1/T,
    past N fall at least as fast as a geometric series of ratio r =
    e^(-x dg), dg = N^alpha ((1 + 1/N)^alpha - 1), so the tail is at most
    w_N r / ((1 - r) T_0).  It is at most rel_tol at an adaptive cut.
    `heat_capacity` is dU/dT = beta^2 Var(E) over the kept levels.  See
    `occupations` for P_n.
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
    then simply records how much spectrum the fixed cut ignores.  Either cut
    past _HEAD levels is summed as the head plus a closed form, to about
    1e-15 of the explicit sum, so the adaptive cut needs no cap.  This is
    `summarize_many` on one state as Python scalars, or FracStirlingError
    where the state fails there, its U being nan.
    """
    well = state.well
    row = summarize_many([well.width], [well.alpha], [well.mass], [state.temperature], rel_tol, levels)
    if np.isnan(row["internal_energy"][0]):
        raise _state_error(well.width, well.alpha, well.mass)
    return EnsembleSummary(n_cut=int(row.pop("n_cut")[0]), **{name: v.item() for name, v in row.items()})


def occupations(
    state: ThermalState,
    rel_tol: float = DEFAULT_REL_TOL,
    levels: int | None = None,
) -> np.ndarray:
    """P_1 .. P_{n_cut} at the cut `summarize` takes, recomputed on each call.

    Raises ValueError where that cut passes MAX_LEVELS levels.
    """
    n_cut = summarize(state, rel_tol, levels).n_cut  # raises where the state fails
    if n_cut > MAX_LEVELS:
        raise ValueError(f"occupations hold at most {MAX_LEVELS} levels, {state} is cut at {n_cut}")
    well = state.well
    x = min(level_scale(well.width, well.alpha, well.mass) / state.temperature, _MAX)
    g = np.power(np.arange(1.0, n_cut + 1.0), float(well.alpha)) - 1.0
    with np.errstate(over="ignore"):
        weights = np.exp(g * -x)
    return weights / float(np.sum(weights))


def summarize_many(
    width,
    alpha,
    mass,
    temperature,
    rel_tol: float = DEFAULT_REL_TOL,
    levels=None,
    _trim: bool = False,
) -> dict[str, np.ndarray]:
    """Every EnsembleSummary field of many states, as arrays keyed by field name.

    State i is ThermalState(WellSpec(width[i], alpha[i], mass[i]),
    temperature[i]); the four arguments are equal-length 1-D sequences.
    `levels` is None, one count for all states or a sequence of one per
    state; the per-state counts, which the cycle's crossing search takes from
    a table, have no upper bound but the float range.  `n_cut` is float64, each value an integer
    that may pass the int64 range.  A state fails where E_1 is not a finite
    float, where an adaptive cut has no finite N because x = E_1/T
    underflows, or where U, S, F or C leaves the float range (T_2, the sum
    behind C, is the first to overflow, at x below about 1e-103); there n_cut
    is 0 and every other field nan, so a failed state is one whose U is nan,
    and elsewhere U, S, F and C are finite.  Levels above a finite E_1 that
    pass the float range weigh 0 and fail nothing.  A state sums min(N,
    _HEAD) levels explicitly, as a row padded to the multiple of _PAD above
    that count; the states are grouped by that padded length, so a call sums
    a few blocks however many distinct cuts it holds, and each group in
    blocks of at most _BLOCK_ENTRIES entries (or one row), so the memory held
    is bounded for any number of states.  A state's row depends on that
    state alone, so its fields are the same bit for bit whatever other
    states share the call.  The first state outside the validity domain, a
    Python int past the float range too, raises the ValueError
    ThermalState(WellSpec(...), T) raises on it, naming the field; a bad
    `rel_tol`, `levels` or shape raises ValueError too.  The cycle's and the
    solver's calls pass `_trim`, a private flag: then the table holds n_cut,
    U, S, F and C, all they read and all that decide a failure, and no Z or
    tail bound.
    """
    per_state = levels is not None and np.ndim(levels) > 0
    _check_cut_args(rel_tol, None if per_state else levels)
    try:
        states = np.array((width, alpha, mass, temperature), dtype=float)
    except OverflowError:  # a Python int past the float range: compared exactly below
        states = np.array((width, alpha, mass, temperature), dtype=object)
    except ValueError:
        states = None
    if states is None or states.ndim != 2:
        raise ValueError("need four 1-D sequences of equal length")
    valid = (_LOWEST <= states) & (states <= _HIGHEST)
    if not valid.all():  # the first invalid state raises as ThermalState(WellSpec(...), T) would
        state = states[:, valid.all(axis=0).argmin()].tolist()
        for name, value in zip(_DOMAIN, state):
            _check_domain(name, value)
        _check_beta(state[-1])
    width, alpha, mass, temperature = states
    if per_state:
        fixed = np.broadcast_to(levels, temperature.shape)
        # a count past the float range fails before the remainder, which warns on inf
        if not (np.all((1 <= fixed) & (fixed <= _MAX)) and np.all(fixed % 1 == 0)):
            raise ValueError("need one positive integer level count per state")
    count = temperature.size
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = level_scale(width, alpha, mass)  # every state's E_1 at once; nan where not finite
        scale[scale == _INF] = np.nan
        x = np.minimum(scale / temperature, _MAX)  # held at the maximum, x g_1 = x 0 stays 0, not nan
        if levels is None:  # a nan E_1, or an x that underflows to 0, has no finite N
            n_cut = np.ceil(_level_count(alpha, x, rel_tol))
        else:
            n_cut = np.where(np.isnan(scale), np.nan, fixed if per_state else levels)
        n_cut[~np.isfinite(n_cut)] = 0.0  # no level is summed, and every field is nan

        # per state: T_0, T_1, T_2
        sums = np.full((3, count), np.nan)
        kept = np.minimum(n_cut, _HEAD).astype(np.int64)
        # a row's length fixes the pairwise tree of its sums, so this rule, the
        # multiple of _PAD (a power of 2) above the kept count, keeps their bits
        padded = np.where(kept > 0, (kept | (_PAD - 1)) + 1, 0)
        for length in sorted(set(padded.tolist()) - {0}):
            group = (padded == length).nonzero()[0]
            ladder = np.arange(1.0, length + 1.0)
            rows = max(1, _BLOCK_ENTRIES // length)
            for start in range(0, group.size, rows):
                idx = group[start:start + rows]
                g = np.power(ladder, alpha[idx, None])
                g -= 1.0
                sums[:, idx] = _row_sums(g, x[idx, None], kept[idx])
        # a state cut past _HEAD adds levels _HEAD + 1 .. N in closed form to
        # its head; past a head whose last weight underflows every one weighs 0
        closed = (n_cut > _HEAD).nonzero()[0]
        # a call with no closed row, or no live one, skips the closure's fixed cost
        live = closed[np.exp(-x[closed] * (_HEAD ** alpha[closed] - 1.0)) > 0.0] if closed.size else closed
        if live.size:
            sums[:, live] += _tail_sums(alpha[live], x[live], n_cut[live])
        fields = _summary_fields(scale, temperature, alpha, x, n_cut, *sums, _trim)
    # no cut, or U, S, F or C past the float range, as T ln T_0 or E_1 (1 + <g>)
    # may be where E_1 or T is near the float maximum, and T_2 is where x underflows
    finite = np.isfinite(fields["internal_energy"]) & np.isfinite(fields["entropy"])
    finite &= np.isfinite(fields["free_energy"]) & np.isfinite(fields["heat_capacity"])
    if not finite.all():  # one nan, whatever sign the arithmetic left
        n_cut[~finite] = 0
        for v in fields.values():
            v[~finite] = np.nan
    return {"n_cut": n_cut, **fields}


def _check_cut_args(rel_tol: float, levels: int | None) -> None:
    if not 0.0 < rel_tol <= 1e-6:
        raise ValueError(f"rel_tol must lie in (0, 1e-6], got {rel_tol}")
    if levels is not None and not 1 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must lie in [1, {MAX_LEVELS}], got {levels}")
    if levels is not None and levels % 1:
        raise ValueError(f"levels must be an integer, got {levels}")


def _level_count(alpha, x, rel_tol):
    """The real level count N, as arrays, whose neglected tails are certified below rel_tol.

    With x = beta E_1 the weights are w_n = e^(-u_n), u_n = x(n^alpha - 1).
    Write y = x(N^alpha - 1) and D = x alpha N^(alpha-1), the slope du/dn at
    N.  Past N the weights decrease, and so do the terms u_n w_n once y >= 1;
    as du/dn >= D there, the integral test bounds both tails, sum w_n and
    sum u_n w_n, by e^(-y)(1 + y)/D.  The kept sums are at least w_1 = 1, so
    both tails are below rel_tol once e^(-y)(1 + y) <= rel_tol D.  Take
    N_L = (1 + ln(1/rel_tol)/x)^(1/alpha), D_L = x alpha N_L^(alpha-1),
    L = -ln(rel_tol) - ln(min(1, D_L)) and y = L + ln(1 + 2L).  Then
    e^(-y)(1 + y) = e^(-L)(1 + y)/(1 + 2L) <= 0.64 e^(-L) for L >= ln(1e6),
    and N = (1 + y/x)^(1/alpha) >= N_L, so D >= D_L; the slack leaves a
    few-ulp shift of N harmless.  L is a sum of logs, so it stays finite at
    any rel_tol, and N is finite for x above about 1e-305.  Callers round N
    up; where y/x is near the float resolution it may round to 1, and the
    first neglected weight, e^(-x(2^alpha - 1)), then underflows to 0.  N is
    inf at x = 0 and nan at a nan x.
    """
    n_l = (1.0 + np.log(1.0 / rel_tol) / x) ** (1.0 / alpha)
    big_l = -np.log(rel_tol) - np.log(np.minimum(1.0, x * alpha * n_l ** (alpha - 1.0)))
    return (1.0 + (big_l + np.log1p(2.0 * big_l)) / x) ** (1.0 / alpha)


def _state_error(width, alpha, mass) -> FracStirlingError:
    """The error of a state `summarize_many` fails: of its level sums where 0 < E_1 < inf, else of E_1."""
    well = WellSpec(width, alpha, mass)
    if 0.0 < level_scale(width, alpha, mass) < _INF:
        return FracStirlingError(f"level sums of {well} leave the float range")
    return _levels_error(well)


def _row_sums(g: np.ndarray, x, n):
    """The level sums of the ensemble kernel, one state per row of a block.

    Row i of the (rows, P) block holds g_m = m^alpha - 1 of levels 1 .. P of
    a state, of which the first n[i] < P are kept, with weights e^(-x g_m);
    the entries past them weigh exactly 0.  For a state cut past _HEAD
    levels this is its head, n[i] = _HEAD.  `x` is E_1/T, a column of one
    per row.  Returns per row T_k = sum g_m^k w_m, k = 0, 1, 2.  Every
    reduction runs along a row of P entries, so a row sums bit for bit as it
    would alone, in whatever block it is.
    """
    weights = np.multiply(g, -x)
    np.exp(weights, out=weights)
    # a row keeps all but some of its last _PAD entries
    weights[:, -_PAD:] *= _KEEP.take(n - (g.shape[1] - _PAD), axis=0)
    t0 = np.add.reduce(weights, axis=1)
    weights *= g
    t1 = np.add.reduce(weights, axis=1)
    return t0, t1, np.vecdot(weights, g)


def _tail_sums(alpha, x, n):
    """T_k, the sum of g^k e^(-x g) over levels _HEAD + 1 .. n with g = level^alpha - 1.

    Returns T_0, T_1, T_2 as rows.  The arguments are 1-D arrays, one state
    each, with x = beta E_1 finite and nonnegative and n > _HEAD.  This is
    Euler-Maclaurin on [H, N], H = _HEAD: the sum of f over H + 1 .. N is the
    integral of f plus, at N less at H, f/2 + f'/12 - f'''/720, with the
    derivatives of f_k = g^k e^(-x g) by the product rule.  Expanding g^k
    leaves the integrals

        J_j = e^x int_H^N t^(j alpha) e^(-x t^alpha) dt
            = e^x x^(-s) / alpha [Gamma(s, x H^alpha) - Gamma(s, x N^alpha)],

    s = j + 1/alpha.  Multiplied by e^x x^(-s) y^s e^(-y) = t^(j alpha) t f_0
    at y = x t^alpha, the ratios of `_gamma_ratios` give each end's
    incomplete gamma: the lower one where both ends lie below the split, the
    upper one where both lie above, and the complete Gamma(s) less both where
    the interval crosses it.  Each difference then errs by rounding of its
    larger term only, at most of the order of the sum over levels 1 .. N, and
    the result is within about 1e-15 of the explicit sum relative to it.
    """
    s = 1.0 / alpha
    t = np.array((np.full(x.shape, float(_HEAD)), n), dtype=float)  # rows: H, N
    p = t**alpha
    y = x * p
    g = p - 1.0
    f0 = np.exp(-x * g)
    lower, upper = _gamma_ratios(s, y)
    scale = t * f0
    scale = np.array((scale, scale * p, scale * p * p))
    lower *= scale
    upper *= scale
    # e^x x^(-s) Gamma(s), used only where x N^alpha passes the split
    xc = np.maximum(x, _GAMMA_SPLIT / p[1])
    complete = np.exp(xc) * xc**-s * np.array([math.gamma(v) for v in s.tolist()])
    complete = np.array((complete, complete * s / xc, complete * s / xc * (s + 1.0) / xc))
    head_low, end_low = y < _GAMMA_SPLIT
    across = np.where(head_low, complete - lower[:, 0] - upper[:, 1], upper[:, 0] - upper[:, 1])
    j0, j1, j2 = np.where(end_low, lower[:, 1] - lower[:, 0], across) / alpha
    # derivatives in t of g, of f_0 = e^u with u = -x g, and of g^0, g^1, g^2
    g1 = alpha * p / t
    g2 = g1 * (alpha - 1.0) / t
    g3 = g2 * (alpha - 2.0) / t
    u1, u2, u3 = -x * g1, -x * g2, -x * g3
    w1, w2, w3 = u1 * f0, (u2 + u1 * u1) * f0, (u3 + 3.0 * u1 * u2 + u1 * u1 * u1) * f0
    one, zero = np.ones_like(g), np.zeros_like(g)
    d0 = np.array((one, g, g * g))
    d1 = np.array((zero, g1, 2.0 * g * g1))
    d2 = np.array((zero, g2, 2.0 * (g1 * g1 + g * g2)))
    d3 = np.array((zero, g3, 6.0 * g1 * g2 + 2.0 * g * g3))
    f = d0 * f0
    f1 = d1 * f0 + d0 * w1
    f3 = d3 * f0 + 3.0 * (d2 * w1 + d1 * w2) + d0 * w3
    ends = f / 2.0 + f1 / 12.0 - f3 / 720.0
    return np.array((j0, j1 - j0, j2 - 2.0 * j1 + j0)) + ends[:, 1] - ends[:, 0]


def _gamma_ratios(s, y):
    """The incomplete gammas of s + j at y over y^(s+j) e^(-y), j = 0, 1, 2.

    Returns (lower, upper), each stacked over j: the lower gamma's ratios
    gamma(s + j, y) e^y y^-(s+j) at min(y, _GAMMA_SPLIT) and the upper ones
    Gamma(s + j, y) e^y y^-(s+j) at max(y, _GAMMA_SPLIT), so both are finite
    for any y >= 0; a caller takes each on its own side of the split.  For
    s in (0.5, 1.5] both are within 1e-15 relative there.  The lower ratio of
    s + 2 is the series of DLMF 8.7.1, the sum of y^m / ((s+2)(s+3) ..
    (s+2+m)) to _SERIES_TERMS terms, and gamma(s + 1, y) = s gamma(s, y) -
    y^s e^(-y) carries it down.  The upper ratio of s is Legendre's
    continued fraction (DLMF 8.9.2), summed from its _FRACTION_TERMS-th level
    back, and Gamma(s + 1, y) = s Gamma(s, y) + y^s e^(-y) carries it up.
    Either recurrence adds positive terms.
    """
    low, high = np.minimum(y, _GAMMA_SPLIT), np.maximum(y, _GAMMA_SPLIT)
    # the series' terms along a last axis: a product and a sum per state
    steps = s[:, None] + (2.0 + np.arange(1.0, _SERIES_TERMS))
    terms = np.cumprod(low[..., None] / steps, axis=-1)
    lower = [(1.0 + np.add.reduce(terms, axis=-1)) / (s + 2.0)]
    for j in (1.0, 0.0):
        lower.insert(0, (1.0 + low * lower[0]) / (s + j))
    levels = np.arange(_FRACTION_TERMS, 0.0, -1.0)[:, None]
    base, numerators = high + 1.0 - s, levels * (levels - s)
    fraction = 0.0
    for level, numerator in zip(levels[:, 0].tolist(), numerators):
        fraction = numerator / (base + 2.0 * level - fraction)
    upper = [1.0 / (base - fraction)]
    for j in (0.0, 1.0):
        upper.append(((s + j) * upper[-1] + 1.0) / high)
    return np.array(lower), np.array(upper)


def _summary_fields(e1, temperature, alpha, x, n, t0, t1, t2, trim):
    """The EnsembleSummary fields other than n_cut, from x = E_1/T, the cut N and the T_k.

    U, S, F and C alone where `trim` is true.  Call under
    np.errstate(over="ignore", divide="ignore", invalid="ignore"): x and x dg
    may be large enough that a weight is 0, the tail bound may divide by 0,
    and a state with no cut, N = 0, has nan sums.
    """
    log_z = np.log(t0)
    mean = t1 / t0  # <g>, so U - E_1 = E_1 <g>, free of cancellation
    x_mean = x * mean
    fields = {
        "internal_energy": e1 + e1 * mean,
        "entropy": x_mean + log_z,
        "free_energy": e1 - temperature * log_z,
        "heat_capacity": x * (x * t2 / t0) - x_mean * x_mean,
    }
    if trim:
        return fields
    power = n**alpha
    # x dg with dg = g_{N+1} - g_N as N^alpha ((1 + 1/N)^alpha - 1), as the
    # plain difference of two powers is 0 once N passes 2^53, and 1 - r as
    # -expm1, as 1 - r rounds to 0 where x dg is below 1e-16
    step = x * (power * np.expm1(alpha * np.log1p(1.0 / n)))
    return {
        "partition_function": np.exp(-x) * t0,
        **fields,
        "tail_bound": np.exp(-x * (power - 1.0)) * np.exp(-step) / (-np.expm1(-step) * t0),
    }
