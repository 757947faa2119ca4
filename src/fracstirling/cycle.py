"""Four-corner Stirling cycle built from equilibrium states.

The cycle runs A -> B -> C -> D -> A: two isothermal branches (A-B at the
hot bath, C-D at the cold bath) along which the well width and the kinetic
exponent vary, and two isochoric branches (B-C, D-A) with frozen spectrum
exchanging heat with a regenerator.  Stage heats are state-function
differences of the corner equilibria; no path integration is involved.  The
hot-bath charge for the regenerator also needs the two isochore states at
the one temperature, if any, where their heat capacities cross.

There is one cycle evaluator.  Its array stage, `_node_arrays`, takes the
cycle nodes as parameter columns, sums each well once per value of the
columns that move it in one `summarize_many` call, forms every report
quantity as an array and steps the crossing searches of all nodes as array
columns, with no loop over nodes.  `evaluate` runs it on one node and reads
its CycleReport off the arrays, `solver.sweep` runs it on a grid and keeps
the arrays.  `_regenerator_heats` forms q_r there, for `regenerator_heat` and
for the scans of `solver`, where a solve is the one-node trace.  The corner
table holds each state's width, alpha, mass and temperature: a lockstep
search, of a heat-capacity crossing here or of a root in `solver`, re-sums
its rows with one of them moved (`_moved`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spectrum import _DOMAIN, WellSpec, _check_beta, _check_domain
from .thermo import (  # summarize: tracer-only import, bench/tracer.py rebinds cycle.summarize
    DEFAULT_REL_TOL, FracStirlingError, ThermalState, _state_error, summarize, summarize_many,
)

REGIME_ENGINE = "engine"
REGIME_NON_ENGINE = "non_engine"

_QH_ZERO = 1e-15

# The heat-capacity crossing counts as found once the next step would move
# T by less than this relative amount; the step cap only guards against
# rounding.
_CROSSING_T_TOL = 1e-5
_CROSSING_MAX_STEPS = 100

# The domain quantity of each CycleParams field but the temperatures, in the
# order CycleParams checks them
_QUANTITIES = {"width_a": "width", "width_b": "width", "mass": "mass", "alpha_1": "alpha", "alpha_2": "alpha"}

# The CycleParams fields of the width, alpha and temperature of corners A .. D
_CORNER_FIELDS = (("width_a", "alpha_2", "t_hot"), ("width_b", "alpha_1", "t_hot"),
                  ("width_b", "alpha_1", "t_cold"), ("width_a", "alpha_2", "t_cold"))


class DegenerateCycleError(FracStirlingError):
    """Hot-bath heat is zero while the cycle still produces net work."""


@dataclass(frozen=True)
class CycleParams:
    """Geometry, exponents and bath temperatures of one Stirling cycle.

    Corners A and D share `width_a` and `alpha_2`; corners B and C share
    `width_b` and `alpha_1`.  The forward convention alpha_1 <= alpha_2 is
    not enforced here; sweeps legitimately cover the whole square.
    """

    width_a: float
    width_b: float
    alpha_1: float
    alpha_2: float
    t_hot: float
    t_cold: float
    mass: float = 1.0

    def __post_init__(self) -> None:
        lo, hi = _DOMAIN["temperature"]
        if not hi >= self.t_hot > self.t_cold > lo:
            raise ValueError(f"need finite t_hot > t_cold > 0, got t_hot={self.t_hot}, t_cold={self.t_cold}")
        _check_beta(self.t_cold)
        for name, quantity in _QUANTITIES.items():
            _check_domain(name, getattr(self, name), quantity)


@dataclass(frozen=True)
class CycleReport:
    """Stage heats, work, regenerator balance and efficiency of one cycle.

    Sign convention: heats are positive when absorbed by the particle.
    `q_r` is the net regenerator exchange over the two isochores.  `q_h` is
    q_ab plus the regenerator deficit booked temperature by temperature: the
    positive variation of h(T) = U_AD(T) - U_BC(T) over [t_cold, t_hot].  It
    equals q_ab + max(q_r, 0) unless the isochore heat capacities cross
    inside the interval; see `evaluate`.  `efficiency` is reported in every
    regime and is meaningful as an engine efficiency only when `regime` is
    "engine" (net work output); there it stays below `carnot` unless the
    heat capacities cross twice, which `evaluate` misses (ROADMAP item 1).
    """

    q_ab: float
    q_bc: float
    q_cd: float
    q_da: float
    work: float
    q_r: float
    q_h: float
    efficiency: float
    carnot: float
    regime: str
    corner_entropies: tuple[float, float, float, float]
    corner_energies: tuple[float, float, float, float]


def corners(params: CycleParams) -> tuple[ThermalState, ThermalState, ThermalState, ThermalState]:
    """The four labelled equilibrium corners (A, B, C, D) of the cycle."""
    return tuple(
        ThermalState(WellSpec(getattr(params, w), getattr(params, a), params.mass), getattr(params, t))
        for w, a, t in _CORNER_FIELDS
    )


def regenerator_heat(
    params: CycleParams,
    rel_tol: float = DEFAULT_REL_TOL,
    levels: int | None = None,
) -> float:
    """Net regenerator heat q_r = q_bc + q_da from the four corner energies.

    Equal bit for bit to `evaluate(params, rel_tol, levels).q_r` but skips
    the rest of the report, notably the heat-capacity crossing solve behind
    q_h.  Where a corner fails, the first to fail raises as in `summarize`.
    """
    q_r, energies = _regenerator_heats(*_corner_summaries(params, {}, rel_tol, levels))
    if np.isnan(q_r[0]):
        raise _node_error(params, {}, energies[:, 0])
    return q_r[0].item()


def evaluate(
    params: CycleParams,
    rel_tol: float = DEFAULT_REL_TOL,
    levels: int | None = None,
) -> CycleReport:
    """Evaluate all cycle quantities at the given parameters.

    A single `rel_tol` (and optional fixed level count) applies to all four
    corner ensembles so that q_r, a small difference of large numbers near
    the perfect-regeneration locus, carries a uniform error budget.

    The regenerator meets the isochores at every temperature in between:
    at T it takes C_BC(T) dT from B -> C and returns C_AD(T) dT to D -> A.
    Where C_AD > C_BC it runs short and the hot bath covers the difference,
    so the booked deficit is the positive variation of h = U_AD - U_BC on
    [t_cold, t_hot], not just max(q_r, 0) with q_r = h(t_hot) - h(t_cold).
    With that booking the regenerator returns to its initial state and
    the engine efficiency stays below carnot, as long as the two heat
    capacities cross at most once: a crossing is detected from their signs
    at the corner temperatures, and two inside the interval go unseen.

    This is the cycle evaluator of `sweep` on one node.  Where a corner
    fails, the first of A, B, C, D to fail raises as in `summarize`; a heat,
    the work or the efficiency past the float range, as T dS may be at
    baths near the float maximum, raises FracStirlingError; a vanishing q_h
    with net work raises DegenerateCycleError.
    """
    table, ids, columns, failed = _node_arrays(params, {}, rel_tol, levels)
    energies, entropies = (table[name][ids[:, 0]] for name in ("internal_energy", "entropy"))
    if failed[0]:
        raise _node_error(params, {}, energies, columns, 0)
    values = {name: v[0].item() for name, v in columns.items()}
    return CycleReport(
        **values, carnot=carnot_efficiency(params),
        regime=REGIME_ENGINE if values["work"] > 0 else REGIME_NON_ENGINE,
        corner_entropies=tuple(entropies.tolist()), corner_energies=tuple(energies.tolist()),
    )


def _node_error(base: CycleParams, node, energies, columns=None, k=0) -> FracStirlingError:
    """The error `evaluate` raises at failed node k, in the values the caller gave.

    `node` overrides parameters of `base`; `energies` holds U of corners A,
    B, C, D, where the first nan marks the first failing corner, and
    `columns` the nodes' q_h and work, which word a node whose corners hold.
    """
    for fields, energy in zip(_CORNER_FIELDS, energies.tolist()):
        if math.isnan(energy):
            width, alpha, _ = (node.get(p, getattr(base, p)) for p in fields)
            return _state_error(width, alpha, base.mass)
    values = {name: v[k].item() for name, v in columns.items()}
    if lost := [f"{name}={v}" for name, v in values.items() if not math.isfinite(v)]:
        return FracStirlingError(
            f"cycle quantities leave the float range ({', '.join(lost)}) for {replace(base, **node)}"
        )
    q_h, work = values["q_h"], values["work"]
    return DegenerateCycleError(
        f"hot-bath heat vanishes (q_h={q_h}) while work={work}; "
        f"efficiency is undefined for {replace(base, **node)}"
    )


def _corner_summaries(base: CycleParams, nodes, rel_tol, levels):
    """The summaries of the corner states of many cycle nodes.

    `nodes` maps some of width_a, width_b, alpha_1 and alpha_2 to node
    columns that broadcast against each other, the others come from `base`;
    the nodes form the broadcast grid, read in C order.  Corners A and D
    share the well (width_a, alpha_2), and B and C the well (width_b,
    alpha_1); A and B sit at t_hot, C and D at t_cold.  Each well is summed
    over the broadcast of its own two columns only, so it holds one state
    per value the axes that move it take, and no sort finds them.  Both
    wells are summed at both temperatures in one `summarize_many` call.
    Returns its table, trimmed to n_cut, U, S, F and C, with the width,
    alpha, mass and temperature of each state, and a (4, nodes) array of
    indices into it for corners A, B, C, D.
    """
    columns = {p: np.asarray(nodes.get(p, getattr(base, p)), dtype=float)
               for p in ("width_a", "alpha_2", "width_b", "alpha_1")}
    shape = np.broadcast_shapes(*(v.shape for v in columns.values()))
    wells, states, count = [], [], 0
    for w, a in (("width_a", "alpha_2"), ("width_b", "alpha_1")):
        width, alpha = np.broadcast_arrays(columns[w], columns[a])
        wells.append((width.ravel(), alpha.ravel()))
        states.append(np.broadcast_to(np.arange(count, count + width.size).reshape(width.shape), shape))
        count += width.size
    width, alpha = (np.concatenate(v * 2) for v in zip(*wells))  # both wells at t_hot, then at t_cold
    mass, temperature = np.full(2 * count, base.mass), np.repeat([base.t_hot, base.t_cold], count)
    table = summarize_many(width, alpha, mass, temperature, rel_tol, levels, True)
    ad, bc = (v.ravel() for v in states)
    summed = dict(width=width, alpha=alpha, mass=mass, temperature=temperature)
    return {**table, **summed}, np.array((ad, bc, count + bc, count + ad))


def _moved(table, rows, quantity, values):
    """`summarize_many`'s width, alpha, mass and temperature of the table's `rows`, `quantity` set to `values`."""
    return [values if q == quantity else table[q][rows] for q in ("width", "alpha", "mass", "temperature")]


def _regenerator_heats(table, ids):
    """q_r = (U_C - U_B) + (U_A - U_D) of the nodes of `_corner_summaries`.

    Returns q_r per node and the (4, nodes) array of U at corners A, B, C,
    D.  A failing corner's U is nan, and q_r is nan exactly there; elsewhere
    U rises with T, so U_A - U_D >= 0 >= U_C - U_B up to rounding, and q_r,
    a sum of two finite values of opposite sign, is finite.
    """
    ua, ub, uc, ud = energies = table["internal_energy"][ids]
    return (uc - ub) + (ua - ud), energies


# at baths near the float maximum T dS and the sums may overflow; such a node
# fails, with no warning
@np.errstate(over="ignore", invalid="ignore")
def _node_arrays(base: CycleParams, nodes, rel_tol, levels):
    """The array stage of the cycle evaluator: every node quantity as an array.

    `nodes` is as in `_corner_summaries`; the heat-capacity crossings of all
    nodes are searched in lockstep.  Returns the corner table and ids, the
    columns q_ab .. efficiency by name in CycleReport order, and the mask of
    failed nodes: a column is not finite, as the work is nan where a corner
    fails, or |q_h| < _QH_ZERO with net work.
    """
    table, ids = _corner_summaries(base, nodes, rel_tol, levels)
    q_r, (ua, ub, uc, ud) = _regenerator_heats(table, ids)
    (sa, sb, sc, sd), capacities = (table[name][ids] for name in ("entropy", "heat_capacity"))
    q_ab, q_bc = base.t_hot * (sb - sa), uc - ub
    q_cd, q_da = base.t_cold * (sd - sc), ua - ud
    work = q_ab + q_bc + q_cd + q_da
    # q_ab + max(q_r, 0) wherever the capacities do not cross; H(0) = 0
    q_h = np.where(q_r > 0, q_ab + q_r, q_ab)
    gap_cold, gap_hot = capacities[3] - capacities[2], capacities[0] - capacities[1]
    crossing = np.flatnonzero(np.sign(gap_cold) * np.sign(gap_hot) < 0.0)  # a product may underflow
    h_cold, h_hot = (ud - uc)[crossing], (ua - ub)[crossing]
    h_star = _h_at_crossings(
        table, ids[0, crossing], ids[1, crossing],
        np.stack((np.full(crossing.size, base.t_cold), h_cold, gap_cold[crossing])),
        np.stack((np.full(crossing.size, base.t_hot), h_hot, gap_hot[crossing])),
    )
    q_h[crossing] = q_ab[crossing] + np.maximum(h_star - h_cold, 0.0)
    q_h[crossing] += np.maximum(h_hot - h_star, 0.0)
    zero = abs(q_h) < _QH_ZERO
    # distinguish a genuinely workless cycle from a pathological one; work
    # below rounding noise at the corner-energy scale counts as zero
    scale = np.maximum(abs(table["internal_energy"]), abs(base.t_hot * table["entropy"]))
    degenerate = zero & (abs(work) > 1e-12 * np.maximum(scale[ids].max(axis=0), 1.0))
    efficiency = np.divide(work, q_h, out=np.zeros_like(q_h), where=~zero)
    columns = dict(q_ab=q_ab, q_bc=q_bc, q_cd=q_cd, q_da=q_da, work=work, q_r=q_r, q_h=q_h,
                   efficiency=efficiency)
    # q_bc and q_da are nan where a corner fails, else differences of finite
    # positive energies, and an overflowing q_ab or q_cd leaves the work non-finite
    finite = np.isfinite(work) & np.isfinite(q_h) & np.isfinite(efficiency)
    return table, ids, columns, degenerate | ~finite


def _h_at_crossings(table, ad, bc, lo, hi):
    """Extremum of h = U_AD - U_BC where its slope C_AD - C_BC changes sign.

    The searches of all nodes step in lockstep, each step one `summarize_many`
    call on both isochore states of every active node: the table rows `ad`
    and `bc` of corners A and B, re-summed at the step's T with their well,
    mass and cut kept.  The neglected tail shrinks relative to the kept sums as
    T falls, so the hot corner's cut meets the corners' tolerance at every
    temperature in between.  A cut past the kernel's head is closed in form
    whether fixed or adaptive, so at the corners these sums equal the table's
    bit for bit.  `lo` and `hi` are (3, nodes) arrays of T, h and slope at the
    ends of brackets whose slopes have opposite signs.  A step evaluates h at
    the stationary point of the cubic Hermite interpolant and puts the new
    point in place of the end whose slope has its sign.  The rows, T and
    brackets are held for the live nodes only; the caller's `lo` and `hi`
    are not written.  h is stationary at the crossing, so its error
    is quadratic in that of T; a node stops at a slope of exactly 0, or once
    its next step would move T by less than _CROSSING_T_TOL relative.
    """
    h = np.zeros(ad.size)
    active, t = np.arange(ad.size), _stationary_point(lo, hi)
    for _ in range(_CROSSING_MAX_STEPS):
        if not active.size:
            break
        states = np.concatenate((ad, bc))
        s = summarize_many(*_moved(table, states, "temperature", np.tile(t, 2)), levels=table["n_cut"][states],
                           _trim=True)
        u, c = (np.split(s[name], 2) for name in ("internal_energy", "heat_capacity"))
        h[active] = h_t = u[0] - u[1]
        g = c[0] - c[1]
        point = np.stack((t, h_t, g))
        left = (g < 0.0) == (lo[2] < 0.0)
        lo, hi = np.where(left, point, lo), np.where(left, hi, point)
        t_next = _stationary_point(lo, hi)
        going = (g != 0.0) & (abs(t_next - t) > _CROSSING_T_TOL * t)
        active, ad, bc, t, lo, hi = active[going], ad[going], bc[going], t_next[going], lo[:, going], hi[:, going]
    return h


@np.errstate(divide="ignore", invalid="ignore")
def _stationary_point(lo, hi):
    """The T strictly inside each bracket where the Hermite cubic of h is flat.

    `lo` and `hi` are as in `_h_at_crossings`.  With s = (T - T_lo) / w the
    cubic's slope is the quadratic g0 + (g1 - g0) s + k s (1 - s); g0 and g1
    differ in sign, so it has exactly one root in (0, 1).
    """
    (t0, h0, g0), (t1, h1, g1) = lo, hi
    w = t1 - t0
    k = 6.0 * ((h1 - h0) / w - 0.5 * (g0 + g1))
    c1, c2 = g1 - g0 + k, -k
    disc = np.maximum(c1 * c1 - 4.0 * c2 * g0, 0.0)
    q = -0.5 * (c1 + np.copysign(np.sqrt(disc), c1))
    first, second = g0 / q, q / c2  # q / c2 is inf or nan where c2 == 0, never inside (0, 1)
    # rounding can push the root onto an end; false position stays inside
    s = np.where((0.0 < first) & (first < 1.0), first,
                 np.where((0.0 < second) & (second < 1.0), second, g0 / (g0 - g1)))
    return t0 + w * s


def carnot_efficiency(params: CycleParams) -> float:
    """Reversible upper reference 1 - t_cold/t_hot for the bath pair."""
    return 1.0 - params.t_cold / params.t_hot
