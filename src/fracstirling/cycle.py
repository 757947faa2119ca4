"""Four-corner Stirling cycle built from equilibrium states.

The cycle runs A -> B -> C -> D -> A: two isothermal branches (A-B at the
hot bath, C-D at the cold bath) along which the well width and the kinetic
exponent vary, and two isochoric branches (B-C, D-A) with frozen spectrum
exchanging heat with a regenerator.  Stage heats are state-function
differences of the corner equilibria; no path integration is involved.  The
hot-bath charge for the regenerator also needs the two isochore states at
the one temperature, if any, where their heat capacities cross.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import _INF, WellSpec
from .thermo import DEFAULT_REL_TOL, FracStirlingError, ThermalState, summarize

REGIME_ENGINE = "engine"
REGIME_NON_ENGINE = "non_engine"

_QH_ZERO = 1e-15

# The heat-capacity crossing counts as found once the next step would move
# T by less than this relative amount; the step cap only guards against
# rounding.
_CROSSING_T_TOL = 1e-5
_CROSSING_MAX_STEPS = 100


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
        if not _INF > self.t_hot > self.t_cold > 0.0:
            raise ValueError(
                f"need finite t_hot > t_cold > 0, got t_hot={self.t_hot}, "
                f"t_cold={self.t_cold}"
            )
        for name in ("width_a", "width_b", "mass"):
            if not 0.0 < getattr(self, name) < _INF:
                raise ValueError(
                    f"{name} must be positive and finite, got {getattr(self, name)}"
                )
        for name in ("alpha_1", "alpha_2"):
            if not 1.0 < getattr(self, name) <= 2.0:
                raise ValueError(
                    f"{name} must lie in (1, 2], got {getattr(self, name)}"
                )


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
    "engine" (net work output); there it never exceeds `carnot`.
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
    well_ad = WellSpec(params.width_a, params.alpha_2, params.mass)
    well_bc = WellSpec(params.width_b, params.alpha_1, params.mass)
    return (
        ThermalState(well_ad, params.t_hot),
        ThermalState(well_bc, params.t_hot),
        ThermalState(well_bc, params.t_cold),
        ThermalState(well_ad, params.t_cold),
    )


def regenerator_heat(
    params: CycleParams,
    rel_tol: float = DEFAULT_REL_TOL,
    levels: int | None = None,
) -> float:
    """Net regenerator heat q_r = q_bc + q_da from the four corner energies.

    Equal bit for bit to `evaluate(params, rel_tol, levels).q_r` but skips
    the rest of the report, notably the heat-capacity crossing solve behind
    q_h; the q_r = 0 root finders need nothing else.
    """
    ua, ub, uc, ud = (
        summarize(s, rel_tol, levels).internal_energy for s in corners(params)
    )
    return (uc - ub) + (ua - ud)


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
    the engine efficiency cannot exceed carnot.  A crossing of the two heat
    capacities is detected from their signs at the corner temperatures and
    assumed to be single: two crossings inside the interval would go
    unseen.
    """
    a, b, c, d = corners(params)
    sa, sb, sc, sd = (summarize(s, rel_tol, levels) for s in (a, b, c, d))
    energies = tuple(s.internal_energy for s in (sa, sb, sc, sd))
    entropies = tuple(s.entropy for s in (sa, sb, sc, sd))
    q_ab, q_bc, q_cd, q_da, work, q_r, q_h = _stage_heats(
        params.t_hot, params.t_cold, energies, entropies
    )
    gap_cold = sd.heat_capacity - sc.heat_capacity
    gap_hot = sa.heat_capacity - sb.heat_capacity
    if gap_cold * gap_hot < 0.0:
        h_cold = sd.internal_energy - sc.internal_energy
        h_hot = sa.internal_energy - sb.internal_energy
        h_star = _h_at_crossing(
            (d.well, sa.n_cut), (c.well, sb.n_cut),
            (params.t_cold, h_cold, gap_cold), (params.t_hot, h_hot, gap_hot),
        )
        q_h = q_ab + max(h_star - h_cold, 0.0) + max(h_hot - h_star, 0.0)
    else:
        q_h = float(q_h)  # q_ab + max(q_r, 0)

    if abs(q_h) < _QH_ZERO:
        # distinguish a genuinely workless cycle from a pathological one;
        # work below rounding noise at the corner-energy scale counts as zero
        scale = max(
            abs(v) for s in (sa, sb, sc, sd)
            for v in (s.internal_energy, params.t_hot * s.entropy)
        )
        if abs(work) > 1e-12 * max(scale, 1.0):
            raise DegenerateCycleError(
                f"hot-bath heat vanishes (q_h={q_h}) while work={work}; "
                f"efficiency is undefined for {params}"
            )
        effic = 0.0
    else:
        effic = work / q_h

    return CycleReport(
        q_ab=q_ab,
        q_bc=q_bc,
        q_cd=q_cd,
        q_da=q_da,
        work=work,
        q_r=q_r,
        q_h=q_h,
        efficiency=effic,
        carnot=carnot_efficiency(params),
        regime=REGIME_ENGINE if work > 0 else REGIME_NON_ENGINE,
        corner_entropies=entropies,
        corner_energies=energies,
    )


def _stage_heats(t_hot, t_cold, energies, entropies):
    """q_ab, q_bc, q_cd, q_da, work, q_r and q_h from the corner states.

    `energies` and `entropies` hold U and S at corners A, B, C, D.  q_h is
    q_ab + max(q_r, 0), the hot-bath heat wherever the isochore heat
    capacities do not cross.  Floats or arrays of nodes alike, in one
    operation order, so a sweep and `evaluate` agree bit for bit; q_h is
    an array either way.
    """
    ua, ub, uc, ud = energies
    sa, sb, sc, sd = entropies
    q_ab = t_hot * (sb - sa)
    q_bc = uc - ub
    q_cd = t_cold * (sd - sc)
    q_da = ua - ud
    work = q_ab + q_bc + q_cd + q_da
    q_r = q_bc + q_da
    q_h = np.where(q_r > 0, q_ab + q_r, q_ab)  # Heaviside gate with H(0) = 0
    return q_ab, q_bc, q_cd, q_da, work, q_r, q_h


def _h_at_crossing(ad, bc, lo, hi) -> float:
    """Extremum of h = U_AD - U_BC where its slope C_AD - C_BC changes sign.

    `ad` and `bc` are (well, level count) of the two isochores.  Each count
    is the cut of the well's hot corner: the neglected tail shrinks relative
    to the kept sums as T falls, so that cut meets the corners' tolerance
    at every temperature of the bracket, and with fixed `levels` it is
    those levels.  `lo` and `hi` are (T, h, slope) at the ends of a bracket
    whose slopes have opposite signs.  Each step evaluates h at the
    stationary point of the cubic Hermite interpolant and keeps the end
    that preserves the sign change.  h is stationary at the crossing, so
    its error is quadratic in that of T; the search stops once the next
    step would move T by less than _CROSSING_T_TOL relative.
    """
    (well_ad, n_ad), (well_bc, n_bc) = ad, bc
    t = _stationary_point(lo, hi)
    for _ in range(_CROSSING_MAX_STEPS):
        s_ad = summarize(ThermalState(well_ad, t), levels=n_ad)
        s_bc = summarize(ThermalState(well_bc, t), levels=n_bc)
        g = s_ad.heat_capacity - s_bc.heat_capacity
        h = s_ad.internal_energy - s_bc.internal_energy
        if g == 0.0:
            break
        if (g < 0.0) == (lo[2] < 0.0):
            lo = (t, h, g)
        else:
            hi = (t, h, g)
        t_next = _stationary_point(lo, hi)
        if abs(t_next - t) <= _CROSSING_T_TOL * t:
            break
        t = t_next
    return h


def _stationary_point(lo, hi) -> float:
    """The T strictly inside a bracket where the Hermite cubic of h is flat.

    With s = (T - T_lo) / w the cubic's slope is the quadratic
    g0 + (g1 - g0) s + k s (1 - s); g0 and g1 differ in sign, so it has
    exactly one root in (0, 1).
    """
    (t0, h0, g0), (t1, h1, g1) = lo, hi
    w = t1 - t0
    k = 6.0 * ((h1 - h0) / w - 0.5 * (g0 + g1))
    c1, c2 = g1 - g0 + k, -k
    disc = max(c1 * c1 - 4.0 * c2 * g0, 0.0)
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    roots = (g0 / q, q / c2) if c2 else (g0 / q,)
    # rounding can push the root onto an end; false position stays inside
    s = next((r for r in roots if 0.0 < r < 1.0), g0 / (g0 - g1))
    return t0 + w * s


def carnot_efficiency(params: CycleParams) -> float:
    """Reversible upper reference 1 - t_cold/t_hot for the bath pair."""
    return 1.0 - params.t_cold / params.t_hot
