import math

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstirling import (
    CycleParams,
    DegenerateCycleError,
    FracStirlingError,
    REGIME_ENGINE,
    REGIME_NON_ENGINE,
    SweepAxis,
    ThermalState,
    WellSpec,
    carnot_efficiency,
    corners,
    evaluate,
    regenerator_heat,
    summarize,
    sweep,
)
from fracstirling import cycle as cycle_mod
from fracstirling.cycle import _CROSSING_MAX_STEPS, _CROSSING_T_TOL
from fracstirling.reference import BENCH_ROWS

BATHS = dict(t_hot=4.0, t_cold=3.0)

# Converged q_r at alpha_1 = alpha_2 = 2 for two benchmark width pairs,
# frozen from an mpmath evaluation over 2000 levels.
QR_06_09 = -0.12906468305
QR_10_13 = 0.00556547685


def independent_quadratic_cycle(la, lb, th, tc, mass=1.0, n_terms=3000):
    """Quadratic-dispersion Stirling cycle coded from scratch for alpha=2."""

    def ensemble(width, t):
        beta = 1.0 / t
        e1 = (math.pi / (2.0 * width)) ** 2 / (2.0 * mass)
        z = ue = 0.0
        for n in range(1, n_terms + 1):
            de = e1 * (n * n - 1)
            w = math.exp(-beta * de)
            z += w
            ue += w * de
        u = e1 + ue / z
        s = beta * (u - e1) + math.log(z)
        return u, s

    ua, sa = ensemble(la, th)
    ub, sb = ensemble(lb, th)
    uc, sc = ensemble(lb, tc)
    ud, sd = ensemble(la, tc)
    q_ab = th * (sb - sa)
    q_bc = uc - ub
    q_cd = tc * (sd - sc)
    q_da = ua - ud
    work = q_ab + q_bc + q_cd + q_da
    q_r = q_bc + q_da
    q_h = q_ab + q_r if q_r > 0 else q_ab
    return work, q_r, work / q_h


def dense_regenerator_deficit(params, levels=None, points=2001, n_terms=400):
    """Positive variation of U_AD - U_BC on a uniform temperature grid.

    Plain numpy level sums over `levels` (or `n_terms`) levels at every grid
    temperature; shares no code with fracstirling.thermo.  The grid misses
    at most |h''| dT^2 / 2 at each turning point of h.
    """
    temps = np.linspace(params.t_cold, params.t_hot, points)

    def energy(width, alpha):
        n = np.arange(1, (levels or n_terms) + 1, dtype=float)
        e = (0.5 / params.mass) ** (alpha / 2) * (np.pi / (2 * width)) ** alpha * n**alpha
        shifted = e - e[0]
        w = np.exp(-shifted[None, :] / temps[:, None])
        return e[0] + (w @ shifted) / w.sum(axis=1)

    h = energy(params.width_a, params.alpha_2) - energy(params.width_b, params.alpha_1)
    return float(np.sum(np.maximum(np.diff(h), 0.0)))


def scalar_stationary_point(lo, hi):
    """One Hermite step of the crossing search on one bracket, in Python floats.

    `lo` and `hi` are (T, h, slope) at the bracket ends; the root of the
    cubic's slope strictly inside, or the false-position point.
    """
    (t0, h0, g0), (t1, h1, g1) = lo, hi
    w = t1 - t0
    k = 6.0 * ((h1 - h0) / w - 0.5 * (g0 + g1))
    c1, c2 = g1 - g0 + k, -k
    disc = max(c1 * c1 - 4.0 * c2 * g0, 0.0)
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    roots = (g0 / q, q / c2) if c2 else (g0 / q,)
    s = next((r for r in roots if 0.0 < r < 1.0), g0 / (g0 - g1))
    return t0 + w * s


def scalar_crossing_search(state_at, lo, hi):
    """The crossing search of one node, with the steps and stopping rule of `cycle`'s.

    `state_at(T)` gives (h, slope) at T, `lo` and `hi` are (T, h, slope) at
    the bracket ends.  Returns h at the last step, the number of steps and
    the last slope.
    """
    t = scalar_stationary_point(lo, hi)
    for step in range(1, _CROSSING_MAX_STEPS + 1):
        h, g = state_at(t)
        if g == 0.0:
            break
        if (g < 0.0) == (lo[2] < 0.0):
            lo = (t, h, g)
        else:
            hi = (t, h, g)
        t_next = scalar_stationary_point(lo, hi)
        if abs(t_next - t) <= _CROSSING_T_TOL * t:
            break
        t = t_next
    return h, step, g


def scalar_h_at_crossing(ad, bc, lo, hi):
    """The crossing search one node at a time, on the one-state `summarize`.

    `ad` and `bc` are (well, level count) of the two isochores, `lo` and
    `hi` are (T, h, slope) at the bracket ends.
    """
    (well_ad, n_ad), (well_bc, n_bc) = ad, bc

    def state_at(t):
        s_ad = summarize(ThermalState(well_ad, t), levels=n_ad)
        s_bc = summarize(ThermalState(well_bc, t), levels=n_bc)
        return s_ad.internal_energy - s_bc.internal_energy, s_ad.heat_capacity - s_bc.heat_capacity

    return scalar_crossing_search(state_at, lo, hi)[0]


def reference_crossing_q_h(params, levels=None):
    """q_h by the scalar crossing search, or None where the capacities do not cross."""
    a, b, c, d = corners(params)
    sa, sb, sc, sd = (summarize(s, levels=levels) for s in (a, b, c, d))
    gap_cold = sd.heat_capacity - sc.heat_capacity
    gap_hot = sa.heat_capacity - sb.heat_capacity
    if not gap_cold * gap_hot < 0.0:
        return None
    h_cold = sd.internal_energy - sc.internal_energy
    h_hot = sa.internal_energy - sb.internal_energy
    h_star = scalar_h_at_crossing(
        (d.well, sa.n_cut), (c.well, sb.n_cut),
        (params.t_cold, h_cold, gap_cold), (params.t_hot, h_hot, gap_hot),
    )
    q_ab = params.t_hot * (sb.entropy - sa.entropy)
    return q_ab + max(h_star - h_cold, 0.0) + max(h_hot - h_star, 0.0)


def capacities_cross(params, levels=None):
    """Whether C_AD - C_BC has opposite signs at t_cold and t_hot."""
    sa, sb, sc, sd = (summarize(s, levels=levels) for s in corners(params))
    gap_cold = sd.heat_capacity - sc.heat_capacity
    gap_hot = sa.heat_capacity - sb.heat_capacity
    return gap_cold * gap_hot < 0


class TestCorners:
    def test_direct_mapping(self):
        params = CycleParams(1.0, 1.5, alpha_1=1.6, alpha_2=1.9, **BATHS)
        a, b, c, d = corners(params)
        assert (a.well.width, a.well.alpha, a.temperature) == (1.0, 1.9, 4.0)
        assert (b.well.width, b.well.alpha, b.temperature) == (1.5, 1.6, 4.0)
        assert c.well == b.well and c.temperature == 3.0
        assert d.well == a.well and d.temperature == 3.0

    def test_isochores_share_wells(self):
        params = CycleParams(0.8, 1.2, alpha_1=1.4, alpha_2=1.7, **BATHS)
        a, b, c, d = corners(params)
        assert b.well is c.well or b.well == c.well
        assert a.well == d.well

    def test_degenerate_params_collapse(self):
        params = CycleParams(1.0, 1.0, alpha_1=1.5, alpha_2=1.5, **BATHS)
        a, b, c, d = corners(params)
        assert a == b and c == d

    def test_cycle_closes(self):
        # traversing all four corners returns to the starting equilibrium
        params = CycleParams(0.9, 1.3, alpha_1=1.2, alpha_2=1.8, **BATHS)
        a, b, c, d = corners(params)
        assert d.well == a.well
        assert a.temperature == b.temperature
        assert c.temperature == d.temperature


class TestEvaluate:
    def test_benchmark_quadratic_values(self):
        r = evaluate(CycleParams(0.6, 0.9, 2.0, 2.0, **BATHS))
        assert r.q_r == pytest.approx(QR_06_09, rel=1e-9)
        assert abs(r.q_r - (-0.1291)) < 5e-4
        r = evaluate(CycleParams(1.0, 1.3, 2.0, 2.0, **BATHS))
        assert r.q_r == pytest.approx(QR_10_13, rel=1e-8)

    def test_locus_pair_with_ten_levels(self):
        # the bundled benchmark pairs lie on the ten-level locus
        r = evaluate(CycleParams(1.0, 1.4, 1.502, 1.579, **BATHS), levels=10)
        assert abs(r.q_r) < 5e-3
        assert r.efficiency == pytest.approx(0.25, abs=1e-2)

    def test_pair_off_its_widths_is_not_a_root(self):
        # negative control: the (1.0, 1.3) pair moved to widths (1.0, 1.5)
        r = evaluate(CycleParams(1.0, 1.5, 1.439, 1.520, **BATHS), levels=10)
        assert abs(r.q_r) > 1e-2

    def test_first_law_closure_is_exact(self):
        r = evaluate(CycleParams(0.7, 1.1, 1.3, 1.9, **BATHS))
        assert r.work == r.q_ab + r.q_bc + r.q_cd + r.q_da
        assert r.q_r == r.q_bc + r.q_da

    def test_heaviside_gate(self):
        neg = evaluate(CycleParams(0.6, 0.9, 2.0, 2.0, **BATHS))
        assert neg.q_r < 0 and neg.q_h == neg.q_ab
        pos = evaluate(CycleParams(1.0, 1.3, 2.0, 2.0, **BATHS))
        assert pos.q_r > 0 and pos.q_h == pos.q_ab + pos.q_r

    def test_degenerate_cycle_is_all_zero(self):
        r = evaluate(CycleParams(1.0, 1.0, 1.8, 1.8, **BATHS))
        assert r.q_ab == 0.0 and r.q_cd == 0.0
        assert r.q_bc == -r.q_da
        assert r.work == 0.0 and r.q_r == 0.0
        assert r.efficiency == 0.0
        assert r.regime == REGIME_NON_ENGINE

    def test_isothermal_branch_identity(self):
        # along an isotherm T dS = dU - dF, so q_ab = (U_B-U_A) - (F_B-F_A)
        from fracstirling import summarize

        params = CycleParams(0.8, 1.4, 1.5, 1.8, **BATHS)
        a, b, c, d = corners(params)
        r = evaluate(params)
        sa, sb, sc, sd = (summarize(s) for s in (a, b, c, d))
        hot = (sb.internal_energy - sa.internal_energy) - (
            sb.free_energy - sa.free_energy
        )
        cold = (sd.internal_energy - sc.internal_energy) - (
            sd.free_energy - sc.free_energy
        )
        assert r.q_ab == pytest.approx(hot, rel=1e-9)
        assert r.q_cd == pytest.approx(cold, rel=1e-9)

    def test_swap_antisymmetry(self):
        params = CycleParams(0.9, 1.3, 1.35, 1.75, **BATHS)
        swapped = CycleParams(1.3, 0.9, 1.75, 1.35, **BATHS)
        assert evaluate(params).q_bc == -evaluate(swapped).q_da

    def test_engine_regime_and_quadratic_oracle(self):
        params = CycleParams(1.0, 3.0, 2.0, 2.0, **BATHS)
        r = evaluate(params)
        assert r.regime == REGIME_ENGINE and r.work > 0
        work0, qr0, eta0 = independent_quadratic_cycle(1.0, 3.0, 4.0, 3.0)
        assert r.work == pytest.approx(work0, rel=1e-10)
        assert r.q_r == pytest.approx(qr0, rel=1e-8)
        assert r.efficiency == pytest.approx(eta0, rel=1e-10)

    def test_reverse_cycle_is_not_an_engine(self):
        r = evaluate(CycleParams(1.3, 0.9, 2.0, 2.0, **BATHS))
        assert r.work < 0
        assert r.regime == REGIME_NON_ENGINE

    def test_corner_fields_populated(self):
        r = evaluate(CycleParams(0.8, 1.2, 1.5, 1.9, **BATHS))
        assert len(r.corner_entropies) == 4
        assert len(r.corner_energies) == 4
        assert all(s >= 0 for s in r.corner_entropies)

    def test_efficiency_near_locus_slightly_exceeds_carnot(self):
        # With q_r = 0 the regenerator's net heat vanishes but its exchange
        # profile over temperature does not: the isochore heat capacities
        # cross inside [tc, th].  The net-only ratio work / (q_ab +
        # max(q_r, 0)) books no cost for that mismatch and lands a few 1e-5
        # above 1 - tc/th right on the locus.  q_h charges the hot bath for
        # the deficit temperature by temperature, which brings the reported
        # efficiency back just below carnot.
        r = evaluate(CycleParams(1.0, 1.4, 1.565636, 1.579, **BATHS))
        assert abs(r.q_r) < 1e-6
        net_only = r.work / (r.q_ab + max(r.q_r, 0.0))
        assert 0.0 < net_only - r.carnot < 1e-3
        assert r.q_h - r.q_ab - max(r.q_r, 0.0) > 0.0
        assert r.carnot - 1e-3 < r.efficiency <= r.carnot + 1e-9

    def test_carnot_bound_away_from_locus(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            params = CycleParams(
                width_a=float(rng.uniform(0.5, 1.5)),
                width_b=float(rng.uniform(0.5, 2.0)),
                alpha_1=float(rng.uniform(1.05, 2.0)),
                alpha_2=float(rng.uniform(1.05, 2.0)),
                **BATHS,
            )
            r = evaluate(params)
            if r.regime == REGIME_ENGINE and abs(r.q_r) > 1e-2:
                assert r.efficiency <= r.carnot + 1e-9


class TestRegeneratorDeficit:
    # (params, levels).  At the CROSSING nodes the isochore heat capacities
    # cross, and h = U_AD - U_BC has a minimum, a minimum and a maximum
    # inside [tc, th].
    CROSSING = [
        (CycleParams(1.0, 1.4, 1.565636, 1.579, **BATHS), None),
        (CycleParams(1.0, 1.4, 1.502, 1.579, **BATHS), 10),
        (CycleParams(1.0, 0.9, 2.0, 2.0, **BATHS), None),
    ]
    NON_CROSSING = [
        (CycleParams(0.6, 0.9, 2.0, 2.0, **BATHS), None),
        (CycleParams(1.0, 1.3, 2.0, 2.0, **BATHS), None),
        (CycleParams(0.7, 1.1, 1.3, 1.9, **BATHS), None),
        (CycleParams(1.0, 3.0, 2.0, 2.0, **BATHS), 10),
    ]

    @pytest.mark.parametrize("params, levels", CROSSING + NON_CROSSING)
    def test_q_h_matches_dense_temperature_scan(self, params, levels):
        r = evaluate(params, levels=levels)
        dense = r.q_ab + dense_regenerator_deficit(params, levels)
        assert r.q_h == pytest.approx(dense, rel=1e-8)

    @pytest.mark.parametrize("params, levels", CROSSING)
    def test_crossing_charges_more_than_the_net_deficit(self, params, levels):
        assert capacities_cross(params, levels)
        r = evaluate(params, levels=levels)
        assert r.q_h - r.q_ab > max(r.q_r, 0.0)

    @pytest.mark.parametrize("params, levels", NON_CROSSING)
    def test_net_deficit_exact_without_crossing(self, params, levels):
        assert not capacities_cross(params, levels)
        r = evaluate(params, levels=levels)
        assert r.q_h == r.q_ab + max(r.q_r, 0.0)

    @pytest.mark.parametrize("params, levels", CROSSING + NON_CROSSING)
    def test_regenerator_heat_is_the_report_q_r(self, params, levels):
        assert regenerator_heat(params, levels=levels) == evaluate(params, levels=levels).q_r

    @pytest.mark.parametrize("params, levels", CROSSING)
    def test_lockstep_search_equals_the_scalar_search(self, params, levels):
        want = reference_crossing_q_h(params, levels)
        assert evaluate(params, levels=levels).q_h.hex() == want.hex()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        row=st.sampled_from(BENCH_ROWS),
        levels=st.sampled_from([None, 10]),
        offsets=st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
        spread=st.floats(0.001, 0.05),
    )
    def test_sweep_crossings_equal_the_scalar_search(self, row, levels, offsets, spread):
        # a 3 x 3 exponent grid around a Table-1 pair, where most nodes cross:
        # their searches run in lockstep and stop after different step counts;
        # every pair lies in [1.2, 1.8], so the grid stays inside (1, 2]
        base = row.pair_params()
        a1, a2 = row.alpha_1 + offsets[0], row.alpha_2 + offsets[1]
        ax = SweepAxis("alpha_1", a1, a1 + 2.0 * spread, 3)
        ay = SweepAxis("alpha_2", a2, a2 + 2.0 * spread, 3)
        grid = sweep(base, ax, ay, levels=levels)
        for i, x in enumerate(ax.values()):
            for j, y in enumerate(ay.values()):
                want = reference_crossing_q_h(replace(base, alpha_1=x, alpha_2=y), levels)
                if want is not None:
                    assert grid.reports[i][j].q_h.hex() == want.hex(), (x, y)


def fake_corner_table(width, alpha, mass, temperature, rel_tol=1e-12, levels=None, _trim=False):
    """Crafted corner ensembles: q_ab = 0 yet the cycle nets work."""
    hot, wide = np.asarray(temperature) == 4.0, np.asarray(width) > 1.0
    u = np.select([hot & ~wide, hot & wide, ~hot & wide], [4.0, 5.0, 2.0], 3.0)
    s = np.select([hot & ~wide, hot & wide, ~hot & wide], [1.0, 1.0, 0.5], 2.0)
    zero = np.zeros_like(u)
    return {
        "n_cut": np.ones(u.size, dtype=np.int64),
        "partition_function": zero + 1.0,
        "internal_energy": u, "entropy": s, "free_energy": u - temperature * s,
        "tail_bound": zero, "heat_capacity": zero,
    }


class TestDegenerateError:
    def test_zero_hot_heat_with_net_work(self, monkeypatch):
        monkeypatch.setattr(cycle_mod, "summarize_many", fake_corner_table)
        with pytest.raises(DegenerateCycleError):
            cycle_mod.evaluate(CycleParams(0.8, 1.2, 1.5, 1.5, **BATHS))


def closed_form_isochores(width, alpha, mass, temperature, rel_tol=1e-12, levels=None):
    """Crafted isochore states whose U(T) and C(T) = dU/dT are polynomials in T.

    alpha 1 marks a state with U = C = 0, alpha 2 one with U = (T - w)^2,
    alpha 1.5 one with U = T^6 / 6 - w T and alpha 1.2 one with C = (T - 2.9)
    (T - w), w being the width.  Only + - * / on each element, so every value
    is the same whatever the call holds.
    """
    w, a, t = (np.asarray(v, dtype=float) for v in (width, alpha, temperature))
    t5 = t * t * t * t * t
    kinds = [a == 2.0, a == 1.5, a == 1.2]
    u = np.select(kinds, [(t - w) * (t - w), t5 * t / 6.0 - w * t,
                          t * t * t / 3.0 - (2.9 + w) * t * t / 2.0 + 2.9 * w * t], 0.0)
    c = np.select(kinds, [2.0 * (t - w), t5 - w, (t - 2.9) * (t - w)], 0.0)
    return {"internal_energy": u, "heat_capacity": c}


class TestCrossingSearch:
    # row 0 is the zero state every node's BC isochore shares; the AD
    # isochores' h' changes sign in [3, 4] at 3.5 (row 1), at w^(1/5) (rows
    # 2 to 5) and at 3.6 (row 6), where the Hermite slope's root inside is
    # the quadratic's second root
    WIDTHS = [0.0, 3.5, 250.0, 400.0, 650.0, 1000.0, 3.6]
    ALPHAS = [1.0, 2.0, 1.5, 1.5, 1.5, 1.5, 1.2]

    def test_lockstep_search_equals_the_scalar_loop(self, monkeypatch):
        table = {"width": np.array(self.WIDTHS), "alpha": np.array(self.ALPHAS), "mass": np.ones(7),
                 "n_cut": np.ones(7)}
        ad, bc = np.arange(1, 7), np.zeros(6, dtype=int)

        def state_at(node, t):
            s = closed_form_isochores([self.WIDTHS[node], 0.0], [self.ALPHAS[node], 1.0], [1.0, 1.0], [t, t])
            u, c = s["internal_energy"].tolist(), s["heat_capacity"].tolist()
            return u[0] - u[1], c[0] - c[1]

        lo = np.array([(3.0, *state_at(node, 3.0)) for node in ad.tolist()]).T
        hi = np.array([(4.0, *state_at(node, 4.0)) for node in ad.tolist()]).T
        want = [
            scalar_crossing_search(lambda t: state_at(node, t), tuple(lo[:, k]), tuple(hi[:, k]))
            for k, node in enumerate(ad.tolist())
        ]
        active = []
        monkeypatch.setattr(
            cycle_mod, "summarize_many",
            lambda width, *args, **kwargs: active.append(len(width) // 2) or closed_form_isochores(width, *args),
        )
        got = cycle_mod._h_at_crossings(table, ad, bc, lo, hi)
        assert [v.hex() for v in got.tolist()] == [h.hex() for h, _, _ in want]
        # one call per step, on the nodes whose scalar search had not stopped
        steps = [n for _, n, _ in want]
        assert active == [sum(n > i for n in steps) for i in range(max(steps))]
        # the quadratic node stops at an exact zero slope after one step while
        # the others step on, and they stop after different step counts
        assert want[0][1:] == (1, 0.0) and all(g != 0.0 for _, _, g in want[1:])
        assert len(set(steps[1:])) > 1


    def test_capacities_whose_gaps_multiply_to_zero_are_searched(self, monkeypatch):
        # heat capacity gaps of -1e-200 at t_hot and 1e-200 at t_cold: their
        # product underflows to -0.0, which is not below 0, their signs cross
        def tiny_gaps(width, alpha, mass, temperature, rel_tol=1e-12, levels=None, _trim=False):
            hot, wide = np.asarray(temperature) == 4.0, np.asarray(width) > 1.0
            ones = np.ones(hot.size)
            return {"n_cut": ones, "internal_energy": ones, "entropy": ones,
                    "heat_capacity": np.where(hot == wide, 2e-200, 1e-200)}

        searched = []
        monkeypatch.setattr(cycle_mod, "summarize_many", tiny_gaps)
        monkeypatch.setattr(cycle_mod, "_h_at_crossings",
                            lambda table, ad, bc, lo, hi: searched.append(lo[2].tolist()) or np.zeros(ad.size))
        cycle_mod._node_arrays(CycleParams(0.8, 1.2, 1.5, 1.5, **BATHS), {}, 1e-12, None)
        assert searched == [[1e-200]]


class TestCarnot:
    def test_reference_baths(self):
        assert carnot_efficiency(CycleParams(1.0, 1.5, 1.5, 1.6, 4.0, 3.0)) == 0.25

    def test_half(self):
        assert carnot_efficiency(CycleParams(1.0, 1.5, 1.5, 1.6, 2.0, 1.0)) == 0.5

    def test_small_gap_limit(self):
        eta = carnot_efficiency(CycleParams(1.0, 1.5, 1.5, 1.6, 3.0 + 1e-9, 3.0))
        assert 0.0 < eta < 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP open item 1: C_AD - C_BC changes sign twice inside [tc, th] "
        "here, and the crossing search, which sees only the signs at tc and th, "
        "books no deficit between the two crossings",
    )
    def test_engine_below_carnot_with_two_crossings(self):
        report = evaluate(CycleParams(1.4, 1.7, 1.9668174427971263, 2.0, **BATHS))
        assert report.regime == REGIME_ENGINE
        assert report.efficiency <= report.carnot


def width_at(e1, alpha):
    """The width whose ground level E_1 is e1 at unit mass, in log space."""
    return 0.5 * math.pi * math.exp(-(math.log(e1) + 0.5 * alpha * math.log(2.0)) / alpha)


# finite corners, yet t_hot (S_B - S_A) overflows
OVERFLOWING_HEAT = CycleParams(5.396213407367219e-163, 6.249555681888716e-206, 1.4909226804659963,
                               1.8969205580688384, 6.133004409319363e307, 9.949864204156054e306)


class TestFloatRange:
    def test_extreme_baths_give_a_finite_report_or_an_error(self):
        # baths and ground levels near the float maximum: every cycle ends in
        # a report of finite numbers or a FracStirlingError, and numpy warns
        # nothing (the suite turns warnings into errors)
        rng = np.random.default_rng(53)
        outcomes = {"finite": 0, "corner": 0, "cycle": 0}
        for _ in range(300):
            alpha_1, alpha_2, high, low, spread_a, spread_b = rng.uniform(0.0, 1.0, 6).tolist()
            t_hot = 10.0 ** (306.0 + 2.25 * high)
            widths = (width_at(min(t_hot * 10.0 ** (4.0 * spread - 3.0), 1.7e308), 1.01 + 0.99 * a)
                      for spread, a in ((spread_a, alpha_2), (spread_b, alpha_1)))
            params = CycleParams(*widths, 1.01 + 0.99 * alpha_1, 1.01 + 0.99 * alpha_2,
                                 t_hot, t_hot * 10.0 ** -(0.01 + low))
            try:
                report = evaluate(params)
            except FracStirlingError as err:
                outcomes["corner" if "energy levels" in str(err) else "cycle"] += 1
                continue
            assert all(map(math.isfinite, astuple(report)[:9])), params
            outcomes["finite"] += 1
        assert outcomes["finite"] > 100 and outcomes["corner"] > 30, outcomes

    def test_an_overflowing_heat_fails_the_node(self):
        with pytest.raises(FracStirlingError, match=r"leave the float range \(q_ab=inf, ") as err:
            evaluate(OVERFLOWING_HEAT)
        assert type(err.value) is FracStirlingError
        # a sweep words the node as `evaluate` does
        ax = SweepAxis("width_a", OVERFLOWING_HEAT.width_a, OVERFLOWING_HEAT.width_a * 1.000001, 2)
        ay = SweepAxis("alpha_2", OVERFLOWING_HEAT.alpha_2, OVERFLOWING_HEAT.alpha_2 + 1e-9, 2)
        grid = sweep(OVERFLOWING_HEAT, ax, ay)
        assert grid.errors[0, 0] == str(err.value)
        for (i, j), message in grid.errors.items():
            with pytest.raises(FracStirlingError) as node:
                evaluate(replace(OVERFLOWING_HEAT, width_a=ax.values()[i], alpha_2=ay.values()[j]))
            assert message == str(node.value)

    def test_a_free_energy_past_the_float_range_fails_the_state(self):
        # T ln Z_s overflows though E_1 is finite, so the sums are worded
        with pytest.raises(FracStirlingError, match=r"^level sums of WellSpec\(.*\) leave the float range$"):
            summarize(ThermalState(WellSpec(1.2167709697834425e-304, 1.01), 1e308))


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(width_a=1.0, width_b=1.5, alpha_1=1.5, alpha_2=1.6, t_hot=3.0, t_cold=3.0),
            dict(width_a=1.0, width_b=1.5, alpha_1=1.5, alpha_2=1.6, t_hot=2.0, t_cold=3.0),
            dict(width_a=1.0, width_b=1.5, alpha_1=1.5, alpha_2=1.6, t_hot=4.0, t_cold=0.0),
            dict(width_a=0.0, width_b=1.5, alpha_1=1.5, alpha_2=1.6, **BATHS),
            dict(width_a=1.0, width_b=-1.0, alpha_1=1.5, alpha_2=1.6, **BATHS),
            dict(width_a=1.0, width_b=1.5, alpha_1=1.0, alpha_2=1.6, **BATHS),
            dict(width_a=1.0, width_b=1.5, alpha_1=1.5, alpha_2=2.3, **BATHS),
            dict(width_a=1.0, width_b=1.5, alpha_1=1.5, alpha_2=1.6, mass=0.0, **BATHS),
            dict(width_a=math.inf, width_b=1.5, alpha_1=1.5, alpha_2=1.6, **BATHS),
            dict(width_a=1.0, width_b=1.5, alpha_1=1.5, alpha_2=1.6, t_hot=math.inf, t_cold=3.0),
            dict(width_a=1.0, width_b=1.5, alpha_1=1.5, alpha_2=1.6, mass=math.inf, **BATHS),
            dict(width_a=1.0, width_b=1.5, alpha_1=1.5, alpha_2=1.6, t_hot=4.0, t_cold=5e-324),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CycleParams(**kwargs)
