"""Acceptance gate: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -rA` to see every verdict.
Criteria 2-4 evaluate the cycle with the ten-level working substance the
bundled benchmark table assumes; criteria 1, 5 and 6 use the adaptive
converged ensemble.
"""

import math
import time

import numpy as np
import pytest

from fracstirling import (
    CycleParams,
    REGIME_ENGINE,
    SweepAxis,
    ThermalState,
    WellSpec,
    evaluate,
    occupations,
    summarize,
    sweep,
    trace_curve,
)
from fracstirling.reference import (
    BENCH_LEVELS,
    BENCH_ROWS,
    QR_PAIR_TOL,
    QR_QUADRATIC_TOL,
)

BATHS = dict(t_hot=4.0, t_cold=3.0)
CARNOT = 0.25


def _verdict(criterion: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_quadratic_regenerator_heats():
    # ten width pairs at alpha_1 = alpha_2 = 2: q_r within 5e-4 absolute
    start = time.perf_counter()
    worst = 0.0
    for row in BENCH_ROWS:
        got = evaluate(row.quadratic_params()).q_r
        worst = max(worst, abs(got - row.qr_quadratic))
    elapsed = time.perf_counter() - start
    ok = worst <= QR_QUADRATIC_TOL
    line = _verdict(
        "1 (quadratic q_r table)", ok,
        f"max |deviation| = {worst:.2e} (tol {QR_QUADRATIC_TOL:.0e}), "
        f"runtime {elapsed:.3f} s",
    )
    assert ok, line


def test_criterion_2_regeneration_pairs():
    # tabulated (alpha_1, alpha_2) pairs: |q_r| <= 5e-3 and eta = 0.25 +- 1e-2
    worst_qr, worst_eta = 0.0, 0.0
    for row in BENCH_ROWS:
        report = evaluate(row.pair_params(), levels=BENCH_LEVELS)
        worst_qr = max(worst_qr, abs(report.q_r))
        worst_eta = max(worst_eta, abs(report.efficiency - CARNOT))
    ok = worst_qr <= QR_PAIR_TOL and worst_eta <= 1e-2
    line = _verdict(
        "2 (regeneration pairs)", ok,
        f"max |q_r| = {worst_qr:.2e} (tol {QR_PAIR_TOL:.0e}), "
        f"max |eta - 0.25| = {worst_eta:.2e} (tol 1e-2)",
    )
    assert ok, line


def test_criterion_3_locus_curves():
    # traced curves through the three largest width pairs: monotone, passing
    # within 5e-3 in alpha_1 of the tabulated pair, every point re-certified
    targets = {(1.0, 1.4): 1.482, (1.2, 1.6): 1.545, (1.4, 1.8): 1.640}
    failures = []
    for row in BENCH_ROWS:
        key = (row.width_a, row.width_b)
        if key not in targets:
            continue
        base = CycleParams(row.width_a, row.width_b, 1.5, row.alpha_2, **BATHS)
        grid = [row.alpha_2 + 0.15 * i / 5 for i in range(6)]
        points = trace_curve(
            base, "alpha_2", "alpha_1", grid, (targets[key], 2.0),
            tol=1e-8, levels=BENCH_LEVELS,
        ).points
        if any(p is None for p in points):
            failures.append(f"{key}: gap in curve")
            continue
        alphas = [p.params.alpha_1 for p in points]
        if not all(b > a for a, b in zip(alphas, alphas[1:])):
            failures.append(f"{key}: curve not monotone")
        if abs(alphas[0] - row.alpha_1) > 5e-3:
            failures.append(
                f"{key}: alpha_1 = {alphas[0]:.5f} vs table {row.alpha_1}"
            )
        recheck = max(abs(evaluate(p.params, levels=BENCH_LEVELS).q_r) for p in points)
        if recheck > 1e-8:
            failures.append(f"{key}: re-evaluated |q_r| = {recheck:.2e}")
    ok = not failures
    line = _verdict(
        "3 (locus curve membership)", ok,
        "all three curves monotone, through the tabulated pairs, "
        "|q_r| <= 1e-8 on re-evaluation" if ok else "; ".join(failures),
    )
    assert ok, line


def test_criterion_4_efficiency_shape_in_alpha():
    # equal-exponent sweep eta(alpha): monotone for wide A-wells, interior
    # maximum beating the alpha = 2 endpoint for narrow A-wells
    alphas = [1.01 + (2.0 - 1.01) * i / 49 for i in range(50)]

    def eta_curve(la, lb):
        return [
            evaluate(
                CycleParams(la, lb, a, a, **BATHS), levels=BENCH_LEVELS
            ).efficiency
            for a in alphas
        ]

    wide = eta_curve(1.0, 3.0)
    wide_monotone = all(b > a for a, b in zip(wide, wide[1:]))
    wide_max_at_end = max(wide) == wide[-1]

    narrow = eta_curve(0.5, 2.0)
    narrow_interior = max(narrow) > narrow[-1]
    narrow_monotone = all(b > a for a, b in zip(narrow, narrow[1:]))

    ok = wide_monotone and wide_max_at_end and narrow_interior and not narrow_monotone
    line = _verdict(
        "4 (efficiency shape vs alpha)", ok,
        f"L_A=1,L_B=3 monotone increasing: {wide_monotone}, max at alpha=2: "
        f"{wide_max_at_end}; L_A=0.5,L_B=2 interior max exceeds endpoint: "
        f"{narrow_interior} (peak {max(narrow):.5f} vs end {narrow[-1]:.5f})",
    )
    assert ok, line


def test_criterion_5_perfect_regeneration_carnot():
    # 50 x 50 sweeps of the three contour configurations: nodes on the locus
    # must sit at carnot, engine nodes must not exceed it
    grids = {
        "widths at alpha=2": (
            CycleParams(1.0, 1.0, 2.0, 2.0, **BATHS),
            SweepAxis("width_a", 0.5, 1.5, 50),
            SweepAxis("width_b", 0.5, 2.0, 50),
        ),
        "alphas at L=1": (
            CycleParams(1.0, 1.0, 1.5, 1.5, **BATHS),
            SweepAxis("alpha_1", 1.01, 2.0, 50),
            SweepAxis("alpha_2", 1.01, 2.0, 50),
        ),
        "alphas at L_A=1, L_B=1.5": (
            CycleParams(1.0, 1.5, 1.5, 1.5, **BATHS),
            SweepAxis("alpha_1", 1.01, 2.0, 50),
            SweepAxis("alpha_2", 1.01, 2.0, 50),
        ),
    }
    locus_failures = []
    bound_failures = []
    for name, (base, ax, ay) in grids.items():
        grid = sweep(base, ax, ay)
        excess_count, max_excess = 0, 0.0
        for row in grid.reports:
            for rep in row:
                # nodes with width_a = width_b and alpha_1 = alpha_2 up to
                # rounding collapse to a cycle that moves no heat at all;
                # their 0/0 efficiency is reported as 0 and says nothing
                # about regeneration, so only heat-moving nodes count
                if abs(rep.q_r) < 1e-6 and abs(rep.q_h) >= 1e-15:
                    if abs(rep.efficiency - rep.carnot) >= 1e-4:
                        locus_failures.append(
                            f"{name}: |eta - eta_C| = "
                            f"{abs(rep.efficiency - rep.carnot):.2e} "
                            f"at q_r = {rep.q_r:.2e}"
                        )
                if rep.regime == REGIME_ENGINE:
                    excess = rep.efficiency - (rep.carnot + 1e-9)
                    if excess > 0:
                        excess_count += 1
                        max_excess = max(max_excess, excess)
        if excess_count:
            bound_failures.append(
                f"{name}: {excess_count} engine nodes exceed carnot, "
                f"max excess {max_excess:.2e}"
            )
    ok = not locus_failures and not bound_failures
    line = _verdict(
        "5 (perfect regeneration => carnot)", ok,
        "all locus nodes at carnot and no engine node above it" if ok
        else "; ".join(locus_failures + bound_failures),
    )
    assert ok, line


def test_criterion_6_property_suite():
    start = time.perf_counter()
    problems = []

    # occupation normalisation within 10 rel_tol
    for rel_tol in (1e-8, 1e-12):
        p = occupations(ThermalState(WellSpec(1.3, 1.4), 3.5), rel_tol)
        total = float(np.sum(p))
        if not 1.0 - 10.0 * rel_tol <= total <= 1.0 + 1e-13:
            problems.append(f"normalisation off at rel_tol={rel_tol}: {total}")

    # F = U - T S within 1e-10 relative
    for state in (ThermalState(WellSpec(1.0, 2.0), 4.0),
                  ThermalState(WellSpec(0.5, 1.2), 1.5)):
        s = summarize(state)
        lhs = s.internal_energy - state.temperature * s.entropy
        if abs(lhs - s.free_energy) > 1e-10 * abs(s.free_energy):
            problems.append(f"free-energy identity broken at {state}")

    # entropy scale collapse within 1e-12
    s1 = summarize(ThermalState(WellSpec(1.0, 1.5), 4.0))
    s2 = summarize(ThermalState(WellSpec(2.0, 1.5), 4.0 * 2.0**-1.5))
    if abs(s1.entropy - s2.entropy) > 1e-12 * abs(s1.entropy):
        problems.append(
            f"scale collapse broken: {s1.entropy} vs {s2.entropy}"
        )

    # alpha = 2 equivalence against an independently coded quadratic
    # ensemble within 1e-12 relative
    def quadratic_oracle(width, t, n_terms=4000):
        beta = 1.0 / t
        e1 = (math.pi / (2.0 * width)) ** 2 / 2.0
        z = ue = 0.0
        for n in range(1, n_terms + 1):
            de = e1 * (n * n - 1)
            w = math.exp(-beta * de)
            z += w
            ue += w * de
        u = e1 + ue / z
        return u, beta * (u - e1) + math.log(z)

    for width, t in ((1.0, 4.0), (2.0, 4.0), (0.7, 2.0)):
        u0, s0 = quadratic_oracle(width, t)
        got = summarize(ThermalState(WellSpec(width, 2.0), t), 1e-13)
        if abs(got.internal_energy - u0) > 1e-12 * u0:
            problems.append(f"quadratic U mismatch at L={width}, T={t}")
        if abs(got.entropy - s0) > 1e-12 * abs(s0):
            problems.append(f"quadratic S mismatch at L={width}, T={t}")

    # truncation convergence under rel_tol/100 refinement within 10 rel_tol
    state = ThermalState(WellSpec(1.8, 1.4), 4.0)
    for rel_tol in (1e-8, 1e-10):
        coarse = summarize(state, rel_tol)
        fine = summarize(state, rel_tol / 100.0)
        for attr in ("partition_function", "internal_energy", "entropy"):
            a, b = getattr(coarse, attr), getattr(fine, attr)
            if abs(a - b) > 10.0 * rel_tol * abs(b):
                problems.append(f"refinement moved {attr} at rel_tol={rel_tol}")

    elapsed = time.perf_counter() - start
    ok = not problems
    line = _verdict(
        "6 (property suite)", ok,
        f"all ensemble properties hold, runtime {elapsed:.2f} s" if ok
        else "; ".join(problems),
    )
    assert ok, line
