import itertools
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy.optimize import brentq

from fracstirling import (
    MAX_LEVELS,
    CycleParams,
    DegenerateCycleError,
    FracStirlingError,
    corners,
    NodeError,
    NoRootError,
    RegenerationPoint,
    SweepAxis,
    TruncationLimitError,
    cycle,
    evaluate,
    find_brackets,
    regenerator_heat,
    solve_regeneration,
    solver,
    summarize,
    sweep,
    thermo,
    trace_curve,
)
from fracstirling.reference import BENCH_ROWS
from fracstirling.solver import DEFAULT_REL_TOL, MAX_NODES, _illinois

BATHS = dict(t_hot=4.0, t_cold=3.0)
BASE = CycleParams(1.0, 1.4, 1.5, 1.579, **BATHS)


def crosses(params, levels=None):
    """Whether the isochore heat capacities cross between the baths."""
    sa, sb, sc, sd = (summarize(s, levels=levels).heat_capacity for s in corners(params))
    return (sd - sc) * (sa - sb) < 0.0


def lockstep(fs, a, b, tol, max_iter=200):
    """`_illinois` on problems k = 0, 1, ... with scalar q_r functions fs[k].

    Returns its result and the number of lockstep iterations.
    """
    steps = 0

    def q_r(active, x):
        nonlocal steps
        steps += 1
        return np.array([fs[k](v) for k, v in zip(active.tolist(), x.tolist())], dtype=float)

    fa = [f(v) for f, v in zip(fs, a)]
    fb = [f(v) for f, v in zip(fs, b)]
    return _illinois(q_r, a, b, fa, fb, tol, max_iter), steps


def solve_one(f, lo, hi, tol):
    ((root,), (residual,), (failure,)), _ = lockstep([f], [lo], [hi], tol)
    assert failure is None
    return root, residual


class TestRootHybrid:
    def test_agrees_with_brentq(self):
        f = lambda x: x**3 + x**2 - 3.0 * x - 3.0
        root, residual = solve_one(f, 1.0, 2.0, 1e-12)
        assert root == pytest.approx(brentq(f, 1.0, 2.0, xtol=1e-14), abs=1e-9)
        assert residual <= 1e-12

    def test_transcendental(self):
        f = lambda x: 3.0 * x + np.sin(x) - np.exp(x)
        root, _ = solve_one(f, 0.0, 1.0, 1e-13)
        assert root == pytest.approx(0.3604217029603244, abs=1e-8)

    def test_never_leaves_bracket(self):
        seen = []

        def f(x):
            seen.append(x)
            return np.tanh(10.0 * (x - 0.123456))

        solve_one(f, -1.0, 1.0, 1e-12)
        assert min(seen) >= -1.0 and max(seen) <= 1.0

    def test_endpoint_root(self):
        f = lambda x: x - 1.0
        root, residual = solve_one(f, 1.0, 2.0, 1e-10)
        assert root == 1.0 and residual == 0.0

    def test_step_that_rounds_below_a_tiny_end_stays_in_bracket(self):
        # at a = 1e-20, b = 1 the step b - fb (b - a) / (fb - fa) rounds to 0;
        # the collapse floor scales with the bracket, so the tiny root resolves
        seen = []

        def f(x):
            seen.append(x)
            return x - 2e-20

        root, _ = solve_one(f, 1e-20, 1.0, 1e-30)
        assert root == pytest.approx(2e-20, rel=1e-12)
        assert min(seen) >= 1e-20

    @pytest.mark.parametrize("max_iter", [200, 4])
    def test_problems_in_lockstep_equal_one_problem_runs(self, max_iter):
        # they stop at different iterations, by convergence, an end root, a
        # non-finite value, a collapsed bracket around a jump or the step cap
        problems = [
            (lambda x: x**3 + x**2 - 3.0 * x - 3.0, 1.0, 2.0),
            (lambda x: 3.0 * x + math.sin(x) - math.exp(x), 0.0, 1.0),
            (lambda x: math.tanh(10.0 * (x - 0.123456)), -1.0, 1.0),
            (lambda x: x - 1.0, 1.0, 2.0),
            (lambda x: x - 0.5 if x < 0.3 or x == 1.0 else math.nan, 0.0, 1.0),
            (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0),
            (lambda x: x - 2e-20, 1e-20, 1.0),
        ]
        fs, a, b = (list(v) for v in zip(*problems))
        (roots, residuals, failures), steps = lockstep(fs, a, b, 1e-12, max_iter)
        solo = [lockstep([f], [lo], [hi], 1e-12, max_iter) for f, lo, hi in problems]
        for k, (((root,), (residual,), (failure,)), _) in enumerate(solo):
            # repr tells every float apart bit for bit, nan included
            assert repr((roots[k], residuals[k], failures[k])) == repr((root, residual, failure)), k
        assert steps == max(n for _, n in solo)
        assert len({n for _, n in solo}) >= 3
        assert failures[4] == "q_r evaluated to a non-finite value at 0.5"
        if max_iter == 200:
            assert failures[5].startswith("bracket collapsed at 0.29999")
            assert [f is None for f in failures] == [True] * 4 + [False] * 2 + [True]
        else:
            assert "no convergence within 4 iterations" in failures


class TestFindBrackets:
    def test_counts_sign_changes(self):
        f = lambda x: np.sin(x)
        got = find_brackets(f, 0.5, 9.0, points=128)
        assert len(got) == 2  # roots at pi and 2 pi
        for lo, hi in got:
            assert f(lo) * f(hi) <= 0

    def test_none_when_single_signed(self):
        assert find_brackets(lambda x: 1.0 + x * x, -1.0, 1.0) == []

    @pytest.mark.parametrize("points", [1, MAX_NODES + 1])
    def test_point_count_outside_range_raises_before_any_call(self, points):
        def f(x):
            raise AssertionError("scanned")

        with pytest.raises(ValueError, match="scan points"):
            find_brackets(f, 0.0, 1.0, points)


class TestSolveAlpha1:
    def test_benchmark_row_10_14(self):
        point = solve_regeneration(
            replace(BASE, alpha_2=1.579), "alpha_1", 1.47, 1.56, tol=1e-8, levels=10
        )
        assert point.params.alpha_1 == pytest.approx(1.502, abs=5e-3)
        assert point.params.alpha_2 == 1.579
        assert point.residual <= 1e-8
        # root certificate: independent re-evaluation at the returned params
        assert abs(evaluate(point.params, levels=10).q_r) <= 1e-8

    def test_benchmark_row_12_16(self):
        base = CycleParams(1.2, 1.6, 1.5, 1.6, **BATHS)
        point = solve_regeneration(
            replace(base, alpha_2=1.678), "alpha_1", 1.55, 1.62, tol=1e-8, levels=10
        )
        assert point.params.alpha_1 == pytest.approx(1.565, abs=5e-3)

    def test_agrees_with_brentq(self):
        f = lambda a1: evaluate(
            CycleParams(1.0, 1.4, a1, 1.579, **BATHS), levels=10
        ).q_r
        expected = brentq(f, 1.47, 1.56, xtol=1e-12)
        point = solve_regeneration(
            replace(BASE, alpha_2=1.579), "alpha_1", 1.47, 1.56, tol=1e-10, levels=10
        )
        assert point.params.alpha_1 == pytest.approx(expected, abs=1e-6)

    def test_no_sign_change_raises(self):
        with pytest.raises(NoRootError) as err:
            solve_regeneration(
                replace(BASE, alpha_2=1.579), "alpha_1", 1.95, 2.0, levels=10
            )
        assert np.isfinite(err.value.residual_lo)
        assert np.isfinite(err.value.residual_hi)
        assert err.value.residual_lo * err.value.residual_hi > 0

    def test_bracket_clipped_to_admissible_alphas(self):
        with pytest.raises(ValueError):
            solve_regeneration(BASE, "alpha_1", 2.5, 3.0)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            solve_regeneration(BASE, "t_hot", 3.5, 4.5)

    def test_failing_bracket_end_raises_its_first_failing_corner(self):
        # corner A needs more than MAX_LEVELS levels at width_a = 1e7 and
        # leaves the float range at 1e-300; the lower end raises first
        base = replace(BASE, alpha_2=1.05)
        for lo, failing_width, error in (
            (1.0, 1e7, TruncationLimitError), (1e-300, 1e-300, FracStirlingError),
        ):
            with pytest.raises(error) as want:
                summarize(corners(replace(base, width_a=failing_width))[0])
            with pytest.raises(error) as err:
                solve_regeneration(base, "width_a", lo, 1e7)
            assert type(err.value) is type(want.value) and str(err.value) == str(want.value)

    def test_efficiency_near_carnot_at_root(self):
        # q_r = 0 pins the efficiency close to (but not exactly at) carnot
        point = solve_regeneration(
            replace(BASE, alpha_2=1.579), "alpha_1", 1.47, 1.56, tol=1e-10, levels=10
        )
        report = evaluate(point.params, levels=10)
        assert abs(report.efficiency - report.carnot) < 1e-3

    def test_at_most_ten_evaluations_per_solve(self, monkeypatch):
        # Table-1 pairs and points above them on the locus, ten-level and
        # adaptive; a solve's q_r points are one kernel call on both bracket
        # ends, one per lockstep step and any scalar `regenerator_heat` call
        heat = solver.regenerator_heat
        count = 0

        def counting(fn):
            def wrapped(*args):
                nonlocal count
                count += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(solver, "regenerator_heat", counting(heat))
        monkeypatch.setattr(solver, "summarize_many", counting(solver.summarize_many))
        monkeypatch.setattr(cycle, "summarize_many", counting(cycle.summarize_many))
        calls = []
        for row, offset, levels in itertools.product(
            BENCH_ROWS, (0.0, 0.02, 0.05, 0.08), (10, None)
        ):
            base = replace(row.pair_params(), alpha_2=row.alpha_2 + offset)
            scan = lambda x: heat(replace(base, alpha_1=x), DEFAULT_REL_TOL, levels)
            intervals = find_brackets(scan, 1.000001, 2.0)
            if intervals:
                lo, hi = min(
                    intervals, key=lambda iv: abs(0.5 * (iv[0] + iv[1]) - row.alpha_1)
                )
                count = 0
                solve_regeneration(base, "alpha_1", lo, hi, levels=levels)
                calls.append(count)
        assert len(calls) >= 75
        assert min(calls) >= 2 and max(calls) <= 10, calls
        assert sum(calls) > 2 * len(calls)  # the steps are counted


class TestRootCertificate:
    @pytest.mark.parametrize(
        "parameter, levels",
        [(p, 10) for p in solver.SWEEPABLE] + [("width_b", None), ("alpha_1", None), ("alpha_2", None)],
    )
    def test_residual_is_the_scalar_q_r_at_the_root(self, parameter, levels):
        # a step sums only the well of A and D or that of B and C; the
        # scalar q_r at each root, all four corners summed afresh, must be
        # the reported residual bit for bit
        base = BENCH_ROWS[5].pair_params()
        domain = (1.000001, 2.0) if parameter.startswith("alpha") else (0.3, 3.0)
        f = lambda x: regenerator_heat(replace(base, **{parameter: x}), levels=levels)
        lo, hi = find_brackets(f, *domain)[-1]
        points = [solve_regeneration(base, parameter, lo, hi, tol=1e-11, levels=levels)]
        sweep_parameter = "width_a" if parameter == "alpha_1" else "alpha_1"
        grid = [getattr(base, sweep_parameter) * (1.0 + 0.004 * i) for i in range(3)]
        points += trace_curve(
            base, sweep_parameter, parameter, grid, domain, tol=1e-11, levels=levels
        )
        assert all(p is not None for p in points)
        for p in points:
            assert p.residual == abs(regenerator_heat(p.params, levels=levels)) <= 1e-11


class TestTraceCurve:
    def test_single_node_reduces_to_solve(self):
        solved = solve_regeneration(
            replace(BASE, alpha_2=1.579), "alpha_1", 1.47, 1.56, tol=1e-9, levels=10
        )
        traced = trace_curve(
            BASE, "alpha_2", "alpha_1", [1.579], (1.47, 1.56), tol=1e-9, levels=10
        )
        assert len(traced) == 1
        assert traced[0].params.alpha_2 == solved.params.alpha_2
        assert traced[0].params.alpha_1 == pytest.approx(
            solved.params.alpha_1, abs=1e-6
        )
        assert traced[0].residual <= 1e-9 and solved.residual <= 1e-9

    def test_follows_upper_branch_monotonically(self):
        grid = [1.579 + 0.05 * i for i in range(4)]
        points = trace_curve(
            BASE, "alpha_2", "alpha_1", grid, (1.482, 2.0), tol=1e-8, levels=10
        )
        assert all(isinstance(p, RegenerationPoint) for p in points)
        alphas = [p.params.alpha_1 for p in points]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))
        assert alphas[0] == pytest.approx(1.502, abs=5e-3)
        for p in points:
            assert abs(evaluate(p.params, levels=10).q_r) <= 1e-8

    def test_wider_wells_shift_the_locus_down_in_alpha1(self):
        # at a shared alpha_2 the upper branch sits lower in alpha_1 when
        # both widths grow; equivalently the locus needs a higher alpha_2
        # at shared alpha_1 (visible already in the benchmark anchors)
        at = {}
        for la, lb, lo in [(1.0, 1.4, 1.482), (1.2, 1.6, 1.545), (1.4, 1.8, 1.640)]:
            base = CycleParams(la, lb, 1.5, 1.8, **BATHS)
            (pt,) = trace_curve(
                base, "alpha_2", "alpha_1", [1.8], (lo, 2.0), tol=1e-8, levels=10
            )
            at[(la, lb)] = pt.params.alpha_1
        assert at[(1.0, 1.4)] > at[(1.2, 1.6)] > at[(1.4, 1.8)]

    def test_gap_nodes_below_the_fold(self):
        # the locus is born at a fold in alpha_2; below it there is no root
        grid = [1.40, 1.45, 1.50]
        with pytest.warns(UserWarning, match="no regeneration root"):
            points = trace_curve(
                BASE, "alpha_2", "alpha_1", grid, (1.3, 2.0), tol=1e-8, levels=10
            )
        assert points == [None, None, None]

    def test_mixed_gaps_preserve_order(self):
        grid = [1.50, 1.60, 1.70]
        points = trace_curve(
            BASE, "alpha_2", "alpha_1", grid, (1.482, 2.0), tol=1e-8, levels=10
        )
        assert points[0] is None
        assert points[1] is not None and points[2] is not None

    def test_failing_node_becomes_gap(self):
        # at L_B = 3e7 the level sum outgrows MAX_LEVELS; only that node is lost
        base = CycleParams(1.0, 1.4, 1.5, 1.6, **BATHS)
        points = trace_curve(base, "width_b", "alpha_1", [1.4, 3e7], (1.3, 2.0))
        assert isinstance(points[0], RegenerationPoint)
        assert points[1] is None

    def test_failing_scan_point_makes_the_node_a_gap(self):
        # q_r changes sign between the first two scan points, but widths
        # near 1e5 outgrow MAX_LEVELS further along the scan
        base = CycleParams(1.0, 1.4, 1.502, 1.579, **BATHS)
        with pytest.warns(UserWarning, match="no regeneration root"):
            points = trace_curve(base, "alpha_2", "width_b", [1.579], (1.0, 1e5))
        assert points == [None]
        (point,) = trace_curve(base, "alpha_2", "width_b", [1.579], (1.0, 1e3))
        assert abs(regenerator_heat(point.params)) <= 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.5},
            {"levels": 0},
            {"scan_points": 1},
            {"scan_points": MAX_NODES + 1},
            {"levels": MAX_LEVELS + 1},
            {"tol": -1.0},
            {"tol": math.nan},
            {"levels": 10.5},
        ],
    )
    def test_usage_errors_raise_before_any_node(self, kwargs):
        with pytest.raises(ValueError):
            trace_curve(BASE, "alpha_2", "alpha_1", [1.6, 1.7], (1.4, 2.0), **kwargs)

    @pytest.mark.parametrize("levels", [10, None])
    def test_scan_makes_no_scalar_q_r_call(self, monkeypatch, levels):
        # the 64-point scans and the Illinois steps run in the batched
        # kernel: no one-state `summarize` call, and at most ten lockstep
        # steps, each one kernel call on every candidate still unsolved
        kernel = solver.summarize_many
        steps, scalar = [], []

        def counting(width, *args):
            steps.append(len(width) // 2)  # each q_r point sums one well at two baths
            return kernel(width, *args)

        monkeypatch.setattr(solver, "summarize_many", counting)
        for module in (cycle, thermo):
            monkeypatch.setattr(module, "summarize", lambda *args: scalar.append(args) or summarize(*args))
        grid = [1.58 + 0.02 * i for i in range(6)]
        points = trace_curve(
            BASE, "alpha_2", "alpha_1", grid, (1.000001, 2.0), levels=levels
        )
        assert all(p is not None for p in points)
        assert scalar == []
        assert 1 <= len(steps) <= 10, steps
        assert steps[0] >= len(grid) and steps == sorted(steps, reverse=True)

    @pytest.mark.parametrize("levels", [10, None])
    def test_scan_chunks_of_one_node_give_the_same_points(self, monkeypatch, levels):
        # gaps below the fold, roots above it, and a previous root carried
        # from chunk to chunk; the scans sum through `cycle`, the steps
        # through `solver`
        scans, steps = [], []

        def counting(kernel, calls):
            def wrapped(*args):
                calls.append(len(args[0]))
                return kernel(*args)

            return wrapped

        monkeypatch.setattr(cycle, "summarize_many", counting(cycle.summarize_many, scans))
        monkeypatch.setattr(solver, "summarize_many", counting(solver.summarize_many, steps))
        grid = [1.45, 1.5, 1.55, 1.6, 1.65]
        args = (BASE, "alpha_2", "alpha_1", grid, (1.3, 2.0))
        whole = trace_curve(*args, levels=levels)
        assert len(scans) == 1 and 1 <= len(steps) <= 10
        whole_steps = len(steps)
        scans.clear()
        steps.clear()
        monkeypatch.setattr(solver, "_SCAN_CHUNK", 1)
        assert repr(trace_curve(*args, levels=levels)) == repr(whole)
        assert len(scans) == len(grid)
        solved = sum(p is not None for p in whole)
        assert solved >= 2 and whole_steps < len(steps) <= 10 * solved

    def test_exact_root_at_scan_point_is_solved(self):
        # equal widths and exponents make q_r vanish exactly at the scan's end
        base = CycleParams(1.0, 1.0, 2.0, 2.0, **BATHS)
        points = trace_curve(
            base, "alpha_2", "alpha_1", [1.9, 2.0], (1.000001, 2.0), levels=10
        )
        assert points[1] == RegenerationPoint(params=base, residual=0.0)

    def test_bracket_outside_the_domain_raises(self):
        # a width bracket is not clipped below; its first scan point is invalid
        with pytest.raises(ValueError, match="width_a must be positive"):
            trace_curve(BASE, "width_b", "width_a", [1.2, 1.4], (-1.0, 2.0))

    def test_rejects_non_monotone_grid(self):
        with pytest.raises(ValueError):
            trace_curve(BASE, "alpha_2", "alpha_1", [1.5, 1.7, 1.6], (1.4, 2.0))

    def test_rejects_equal_parameters(self):
        with pytest.raises(ValueError):
            trace_curve(BASE, "alpha_1", "alpha_1", [1.5], (1.4, 2.0))


class TestSweepAxis:
    def test_values_hit_endpoints(self):
        axis = SweepAxis("alpha_1", 1.2, 1.8, 4)
        vals = axis.values()
        assert vals[0] == 1.2 and vals[-1] == 1.8 and len(vals) == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(parameter="t_hot", lo=3.0, hi=4.0, count=3),
            dict(parameter="alpha_1", lo=1.5, hi=1.2, count=3),
            dict(parameter="alpha_1", lo=1.2, hi=1.8, count=1),
            dict(parameter="alpha_1", lo=0.9, hi=1.8, count=3),
            dict(parameter="alpha_2", lo=1.2, hi=2.1, count=3),
            dict(parameter="width_a", lo=-0.5, hi=1.0, count=3),
            dict(parameter="width_a", lo=1.0, hi=float("inf"), count=2),
            dict(parameter="alpha_1", lo=1.2, hi=1.8, count=MAX_NODES + 1),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SweepAxis(**kwargs)


class TestSweep:
    def test_matches_direct_evaluation_bitwise(self):
        base = CycleParams(1.0, 1.0, 1.5, 1.5, **BATHS)
        ax = SweepAxis("alpha_1", 1.2, 1.8, 2)
        ay = SweepAxis("alpha_2", 1.3, 1.9, 2)
        grid = sweep(base, ax, ay)
        from dataclasses import replace

        for i, x in enumerate(ax.values()):
            for j, y in enumerate(ay.values()):
                direct = evaluate(replace(base, alpha_1=x, alpha_2=y))
                assert grid.reports[i][j] == direct

    def test_row_major_shape(self):
        base = CycleParams(1.0, 1.0, 1.5, 1.5, **BATHS)
        grid = sweep(
            base,
            SweepAxis("width_a", 0.8, 1.2, 3),
            SweepAxis("width_b", 0.9, 1.3, 2),
        )
        assert len(grid.reports) == 3
        assert all(len(row) == 2 for row in grid.reports)
        assert {v.shape for v in grid.columns.values()} == {(3, 2)}
        assert grid.corner_states.shape == (4, 3, 2)
        for i, j in itertools.product(range(3), range(2)):
            report = grid.reports[i][j]
            assert [grid.columns[name][i, j] for name in grid.columns] == list(astuple(report)[:8])
            corners = grid.corner_states[:, i, j]
            assert tuple(grid.state_energy[corners]) == report.corner_energies
            assert tuple(grid.state_entropy[corners]) == report.corner_entropies
        with pytest.raises(ValueError, match="read-only"):
            grid.columns["q_r"][0, 0] = 0.0

    def test_quadratic_width_sweep_sign_structure(self):
        # regenerator heat changes sign between small and large width pairs
        base = CycleParams(1.0, 1.0, 2.0, 2.0, **BATHS)
        grid = sweep(
            base,
            SweepAxis("width_a", 0.6, 1.0, 2),
            SweepAxis("width_b", 0.9, 1.3, 2),
        )
        assert grid.reports[0][0].q_r < 0  # (0.6, 0.9)
        assert grid.reports[1][1].q_r > 0  # (1.0, 1.3)

    @pytest.mark.parametrize(
        "kwargs", [{"rel_tol": 0.5}, {"levels": 0}, {"levels": MAX_LEVELS + 1}, {"levels": 10.5}]
    )
    def test_usage_errors_raise_before_any_node(self, kwargs):
        ax = SweepAxis("alpha_1", 1.2, 1.9, 2)
        ay = SweepAxis("alpha_2", 1.3, 1.8, 2)
        with pytest.raises(ValueError):
            sweep(CycleParams(1.0, 1.2, 1.5, 1.5, **BATHS), ax, ay, **kwargs)

    def test_grid_over_max_nodes_raises_before_any_node(self, monkeypatch):
        # two 1001-node axes pass alone but not together
        evaluated = []
        monkeypatch.setattr(solver, "evaluate", lambda *args: evaluated.append(args))
        monkeypatch.setattr(SweepAxis, "values", lambda self: pytest.fail("values()"))
        ax = SweepAxis("alpha_1", 1.2, 1.8, 1001)
        ay = SweepAxis("alpha_2", 1.3, 1.9, 1001)
        with pytest.raises(ValueError, match=f"exceeds {MAX_NODES} nodes"):
            sweep(CycleParams(1.0, 1.0, 1.5, 1.5, **BATHS), ax, ay)
        assert evaluated == []

    def test_rejects_identical_axes(self):
        base = CycleParams(1.0, 1.0, 1.5, 1.5, **BATHS)
        ax = SweepAxis("alpha_1", 1.2, 1.8, 2)
        with pytest.raises(ValueError):
            sweep(base, ax, SweepAxis("alpha_1", 1.3, 1.9, 2))

    def test_error_nodes_recorded_in_place(self):
        # the widest nodes need more than the level cap and must not abort;
        # the (1.0, 1.6) node takes the heat-capacity crossing search
        base = CycleParams(0.5, 1.0, 2.0, 1.5, **BATHS)
        ax = SweepAxis("width_b", 1.0, 3e7, 2)
        ay = SweepAxis("alpha_2", 1.4, 1.6, 2)
        grid = sweep(base, ax, ay)
        for j, y in enumerate(ay.values()):
            direct = evaluate(replace(base, width_b=1.0, alpha_2=y))
            assert repr(grid.reports[0][j]) == repr(direct)
            assert isinstance(grid.reports[1][j], NodeError)
            assert "unconverged" in grid.reports[1][j].message
        assert crosses(replace(base, alpha_2=ay.values()[1]))

    def test_unrepresentable_level_scale_is_an_error_node(self):
        base = CycleParams(1.0, 1.0, 2.0, 2.0, **BATHS)
        ax = SweepAxis("width_a", 1e-200, 1.0, 3)
        ay = SweepAxis("alpha_2", 1.3, 1.6, 2)
        grid = sweep(base, ax, ay)
        assert "float range" in grid.reports[0][1].message
        for i, x in enumerate(ax.values()):
            for j, y in enumerate(ay.values()):
                if (i, j) != (0, 1):
                    direct = evaluate(replace(base, width_a=x, alpha_2=y))
                    assert repr(grid.reports[i][j]) == repr(direct)
        # the (0.5, 1.6) node takes the heat-capacity crossing search
        assert crosses(replace(base, width_a=ax.values()[1], alpha_2=ay.values()[1]))

    @pytest.mark.parametrize("levels", [None, 10])
    def test_crossing_nodes_make_no_evaluate_call(self, monkeypatch, levels):
        # the heat-capacity crossings of a grid around the locus are searched
        # inside the sweep, not node by node through `evaluate`
        base = CycleParams(1.0, 1.4, 1.5, 1.579, **BATHS)
        ax = SweepAxis("alpha_1", 1.53, 1.58, 8)
        ay = SweepAxis("alpha_2", 1.57, 1.6, 8)
        evaluated = []
        monkeypatch.setattr(solver, "evaluate", lambda *args: evaluated.append(args))
        grid = sweep(base, ax, ay, levels=levels)
        assert evaluated == []
        monkeypatch.undo()
        nodes = [
            (replace(base, alpha_1=x, alpha_2=y), grid.reports[i][j])
            for i, x in enumerate(ax.values()) for j, y in enumerate(ay.values())
        ]
        assert sum(crosses(params, levels) for params, _ in nodes) >= 9
        for params, report in nodes:
            assert repr(report) == repr(evaluate(params, levels=levels))

    def test_failing_corner_raises_once_per_state_without_evaluate(self, monkeypatch):
        # corner B, (width_b, alpha_1) at t_hot, needs more than MAX_LEVELS
        # levels at every node; it is the first corner to fail at each, and
        # its words come from the sweep's kernel call: no one-state call
        base = CycleParams(1.0, 3e7, 2.0, 1.5, **BATHS)
        ax = SweepAxis("width_a", 0.8, 1.2, 3)
        ay = SweepAxis("alpha_2", 1.4, 1.6, 3)
        calls = []
        monkeypatch.setattr(solver, "evaluate", lambda *args: pytest.fail("evaluate called"))
        for module in (cycle, thermo):
            monkeypatch.setattr(module, "summarize", lambda *args: calls.append(args) or summarize(*args))
        monkeypatch.setattr(thermo, "summarize_many", lambda *args: pytest.fail("one-state kernel call"))
        grid = sweep(base, ax, ay)
        assert calls == []
        monkeypatch.undo()
        for i, x in enumerate(ax.values()):
            for j, y in enumerate(ay.values()):
                with pytest.raises(TruncationLimitError) as err:
                    evaluate(replace(base, width_a=x, alpha_2=y))
                assert grid.errors[i, j] == str(err.value)

    def test_degenerate_node_is_an_error_node(self, monkeypatch):
        # crafted corner ensembles give every node q_ab = 0 with net work
        from test_cycle import fake_corner_table

        monkeypatch.setattr(cycle, "summarize_many", fake_corner_table)
        base = CycleParams(0.8, 1.2, 1.5, 1.5, **BATHS)
        ax = SweepAxis("width_b", 1.1, 1.3, 2)
        ay = SweepAxis("alpha_2", 1.5, 1.6, 2)
        grid = sweep(base, ax, ay)
        for i, x in enumerate(ax.values()):
            for j, y in enumerate(ay.values()):
                with pytest.raises(DegenerateCycleError) as err:
                    evaluate(replace(base, width_b=x, alpha_2=y))
                assert grid.reports[i][j] == NodeError(str(err.value))

    def test_block_cap_splits_a_same_cut_grid(self, monkeypatch):
        # with ten levels every corner state shares one cut, so the default
        # cap sums them in one block; a one-row cap must give the same bits
        base = CycleParams(1.0, 1.4, 1.5, 1.579, **BATHS)
        ax = SweepAxis("width_a", 0.8, 1.2, 20)
        ay = SweepAxis("alpha_2", 1.3, 1.9, 20)
        rows = []
        row_sums = thermo._row_sums

        def counting_row_sums(energies, beta):
            rows.append(len(energies))
            return row_sums(energies, beta)

        monkeypatch.setattr(thermo, "_row_sums", counting_row_sums)
        default = sweep(base, ax, ay, levels=10)
        assert max(rows) == 2 * 20 * 20 + 2  # A and D at every node, B and C once
        rows.clear()
        monkeypatch.setattr(thermo, "_BLOCK_ENTRIES", 1)
        capped = sweep(base, ax, ay, levels=10)
        assert len(rows) >= 2 * 20 * 20 + 2 and max(rows) == 1
        assert repr(capped.reports) == repr(default.reports)
