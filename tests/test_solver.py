import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from fracstirling import (
    MAX_LEVELS,
    CycleParams,
    NodeError,
    NoRootError,
    RegenerationPoint,
    SweepAxis,
    evaluate,
    find_brackets,
    solve_regeneration,
    solver,
    sweep,
    trace_curve,
)
from fracstirling.reference import BENCH_ROWS
from fracstirling.solver import DEFAULT_REL_TOL, MAX_NODES, SolverError, _illinois

BATHS = dict(t_hot=4.0, t_cold=3.0)
BASE = CycleParams(1.0, 1.4, 1.5, 1.579, **BATHS)


class TestRootHybrid:
    def test_agrees_with_brentq(self):
        f = lambda x: x**3 + x**2 - 3.0 * x - 3.0
        root, residual = _illinois(f, 1.0, 2.0, f(1.0), f(2.0), 1e-12)
        assert root == pytest.approx(brentq(f, 1.0, 2.0, xtol=1e-14), abs=1e-9)
        assert residual <= 1e-12

    def test_transcendental(self):
        f = lambda x: 3.0 * x + np.sin(x) - np.exp(x)
        root, _ = _illinois(f, 0.0, 1.0, f(0.0), f(1.0), 1e-13)
        assert root == pytest.approx(0.3604217029603244, abs=1e-8)

    def test_never_leaves_bracket(self):
        seen = []

        def f(x):
            seen.append(x)
            return np.tanh(10.0 * (x - 0.123456))

        _illinois(f, -1.0, 1.0, f(-1.0), f(1.0), 1e-12)
        assert min(seen) >= -1.0 and max(seen) <= 1.0

    def test_endpoint_root(self):
        f = lambda x: x - 1.0
        root, residual = _illinois(f, 1.0, 2.0, 0.0, 1.0, 1e-10)
        assert root == 1.0 and residual == 0.0

    def test_step_that_rounds_below_a_tiny_end_stays_in_bracket(self):
        # at a = 1e-20, b = 1 the step b - fb (b - a) / (fb - fa) rounds to 0;
        # the bracket then collapses at the absolute 1e-15 floor
        seen = []

        def f(x):
            seen.append(x)
            return x - 2e-20

        with pytest.raises(SolverError):
            _illinois(f, 1e-20, 1.0, f(1e-20), f(1.0), 1e-30)
        assert min(seen) >= 1e-20


class TestFindBrackets:
    def test_counts_sign_changes(self):
        f = lambda x: np.sin(x)
        got = find_brackets(f, 0.5, 9.0, points=128)
        assert len(got) == 2  # roots at pi and 2 pi
        for lo, hi in got:
            assert f(lo) * f(hi) <= 0

    def test_none_when_single_signed(self):
        assert find_brackets(lambda x: 1.0 + x * x, -1.0, 1.0) == []


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

    def test_efficiency_near_carnot_at_root(self):
        # q_r = 0 pins the efficiency close to (but not exactly at) carnot
        point = solve_regeneration(
            replace(BASE, alpha_2=1.579), "alpha_1", 1.47, 1.56, tol=1e-10, levels=10
        )
        report = evaluate(point.params, levels=10)
        assert abs(report.efficiency - report.carnot) < 1e-3

    def test_at_most_ten_evaluations_per_solve(self, monkeypatch):
        # Table-1 pairs and points above them on the locus, ten-level and
        # adaptive; a solve's two endpoint evaluations count
        heat = solver.regenerator_heat
        count = 0

        def counting(*args):
            nonlocal count
            count += 1
            return heat(*args)

        monkeypatch.setattr(solver, "regenerator_heat", counting)
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
        assert max(calls) <= 10, calls


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.5},
            {"levels": 0},
            {"scan_points": 1},
            {"levels": MAX_LEVELS + 1},
            {"tol": -1.0},
            {"tol": math.nan},
        ],
    )
    def test_usage_errors_raise_before_any_node(self, kwargs):
        with pytest.raises(ValueError):
            trace_curve(BASE, "alpha_2", "alpha_1", [1.6, 1.7], (1.4, 2.0), **kwargs)

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
        "kwargs", [{"rel_tol": 0.5}, {"levels": 0}, {"levels": MAX_LEVELS + 1}]
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
        # the widest node needs more than the level cap and must not abort
        base = CycleParams(1.0, 1.0, 1.05, 1.5, **BATHS)
        grid = sweep(
            base,
            SweepAxis("width_b", 1.0, 3e7, 2),
            SweepAxis("alpha_2", 1.4, 1.6, 2),
        )
        assert not isinstance(grid.reports[0][0], NodeError)
        assert isinstance(grid.reports[1][0], NodeError)
        assert "unconverged" in grid.reports[1][0].message

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
                    assert grid.reports[i][j] == direct
