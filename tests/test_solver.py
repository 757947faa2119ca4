import hashlib
import itertools
import math
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fracstirling import (
    MAX_LEVELS,
    CycleParams,
    CycleReport,
    DegenerateCycleError,
    FracStirlingError,
    corners,
    NoRootError,
    SolverError,
    SweepAxis,
    TraceResult,
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
from fracstirling.solver import DEFAULT_REL_TOL, MAX_NODES, _false_position

BATHS = dict(t_hot=4.0, t_cold=3.0)
BASE = CycleParams(1.0, 1.4, 1.5, 1.579, **BATHS)
MAX = sys.float_info.max


def solved_nodes(result):
    """Per node of a trace, (root, residual) where it is solved, else None."""
    nodes = zip(result.root.tolist(), result.residual.tolist(), result.status.tolist(), strict=True)
    return [(x, residual) if status == "root" else None for x, residual, status in nodes]


def assert_node_is(grid, i, j, report):
    """Sweep node (i, j)'s columns and corner S and U equal `report`'s fields by repr, so bit for bit."""
    ids = grid.corner_states[:, i, j]
    got = ([grid.columns[name][i, j].item() for name in grid.columns],
           grid.state_entropy[ids].tolist(), grid.state_energy[ids].tolist())
    want = ([getattr(report, name) for name in grid.columns],
            list(report.corner_entropies), list(report.corner_energies))
    assert repr(got) == repr(want), (i, j)


def crosses(params, levels=None):
    """Whether the isochore heat capacities cross between the baths."""
    sa, sb, sc, sd = (summarize(s, levels=levels).heat_capacity for s in corners(params))
    return (sd - sc) * (sa - sb) < 0.0


def lockstep(fs, a, b, tol, max_iter=200):
    """`_false_position` on problems k = 0, 1, ... with scalar q_r functions fs[k].

    Returns its result and the number of lockstep iterations.
    """
    steps = 0

    def q_r(active, x):
        nonlocal steps
        steps += 1
        return np.array([fs[k](v) for k, v in zip(active.tolist(), x.tolist())], dtype=float)

    fa = [f(v) for f, v in zip(fs, a)]
    fb = [f(v) for f, v in zip(fs, b)]
    return _false_position(q_r, a, b, fa, fb, tol, max_iter), steps


def solve_one(f, lo, hi, tol):
    ((root,), (residual,), (failure,)), _ = lockstep([f], [lo], [hi], tol)
    assert failure is None
    return root, residual


def scan_loop(values):
    """The sign-change rule as a loop over one scan, which the array rule replaced.

    (i, i) at each zero, else (i, i + 1) where values i and i + 1 have
    strictly opposite signs; a nan changes no sign.
    """
    out = []
    for i, v in enumerate(values):
        if v == 0.0:
            out.append((i, i))
        elif i + 1 < len(values) and (v < 0.0 < values[i + 1] or v > 0.0 > values[i + 1]):
            out.append((i, i + 1))
    return out


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

    def test_values_whose_product_underflows_keep_their_bracket(self):
        # q(x) = 1e-200 (x - 0.3): q(a) q(x) underflows to -0.0, which hid the
        # sign change, moved the wrong end and left [0, 1]; their signs do not
        seen = []

        def f(x):
            seen.append(x)
            return 1e-200 * (x - 0.3)

        root, residual = solve_one(f, 0.0, 1.0, 0.0)
        assert root == pytest.approx(0.3, abs=1e-15) and residual <= 1e-215
        assert min(seen) >= 0.0 and max(seen) <= 1.0

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
            assert failures[5] == "bracket collapsed at 0.30000000000000016 with residual 1.0 above tol=1e-12"
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

    def test_values_whose_product_underflows_change_sign(self):
        # (-1e-200)(1e-200) underflows to -0.0, which is not below 0
        assert find_brackets(lambda x: 1e-200 * x, -1.0, 1.0, points=2) == [(-1.0, 1.0)]

    def test_none_when_single_signed(self):
        assert find_brackets(lambda x: 1.0 + x * x, -1.0, 1.0) == []

    @pytest.mark.parametrize("points", [1, MAX_NODES + 1])
    def test_point_count_outside_range_raises_before_any_call(self, points):
        def f(x):
            raise AssertionError("scanned")

        with pytest.raises(ValueError, match="scan points"):
            find_brackets(f, 0.0, 1.0, points)


    def test_array_rule_equals_the_scan_loop(self):
        rng = np.random.default_rng(61)
        for points in (2, 3, 8, 64):
            scans = rng.choice([-2.5, -1.0, -0.0, 0.0, 0.5, 3.0, math.nan], (40, points))
            scans[::3, -1] = 0.0  # a zero in the last column
            row, left, right = solver._sign_changes(scans)
            want = [(r, i, j) for r, vals in enumerate(scans.tolist()) for i, j in scan_loop(vals)]
            assert list(zip(row.tolist(), left.tolist(), right.tolist())) == want
            assert any(i == j == points - 1 for _, i, j in want)


# rows of 2 to 12 values in [-10, 10] or nan, of one length
SCANS = st.integers(2, 12).flatmap(lambda n: st.lists(
    st.lists(st.floats(-10.0, 10.0) | st.just(math.nan), min_size=n, max_size=n), min_size=1, max_size=4))


class TestSignsAtAnyScale:
    # values scaled by 10^k, k in [-300, 300]: the product of two may
    # underflow to 0, their signs do not

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(-300, 300), SCANS)
    def test_every_strict_sign_change_is_reported(self, k, rows):
        scans = np.array(rows) * 10.0**k
        row, left, right = solver._sign_changes(scans)
        want = [(r, i, j) for r, values in enumerate(scans.tolist()) for i, j in scan_loop(values)]
        assert list(zip(row.tolist(), left.tolist(), right.tolist())) == want
        # the first row as the values of a scan of [0, 1]
        xs = solver._scan_points(0.0, 1.0, scans.shape[1])
        at = dict(zip(xs, scans[0].tolist()))
        want = [(xs[i], xs[j]) for i, j in scan_loop(scans[0].tolist())]
        assert find_brackets(at.__getitem__, 0.0, 1.0, points=len(xs)) == want

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(-300, 300),
           st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0),
                              st.sampled_from([1.0, -1.0])), min_size=1, max_size=6),
           st.booleans())
    def test_false_position_evaluates_only_inside_each_bracket(self, k, problems, exact):
        # problem p is q(x) = +-10^k (x - r) on [r - below, r + above], in lockstep
        scale = 10.0**k
        a = [r - below for r, below, _, _ in problems]
        b = [r + above for r, _, above, _ in problems]
        seen = [[] for _ in problems]

        def q(p, x):
            r, _, _, sign = problems[p]
            return sign * scale * (x - r)

        def q_r(active, x):
            for p, v in zip(active.tolist(), x.tolist()):
                seen[p].append(v)
            return np.array([q(p, v) for p, v in zip(active.tolist(), x.tolist())])

        fa, fb = [q(p, v) for p, v in enumerate(a)], [q(p, v) for p, v in enumerate(b)]
        roots, _, _ = _false_position(q_r, a, b, fa, fb, 0.0 if exact else 1e-12 * scale)
        for p in range(len(problems)):
            assert all(a[p] <= v <= b[p] for v in seen[p] + [roots[p]]), (p, a[p], b[p], seen[p])


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

    def test_tiny_residuals_of_one_sign_raise(self):
        # every energy scaled by 1e-170 (E_1 goes as width^-2 at alpha 2): q_r
        # is about -1e-172 and -2e-172 at the ends, whose product underflows
        s = 1e85
        base = CycleParams(1.5 * s, 1.0 * s, 2.0, 2.0, 4e-170, 3e-170)
        with pytest.raises(NoRootError) as err:
            solve_regeneration(base, "width_a", 1.5 * s, 2.0 * s, tol=0.0)
        assert err.value.residual_lo < 0.0 and err.value.residual_hi < 0.0
        assert err.value.residual_lo * err.value.residual_hi == 0.0

    @pytest.mark.parametrize("levels", [10, None])
    def test_a_solve_scans_its_exact_bracket_ends(self, levels):
        # lo + (hi - lo) rounds below hi here, and q_r there differs from
        # q_r(hi): a solve that scanned two uniform points would show it
        lo, hi = 2.843846066906133, 21.12976136239565
        q_r = lambda x: regenerator_heat(replace(BASE, width_a=x), levels=levels)
        assert lo + (hi - lo) != hi and q_r(lo + (hi - lo)) != q_r(hi)
        with pytest.raises(NoRootError) as err:
            solve_regeneration(BASE, "width_a", lo, hi, levels=levels)
        assert err.value.residual_lo.hex() == q_r(lo).hex()
        assert err.value.residual_hi.hex() == q_r(hi).hex()

    def test_bracket_clipped_to_admissible_alphas(self):
        with pytest.raises(ValueError):
            solve_regeneration(BASE, "alpha_1", 2.5, 3.0)

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            solve_regeneration(BASE, "t_hot", 3.5, 4.5)

    def test_failing_bracket_end_raises_its_first_failing_corner(self):
        # corner A leaves the float range at width_a = 1e200, where its
        # adaptive sums overflow, and at 1e-300, where E_1 does; the lower
        # end raises first
        base = replace(BASE, alpha_2=1.05)
        for lo, failing_width in ((1.0, 1e200), (1e-300, 1e-300)):
            with pytest.raises(FracStirlingError) as want:
                summarize(corners(replace(base, width_a=failing_width))[0])
            with pytest.raises(FracStirlingError) as err:
                solve_regeneration(base, "width_a", lo, 1e200)
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
        assert sum(calls) <= 4 * len(calls)  # Anderson-Bjorck: about two steps a solve


class TestCornerSummaries:
    """Each well holds one state per node value of the axes that move it, unsorted."""

    @staticmethod
    def corner_call(monkeypatch, run):
        """The kernel arguments and the result of the one corner summary that `run` makes."""
        calls, summaries, kernel = [], cycle._corner_summaries, cycle.summarize_many

        def recording(base, nodes, rel_tol, levels):
            args = []
            monkeypatch.setattr(cycle, "summarize_many", lambda *a: args.append(a) or kernel(*a))
            result = summaries(base, nodes, rel_tol, levels)
            monkeypatch.setattr(cycle, "summarize_many", kernel)
            calls.append((*args, result))
            return result

        monkeypatch.setattr(cycle, "_corner_summaries", recording)
        monkeypatch.setattr(solver, "_corner_summaries", recording)
        run()
        ((_, _, mass, temperature, *_), (table, ids)), = calls
        return table, ids, mass, temperature

    @staticmethod
    def check(call, nodes, moving):
        """Every node's corners, and `moving[w]` states in well w at each temperature."""
        table, ids, mass, temperature = call
        assert ids.shape == (4, len(nodes))
        for k, params in enumerate(nodes):
            for corner, state in zip(corners(params), ids[:, k].tolist()):
                well = corner.well
                got = (table["width"][state], table["alpha"][state], mass[state], temperature[state])
                assert got == (well.width, well.alpha, well.mass, corner.temperature), (k, state)
                # the rows a solve step re-sums are the arguments this call summed
                assert (table["mass"][state], table["temperature"][state]) == (mass[state], temperature[state])
        ad, bc = moving
        assert table["width"].size == table["alpha"].size == 2 * (ad + bc)
        assert np.unique(ids[[0, 3]]).size == 2 * ad and np.unique(ids[[1, 2]]).size == 2 * bc

    @pytest.mark.parametrize("command", ["sweep", "trace"])
    @pytest.mark.parametrize("px, py", itertools.permutations(solver.SWEEPABLE, 2))
    def test_sweep_and_scan_wells_follow_their_axes(self, monkeypatch, command, px, py):
        xs, ys = [1.1, 1.3, 1.6], [1.2, 1.7]

        def run():
            if command == "sweep":
                sweep(BASE, SweepAxis(px, 1.1, 1.6, 3), SweepAxis(py, 1.2, 1.7, 2), levels=10)
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # a trace without any root warns
                    trace_curve(BASE, px, py, xs, (1.2, 1.7), levels=10, scan_points=2)

        if command == "sweep":
            xs = SweepAxis(px, 1.1, 1.6, 3).values()
        call = self.corner_call(monkeypatch, run)
        nodes = [replace(BASE, **{px: x, py: y}) for x in xs for y in ys]
        # the states of a well: the product of the lengths of the axes that move it
        moving = [math.prod(len(v) for p, v in ((px, xs), (py, ys)) if p in well)
                  for well in (("width_a", "alpha_2"), ("width_b", "alpha_1"))]
        self.check(call, nodes, moving)

    @pytest.mark.parametrize("parameter", solver.SWEEPABLE)
    def test_solve_with_equal_ends_sums_each_end(self, monkeypatch, parameter):
        def run():
            with pytest.raises(NoRootError):
                solve_regeneration(BASE, parameter, 1.3, 1.3, levels=10)

        call = self.corner_call(monkeypatch, run)
        ad = parameter in ("width_a", "alpha_2")
        self.check(call, [replace(BASE, **{parameter: 1.3})] * 2, (2, 1) if ad else (1, 2))


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
        solved = solve_regeneration(base, parameter, lo, hi, tol=1e-11, levels=levels)
        sweep_parameter = "width_a" if parameter == "alpha_1" else "alpha_1"
        grid = [getattr(base, sweep_parameter) * (1.0 + 0.004 * i) for i in range(3)]
        traced = trace_curve(base, sweep_parameter, parameter, grid, domain, tol=1e-11, levels=levels)
        assert traced.status.tolist() == ["root"] * 3
        nodes = [(solved.params, solved.residual)] + [
            (replace(base, **{sweep_parameter: g, parameter: x}), residual)
            for g, (x, residual) in zip(grid, solved_nodes(traced))
        ]
        for params, residual in nodes:
            assert residual == abs(regenerator_heat(params, levels=levels)) <= 1e-11

    @pytest.mark.parametrize("levels", [10, None])
    @pytest.mark.parametrize("sweep_parameter, parameter", itertools.permutations(solver.SWEEPABLE, 2))
    def test_every_step_is_regenerator_heat_bitwise(self, monkeypatch, sweep_parameter, parameter, levels):
        # a step re-sums the moving well's rows of the scan table with the
        # solved parameter set to x, whichever well the sweep moves; the
        # scalar q_r at the grid value and x, all four corners summed afresh,
        # must be the step's q_r bit for bit
        base = solve_regeneration(BENCH_ROWS[5].pair_params(), "alpha_1", 1.49, 1.6, levels=levels).params
        bracket = (1.000001, 2.0) if parameter.startswith("alpha") else (0.3, 3.0)
        lockstep, steps = solver._false_position, []

        def recording(q_r, *args):
            def recorded(active, x):
                fx = q_r(active, x)
                steps.extend(zip(x.tolist(), fx.tolist()))
                return fx

            return lockstep(recorded, *args)

        monkeypatch.setattr(solver, "_false_position", recording)
        count = 0
        # one-node traces around a point of the locus, where every parameter has a root
        for g in (getattr(base, sweep_parameter) * (1.0 + d) for d in (-0.005, 0.0, 0.005)):
            steps.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a node without a root warns
                trace_curve(base, sweep_parameter, parameter, [g], bracket, levels=levels)
            for x, f in steps:
                params = replace(base, **{sweep_parameter: g, parameter: x})
                assert f.hex() == regenerator_heat(params, levels=levels).hex(), (g, x)
            count += len(steps)
        assert count > 0


def one_node_trace(node, parameter, lo, hi, **kwargs):
    """`trace_curve` of `parameter` at the single node `node`, whose two scan points are exactly lo and hi."""
    sweep_parameter = "alpha_2" if parameter != "alpha_2" else "alpha_1"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a trace without any root warns
        return trace_curve(node, sweep_parameter, parameter, [getattr(node, sweep_parameter)], (lo, hi),
                           scan_points=2, **kwargs)


class TestTraceCurve:
    def test_single_node_reduces_to_solve(self):
        # a solve is the one-node trace whose two scan points are its bracket ends
        node, lo, hi = replace(BASE, alpha_2=1.579), 1.47, 1.56
        solved = solve_regeneration(node, "alpha_1", lo, hi, tol=1e-9, levels=10)
        traced = one_node_trace(node, "alpha_1", lo, hi, tol=1e-9, levels=10)
        assert traced.status.tolist() == ["root"] and solved.residual <= 1e-9
        assert repr(solved_nodes(traced)) == repr([(solved.params.alpha_1, solved.residual)])

    @pytest.mark.parametrize("status, node, parameter, lo, hi, kwargs, error", [
        ("failing_corner", replace(BASE, alpha_2=1.05), "width_a", 1.0, 1e200, {}, FracStirlingError),
        ("no_sign_change", BASE, "alpha_1", 1.95, 2.0, dict(levels=10), NoRootError),
        # at tol = 0 this bracket collapses before q_r reaches 0 exactly
        ("solve_failure", replace(BASE, alpha_2=1.61), "alpha_1", 1.587302, 1.603175, dict(tol=0.0), SolverError),
    ])
    def test_single_node_gap_is_the_error_of_a_solve(self, status, node, parameter, lo, hi, kwargs, error):
        traced = one_node_trace(node, parameter, lo, hi, **kwargs)
        with pytest.raises(FracStirlingError) as err:
            solve_regeneration(node, parameter, lo, hi, **kwargs)
        assert traced.status.tolist() == [status] and np.isnan(traced.root).all()
        assert type(err.value) is error

    @pytest.mark.parametrize("scan_points", [2, 64])
    def test_the_last_scan_point_is_the_bracket_end(self, monkeypatch, scan_points):
        # lo + (scan_points - 1) * step rounds below hi on this width bracket;
        # the scan still ends at hi itself, as a solve's does
        lo, hi = 2.843846066906133, 21.12976136239565
        assert solver._uniform(lo, hi, scan_points)[-1] != hi
        scans, summaries = [], solver._corner_summaries

        def recording(base, nodes, *args):
            scans.append(nodes["width_a"].tolist())
            return summaries(base, nodes, *args)

        monkeypatch.setattr(solver, "_corner_summaries", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a trace without any root warns
            trace_curve(BASE, "alpha_2", "width_a", [1.579], (lo, hi), levels=10, scan_points=scan_points)
        (scan,) = scans
        assert len(scan) == scan_points and scan[0] == lo and scan[-1] == hi

    def test_a_scan_point_within_tol_is_the_root_a_solve_accepts(self):
        # q_r(1.502) = 4.5e-5 <= tol and q_r keeps its sign across the bracket:
        # the solve takes the end as a root, and so does the trace's scan
        solved = solve_regeneration(BASE, "alpha_1", 1.502, 1.9, tol=1e-4, levels=10)
        traced = trace_curve(BASE, "alpha_2", "alpha_1", [1.579], (1.502, 1.9), tol=1e-4, levels=10,
                             scan_points=2)
        assert 0.0 < solved.residual <= 1e-4 and solved.params.alpha_1 == 1.502
        assert repr(solved_nodes(traced)) == repr([(1.502, solved.residual)])

    def test_a_width_bracket_up_to_the_float_maximum_scans(self):
        # the scan points that overflow are the end itself; every point past
        # the first fails its level sum, so the node is a gap, not a ValueError
        with pytest.warns(UserWarning, match="no regeneration root"):
            traced = trace_curve(BASE, "alpha_2", "width_a", [1.579], (1.0, MAX))
        assert traced.status.tolist() == ["failing_corner"]

    def test_follows_upper_branch_monotonically(self):
        grid = [1.579 + 0.05 * i for i in range(4)]
        traced = trace_curve(BASE, "alpha_2", "alpha_1", grid, (1.482, 2.0), tol=1e-8, levels=10)
        assert traced.status.tolist() == ["root"] * len(grid)
        alphas = traced.root.tolist()
        assert all(b > a for a, b in zip(alphas, alphas[1:]))
        assert alphas[0] == pytest.approx(1.502, abs=5e-3)
        for g, x in zip(grid, alphas):
            assert abs(evaluate(replace(BASE, alpha_2=g, alpha_1=x), levels=10).q_r) <= 1e-8

    def test_wider_wells_shift_the_locus_down_in_alpha1(self):
        # at a shared alpha_2 the upper branch sits lower in alpha_1 when
        # both widths grow; equivalently the locus needs a higher alpha_2
        # at shared alpha_1 (visible already in the benchmark anchors)
        at = {}
        for la, lb, lo in [(1.0, 1.4, 1.482), (1.2, 1.6, 1.545), (1.4, 1.8, 1.640)]:
            base = CycleParams(la, lb, 1.5, 1.8, **BATHS)
            traced = trace_curve(base, "alpha_2", "alpha_1", [1.8], (lo, 2.0), tol=1e-8, levels=10)
            assert traced.status.tolist() == ["root"]
            at[(la, lb)] = traced.root[0]
        assert at[(1.0, 1.4)] > at[(1.2, 1.6)] > at[(1.4, 1.8)]

    def test_gap_nodes_below_the_fold(self):
        # the locus is born at a fold in alpha_2; below it there is no root
        grid = [1.40, 1.45, 1.50]
        with pytest.warns(UserWarning, match="no regeneration root"):
            traced = trace_curve(BASE, "alpha_2", "alpha_1", grid, (1.3, 2.0), tol=1e-8, levels=10)
        assert traced.status.tolist() == ["no_sign_change"] * 3

    def test_mixed_gaps_preserve_order(self):
        grid = [1.50, 1.60, 1.70]
        traced = trace_curve(BASE, "alpha_2", "alpha_1", grid, (1.482, 2.0), tol=1e-8, levels=10)
        assert traced.status.tolist() == ["no_sign_change", "root", "root"]

    def test_failing_node_becomes_gap(self):
        # at L_B = 1e200 the level sum leaves the float range; only that node is lost
        base = CycleParams(1.0, 1.4, 1.5, 1.6, **BATHS)
        traced = trace_curve(base, "width_b", "alpha_1", [1.4, 1e200], (1.3, 2.0))
        assert traced.status.tolist() == ["root", "failing_corner"]

    def test_failing_scan_point_makes_the_node_a_gap(self):
        # q_r changes sign between the first two scan points, 1 and 1.6e76,
        # but the level sums of widths past about 4e76 leave the float range
        # further along the scan; a bracket that stops short of them has a root
        base = CycleParams(1.0, 1.4, 1.502, 1.579, **BATHS)
        with pytest.warns(UserWarning, match="no regeneration root"):
            traced = trace_curve(base, "alpha_2", "width_b", [1.579], (1.0, 1e78))
        assert traced.status.tolist() == ["failing_corner"]
        for hi in (1e3, 3e76):
            traced = trace_curve(base, "alpha_2", "width_b", [1.579], (1.0, hi))
            assert traced.status.tolist() == ["root"]
            assert abs(regenerator_heat(replace(base, width_b=traced.root[0]))) <= 1e-8

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

    @pytest.mark.parametrize("sweep_parameter, solve_parameter", [("mass", "alpha_1"), ("alpha_2", "t_hot")])
    def test_parameter_outside_the_sweepable_ones_raises(self, sweep_parameter, solve_parameter):
        with pytest.raises(ValueError, match="parameters must be among"):
            trace_curve(BASE, sweep_parameter, solve_parameter, [1.6, 1.7], (1.4, 2.0))

    @pytest.mark.parametrize("levels", [10, None])
    def test_scan_makes_no_scalar_q_r_call(self, monkeypatch, levels):
        # the 64-point scans and the false-position steps run in the batched
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
        traced = trace_curve(BASE, "alpha_2", "alpha_1", grid, (1.000001, 2.0), levels=levels)
        assert traced.status.tolist() == ["root"] * len(grid)
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
        chunked = trace_curve(*args, levels=levels)
        assert repr(solved_nodes(chunked)) == repr(solved_nodes(whole))
        assert chunked.status.tolist() == whole.status.tolist()
        assert len(scans) == len(grid)
        solved = sum(p is not None for p in solved_nodes(whole))
        assert solved >= 2 and whole_steps < len(steps) <= 10 * solved

    def test_a_chunk_chooses_from_the_root_before_it(self, monkeypatch):
        # two branches cross the bracket at every node; the upper one lies
        # nearest the bracket midpoint at the first node and the lower one at
        # the last, so only a root carried from chunk to chunk keeps the trace
        # on the upper branch
        args = (BASE, "alpha_2", "alpha_1", [1.6, 1.7, 1.8, 1.9, 2.0], (1.06, 2.0))
        whole = trace_curve(*args, levels=10)
        roots = whole.root.tolist()
        assert whole.status.tolist() == ["root"] * 5 and roots == sorted(roots)
        for node, branch in ((1.6, roots[0]), (2.0, 1.21)):  # a one-node trace chooses nearest the midpoint
            lone = trace_curve(BASE, "alpha_2", "alpha_1", [node], (1.06, 2.0), levels=10).root[0]
            assert lone == pytest.approx(branch, abs=5e-3)
        monkeypatch.setattr(solver, "_SCAN_CHUNK", 1)
        assert repr(trace_curve(*args, levels=10).root.tolist()) == repr(roots)

    @pytest.mark.parametrize("levels", [10, None])
    def test_every_scan_value_is_regenerator_heat_bitwise(self, monkeypatch, levels):
        # the batched scan sums each corner state beside hundreds of others,
        # with other cuts; a lone `regenerator_heat` gives the same bits
        scans, heats = [], solver._regenerator_heats
        monkeypatch.setattr(solver, "_regenerator_heats", lambda *args: scans.append(heats(*args)[0]) or heats(*args))
        grid, bracket, points = [1.55, 1.6, 1.7], (1.3, 2.0), 16
        trace_curve(BASE, "alpha_2", "alpha_1", grid, bracket, levels=levels, scan_points=points)
        (scan,) = scans
        xs = solver._scan_points(*bracket, points)
        want = [regenerator_heat(replace(BASE, alpha_2=g, alpha_1=x), levels=levels) for g in grid for x in xs]
        assert scan.tolist() == want and [v.hex() for v in scan.tolist()] == [v.hex() for v in want]

    def test_exact_root_at_scan_point_is_solved(self):
        # equal widths and exponents make q_r vanish exactly at the scan's end
        base = CycleParams(1.0, 1.0, 2.0, 2.0, **BATHS)
        traced = trace_curve(base, "alpha_2", "alpha_1", [1.9, 2.0], (1.000001, 2.0), levels=10)
        assert solved_nodes(traced)[1] == (base.alpha_1, 0.0)

    @pytest.mark.parametrize(
        "sweep_parameter, solve_parameter, grid, bracket, levels",
        [
            ("alpha_2", "width_a", [1.6, 1.7], (0.0, 1.0), None),  # the first scan point
            ("alpha_2", "width_a", [2.5, 1.7], (0.0, 1.0), 0),  # the first grid value
            ("alpha_2", "width_a", [1.6, 2.5], (0.0, 1.0), 0),  # a scan point before the cut
            ("alpha_2", "alpha_1", [1.6, 2.5, 3.0], (1.4, 2.0), 0),  # the cut before the grid
            ("alpha_2", "alpha_1", [1.6, 1.8, 2.5, 3.0], (1.4, 2.0), None),  # the first bad grid value
            ("width_b", "alpha_1", [1.0, math.inf], (1.4, 2.0), None),
            ("width_b", "alpha_1", [1.0, -1.0], (1.4, 2.0), None),
            ("width_b", "alpha_1", [math.nan], (1.4, 2.0), None),
        ],
    )
    def test_argument_errors_raise_in_scan_order(self, sweep_parameter, solve_parameter, grid, bracket, levels):
        # the scalar checks the array test replaced: CycleParams on the first
        # grid value and each scan point, the cut arguments, then the other
        # grid values
        lo, hi = solver._clip_bracket(solve_parameter, *bracket)
        with pytest.raises(ValueError) as want:
            first = replace(BASE, **{sweep_parameter: grid[0]})
            for x in solver._scan_points(lo, hi, solver.DEFAULT_SCAN_POINTS):
                replace(first, **{solve_parameter: x})
            thermo._check_cut_args(DEFAULT_REL_TOL, levels)
            for g in grid[1:]:
                replace(BASE, **{sweep_parameter: g})
        with pytest.raises(ValueError) as err:
            trace_curve(BASE, sweep_parameter, solve_parameter, grid, bracket, levels=levels)
        assert str(err.value) == str(want.value)

    @pytest.mark.parametrize(
        "solve_parameter, bracket, kwargs, message",
        [
            ("alpha_1", (1.3, 2.0), dict(rel_tol=5.0), "rel_tol must lie in"),
            ("alpha_1", (1.3, 2.0), dict(levels=0), "levels must lie in"),
            ("width_a", (0.0, 1.0), {}, "width_a must be positive and finite, got 0.0"),
        ],
        ids=["rel_tol", "levels", "scan point"],
    )
    def test_an_empty_grid_checks_its_other_arguments(self, solve_parameter, bracket, kwargs, message):
        # as `sweep` does; only grid values are left to check
        with pytest.raises(ValueError, match=message):
            trace_curve(BASE, "alpha_2", solve_parameter, [], bracket, **kwargs)

    def test_grid_value_past_the_float_range_raises_as_cycle_params(self):
        # a Python int that numpy cannot hold as a float
        with pytest.raises(ValueError) as want:
            replace(BASE, width_a=10**400)
        for grid in ([1.0, 10**400], [10**400, 1.0]):
            with pytest.raises(ValueError) as err:
                trace_curve(BASE, "width_a", "alpha_1", grid, (1.3, 2.0))
            assert str(err.value) == str(want.value)

    @pytest.mark.parametrize(
        "grid, field, value",
        [([1.5], "width_a", 10**400), ([3.0], "alpha_2", 3.0)],
        ids=["the bracket end", "the first grid value"],
    )
    def test_bracket_end_past_the_float_range_raises_in_scan_order(self, grid, field, value):
        # no uniform scan spans [1, 10**400]: its end is checked as the scan point it would be
        with pytest.raises(ValueError) as want:
            replace(BASE, **{field: value})
        with pytest.raises(ValueError) as err:
            trace_curve(BASE, "alpha_2", "width_a", grid, (1.0, 10**400))
        assert str(err.value) == str(want.value)

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

    @pytest.mark.parametrize("scan_points", [9.5, 9.0])
    def test_rejects_scan_points_that_are_no_integer(self, scan_points):
        # a float count would reach the scan's reshape as a TypeError
        with pytest.raises(ValueError, match="need an integer number of scan points, got 9"):
            trace_curve(BASE, "alpha_2", "alpha_1", [1.6, 1.7], (1.4, 2.0), scan_points=scan_points)


# traces with every kind of node: roots, and gaps of each status, ten-level
# and adaptive, with alpha and width solves
TRACES = {
    "fold": (BASE, "alpha_2", "alpha_1", [1.40, 1.45, 1.5, 1.6, 1.7], (1.3, 2.0), dict(levels=10)),
    "failing corner": (replace(BASE, alpha_2=1.6), "width_b", "alpha_1", [1.4, 1e200], (1.3, 2.0), {}),
    "collapsed solve": (BASE, "alpha_2", "alpha_1", [1.55 + 0.03 * i for i in range(5)], (1.000001, 2.0),
                        dict(tol=0.0)),
    "width solve": (replace(BASE, alpha_1=1.502), "alpha_2", "width_b", [1.579, 1.6, 1.65], (1.0, 1e3), {}),
    "alpha sweep": (BASE, "alpha_1", "width_a", [1.45, 1.5, 1.55], (0.3, 3.0), dict(levels=10)),
}
STATUSES = {
    "fold": ["no_sign_change"] * 3 + ["root"] * 2,
    "failing corner": ["root", "failing_corner"],
    "collapsed solve": ["root", "root", "solve_failure", "root", "root"],
    "width solve": ["root", "root", "no_sign_change"],
    "alpha sweep": ["no_sign_change", "no_sign_change", "root"],
}


def run_trace(name):
    base, sweep_parameter, solve_parameter, grid, bracket, kwargs = TRACES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return trace_curve(base, sweep_parameter, solve_parameter, grid, bracket, **kwargs)


class TestTraceResult:
    def test_arrays_are_pinned(self):
        # the sha256 of the four arrays, computed at commit 3a85dd2, where the
        # reprs of the traces' `points` lists still had the pin of ddaa282
        digest = hashlib.sha256()
        for name in TRACES:
            result = run_trace(name)
            for v in (result.grid, result.root, result.residual):
                digest.update(v.tobytes())
            digest.update(",".join(result.status.tolist()).encode())
        assert digest.hexdigest() == "d88da146884a76c2efa14cb3fb34196aade8d04d65d2e883f8f266be7c614c76"

    @pytest.mark.parametrize("name", TRACES)
    def test_arrays_agree_with_points(self, name):
        # a solved node's root and residual are a point of the locus: its
        # residual is the scalar |q_r| there bit for bit
        result = run_trace(name)
        base, sweep_parameter, solve_parameter, grid, _, kwargs = TRACES[name]
        assert isinstance(result, TraceResult)
        assert result.grid.tolist() == grid and result.status.tolist() == STATUSES[name]
        gap = result.status != "root"
        assert (np.isnan(result.root) == gap).all() and (np.isnan(result.residual) == gap).all()
        for g, node in zip(grid, solved_nodes(result)):
            if node is not None:
                params = replace(base, **{sweep_parameter: g, solve_parameter: node[0]})
                assert node[1] == abs(regenerator_heat(params, levels=kwargs.get("levels")))
        for v in (result.grid, result.root, result.residual, result.status):
            assert not v.flags.writeable

    def test_a_failing_scan_point_is_a_failing_corner(self):
        # the scan's widths past about 4e76 fail their level sums, though q_r
        # changes sign before them
        with pytest.warns(UserWarning, match="no regeneration root"):
            result = trace_curve(replace(BASE, alpha_1=1.502), "alpha_2", "width_b", [1.579], (1.0, 1e78))
        assert result.status.tolist() == ["failing_corner"]

    def test_an_empty_grid_has_empty_arrays(self):
        result = trace_curve(BASE, "alpha_2", "alpha_1", [], (1.3, 2.0))
        assert all(v.size == 0 for v in (result.grid, result.root, result.residual, result.status))


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

    @pytest.mark.parametrize("count", [4.5, 4.0, np.float64(4.0)])
    def test_rejects_a_count_that_is_no_integer(self, count):
        # `values` would meet a float count in range() as a TypeError
        with pytest.raises(ValueError, match="need an integer number of grid nodes, got 4"):
            SweepAxis("alpha_1", 1.2, 1.8, count)

    def test_accepts_a_numpy_integer_count(self):
        assert SweepAxis("alpha_1", 1.2, 1.8, np.int64(4)).values() == SweepAxis("alpha_1", 1.2, 1.8, 4).values()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        ends=st.tuples(st.floats(5e-324, MAX), st.one_of(st.just(MAX), st.floats(5e-324, MAX))).filter(
            lambda ends: ends[0] < ends[1]),
        count=st.integers(2, 64),
    )
    @example(ends=(1.0, MAX), count=4)
    def test_every_node_of_a_valid_width_axis_is_valid(self, ends, count):
        # lo + i * step may overflow where hi is near the float maximum: that
        # node is hi, every other keeps its bits, and the sweep fails only by node
        axis = SweepAxis("width_a", *ends, count)
        values = axis.values()
        step = (ends[1] - ends[0]) / (count - 1)
        assert values == [v if v < math.inf else ends[1] for v in (ends[0] + i * step for i in range(count))]
        assert all(0.0 < v <= MAX for v in values)
        grid = sweep(BASE, axis, SweepAxis("alpha_2", 1.5, 1.6, 2), levels=10)
        for i, j in itertools.product(range(count), range(2)):
            finite = all(math.isfinite(v[i, j]) for v in grid.columns.values())
            assert finite == ((i, j) not in grid.errors)


class TestSweep:
    def test_matches_direct_evaluation_bitwise(self):
        base = CycleParams(1.0, 1.0, 1.5, 1.5, **BATHS)
        ax = SweepAxis("alpha_1", 1.2, 1.8, 2)
        ay = SweepAxis("alpha_2", 1.3, 1.9, 2)
        grid = sweep(base, ax, ay)
        for i, x in enumerate(ax.values()):
            for j, y in enumerate(ay.values()):
                assert_node_is(grid, i, j, evaluate(replace(base, alpha_1=x, alpha_2=y)))

    def test_row_major_shape(self):
        base = CycleParams(1.0, 1.0, 1.5, 1.5, **BATHS)
        ax, ay = SweepAxis("width_a", 0.8, 1.2, 3), SweepAxis("width_b", 0.9, 1.3, 2)
        grid = sweep(base, ax, ay)
        assert {v.shape for v in grid.columns.values()} == {(3, 2)}
        assert grid.corner_states.shape == (4, 3, 2)
        assert list(grid.columns) == [field.name for field in fields(CycleReport)[:8]]
        for (i, x), (j, y) in itertools.product(enumerate(ax.values()), enumerate(ay.values())):
            assert_node_is(grid, i, j, evaluate(replace(base, width_a=x, width_b=y)))
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
        assert grid.columns["q_r"][0, 0] < 0  # (0.6, 0.9)
        assert grid.columns["q_r"][1, 1] > 0  # (1.0, 1.3)

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
        # the widest nodes, whose E_1 underflows to 0, fail and must not
        # abort; the (1.0, 1.6) node takes the heat-capacity crossing search
        base = CycleParams(0.5, 1.0, 2.0, 1.5, **BATHS)
        ax = SweepAxis("width_b", 1.0, 1e200, 2)
        ay = SweepAxis("alpha_2", 1.4, 1.6, 2)
        grid = sweep(base, ax, ay)
        for j, y in enumerate(ay.values()):
            assert_node_is(grid, 0, j, evaluate(replace(base, width_b=1.0, alpha_2=y)))
            assert (0, j) not in grid.errors
            assert "float range" in grid.errors[1, j]
        assert crosses(replace(base, alpha_2=ay.values()[1]))

    def test_unrepresentable_level_scale_is_an_error_node(self):
        base = CycleParams(1.0, 1.0, 2.0, 2.0, **BATHS)
        ax = SweepAxis("width_a", 1e-200, 1.0, 3)
        ay = SweepAxis("alpha_2", 1.3, 1.6, 2)
        grid = sweep(base, ax, ay)
        assert list(grid.errors) == [(0, 1)] and "float range" in grid.errors[0, 1]
        for i, x in enumerate(ax.values()):
            for j, y in enumerate(ay.values()):
                if (i, j) != (0, 1):
                    assert_node_is(grid, i, j, evaluate(replace(base, width_a=x, alpha_2=y)))
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
            (replace(base, alpha_1=x, alpha_2=y), i, j)
            for i, x in enumerate(ax.values()) for j, y in enumerate(ay.values())
        ]
        assert sum(crosses(params, levels) for params, _, _ in nodes) >= 9
        assert grid.errors == {}
        for params, i, j in nodes:
            assert_node_is(grid, i, j, evaluate(params, levels=levels))

    def test_failing_corner_is_worded_without_evaluate(self, monkeypatch):
        # corner B, (width_b, alpha_1) at t_hot, has an E_1 that underflows
        # to 0 at every node; it is the first corner to fail at each, and
        # its words come from the sweep's kernel call: no one-state call
        base = CycleParams(1.0, 1e200, 2.0, 1.5, **BATHS)
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
                with pytest.raises(FracStirlingError) as err:
                    evaluate(replace(base, width_a=x, alpha_2=y))
                assert type(err.value) is FracStirlingError
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
                assert grid.errors[i, j] == str(err.value)

    def test_block_cap_splits_a_same_cut_grid(self, monkeypatch):
        # with ten levels every corner state shares one padded length, so the
        # default cap sums them in one block; a one-row cap must give the same bits
        base = CycleParams(1.0, 1.4, 1.5, 1.579, **BATHS)
        ax = SweepAxis("width_a", 0.8, 1.2, 20)
        ay = SweepAxis("alpha_2", 1.3, 1.9, 20)
        rows = []
        row_sums = thermo._row_sums

        def counting_row_sums(g, *args):
            rows.append(len(g))
            return row_sums(g, *args)

        monkeypatch.setattr(thermo, "_row_sums", counting_row_sums)
        default = sweep(base, ax, ay, levels=10)
        assert max(rows) == 2 * 20 * 20 + 2  # A and D at every node, B and C once
        rows.clear()
        monkeypatch.setattr(thermo, "_BLOCK_ENTRIES", 1)
        capped = sweep(base, ax, ay, levels=10)
        assert len(rows) >= 2 * 20 * 20 + 2 and max(rows) == 1
        for name in default.columns:
            assert repr(capped.columns[name].tolist()) == repr(default.columns[name].tolist())
        for name in ("state_energy", "state_entropy", "corner_states"):
            assert repr(getattr(capped, name).tolist()) == repr(getattr(default, name).tolist())
        assert capped.errors == default.errors == {}
