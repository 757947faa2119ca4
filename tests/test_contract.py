"""The failure contract over the validated domain.

Every CycleParams that constructs evaluates to a report whose fields are all
finite, or raises a FracStirlingError; nothing else escapes.  A sweep, which
evaluates its nodes in batches, gives at every node what `evaluate` gives,
and a trace, which scans its brackets in batches, gives at every node what a
scalar scan and solve give.
"""

import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstirling import (
    CycleParams,
    DegenerateCycleError,
    FracStirlingError,
    NodeError,
    NoRootError,
    SolverError,
    SweepAxis,
    evaluate,
    find_brackets,
    regenerator_heat,
    solve_regeneration,
    sweep,
    trace_curve,
)
import fracstirling
from fracstirling.reference import BENCH_ROWS
from fracstirling import solver
from fracstirling.solver import SWEEPABLE, _scan_points


@pytest.mark.parametrize(
    "error", [DegenerateCycleError, SolverError, NoRootError]
)
def test_failures_share_one_base(error):
    assert issubclass(error, FracStirlingError)
    assert issubclass(error, RuntimeError)


def test_every_export_resolves_and_readme_names_every_error():
    # a name left in __all__ after its object is deleted fails `import *`;
    # README's failure list names exactly the FracStirlingError subclasses
    # that the package defines and exports
    for name in fracstirling.__all__:
        assert hasattr(fracstirling, name), name
    defined, stack = set(), [FracStirlingError]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.startswith("fracstirling."):
                defined.add(sub.__name__)
                stack.append(sub)
    exported = {name for name in fracstirling.__all__
                if isinstance(v := getattr(fracstirling, name), type) and issubclass(v, FracStirlingError)}
    assert exported == defined | {"FracStirlingError"}
    text = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    start = text.index("A failure is any `fracstirling.FracStirlingError` (")
    listed = re.findall(r"`(\w+)`", text[start:text.index(")", start)])
    assert set(listed) == defined


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


ALPHA = st.floats(1.0, 2.0, exclude_min=True)


# Widths reach 1e-250, where the level scale (pi/2L)^alpha overflows for most
# alpha, and 1e250, where an adaptive cut passes 1e100 levels or its sums
# leave the float range.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    width_a=log_uniform(-250, 250),
    width_b=log_uniform(-250, 250),
    alpha_1=ALPHA,
    alpha_2=ALPHA,
    t_cold=log_uniform(-1, 1),
    hot_ratio=st.floats(1.001, 10.0),
    mass=log_uniform(-1, 1),
    levels=st.sampled_from([None, 10]),
)
def test_finite_report_or_fracstirling_error(
    width_a, width_b, alpha_1, alpha_2, t_cold, hot_ratio, mass, levels
):
    params = CycleParams(
        width_a, width_b, alpha_1, alpha_2, t_cold * hot_ratio, t_cold, mass
    )
    try:
        report = evaluate(params, levels=levels)
    except FracStirlingError:
        return
    fields = (
        report.q_ab, report.q_bc, report.q_cd, report.q_da, report.work,
        report.q_r, report.q_h, report.efficiency, report.carnot,
        *report.corner_entropies, *report.corner_energies,
    )
    assert all(math.isfinite(v) for v in fields), report


def sweep_axis(parameter):
    value = log_uniform(-250, 1) if parameter.startswith("width") else ALPHA
    return (
        st.tuples(value, value, st.integers(2, 4))
        .map(lambda t: (min(t[:2]), max(t[:2]), t[2]))
        .filter(lambda t: t[0] < t[1])
        .map(lambda t: SweepAxis(parameter, *t))
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    width_a=log_uniform(-250, 1),
    width_b=log_uniform(-250, 1),
    alpha_1=ALPHA,
    alpha_2=ALPHA,
    t_cold=log_uniform(-1, 1),
    hot_ratio=st.floats(1.001, 10.0),
    mass=log_uniform(-1, 1),
    levels=st.sampled_from([None, 10]),
)
def test_sweep_equals_evaluate_at_every_node(
    data, width_a, width_b, alpha_1, alpha_2, t_cold, hot_ratio, mass, levels
):
    base = CycleParams(
        width_a, width_b, alpha_1, alpha_2, t_cold * hot_ratio, t_cold, mass
    )
    px, py = data.draw(st.permutations(SWEEPABLE))[:2]
    axis_x, axis_y = data.draw(sweep_axis(px)), data.draw(sweep_axis(py))
    grid = sweep(base, axis_x, axis_y, levels=levels)
    for i, x in enumerate(axis_x.values()):
        for j, y in enumerate(axis_y.values()):
            try:
                direct = evaluate(replace(base, **{px: x, py: y}), levels=levels)
            except FracStirlingError as exc:
                direct = NodeError(str(exc))
            # repr tells every float apart bit for bit, -0.0 from 0.0 too
            assert repr(grid.reports[i][j]) == repr(direct), (px, x, py, y)


def reference_trace(base, sweep_parameter, solve_parameter, grid, lo, hi, levels, points):
    """The trace node by node: a scalar scan, then a solve of the nearest bracket."""
    out, prev_root = [], None
    for g in grid:
        node = replace(base, **{sweep_parameter: g})

        def f(x):
            return regenerator_heat(replace(node, **{solve_parameter: x}), levels=levels)

        point = None
        try:
            intervals = find_brackets(f, lo, hi, points)
            if intervals:
                target = prev_root if prev_root is not None else 0.5 * (lo + hi)
                blo, bhi = min(
                    intervals, key=lambda iv: abs(0.5 * (iv[0] + iv[1]) - target)
                )
                point = solve_regeneration(node, solve_parameter, blo, bhi, levels=levels)
        except FracStirlingError:
            pass
        out.append(point)
        if point is not None:
            prev_root = getattr(point.params, solve_parameter)
    return out


def trace_grid(parameter, value):
    """1 to 4 increasing nodes near a Table-1 value of `parameter`."""
    if parameter.startswith("alpha"):
        start, step = st.floats(1.3, 1.9), st.floats(0.005, 0.05)
    else:
        start, step = st.floats(0.7, 1.3).map(lambda r: r * value), st.floats(0.01, 0.2)
    return st.tuples(start, step, st.integers(1, 4)).map(
        lambda t: [t[0] + i * t[1] for i in range(t[2])]
    ).filter(lambda grid: parameter.startswith("width") or grid[-1] <= 2.0)


def trace_bracket(parameter, value):
    if parameter.startswith("alpha"):
        return st.one_of(
            st.just((1.000001, 2.0)),
            st.tuples(st.floats(1.000001, 1.6), st.floats(1.7, 2.0)),
        )
    # a width bracket has no default; it is always explicit
    return st.tuples(st.floats(0.3, 0.95), st.floats(1.05, 3.0)).map(
        lambda t: (t[0] * value, t[1] * value)
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    row=st.sampled_from(BENCH_ROWS),
    levels=st.sampled_from([None, 10]),
    points=st.sampled_from([64, 9, 2]),
    failing=st.booleans(),
)
def test_trace_equals_scan_and_solve_at_every_node(data, row, levels, points, failing):
    base = row.pair_params()
    # same-well pairs such as width_a and alpha_2 are drawn too
    sweep_parameter, solve_parameter = data.draw(st.permutations(SWEEPABLE))[:2]
    grid = data.draw(trace_grid(sweep_parameter, getattr(base, sweep_parameter)))
    if failing and sweep_parameter.startswith("width"):
        grid.append(1e200)  # an adaptive level sum leaves the float range here
    lo, hi = data.draw(trace_bracket(solve_parameter, getattr(base, solve_parameter)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traced = trace_curve(
            base, sweep_parameter, solve_parameter, grid, (lo, hi),
            levels=levels, scan_points=points,
        ).points
    expected = reference_trace(
        base, sweep_parameter, solve_parameter, grid, lo, hi, levels, points
    )
    for g, got, want in zip(grid, traced, expected, strict=True):
        assert repr(got) == repr(want), (sweep_parameter, g, solve_parameter)
    assert len(caught) == all(p is None for p in expected)


GAP_BASE = CycleParams(1.0, 1.4, 1.5, 1.579, t_hot=4.0, t_cold=3.0)


def chosen_bracket(points, k, xs):
    """The scan interval that holds the root node k had in an unbroken trace."""
    root = points[k].params.alpha_1
    return next((a, b) for a, b in zip(xs, xs[1:]) if a < root < b)


def assert_only_node_is_a_gap(traced, k, base, grid, bracket, **kwargs):
    # the other nodes equal a trace without node k: a failed solve costs its
    # node only, and the root before it still picks the next node's bracket
    assert traced[k] is None
    rest = trace_curve(base, "alpha_2", "alpha_1", grid[:k] + grid[k + 1:], bracket, **kwargs).points
    assert repr(traced[:k] + traced[k + 1:]) == repr(rest)
    assert all(p is not None for p in rest)


def test_a_collapsed_solve_leaves_only_its_node_a_gap():
    # at tol = 0 most roots land on q_r == 0 exactly, but the bracket of
    # alpha_2 = 1.61 collapses first; that of 1.7, one step past this grid,
    # collapses too
    grid, bracket = [1.55 + 0.03 * i for i in range(5)], (1.000001, 2.0)
    traced = trace_curve(GAP_BASE, "alpha_2", "alpha_1", grid, bracket, tol=0.0).points
    assert_only_node_is_a_gap(traced, 2, GAP_BASE, grid, bracket, tol=0.0)
    node = replace(GAP_BASE, alpha_2=grid[2])
    f = lambda x: regenerator_heat(replace(node, alpha_1=x))
    (lo, hi), = [iv for iv in find_brackets(f, *bracket) if iv[0] > 1.5]
    with pytest.raises(SolverError) as err:
        solve_regeneration(node, "alpha_1", lo, hi, tol=0.0)
    assert type(err.value) is SolverError
    x = float(str(err.value).split()[3])
    assert lo < x < hi
    assert str(err.value) == (
        f"bracket collapsed at {x} with residual {regenerator_heat(replace(node, alpha_1=x))} "
        "above tol=0.0"
    )


@pytest.mark.parametrize("levels", [10, None])
def test_a_non_finite_step_leaves_only_its_node_a_gap(monkeypatch, levels):
    # the kernel gives nan inside node 2's bracket, as at a failing corner;
    # the scans, which sum through `cycle`, and the other brackets miss it
    grid, bracket = [1.58 + 0.05 * i for i in range(5)], (1.000001, 2.0)
    whole = trace_curve(GAP_BASE, "alpha_2", "alpha_1", grid, bracket, levels=levels).points
    lo, hi = chosen_bracket(whole, 2, _scan_points(*bracket, 64))
    kernel = solver.summarize_many

    def poisoned(width, alpha, *args):
        table = kernel(width, alpha, *args)
        table["internal_energy"][(lo < alpha) & (alpha < hi)] = np.nan
        return table

    monkeypatch.setattr(solver, "summarize_many", poisoned)
    traced = trace_curve(GAP_BASE, "alpha_2", "alpha_1", grid, bracket, levels=levels).points
    assert repr(traced[:2] + traced[3:]) == repr(whole[:2] + whole[3:])
    assert_only_node_is_a_gap(traced, 2, GAP_BASE, grid, bracket, levels=levels)
    expected = reference_trace(GAP_BASE, "alpha_2", "alpha_1", grid, *bracket, levels, 64)
    assert repr(traced) == repr(expected)
    with pytest.raises(SolverError, match="q_r evaluated to a non-finite value at") as err:
        solve_regeneration(replace(GAP_BASE, alpha_2=grid[2]), "alpha_1", lo, hi, levels=levels)
    assert type(err.value) is SolverError
    assert lo < float(str(err.value).split()[-1]) < hi
