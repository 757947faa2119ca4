"""The failure contract over the validated domain.

Every CycleParams that constructs evaluates to a report whose fields are all
finite, or raises a FracStirlingError; nothing else escapes.  A sweep, which
evaluates its nodes in batches, gives at every node what `evaluate` gives.
"""

import math
from dataclasses import replace

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
    TruncationLimitError,
    evaluate,
    sweep,
)
from fracstirling.solver import SWEEPABLE


@pytest.mark.parametrize(
    "error", [TruncationLimitError, DegenerateCycleError, SolverError, NoRootError]
)
def test_failures_share_one_base(error):
    assert issubclass(error, FracStirlingError)
    assert issubclass(error, RuntimeError)


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


ALPHA = st.floats(1.0, 2.0, exclude_min=True)


# Widths reach 1e-250, where the level scale (pi/2L)^alpha overflows for most
# alpha.  Widths up to 10 and temperatures up to about 100 keep every cut
# below about 1e5 levels, so no example runs the sum out to MAX_LEVELS.
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    width_a=log_uniform(-250, 1),
    width_b=log_uniform(-250, 1),
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
