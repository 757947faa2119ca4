"""The failure contract over the validated domain.

Every CycleParams that constructs evaluates to a report whose fields are all
finite, or raises a FracStirlingError; nothing else escapes.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstirling import (
    CycleParams,
    DegenerateCycleError,
    FracStirlingError,
    NoRootError,
    SolverError,
    TruncationLimitError,
    evaluate,
)


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
