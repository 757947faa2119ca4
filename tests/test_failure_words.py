"""The words of a failing state, against the scalar rule they replaced.

`reference_error` is the scalar path that once worded every failure: it
recomputes E_1 and the cut of one state in Python floats.  The kernel's
failure kinds, and the messages worded from them by `summarize`, `evaluate`,
`regenerator_heat` and `sweep`, must match it type for type and byte for byte.
"""

import math
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstirling import (
    MAX_LEVELS,
    CycleParams,
    FracStirlingError,
    SweepAxis,
    ThermalState,
    TruncationLimitError,
    WellSpec,
    corners,
    cycle,
    evaluate,
    regenerator_heat,
    solver,
    summarize,
    sweep,
    thermo,
)
from fracstirling.spectrum import level_scale


def reference_error(state, rel_tol, levels):
    """The error of a state that `summarize_many` fails.

    Where E_1 is not a finite float, the levels leave the float range, and
    so do U = E_1 (1 + <g>) or F = E_1 - T ln T_0 where they overflow, with
    T_k summed over the cut's levels as one plain numpy row; otherwise
    there is no cut, fixed or from `_cut`: no level count up to MAX_LEVELS
    meets rel_tol.
    """
    well = state.well
    scale = math.inf
    with suppress(OverflowError):
        scale = level_scale(float(well.width), float(well.alpha), float(well.mass))
    if not scale < math.inf:
        return FracStirlingError(f"energy levels of {well} exceed the float range")
    temperature = float(state.temperature)
    if n := levels or thermo._cut(float(well.alpha), scale / temperature, rel_tol):
        # a finite E_1 with a cut fails only where U or F overflows
        g = np.arange(1.0, n + 1.0) ** float(well.alpha) - 1.0
        with np.errstate(over="ignore"):
            weights = np.exp(g * -min(scale / temperature, thermo._X_MAX))
        t0, t1 = float(np.sum(weights)), float(np.dot(g, weights))
        assert not (math.isfinite(scale + scale * (t1 / t0)) and math.isfinite(scale - temperature * math.log(t0)))
        return FracStirlingError(f"energy levels of {well} exceed the float range")
    return TruncationLimitError(
        f"partition sum for width={well.width}, alpha={well.alpha}, mass={well.mass}, "
        f"T={state.temperature} still unconverged at {MAX_LEVELS} levels (rel_tol={rel_tol})"
    )


def fails(state, rel_tol, levels):
    """Whether the kernel fails the state, by its n_cut alone."""
    well = state.well
    table = thermo.summarize_many([well.width], [well.alpha], [well.mass], [state.temperature],
                                  rel_tol, levels)
    return table["n_cut"][0] == 0


def expected_error(state, rel_tol, levels):
    """`reference_error`, or None where the scalar rule itself fails.

    With rel_tol below about 1e-16 and a tiny beta E_1, `_cut` takes the log
    of rel_tol * D after it underflows to 0 and raises "math domain error";
    no cut exists there, and `summarize` raises TruncationLimitError.
    """
    try:
        return reference_error(state, rel_tol, levels)
    except ValueError:
        assert levels is None and rel_tol < 1e-15
        return None


def assert_same_error(raised, want):
    if want is None:
        assert type(raised) is TruncationLimitError and "still unconverged" in str(raised)
        return
    assert type(raised) is type(want)
    assert str(raised) == str(want)


# floats across the whole range, ints as well
positive = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7e308),
    st.builds(lambda e, m: m * 10.0 ** e, st.integers(-300, 300), st.floats(1.0, 9.99)),
    st.integers(1, 10**12),
)
wide = st.one_of(st.floats(1e5, 1e15), st.integers(10**5, 10**15))
narrow = st.floats(min_value=5e-324, max_value=1e-150)
widths = st.one_of(positive, wide, narrow)
alphas = st.one_of(
    st.floats(1.0, 2.0, exclude_min=True),
    st.floats(1.0 + 1e-15, 1.001),
    st.just(2),
)
temperatures = st.one_of(st.floats(min_value=thermo._T_MIN, max_value=1.7e308), st.integers(1, 10**6))
rel_tols = st.one_of(st.just(thermo.DEFAULT_REL_TOL), st.floats(1e-300, 1e-6))
level_counts = st.sampled_from([None, None, 1, 10, 1000, MAX_LEVELS])


class TestFailureWords:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(widths, alphas, positive, temperatures, rel_tols, level_counts)
    def test_summarize_words_as_the_scalar_rule(self, width, alpha, mass, temperature, rel_tol, levels):
        state = ThermalState(WellSpec(width, alpha, mass), temperature)
        if not fails(state, rel_tol, levels):
            summarize(state, rel_tol, levels)  # raises nothing
            return
        with pytest.raises(FracStirlingError) as err:
            summarize(state, rel_tol, levels)
        assert_same_error(err.value, expected_error(state, rel_tol, levels))

    def test_no_cut_at_a_tiny_tolerance_is_a_truncation(self):
        # the scalar rule raised ValueError("math domain error") here
        state = ThermalState(WellSpec(1.0, 1.0000000000000002, 2.02162423844596e47), 1.0)
        with pytest.raises(TruncationLimitError, match="rel_tol=1e-300"):
            summarize(state, 1e-300)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(widths, alphas, temperatures, rel_tols, st.sampled_from([None, 10]))
    def test_evaluate_words_its_first_failing_corner(self, width, alpha, t_cold, rel_tol, levels):
        # the drawn well sits at corners A and D, an ordinary one at B and C
        t_hot = 2 * t_cold
        if not t_hot < math.inf:
            return
        params = CycleParams(width, 1, 2, alpha, t_hot, t_cold)
        failing = [s for s in corners(params) if fails(s, rel_tol, levels)]
        if not failing:
            return
        want = expected_error(failing[0], rel_tol, levels)
        for call in (evaluate, regenerator_heat):
            with pytest.raises(FracStirlingError) as err:
                call(params, rel_tol, levels)
            assert_same_error(err.value, want)

    @pytest.mark.parametrize("base", [CycleParams(1.0, 1.0, 2.0, 2.0, 4.0, 3.0), CycleParams(1, 1, 2, 2, 4, 3)])
    @pytest.mark.parametrize("levels", [None, 10])
    def test_sweep_nodes_word_as_the_scalar_rule(self, base, levels):
        # narrow wells leave the float range, wide ones truncate without a
        # fixed cut; an int base keeps its ints in the words
        ax = SweepAxis("width_a", 1e-302, 3e7, 4)
        ay = SweepAxis("alpha_2", 1.01, 1.6, 3)
        grid = sweep(base, ax, ay, levels=levels)
        assert len(grid.errors) == (11 if levels is None else 2)
        for (i, j), message in grid.errors.items():
            params = CycleParams(ax.values()[i], base.width_b, base.alpha_1, ay.values()[j],
                                 base.t_hot, base.t_cold, base.mass)
            failing = [s for s in corners(params) if fails(s, thermo.DEFAULT_REL_TOL, levels)]
            assert message == str(reference_error(failing[0], thermo.DEFAULT_REL_TOL, levels))


def test_all_failing_sweep_makes_one_kernel_call(monkeypatch):
    # every node has two truncating corners, A and D; their words come from
    # the failure kinds of the sweep's one kernel call
    base = CycleParams(1.0, 1.0, 2.0, 2.0, 4.0, 3.0)
    ax, ay = SweepAxis("width_a", 1e7, 3e7, 10), SweepAxis("alpha_2", 1.05, 1.95, 10)
    kernel, calls = thermo.summarize_many, []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return kernel(*args, **kwargs)

    for module in (thermo, cycle):
        monkeypatch.setattr(module, "summarize_many", counting)
    for module, name in ((thermo, "summarize"), (cycle, "summarize"), (cycle, "evaluate"),
                         (solver, "evaluate"), (cycle, "regenerator_heat"),
                         (solver, "regenerator_heat")):
        monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    grid = sweep(base, ax, ay)
    assert calls == [2 * (10 * 10 + 1)]  # 100 A/D wells and one B/C well at two baths
    monkeypatch.undo()
    assert len(grid.errors) == 100
    for (i, j), message in grid.errors.items():
        with pytest.raises(TruncationLimitError) as err:
            evaluate(CycleParams(ax.values()[i], 1.0, 2.0, ay.values()[j], 4.0, 3.0))
        assert message == str(err.value)
