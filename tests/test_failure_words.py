"""The words of a failing state, against a recheck in Python floats.

`reference_error` rechecks one state: its E_1 from `level_scale`, the one
formula of E_1, and, where the cut is short enough to sum, its level sums as
one plain numpy row.  The kernel's failed states, those whose U is nan,
and the messages worded from them by `summarize`, `evaluate`,
`regenerator_heat` and `sweep`, must match it type for type and byte for
byte.  Where no corner fails, q_r is finite.
"""

import math

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

    Every failure is one of the float range.  Where E_1 is no positive finite
    float, the energy levels leave it; elsewhere the level sums do: an
    adaptive cut has no finite N, or U, S, F or C leaves the float range.
    Where the cut, fixed or adaptive, holds at most MAX_LEVELS levels, the
    last is rechecked with T_k summed over its levels as one plain numpy row.
    """
    well = state.well
    scale = level_scale(well.width, well.alpha, well.mass)
    if not 0.0 < scale < math.inf:
        return FracStirlingError(f"energy levels of {well} exceed the float range")
    temperature = float(state.temperature)
    x = min(scale / temperature, thermo._MAX)
    with np.errstate(all="ignore"):  # x may underflow to 0
        n = levels or thermo._level_count(float(well.alpha), x, rel_tol)
    if n <= MAX_LEVELS:  # False at an infinite or nan N
        g = np.arange(1.0, math.ceil(n) + 1.0) ** float(well.alpha) - 1.0
        with np.errstate(over="ignore"):
            weights = np.exp(g * -x)
        t0, t1, t2 = float(np.sum(weights)), float(np.dot(g, weights)), float(np.dot(g * g, weights))
        fields = (scale + scale * (t1 / t0), x * (t1 / t0) + math.log(t0), scale - temperature * math.log(t0),
                  x * (x * t2 / t0) - (x * t1 / t0) ** 2)
        assert not all(map(math.isfinite, fields))
    return FracStirlingError(f"level sums of {well} leave the float range")


def fails(state, rel_tol, levels):
    """Whether the kernel fails the state, by its n_cut alone."""
    well = state.well
    table = thermo.summarize_many([well.width], [well.alpha], [well.mass], [state.temperature],
                                  rel_tol, levels)
    return table["n_cut"][0] == 0


def assert_same_error(raised, want):
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
        assert_same_error(err.value, reference_error(state, rel_tol, levels))

    @pytest.mark.parametrize("well, temperature, n_cut", [
        (WellSpec(1.0, 1.5), 4.0, 179),
        # rel_tol D underflows to 0 here, so only a sum of logs keeps L finite
        (WellSpec(1.0, 1.0000000000000002, 2.02162423844596e47), 1.0, 3.05e26),
    ], ids=["unit-width", "heavy-mass"])
    def test_a_tiny_tolerance_has_a_finite_cut(self, well, temperature, n_cut):
        # L sums -ln(rel_tol) and -ln(min(1, D_L)) as logs, so it stays finite
        s = summarize(ThermalState(well, temperature), 1e-300)
        assert s.n_cut == pytest.approx(n_cut, rel=0.01) and 0.0 <= s.tail_bound <= 1e-300
        assert all(map(math.isfinite, (s.internal_energy, s.entropy, s.free_energy, s.heat_capacity)))

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
        want = reference_error(failing[0], rel_tol, levels)
        for call in (evaluate, regenerator_heat):
            with pytest.raises(FracStirlingError) as err:
                call(params, rel_tol, levels)
            assert_same_error(err.value, want)

    @pytest.mark.parametrize("base", [CycleParams(1.0, 1.0, 2.0, 2.0, 4.0, 3.0), CycleParams(1, 1, 2, 2, 4, 3)])
    @pytest.mark.parametrize("levels", [None, 10])
    def test_sweep_nodes_word_as_the_scalar_rule(self, base, levels):
        # narrow wells leave the float range, and so do the sums of wide ones
        # without a fixed cut; an int base keeps its ints in the words
        ax = SweepAxis("width_a", 1e-302, 1e200, 4)
        ay = SweepAxis("alpha_2", 1.01, 1.6, 3)
        grid = sweep(base, ax, ay, levels=levels)
        assert len(grid.errors) == (11 if levels is None else 2)
        for (i, j), message in grid.errors.items():
            params = CycleParams(ax.values()[i], base.width_b, base.alpha_1, ay.values()[j],
                                 base.t_hot, base.t_cold, base.mass)
            failing = [s for s in corners(params) if fails(s, thermo.DEFAULT_REL_TOL, levels)]
            assert message == str(reference_error(failing[0], thermo.DEFAULT_REL_TOL, levels))


def test_all_failing_sweep_makes_one_kernel_call(monkeypatch):
    # every node has two corners, A and D, whose level sums leave the float
    # range; their words come from the nan U of the sweep's one kernel call
    base = CycleParams(1.0, 1.0, 2.0, 2.0, 4.0, 3.0)
    ax, ay = SweepAxis("width_a", 1e200, 3e200, 10), SweepAxis("alpha_2", 1.05, 1.95, 10)
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
        with pytest.raises(FracStirlingError) as err:
            evaluate(CycleParams(ax.values()[i], 1.0, 2.0, ay.values()[j], 4.0, 3.0))
        assert message == str(err.value)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(st.tuples(widths, widths), st.tuples(alphas, alphas), positive, st.tuples(temperatures, temperatures),
       rel_tols, st.sampled_from([None, 10]))
def test_finite_corners_give_a_finite_q_r(widths_, alphas_, mass, baths, rel_tol, levels):
    # U rises with T, so U_A - U_D >= 0 >= U_C - U_B up to a few ulps: q_r adds
    # two finite values of opposite sign and cannot overflow, so a solve
    # whose bracket ends have finite corners scans a finite q_r at both
    t_cold, t_hot = sorted(baths)
    if not t_hot > t_cold:
        return
    params = CycleParams(*widths_, *alphas_, t_hot, t_cold, mass)
    if any(fails(s, rel_tol, levels) for s in corners(params)):
        return
    assert math.isfinite(regenerator_heat(params, rel_tol, levels))
