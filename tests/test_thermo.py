import math
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstirling import (
    MAX_LEVELS,
    EnsembleSummary,
    FracStirlingError,
    ThermalState,
    TruncationLimitError,
    WellSpec,
    occupations,
    summarize,
    thermo,
)
from fracstirling.spectrum import energy_levels, level_scale
from fracstirling.thermo import summarize_many

# Frozen oracle for (L=1, alpha=2, m=1, T=4), mpmath at 50 digits over 200
# levels: Z, U, S of the canonical ensemble.
ORACLE_Z = 1.0957691216057711
ORACLE_U = 2.9126010035119425
ORACLE_S = 0.8196067617436427

UNIT_STATE = ThermalState(WellSpec(1.0, 2.0, 1.0), 4.0)


def quadratic_oracle(width, mass, temperature, n_terms=4000):
    """Independent quadratic-dispersion ensemble, plain Python accumulation."""
    beta = 1.0 / temperature
    e1 = (math.pi / (2.0 * width)) ** 2 / (2.0 * mass)
    z = u_excess = 0.0
    for n in range(1, n_terms + 1):
        e_exc = e1 * (n * n - 1)
        w = math.exp(-beta * e_exc)
        z += w
        u_excess += w * e_exc
    u = e1 + u_excess / z
    s = beta * (u - e1) + math.log(z)
    return math.exp(-beta * e1) * z, u, s


class TestSummarize:
    def test_frozen_oracle(self):
        s = summarize(UNIT_STATE)
        assert s.partition_function == pytest.approx(ORACLE_Z, rel=1e-12)
        assert s.internal_energy == pytest.approx(ORACLE_U, rel=1e-12)
        assert s.entropy == pytest.approx(ORACLE_S, rel=1e-12)

    def test_tail_bound_honoured(self):
        for rel_tol in (1e-8, 1e-10, 1e-12):
            s = summarize(UNIT_STATE, rel_tol)
            assert 0.0 <= s.tail_bound <= rel_tol

    def test_occupations_normalised(self):
        s = summarize(UNIT_STATE)
        total = float(np.sum(occupations(UNIT_STATE)))
        assert 1.0 - 10.0 * s.tail_bound <= total <= 1.0 + 1e-14

    def test_occupations_strictly_decreasing(self):
        p = occupations(ThermalState(WellSpec(1.5, 1.3), 4.0))
        assert np.all(np.diff(p) < 0)

    def test_ground_state_limit(self):
        # at T = 0.1 the first gap is ~37 thermal units; the state is frozen
        s = summarize(ThermalState(WellSpec(1.0, 2.0, 1.0), 0.1))
        e1 = np.pi**2 / 8.0
        assert s.internal_energy == pytest.approx(e1, rel=1e-8)
        assert 0.0 <= s.entropy <= 1e-8

    def test_gibbs_identity(self):
        # F = U - T S and F = -T ln Z must agree
        for state in (UNIT_STATE, ThermalState(WellSpec(0.4, 1.2), 2.0)):
            s = summarize(state)
            t = state.temperature
            assert s.free_energy == pytest.approx(
                s.internal_energy - t * s.entropy, rel=1e-10
            )
            assert s.free_energy == pytest.approx(
                -t * math.log(s.partition_function), rel=1e-10
            )

    def test_entropy_from_occupations(self):
        # the shifted-representation entropy equals -sum p ln p
        s = summarize(UNIT_STATE)
        p = occupations(UNIT_STATE)
        direct = -float(np.sum(p * np.log(p)))
        assert s.entropy == pytest.approx(direct, rel=1e-12)

    def test_deterministic(self):
        a = summarize(ThermalState(WellSpec(0.9, 1.7), 3.3), 1e-10)
        b = summarize(ThermalState(WellSpec(0.9, 1.7), 3.3), 1e-10)
        assert a.partition_function == b.partition_function
        assert a.entropy == b.entropy
        assert a.n_cut == b.n_cut

    @pytest.mark.parametrize(
        "well, t, levels",
        [(WellSpec(1.0, 1.5), 3.5, None), (WellSpec(0.6, 2.0), 4.0, None),
         (WellSpec(1.4, 1.2), 3.0, 10), (WellSpec(3.0, 1.1), 0.8, None)],
    )
    def test_heat_capacity_is_energy_slope(self, well, t, levels):
        # beta^2 Var(E) against a central difference of U in T
        dt = 1e-4 * t
        up, down = (
            summarize(ThermalState(well, t + sign * dt), 1e-13, levels).internal_energy
            for sign in (1.0, -1.0)
        )
        c = summarize(ThermalState(well, t), 1e-13, levels).heat_capacity
        assert c > 0.0
        assert c == pytest.approx((up - down) / (2.0 * dt), rel=1e-6)

    @pytest.mark.parametrize("levels", [None, 10])
    def test_summary_holds_only_python_scalars(self, levels):
        # `summarize` unwraps its one-state kernel call: no numpy scalar or array
        s = summarize(ThermalState(WellSpec(1.2, 1.6), 3.0), levels=levels)
        assert all(type(v) in (int, float) for v in astuple(s)), astuple(s)

    def test_occupations_validate_like_summarize(self):
        with pytest.raises(ValueError):
            occupations(UNIT_STATE, 1e-5)
        with pytest.raises(ValueError):
            occupations(UNIT_STATE, levels=MAX_LEVELS + 1)


class TestScaleCollapse:
    def test_matched_states_identical(self):
        # beta E_n depends only on beta (1/2m)^(a/2) (pi/2L)^a n^a; rescaling
        # L by lambda and T by lambda^-alpha leaves every occupation fixed
        rng = np.random.default_rng(11)
        for _ in range(10):
            width = float(rng.uniform(0.3, 2.0))
            alpha = float(rng.uniform(1.05, 2.0))
            t = float(rng.uniform(0.5, 6.0))
            lam = float(rng.uniform(0.4, 3.0))
            state1 = ThermalState(WellSpec(width, alpha), t)
            state2 = ThermalState(WellSpec(lam * width, alpha), t * lam**-alpha)
            s1, s2 = summarize(state1), summarize(state2)
            assert s2.entropy == pytest.approx(s1.entropy, rel=1e-12, abs=1e-12)
            assert s2.internal_energy * lam**alpha == pytest.approx(
                s1.internal_energy, rel=1e-12
            )
            p1, p2 = occupations(state1), occupations(state2)
            n = min(p1.size, p2.size)
            np.testing.assert_allclose(p1[:n], p2[:n], rtol=1e-12)

    def test_explicit_pair(self):
        s1 = summarize(ThermalState(WellSpec(1.0, 1.5), 4.0))
        s2 = summarize(ThermalState(WellSpec(2.0, 1.5), 4.0 * 2.0**-1.5))
        assert s2.entropy == pytest.approx(s1.entropy, rel=1e-12)

    def test_heat_capacity_at_level_spacings_past_1e154(self):
        # E_n ~ 1e200 at T = 1e200 is the unit well at T = 1 rescaled; C is
        # scale free, and squaring E_n - E_1 would overflow
        far = summarize(ThermalState(WellSpec(1e-100, 2.0), 1e200))
        unit = summarize(ThermalState(WellSpec(1.0, 2.0), 1.0))
        assert abs(far.heat_capacity - unit.heat_capacity) <= 1e-12


class TestMonotonicity:
    def test_energy_increases_with_temperature(self):
        spec = WellSpec(1.0, 2.0, 1.0)
        values = [
            summarize(ThermalState(spec, t)).internal_energy
            for t in (1.0, 2.0, 3.0, 4.0)
        ]
        assert values == sorted(values)
        assert len(set(values)) == 4

    def test_entropy_increases_with_width(self):
        # wider well compresses the spectrum and raises the entropy
        wide = summarize(ThermalState(WellSpec(2.0, 2.0), 4.0)).entropy
        narrow = summarize(ThermalState(WellSpec(1.0, 2.0), 4.0)).entropy
        assert wide > narrow


class TestTruncation:
    def test_refinement_stability(self):
        # tightening rel_tol a hundredfold must not move the answers
        state = ThermalState(WellSpec(1.8, 1.4), 4.0)
        for rel_tol in (1e-8, 1e-10):
            coarse = summarize(state, rel_tol)
            fine = summarize(state, rel_tol / 100.0)
            for attr in ("partition_function", "internal_energy", "entropy"):
                a, b = getattr(coarse, attr), getattr(fine, attr)
                assert abs(a - b) <= 10.0 * rel_tol * abs(b)

    def test_levels_override(self):
        s = summarize(UNIT_STATE, levels=10)
        p = occupations(UNIT_STATE, levels=10)
        assert s.n_cut == 10
        assert p.size == 10
        assert float(np.sum(p)) == pytest.approx(1.0, abs=1e-14)

    def test_resource_error(self):
        # a kilometre-wide well at this temperature needs > 1e6 levels
        state = ThermalState(WellSpec(1e7, 1.05), 4.0)
        with pytest.raises(TruncationLimitError) as err:
            summarize(state)
        assert "1e+07" in str(err.value) or "10000000" in str(err.value)
        assert str(MAX_LEVELS) in str(err.value)

    def test_neglected_tail_is_below_rel_tol(self):
        # sum each neglected tail directly, over 20 n_cut levels past the cut,
        # with its own level formula; chunks keep the arrays small
        rng = np.random.default_rng(20231)
        checked = 0
        while checked < 200:
            alpha = rng.uniform(1.0 + 1e-6, 2.0)
            x, t = 10.0 ** rng.uniform(-6.0, 3.0), 10.0 ** rng.uniform(-0.5, 1.5)
            rel_tol = 10.0 ** rng.uniform(-15.0, -6.0)
            # the width whose ground level (1/2)^(alpha/2) (pi/2L)^alpha is x T
            width = math.pi / (2.0 * (x * t / 0.5 ** (0.5 * alpha)) ** (1.0 / alpha))
            state = ThermalState(WellSpec(width, alpha), t)
            try:
                n_cut = summarize(state, rel_tol).n_cut
            except TruncationLimitError:
                continue  # the cut lies beyond MAX_LEVELS
            x = 0.5 ** (0.5 * alpha) * (math.pi / (2.0 * width)) ** alpha / t
            sums = []
            for lo, hi in ((1, n_cut + 1), (n_cut + 1, 21 * n_cut + 1)):
                z = z_excess = 0.0
                for start in range(lo, hi, 10**6):
                    n = np.arange(start, min(start + 10**6, hi), dtype=float)
                    u = x * (n**alpha - 1.0)
                    w = np.exp(-u)
                    z += float(np.sum(w))
                    z_excess += float(np.dot(u, w))
                sums.append((z, z_excess))
            (z_kept, x_kept), (z_tail, x_tail) = sums
            assert z_tail <= rel_tol * z_kept, (state, rel_tol)
            assert x_tail <= rel_tol * max(x_kept, z_kept), (state, rel_tol)
            checked += 1

    def test_one_block_per_miss(self, monkeypatch):
        # nothing is memoised: every call sums one block of n_cut + 1 levels,
        # or, cut past the head, the head's block and computes _HEAD + 3
        # levels in all; a failing state sums none
        blocks, row_sums = [], thermo._row_sums
        closed, closed_row_sums = [], thermo._closed_row_sums

        def counting(energies, beta):
            if len(energies):  # a block whose states all overflow keeps no row
                blocks.append(energies.shape)
            return row_sums(energies, beta)

        def counting_closed(energies, n, alpha, beta):
            closed.append(energies.shape)
            return closed_row_sums(energies, n, alpha, beta)

        monkeypatch.setattr(thermo, "_row_sums", counting)
        monkeypatch.setattr(thermo, "_closed_row_sums", counting_closed)
        head = thermo._HEAD
        wide = ThermalState(WellSpec(300.0, 1.3), 4.0)
        for state, levels in ((UNIT_STATE, None), (wide, None), (UNIT_STATE, None),
                              (UNIT_STATE, 10), (UNIT_STATE, 1000), (wide, head)):
            blocks.clear()
            closed.clear()
            n_cut = summarize(state, levels=levels).n_cut
            assert n_cut == (levels or n_cut)
            assert blocks == [(1, min(n_cut, head) + 1)]
            assert closed == ([(1, head + 3)] if n_cut > head else [])
        assert summarize(wide).n_cut == 12743
        for well in (WellSpec(1e7, 1.05), WellSpec(1e-302, 1.02)):
            blocks.clear()
            closed.clear()
            with pytest.raises(FracStirlingError):
                summarize(ThermalState(well, 4.0))
            assert blocks == [] and closed == []

    @pytest.mark.parametrize("t", [0.1, 0.01])
    def test_levels_near_the_float_maximum_warn_nothing(self, t):
        # beta (E_n - E_1) overflows when T < 1: the weight is 0, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = summarize(ThermalState(WellSpec(1e-304, 1.011), t))
        assert s.partition_function == 0.0 and s.n_cut == 1
        assert math.isfinite(s.internal_energy) and s.tail_bound == 0.0

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-9, 1e-5, 0.5])
    def test_rejects_out_of_range_tolerance(self, rel_tol):
        with pytest.raises(ValueError):
            summarize(UNIT_STATE, rel_tol)

    def test_rejects_bad_level_count(self):
        with pytest.raises(ValueError):
            summarize(UNIT_STATE, levels=0)
        # a count that is not an integer would sum a different number of
        # levels in the kernel than it reports
        with pytest.raises(ValueError, match="integer"):
            summarize(UNIT_STATE, levels=10.5)
        with pytest.raises(ValueError, match="integer"):
            summarize_many([1.0], [1.5], [1.0], [4.0], levels=10.5)
        with pytest.raises(ValueError, match="integer"):
            summarize_many([1.0, 1.0], [1.5, 1.5], [1.0, 1.0], [4.0, 4.0], levels=[10, 10.5])
        assert summarize(UNIT_STATE, levels=10.0) == summarize(UNIT_STATE, levels=10)

    @pytest.mark.parametrize(
        "well, levels",
        [
            (WellSpec(1e-200, 1.6), None),  # (pi/2L)^alpha raises OverflowError
            (WellSpec(1e-302, 1.02), None),  # E_1 ~ 1e308, E_2 overflows to inf
            (WellSpec(1.0, 2.0, 1e-320), 10),  # (1/2m)^(alpha/2) is inf
            # numpy floats, whose powers overflow with a warning, not an error
            (WellSpec(np.float64(1e-200), 1.6), None),
            (WellSpec(np.float64(1e-302), 1.02), None),
        ],
    )
    def test_unrepresentable_levels_raise(self, well, levels):
        # the error alone reports the overflow: numpy warns about nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FracStirlingError, match="float range"):
                summarize(ThermalState(well, 4.0), levels=levels)

    def test_fixed_cut_far_below_temperature(self):
        # level spacings below T/1e17 round the weight ratio to 1
        s = summarize(ThermalState(WellSpec(1.0, 2.0), 1e19), levels=10)
        assert s.tail_bound == math.inf
        assert all(math.isfinite(v) for v in (s.internal_energy, s.entropy))

    @pytest.mark.parametrize(
        "well, t",
        [
            (WellSpec(1.0, 2.0), 4.0),
            (WellSpec(1.2, 1.6), 3.0),
            (WellSpec(1.8, 1.4), 4.0),
            (WellSpec(0.3, 1.9, 2.0), 1.0),
            (WellSpec(5.0, 1.1), 4.0),
            (WellSpec(20.0, 1.05), 60.0),
        ],
    )
    def test_fixed_cut_at_adaptive_cut_is_bitwise_equal(self, well, t):
        # the cycle's crossing search sums with a fixed level count taken
        # from an adaptive cut, so both paths must share one formula
        state = ThermalState(well, t)
        adaptive = summarize(state)
        fixed = summarize(state, levels=adaptive.n_cut)
        for attr in (
            "partition_function", "internal_energy", "entropy",
            "free_energy", "heat_capacity", "tail_bound", "n_cut",
        ):
            assert getattr(fixed, attr) == getattr(adaptive, attr), attr
        assert (
            occupations(state, levels=adaptive.n_cut).tobytes()
            == occupations(state).tobytes()
        )


def one_row_reference(state, levels=None):
    """The summary fields of one state summed as a lone row, or the error type where it fails.

    The levels come from `spectrum.energy_levels` at the cut of `thermo._cut`
    and go through `_row_sums` and `_summary_fields` as one 1-D row, with no
    grouping or blocking; a cut past `thermo._HEAD` goes through
    `_closed_row_sums`, given the head and the top two of those levels.  A
    level count past MAX_LEVELS fails with TruncationLimitError, a level past
    the float range with FracStirlingError.
    """
    well, t = state.well, state.temperature
    with np.errstate(over="ignore", divide="ignore"):
        try:
            x = level_scale(well.width, well.alpha, well.mass) / t
            n_cut = levels or thermo._cut(well.alpha, x, thermo.DEFAULT_REL_TOL)
            if not n_cut:
                return TruncationLimitError
            energies = energy_levels(well, n_cut + 1)
        except OverflowError:
            return FracStirlingError
        if not energies[-1] < math.inf:
            return FracStirlingError
        if n_cut > thermo._HEAD:
            block = np.concatenate((energies[:thermo._HEAD + 1], energies[-2:]))[None, :]
            sums = thermo._closed_row_sums(block, np.array([n_cut]), np.array([well.alpha]), 1.0 / t)
        else:
            sums = thermo._row_sums(energies[None, :], 1.0 / t)
        row = thermo._summary_fields(*(float(v[0]) for v in sums), t)
    return {"n_cut": n_cut, **row}


class TestSummarizeMany:
    @pytest.mark.parametrize("levels", [None, 10])
    def test_every_field_matches_summarize_bitwise(self, levels):
        # the grouped, blocked kernel against a plain one-row sum, and
        # `summarize` against both; 450 ordinary states and 50 across the
        # float range, some of which fail
        rng = np.random.default_rng(31)
        count = 500
        width = 10.0 ** np.concatenate(
            [rng.uniform(-2.0, 1.5, 450), rng.uniform(-300.0, 250.0, 50)]
        )
        alpha = np.where(rng.random(count) < 0.1, 2.0, rng.uniform(1.0001, 2.0, count))
        mass = 10.0 ** rng.uniform(-1.0, 1.0, count)
        temperature = 10.0 ** rng.uniform(-2.0, 2.0, count)
        table = summarize_many(width, alpha, mass, temperature, levels=levels)
        failed = 0
        for i in range(count):
            state = ThermalState(WellSpec(width[i], alpha[i], mass[i]), temperature[i])
            expected = one_row_reference(state, levels)
            if isinstance(expected, type):
                failed += 1
                assert table["n_cut"][i] == 0
                assert all(np.isnan(table[name][i]) for name in table if name not in ("n_cut", "failure"))
                # the kind names the type the lone row fails with, and `summarize` raises it
                kind = {thermo.TRUNCATED: TruncationLimitError, thermo.FLOAT_RANGE: FracStirlingError}
                assert kind[table["failure"][i]] is expected
                with pytest.raises(FracStirlingError) as err:
                    summarize(state, levels=levels)
                assert type(err.value) is expected
                continue
            assert table["failure"][i] == 0
            single = summarize(state, levels=levels)
            for field in fields(EnsembleSummary):
                got, want = table[field.name][i], expected[field.name]
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (
                    state, field.name, got, want,
                )
                assert np.float64(getattr(single, field.name)).tobytes() == np.float64(want).tobytes()
        assert 0 < failed < 50

    def test_an_overflowing_top_level_fails_only_its_state(self):
        # E_1 ~ 1e308 is finite but E_2 overflows; the other state is kept
        table = summarize_many([1e-302, 1.0], [1.02, 1.5], [1.0, 1.0], [4.0, 4.0])
        kept = summarize(ThermalState(WellSpec(1.0, 1.5), 4.0))
        assert table["n_cut"].tolist() == [0, kept.n_cut]
        assert np.isnan(table["internal_energy"][0]) and np.isfinite(table["internal_energy"][1])

    @pytest.mark.parametrize(
        "width, alpha, mass, temperature",
        [(0.0, 1.5, 1.0, 4.0), (1.0, 1.0, 1.0, 4.0), (1.0, 1.5, math.inf, 4.0),
         (1.0, 1.5, 1.0, math.nan), (1.0, 1.5, 1.0, 5e-324)],
    )
    def test_rejects_invalid_states(self, width, alpha, mass, temperature):
        with pytest.raises(ValueError):
            summarize_many([width], [alpha], [mass], [temperature])

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            summarize_many([1.0], [1.5], [1.0], [4.0], rel_tol=0.5)

    @pytest.mark.parametrize("temperature", [[4.0, 3.0], [[4.0]], 4.0])
    def test_rejects_unequal_or_non_1d_inputs(self, temperature):
        with pytest.raises(ValueError, match="1-D"):
            summarize_many([1.0], [1.5], [1.0], temperature)


def scalar_cuts(width, alpha, temperature, rel_tol=thermo.DEFAULT_REL_TOL):
    """n_cut of `summarize` state by state, 0 where it raises."""
    cuts = []
    for w, a, t in zip(width, alpha, temperature):
        try:
            cuts.append(summarize(ThermalState(WellSpec(w, a), t), rel_tol).n_cut)
        except FracStirlingError:
            cuts.append(0)
    return cuts


def real_cut(alpha, x, rel_tol):
    """The real level count `thermo._cut` rounds up, in Python floats."""
    return thermo._real_cut(alpha, x, rel_tol, math.log, math.log1p, min)


@pytest.fixture
def scalar_cut_calls(monkeypatch):
    """The arguments of each scalar `thermo._cut` call from here on."""
    calls, cut = [], thermo._cut
    monkeypatch.setattr(thermo, "_cut", lambda *args: calls.append(args) or cut(*args))
    return calls


def temperatures_around_cut(width, alpha, n, rel_tol, ulps=3):
    """Adjacent temperatures around the one where the real cut of the well crosses n."""
    e1 = level_scale(width, alpha, 1.0)
    lo, hi = 1e-3, 1e9
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if real_cut(alpha, e1 / mid, rel_tol) <= n else (lo, mid)
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
    temps = [lo]
    while temps[-1] < hi:
        temps.append(math.nextafter(temps[-1], math.inf))
    return temps


class TestArrayCut:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(1.0, 2.0, exclude_min=True),
                           st.floats(-1.0, 3.0)), min_size=1, max_size=20),
        st.floats(-15.0, -6.0),
    )
    def test_matches_summarize_state_by_state(self, states, log_tol):
        rel_tol = 10.0 ** log_tol
        width = [10.0 ** w for w, _, _ in states]
        alpha = [a for _, a, _ in states]
        temperature = [10.0 ** t for _, _, t in states]
        table = summarize_many(width, alpha, [1.0] * len(states), temperature, rel_tol)
        assert table["n_cut"].tolist() == scalar_cuts(width, alpha, temperature, rel_tol)

    @pytest.mark.parametrize("width, alpha, n, rel_tol", [
        (1.0, 2.0, 7, 1e-12), (0.3, 1.3, 40, 1e-6), (2.0, 1.7, 1000, 1e-15),
        (1.0, 1.5, 2, 1e-12), (1.0, 1.05, MAX_LEVELS, 1e-6),
    ])
    def test_real_cut_within_ulps_of_an_integer(self, scalar_cut_calls, width, alpha, n, rel_tol):
        # the real N of these states lies on both sides of n, a few ulps away;
        # each goes to the scalar `_cut`
        temperature = temperatures_around_cut(width, alpha, n, rel_tol)
        count = len(temperature)
        want = scalar_cuts([width] * count, [alpha] * count, temperature, rel_tol)
        assert {n, n + 1 if n < MAX_LEVELS else 0} <= set(want)
        scalar_cut_calls.clear()
        table = summarize_many([width] * count, [alpha] * count, [1.0] * count, temperature, rel_tol)
        assert table["n_cut"].tolist() == want
        assert len(scalar_cut_calls) == count

    def test_narrow_cold_wells_cut_at_one_level(self):
        # y/x near the float resolution: N rounds to 1 or just above it
        width = np.geomspace(1e-12, 1e-6, 60).tolist() * 2
        alpha = [1.5] * 60 + [2.0] * 60
        temperature = [0.1] * 120
        want = scalar_cuts(width, alpha, temperature)
        assert {1, 2} <= set(want)
        assert summarize_many(width, alpha, [1.0] * 120, temperature)["n_cut"].tolist() == want

    def test_overflowing_and_underflowing_level_scale_cut_nothing(self):
        # (pi/2e-200)^2 overflows and raises, (pi/2e200)^2 underflows to 0
        width = [1e-200, 1.0, 1e200]
        table = summarize_many(width, [2.0] * 3, [1.0] * 3, [4.0] * 3)
        assert table["n_cut"].tolist() == scalar_cuts(width, [2.0] * 3, [4.0] * 3)
        assert table["n_cut"][[0, 2]].tolist() == [0, 0] and table["n_cut"][1] > 0

    def test_scalar_cut_only_near_an_integer(self, scalar_cut_calls):
        # the array cut decides every state whose real N is not within 1e-9
        # of an integer (one state of these)
        rng = np.random.default_rng(13)
        width = 10.0 ** rng.uniform(-3.0, 3.0, 1000)
        alpha = rng.uniform(1.01, 2.0, 1000)
        temperature = 10.0 ** rng.uniform(-1.0, 3.0, 1000)
        near = 0
        for w, a, t in zip(width.tolist(), alpha.tolist(), temperature.tolist()):
            n_real = real_cut(a, level_scale(w, a, 1.0) / t, thermo.DEFAULT_REL_TOL)
            near += abs(n_real - round(n_real)) <= 1e-9 * n_real
        table = summarize_many(width, alpha, np.ones(1000), temperature)
        assert len(scalar_cut_calls) == near == 1
        assert table["n_cut"].tolist() == scalar_cuts(width, alpha, temperature)

    def test_no_scalar_cut_past_the_level_cap(self, scalar_cut_calls):
        # a real N of 1e9 or more is within 1e-9 of an integer, yet far past
        # MAX_LEVELS: the array cut decides it
        width = np.geomspace(1e7, 1e12, 50)
        table = summarize_many(width, [1.05] * 50, [1.0] * 50, [4.0] * 50)
        assert scalar_cut_calls == []
        assert table["n_cut"].tolist() == [0] * 50
        assert table["failure"].tolist() == [thermo.TRUNCATED] * 50


class TestQuadraticEquivalence:
    def test_matches_independent_implementation(self):
        # at alpha = 2 the fractional machinery must reproduce an
        # independently coded quadratic-dispersion ensemble to 1e-12
        for width, mass, t in [(1.0, 1.0, 4.0), (2.0, 1.0, 4.0), (0.7, 1.6, 2.5)]:
            z0, u0, s0 = quadratic_oracle(width, mass, t)
            s = summarize(ThermalState(WellSpec(width, 2.0, mass), t), 1e-13)
            assert s.partition_function == pytest.approx(z0, rel=1e-12)
            assert s.internal_energy == pytest.approx(u0, rel=1e-12)
            assert s.entropy == pytest.approx(s0, rel=1e-12)


def state_at(alpha, x, t=1.0):
    """The unit-mass state at temperature t whose ground level is E_1 = x t."""
    return ThermalState(WellSpec(math.pi / (2.0 * (x * t / 0.5 ** (0.5 * alpha)) ** (1.0 / alpha)), alpha), t)


def explicit_sums(state, n):
    """Z_s, U - E_1, S and C of `state` as plain numpy sums over levels 1 .. n."""
    beta = 1.0 / state.temperature
    energies = energy_levels(state.well, n)
    delta = energies - energies[0]
    weights = np.exp(-beta * delta)
    z = float(np.sum(weights))
    excess = float(np.dot(weights, delta)) / z
    square = float(np.dot(weights, delta * delta)) / z
    return z, excess, beta * excess + math.log(z), beta * beta * (square - excess * excess)


def kernel_sums(state, rel_tol=thermo.DEFAULT_REL_TOL, levels=None):
    """Z_s, U - E_1, S and C of `state` from `summarize`, with its n_cut."""
    s = summarize(state, rel_tol, levels)
    well, beta = state.well, 1.0 / state.temperature
    e1 = level_scale(well.width, well.alpha, well.mass)
    z = s.partition_function * math.exp(beta * e1)
    return (z, s.internal_energy - e1, s.entropy, s.heat_capacity), s.n_cut


class TestClosure:
    def test_gamma_ratios_match_mpmath_and_scipy(self):
        # the incomplete gammas of s + j, j = 0, 1, 2, over y^(s+j) e^-y:
        # the lower one below the split, the upper one above it
        mpmath = pytest.importorskip("mpmath")
        special = pytest.importorskip("scipy.special")
        base = np.linspace(0.5, 1.5, 11)[1:]
        y = np.concatenate((np.geomspace(1e-10, thermo._GAMMA_SPLIT, 15, endpoint=False),
                            np.geomspace(thermo._GAMMA_SPLIT, 700.0, 15)))
        s, y = (v.ravel() for v in np.meshgrid(base, y))
        below = y < thermo._GAMMA_SPLIT
        lower, upper = thermo._gamma_ratios(s, y)
        for j in range(3):
            got = np.where(below, lower[j], upper[j])
            for s_i, y_i, got_i, low in zip((s + j).tolist(), y.tolist(), got.tolist(), below.tolist()):
                with mpmath.workdps(50):
                    scale = mpmath.mpf(y_i) ** s_i * mpmath.exp(-mpmath.mpf(y_i))
                    exact = mpmath.gammainc(s_i, 0, y_i) if low else mpmath.gammainc(s_i, y_i)
                    exact = float(exact / scale)
                assert got_i == pytest.approx(exact, rel=1e-15), (s_i, y_i)
                regularised = special.gammainc(s_i, y_i) if low else special.gammaincc(s_i, y_i)
                scipy = regularised * special.gamma(s_i) / (y_i**s_i * math.exp(-y_i))
                assert got_i == pytest.approx(scipy, rel=1e-13), (s_i, y_i)

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(1.0, 2.0, exclude_min=True),
        log_n=st.floats(math.log10(600.0), math.log10(MAX_LEVELS)),
        shift=st.floats(-4.0, 1.5),
        t=st.floats(0.5, 100.0),
        fixed=st.booleans(),
    )
    def test_closure_matches_the_explicit_sum(self, alpha, log_n, shift, t, fixed):
        # x puts the adaptive cut between about n/2 and n, past the head; a
        # fixed cut of n levels sees x moved by 10^shift, from weights near 1
        # at level n to a tail that underflows
        n = min(round(10.0**log_n), MAX_LEVELS)
        x = 60.0 / (n**alpha - 1.0)
        if fixed:
            x *= 10.0**shift
        got, n_cut = kernel_sums(state_at(alpha, x, t), levels=n if fixed else None)
        assert n_cut > thermo._HEAD and (not fixed or n_cut == n)
        want = explicit_sums(state_at(alpha, x, t), n_cut)
        for name, g, w in zip(("Z_s", "U - E_1", "S", "C"), got, want):
            assert g == pytest.approx(w, rel=1e-12), (name, n_cut)

    @pytest.mark.parametrize("x", [1e-10, 1e-8, 1e-6, 1e-5, 1e-4])
    def test_quadratic_states_match_poisson_summation(self, x):
        # at alpha = 2, sum_{n>=1} e^(-x n^2) = (sqrt(pi/x) - 1)/2
        # + sqrt(pi/x) sum_k e^(-pi^2 k^2/x); its -d/dx is sum n^2 e^(-x n^2)
        root = math.sqrt(math.pi / x)
        images = [math.exp(-math.pi**2 * k * k / x) for k in (1, 2, 3)]
        z = 0.5 * (root - 1.0) + root * sum(images)
        moment = 0.25 * root / x + sum(
            root * e * (0.5 / x - math.pi**2 * k * k / x**2) for k, e in zip((1, 2, 3), images)
        )
        state = state_at(2.0, x)
        s = summarize(state, rel_tol=1e-15)
        assert s.n_cut > thermo._HEAD
        assert s.partition_function == pytest.approx(z, rel=1e-13)
        assert s.internal_energy == pytest.approx(x * moment / z, rel=1e-13)


class TestThermalStateValidation:
    @pytest.mark.parametrize("t", [0.0, -1.0, float("inf"), 5e-324])
    def test_rejects_nonpositive_temperature(self, t):
        with pytest.raises(ValueError):
            ThermalState(WellSpec(1.0, 1.5), t)
