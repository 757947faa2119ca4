import math
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracstirling import (
    MAX_LEVELS,
    EnsembleSummary,
    FracStirlingError,
    ThermalState,
    WellSpec,
    occupations,
    summarize,
    thermo,
)
from fracstirling.spectrum import energy_level, energy_levels, level_scale
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

    def test_kilometre_wide_well_sums_past_a_million_levels(self):
        # the adaptive cut has no cap: 1.4e9 levels cost what 300 do
        s = summarize(ThermalState(WellSpec(1e7, 1.05), 4.0))
        assert s.n_cut == 1379465363 and 0.0 < s.tail_bound <= thermo.DEFAULT_REL_TOL
        assert all(map(math.isfinite, astuple(s)))

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
            n_cut = summarize(state, rel_tol).n_cut
            if n_cut > MAX_LEVELS:
                continue  # too many levels to sum here, 21 times over
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
        # nothing is memoised: every one-state call sums one block of one row,
        # cut past the head or not, fixed or adaptive; a failing state sums none
        blocks = count_blocks(monkeypatch)
        wide = ThermalState(WellSpec(300.0, 1.3), 4.0)
        for state, levels in ((UNIT_STATE, None), (wide, None), (UNIT_STATE, None),
                              (UNIT_STATE, 10), (UNIT_STATE, 1000), (wide, thermo._HEAD)):
            blocks.clear()
            n_cut = summarize(state, levels=levels).n_cut
            assert blocks == [1] and n_cut == (levels or n_cut)
        assert summarize(wide).n_cut == 12743
        # no cut, as E_1 underflows to 0, and an E_1 past the float range
        for well in (WellSpec(1e200, 2.0), WellSpec(1e-200, 1.6)):
            blocks.clear()
            with pytest.raises(FracStirlingError):
                summarize(ThermalState(well, 4.0))
            assert blocks == []

    def test_a_call_sums_a_few_blocks_for_many_cuts(self, monkeypatch):
        # a lockstep trace step of a Table-1 well, 21 exponents at both baths:
        # its eleven distinct cuts share at most three padded blocks
        alpha = np.tile(np.linspace(1.28, 1.38, 21), 2)
        args = (np.full(42, 0.6), alpha, np.ones(42), np.repeat([4.0, 3.0], 21))
        assert len(set(summarize_many(*args)["n_cut"].tolist())) == 11
        blocks = count_blocks(monkeypatch)
        summarize_many(*args)
        assert 1 <= len(blocks) <= 3 and sum(blocks) == 42

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

    @pytest.mark.parametrize("count", [math.inf, -math.inf, math.nan, 10**400], ids=["inf", "-inf", "nan", "10**400"])
    def test_rejects_a_per_state_count_past_the_float_range_without_a_warning(self, count):
        # the remainder that tests a count for an integer warns on inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need one positive integer level count per state"):
                summarize_many([1.0, 1.0], [1.5, 1.5], [1.0, 1.0], [4.0, 4.0], levels=[10, count])

    @pytest.mark.parametrize(
        "well, levels",
        [
            (WellSpec(1e-200, 1.6), None),  # (pi/2L)^alpha overflows to inf
            (WellSpec(1e-302, 1.02), None),  # E_1 ~ 1e308 is finite, E_2 overflows to inf
            (WellSpec(1.0, 2.0, 1e-320), 10),  # (1/2m)^(alpha/2) is inf
            # numpy floats take the same power as Python floats
            (WellSpec(np.float64(1e-200), 1.6), None),
            (WellSpec(np.float64(1e-302), 1.02), None),
        ],
    )
    def test_unrepresentable_levels_raise(self, well, levels):
        # only an E_1 past the float range raises, and the error alone reports
        # it; above a finite E_1 the levels past it weigh 0, leaving the ground
        # state.  numpy warns about nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e1 = level_scale(well.width, well.alpha, well.mass)
            if e1 < math.inf:
                s = summarize(ThermalState(well, 4.0), levels=levels)
                assert s.internal_energy == e1 and s.entropy == 0.0
                return
            with pytest.raises(FracStirlingError, match="float range"):
                summarize(ThermalState(well, 4.0), levels=levels)

    def test_fixed_cut_far_below_temperature(self):
        # level spacings below T/1e17 round the weight ratio r to 1, yet 1 - r
        # is formed as -expm1 and the bound is finite: w_N r / ((1 - r) T_0)
        # in mpmath at 50 digits
        s = summarize(ThermalState(WellSpec(1.0, 2.0), 1e19), levels=10)
        assert s.tail_bound == pytest.approx(3.8598546149462008e16, rel=1e-15)
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


def count_blocks(monkeypatch):
    """The row count of each block `thermo._row_sums` sums from here on."""
    blocks, row_sums = [], thermo._row_sums

    def counting(g, *args):
        blocks.append(len(g))
        return row_sums(g, *args)

    monkeypatch.setattr(thermo, "_row_sums", counting)
    return blocks


def plain_sums(alpha, x, n_cut):
    """T_0 and T_1 of a state's kept levels, summed as one plain numpy row."""
    g = np.arange(1.0, n_cut + 1.0) ** alpha - 1.0
    with np.errstate(over="ignore"):
        weights = np.exp(g * -x)
    return float(np.sum(weights)), float(np.dot(g, weights))


# an adaptive state whose level sums hold but for T_2, the sum behind C
C_ONLY = (1e62, 2.0, 1.0, None)


def assert_each_state_as_alone(width, alpha, mass, temperature, levels, rng):
    """Check that a state's fields do not depend on the states beside it, and return the call's table.

    A batch, the same batch shuffled, the batch split over several calls and
    `summarize` on each state alone agree bit for bit; a state that fails
    has n_cut 0, every other field nan, and `summarize` raises on it.
    `levels` is None, one count, or one count per state.
    """
    count = len(width)
    per_state = np.ndim(levels) > 0

    def call(i):
        return summarize_many(width[i], alpha[i], mass[i], temperature[i], levels=levels[i] if per_state else levels)

    table = call(np.arange(count))
    shuffle = rng.permutation(count)
    shuffled = call(shuffle)
    cuts = np.sort(rng.choice(np.arange(1, count), min(7, count - 1), replace=False))
    parts = [call(i) for i in np.split(np.arange(count), cuts)]
    for name, column in table.items():
        assert shuffled[name].tobytes() == column[shuffle].tobytes(), name
        assert np.concatenate([part[name] for part in parts]).tobytes() == column.tobytes(), name
    for i in range(count):
        state = ThermalState(WellSpec(width[i], alpha[i], mass[i]), temperature[i])
        cut = int(levels[i]) if per_state else levels
        if np.isnan(table["internal_energy"][i]):  # the state failed
            assert table["n_cut"][i] == 0
            assert all(np.isnan(table[name][i]) for name in table if name != "n_cut")
            with pytest.raises(FracStirlingError) as err:
                summarize(state, levels=cut)
            assert type(err.value) is FracStirlingError
            continue
        single = summarize(state, levels=cut)
        for field in fields(EnsembleSummary):
            got = np.float64(getattr(single, field.name)).tobytes()
            assert got == np.float64(table[field.name][i]).tobytes(), (state, field.name)
    return table


def padded_lengths(table):
    """Per state, the length of its padded row of explicit levels, 0 where it failed."""
    kept = np.minimum(table["n_cut"], thermo._HEAD).astype(int)
    return np.where(kept > 0, (kept | (thermo._PAD - 1)) + 1, 0)


class TestSummarizeMany:
    @pytest.mark.parametrize("levels", [None, 10])
    def test_every_field_matches_summarize_bitwise(self, levels):
        # 450 ordinary states and 50 across the float range, some of which
        # fail; cut past the head or not
        rng = np.random.default_rng(31)
        count = 500
        width = 10.0 ** np.concatenate(
            [rng.uniform(-2.0, 1.5, 450), rng.uniform(-300.0, 250.0, 50)]
        )
        alpha = np.where(rng.random(count) < 0.1, 2.0, rng.uniform(1.0001, 2.0, count))
        mass = 10.0 ** rng.uniform(-1.0, 1.0, count)
        temperature = 10.0 ** rng.uniform(-2.0, 2.0, count)
        table = assert_each_state_as_alone(width, alpha, mass, temperature, levels, rng)
        n_cut = table["n_cut"]
        assert 0 < (n_cut == 0).sum() < 50
        assert (n_cut > thermo._HEAD).any() == (levels is None) and (n_cut > 0).sum() > 400

    def test_per_state_cuts_as_the_crossing_search_passes_them(self):
        # the crossing search re-sums table rows at another temperature with
        # their cut kept: `levels` is the table's float n_cut, one per state,
        # within and past the head
        rng = np.random.default_rng(34)
        count = 300
        width = 10.0 ** rng.uniform(-1.0, 1.0, count)
        alpha = rng.uniform(1.0001, 2.0, count)
        mass = 10.0 ** rng.uniform(-1.0, 1.0, count)
        temperature = 10.0 ** rng.uniform(-1.0, 1.5, count)
        cuts = summarize_many(width, alpha, mass, temperature)["n_cut"]
        assert cuts.dtype == float and (cuts > 0).all() and (cuts <= MAX_LEVELS).all()
        assert (cuts > thermo._HEAD).sum() > 20 and (cuts <= thermo._HEAD).sum() > 100
        table = assert_each_state_as_alone(width, alpha, mass, temperature * rng.uniform(0.5, 1.0, count), cuts, rng)
        assert (table["n_cut"] == cuts).all() and len(set(padded_lengths(table).tolist())) > 5

    def test_one_length_over_several_blocks_among_others(self):
        # 600 states of padded length 256 fill more than two blocks of
        # _BLOCK_ENTRIES entries, shuffled among states of other lengths
        rng = np.random.default_rng(35)
        count = 700
        width = 10.0 ** rng.uniform(-1.0, 1.0, count)
        alpha = rng.uniform(1.0001, 2.0, count)
        temperature = 10.0 ** rng.uniform(-1.0, 1.5, count)
        cuts = np.where(np.arange(count) < 600, 250, rng.integers(1, 400, count))
        cuts = cuts[rng.permutation(count)]
        table = assert_each_state_as_alone(width, alpha, np.ones(count), temperature, cuts, rng)
        lengths = padded_lengths(table)
        assert (lengths == 256).sum() * 256 > 2 * thermo._BLOCK_ENTRIES
        assert len(set(lengths.tolist())) > 10

    @pytest.mark.parametrize("levels", [None, 10])
    def test_a_call_whose_states_all_fail(self, levels):
        # every E_1 leaves the float range: no state sums a level
        rng = np.random.default_rng(36)
        count = 40
        width = 10.0 ** rng.uniform(-300.0, -200.0, count)
        table = assert_each_state_as_alone(width, np.full(count, 2.0), np.ones(count), np.full(count, 4.0), levels, rng)
        assert (table["n_cut"] == 0).all()

    @pytest.mark.parametrize("levels", [10, 200])
    def test_a_call_of_one_length(self, levels):
        rng = np.random.default_rng(levels)
        count = 120
        width = 10.0 ** rng.uniform(-1.0, 1.0, count)
        alpha = rng.uniform(1.0001, 2.0, count)
        temperature = 10.0 ** rng.uniform(-1.0, 1.5, count)
        table = assert_each_state_as_alone(width, alpha, np.ones(count), temperature, levels, rng)
        assert len(set(padded_lengths(table).tolist())) == 1

    def test_closed_rows_over_two_blocks_repeat_an_alpha_across_the_edge(self, monkeypatch):
        # 370 states cut past the head share 12 exponents: the closed pass sums
        # them in two blocks, and the rows of one exponent lie on both sides of
        # the block edge, so each block gathers from power rows of its own
        rng = np.random.default_rng(50)
        count = 400
        alpha = rng.choice(rng.uniform(1.05, 2.0, 12), count)
        width = 10.0 ** rng.uniform(0.5, 1.5, count)
        temperature = 10.0 ** rng.uniform(1.0, 3.0, count)
        table = assert_each_state_as_alone(width, alpha, np.ones(count), temperature, None, rng)
        closed = np.sort(alpha[table["n_cut"] > thermo._HEAD])
        edge = thermo._BLOCK_ENTRIES // (thermo._HEAD + thermo._PAD)
        assert closed.size > edge and closed[edge - 1] == closed[edge]
        blocks = count_blocks(monkeypatch)
        summarize_many(width, alpha, np.ones(count), temperature)
        assert blocks[-2:] == [edge, closed.size - edge]

    def test_closed_rows_among_head_rows_failed_states_and_cuts_at_the_head(self):
        # per-state cuts of exactly _HEAD, which pad to the closed rows' length
        # but are summed as head rows, beside cuts within and past the head and
        # states whose E_1 leaves the float range; the exponents repeat
        rng = np.random.default_rng(51)
        count = 300
        head = thermo._HEAD
        alpha = rng.choice(rng.uniform(1.05, 2.0, 8), count)
        width = 10.0 ** np.where(rng.random(count) < 0.1, -300.0, rng.uniform(0.5, 1.5, count))
        temperature = 10.0 ** rng.uniform(1.0, 3.0, count)
        cuts = rng.choice([10, head - 16, head - 1, head, head, head + 1, head + 16, 3000, 40000], count)
        table = assert_each_state_as_alone(width, alpha, np.ones(count), temperature, cuts.astype(float), rng)
        failed = table["n_cut"] == 0
        assert 10 < failed.sum() < 60
        at_head = ~failed & (cuts == head)
        assert at_head.sum() > 20 and (~failed & (cuts > head)).sum() > 100 and (~failed & (cuts < head)).sum() > 50
        assert (padded_lengths(table)[at_head] == head + thermo._PAD).all()

    def test_a_fixed_cut_past_the_head(self):
        # every state is closed at 5000 levels, 12 exponents among 400 states;
        # the closure's ends lie below, across and above the gammas' split
        rng = np.random.default_rng(52)
        count = 400
        alpha = rng.choice(rng.uniform(1.05, 2.0, 12), count)
        width = 10.0 ** rng.uniform(0.5, 1.5, count)
        temperature = 10.0 ** rng.uniform(1.0, 3.0, count)
        table = assert_each_state_as_alone(width, alpha, np.ones(count), temperature, 5000, rng)
        assert (table["n_cut"] == 5000).all()
        x = level_scale(width, alpha, 1.0) / temperature
        head_low, end_low = (x * np.array([[thermo._HEAD], [5000.0]]) ** alpha) < thermo._GAMMA_SPLIT
        assert end_low.sum() > 10 and (head_low & ~end_low).sum() > 10 and (~head_low).sum() > 10

    def test_closed_cuts_as_the_crossing_search_passes_them(self):
        # the table's float n_cut, nearly all past the head, re-summed at
        # another temperature with the cut kept, as the crossing search does
        rng = np.random.default_rng(53)
        count = 300
        alpha = rng.choice(rng.uniform(1.05, 2.0, 10), count)
        width = 10.0 ** rng.uniform(0.5, 1.5, count)
        temperature = 10.0 ** rng.uniform(1.0, 3.0, count)
        cuts = summarize_many(width, alpha, np.ones(count), temperature)["n_cut"]
        assert (cuts > thermo._HEAD).sum() > 250
        cooler = temperature * rng.uniform(0.5, 1.0, count)
        table = assert_each_state_as_alone(width, alpha, np.ones(count), cooler, cuts, rng)
        assert (table["n_cut"] == cuts).all()

    def test_padded_rows_sum_the_kept_levels(self):
        # the entries past a row's own cut weigh nothing: U and S of every
        # state cut within the head match a plain sum of its kept levels
        rng = np.random.default_rng(37)
        count = 400
        width = 10.0 ** rng.uniform(-1.0, 1.0, count)
        alpha = rng.uniform(1.0001, 2.0, count)
        temperature = 10.0 ** rng.uniform(-1.0, 1.5, count)
        for levels in (None, 10, 33):
            table = summarize_many(width, alpha, np.ones(count), temperature, levels=levels)
            head = np.flatnonzero((table["n_cut"] > 0) & (table["n_cut"] <= thermo._HEAD))
            assert head.size > 200
            for i in head.tolist():
                e1 = level_scale(width[i], alpha[i], 1.0)
                x = e1 / temperature[i]
                t0, t1 = plain_sums(alpha[i], x, table["n_cut"][i])
                assert table["internal_energy"][i] == pytest.approx(e1 + e1 * t1 / t0, rel=1e-14)
                assert table["entropy"][i] == pytest.approx(x * t1 / t0 + math.log(t0), rel=1e-13, abs=1e-15)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(
        st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
        st.floats(1.0, 2.0, exclude_min=True),
        # log-uniform up to 1e308, and both ends of the domain
        st.one_of(st.sampled_from([thermo._T_MIN, thermo._MAX]),
                  st.floats(math.log10(thermo._T_MIN), 308.0).map(lambda e: max(10.0**e, thermo._T_MIN))),
        st.one_of(st.none(), st.integers(1, MAX_LEVELS)),
    ), min_size=1, max_size=8))
    @example([C_ONLY, (1.0, 1.5, 4.0, None), (1e62, 2.0, 1.0, 10)])
    def test_a_state_fails_exactly_where_its_u_is_nan(self, states):
        # over the whole domain, one example holding adaptive and fixed cuts:
        # a state has failed exactly where U is nan, and there S, F and C are
        # nan, n_cut is 0 and `summarize` raises; elsewhere all four are finite.
        # The cycle's trimmed call, with no Z or tail bound, fails the same
        # states, C_ONLY among them, and gives the same bits
        for levels in (None, "fixed"):
            group = [s for s in states if (s[3] is None) == (levels is None)]
            if not group:
                continue
            width, alpha, temperature, cuts = zip(*group)
            args = (width, alpha, [1.0] * len(group), temperature, thermo.DEFAULT_REL_TOL, None if levels is None else cuts)
            table, trimmed = summarize_many(*args), summarize_many(*args, True)
            assert sorted(trimmed) == ["entropy", "free_energy", "heat_capacity", "internal_energy", "n_cut"]
            for name, v in trimmed.items():
                assert v.tobytes() == table[name].tobytes(), name
            failed = np.isnan(table["internal_energy"])
            for name in ("entropy", "free_energy", "heat_capacity"):
                assert (np.isnan(table[name]) == failed).all(), name
            for name in ("internal_energy", "entropy", "free_energy", "heat_capacity"):
                assert np.isfinite(table[name][~failed]).all(), name
            assert ((table["n_cut"] == 0) == failed).all()
            for (w, a, t, cut), fails in zip(group, failed.tolist()):
                state = ThermalState(WellSpec(w, a), t)
                if fails:
                    with pytest.raises(FracStirlingError):
                        summarize(state, levels=cut)
                else:
                    assert math.isfinite(summarize(state, levels=cut).internal_energy)

    def test_a_state_can_fail_on_c_alone(self, monkeypatch):
        # at C_ONLY, x ~ 1e-124, T_2 overflows while T_0 and T_1 do not: U, S
        # and F are finite, C alone is not, and the state fails, trimmed too
        raw, formed = [], thermo._summary_fields

        def recording(*args):
            fields = formed(*args)
            raw.append({name: v.copy() for name, v in fields.items()})
            return fields

        monkeypatch.setattr(thermo, "_summary_fields", recording)
        width, alpha, temperature, _ = C_ONLY
        for trim in (False, True):
            table = summarize_many([width], [alpha], [1.0], [temperature], thermo.DEFAULT_REL_TOL, None, trim)
            assert np.isnan(table["internal_energy"][0]) and table["n_cut"][0] == 0
            finite = {name: bool(np.isfinite(v[0])) for name, v in raw.pop().items()}
            assert {name: finite[name] for name in ("internal_energy", "entropy", "free_energy", "heat_capacity")} == {
                "internal_energy": True, "entropy": True, "free_energy": True, "heat_capacity": False}

    def test_an_overflowing_top_level_weighs_nothing(self):
        # E_1 ~ 1e308 is finite but E_2 overflows: the state is kept in its
        # ground state, beside an ordinary one
        table = summarize_many([1e-302, 1.0], [1.02, 1.5], [1.0, 1.0], [4.0, 4.0])
        kept = summarize(ThermalState(WellSpec(1.0, 1.5), 4.0))
        assert table["n_cut"].tolist() == [1, kept.n_cut]
        assert np.isfinite(table["internal_energy"]).all()
        assert table["internal_energy"][0] == level_scale(1e-302, 1.02, 1.0)
        assert table["entropy"][0] == 0.0 and table["internal_energy"][1] == kept.internal_energy

    def test_ground_level_is_level_scale_bitwise(self):
        # one formula of E_1: over random widths and masses across the float
        # range, as Python and as numpy floats, `level_scale` on one well and on
        # arrays, the kernel's E_1 (U at one level), energy_level(spec, 1) and
        # energy_levels(spec, 1)[0] share its bits, and nothing warns.  Where E_1
        # is not finite, as at width 1e-200, the kernel fails the state and
        # both level functions raise the words of `_state_error`
        rng = np.random.default_rng(43)
        width = np.append(10.0 ** rng.uniform(-300.0, 300.0, 3000), [1e-200, 1e-302, 1.0, 1e300])
        alpha = np.append(rng.uniform(1.0001, 2.0, 3000), [2.0, 1.02, 1.5, 2.0])
        mass = np.append(10.0 ** rng.uniform(-300.0, 300.0, 3000), [1.0, 1.0, 5e-324, 5e-324])
        finite = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = summarize_many(width, alpha, mass, np.ones(width.size), levels=1)
            whole, every_other = level_scale(width, alpha, mass), level_scale(width[::2], alpha[::2], mass[::2])
            for i, state in enumerate(zip(width.tolist(), alpha.tolist(), mass.tolist())):
                e1 = level_scale(*state)
                bits = np.float64(e1).tobytes()
                assert whole[i].tobytes() == bits and (i % 2 or every_other[i // 2].tobytes() == bits), state
                for spec in (WellSpec(*state), WellSpec(*map(np.float64, state))):
                    assert np.float64(level_scale(spec.width, spec.alpha, spec.mass)).tobytes() == bits, state
                    if math.isfinite(e1):
                        assert np.float64(energy_level(spec, 1)).tobytes() == bits, state
                        assert energy_levels(spec, 1)[0].tobytes() == bits, state
                        continue
                    words = str(thermo._state_error(spec.width, spec.alpha, spec.mass))
                    for level in (energy_level, energy_levels):
                        with pytest.raises(FracStirlingError) as err:
                            level(spec, 1)
                        assert str(err.value) == words, state
                if math.isfinite(e1):
                    finite += 1
                    assert table["internal_energy"][i].tobytes() == bits, state
                else:
                    assert np.isnan(table["internal_energy"][i]) and table["n_cut"][i] == 0, state
        assert finite > 2000 and width.size - finite > 300
        assert np.isnan(table["internal_energy"][-4:]).tolist() == [True, False, True, True]

    def test_a_state_enters_only_through_alpha_and_x(self):
        # states with bitwise-equal alpha and x = E_1/T but other widths and
        # temperatures share every field that E_1 and T do not scale
        rng = np.random.default_rng(41)
        width, alpha, temperature = [], [], []
        for _ in range(300):
            a, w1, w2 = float(rng.uniform(1.2, 2.0)), *(float(10.0**v) for v in rng.uniform(-2.0, 2.0, 2))
            t1 = level_scale(w1, a, 1.0) / 10.0 ** rng.uniform(-4.0, 2.0)
            x, e2 = level_scale(w1, a, 1.0) / t1, level_scale(w2, a, 1.0)
            # the temperature of the second well at x, or one an ulp away
            t2 = e2 / x
            match = [t for t in (t2, math.nextafter(t2, 0.0), math.nextafter(t2, math.inf)) if e2 / t == x]
            if match:
                width += [w1, w2]
                alpha += [a, a]
                temperature += [t1, match[0]]
        assert len(width) >= 2 * 250
        table = summarize_many(width, alpha, [1.0] * len(width), temperature)
        assert np.isfinite(table["internal_energy"]).all() and (table["n_cut"] > thermo._HEAD).any()
        for name in ("n_cut", "partition_function", "entropy", "heat_capacity", "tail_bound"):
            first, second = table[name][0::2], table[name][1::2]
            assert first.tobytes() == second.tobytes(), name

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
    """The real level count the kernel rounds up, at one state."""
    return float(thermo._level_count(alpha, x, rel_tol))


def assert_certified(width, alpha, temperature, rel_tol, n):
    """The integral-test certificate at a cut of n levels: e^(-y)(1 + y) <= rel_tol D.

    y = x(n^alpha - 1) and D = x alpha n^(alpha-1) with x = E_1/T, in Python
    floats; it bounds both neglected tails below rel_tol.
    """
    x = level_scale(width, alpha, 1.0) / temperature
    y = x * (float(n) ** alpha - 1.0)
    assert math.exp(-y) * (1.0 + y) <= rel_tol * x * alpha * float(n) ** (alpha - 1.0), (width, alpha, temperature, n)


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


def exact_u_and_s(width, alpha, mass, temperature, n_cut):
    """U and S over levels 1 .. n_cut in mpmath at 50 digits, E_1 formed from the same doubles.

    A level weighing below e^-130 of the ground one is left out, far below
    a double's resolution of sums that hold the ground weight 1.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        w, a, m, t = map(mpmath.mpf, (width, alpha, mass, temperature))
        e1 = (1 / (2 * m)) ** (a / 2) * (mpmath.pi / (2 * w)) ** a
        x = e1 / t
        t0 = t1 = mpmath.mpf(0)
        for n in range(1, int(n_cut) + 1):
            g = mpmath.power(n, a) - 1
            if x * g > 130:
                break
            weight = mpmath.exp(-x * g)
            t0 += weight
            t1 += g * weight
        return e1 * (1 + t1 / t0), x * t1 / t0 + mpmath.log(t0)


class TestOneFormula:
    """E_1 is one `level_scale` call per kernel call, and U and S stay within a few ulps.

    `TestSummarizeMany.test_ground_level_is_level_scale_bitwise` pins its bits.
    """

    def test_one_call_forms_every_e1_at_once(self, monkeypatch):
        # the kernel calls `level_scale` once, on the arrays of all its states,
        # those whose E_1 leaves the float range too: no state forms E_1 alone
        calls, scale = [], thermo.level_scale

        def counting(*args):
            calls.append([np.shape(v) for v in args])
            return scale(*args)

        monkeypatch.setattr(thermo, "level_scale", counting)
        rng = np.random.default_rng(53)
        count = 400
        width = 10.0 ** rng.uniform(-300.0, 300.0, count)
        for levels in (None, 10):
            table = summarize_many(width, rng.uniform(1.0001, 2.0, count), np.ones(count), np.ones(count), levels=levels)
            assert 0 < np.isnan(table["internal_energy"]).sum() < count
        assert calls == [[(count,)] * 3] * 2

    @pytest.mark.parametrize("levels", [None, 10])
    def test_u_and_s_within_a_few_ulps_of_mpmath(self, levels):
        """U and S of 1 000 random states cut within the head, against mpmath at 50 digits.

        Widths and masses span 1e-2 .. 1e2 and x = E_1/T 10^-1.3 .. 10^2
        adaptive, 10^-2 .. 10^2 at ten levels.  E_1 is formed from the same
        doubles at 50 digits, so the error counts its rounding too.  U is
        measured in ulps of U, S in ulps of max(S, 1): ln T_0 of a T_0 near 1
        carries T_0's rounding, an ulp of 1, so S in a cold well is exact to
        an ulp of 1, not of itself.  Largest errors found: adaptive, U 3.1
        and S 2.5 ulps; ten levels, U 2.8 and S 1.9 ulps.
        """
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(59 if levels is None else 61)
        count = 1000
        width = 10.0 ** rng.uniform(-2.0, 2.0, count)
        alpha = rng.uniform(1.0001, 2.0, count)
        mass = 10.0 ** rng.uniform(-2.0, 2.0, count)
        x = 10.0 ** rng.uniform(-1.3 if levels is None else -2.0, 2.0, count)
        temperature = level_scale(width, alpha, mass) / x
        table = summarize_many(width, alpha, mass, temperature, levels=levels)
        head = np.flatnonzero(table["n_cut"] <= thermo._HEAD)
        assert head.size > 950 and np.isfinite(table["internal_energy"]).all()
        worst_u = worst_s = 0.0
        for i in head.tolist():
            u, s = exact_u_and_s(width[i], alpha[i], mass[i], temperature[i], table["n_cut"][i])
            worst_u = max(worst_u, abs(table["internal_energy"][i] - u) / np.spacing(float(u)))
            worst_s = max(worst_s, abs(table["entropy"][i] - s) / np.spacing(max(float(s), 1.0)))
        assert worst_u < 4.0 and worst_s < 3.0, (float(worst_u), float(worst_s))


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
        for w, a, t, n in zip(width, alpha, temperature, table["n_cut"].tolist()):
            assert_certified(w, a, t, rel_tol, n)

    @pytest.mark.parametrize("width, alpha, n, rel_tol", [
        (1.0, 2.0, 7, 1e-12), (0.3, 1.3, 40, 1e-6), (2.0, 1.7, 1000, 1e-15),
        (1.0, 1.5, 2, 1e-12), (1.0, 1.05, 10**6, 1e-6),
    ])
    def test_real_cut_within_ulps_of_an_integer(self, width, alpha, n, rel_tol):
        # the real N of these states lies on both sides of n, a few ulps away;
        # the array cut rounds each up to n or n + 1, and the certificate's
        # slack holds at either
        temperature = temperatures_around_cut(width, alpha, n, rel_tol)
        count = len(temperature)
        table = summarize_many([width] * count, [alpha] * count, [1.0] * count, temperature, rel_tol)
        assert set(table["n_cut"].tolist()) == {n, n + 1}
        for t, cut in zip(temperature, table["n_cut"].tolist()):
            assert_certified(width, alpha, t, rel_tol, cut)
        assert table["n_cut"].tolist() == scalar_cuts([width] * count, [alpha] * count, temperature, rel_tol)

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
        assert np.isnan(table["internal_energy"]).tolist() == [True, False, True]

    def test_certificate_holds_at_every_random_cut(self):
        # 1000 states across six decades of width and four of temperature
        rng = np.random.default_rng(13)
        width = 10.0 ** rng.uniform(-3.0, 3.0, 1000)
        alpha = rng.uniform(1.01, 2.0, 1000)
        temperature = 10.0 ** rng.uniform(-1.0, 3.0, 1000)
        table = summarize_many(width, alpha, np.ones(1000), temperature)
        assert np.isfinite(table["internal_energy"]).all()
        for w, a, t, n in zip(width.tolist(), alpha.tolist(), temperature.tolist(), table["n_cut"].tolist()):
            assert_certified(w, a, t, thermo.DEFAULT_REL_TOL, n)
        assert table["n_cut"].tolist() == scalar_cuts(width, alpha, temperature)

    def test_cuts_past_a_million_levels_are_certified(self):
        # real cuts from 1.4e9 to 1.7e14 levels: each is a finite integer
        # that meets the certificate, and the summed tail bound is below rel_tol
        width = np.geomspace(1e7, 1e12, 50)
        table = summarize_many(width, [1.05] * 50, [1.0] * 50, [4.0] * 50)
        assert np.isfinite(table["internal_energy"]).all() and (table["n_cut"] > 1e9).all()
        assert (table["n_cut"] % 1 == 0).all() and (table["tail_bound"] <= thermo.DEFAULT_REL_TOL).all()
        for w, n in zip(width.tolist(), table["n_cut"].tolist()):
            assert_certified(w, 1.05, 4.0, thermo.DEFAULT_REL_TOL, n)


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
        ratios = thermo._gamma_ratios(s, y)
        # a call whose entries all lie on one side leaves the other side empty
        for side in (below, ~below):
            assert thermo._gamma_ratios(s[side], y[side]).tobytes() == ratios[:, side].tobytes()
        for j in range(3):
            got = ratios[j]
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


def geometric_bound(state, n):
    """w_N r / ((1 - r) T_0) over the kept levels 1 .. N, r = w_{N+1} / w_N, in mpmath at 40 digits.

    x = E_1/T is the float the kernel forms; the rest is exact to 40 digits.
    """
    mpmath = pytest.importorskip("mpmath")
    well = state.well
    x = level_scale(well.width, well.alpha, well.mass) / state.temperature
    with mpmath.workdps(40):
        g = [mpmath.mpf(k) ** well.alpha - 1 for k in range(1, n + 2)]
        t0 = mpmath.fsum(mpmath.exp(-x * gk) for gk in g[:n])
        step = x * (g[n] - g[n - 1])
        return float(mpmath.exp(-x * g[n - 1] - step) / (-mpmath.expm1(-step) * t0))


class TestCutEdge:
    """Every state's tail bound is one closed form in alpha, x and N, head row or closed."""

    @pytest.mark.parametrize(
        "well, t, levels",
        [
            (WellSpec(1.0, 2.0), 4.0, 10),  # head rows, fixed
            (WellSpec(1.2, 1.6), 3.0, 10),
            (WellSpec(5.0, 1.1), 4.0, 100),
            (WellSpec(1.0, 2.0), 4.0, None),  # head rows, adaptive
            (WellSpec(1.8, 1.4), 4.0, None),
            (WellSpec(0.3, 1.9, 2.0), 1.0, None),
            (WellSpec(5.0, 1.1), 4.0, 300),  # closed rows, fixed
            (WellSpec(20.0, 1.05), 60.0, 2000),
            (WellSpec(5.0, 1.1), 4.0, None),  # closed rows, adaptive
            (WellSpec(3.0, 1.6), 400.0, None),
            (WellSpec(1.0, 2.0), 1e19, 10),  # x dg near 1e-18: r rounds to 1
            (WellSpec(1.0, 2.0), 1e19, 300),
            (WellSpec(1.0, 1.5), 1e14, 20),
            (WellSpec(3.0, 1.6), 400.0, thermo._HEAD),  # both sides of the head on one state
            (WellSpec(3.0, 1.6), 400.0, thermo._HEAD + 1),
        ],
    )
    def test_matches_the_geometric_bound(self, well, t, levels):
        state = ThermalState(well, t)
        s = summarize(state, levels=levels)
        assert s.n_cut == levels or levels is None
        assert s.n_cut <= 5000  # the oracle sums every kept level
        assert 0.0 < s.tail_bound == pytest.approx(geometric_bound(state, s.n_cut), rel=1e-14)

    def test_a_call_without_a_closed_row_skips_the_closure(self, monkeypatch):
        # the closure costs a fixed time per call, paid only where a row needs it
        calls, tail_sums = [], thermo._tail_sums

        def counting(alpha, *args):
            calls.append(alpha.size)
            return tail_sums(alpha, *args)

        monkeypatch.setattr(thermo, "_tail_sums", counting)
        widths, alphas, masses = [1.0, 3.0], [2.0, 1.6], [1.0, 1.0]
        assert summarize_many(widths, alphas, masses, [4.0, 3.0])["n_cut"].max() <= thermo._HEAD
        summarize_many(widths, alphas, masses, [4.0, 400.0], levels=thermo._HEAD)
        assert calls == []
        assert summarize_many(widths, alphas, masses, [4.0, 400.0])["n_cut"].tolist() == [11, 1051]
        assert calls == [1]

    def test_closed_rows_whose_head_weight_underflows_skip_the_closure(self, monkeypatch):
        # at T = 3 the weight of level _HEAD underflows, so levels past it weigh
        # 0: a cut past the head adds nothing to the head's sums, calls no
        # closure and keeps every field of the cut at the head, bit for bit
        calls, tail_sums = [], thermo._tail_sums

        def counting(alpha, *args):
            calls.append(alpha.size)
            return tail_sums(alpha, *args)

        monkeypatch.setattr(thermo, "_tail_sums", counting)
        state = [1.2], [1.6], [1.0], [3.0]
        past = summarize_many(*state, levels=thermo._HEAD + 44)
        assert calls == []
        head = summarize_many(*state, levels=thermo._HEAD)
        assert past.pop("n_cut").tolist() == [thermo._HEAD + 44] and head.pop("n_cut").tolist() == [thermo._HEAD]
        for name, values in head.items():
            assert past[name].tobytes() == values.tobytes(), name
        # beside a row that needs it, the closure sums that row alone
        summarize_many([1.2, 3.0], [1.6, 1.6], [1.0, 1.0], [3.0, 400.0], levels=thermo._HEAD + 44)
        assert calls == [1]


class TestPastAMillionLevels:
    """Adaptive cuts past a million levels, where the sum is closed in form."""

    @pytest.mark.parametrize("alpha", [1.01, 1.3, 1.5, 2.0])
    def test_classical_limit_matches_the_gamma_oracle(self, alpha):
        # sum_n e^(-x n^alpha) = Gamma(1 + 1/alpha) x^(-1/alpha) - 1/2 + O(x),
        # and sum_n n^alpha e^(-x n^alpha) = Gamma(1 + 1/alpha) x^(-1 - 1/alpha)/alpha
        # up to O(1): at x <= 1e-8 both corrections fall below 1e-16 relative
        t = 4.0
        for target in np.geomspace(1e-8, 1e-100, 12).tolist():
            state = state_at(alpha, target, t)
            x = level_scale(state.well.width, alpha, 1.0) / t
            s = summarize(state)
            bulk = math.gamma(1.0 + 1.0 / alpha) * x ** (-1.0 / alpha)
            z = bulk - 0.5
            assert s.n_cut > thermo._HEAD and s.partition_function == pytest.approx(z, rel=1e-13), x
            assert s.internal_energy == pytest.approx(t * (bulk / alpha) / z, rel=1e-13), x

    @pytest.mark.parametrize("alpha, x", [(1.05, 1e-5), (1.3, 2.8e-7), (1.7, 1e-9)])
    def test_closure_matches_an_fsum_at_two_million_levels(self, alpha, x):
        # an exactly rounded sum of every level up to the adaptive cut
        state = state_at(alpha, x, 4.0)
        got, n = kernel_sums(state)
        assert 1.5e6 < n < 2.5e6
        x = level_scale(state.well.width, alpha, 1.0) / 4.0
        g = np.arange(1.0, n + 1.0) ** alpha - 1.0
        weights = np.exp(-x * g)
        t0 = math.fsum(weights)
        mean = math.fsum(g * weights) / t0
        square = math.fsum(g * g * weights) / t0
        want = (t0, 4.0 * x * mean, x * mean + math.log(t0), x * x * (square - mean * mean))
        for name, g_, w in zip(("Z_s", "U - E_1", "S", "C"), got, want):
            assert g_ == pytest.approx(w, rel=1e-14), name

    def test_tail_bound_past_two_to_the_53_levels(self):
        # g_{N+1} - g_N and 1 - r are formed without cancellation, where the
        # difference of two powers of N would round to 0 and the bound to inf
        for well in (WellSpec(1e20, 1.5), WellSpec(1e100, 1.01)):
            s = summarize(ThermalState(well, 4.0))
            assert s.n_cut > 2**53 and 0.0 < s.tail_bound <= thermo.DEFAULT_REL_TOL, well

    @pytest.mark.parametrize("well", [WellSpec(1e110, 1.01), WellSpec(1e200, 2.0)])
    def test_sums_past_the_float_range_fail(self, well):
        # T_2 overflows at 1e110, where E_1 is finite, so the sums are worded;
        # E_1 underflows to 0 at 1e200, so x = 0 has no finite cut, and the
        # levels are worded
        words = {1e110: "level sums of WellSpec", 1e200: "energy levels of WellSpec"}[well.width]
        with pytest.raises(FracStirlingError, match=f"^{words}.* the float range$") as err:
            summarize(ThermalState(well, 4.0))
        assert type(err.value) is FracStirlingError
        table = summarize_many([well.width], [well.alpha], [1.0], [4.0])
        assert np.isnan(table["internal_energy"]).tolist() == [True] and table["n_cut"].tolist() == [0]

    def test_occupations_past_max_levels_raise(self):
        state = ThermalState(WellSpec(1e7, 1.05), 4.0)
        assert summarize(state).n_cut > MAX_LEVELS
        with pytest.raises(ValueError, match="at most"):
            occupations(state)


class TestThermalStateValidation:
    @pytest.mark.parametrize("t", [0.0, -1.0, float("inf"), 5e-324])
    def test_rejects_nonpositive_temperature(self, t):
        with pytest.raises(ValueError):
            ThermalState(WellSpec(1.0, 1.5), t)
