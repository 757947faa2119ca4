import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from fracstirling import (
    MAX_LEVELS,
    FracStirlingError,
    ThermalState,
    TruncationLimitError,
    WellSpec,
    occupations,
    summarize,
    thermo,
)
from fracstirling.spectrum import energy_levels

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
        # the memo keeps summaries, so no field may hold an array
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
        calls = []

        def counting_levels(spec, n_max):
            calls.append(n_max)
            return energy_levels(spec, n_max)

        monkeypatch.setattr(thermo, "energy_levels", counting_levels)
        thermo._summarize.cache_clear()
        for state in (UNIT_STATE, ThermalState(WellSpec(300.0, 1.3), 4.0)):
            calls.clear()
            n_cut = summarize(state).n_cut
            assert calls == [n_cut + 1]
        calls.clear()
        assert summarize(UNIT_STATE, levels=10).n_cut == 10
        assert calls == [11]
        calls.clear()
        with pytest.raises(TruncationLimitError):
            summarize(ThermalState(WellSpec(1e7, 1.05), 4.0))
        assert calls == []

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

    @pytest.mark.parametrize(
        "well, levels",
        [
            (WellSpec(1e-200, 1.6), None),  # (pi/2L)^alpha raises OverflowError
            (WellSpec(1e-302, 1.02), None),  # E_1 ~ 1e308, E_2 overflows to inf
            (WellSpec(1.0, 2.0, 1e-320), 10),  # (1/2m)^(alpha/2) is inf
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


class TestThermalStateValidation:
    @pytest.mark.parametrize("t", [0.0, -1.0, float("inf")])
    def test_rejects_nonpositive_temperature(self, t):
        with pytest.raises(ValueError):
            ThermalState(WellSpec(1.0, 1.5), t)
