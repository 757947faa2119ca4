import warnings

import numpy as np
import pytest

from fracstirling import FracStirlingError, ThermalState, WellSpec, energy_level, energy_levels, occupations, thermo

# Frozen oracle values, evaluated independently with mpmath at 40 digits.
E_L2_A15_N3 = 2.1505235726947667  # (1/2)^0.75 * (pi/4)^1.5 * 3^1.5
E_GROUND_UNIT_WELL = np.pi**2 / 8.0


class TestScaleCoefficient:
    """The kinetic prefactor (1/(2m))^(alpha/2), as E_1 of a well of width pi/2.

    There pi/(2L) is 1 exactly, so E_1 is the prefactor itself.
    """

    def test_quadratic_unit_mass(self):
        assert energy_level(WellSpec(np.pi / 2.0, 2.0, 1.0), 1) == 0.5

    def test_fractional_unit_mass(self):
        got = energy_level(WellSpec(np.pi / 2.0, 1.5, 1.0), 1)
        assert got == pytest.approx(0.5946035575013605, rel=1e-15)

    def test_half_mass(self):
        assert energy_level(WellSpec(np.pi / 2.0, 2.0, 0.5), 1) == 1.0


class TestEnergyLevel:
    def test_ground_state_unit_well(self):
        assert energy_level(WellSpec(1.0, 2.0, 1.0), 1) == pytest.approx(
            E_GROUND_UNIT_WELL, rel=1e-15
        )

    def test_quadratic_n_scaling(self):
        spec = WellSpec(1.0, 2.0, 1.0)
        assert energy_level(spec, 2) == pytest.approx(
            4.0 * energy_level(spec, 1), rel=1e-14
        )

    def test_fractional_value(self):
        assert energy_level(WellSpec(2.0, 1.5, 1.0), 3) == pytest.approx(
            E_L2_A15_N3, rel=1e-14
        )

    def test_ratio_law_independent_of_geometry(self):
        # E_n / E_1 = n^alpha regardless of width and mass
        for width, mass in [(0.3, 1.0), (1.0, 2.5), (7.0, 0.2)]:
            spec = WellSpec(width, 1.2, mass)
            ratio = energy_level(spec, 2) / energy_level(spec, 1)
            assert ratio == pytest.approx(2.0**1.2, rel=1e-13)

    def test_rejects_nonpositive_index(self):
        spec = WellSpec(1.0, 1.5)
        with pytest.raises(ValueError):
            energy_level(spec, 0)
        with pytest.raises(ValueError):
            energy_level(spec, -3)


class TestEnergyLevels:
    def test_matches_scalar_form(self):
        spec = WellSpec(1.7, 1.8, 0.9)
        batch = energy_levels(spec, 12)
        assert batch.shape == (12,)
        for i in range(12):
            assert batch[i] == pytest.approx(energy_level(spec, i + 1), rel=1e-15)

    def test_scalar_form_is_the_array_element_bit_for_bit(self):
        # Python's ** differs from numpy's array power in the last bit on
        # some (alpha, n) pairs; energy_level takes numpy's
        rng = np.random.default_rng(1)
        for _ in range(8):
            spec = WellSpec(float(rng.uniform(0.1, 10.0)), float(rng.uniform(1.0, 2.0)), float(rng.uniform(0.1, 10.0)))
            batch = energy_levels(spec, 10**6)
            ns = np.concatenate((np.arange(1, 201), rng.integers(1, 10**6 + 1, 800), [10**6])).tolist()
            assert [energy_level(spec, n).hex() for n in ns] == [batch[n - 1].item().hex() for n in ns]

    def test_singleton(self):
        spec = WellSpec(2.0, 1.3)
        assert energy_levels(spec, 1).tolist() == [energy_level(spec, 1)]

    def test_quadratic_sequence(self):
        got = energy_levels(WellSpec(1.0, 2.0, 1.0), 3)
        expect = E_GROUND_UNIT_WELL * np.array([1.0, 4.0, 9.0])
        np.testing.assert_allclose(got, expect, rtol=1e-14)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            spec = WellSpec(
                width=float(rng.uniform(0.1, 5.0)),
                alpha=float(rng.uniform(1.0 + 1e-6, 2.0)),
                mass=float(rng.uniform(0.2, 3.0)),
            )
            levels = energy_levels(spec, 40)
            assert np.all(np.diff(levels) > 0)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            energy_levels(WellSpec(1.0, 1.5), 0)


class TestPastTheFloatRange:
    """A level past the float range raises the error `occupations` raises, in its words, without a warning."""

    @pytest.mark.parametrize(
        "spec",
        [
            WellSpec(1e-200, 1.6),  # (pi/2L)^alpha overflows: E_1 is inf
            WellSpec(1.0, 2.0, 1e-320),  # (1/2m)^(alpha/2) is inf
            WellSpec(1e300, 2.0, 5e-324),  # inf times a power that underflows to 0: E_1 is nan
        ],
    )
    def test_an_unrepresentable_ground_level_raises_the_state_error(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FracStirlingError) as state:
                occupations(ThermalState(spec, 4.0), levels=10)
            words = str(thermo._state_error(spec.width, spec.alpha, spec.mass))
            assert str(state.value) == words == f"energy levels of {spec} exceed the float range"
            for call in (lambda: energy_level(spec, 1), lambda: energy_level(spec, 2), lambda: energy_levels(spec, 3)):
                with pytest.raises(FracStirlingError) as err:
                    call()
                assert type(err.value) is FracStirlingError and str(err.value) == words

    def test_a_finite_ground_level_below_an_overflowing_one(self):
        # E_1 ~ 1e308 is finite and E_2 is not: the ground level alone is returned
        spec = WellSpec(1e-302, 1.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert energy_levels(spec, 1).tolist() == [energy_level(spec, 1)] and energy_level(spec, 1) < np.inf
            for call in (lambda: energy_level(spec, 2), lambda: energy_levels(spec, 3)):
                with pytest.raises(FracStirlingError, match=r"^energy levels of .* exceed the float range$"):
                    call()


class TestScalingLaws:
    def test_width_scaling(self):
        # E_n(lambda L) = lambda^-alpha E_n(L)
        rng = np.random.default_rng(7)
        for _ in range(20):
            width = float(rng.uniform(0.2, 3.0))
            alpha = float(rng.uniform(1.01, 2.0))
            lam = float(rng.uniform(0.3, 4.0))
            base = energy_levels(WellSpec(width, alpha), 8)
            scaled = energy_levels(WellSpec(lam * width, alpha), 8)
            np.testing.assert_allclose(scaled, lam**-alpha * base, rtol=1e-12)

    def test_quadratic_reduction(self):
        # at alpha = 2 the spectrum is the ordinary quadratic-dispersion box
        for width, mass in [(0.5, 1.0), (1.0, 1.0), (2.0, 0.7)]:
            spec = WellSpec(width, 2.0, mass)
            for n in (1, 2, 5):
                independent = (np.pi * n / (2.0 * width)) ** 2 / (2.0 * mass)
                assert energy_level(spec, n) == pytest.approx(independent, rel=1e-13)


class TestWellSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 0.0, "alpha": 1.5},
            {"width": -1.0, "alpha": 1.5},
            {"width": 1.0, "alpha": 1.0},
            {"width": 1.0, "alpha": 0.5},
            {"width": 1.0, "alpha": 2.0001},
            {"width": 1.0, "alpha": 1.5, "mass": 0.0},
            {"width": 1.0, "alpha": 1.5, "mass": -2.0},
            {"width": float("inf"), "alpha": 1.5},
            {"width": 1.0, "alpha": 1.5, "mass": float("inf")},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            WellSpec(**kwargs)

    def test_alpha_two_is_admissible(self):
        assert WellSpec(1.0, 2.0).alpha == 2.0

    def test_immutability(self):
        spec = WellSpec(1.0, 1.5)
        with pytest.raises(AttributeError):
            spec.width = 2.0
