"""`g17.slots` gives exactly the bytes of "%.17g" % v, from arrays or through "%"."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstirling import g17


def texts(values):
    """The texts `g17.slots` gives for `values`, its NULs deleted."""
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in g17.slots(values)]


def check(values):
    values = [float(v) for v in values]
    assert texts(values) == ["%.17g" % v for v in values]


def ulps(value, count):
    """`value` and the `count` floats on either side of it."""
    down, up = [value], [value]
    for _ in range(count):
        down.append(math.nextafter(down[-1], -math.inf))
        up.append(math.nextafter(up[-1], math.inf))
    return down[::-1] + up[1:]


POWERS_OF_TEN = [float(f"1e{k}") for k in range(-323, 309)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern(bits):
    check(np.array(bits, np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_any_float(values):
    check(values)


def test_every_power_of_ten_and_its_neighbours():
    powers = np.array(POWERS_OF_TEN)
    check(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]))


@pytest.mark.parametrize("edge", [1e-4, 1e17], ids=["fixed-below-1e-4", "exponent-from-1e17"])
def test_switch_between_fixed_and_exponent_forms(edge):
    # "%.17g" switches at a rounded exponent of -5 and of 17
    check(ulps(edge, 40) + ulps(-edge, 3) + [edge * (1 + k * 1e-15) for k in range(-30, 31)])


def test_a_carry_into_the_exponent():
    # 99999999999999999.5 10^k rounds up to 10^(k + 17), one more exponent digit
    check([float(f"{digits}e{k}") for digits in ("99999999999999999.5", "99999999999999999.4999")
           for k in range(-339, 292)])


def test_a_value_whose_integer_part_has_sixteen_digits():
    # log10(1e-248) rounds to -248, so N = 9999999999999999.8 has 16 digits;
    # rounded before its digits are counted it would print as 1e-248
    assert texts([1e-248]) == ["9.9999999999999998e-249"]


def test_typical_values_and_special_values():
    rng = np.random.default_rng(26)
    check(np.concatenate([rng.normal(size=20000) * 10.0 ** rng.integers(-30, 30, 20000),
                          rng.random(5000), rng.integers(-10**6, 10**6, 5000)]))
    check([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
           1.7976931348623157e308, 0.5, 1.5, 2.5, 1e16, 12345678901234567.0])


def test_each_fallback_class_and_no_other_value_goes_through_percent(monkeypatch):
    calls = []
    monkeypatch.setattr(g17, "_fmt", lambda v: calls.append(v) or "%.17g" % v)
    fallback = [
        math.nan, math.inf, -math.inf, 0.0, -0.0,  # not finite, or zero
        1e-250, 5e-324, 1e250, -1.7976931348623157e308,  # outside (1e-250, 1e250)
        2.0**-25,  # 2.98023223876953125e-08, an exact tie at the 18th digit, and 10^24 is no float
        1e-248,  # N = 9999999999999999, 16 digits
    ]
    rng = np.random.default_rng(3)
    ordinary = rng.normal(size=10000) * 10.0 ** rng.integers(-200, 12, 10000)
    # exact ties where 10^k is a float, at k = 3, 1 and 22, each to an even
    # and an odd N: 12345678901234.5625 10^3 = 12345678901234562.5
    ties = [12345678901234.5625, 12345678901234.1875, 1234567890123456.25, -1234567890123456.75,
            9 * 2.0**-23, -11 * 2.0**-23]
    values = np.concatenate([ordinary[:5000], fallback, ties, ordinary[5000:]])
    assert texts(values) == ["%.17g" % v for v in values.tolist()]
    assert [repr(v) for v in calls] == [repr(v) for v in fallback]


def test_exact_ties_where_the_power_is_a_float_stay_in_the_arrays(monkeypatch):
    # in [1e13, 1e16) k is 1 to 3, so 10^k is a float and f is exact; with at
    # most 9 fraction bits one value in about 64 is an exact tie, rounded to
    # the even N without "%"
    calls = []
    monkeypatch.setattr(g17, "_fmt", lambda v: calls.append(v) or "%.17g" % v)
    rng = np.random.default_rng(34)
    values = np.floor(10.0 ** rng.uniform(13.0, 16.0, 100000) * 512.0) / 512.0
    values[::2] *= -1.0
    product = [Fraction(abs(v)) * 10 ** (16 - math.floor(math.log10(abs(v)))) for v in values.tolist()]
    assert sum(p.denominator == 2 for p in product) > 1000
    assert texts(values) == ["%.17g" % v for v in values.tolist()]
    assert calls == []
