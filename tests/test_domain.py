"""One validity domain: every layer gives the same verdict on a width, alpha, mass and temperature.

Each quantity is probed at each bound of its domain, one float to each side
of it, nan, +-inf and a Python int past the float range.  WellSpec, ThermalState, CycleParams, a SweepAxis end,
`summarize_many`, a `trace_curve` grid value and a width scan point or bracket end must all
accept it or all raise ValueError, as the domain stated here says; where two
of them word a failure by the same field, their messages are byte-identical.
"""

import math
import sys
import warnings
from dataclasses import replace

import pytest

from fracstirling import CycleParams, SweepAxis, ThermalState, WellSpec, solver, trace_curve
from fracstirling.thermo import summarize_many

MAX = sys.float_info.max
T_MIN = math.nextafter(1.0 / MAX, 1.0)  # the smallest T whose 1/T is finite, about 5.6e-309

# the valid interval [smallest, largest] of each quantity and the bounds probed
DOMAIN = {
    "width": (math.nextafter(0.0, 1.0), MAX, (0.0, MAX)),
    "alpha": (math.nextafter(1.0, 2.0), 2.0, (1.0, 2.0)),
    "mass": (math.nextafter(0.0, 1.0), MAX, (0.0, MAX)),
    "temperature": (T_MIN, MAX, (0.0, T_MIN, MAX)),
}
FIELDS = {"width": ("width_a", "width_b"), "alpha": ("alpha_1", "alpha_2"), "mass": ("mass",),
          "temperature": ()}
BASE = CycleParams(1.0, 1.4, 1.5, 1.6, 4.0, 3.0)
# a valid value of each sweepable quantity, inside its domain
INNER = {"width": 1.0, "alpha": 1.5}
# the alpha a trace solves or sweeps beside each sweepable field
OTHER = {"width_a": "alpha_2", "width_b": "alpha_1", "alpha_1": "alpha_2", "alpha_2": "alpha_1"}


BIG = 10**400  # a Python int past the float range


def probes(quantity):
    values = {math.nan, math.inf, -math.inf, BIG}
    for bound in DOMAIN[quantity][2]:
        values |= {math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)}
    return sorted(values, key=lambda v: (v != v, v))  # nan last


def words(make):
    """None where `make()` accepts its value, else the ValueError's message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a trace of failing nodes warns
            make()
    except ValueError as err:
        return str(err)
    return None


def verdicts(quantity, v):
    """Each layer's words on value v of `quantity`, keyed by layer."""
    out = {}
    if quantity == "temperature":
        out["ThermalState"] = words(lambda: ThermalState(WellSpec(1.0, 1.5), v))
        baths = (4.0, v) if v < 3.0 else (v, 3.0)  # nan lands on t_hot
        out["CycleParams"] = words(lambda: CycleParams(1.0, 1.4, 1.5, 1.6, *baths))
    else:
        out["WellSpec"] = words(lambda: WellSpec(**{"width": 1.0, "alpha": 1.5, quantity: v}))
    args = {"width": [1.0], "alpha": [1.5], "mass": [1.0], "temperature": [4.0], quantity: [v]}
    out["summarize_many"] = words(lambda: summarize_many(**args))
    for field in FIELDS[quantity]:
        out[f"CycleParams.{field}"] = words(lambda: replace(BASE, **{field: v}))
        if field == "mass":
            continue
        inner = INNER[quantity]
        ends = (v, inner) if v < inner else (inner, v)
        out[f"SweepAxis.{field}"] = words(lambda: SweepAxis(field, *ends, 3))
        out[f"trace grid {field}"] = words(
            lambda: trace_curve(BASE, field, OTHER[field], [v], (1.3, 2.0), levels=10, scan_points=4))
        # an alpha bracket is clipped into the domain; a width bracket's end is a scan point,
        # or past the float range, where the scan is worded by that end; nan fails the
        # bracket check first, worded as a bracket
        if quantity == "width":
            assert v is BIG or v != v or v in solver._scan_points(*ends, 2)
            out[f"trace scan {field}"] = words(
                lambda: trace_curve(BASE, OTHER[field], field, [1.5], ends, levels=10, scan_points=2))
    return out


CASES = [(q, v) for q in DOMAIN for v in probes(q)]


@pytest.mark.parametrize("quantity, v", CASES, ids=[f"{q}={'10**400' if v is BIG else repr(v)}" for q, v in CASES])
def test_every_layer_gives_the_same_verdict(quantity, v):
    lo, hi, _ = DOMAIN[quantity]
    valid = lo <= v <= hi
    got = verdicts(quantity, v)
    assert {name: w is None for name, w in got.items()} == dict.fromkeys(got, valid)
    if valid:
        return
    # the messages that name the same field, by their first word, are one message;
    # a bracket's message names its field last
    by_field = {}
    for name, message in got.items():
        first, *_, last = message.split()
        by_field.setdefault((first, last) if first == "bracket" else first, set()).add(message)
    assert all(len(messages) == 1 for messages in by_field.values()), by_field
    # WellSpec, ThermalState and summarize_many name the quantity, CycleParams the field
    assert (got.get("WellSpec") or got["ThermalState"]).startswith(f"{quantity} must")
    assert got["summarize_many"].startswith(f"{quantity} must")
    for field in FIELDS[quantity]:
        assert got[f"CycleParams.{field}"].startswith(f"{field} must")


def test_the_temperature_floor_is_where_one_over_t_is_finite():
    assert 1.0 / T_MIN <= MAX and math.isinf(1.0 / math.nextafter(T_MIN, 0.0)) and 5.5e-309 < T_MIN < 5.7e-309
