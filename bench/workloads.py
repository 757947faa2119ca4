"""The four benchmark workloads, built from a seed as CLI invocations.

A workload is a list of CLI invocations. One job runs every invocation of
the workload once, each from a cold `summarize` cache. The seed shifts grid
endpoints and trace start nodes by a few thousandths; it never changes a
workload's character (grid size, distinct-state count, n_cut range).

Every number a workload passes to the CLI is written with `repr`, so the CLI
parses back exactly the float the benchmark uses to check the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# CycleParams field -> CLI flag and CLI axis name, for the fields the workloads set
_PARAM_FLAGS = {"width_a": "la", "width_b": "lb", "alpha_1": "a1", "alpha_2": "a2",
                "t_hot": "th", "t_cold": "tc"}
_AXIS_NAMES = {"width_a": "la", "width_b": "lb", "alpha_1": "alpha1", "alpha_2": "alpha2"}

# CLI defaults for the parameters a workload leaves unset.
CLI_DEFAULTS = {"width_a": 1.0, "width_b": 1.0, "alpha_1": 2.0, "alpha_2": 2.0,
                "t_hot": 4.0, "t_cold": 3.0, "mass": 1.0}

# the CLI's default `trace --tol`, which the workloads keep
TRACE_TOL = 1e-8

# Width pairs of the paper's Table 1 with the tabulated alpha_2 of each row.
# With a ten-level substance the q_r = 0 branch starts at that alpha_2, so
# traces run upward from it; the adaptive substance has a root there too.
TABLE1 = (
    (0.6, 0.9, 1.282), (0.6, 1.0, 1.326), (0.8, 1.1, 1.409), (0.8, 1.2, 1.459),
    (1.0, 1.3, 1.520), (1.0, 1.4, 1.579), (1.2, 1.5, 1.621), (1.2, 1.6, 1.678),
    (1.4, 1.7, 1.719), (1.4, 1.8, 1.778),
)


@dataclass(frozen=True)
class Axis:
    """A uniform inclusive grid over one cycle parameter."""

    param: str
    lo: float
    hi: float
    count: int

    def values(self) -> list[float]:
        step = (self.hi - self.lo) / (self.count - 1)
        return [self.lo + i * step for i in range(self.count)]

    def arg(self) -> str:
        return f"{_AXIS_NAMES[self.param]}={self.lo!r}:{self.hi!r}:{self.count}"


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `sweep` over axes (x, y) or `trace` along x solving `solve`."""

    command: str
    base: dict
    x: Axis
    y: Axis | None = None
    solve: str | None = None
    levels: int | None = None

    def params(self) -> dict:
        """CycleParams fields for this call, CLI defaults filled in."""
        return {**CLI_DEFAULTS, **self.base}

    def nodes(self) -> int:
        return self.x.count * (self.y.count if self.y else 1)

    def argv(self) -> list[str]:
        out = [self.command]
        if self.command == "sweep":
            out += ["--x", self.x.arg(), "--y", self.y.arg()]
        else:
            out += ["--sweep", self.x.arg(), "--solve", _AXIS_NAMES[self.solve]]
        for param, value in self.base.items():
            out += [f"--{_PARAM_FLAGS[param]}", repr(value)]
        if self.levels is not None:
            out += ["--levels", str(self.levels)]
        return out


def _sweep_alpha_square(rng: random.Random, n: int) -> list[Invocation]:
    return [Invocation(
        "sweep",
        {"width_a": 1.0, "width_b": 1.5},
        Axis("alpha_1", 1.01 + 0.004 * rng.random(), 2.0 - 0.004 * rng.random(), n),
        Axis("alpha_2", 1.01 + 0.004 * rng.random(), 2.0 - 0.004 * rng.random(), n),
    )]


def _sweep_width_alpha(rng: random.Random, n: int) -> list[Invocation]:
    return [Invocation(
        "sweep",
        {"width_b": 1.5, "alpha_1": 1.5},
        Axis("width_a", 0.5 + 0.01 * rng.random(), 1.5 + 0.01 * rng.random(), n),
        Axis("alpha_2", 1.01 + 0.004 * rng.random(), 2.0 - 0.004 * rng.random(), n),
    )]


def _trace_table1(rng: random.Random, rows: int, nodes: int) -> list[Invocation]:
    shift = 0.001 + 0.004 * rng.random()
    out = []
    for levels in (10, None):
        for la, lb, a2 in TABLE1[:rows]:
            lo = a2 + shift
            out.append(Invocation(
                "trace", {"width_a": la, "width_b": lb},
                Axis("alpha_2", lo, lo + 0.1, nodes), solve="alpha_1", levels=levels,
            ))
    return out


def _dense_classical(rng: random.Random, n: int) -> list[Invocation]:
    # Wide wells at high temperature: corner n_cut spans ~40 (width 1,
    # alpha 2, T = 60) to ~1.7e5 (width 60, alpha 1.05, T = 100), below
    # MAX_LEVELS = 1e6 everywhere.
    return [Invocation(
        "sweep",
        {"width_b": 60.0, "alpha_1": 1.05, "t_hot": 100.0, "t_cold": 60.0},
        Axis("width_a", 1.0 + 0.05 * rng.random(), 50.0 - 0.05 * rng.random(), n),
        Axis("alpha_2", 1.05 + 0.002 * rng.random(), 2.0 - 0.004 * rng.random(), n),
    )]


_BUILDERS = {
    "sweep-alpha-square": lambda rng, smoke: _sweep_alpha_square(rng, 6 if smoke else 100),
    "sweep-width-alpha": lambda rng, smoke: _sweep_width_alpha(rng, 6 if smoke else 100),
    "trace-table1": lambda rng, smoke: _trace_table1(rng, 2 if smoke else 10, 4 if smoke else 21),
    "dense-classical": lambda rng, smoke: _dense_classical(rng, 4 if smoke else 16),
}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, smoke: bool = False) -> list[Invocation]:
    """The invocations of workload `name` for `seed`; `smoke` shrinks every grid."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), smoke)
