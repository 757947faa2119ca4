"""Parameter sweeps and root finding on the perfect-regeneration locus.

A sweep and the bracket scan of a trace are both grids of cycle nodes, one
parameter column per node, whose distinct corner states are summed in one
`summarize_many` call: a sweep runs the cycle evaluator behind `evaluate` on
them, a scan forms q_r.  Only the roots of the locus q_r = 0 are solved one
scalar node at a time.  q_r is smooth, and as E_n scales as L^(-alpha), dU/dL = -(alpha/L)(U - T C) gives its width slope exactly from
`summarize` fields.  The solver uses no derivative, as q_r is not monotone in
the kinetic exponents: each solve works on a sign-change bracket by the
Illinois method, a false position that halves a stalled end's value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cycle import (
    CycleParams, CycleReport, _corner_summaries, _node_reports, evaluate, regenerator_heat,
)
from .spectrum import _INF
from .thermo import DEFAULT_REL_TOL, FracStirlingError, _check_cut_args

SWEEPABLE = ("width_a", "width_b", "alpha_1", "alpha_2")

DEFAULT_QR_TOL = 1e-8
DEFAULT_SCAN_POINTS = 64

# Cap on the nodes of one axis and of one sweep grid, and on the scan points
# of a bracket scan, which bounds their memory
MAX_NODES = 10**6

# Cap on the scan nodes (grid nodes times scan points) of one batched trace
# scan; a longer trace is scanned in chunks of whole grid nodes
_SCAN_CHUNK = 1 << 16

# Validity domain of each sweepable parameter: alphas live in (1, 2],
# widths in (0, inf).  Brackets are clipped to these before any evaluation.
_DOMAIN = {
    "width_a": (0.0, _INF),
    "width_b": (0.0, _INF),
    "alpha_1": (1.0, 2.0),
    "alpha_2": (1.0, 2.0),
}


class SolverError(FracStirlingError):
    """Root solve failed for a reason other than a missing sign change."""


class NoRootError(SolverError):
    """No sign change of q_r inside the supplied bracket."""

    def __init__(self, message: str, residual_lo: float, residual_hi: float):
        super().__init__(message)
        self.residual_lo = residual_lo
        self.residual_hi = residual_hi


@dataclass(frozen=True)
class SweepAxis:
    """One swept cycle parameter with an inclusive uniform grid."""

    parameter: str
    lo: float
    hi: float
    count: int

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"choose one of {SWEEPABLE}"
            )
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not 2 <= self.count <= MAX_NODES:
            raise ValueError(f"need 2 to {MAX_NODES} grid nodes, got {self.count}")
        dlo, dhi = _DOMAIN[self.parameter]
        if self.lo <= dlo or self.hi > dhi or self.hi == _INF:
            raise ValueError(
                f"range [{self.lo}, {self.hi}] must be finite and inside the "
                f"validity domain ({dlo}, {dhi}] of {self.parameter}"
            )

    def values(self) -> list[float]:
        return _uniform(self.lo, self.hi, self.count)


def _uniform(lo: float, hi: float, count: int) -> list[float]:
    """`count` points lo + i * step spaced evenly over [lo, hi]."""
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


@dataclass(frozen=True)
class NodeError:
    """Marker stored in a sweep grid where evaluation raised."""

    message: str


@dataclass(frozen=True)
class SweepGrid:
    """Rectangular sweep over two cycle parameters.

    `reports[i][j]` is the report at the i-th axis_x value and j-th axis_y
    value, or a NodeError where evaluation failed.
    """

    axis_x: SweepAxis
    axis_y: SweepAxis
    base: CycleParams
    reports: tuple[tuple[CycleReport | NodeError, ...], ...]


def _eval_node(
    base: CycleParams,
    overrides: dict[str, float],
    rel_tol: float,
    levels: int | None,
) -> CycleReport | NodeError:
    try:
        return evaluate(replace(base, **overrides), rel_tol, levels)
    except FracStirlingError as exc:
        return NodeError(str(exc))


def sweep(
    base: CycleParams,
    axis_x: SweepAxis,
    axis_y: SweepAxis,
    rel_tol: float = DEFAULT_REL_TOL,
    levels: int | None = None,
) -> SweepGrid:
    """Evaluate the cycle on the full axis_x times axis_y grid.

    All nodes go through the cycle evaluator that `evaluate` runs on one
    node: their distinct corner states are summed in one `summarize_many`
    call and their heat-capacity crossings searched in lockstep, so a report
    equals `evaluate` at its node bit for bit.  A node with a failing corner
    or a vanishing q_h with net work is passed to `evaluate` for its error,
    a FracStirlingError recorded as a NodeError in place rather than
    aborting the grid; a usage error (ValueError), such as a bad `rel_tol`,
    `levels` or more than MAX_NODES nodes, raises before any node.  The
    result is a pure function of the inputs.
    """
    px, py = axis_x.parameter, axis_y.parameter
    if px == py:
        raise ValueError(f"axes must name distinct parameters, both are {px!r}")
    if axis_x.count * axis_y.count > MAX_NODES:
        raise ValueError(f"a {axis_x.count} x {axis_y.count} grid exceeds {MAX_NODES} nodes")
    xs, ys = axis_x.values(), axis_y.values()
    nodes = {px: np.repeat(xs, len(ys)), py: np.tile(ys, len(xs))}
    rows = _node_reports(base, nodes, rel_tol, levels, len(ys))
    reports = tuple(
        tuple(
            r if isinstance(r, CycleReport) else _eval_node(base, {px: x, py: y}, rel_tol, levels)
            for y, r in zip(ys, row)
        )
        for x, row in zip(xs, rows)
    )
    return SweepGrid(axis_x=axis_x, axis_y=axis_y, base=base, reports=reports)


@dataclass(frozen=True)
class RegenerationPoint:
    """One solved point of the q_r = 0 locus with its certified residual."""

    params: CycleParams
    residual: float


def _clip_bracket(parameter: str, lo: float, hi: float) -> tuple[float, float]:
    hi = min(hi, _DOMAIN[parameter][1])
    if parameter.startswith("alpha"):
        lo = max(lo, 1.0 + 1e-9)
    if not lo <= hi:
        raise ValueError(
            f"bracket [{lo}, {hi}] is empty after clipping to the validity "
            f"domain of {parameter}"
        )
    return lo, hi


def find_brackets(f, lo: float, hi: float, points: int = DEFAULT_SCAN_POINTS):
    """Scan f at 2 to MAX_NODES uniform points; return the sign-change subintervals."""
    xs = _scan_points(lo, hi, points)
    return [(xs[i], xs[j]) for i, j in _sign_changes([f(x) for x in xs])]


def _scan_points(lo: float, hi: float, points: int) -> list[float]:
    if not 2 <= points <= MAX_NODES:
        raise ValueError(f"need 2 to {MAX_NODES} scan points, got {points}")
    return _uniform(lo, hi, points)


def _sign_changes(vals) -> list[tuple[int, int]]:
    """Index pairs of the sign-change subintervals of a scan, in order.

    (i, i) where the value at point i is 0, and (i, i + 1) where the values
    at points i and i + 1 have strictly opposite signs.
    """
    out = []
    for i in range(len(vals) - 1):
        if vals[i] == 0.0:
            out.append((i, i))
        elif vals[i] * vals[i + 1] < 0.0:
            out.append((i, i + 1))
    if vals[-1] == 0.0:
        out.append((len(vals) - 1, len(vals) - 1))
    return out


def _illinois(f, lo, hi, f_lo, f_hi, tol, max_iter=200):
    # Illinois method (Dowell & Jarratt, BIT 11, 1971): false position that halves
    # the stored value of an end surviving two steps in a row, so neither stalls.
    a, b, fa, fb = lo, hi, f_lo, f_hi
    if abs(fa) <= tol:
        return a, abs(fa)
    if abs(fb) <= tol:
        return b, abs(fb)
    kept = 0  # +1 after a step that kept a, -1 after one that kept b
    for _ in range(max_iter):
        x = max(a, b - fb * (b - a) / (fb - fa))  # x <= b holds by itself
        fx = f(x)
        if not math.isfinite(fx):
            raise SolverError(f"q_r evaluated to a non-finite value at {x}")
        if abs(fx) <= tol:
            return x, abs(fx)
        if fa * fx < 0:
            b, fb, fa, kept = x, fx, 0.5 * fa if kept > 0 else fa, 1
        else:
            a, fa, fb, kept = x, fx, 0.5 * fb if kept < 0 else fb, -1
        if b - a <= 1e-15 * max(abs(a), abs(b)):
            raise SolverError(
                f"bracket collapsed at {x} with residual {fx} above tol={tol}"
            )
    raise SolverError(f"no convergence within {max_iter} iterations")


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < _INF:
        raise ValueError(f"tol must lie in [0, inf), got {tol}")


def solve_regeneration(
    base: CycleParams,
    parameter: str,
    bracket_lo: float,
    bracket_hi: float,
    tol: float = DEFAULT_QR_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    levels: int | None = None,
) -> RegenerationPoint:
    """Solve q_r = 0 for one cycle parameter inside a sign-change bracket.

    The bracket endpoints, which may coincide, must give q_r of opposite
    signs or a root; otherwise a NoRootError carrying both endpoint
    residuals is raised.  The solver never evaluates outside the bracket
    clipped to the parameter's validity domain.  Failures raise a
    FracStirlingError, invalid arguments (a `tol` outside [0, inf)) a ValueError.
    """
    if parameter not in SWEEPABLE:
        raise ValueError(f"cannot solve for {parameter!r}; choose one of {SWEEPABLE}")
    _check_tol(tol)
    lo, hi = _clip_bracket(parameter, bracket_lo, bracket_hi)
    f = _q_r(base, parameter, rel_tol, levels)
    return _solve_bracket(f, base, parameter, lo, hi, f(lo), f(hi), tol)


def _q_r(base: CycleParams, parameter: str, rel_tol: float, levels: int | None):
    """q_r as a function of one cycle parameter, the others as in `base`."""
    return lambda x: regenerator_heat(replace(base, **{parameter: x}), rel_tol, levels)


def _solve_bracket(f, base, parameter, lo, hi, f_lo, f_hi, tol) -> RegenerationPoint:
    """`solve_regeneration` on a clipped bracket whose end values are known."""
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise SolverError(f"non-finite q_r at bracket endpoints [{lo}, {hi}]")
    if f_lo * f_hi > 0 and abs(f_lo) > tol and abs(f_hi) > tol:
        raise NoRootError(
            f"q_r has the same sign at both ends of [{lo}, {hi}]: "
            f"q_r({lo})={f_lo}, q_r({hi})={f_hi}",
            residual_lo=f_lo,
            residual_hi=f_hi,
        )
    root, residual = _illinois(f, lo, hi, f_lo, f_hi, tol)
    return RegenerationPoint(
        params=replace(base, **{parameter: root}), residual=residual
    )


def trace_curve(
    base: CycleParams,
    sweep_parameter: str,
    solve_parameter: str,
    grid,
    bracket: tuple[float, float],
    tol: float = DEFAULT_QR_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    levels: int | None = None,
    scan_points: int = DEFAULT_SCAN_POINTS,
) -> list[RegenerationPoint | None]:
    """Trace the q_r = 0 locus along a grid of one parameter.

    At every grid node the solve parameter is scanned at `scan_points`
    uniform points across `bracket`, and each sign-change interval is a root
    candidate.  The scans of all nodes form one sweep grid, grid values
    times scan points, whose distinct corner states are summed by one
    `summarize_many` call per chunk of at most _SCAN_CHUNK scan nodes, so
    every scan value equals `regenerator_heat` at its point bit for bit.
    The interval nearest the previous root is solved (nearest the bracket
    midpoint at the first node), which keeps the trace on one branch when
    the locus has several; the solve starts from the two scan values at its
    ends.  Nodes without any sign change, nodes with a failing corner
    anywhere on their scan and nodes whose solve raises a FracStirlingError
    are reported as None, preserving order.  A usage error (ValueError),
    such as a bad `tol`, `rel_tol`, `levels`, `scan_points`, grid value or
    bracket, raises before any node.
    """
    if sweep_parameter not in SWEEPABLE or solve_parameter not in SWEEPABLE:
        raise ValueError(f"parameters must be among {SWEEPABLE}")
    if sweep_parameter == solve_parameter:
        raise ValueError("sweep and solve parameters must differ")
    grid = list(grid)
    if len(grid) > 1:
        diffs = [b - a for a, b in zip(grid, grid[1:])]
        if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError("grid must be strictly monotone")
    _check_tol(tol)
    lo, hi = _clip_bracket(solve_parameter, *bracket)
    xs = _scan_points(lo, hi, scan_points)
    if grid:
        # CycleParams words the messages; they raise in the order a scan node
        # by node meets them: the first grid value, the scan points, the cut
        # arguments, then the other grid values
        first = replace(base, **{sweep_parameter: grid[0]})
        for x in xs:
            replace(first, **{solve_parameter: x})
        _check_cut_args(rel_tol, levels)
        for g in grid[1:]:
            replace(base, **{sweep_parameter: g})

    points: list[RegenerationPoint | None] = []
    prev_root: float | None = None
    rows = max(1, _SCAN_CHUNK // scan_points)
    for start in range(0, len(grid), rows):
        chunk = grid[start:start + rows]
        nodes = {sweep_parameter: np.repeat(chunk, scan_points)}
        nodes[solve_parameter] = np.tile(xs, len(chunk))
        table, ids = _corner_summaries(base, nodes, rel_tol, levels)
        # q_r in `regenerator_heat`'s operation order, one row per grid node
        ua, ub, uc, ud = table["internal_energy"][ids]
        scans = ((uc - ub) + (ua - ud)).reshape(len(chunk), scan_points)
        failing = (table["n_cut"][ids] == 0).any(axis=0).reshape(scans.shape).any(axis=1)
        for g, vals, failed in zip(chunk, scans.tolist(), failing.tolist()):
            point = None
            intervals = [] if failed else _sign_changes(vals)
            if intervals:
                target = prev_root if prev_root is not None else 0.5 * (lo + hi)
                i, j = min(
                    intervals, key=lambda ij: abs(0.5 * (xs[ij[0]] + xs[ij[1]]) - target)
                )
                node_base = replace(base, **{sweep_parameter: g})
                f = _q_r(node_base, solve_parameter, rel_tol, levels)
                try:
                    point = _solve_bracket(
                        f, node_base, solve_parameter, xs[i], xs[j], vals[i], vals[j], tol
                    )
                except FracStirlingError:
                    pass  # the node stays a gap
            points.append(point)
            if point is not None:
                prev_root = getattr(point.params, solve_parameter)

    if points and all(p is None for p in points):
        warnings.warn(
            "no regeneration root found at any grid node; the locus does "
            "not intersect the scanned bracket, or every node failed",
            stacklevel=2,
        )
    return points
