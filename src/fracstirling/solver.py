"""Parameter sweeps and root finding on the perfect-regeneration locus.

A sweep and the bracket scan of a trace are both grids of cycle nodes, one
parameter column per node, whose distinct corner states are summed in one
`summarize_many` call: a sweep runs the cycle evaluator behind `evaluate` on
them, a scan forms q_r.  The roots of the locus q_r = 0 are then solved in
lockstep, one `summarize_many` call per step for all of a scan's brackets.
The solver uses no derivative, as q_r is not monotone in the kinetic
exponents: each solve works on a sign-change bracket by the Illinois method,
a false position that halves a stalled end's value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cycle import (  # evaluate: unused here, but bench/tracer.py rebinds solver.evaluate
    CycleParams, CycleReport, _corner_summaries, _node_arrays, _node_error, _regenerator_heats,
    _reports, carnot_efficiency, evaluate, regenerator_heat,
)
from .spectrum import _INF
from .thermo import DEFAULT_REL_TOL, FracStirlingError, _check_cut_args, summarize_many

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


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Rectangular sweep over two cycle parameters, held as read-only arrays.

    Node (i, j) sits at the i-th axis_x value and the j-th axis_y value.
    `columns` maps the CycleReport fields q_ab .. efficiency to (nx, ny)
    arrays.  The grid's distinct corner states have U `state_energy` and S
    `state_entropy`; `corner_states[k, i, j]` indexes them for corner k (A,
    B, C, D) of node (i, j).  `errors[i, j]` is the message of a node whose
    evaluation failed, where the arrays hold no meaningful value.
    `reports[i][j]`, built on first use, is the CycleReport of node (i, j),
    equal to `evaluate` there, or a NodeError.
    """

    axis_x: SweepAxis
    axis_y: SweepAxis
    base: CycleParams
    columns: dict[str, np.ndarray]
    state_energy: np.ndarray
    state_entropy: np.ndarray
    corner_states: np.ndarray
    errors: dict[tuple[int, int], str]

    @cached_property
    def reports(self) -> tuple[tuple[CycleReport | NodeError, ...], ...]:
        errors = {ij: NodeError(message) for ij, message in self.errors.items()}
        rows = _reports(self.state_energy, self.state_entropy, self.corner_states, self.columns,
                        carnot_efficiency(self.base), self.axis_y.count)
        return tuple(tuple(errors.get((i, j), r) for j, r in enumerate(row)) for i, row in enumerate(rows))


def sweep(
    base: CycleParams,
    axis_x: SweepAxis,
    axis_y: SweepAxis,
    rel_tol: float = DEFAULT_REL_TOL,
    levels: int | None = None,
) -> SweepGrid:
    """Evaluate the cycle on the full axis_x times axis_y grid.

    All nodes go through the array stage of the cycle evaluator that
    `evaluate` runs on one node: their distinct corner states are summed in
    one `summarize_many` call and their heat-capacity crossings searched in
    lockstep, so a report equals `evaluate` at its node bit for bit.  A node
    that fails keeps the message `evaluate` raises there, worded from the
    kernel's failure kinds, rather than aborting the grid.  A usage error
    (ValueError), such as a bad `rel_tol`, `levels` or more than MAX_NODES
    nodes, raises before any node.  The result is a pure function of the inputs.
    """
    px, py = axis_x.parameter, axis_y.parameter
    if px == py:
        raise ValueError(f"axes must name distinct parameters, both are {px!r}")
    if axis_x.count * axis_y.count > MAX_NODES:
        raise ValueError(f"a {axis_x.count} x {axis_y.count} grid exceeds {MAX_NODES} nodes")
    xs, ys = axis_x.values(), axis_y.values()
    nodes = {px: np.repeat(xs, len(ys)), py: np.tile(ys, len(xs))}
    table, ids, columns, failed = _node_arrays(base, nodes, rel_tol, levels)
    kinds = table["failure"][ids]
    first = (kinds != 0).argmax(axis=0)  # each node's first failing corner, if any
    errors, raised = {}, {}
    for k in np.flatnonzero(failed).tolist():
        i, j = divmod(k, len(ys))
        state = ids[first[k], k].item()
        if state not in raised or not kinds[first[k], k]:  # a failing state is worded once
            raised[state] = _node_error(base, {px: xs[i], py: ys[j]}, kinds[:, k], rel_tol, columns, k)
        errors[i, j] = str(raised[state])
    shape = (len(xs), len(ys))
    grid = SweepGrid(
        axis_x, axis_y, base, {name: v.reshape(shape) for name, v in columns.items()},
        table["internal_energy"], table["entropy"], ids.reshape(4, *shape), errors,
    )
    for v in (*grid.columns.values(), grid.state_energy, grid.state_entropy, grid.corner_states):
        v.flags.writeable = False
    return grid


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


def _illinois(q_r, a, b, fa, fb, tol, max_iter=200):
    """The Illinois method on many brackets in lockstep, one step of each per iteration.

    Problem k is the bracket [a[k], b[k]] with finite q_r values fa[k] and
    fb[k] at its ends; `q_r(active, x)` gives q_r of the problems `active`
    at the points x.  A problem stops at |q_r| <= tol, or fails at a
    non-finite q_r, a collapsed bracket or after max_iter steps.  Returns
    per problem the root (a failure's last point), |q_r| there and None or
    the failure message.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    # Illinois method (Dowell & Jarratt, BIT 11, 1971): false position that halves
    # the stored value of an end surviving two steps in a row, so neither stalls
    kept = np.zeros(a.size, dtype=int)  # +1 after a step that kept a, -1 after one that kept b
    at_a = abs(fa) <= tol
    root, residual = np.where(at_a, a, b), np.where(at_a, abs(fa), abs(fb))
    failure = [None] * a.size
    active = np.flatnonzero(~at_a & (abs(fb) > tol))
    for _ in range(max_iter):
        if not active.size:
            break
        lo, hi, f_lo, f_hi, k = a[active], b[active], fa[active], fb[active], kept[active]
        step = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        x = np.where(step > lo, step, lo)  # max(a, step); x <= b holds by itself
        fx = q_r(active, x)
        root[active], residual[active] = x, abs(fx)
        left = f_lo * fx < 0  # x becomes the upper end
        a[active] = lo = np.where(left, lo, x)
        b[active] = hi = np.where(left, x, hi)
        fa[active] = np.where(left, np.where(k > 0, 0.5 * f_lo, f_lo), fx)
        fb[active] = np.where(left, fx, np.where(k < 0, 0.5 * f_hi, f_hi))
        kept[active] = np.where(left, 1, -1)
        done = abs(fx) <= tol
        failed = ~np.isfinite(fx) | ~done & (hi - lo <= 1e-15 * np.maximum(abs(lo), abs(hi)))
        for i, xi, fi in zip(active[failed].tolist(), x[failed].tolist(), fx[failed].tolist()):
            failure[i] = (f"bracket collapsed at {xi} with residual {fi} above tol={tol}"
                          if math.isfinite(fi) else f"q_r evaluated to a non-finite value at {xi}")
        active = active[~(done | failed)]
    for i in active.tolist():
        failure[i] = f"no convergence within {max_iter} iterations"
    return root.tolist(), residual.tolist(), failure


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
    ends = [replace(base, **{parameter: x}) for x in (lo, hi)]  # CycleParams checks both
    table, ids = _corner_summaries(base, {parameter: np.array([lo, hi])}, rel_tol, levels)
    q_r, energies, _ = _regenerator_heats(table, ids)
    f_lo, f_hi = q_r.tolist()
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        for params, kinds in zip(ends, table["failure"][ids].T):
            if kinds.any():
                raise _node_error(params, {}, kinds, rel_tol)
        raise SolverError(f"non-finite q_r at bracket endpoints [{lo}, {hi}]")
    if f_lo * f_hi > 0 and abs(f_lo) > tol and abs(f_hi) > tol:
        raise NoRootError(
            f"q_r has the same sign at both ends of [{lo}, {hi}]: "
            f"q_r({lo})={f_lo}, q_r({hi})={f_hi}",
            residual_lo=f_lo,
            residual_hi=f_hi,
        )
    # U of the well the solve leaves alone, from the corners of the lower end
    step = _step_heats(base, parameter, {}, energies[:, :1], rel_tol, levels)
    (root,), (residual,), (failure,) = _illinois(step, [lo], [hi], [f_lo], [f_hi], tol)
    params = replace(base, **{parameter: root})
    if failure:
        regenerator_heat(params, rel_tol, levels)  # a failing corner raises its own error
        raise SolverError(failure)
    return RegenerationPoint(params=params, residual=residual)


def _step_heats(base: CycleParams, solve_parameter: str, columns, energies, rel_tol, levels):
    """q_r(active, x), q_r of the problems `active` at solve parameter values x.

    Only the well the solve parameter moves, that of corners A and D or of B
    and C, is summed.  `energies` holds U at A, B, C and D of a point of
    each problem, `columns` other parameters' values per problem.
    """
    ad = solve_parameter in ("width_a", "alpha_2")
    well, moving = (("width_a", "alpha_2"), [0, 3]) if ad else (("width_b", "alpha_1"), [1, 2])

    def q_r(active, x):
        nodes = {**{p: v[active] for p, v in columns.items()}, solve_parameter: x}
        width, alpha = np.broadcast_arrays(*(nodes.get(p, getattr(base, p)) for p in well))
        table = summarize_many(
            np.tile(width, 2), np.tile(alpha, 2), np.full(2 * x.size, base.mass),
            np.repeat([base.t_hot, base.t_cold], x.size), rel_tol, levels,
        )
        u = energies[:, active]
        u[moving] = np.split(table["internal_energy"], 2)
        ua, ub, uc, ud = u
        return (uc - ub) + (ua - ud)

    return q_r


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
    All candidates of a chunk are solved in lockstep from the scan values at
    their ends; the one nearest the previous root counts (nearest the
    bracket midpoint at the first node), which keeps the trace on one branch
    when the locus has several.  Nodes without any sign change, nodes with a
    failing corner anywhere on their scan and nodes whose solve fails are
    reported as None, preserving order.  A usage error (ValueError), such as
    a bad `tol`, `rel_tol`, `levels`, `scan_points`, grid value or bracket,
    raises before any node.
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
        q_r, energies, failing = _regenerator_heats(*_corner_summaries(base, nodes, rel_tol, levels))
        scans = q_r.reshape(len(chunk), scan_points)  # one row per grid node
        failing = failing.reshape(scans.shape).any(axis=1).tolist()
        candidates = [[] if bad else _sign_changes(v) for v, bad in zip(scans.tolist(), failing)]
        # every candidate is solved, as the one that counts depends on the root before
        row, left, right = np.array(
            [(r, i, j) for r, intervals in enumerate(candidates) for i, j in intervals], dtype=int
        ).reshape(-1, 3).T
        roots, residuals, failures = _illinois(
            _step_heats(base, solve_parameter, {sweep_parameter: np.array(chunk)[row]},
                        energies[:, row * scan_points + left], rel_tol, levels),
            np.take(xs, left), np.take(xs, right), scans[row, left], scans[row, right], tol,
        )
        offset = 0
        for g, intervals in zip(chunk, candidates):
            point = None
            if intervals:
                target = prev_root if prev_root is not None else 0.5 * (lo + hi)
                i, j = min(intervals, key=lambda ij: abs(0.5 * (xs[ij[0]] + xs[ij[1]]) - target))
                k = offset + intervals.index((i, j))
                offset += len(intervals)
                if failures[k] is None:  # a failed solve leaves the node a gap
                    prev_root = roots[k]
                    params = replace(base, **{sweep_parameter: g, solve_parameter: prev_root})
                    point = RegenerationPoint(params=params, residual=residuals[k])
            points.append(point)

    if points and all(p is None for p in points):
        warnings.warn(
            "no regeneration root found at any grid node; the locus does "
            "not intersect the scanned bracket, or every node failed",
            stacklevel=2,
        )
    return points
