"""Parameter sweeps and root finding on the perfect-regeneration locus.

A sweep and the bracket scan of a trace are both grids of cycle nodes, one
parameter column per node, whose corner states are summed in one
`summarize_many` call: a sweep runs the cycle evaluator behind `evaluate` on
them, a scan forms q_r.  The roots of the locus q_r = 0 are then solved in
lockstep, one `summarize_many` call per step for all of a scan's brackets,
and a trace returns them as arrays, a `TraceResult`, with a status per node.
The solver uses no derivative, as q_r is not monotone in the kinetic
exponents: each solve works on a sign-change bracket by the Anderson-Bjorck
method, a false position that scales down the value of an end kept twice in
a row.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cycle import (  # evaluate: tracer-only import, bench/tracer.py rebinds solver.evaluate
    _CORNER_FIELDS, _QUANTITIES, CycleParams, CycleReport, _corner_summaries, _moved, _node_arrays, _node_error,
    _regenerator_heats, _reports, carnot_efficiency, evaluate, regenerator_heat,
)
from .spectrum import _DOMAIN, _INF, _check_domain
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
    """One swept cycle parameter with an inclusive grid of `count` uniform nodes.

    `count` must be an integer from 2 to MAX_NODES and both ends in the
    parameter's validity domain, else construction raises ValueError.  Node i
    is lo + i * (hi - lo) / (count - 1), node 0 lo itself, and a node that
    overflows to inf is hi, so every node lies in the domain.
    """

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
        _check_count(self.count, "grid nodes")
        for end in (self.lo, self.hi):
            _check_domain(self.parameter, end, _QUANTITIES[self.parameter])

    def values(self) -> list[float]:
        return _uniform(self.lo, self.hi, self.count)


def _check_count(count: int, what: str) -> None:
    if not 2 <= count <= MAX_NODES:
        raise ValueError(f"need 2 to {MAX_NODES} {what}, got {count}")
    if not isinstance(count, numbers.Integral):
        raise ValueError(f"need an integer number of {what}, got {count}")


def _uniform(lo: float, hi: float, count: int) -> list[float]:
    """`count` points lo + i * step over [lo, hi]: point 0 is lo + 0.0, not nan at an
    infinite step, and a point that overflows is hi.
    """
    step = (hi - lo) / (count - 1)
    return [lo + 0.0, *(hi if x == _INF else x for x in (lo + i * step for i in range(1, count)))]


@dataclass(frozen=True)
class NodeError:
    """Marker stored in a sweep grid where evaluation raised."""

    message: str


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Rectangular sweep over two cycle parameters, held as read-only arrays.

    Node (i, j) sits at the i-th axis_x value and the j-th axis_y value.
    `columns` maps the CycleReport fields q_ab .. efficiency to (nx, ny)
    arrays.  The grid's corner states, each well's once per value of the axes
    that move it, have U `state_energy` and S `state_entropy`;
    `corner_states[k, i, j]` indexes them for corner k (A, B, C, D) of node
    (i, j).  `errors[i, j]` is the message of a node whose
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
    `evaluate` runs on one node: their corner states are summed in one
    `summarize_many` call and their heat-capacity crossings searched in
    lockstep, so a report equals `evaluate` at its node bit for bit.  A node
    that fails keeps the message `evaluate` raises there, worded from the
    table the sweep holds (its first corner with a nan U, else its q_h and
    work), rather than aborting the grid.  A usage error
    (ValueError), such as a bad `rel_tol`, `levels` or more than MAX_NODES
    nodes, raises before any node.  The result is a pure function of the inputs.
    """
    px, py = axis_x.parameter, axis_y.parameter
    if px == py:
        raise ValueError(f"axes must name distinct parameters, both are {px!r}")
    if axis_x.count * axis_y.count > MAX_NODES:
        raise ValueError(f"a {axis_x.count} x {axis_y.count} grid exceeds {MAX_NODES} nodes")
    xs, ys = axis_x.values(), axis_y.values()
    nodes = {px: np.array(xs)[:, None], py: np.array(ys)}
    table, ids, columns, failed = _node_arrays(base, nodes, rel_tol, levels)
    energies = table["internal_energy"][ids]
    errors = {}
    for k in np.flatnonzero(failed).tolist():
        i, j = divmod(k, len(ys))
        errors[i, j] = str(_node_error(base, {px: xs[i], py: ys[j]}, energies[:, k], columns, k))
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
    """One solved point of the q_r = 0 locus with its certified residual.

    `solve_regeneration` returns one; `TraceResult.points` holds one per
    solved node of a trace.
    """

    params: CycleParams
    residual: float


# Why a trace node is a gap: no sign change of q_r on its scan, a failing
# corner somewhere on it, or a failed solve of its candidate
GAP_STATUSES = ("no_sign_change", "failing_corner", "solve_failure")


@dataclass(frozen=True, eq=False)
class TraceResult:
    """The q_r = 0 locus along a grid of one parameter, held as read-only arrays.

    Node i sits at sweep value `grid[i]`.  `status[i]` is "root" where the
    node is solved: there the solve parameter is `root[i]` and |q_r| is
    `residual[i]`.  Elsewhere the node is a gap, whose status is one of
    GAP_STATUSES and whose root and residual are nan.  `points`, built on
    first use, holds per node the RegenerationPoint of a solved node, with
    `base` moved to the grid value and the root, or None at a gap.
    """

    base: CycleParams
    sweep_parameter: str
    solve_parameter: str
    grid: np.ndarray
    root: np.ndarray
    residual: np.ndarray
    status: np.ndarray

    @cached_property
    def points(self) -> list[RegenerationPoint | None]:
        swept, solved = self.sweep_parameter, self.solve_parameter
        nodes = zip(self.grid.tolist(), self.root.tolist(), self.residual.tolist(), self.status.tolist())
        return [RegenerationPoint(replace(self.base, **{swept: g, solved: x}), residual) if reason == "root"
                else None for g, x, residual, reason in nodes]


def _clip_bracket(parameter: str, lo: float, hi: float) -> tuple[float, float]:
    if _QUANTITIES[parameter] == "alpha":  # a width bracket is not clipped
        dlo, dhi = _DOMAIN["alpha"]
        lo, hi = max(lo, dlo + 1e-9), min(hi, dhi)
    if not lo <= hi:
        raise ValueError(
            f"bracket [{lo}, {hi}] is empty after clipping to the validity "
            f"domain of {parameter}"
        )
    return lo, hi


def find_brackets(f, lo: float, hi: float, points: int = DEFAULT_SCAN_POINTS):
    """Scan f at an integer 2 to MAX_NODES uniform points; return the sign-change subintervals."""
    xs = _scan_points(lo, hi, points)
    _, left, right = _sign_changes(np.array([[f(x) for x in xs]], dtype=float))
    return [(xs[i], xs[j]) for i, j in zip(left.tolist(), right.tolist())]


def _scan_points(lo: float, hi: float, points: int) -> list[float]:
    _check_count(points, "scan points")
    return _uniform(lo, hi, points)


def _sign_changes(scans: np.ndarray, tol: float = 0.0):
    """Row, left and right indices of the sign-change subintervals of each scan row.

    (i, i + 1) where the values at points i and i + 1 have strictly opposite
    signs, else (i, i) where |value| <= tol at point i; ordered by row, then
    by i.  A nan changes no sign.
    """
    root = abs(scans) <= tol
    change = np.zeros_like(root)
    signs = np.sign(scans)  # the product of two values may underflow to 0, that of their signs does not
    np.less(signs[:, :-1] * signs[:, 1:], 0.0, out=change[:, :-1])
    row, left = np.nonzero(root | change)
    return row, left, left + change[row, left]


def _false_position(q_r, a, b, fa, fb, tol, max_iter=200):
    """The Anderson-Bjorck method on many brackets in lockstep, one step of each per iteration.

    Problem k is the bracket [a[k], b[k]] with finite q_r values fa[k] and
    fb[k] at its ends; `q_r(active, x)` gives q_r of the problems `active`
    at the points x.  A problem stops at |q_r| <= tol, or fails at a
    non-finite q_r, a collapsed bracket or after max_iter steps.  Returns
    per problem the root (a failure's last point), |q_r| there and None or
    the failure message.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    # Anderson & Bjorck (BIT 13, 1973): false position that scales the stored
    # value of an end kept a second step in a row by m = 1 - f(x) / f(replaced
    # end), or by 1/2 where m <= 0 so the value keeps its sign; neither end stalls.
    # kept is +1 after a step that kept a, -1 after one that kept b, and a
    # counts as kept once before the first step
    kept = np.ones(a.size, dtype=int)
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
        left = np.sign(f_lo) * np.sign(fx) < 0  # x becomes the upper end
        with np.errstate(divide="ignore", invalid="ignore"):
            m = 1.0 - fx / np.where(left, f_hi, f_lo)
        m = np.where(m > 0, m, 0.5)
        a[active] = lo = np.where(left, lo, x)
        b[active] = hi = np.where(left, x, hi)
        fa[active] = np.where(left, np.where(k > 0, m * f_lo, f_lo), fx)
        fb[active] = np.where(left, fx, np.where(k < 0, m * f_hi, f_hi))
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
    q_r, energies = _regenerator_heats(table, ids)
    f_lo, f_hi = q_r.tolist()
    for params, f, u in zip(ends, (f_lo, f_hi), energies.T):
        if math.isnan(f):  # a corner fails
            raise _node_error(params, {}, u)
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise SolverError(f"non-finite q_r at bracket endpoints [{lo}, {hi}]")
    if np.sign(f_lo) * np.sign(f_hi) > 0 and abs(f_lo) > tol and abs(f_hi) > tol:
        raise NoRootError(
            f"q_r has the same sign at both ends of [{lo}, {hi}]: "
            f"q_r({lo})={f_lo}, q_r({hi})={f_hi}",
            residual_lo=f_lo,
            residual_hi=f_hi,
        )
    step = _step_heats(table, ids[:, :1], parameter, rel_tol, levels)  # from the corners of the lower end
    (root,), (residual,), (failure,) = _false_position(step, [lo], [hi], [f_lo], [f_hi], tol)
    params = replace(base, **{parameter: root})
    if failure:
        regenerator_heat(params, rel_tol, levels)  # a failing corner raises its own error
        raise SolverError(failure)
    return RegenerationPoint(params=params, residual=residual)


def _step_heats(table, ids, parameter, rel_tol, levels):
    """q_r(active, x), q_r of the problems `active` at values x of the solve parameter.

    `ids` holds the rows of corners A, B, C, D of a point of each problem in
    `table`, a corner table of `_corner_summaries`.  A step re-sums only the
    rows of the well the parameter moves, A and D or B and C, with its width
    or alpha set to x.
    """
    moving = [k for k, fields in enumerate(_CORNER_FIELDS) if parameter in fields]
    energies, rows = table["internal_energy"][ids], ids[moving]

    def q_r(active, x):
        states = _moved(table, rows[:, active].ravel(), _QUANTITIES[parameter], np.concatenate((x, x)))
        u = energies[:, active]
        u[moving] = summarize_many(*states, rel_tol, levels, True)["internal_energy"].reshape(2, -1)
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
) -> TraceResult:
    """Trace the q_r = 0 locus along a grid of one parameter.

    At every grid node the solve parameter is scanned at `scan_points`
    uniform points across `bracket`.  Each sign-change interval is a root
    candidate, and so is each scan point with |q_r| <= tol, which
    `solve_regeneration` accepts as a root.  The scans of all nodes form one
    sweep grid, grid values times scan points, whose corner states are summed by one
    `summarize_many` call per chunk of at most _SCAN_CHUNK scan nodes, so
    every scan value equals `regenerator_heat` at its point bit for bit.
    All candidates of a chunk are solved in lockstep from the scan values at
    their ends by the Anderson-Bjorck false position, as `solve_regeneration`
    solves one bracket; each lockstep step is one `summarize_many` call on
    the well the solve parameter moves.  The candidate nearest the previous
    root counts (nearest the bracket midpoint at the first node), which keeps
    the trace on one branch when the locus has several.  A node without any
    sign change, with a failing corner anywhere on its scan or whose solve
    fails is a gap, whose status says which; see TraceResult.  A usage error (ValueError), such as
    a bad `tol`, `rel_tol`, `levels`, a `scan_points` that is no integer from
    2 to MAX_NODES, a grid value or bracket outside the validity domain,
    raises before any node, and on an empty grid too.
    """
    if sweep_parameter not in SWEEPABLE or solve_parameter not in SWEEPABLE:
        raise ValueError(f"parameters must be among {SWEEPABLE}")
    if sweep_parameter == solve_parameter:
        raise ValueError("sweep and solve parameters must differ")
    grid = list(grid)
    # Python's < orders a grid value past the float range exactly; the domain rejects it below
    steps = list(zip(grid, grid[1:]))
    if not (all(a < b for a, b in steps) or all(a > b for a, b in steps)):
        raise ValueError("grid must be strictly monotone")
    _check_tol(tol)
    lo, hi = _clip_bracket(solve_parameter, *bracket)
    try:
        xs = _scan_points(lo, hi, scan_points)
    except OverflowError:  # an end is a Python int past the float range: the domain rejects it below
        xs = [lo, hi]
    # in the order a scan node by node meets them; an empty grid checks all but grid values
    swept, solved = _QUANTITIES[sweep_parameter], _QUANTITIES[solve_parameter]
    if grid:
        _check_domain(sweep_parameter, grid[0], swept)
    for x in xs:
        _check_domain(solve_parameter, x, solved)
    _check_cut_args(rel_tol, levels)
    for g in grid[1:]:
        _check_domain(sweep_parameter, g, swept)
    grid_values, scan = np.array(grid, dtype=float), np.array(xs)

    roots, residuals, status = [], [], []
    prev_root = 0.5 * (lo + hi)  # the first node chooses the candidate nearest the bracket midpoint
    rows = max(1, _SCAN_CHUNK // scan_points)
    for start in range(0, len(grid), rows):
        chunk = grid_values[start:start + rows]
        table, ids = _corner_summaries(base, {sweep_parameter: chunk[:, None], solve_parameter: scan},
                                       rel_tol, levels)
        scans = _regenerator_heats(table, ids)[0].reshape(chunk.size, scan_points)  # one row per grid node
        # a node with a failing corner, a nan q_r, anywhere on its scan has no candidate
        failing = np.isnan(scans).any(axis=1)
        scans[failing] = np.nan
        row, left, right = _sign_changes(scans, tol)
        # every candidate is solved, as the one that counts depends on the root before
        found, found_residuals, failures = _false_position(
            _step_heats(table, ids[:, row * scan_points + left], solve_parameter, rel_tol, levels),
            scan[left], scan[right], scans[row, left], scans[row, right], tol,
        )
        middles = (0.5 * (scan[left] + scan[right])).tolist()
        ends = np.searchsorted(row, np.arange(1, chunk.size + 1)).tolist()
        start = 0
        for fails, end in zip(failing.tolist(), ends):
            root, residual, reason = math.nan, math.nan, "failing_corner" if fails else "no_sign_change"
            if end > start:
                k = min(range(start, end), key=lambda k: abs(middles[k] - prev_root))
                reason = "solve_failure"
                if failures[k] is None:  # a failed solve leaves the node a gap
                    root = prev_root = found[k]
                    residual, reason = found_residuals[k], "root"
            roots.append(root)
            residuals.append(residual)
            status.append(reason)
            start = end

    if grid and "root" not in status:
        warnings.warn(
            "no regeneration root found at any grid node; the locus does "
            "not intersect the scanned bracket, or every node failed",
            stacklevel=2,
        )
    result = TraceResult(base, sweep_parameter, solve_parameter, grid_values, np.array(roots, dtype=float),
                         np.array(residuals, dtype=float), np.array(status, dtype=str))
    for v in (result.grid, result.root, result.residual, result.status):
        v.flags.writeable = False
    return result
