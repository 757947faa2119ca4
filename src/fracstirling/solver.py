"""Parameter sweeps and root finding on the perfect-regeneration locus.

A sweep and the bracket scan of a trace are both grids of cycle nodes, one
parameter column per node, whose corner states are summed in one
`summarize_many` call: a sweep runs the cycle evaluator behind `evaluate` on
them, a scan forms q_r.  The roots of the locus q_r = 0 are then solved in
lockstep, one `summarize_many` call per step for all of a scan's brackets,
and a trace returns them as arrays, a `TraceResult`, with a status per node;
a solve of one bracket is the one-node trace, the bracket ends its scan.  The
solver uses no derivative, as q_r is not monotone in the kinetic exponents:
each solve works on a sign-change bracket by the Anderson-Bjorck method, a
false position that scales down the value of an end kept twice in a row.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cycle import (  # evaluate: tracer-only import, bench/tracer.py rebinds solver.evaluate
    _CORNER_FIELDS, _QUANTITIES, CycleParams, _corner_summaries, _moved, _node_arrays, _node_error,
    _regenerator_heats, evaluate, regenerator_heat,
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


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Rectangular sweep over two cycle parameters, held as read-only arrays.

    Node (i, j) sits at the i-th axis_x value and the j-th axis_y value.
    `columns` maps the CycleReport fields q_ab .. efficiency to (nx, ny)
    arrays.  The grid's corner states, each well's once per value of the axes
    that move it, have U `state_energy` and S `state_entropy`;
    `corner_states[k, i, j]` indexes them for corner k (A, B, C, D) of node
    (i, j).  At a node that evaluates, each equals the field of `evaluate`'s
    report there bit for bit.  `errors[i, j]` is the message `evaluate`
    raises at a node that fails, where the arrays hold no meaningful value.
    """

    axis_x: SweepAxis
    axis_y: SweepAxis
    base: CycleParams
    columns: dict[str, np.ndarray]
    state_energy: np.ndarray
    state_entropy: np.ndarray
    corner_states: np.ndarray
    errors: dict[tuple[int, int], str]


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
    lockstep, so a node's values equal `evaluate` there bit for bit.  A node
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
    """One solved point of the q_r = 0 locus with its certified residual, as `solve_regeneration` returns it."""

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
    GAP_STATUSES and whose root and residual are nan.
    """

    grid: np.ndarray
    root: np.ndarray
    residual: np.ndarray
    status: np.ndarray


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
    """`_uniform`'s points but the last, which is hi itself, as lo + (points - 1) * step may round off it."""
    _check_count(points, "scan points")
    return [*_uniform(lo, hi, points)[:-1], hi + 0.0]


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
    non-finite q_r, a collapsed bracket or after max_iter steps.  The bracket
    state, its ends, their values and which end the last step kept, is held
    for the live problems only, in the order of `active`.  Returns per
    problem the root (a failure's last point), |q_r| there and None or the
    failure message.
    """
    # Anderson & Bjorck (BIT 13, 1973): false position that scales the stored
    # value of an end kept a second step in a row by m = 1 - f(x) / f(replaced
    # end), or by 1/2 where m <= 0 so the value keeps its sign; neither end stalls.
    a, b, fa, fb = (np.asarray(v, dtype=float) for v in (a, b, fa, fb))
    at_a = abs(fa) <= tol
    root, residual = np.where(at_a, a, b), np.where(at_a, abs(fa), abs(fb))
    failure = [None] * root.size
    going = ~at_a & (abs(fb) > tol)
    active, lo, hi, f_lo, f_hi = (v[going] for v in (np.arange(root.size), a, b, fa, fb))
    kept_lo = np.ones(active.size, dtype=bool)  # the lower end counts as kept once before the first step
    for _ in range(max_iter):
        if not active.size:
            break
        step = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        x = np.where(step > lo, step, lo)  # max(lo, step); x <= hi holds by itself
        fx = q_r(active, x)
        root[active], residual[active] = x, abs(fx)
        left = np.sign(f_lo) * np.sign(fx) < 0  # x becomes the upper end
        with np.errstate(divide="ignore", invalid="ignore"):
            m = 1.0 - fx / np.where(left, f_hi, f_lo)
        m = np.where(m > 0, m, 0.5)
        f_lo, f_hi = (np.where(left, np.where(kept_lo, m * f_lo, f_lo), fx),
                      np.where(left, fx, np.where(kept_lo, f_hi, m * f_hi)))
        lo, hi, kept_lo = np.where(left, lo, x), np.where(left, x, hi), left
        done = abs(fx) <= tol
        failed = ~np.isfinite(fx) | ~done & (hi - lo <= 1e-15 * np.maximum(abs(lo), abs(hi)))
        for i, xi, fi in zip(active[failed].tolist(), x[failed].tolist(), fx[failed].tolist()):
            failure[i] = (f"bracket collapsed at {xi} with residual {fi} above tol={tol}"
                          if math.isfinite(fi) else f"q_r evaluated to a non-finite value at {xi}")
        going = ~(done | failed)
        active, lo, hi, f_lo, f_hi, kept_lo = (v[going] for v in (active, lo, hi, f_lo, f_hi, kept_lo))
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

    A solve is the one-node trace whose two scan points are the ends of the
    bracket clipped to the parameter's validity domain, outside which it never
    evaluates.  The ends, which may coincide, must give q_r of opposite signs
    or a root, else a NoRootError carrying both end residuals is raised.  A
    failing corner raises its error, the lower end's first, a failed solve a
    SolverError and a `tol` outside [0, inf) a ValueError.
    """
    if parameter not in SWEEPABLE:
        raise ValueError(f"cannot solve for {parameter!r}; choose one of {SWEEPABLE}")
    _check_tol(tol)
    lo, hi = _clip_bracket(parameter, bracket_lo, bracket_hi)
    ends = [replace(base, **{parameter: x}) for x in (lo, hi)]  # CycleParams checks both
    ((reason, root, residual, failure),), scans, _ = _scan_and_solve(
        base, {}, parameter, np.array(_scan_points(lo, hi, 2)), 0.5 * (lo + hi), tol, rel_tol, levels)
    if reason == "failing_corner":
        for params in ends:  # the lower end raises first
            regenerator_heat(params, rel_tol, levels)
    if reason == "no_sign_change":
        f_lo, f_hi = scans[0].tolist()
        raise NoRootError(
            f"q_r has the same sign at both ends of [{lo}, {hi}]: "
            f"q_r({lo})={f_lo}, q_r({hi})={f_hi}",
            residual_lo=f_lo, residual_hi=f_hi,
        )
    params = replace(base, **{parameter: root})
    if failure:
        regenerator_heat(params, rel_tol, levels)  # a failing corner raises its own error
        raise SolverError(failure)
    return RegenerationPoint(params=params, residual=residual)


def _scan_and_solve(base, nodes, parameter, scan, prev_root, tol, rel_tol, levels):
    """The scan and lockstep solve of a chunk of trace nodes, or of a solve as one node.

    The corners of every node, `base` moved by the columns `nodes` (none for
    one node), at every value `scan` of `parameter` are summed in one
    `summarize_many` call.  Each sign-change interval and each scan point with
    |q_r| <= tol is a candidate, none on a node with a failing corner (a nan
    q_r) on its scan.  All are solved in lockstep, as the one that counts, the
    one nearest the previous root (`prev_root` at the first node), depends on
    the root before; a step re-sums only the rows of the well `parameter` moves.
    Returns per node (status, root, |q_r|, None or the failure message), the
    root a failed solve's last point and nan without a candidate; then the
    (nodes, scan points) q_r rows, and the last root solved, `prev_root` if
    none, from which the next chunk of a trace chooses.
    """
    table, ids = _corner_summaries(base, {**nodes, parameter: scan}, rel_tol, levels)
    scans = _regenerator_heats(table, ids)[0].reshape(-1, scan.size)  # one row per node
    failing = np.isnan(scans).any(axis=1)
    scans[failing] = np.nan
    row, left, right = _sign_changes(scans, tol)
    moving = [k for k, fields in enumerate(_CORNER_FIELDS) if parameter in fields]
    # the corners each candidate starts from, those of its left scan point
    starts = ids[:, row * scan.size + left]
    start_energies, rows = table["internal_energy"][starts], starts[moving]

    def step(active, x):
        states = _moved(table, rows[:, active].ravel(), _QUANTITIES[parameter], np.concatenate((x, x)))
        u = start_energies[:, active]
        u[moving] = summarize_many(*states, rel_tol, levels, True)["internal_energy"].reshape(2, -1)
        ua, ub, uc, ud = u
        return (uc - ub) + (ua - ud)

    found, found_residuals, failures = _false_position(
        step, scan[left], scan[right], scans[row, left], scans[row, right], tol)
    middles = (0.5 * (scan[left] + scan[right])).tolist()
    ends = np.searchsorted(row, np.arange(1, len(scans) + 1)).tolist()
    solved = []
    for fails, start, end in zip(failing.tolist(), [0, *ends], ends):
        if end == start:
            solved.append(("failing_corner" if fails else "no_sign_change", math.nan, math.nan, None))
            continue
        k = min(range(start, end), key=lambda k: abs(middles[k] - prev_root))
        prev_root = found[k] if failures[k] is None else prev_root
        solved.append(("solve_failure" if failures[k] else "root", found[k], found_residuals[k], failures[k]))
    return solved, scans, prev_root


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
    uniform points across `bracket`, and of its root candidates the one
    nearest the previous root (nearest the bracket midpoint at the first node)
    is solved, which keeps the trace on one branch when the locus has several.
    The grid is scanned and solved in chunks of at most _SCAN_CHUNK scan
    nodes, each one call of the core whose one-node case is
    `solve_regeneration`; see `_scan_and_solve`.  A one-node trace whose two
    scan points are a bracket's ends thus returns the solve's point, or a gap
    whose status names the error the solve raises.  A node without any sign
    change, with a failing corner anywhere on its scan or whose solve fails is
    a gap, whose status says which; see TraceResult.  A usage error
    (ValueError), such as a bad `tol`, `rel_tol`, `levels`, a `scan_points`
    that is no integer from 2 to MAX_NODES, a grid value or bracket outside
    the validity domain, raises before any node, and on an empty grid too.
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

    solved, prev_root = [], 0.5 * (lo + hi)  # the first node chooses the candidate nearest the bracket midpoint
    rows = max(1, _SCAN_CHUNK // scan_points)
    for start in range(0, len(grid), rows):
        nodes = {sweep_parameter: grid_values[start:start + rows, None]}
        chunk, _, prev_root = _scan_and_solve(base, nodes, solve_parameter, scan, prev_root, tol, rel_tol, levels)
        solved += chunk
    status = np.array([reason for reason, *_ in solved], dtype=str)
    gap = status != "root"  # a failed solve too
    root, residual = (np.where(gap, math.nan, [node[k] for node in solved]) for k in (1, 2))

    if grid and gap.all():
        warnings.warn(
            "no regeneration root found at any grid node; the locus does "
            "not intersect the scanned bracket, or every node failed",
            stacklevel=2,
        )
    result = TraceResult(grid_values, root, residual, status)
    for v in (result.grid, result.root, result.residual, result.status):
        v.flags.writeable = False
    return result
