"""Command-line front end: cycle evaluation, sweeps, locus tracing, benchmark.

All numeric output is CSV with a mandatory header row, '.' decimals and
17-significant-digit floats, so files round-trip exactly and identical
invocations are byte-identical.  Exit codes: 0 success, 1 a computational
failure, a rejected value or an unwritable --out, 2 a rejected command line.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import nullcontext
from dataclasses import astuple

import numpy as np

from .cycle import REGIME_ENGINE, REGIME_NON_ENGINE, CycleParams, carnot_efficiency, evaluate
from .reference import (
    BENCH_LEVELS,
    BENCH_ROWS,
    QR_PAIR_TOL,
    QR_QUADRATIC_TOL,
)
from .solver import DEFAULT_QR_TOL, GAP_STATUSES, SweepAxis, SweepGrid, sweep, trace_curve
from .thermo import DEFAULT_REL_TOL, FracStirlingError

_REPORT_COLUMNS = (
    "q_ab", "q_bc", "q_cd", "q_da", "w", "q_r", "q_h", "eta", "eta_carnot",
    "regime", "s_a", "s_b", "s_c", "s_d", "u_a", "u_b", "u_c", "u_d",
)
# `cycle` prints the parameters and the report up to the regime
_CYCLE_COLUMNS = ("la", "lb", "alpha1", "alpha2", "th", "tc", "m") + _REPORT_COLUMNS[:10]

_AXIS_FLAGS = {"la": "width_a", "lb": "width_b", "alpha1": "alpha_1", "alpha2": "alpha_2"}


_CYCLE_ROW = ",".join("%s" if c == "regime" else "%.17g" for c in _CYCLE_COLUMNS)
# a trace row: the grid value, the root and the residual, nan at a gap, and ok or gap
_TRACE_ROW = "%.17g,%.17g,%.17g,%s"
# a sweep error row holds x, y, these fields and the message
_ERROR_FIELDS = ",".join(["nan"] * 9 + ["error"] + ["nan"] * 8)

_fmt = "%.17g".__mod__

# rows of the sweep CSV formatted and held at a time, whatever the grid's shape
_ROWS = 384


def _write(lines, out_path: str | None) -> None:
    """Write each item of `lines`, one or more lines of text, and a newline."""
    try:
        with open(out_path, "w", newline="") if out_path else nullcontext(sys.stdout) as fh:
            for line in lines:  # two writes: a copy of a long item to end it would fragment the heap
                fh.write(line)
                fh.write("\n")
            fh.flush()
    except BrokenPipeError:  # the reader quit early, as `| head` does: drop the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _params_from_args(args) -> CycleParams:
    return CycleParams(
        width_a=args.la,
        width_b=args.lb,
        alpha_1=args.a1,
        alpha_2=args.a2,
        t_hot=args.th,
        t_cold=args.tc,
        mass=args.m,
    )


def _warn_convention(args) -> None:
    if args.a1 > args.a2:
        print(
            f"warning: alpha1={args.a1} > alpha2={args.a2}; the forward "
            "cycle convention expects alpha1 <= alpha2",
            file=sys.stderr,
        )


def _parse_axis(text: str, parser: argparse.ArgumentParser) -> SweepAxis:
    try:
        name, spec = text.split("=", 1)
        lo, hi, count = spec.split(":")
        parameter = _AXIS_FLAGS[name.strip()]
        return SweepAxis(parameter, float(lo), float(hi), int(count))
    except KeyError:
        parser.error(
            f"unknown axis parameter in {text!r}; use one of {sorted(_AXIS_FLAGS)}"
        )
    except ValueError as exc:
        parser.error(f"bad axis spec {text!r} (want name=lo:hi:count): {exc}")


def _parse_bracket(text: str, parser: argparse.ArgumentParser) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
        return lo, hi
    except ValueError as exc:
        parser.error(f"bad bracket {text!r} (want lo:hi): {exc}")


def cmd_cycle(args, parser) -> int:
    _warn_convention(args)
    params = _params_from_args(args)
    report = evaluate(params, args.rtol, args.levels)
    row = _CYCLE_ROW % (*astuple(params), *astuple(report)[:10])  # q_ab .. regime
    _write([",".join(_CYCLE_COLUMNS), row], args.out)
    return 0


def cmd_sweep(args, parser) -> int:
    axis_x = _parse_axis(args.x, parser)
    axis_y = _parse_axis(args.y, parser)
    _write(_sweep_csv(sweep(_params_from_args(args), axis_x, axis_y, args.rtol, args.levels)), args.out)
    return 0


def _sweep_csv(grid: SweepGrid):
    """The sweep CSV: the header, then items of _ROWS rows each, the last of the rest.

    Every field is an (nx, ny) array in CSV order, which `_sweep_fields`
    builds one at a time.  A field whose bits repeat along y (x) is formatted
    per x (y) value, a grid constant once, and any other once per node; the
    floats of all fields formatted per axis value or once go through one
    `g17.slots` call, as each call has a fixed cost.  Each field fills fixed
    byte slots padded with NUL, so an item's rows are one uint8 matrix, and
    deleting its NULs leaves their text (`_sweep_rows`).
    Item m holds nodes m * _ROWS .. (m + 1) * _ROWS - 1 of the flat index
    i * ny + j, whatever the grid's shape, so the arrays formatted and held
    at a time are bounded: an axis field is formatted once per value where
    its axis has at most _ROWS values, else at each item's nodes.  Error rows
    replace their rows after formatting.
    """
    yield "x,y," + ",".join(_REPORT_COLUMNS) + ",error"
    nx, ny = grid.axis_x.count, grid.axis_y.count
    xs, ys = grid.axis_x.values(), grid.axis_y.values()
    fields = []  # per field: the axis it follows ("x", "y", "grid") or None, and its values or texts
    once = []  # the fields of floats formatted once per axis value, or once for the grid
    for field in _sweep_fields(grid, xs, ys):
        bits = field.view("int64") if field.dtype == float else field  # 0.0 == -0.0, but they print apart
        if (bits == bits[:, :1]).all():
            axis, values = ("grid", field.flat[:1]) if (bits == bits.flat[0]).all() else ("x", field[:, 0])
        elif (bits == bits[:1]).all():
            axis, values = "y", field[0]
        else:
            axis, values = None, field.reshape(-1)
        if axis and values.size <= _ROWS and values.dtype == float:
            once.append(len(fields))
            values = values.copy()  # not a view that holds the whole field
        elif axis and values.size <= _ROWS:
            values = _slots(values)
        fields.append((axis, values))
    if once:  # one `g17.slots` call, as each call has a fixed cost
        ends = np.cumsum([fields[k][1].size for k in once])
        texts = np.split(_slots(np.concatenate([fields[k][1] for k in once])), ends[:-1])
        for k, text in zip(once, texts):
            fields[k] = fields[k][0], text
    errors = sorted((i * ny + j, message) for (i, j), message in grid.errors.items())
    k = 0  # the next error row; a row is formatted where it is written
    for start in range(0, nx * ny, _ROWS):
        stop = min(start + _ROWS, nx * ny)
        text = _sweep_rows(fields, start, stop, ny)
        if k < len(errors) and errors[k][0] < stop:
            rows = text.split("\n")
            while k < len(errors) and errors[k][0] < stop:
                node, message = errors[k]
                i, j = divmod(node, ny)
                rows[node - start] = f"{_fmt(xs[i])},{_fmt(ys[j])},{_ERROR_FIELDS},{message.replace(',', ';')}"
                k += 1
            text = "\n".join(rows)
        yield text


def _sweep_rows(fields, start, stop, ny):
    """The rows of nodes start .. stop - 1 of the flat index i * ny + j but error rows, as one text.

    All per-node floats there, an axis field's too where its axis has more
    than _ROWS values, go through one `_slots` call.  The rows are one uint8
    matrix, each field's slot and a comma and then a newline; the last
    newline is left to `_write`.  The arrays live in this call alone, so none
    outlives the text.
    """
    i, j = np.divmod(np.arange(start, stop), ny)
    at = {None: slice(start, stop), "x": i, "y": j}  # each field's values of the item's nodes
    floats = [values[at[axis]] for axis, values in fields if values.ndim == 1 and values.dtype == float]
    slotted = iter(_slots(np.concatenate(floats)).reshape(len(floats), stop - start, -1) if floats else ())
    texts = []  # per field, its slots row by row, or one row for all
    for axis, values in fields:
        if values.ndim == 2:  # texts formatted once per axis value, or once for the grid
            texts.append(values if axis == "grid" else values.take(at[axis], axis=0))
        else:
            texts.append(next(slotted) if values.dtype == float else _slots(values[at[axis]]))
    ends = np.cumsum([t.shape[1] + 1 for t in texts])
    block = np.zeros((stop - start, ends[-1] + 1), np.uint8)
    for t, end in zip(texts, ends):
        block[:, end - 1 - t.shape[1]:end - 1] = t
    block[:, ends - 1] = ord(",")
    block[:-1, -1] = ord("\n")
    return block.tobytes().translate(None, b"\0").decode("ascii")


def _slots(values):
    """The NUL-padded texts of a 1-D array of floats or words: a (size, width) uint8 array.

    A float's is its "%.17g" in `g17.slots`, the array form of "%"; a word's
    its ASCII.
    """
    if values.dtype != float:  # ASCII words: a code point per 4 bytes, as one byte
        codes = np.ascontiguousarray(values).view(np.uint32)
        return codes.reshape(values.size, values.itemsize // 4).astype(np.uint8)
    from . import g17  # its tables take milliseconds to build; only a sweep needs them

    return g17.slots(values)


def _sweep_fields(grid: SweepGrid, xs, ys):
    """The sweep CSV's fields but the error column, (nx, ny) arrays in CSV order."""
    shape = (len(xs), len(ys))
    yield np.broadcast_to(np.array(xs)[:, None], shape)
    yield np.broadcast_to(np.array(ys), shape)
    yield from grid.columns.values()
    yield np.broadcast_to(carnot_efficiency(grid.base), shape)
    yield np.where(grid.columns["work"] > 0, REGIME_ENGINE, REGIME_NON_ENGINE)
    for values in (grid.state_entropy, grid.state_energy):
        for states in grid.corner_states:
            yield values[states]


def cmd_trace(args, parser) -> int:
    sweep_axis = _parse_axis(args.sweep, parser)
    if args.solve not in _AXIS_FLAGS:
        parser.error(f"unknown solve parameter {args.solve!r}; use one of {sorted(_AXIS_FLAGS)}")
    solve_param = _AXIS_FLAGS[args.solve]
    if args.bracket is not None:
        bracket = _parse_bracket(args.bracket, parser)
    elif solve_param.startswith("alpha"):
        bracket = (1.000001, 2.0)
    else:
        parser.error("--bracket lo:hi is required when solving for a width")
    with warnings.catch_warnings(record=True) as caught:  # worded as the CLI's own warnings
        warnings.simplefilter("always")
        trace = trace_curve(
            _params_from_args(args), sweep_axis.parameter, solve_param, sweep_axis.values(), bracket,
            tol=args.tol, rel_tol=args.rtol, levels=args.levels,
        )
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    status = trace.status.tolist()
    words = ["ok" if s == "root" else "gap" for s in status]
    lines = [f"{sweep_axis.parameter},{solve_param},residual,status"]
    lines += map(_TRACE_ROW.__mod__, zip(trace.grid.tolist(), trace.root.tolist(), trace.residual.tolist(), words))
    _write(lines, args.out)
    gaps = {reason: status.count(reason) for reason in GAP_STATUSES}
    if any(gaps.values()):  # once the CSV is written: why each gap is one, counted by status
        counts = ", ".join(f"{reason} {n}" for reason, n in gaps.items())
        print(f"warning: {sum(gaps.values())} of {len(status)} grid nodes are gaps ({counts})", file=sys.stderr)
    return 0


def cmd_table1(args, parser) -> int:
    print(
        "regeneration benchmark: t_hot=4 t_cold=3 m=1, "
        f"{BENCH_LEVELS}-level substance"
    )
    header = (
        f"{'la':>4} {'lb':>4} {'q_r(a=2)':>12} {'target':>12} {'dev':>9} "
        f"{'|q_r(pair)|':>12} {'eta(pair)':>10} {'row':>5}"
    )
    print(header)
    all_ok = True
    for row in BENCH_ROWS:
        quad = evaluate(row.quadratic_params(), levels=BENCH_LEVELS)
        pair = evaluate(row.pair_params(), levels=BENCH_LEVELS)
        dev = abs(quad.q_r - row.qr_quadratic)
        ok = dev <= QR_QUADRATIC_TOL and abs(pair.q_r) <= QR_PAIR_TOL
        all_ok &= ok
        print(
            f"{row.width_a:>4.1f} {row.width_b:>4.1f} {quad.q_r:>12.6f} "
            f"{row.qr_quadratic:>12.6f} {dev:>9.1e} {abs(pair.q_r):>12.2e} "
            f"{pair.efficiency:>10.6f} {'PASS' if ok else 'FAIL':>5}"
        )
    print("result:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracstirling",
        description=(
            "Stirling-cycle thermodynamics of a particle in an infinite "
            "well with tunable fractional kinetics"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--la", type=float, default=1.0, help="width at corners A and D")
        p.add_argument("--lb", type=float, default=1.0, help="width at corners B and C")
        p.add_argument("--a1", type=float, default=2.0, help="kinetic exponent at B and C")
        p.add_argument("--a2", type=float, default=2.0, help="kinetic exponent at A and D")
        p.add_argument("--th", type=float, default=4.0, help="hot bath temperature")
        p.add_argument("--tc", type=float, default=3.0, help="cold bath temperature")
        p.add_argument("--m", type=float, default=1.0, help="particle mass")
        p.add_argument("--rtol", type=float, default=DEFAULT_REL_TOL, help="ensemble truncation tolerance")
        p.add_argument("--levels", type=int, default=None, help="fixed level count instead of adaptive truncation")
        p.add_argument("--out", default=None, help="write output to PATH instead of stdout")

    p_cycle = sub.add_parser("cycle", help="evaluate one cycle and print a CSV row")
    add_common(p_cycle)

    p_sweep = sub.add_parser("sweep", help="evaluate a 2-D parameter grid as long CSV")
    add_common(p_sweep)
    p_sweep.add_argument("--x", required=True, help="x axis as name=lo:hi:count")
    p_sweep.add_argument("--y", required=True, help="y axis as name=lo:hi:count")

    p_trace = sub.add_parser("trace", help="trace the q_r=0 locus along one parameter")
    add_common(p_trace)
    p_trace.add_argument("--sweep", required=True, help="swept parameter as name=lo:hi:count")
    p_trace.add_argument("--solve", required=True, help="parameter solved at each node")
    p_trace.add_argument("--bracket", default=None, help="solve bracket as lo:hi")
    p_trace.add_argument("--tol", type=float, default=DEFAULT_QR_TOL, help="|q_r| tolerance at the root")

    sub.add_parser("table1", help="run the bundled regeneration benchmark")

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    handlers = {
        "cycle": cmd_cycle,
        "sweep": cmd_sweep,
        "trace": cmd_trace,
        "table1": cmd_table1,
    }
    try:
        return handlers[args.command](args, _PARSER)
    except (FracStirlingError, ValueError, OSError) as exc:  # OSError: from --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
