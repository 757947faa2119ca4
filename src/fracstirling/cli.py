"""Command-line front end: cycle evaluation, sweeps, locus tracing, benchmark.

All numeric output is CSV with a mandatory header row, '.' decimals and
17-significant-digit floats, so files round-trip exactly and identical
invocations are byte-identical.  Exit codes: 0 success, 1 a computational
failure or a value the library rejects, 2 a command line argparse rejects.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple

from .cycle import CycleParams, CycleReport, evaluate
from .reference import (
    BENCH_LEVELS,
    BENCH_ROWS,
    QR_PAIR_TOL,
    QR_QUADRATIC_TOL,
)
from .solver import NodeError, SweepAxis, sweep, trace_curve
from .thermo import DEFAULT_REL_TOL, FracStirlingError

_REPORT_COLUMNS = (
    "q_ab", "q_bc", "q_cd", "q_da", "w", "q_r", "q_h", "eta", "eta_carnot",
    "regime", "s_a", "s_b", "s_c", "s_d", "u_a", "u_b", "u_c", "u_d",
)
# `cycle` prints the parameters and the report up to the regime
_CYCLE_COLUMNS = ("la", "lb", "alpha1", "alpha2", "th", "tc", "m") + _REPORT_COLUMNS[:10]

_AXIS_FLAGS = {"la": "width_a", "lb": "width_b", "alpha1": "alpha_1", "alpha2": "alpha_2"}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _report_fields(report: CycleReport) -> list[str]:
    sa, sb, sc, sd = report.corner_entropies
    ua, ub, uc, ud = report.corner_energies
    vals = (
        report.q_ab, report.q_bc, report.q_cd, report.q_da, report.work,
        report.q_r, report.q_h, report.efficiency, report.carnot,
    )
    return [_fmt(v) for v in vals] + [report.regime] + [
        _fmt(v) for v in (sa, sb, sc, sd, ua, ub, uc, ud)
    ]


def _write(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    if args.a1 >= args.a2:
        print(
            f"warning: alpha1={args.a1} >= alpha2={args.a2}; the forward "
            "cycle convention expects alpha1 < alpha2",
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
    row = [_fmt(v) for v in astuple(params)] + _report_fields(report)[:10]
    _write([",".join(_CYCLE_COLUMNS), ",".join(row)], args.out)
    return 0


def cmd_sweep(args, parser) -> int:
    axis_x = _parse_axis(args.x, parser)
    axis_y = _parse_axis(args.y, parser)
    base = _params_from_args(args)
    grid = sweep(base, axis_x, axis_y, args.rtol, args.levels)
    lines = ["x,y," + ",".join(_REPORT_COLUMNS) + ",error"]
    xs, ys = axis_x.values(), axis_y.values()
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            node = grid.reports[i][j]
            if isinstance(node, NodeError):
                fields = ["nan"] * 9 + ["error"] + ["nan"] * 8
                lines.append(
                    ",".join([_fmt(x), _fmt(y)] + fields)
                    + "," + node.message.replace(",", ";")
                )
            else:
                lines.append(
                    ",".join([_fmt(x), _fmt(y)] + _report_fields(node)) + ","
                )
    _write(lines, args.out)
    return 0


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
    base = _params_from_args(args)
    points = trace_curve(
        base,
        sweep_axis.parameter,
        solve_param,
        sweep_axis.values(),
        bracket,
        tol=args.tol,
        rel_tol=args.rtol,
        levels=args.levels,
    )
    lines = [f"{sweep_axis.parameter},{solve_param},residual,status"]
    for g, point in zip(sweep_axis.values(), points):
        if point is None:
            lines.append(f"{_fmt(g)},nan,nan,gap")
        else:
            solved = getattr(point.params, solve_param)
            lines.append(f"{_fmt(g)},{_fmt(solved)},{_fmt(point.residual)},ok")
    _write(lines, args.out)
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

    def add_common(p, include_alphas=True):
        p.add_argument("--la", type=float, default=1.0, help="width at corners A and D")
        p.add_argument("--lb", type=float, default=1.0, help="width at corners B and C")
        if include_alphas:
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
    p_trace.add_argument("--tol", type=float, default=1e-8, help="|q_r| tolerance at the root")

    sub.add_parser("table1", help="run the bundled regeneration benchmark")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "cycle": cmd_cycle,
        "sweep": cmd_sweep,
        "trace": cmd_trace,
        "table1": cmd_table1,
    }
    try:
        return handlers[args.command](args, parser)
    except (FracStirlingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
