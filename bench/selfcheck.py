"""Smoke and mutation checks of the benchmark, and the README baselines.

`smoke()` runs every workload at tiny grid sizes through the same job, check
and tracer code as a full run, then shows that the checks reject a CSV field
with one flipped digit (both the `evaluate` comparison and the oracle) and a
trace node turned into a gap. `baselines()` times the reference points that
bench/README.md quotes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import run
import tracer as tracing
import workloads


def _fail(message: str) -> int:
    print(f"smoke: FAIL: {message}", file=sys.stderr)
    return 1


def _flip_digit(text: str, row: int, column: str) -> str:
    """Change the first decimal digit of one CSV field of data row `row`."""
    lines = text.split("\n")
    col = lines[0].split(",").index(column)
    fields = lines[row + 1].split(",")
    value = fields[col]
    i = value.index(".") + 1
    fields[col] = value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1:]
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def _inject_gap(text: str) -> str:
    """Turn the first solved node of a trace into a gap row."""
    lines = text.split("\n")
    fields = lines[1].split(",")
    lines[1] = f"{fields[0]},nan,nan,gap"
    return "\n".join(lines)


def smoke() -> int:
    from fracstirling.cli import main

    seed = 7
    for name in workloads.NAMES:
        invocations = workloads.build(name, seed, smoke=True)
        argvs = [inv.argv() for inv in invocations]
        _, outputs = run.run_job(main, argvs)
        verdicts = [checks.check(inv, text, seed + k)
                    for k, (inv, (_, text)) in enumerate(zip(invocations, outputs))]
        codes = [code for code, _ in outputs]
        if any(codes) or not all(v.correct and not v.failed for v in verdicts):
            return _fail(f"{name}: exit codes {codes}, {[v.notes for v in verdicts]}")
        _, again = run.run_job(main, argvs)
        if again != outputs:
            return _fail(f"{name}: two jobs gave different output")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, traced = run.run_job(main, argvs, tracer)
        finally:
            tracer.uninstall()
        layer = tracer.job_metrics()
        absent = [k for k, v in layer.items() if v is None] + sorted(tracer.missing)
        if traced != outputs or absent:
            return _fail(f"{name}: traced output differs or metrics absent: {absent}")
        print(f"smoke: {name}: {sum(v.nodes for v in verdicts)} nodes checked, "
              f"{layer['solver.evaluate_calls']} evaluate calls traced")

    probe = [sys.executable, str(Path(run.__file__).with_name("probe.py")), "trace-table1", str(seed)]
    print(f"smoke: set-up probe {run.timed_subprocess(probe, 1)[0]:.3f} s")

    # Mutation check: the checks must reject a flipped digit and a gap.
    inv = workloads.build("sweep-alpha-square", seed, smoke=True)[0]
    _, [(_, text)] = run.run_job(main, [inv.argv()])
    row = min(checks.oracle_rows(inv.nodes(), seed))
    verdict = checks.check(inv, _flip_digit(text, row, "u_a"), seed)
    if verdict.problems.keys() != {"field", "oracle"} or verdict.failed != 1 or verdict.correct:
        return _fail(f"flipped digit in u_a not rejected by both checks: {verdict}")
    print(f"smoke: mutation: flipped digit rejected ({dict(verdict.problems)})")
    inv = workloads.build("trace-table1", seed, smoke=True)[0]
    _, [(_, text)] = run.run_job(main, [inv.argv()])
    verdict = checks.check(inv, _inject_gap(text), seed)
    if verdict.problems.keys() != {"gap"} or verdict.failed != 1:
        return _fail(f"injected gap not counted as a failure: {verdict}")
    print(f"smoke: mutation: injected gap counted ({dict(verdict.problems)})")
    print("smoke: PASS")
    return 0


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        run.clear_caches()
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def baselines() -> int:
    from fracstirling import SweepAxis, ThermalState, WellSpec, summarize, sweep
    from fracstirling.cycle import CycleParams

    def library_sweep(name, levels=None):
        inv = workloads.build(name, 0)[0]
        axes = [SweepAxis(a.param, a.lo, a.hi, a.count) for a in (inv.x, inv.y)]
        return lambda: sweep(CycleParams(**inv.params()), *axes, levels=levels)

    dense = ThermalState(WellSpec(100.0, 1.01), 100.0)
    run.clear_caches()
    out = {
        "numpy_import_floor_s": statistics.median(
            run.timed_subprocess([sys.executable, "-c", "import numpy"], 5)),
        "cli_cycle_s": statistics.median(run.timed_subprocess(
            [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
             "from fracstirling.cli import main; sys.exit(main(['cycle', '--a1', '1.5']))"], 5)),
        "sweep_alpha_square_s": _median_time(library_sweep("sweep-alpha-square"), 5),
        "sweep_width_alpha_s": _median_time(library_sweep("sweep-width-alpha"), 3),
        "sweep_width_alpha_levels10_s": _median_time(library_sweep("sweep-width-alpha", 10), 3),
        "dense_state_s": _median_time(lambda: summarize(dense), 5),
        "dense_state_n_cut": summarize(dense).n_cut,
    }
    print(json.dumps(out, indent=1))
    return 0
