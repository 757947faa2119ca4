#!/usr/bin/env python3
"""fracstirling benchmark: CLI jobs timed from outside, checked, optionally traced.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-alpha-square --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke        # tiny grids: every check, tracer, mutation check
    python3 bench/run.py --baselines    # the reference numbers quoted in bench/README.md

A job runs every CLI invocation of a workload through `fracstirling.cli.main`
in this process, one at a time, each from a cold `summarize` cache. With
`--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics from traced jobs, interleaved with
untraced ones to measure the tracing overhead. The line before it records
the environment and extra facts. The metric names and units are those of
BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_JOBS = 3


def clear_caches() -> None:
    """Empty every functools cache in the package, as a fresh CLI process has."""
    for name, module in list(sys.modules.items()):
        if name == "fracstirling" or name.startswith("fracstirling."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_job(main, argvs, tracer=None):
    """Run one job; return (seconds in main, [(exit code, stdout)])."""
    seconds, outputs = 0.0, []
    for argv in argvs:
        clear_caches()
        gc.collect()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                code = tracer.run(main, argv) if tracer else main(argv)
            except (Exception, SystemExit):
                code = traceback.format_exc(limit=3)
            seconds += perf_counter() - t0
        outputs.append((code, out.getvalue()))
    return seconds, outputs


class Outputs:
    """Distinct job outputs with how many jobs produced each; checked once each."""

    def __init__(self):
        self.distinct = []  # [outputs, jobs]

    def add(self, outputs) -> None:
        for entry in self.distinct:
            if entry[0] == outputs:
                entry[1] += 1
                return
        self.distinct.append([outputs, 1])

    def check(self, invocations, seed):
        """Return (all correct, nodes attempted, nodes failed, problems, notes,
        verdicts of the first output added)."""
        import checks

        correct, attempted, failed, problems, notes, first = True, 0, 0, {}, [], None
        for outputs, jobs in self.distinct:
            verdicts = []
            for k, (inv, (code, text)) in enumerate(zip(invocations, outputs)):
                if code == 0:
                    verdict = checks.check(inv, text, seed + k)
                else:
                    verdict = checks.Verdict(inv.nodes())
                    verdict.fail_all(f"{inv.argv()} ended with {code!r}", "exit")
                verdicts.append(verdict)
                correct &= verdict.correct
                attempted += jobs * verdict.nodes
                failed += jobs * verdict.failed
                for kind, count in verdict.problems.items():
                    problems[kind] = problems.get(kind, 0) + jobs * count
                notes += verdict.notes
            first = first or verdicts
        return correct, attempted, failed, problems, notes[:10], first


def timed_subprocess(argv, count):
    """Wall times of `count` runs of argv."""
    times = []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def setup_times(probe):
    """(Set-up probe times scaled by the import floor, raw probe times, floor times)."""
    floor = [sys.executable, "-c", "import numpy"]
    floors, raw = timed_subprocess(floor, 1), []
    for _ in range(SETUP_PROBES):
        raw += timed_subprocess(probe, 1)
        floors += timed_subprocess(floor, 1)
    # each probe is scaled by the mean of the floors just before and after it
    scaled = [t * 2 * calibrate.IMPORT_FLOOR_S / (f0 + f1)
              for t, f0, f1 in zip(raw, floors, floors[1:])]
    return scaled, raw, floors


def tail(times):
    """Highest order statistic with at least ten samples above it."""
    ordered = sorted(times)
    k = len(ordered) - 11
    if k < 0:
        return {"samples": len(ordered), "percentile": None, "value": None}
    return {"samples": len(ordered), "percentile": round(100 * (k + 1) / len(ordered), 1),
            "value": ordered[k]}


def environment(args) -> dict:
    import numpy

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def benchmark(args, spec) -> int:
    from fracstirling.cli import main

    import tracer as tracing

    invocations = workloads.build(args.workload, args.seed)
    argvs = [inv.argv() for inv in invocations]
    info = {}
    if not args.trace:
        probe = [sys.executable, str(Path(__file__).with_name("probe.py")), args.workload,
                 str(args.seed)]
        setup, setup_wall, floors = setup_times(probe)
        info.update(setup_wall_s=setup_wall, numpy_import_floor_s=floors)

    # The reference job warms lazy set-up; it is checked but not timed.
    _, reference = run_job(main, argvs)
    outputs = Outputs()
    outputs.add(reference)
    tracer = tracing.Tracer() if args.trace else None
    plain, factors, traced, layer_jobs = [], [], [], []
    start = perf_counter()
    while perf_counter() - start < args.seconds or len(plain) < MIN_JOBS:
        if not tracer:
            factors.append(calibrate.speed_factor())
        seconds, out = run_job(main, argvs)
        outputs.add(out)
        plain.append(seconds)
        if tracer:
            tracer.reset()
            tracer.install()
            try:
                seconds, out = run_job(main, argvs, tracer)
            finally:
                tracer.uninstall()
            outputs.add(out)
            traced.append(seconds)
            layer_jobs.append(tracer.job_metrics())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not tracer:
        factors.append(calibrate.speed_factor())

    correct, attempted, failed, problems, notes, ref = outputs.check(invocations, args.seed)
    # work units: grid nodes of sweeps, solved locus nodes of traces
    job_units = sum(inv.nodes() if inv.command == "sweep" else v.solved
                    for inv, v in zip(invocations, ref))
    info.update(job_wall_s=plain, units_per_job=job_units, fail_ratio=failed / attempted,
                problems=problems)
    if tracer:
        values = per_layer(layer_jobs, plain, traced, reference, ref, invocations)
        info.update(
            traced_jobs=len(traced),
            counts_repeat=all(job[k] == layer_jobs[0][k] for job in layer_jobs for k in tracing.COUNTS),
            missing_names=sorted(tracer.missing),
            solver={k: tracer.n[k] for k in ("scans", "solves", "solve_evals", "solve_errors")},
        )
    else:
        # each job is scaled by the mean of the calibrations just before and after it
        scaled = [t * (f0 + f1) / 2 for t, f0, f1 in zip(plain, factors, factors[1:])]
        job_s = statistics.median(scaled)
        info.update(speed_factors=factors, job_s_tail=tail(scaled))
        values = {
            "setup_s": statistics.median(setup),
            "job_s_p50": job_s,
            "units_per_s": job_units / job_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1.0 - failed / attempted,
        }
    for note in notes:
        print(note, file=sys.stderr)
    info["environment"] = environment(args)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer(layer_jobs, plain, traced, reference, ref, invocations) -> dict:
    """Medians over traced jobs, plus the metrics read from the output."""
    values = {}
    for name in layer_jobs[0]:
        column = [job[name] for job in layer_jobs]
        values[name] = None if None in column else statistics.median(column)
    roots = sum(v.solved for inv, v in zip(invocations, ref) if inv.command == "trace")
    calls = values["solver.evaluate_calls"]
    values["solver.evals_per_root"] = None if calls is None else calls / roots if roots else 0.0
    nodes = sum(v.nodes for v in ref)
    values["solver.gap_ratio"] = sum(v.problems["gap"] + v.problems["node_error"] for v in ref) / nodes
    values["cli.bytes_out"] = sum(len(text.encode()) for _, text in reference)
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, every check, mutation check")
    parser.add_argument("--baselines", action="store_true", help="reference numbers for README.md")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fracstirling" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a fracstirling checkout; {SRC / 'fracstirling'} "
              f"or {spec_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fracstirling

    if not Path(fracstirling.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported fracstirling from {fracstirling.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.smoke:
        import selfcheck

        return selfcheck.smoke()
    if args.baselines:
        import selfcheck

        return selfcheck.baselines()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    sys.exit(main())
