"""Per-layer spans and counts, recorded by rebinding module-level names.

Each layer calls the layer below through a name bound in its own module
namespace (`cli.sweep`, `solver.evaluate`, `cycle.summarize`, ...). While a
Tracer is installed those names point to wrappers that time each call and
count work; `uninstall` restores the originals. Only the process running the
benchmark sees the rebinding; no file of the package changes.

A layer's self time is the duration of its spans minus the part covered by
the spans of the layers it called. The root span is the CLI `main` call. The
wrappers' own cost is charged to no layer; `trace.overhead` reports it.

A name that a refactor removes is skipped, and every metric that needs it is
reported as absent (None) instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "solver", "cycle", "thermo", "spectrum")

# (module, name, layer the callee belongs to)
REBOUND = (
    ("cli", "sweep", "solver"),
    ("cli", "trace_curve", "solver"),
    ("solver", "evaluate", "cycle"),
    ("solver", "find_brackets", "solver"),
    ("solver", "solve_regeneration", "solver"),
    ("cycle", "summarize", "thermo"),
    ("thermo", "energy_levels", "spectrum"),
)

_SOLVER_ENTRY = ("cli.sweep", "cli.trace_curve")
_SUMMARIZE = ("cycle.summarize", "thermo.energy_levels")

# Rebound names each per-layer metric needs; a metric is absent when one is gone.
REQUIRES = {
    "cli.self_s": _SOLVER_ENTRY,
    "solver.self_s": _SOLVER_ENTRY + ("solver.evaluate",),
    "solver.evaluate_calls": ("solver.evaluate",),
    "solver.evals_per_root": ("solver.evaluate",),
    "solver.scan_evals_per_node": ("solver.evaluate", "solver.find_brackets"),
    "cycle.self_s": ("solver.evaluate", "cycle.summarize"),
    "cycle.evaluate_us": ("solver.evaluate",),
    "thermo.self_s": _SUMMARIZE,
    "thermo.summarize_calls": ("cycle.summarize",),
    "thermo.distinct_states": ("cycle.summarize",),
    "thermo.hit_ratio": _SUMMARIZE,
    "thermo.hit_us": _SUMMARIZE,
    **{f"thermo.miss_us.n1e{k}": _SUMMARIZE for k in range(1, 6)},
    "thermo.levels_kept": _SUMMARIZE,
    "thermo.levels_computed": ("thermo.energy_levels",),
    "thermo.level_yield": _SUMMARIZE,
    "spectrum.self_s": ("thermo.energy_levels",),
    "spectrum.calls": ("thermo.energy_levels",),
    "spectrum.ns_per_level": ("thermo.energy_levels",),
    "spectrum.bytes_computed": ("thermo.energy_levels",),
}

# Work counts that must repeat exactly across jobs and runs with one seed.
COUNTS = ("solver.evaluate_calls", "thermo.summarize_calls", "thermo.distinct_states",
          "thermo.levels_kept", "thermo.levels_computed", "spectrum.calls")


def decade(n_cut: int) -> str:
    """n_cut decade bucket: n1e1 holds n_cut < 100, n1e5 holds n_cut >= 1e5."""
    return f"n1e{min(max(len(str(n_cut)) - 1, 1), 5)}"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self._targets = []
        self.missing = set()
        for mod_name, name, layer in REBOUND:
            key = f"{mod_name}.{name}"
            try:
                module = importlib.import_module(f"fracstirling.{mod_name}")
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, name, None)):
                self.missing.add(key)
            else:
                self._targets.append((module, name, layer, key))
        self._originals = []
        self._stack = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.n = Counter()
        self.t = defaultdict(float)
        self.states = set()

    def reset(self) -> None:
        """Zero every span and count, ready for the next job."""
        self.self_s.update(dict.fromkeys(LAYERS, 0.0))
        self.n.clear()
        self.t.clear()
        self.states.clear()

    def install(self) -> None:
        for module, name, layer, key in self._targets:
            original = getattr(module, name)
            self._originals.append((module, name, original))
            hook = getattr(self, "_after_" + key.replace(".", "_"))
            setattr(module, name, self._wrap(original, layer, hook))

    def uninstall(self) -> None:
        while self._originals:
            module, name, original = self._originals.pop()
            setattr(module, name, original)

    def run(self, main, argv):
        """Call `main(argv)` as the root (cli) span."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            return main(argv)
        finally:
            self.self_s["cli"] += perf_counter() - t0 - self._stack.pop()

    def _wrap(self, fn, layer, after):
        stack, self_s, n = self._stack, self.self_s, self.n

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            before = (n["evaluate"], n["levels_calls"])
            result = None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                self_s[layer] += dt - stack.pop()
                after(before, args, kwargs, dt, result)
                # the caller's children cover the wrapper's own cost too, so
                # tracing overhead lands in no layer's self time
                if stack:
                    stack[-1] += perf_counter() - t_in

        return wrapper

    # Hooks run after each call with the counts taken just before it.

    def _after_cli_sweep(self, before, args, kwargs, dt, result) -> None:
        pass

    _after_cli_trace_curve = _after_cli_sweep

    def _after_solver_evaluate(self, before, args, kwargs, dt, result) -> None:
        self.n["evaluate"] += 1
        self.t["evaluate"] += dt

    def _after_solver_find_brackets(self, before, args, kwargs, dt, result) -> None:
        self.n["scans"] += 1
        self.n["scan_evals"] += self.n["evaluate"] - before[0]

    def _after_solver_solve_regeneration(self, before, args, kwargs, dt, result) -> None:
        self.n["solves"] += 1
        self.n["solve_evals"] += self.n["evaluate"] - before[0]
        self.n["solve_errors"] += result is None

    def _after_cycle_summarize(self, before, args, kwargs, dt, result) -> None:
        n = self.n
        n["summarize"] += 1
        with contextlib.suppress(TypeError):  # unhashable arguments are not counted
            self.states.add((args, tuple(sorted(kwargs.items()))) if kwargs else args)
        # a call that computed levels missed the cache; one that did not hit it
        if n["levels_calls"] == before[1]:
            n["hits"] += 1
            self.t["hit"] += dt
            return
        n_cut = getattr(result, "n_cut", None)
        if n_cut is not None:
            n["levels_kept"] += n_cut
            n["miss." + decade(n_cut)] += 1
            self.t["miss." + decade(n_cut)] += dt

    def _after_thermo_energy_levels(self, before, args, kwargs, dt, result) -> None:
        self.n["levels_calls"] += 1
        self.n["levels_computed"] += getattr(result, "size", 0)
        self.n["level_bytes"] += getattr(result, "nbytes", 0)

    def job_metrics(self) -> dict:
        """Per-layer metrics of the job traced since the last reset()."""
        n, t, s = self.n, self.t, self.self_s
        m = {f"{layer}.self_s": s[layer] for layer in LAYERS}
        m.update({
            "solver.evaluate_calls": n["evaluate"],
            "solver.scan_evals_per_node": _ratio(n["scan_evals"], n["scans"]),
            "cycle.evaluate_us": 1e6 * _ratio(t["evaluate"], n["evaluate"]),
            "thermo.summarize_calls": n["summarize"],
            "thermo.distinct_states": len(self.states),
            "thermo.hit_ratio": _ratio(n["hits"], n["summarize"]),
            "thermo.hit_us": 1e6 * _ratio(t["hit"], n["hits"]),
            "thermo.levels_kept": n["levels_kept"],
            "thermo.levels_computed": n["levels_computed"],
            "thermo.level_yield": _ratio(n["levels_kept"], n["levels_computed"]),
            "spectrum.calls": n["levels_calls"],
            "spectrum.ns_per_level": 1e9 * _ratio(s["spectrum"], n["levels_computed"]),
            "spectrum.bytes_computed": n["level_bytes"],
        })
        for k in range(1, 6):
            key = f"miss.n1e{k}"
            m[f"thermo.miss_us.n1e{k}"] = 1e6 * _ratio(t[key], n[key])
        for name, needs in REQUIRES.items():
            if name in m and self.missing.intersection(needs):
                m[name] = None
        return m
