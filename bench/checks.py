"""Correctness checks on CLI output.

A sweep row must equal the library's `evaluate` at that node, formatted as
`{:.17g}`; on a seeded sample of rows the corner energies and entropies must
also match the independent level sum in `oracle` to 1e-9 relative. A trace
root must give |q_r| <= tol when recomputed with `evaluate`. Columns are
found by header name, so added columns do not break the checks.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from fracstirling.cycle import CycleParams, evaluate

import oracle
from workloads import TRACE_TOL

ORACLE_REL = 1e-9
ORACLE_SAMPLE = 16

# Problems that make an output wrong; the others are failed operations only.
INCORRECT = frozenset({"exit", "malformed", "field", "oracle", "root"})

_REPORT_FIELDS = {
    "q_ab": lambda r: r.q_ab,
    "q_bc": lambda r: r.q_bc,
    "q_cd": lambda r: r.q_cd,
    "q_da": lambda r: r.q_da,
    "w": lambda r: r.work,
    "q_r": lambda r: r.q_r,
    "q_h": lambda r: r.q_h,
    "eta": lambda r: r.efficiency,
    "eta_carnot": lambda r: r.carnot,
    "s_a": lambda r: r.corner_entropies[0],
    "s_b": lambda r: r.corner_entropies[1],
    "s_c": lambda r: r.corner_entropies[2],
    "s_d": lambda r: r.corner_entropies[3],
    "u_a": lambda r: r.corner_energies[0],
    "u_b": lambda r: r.corner_energies[1],
    "u_c": lambda r: r.corner_energies[2],
    "u_d": lambda r: r.corner_energies[3],
}


def fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class Verdict:
    """Outcome of checking the output of one invocation."""

    nodes: int
    solved: int = 0
    failed: int = 0
    problems: Counter = field(default_factory=Counter)
    notes: list = field(default_factory=list)

    def fail(self, note: str, *kinds: str) -> None:
        """Count one failed node, with every check it failed."""
        self.failed += 1
        self.problems.update(kinds)
        if len(self.notes) < 5:
            self.notes.append(f"{'+'.join(kinds)}: {note}")

    def fail_all(self, note: str, kind: str) -> None:
        self.fail(note, kind)
        self.failed = self.nodes
        self.solved = 0

    @property
    def correct(self) -> bool:
        return not INCORRECT.intersection(self.problems)


def oracle_rows(rows: int, seed: int) -> set:
    """Indices of the sweep rows the oracle checks."""
    return set(random.Random(seed).sample(range(rows), min(ORACLE_SAMPLE, rows)))


def check(inv, text: str, seed: int) -> Verdict:
    verdict = Verdict(inv.nodes())
    lines = text.splitlines()
    if not lines:
        verdict.fail_all("empty output", "malformed")
        return verdict
    col = {name: i for i, name in enumerate(lines[0].split(","))}
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != verdict.nodes or any(len(r) != len(col) for r in rows):
        verdict.fail_all(f"{len(rows)} rows for {verdict.nodes} nodes", "malformed")
        return verdict
    if inv.command == "sweep":
        _check_sweep(inv, col, rows, seed, verdict)
    else:
        _check_trace(inv, col, rows, verdict)
    return verdict


def _check_sweep(inv, col, rows, seed, verdict) -> None:
    missing = {"x", "y", "regime", "error", *_REPORT_FIELDS} - col.keys()
    if missing:
        verdict.fail_all(f"missing columns {sorted(missing)}", "malformed")
        return
    ys = inv.y.values()
    sample = oracle_rows(len(rows), seed)
    for k, (row, (x, y)) in enumerate(zip(rows, ((x, y) for x in inv.x.values() for y in ys))):
        if row[col["x"]] != fmt(x) or row[col["y"]] != fmt(y):
            verdict.fail(f"row {k} is not node ({fmt(x)}, {fmt(y)})", "malformed")
            continue
        if row[col["error"]]:
            verdict.fail(f"row {k}: {row[col['error']]}", "node_error")
            continue
        params = {**inv.params(), inv.x.param: x, inv.y.param: y}
        try:
            report = evaluate(CycleParams(**params), levels=inv.levels)
        except Exception as exc:  # the CLI gave a row where the library raises
            verdict.fail(f"row {k}: evaluate raised {exc!r}", "field")
            continue
        # a node fails once, however many checks it fails
        kinds, notes = [], []
        bad = [name for name, get in _REPORT_FIELDS.items() if row[col[name]] != fmt(get(report))]
        if row[col["regime"]] != report.regime:
            bad.append("regime")
        if bad:
            kinds.append("field")
            notes.append(f"{bad} differ from evaluate")
        if k in sample:
            us, ss = oracle.corner_values(params)
            got = [float(row[col[c]]) for c in ("u_a", "u_b", "u_c", "u_d", "s_a", "s_b", "s_c", "s_d")]
            if any(abs(g - e) > ORACLE_REL * max(abs(g), abs(e)) for g, e in zip(got, us + ss)):
                kinds.append("oracle")
                notes.append(f"U, S {got} vs oracle {us + ss}")
        if kinds:
            verdict.fail(f"row {k}: {'; '.join(notes)}", *kinds)
        else:
            verdict.solved += 1


def _check_trace(inv, col, rows, verdict) -> None:
    if not {inv.x.param, inv.solve, "status"} <= col.keys():
        verdict.fail_all(f"header {sorted(col)}", "malformed")
        return
    for k, (row, g) in enumerate(zip(rows, inv.x.values())):
        status = row[col["status"]]
        if row[col[inv.x.param]] != fmt(g) or status not in ("ok", "gap"):
            verdict.fail(f"row {k} is not node {fmt(g)}", "malformed")
        elif status == "gap":
            verdict.fail(f"no root at {inv.x.param}={fmt(g)}", "gap")
        else:
            params = {**inv.params(), inv.x.param: g, inv.solve: float(row[col[inv.solve]])}
            try:
                q_r = evaluate(CycleParams(**params), levels=inv.levels).q_r
            except Exception as exc:  # the CLI reported a root the library rejects
                verdict.fail(f"evaluate raised {exc!r} at {params}", "root")
                continue
            if abs(q_r) > TRACE_TOL:
                verdict.fail(f"|q_r|={abs(q_r)} > {TRACE_TOL} at {params}", "root")
            else:
                verdict.solved += 1
