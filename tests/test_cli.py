import contextlib
import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstirling import (
    DEFAULT_REL_TOL, CycleParams, FracStirlingError, SweepAxis, SweepGrid, cli, evaluate, g17, thermo,
)
from fracstirling.cli import main
from fracstirling.cycle import carnot_efficiency
from fracstirling.reference import BENCH_ROWS
from fracstirling.solver import MAX_NODES, sweep
from fracstirling.spectrum import level_scale

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestCycleCommand:
    def test_benchmark_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--la", "0.6", "--lb", "0.9",
            "--a1", "2", "--a2", "2", "--th", "4", "--tc", "3",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header[:7] == ["la", "lb", "alpha1", "alpha2", "th", "tc", "m"]
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert abs(float(row["q_r"]) - (-0.1291)) < 5e-4
        assert row["regime"] in ("engine", "non_engine")

    def test_degenerate_cycle_row(self, capsys):
        code, out, err = run_cli(
            capsys, "cycle", "--la", "1", "--lb", "1", "--a1", "1.8", "--a2", "1.8",
        )
        assert code == 0
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        assert float(row["w"]) == 0.0
        assert float(row["q_r"]) == 0.0
        # equal exponents are the ordinary Stirling cycle: no warning
        assert err == ""

    def test_reversed_exponents_warn(self, capsys):
        code, out, err = run_cli(capsys, "cycle", "--a1", "1.6", "--a2", "1.5")
        assert code == 0 and out
        assert err.startswith("warning: alpha1=1.6 > alpha2=1.5")

    def test_levels_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", "--la", "1.0", "--lb", "1.4",
            "--a1", "1.502", "--a2", "1.579", "--levels", "10",
        )
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        assert abs(float(row["q_r"])) < 5e-3

    def test_floats_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "cycle", "--la", "0.7", "--lb", "1.3",
                            "--a1", "1.4", "--a2", "1.9")
        header, rows = csv_rows(out)
        for name, field in zip(header, rows[0]):
            if name != "regime":
                assert field == f"{float(field):.17g}"

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, sys.float_info.max]
    )
    def test_row_format_prints_floats_as_17g(self, capsys, monkeypatch, value):
        # the column formatter of a sweep and `.17g` agree on special values
        # too: every per-node column and corner state of a fake grid holds one
        def fake_sweep(base, axis_x, axis_y, rel_tol, levels):
            shape = (axis_x.count, axis_y.count)
            columns = {name: np.full(shape, value) for name in REPORT_FIELDS}
            return SweepGrid(axis_x, axis_y, base, columns, np.array([value]),
                             np.array([value]), np.zeros((4, *shape), dtype=int), {})

        monkeypatch.setattr(cli, "sweep", fake_sweep)
        code, out, _ = run_cli(capsys, "sweep", "--x", "la=1:2:2", "--y", "lb=1:3:3")
        assert code == 0
        header, rows = csv_rows(out)
        assert len(rows) == 6
        for row in rows:
            fields = dict(zip(header, row))
            assert fields.pop("regime") == ("engine" if value > 0 else "non_engine")
            assert fields.pop("eta_carnot") == "0.25"
            assert fields.pop("error") == ""
            del fields["x"], fields["y"]  # real axis values
            assert set(fields.values()) == {f"{value:.17g}"}, fields

    def test_repeated_columns_keep_the_bits_of_each_node(self, capsys, monkeypatch):
        # q_bc repeats along x and q_da along y but for the sign of a zero;
        # q_cd holds one value per x, nan among them, and q_ab mixes nan and
        # finite values
        nx, ny = 3, 4
        columns = {name: np.arange(nx * ny, dtype=float).reshape(nx, ny) for name in REPORT_FIELDS}
        columns["q_bc"] = np.tile([0.0, 1.5, -0.0, 2.5], (nx, 1))
        columns["q_bc"][1, 2] = 0.0
        columns["q_da"] = np.tile([[0.0], [3.0], [-2.0]], (1, ny))
        columns["q_da"][0, 3] = -0.0
        columns["q_cd"] = np.tile([[math.nan], [1.0], [math.nan]], (1, ny))
        columns["q_ab"] = np.where(np.arange(nx * ny).reshape(nx, ny) % 3, math.nan, 0.5)

        def fake_sweep(base, axis_x, axis_y, rel_tol, levels):
            return SweepGrid(axis_x, axis_y, base, columns, np.array([1.0]),
                             np.array([1.0]), np.zeros((4, nx, ny), dtype=int), {})

        monkeypatch.setattr(cli, "sweep", fake_sweep)
        code, out, _ = run_cli(capsys, "sweep", "--x", f"la=1:2:{nx}", "--y", f"lb=1:3:{ny}")
        assert code == 0
        header, rows = csv_rows(out)
        got = [[row[header.index(name)] for name in SWEEP_HEADER.split(",")[2:10]] for row in rows]
        want = [[f"{columns[name][i, j]:.17g}" for name in REPORT_FIELDS]
                for i in range(nx) for j in range(ny)]
        assert got == want

    def test_byte_identical_reruns(self, capsys):
        args = ("cycle", "--la", "0.8", "--lb", "1.1", "--a1", "1.3", "--a2", "1.7")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_computational_failure_exits_1(self, capsys):
        # wells this wide have level sums past the float range
        code, _, err = run_cli(
            capsys, "cycle", "--la", "1e200", "--lb", "1e200",
            "--a1", "1.05", "--a2", "1.06",
        )
        assert code == 1
        assert "error" in err

    def test_wells_past_a_million_levels_exit_0(self, capsys):
        # an adaptive cut near 1e9 levels sums like any other
        code, out, err = run_cli(
            capsys, "cycle", "--la", "3e7", "--lb", "3e7",
            "--a1", "1.05", "--a2", "1.06",
        )
        assert code == 0 and err == ""
        _, (row,) = csv_rows(out)
        assert all(math.isfinite(float(v)) for v in row[:-1])

    def test_unrepresentable_level_scale_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "cycle", "--la", "1e-200")
        assert code == 1
        assert out == "" and "error: energy levels" in err

    @pytest.mark.parametrize("argv, error", [
        # E_1 of a narrow well overflows: the levels leave the float range
        (("--la", "1e-302"), "energy levels of WellSpec(width=1e-302, alpha=2.0, mass=1.0) exceed the float range"),
        # E_1 is about 1e-201, finite: x = E_1/T underflows and the sums leave it
        (("--la", "1e200", "--lb", "1e200", "--a1", "1.05", "--a2", "1.06"),
         "level sums of WellSpec(width=1e+200, alpha=1.06, mass=1.0) leave the float range"),
    ], ids=["levels", "sums"])
    def test_float_range_failure_names_the_end_it_leaves(self, capsys, argv, error):
        code, out, err = run_cli(capsys, "cycle", *argv)
        assert (code, out, err) == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize(
        "argv, code, error",
        [
            # E_1 ~ 1e308 is finite and every level above it overflows, weighing 0
            (("--la", "1e-302", "--a1", "1.01", "--a2", "1.02"), 0, None),
            # T < 1 with levels near the float maximum: one row, no warning
            (("--la", "1e-303", "--lb", "1e-303", "--a1", "1.01", "--a2", "1.011",
              "--th", "0.2", "--tc", "0.1"), 0, None),
            # E_1 underflows to 0: the cut is infinite and no level is computed
            (("--la", "1e200", "--lb", "1e200"), 1, "error: energy levels"),
            # level spacings near 1e200: (E_n - E_1)^2 would overflow in C
            (("--la", "1e-100", "--lb", "2e-100", "--th", "1e200", "--tc", "5e199"),
             0, None),
            # 1/T overflows at the cold bath: rejected before any level sum
            (("--th", "1e-300", "--tc", "5e-324"), 1, "error: temperature must be at least"),
        ],
        ids=["overflow", "below-unit-temperature", "underflow", "heat-capacity", "infinite-beta"],
    )
    def test_overflowing_levels_print_only_the_error(self, argv, code, error):
        # a subprocess, so numpy's warnings reach stderr as a user sees them
        proc = subprocess.run(
            [sys.executable, "-m", "fracstirling.cli", "cycle", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        if error is None:
            assert lines == [] and len(csv_rows(proc.stdout)[1]) == 1
        else:
            assert proc.stdout == ""
            assert len(lines) == 1 and lines[0].startswith(error), lines


class TestParser:
    def test_main_is_reentrant(self, capsys, monkeypatch):
        # one module-level parser serves every call; a fresh parser per call
        # gives the same output
        runs = [
            ("sweep", "--x", "alpha1=1.4:1.6:3", "--y", "alpha2=1.5:1.6:2"),
            ("cycle", "--la", "1.0", "--lb", "1.4", "--a1", "1.502", "--a2", "1.579"),
            ("trace", "--sweep", "alpha2=1.58:1.62:2", "--solve", "alpha1",
             "--la", "1.0", "--lb", "1.4", "--levels", "10"),
            ("cycle", "--levels", "10"),
        ]
        shared = [run_cli(capsys, *argv) for argv in runs]
        fresh = []
        for argv in runs:
            monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            fresh.append(run_cli(capsys, *argv))
        assert shared == fresh
        assert all(code == 0 and out for code, out, _ in shared)


REPORT_FIELDS = ("q_ab", "q_bc", "q_cd", "q_da", "work", "q_r", "q_h", "efficiency")
SWEEP_HEADER = (
    "x,y,q_ab,q_bc,q_cd,q_da,w,q_r,q_h,eta,eta_carnot,regime,"
    "s_a,s_b,s_c,s_d,u_a,u_b,u_c,u_d,error"
)
AXIS_RANGES = {
    # widths that pass, that overflow the level scale, that need far more
    # than a million levels and whose level sums leave the float range
    "la": [(0.6, 1.4), (1e-200, 1.0), (1.0, 3e7), (1.0, 1e200)],
    "lb": [(0.9, 1.5), (1e-250, 2.0), (0.5, 3e7), (0.5, 1e200)],
    "alpha1": [(1.2, 1.9), (1.01, 2.0)],
    "alpha2": [(1.3, 1.8), (1.5, 2.0)],
}


def error_row(xv, yv, message):
    """The sweep CSV row of a failed node."""
    fields = ["nan"] * 9 + ["error"] + ["nan"] * 8 + [message.replace(",", ";")]
    return ",".join([f"{xv:.17g}", f"{yv:.17g}", *fields])


def reference_sweep_csv(base, x, y, rel_tol, levels):
    """The sweep CSV built row by row from `evaluate`, each float as `.17g`."""
    lines = [SWEEP_HEADER]
    for xv in x.values():
        for yv in y.values():
            try:
                report = evaluate(replace(base, **{x.parameter: xv, y.parameter: yv}), rel_tol, levels)
            except FracStirlingError as exc:
                lines.append(error_row(xv, yv, str(exc)))
                continue
            values = (
                xv, yv, *(getattr(report, name) for name in REPORT_FIELDS), report.carnot,
                report.regime, *report.corner_entropies, *report.corner_energies, "",
            )
            lines.append(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in values))
    return "\n".join(lines) + "\n"


def rowwise_sweep_csv(grid):
    """The sweep CSV of `grid` written one row at a time, each float as `.17g`."""
    lines = [SWEEP_HEADER]
    for i, xv in enumerate(grid.axis_x.values()):
        for j, yv in enumerate(grid.axis_y.values()):
            if (i, j) in grid.errors:
                lines.append(error_row(xv, yv, grid.errors[i, j]))
                continue
            corners = grid.corner_states[:, i, j]
            values = (
                xv, yv, *(grid.columns[name][i, j] for name in REPORT_FIELDS), carnot_efficiency(grid.base),
                "engine" if grid.columns["work"][i, j] > 0 else "non_engine",
                *grid.state_entropy[corners], *grid.state_energy[corners], "",
            )
            lines.append(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in values))
    return "\n".join(lines) + "\n"


@st.composite
def sweep_commands(draw, pair):
    """A small sweep over the axis pair, adaptive or at a fixed level count."""
    axes = []
    for flag in pair:
        lo, hi = draw(st.sampled_from(AXIS_RANGES[flag]))
        axes.append((flag, lo, hi, draw(st.integers(2, 4))))
    fixed = {
        "la": draw(st.floats(0.7, 1.3)), "lb": draw(st.floats(1.0, 1.6)),
        "a1": draw(st.floats(1.2, 2.0)), "a2": draw(st.floats(1.2, 2.0)),
    }
    levels = draw(st.sampled_from([None, 10]))
    return axes, fixed, levels


def check_sweep_against_reference(axes, fixed, levels):
    """Run `fracstirling sweep` on the axes and fixed flags; check it against the reference."""
    argv = ["sweep"] + [f"--{k}={v!r}" for k, v in fixed.items()]
    argv += [f"--{axis}={flag}={lo!r}:{hi!r}:{n}" for axis, (flag, lo, hi, n) in zip("xy", axes)]
    if levels is not None:
        argv.append(f"--levels={levels}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0
    assert err.getvalue() == ""
    base = CycleParams(fixed["la"], fixed["lb"], fixed["a1"], fixed["a2"], 4.0, 3.0)
    x, y = (SweepAxis(cli._AXIS_FLAGS[flag], lo, hi, n) for flag, lo, hi, n in axes)
    assert out.getvalue() == reference_sweep_csv(base, x, y, DEFAULT_REL_TOL, levels)


class TestSweepCommand:
    @pytest.mark.parametrize("pair", itertools.permutations(sorted(cli._AXIS_FLAGS), 2), ids="-".join)
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_csv_equals_evaluate_row_by_row(self, pair, data):
        # every row, error rows included, is `evaluate` at its node as `.17g`
        check_sweep_against_reference(*data.draw(sweep_commands(pair)))

    @pytest.mark.parametrize("axes, fixed, levels", [
        ([("la", 1e-200, 1.0, 3), ("alpha2", 1.3, 1.6, 2)], {}, None),
        ([("lb", 1.0, 3e7, 2), ("alpha2", 1.4, 1.6, 2)], {"la": 0.5, "a2": 1.5}, None),
        ([("alpha1", 1.01, 2.0, 4), ("alpha2", 1.01, 2.0, 4)], {"lb": 1.5}, 10),
        # good rows and error rows from both ends of the float range: a level
        # scale that overflows and level sums that do
        ([("la", 1e-200, 1.0, 3), ("lb", 0.5, 1e200, 2)], {"a1": 1.5, "a2": 1.7}, None),
    ])
    def test_csv_equals_evaluate_on_known_grids(self, axes, fixed, levels):
        check_sweep_against_reference(axes, {"la": 1.0, "lb": 1.0, "a1": 2.0, "a2": 2.0, **fixed}, levels)

    def test_reader_that_stops_early(self):
        # `fracstirling sweep ... | head -1`: exit 0 with nothing on stderr
        proc = subprocess.Popen(
            [sys.executable, "-m", "fracstirling.cli", "sweep", "--x", "alpha1=1.2:1.8:40",
             "--y", "alpha2=1.3:1.9:40"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.stdout.readline().startswith(b"x,y,")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_two_by_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--x", "alpha1=1.2:1.8:2", "--y", "alpha2=1.3:1.9:2",
            "--la", "1", "--lb", "1",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header[:2] == ["x", "y"]
        assert header[-1] == "error"
        assert len(rows) == 4
        # x-major order: x constant over each y block
        assert [r[0] for r in rows] == [rows[0][0]] * 2 + [rows[2][0]] * 2
        assert float(rows[0][0]) == 1.2 and float(rows[3][0]) == 1.8

    def test_axis_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--x", "alpha1=1.2:1.8", "--y", "alpha2=1.3:1.9:2"])
        assert exc.value.code == 2

    def test_unknown_axis_parameter(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--x", "thot=3:4:2", "--y", "alpha2=1.3:1.9:2"])
        assert exc.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        args = [
            "sweep", "--x", "la=0.8:1.2:2", "--y", "lb=0.9:1.3:2",
            "--a1", "2", "--a2", "2", "--out", str(target),
        ]
        assert main(args) == 0
        first = target.read_bytes()
        assert main(args) == 0
        assert target.read_bytes() == first
        assert first.decode().startswith("x,y,")

    @pytest.mark.parametrize("x, y, per_node, axis_values", [
        # q_bc, s_b, s_c, u_b, u_c depend on x only and q_da, s_a, s_d, u_a, u_d
        # on y only: x, y and these ten once per axis value, carnot once
        ("alpha1=1.1:1.9:20", "alpha2=1.2:2:20", 6, 20 + 20 + 10 * 20 + 1),
        # q_bc and the B and C corners are grid constants, as carnot is
        ("la=0.5:1.5:20", "alpha2=1.2:2:20", 11, 20 + 20 + 6),
    ], ids=["alpha-square", "width-alpha"])
    def test_formats_no_per_node_float_in_python(self, capsys, monkeypatch, x, y, per_node, axis_values):
        # every float goes through the array formatter once: a field that
        # repeats along an axis once per value of the other axis, a grid
        # constant once and a per-node field once per node, an item's rows
        # in one call; none goes through Python's "%"
        grids, sizes, percent = [], [], []
        slots = g17.slots
        monkeypatch.setattr(cli, "sweep", lambda *args: grids.append(sweep(*args)) or grids[-1])
        monkeypatch.setattr(g17, "slots", lambda values: sizes.append(len(values)) or slots(values))
        monkeypatch.setattr(g17, "_fmt", lambda v: percent.append(v) or f"{v:.17g}")
        monkeypatch.setattr(cli, "_fmt", lambda v: percent.append(v) or f"{v:.17g}")
        code, out, err = run_cli(capsys, "sweep", "--x", x, "--y", y, "--lb", "1.5", "--a1", "1.5")
        grid = grids[0]
        assert code == 0 and err == "" and grid.errors == {}
        corners = [v[grid.corner_states] for v in (grid.state_entropy, grid.state_energy)]
        bits = [v.view("int64") for v in (*grid.columns.values(), *corners[0], *corners[1])]
        assert sum(((b != b[:1]).any() and (b != b[:, :1]).any()) for b in bits) == per_node
        assert sum(sizes) == per_node * 400 + axis_values and percent == []
        # an item holds the next cli._ROWS rows, all its per-node floats in one call
        assert sizes[-2:] == [per_node * cli._ROWS, per_node * (400 - cli._ROWS)]
        assert out == rowwise_sweep_csv(grid)

    @pytest.mark.parametrize("nx, ny", [(3, 4), (2, 3), (4, 2)])
    def test_hand_built_grid_matches_a_row_by_row_writer(self, nx, ny):
        # signed zeros, nan and +-inf in fields that repeat along y, along x,
        # everywhere or, but for one -0.0 against 0.0, along an axis; error rows
        # at the first and last node, with ',' and '%' in their messages
        rng = np.random.default_rng(nx * 10 + ny)
        along_x = np.broadcast_to(np.array([0.0, np.nan, np.inf, -np.inf])[:ny], (nx, ny))
        along_y = np.broadcast_to(np.array([[0.0], [-np.inf], [2.5], [0.0]])[:nx], (nx, ny))
        but_one_x, but_one_y = along_x.copy(), along_y.copy()
        but_one_x[-1, 0] = but_one_y[0, -1] = -0.0
        work = rng.normal(size=(nx, ny))
        work[0, -1] = np.nan
        columns = dict(zip(REPORT_FIELDS, [
            but_one_x, along_y, along_x, np.full((nx, ny), -0.0), work, but_one_y,
            rng.normal(size=(nx, ny)), rng.normal(size=(nx, ny)),
        ]))
        energy = np.array([1.0, -0.0, np.nan, np.inf, -np.inf, 0.1])
        entropy = rng.permutation(energy)
        errors = {(0, 0): "a, b at 5% of %s", (nx - 1, ny - 1): "100%% of %d, %(x)s"}
        grid = SweepGrid(
            SweepAxis("width_a", 0.5, 1.5, nx), SweepAxis("alpha_2", 1.2, 1.8, ny),
            CycleParams(1.0, 1.5, 1.5, 2.0, 4.0, 3.0), columns, energy, entropy,
            rng.integers(0, energy.size, (4, nx, ny)), errors,
        )
        assert "\n".join(cli._sweep_csv(grid)) + "\n" == rowwise_sweep_csv(grid)

    def test_axis_templates_cut_to_their_texts_match_a_row_by_row_writer(self, monkeypatch):
        # both axes within cli._ROWS, so every axis field is in a template; one
        # field per x value mixes exponent forms, negatives, nan, +-inf and
        # -0.0, one per y value holds short positives, so their column spans
        # are cut to different widths; error rows sit on both sides of the
        # item edge at node cli._ROWS, mid x-row
        nx, ny = 24, 20
        assert max(nx, ny) <= cli._ROWS < nx * ny and cli._ROWS % ny
        rng = np.random.default_rng(34)
        mixed = np.array([-1.5e-300, 2.5e17, -0.0, np.nan, np.inf, -np.inf, 1e-5, -123.456, 0.1, 7e22, -3e-7, 0.0])
        per_x = np.broadcast_to(np.resize(mixed, nx)[:, None], (nx, ny))
        per_y = np.broadcast_to(rng.choice([0.5, 1.0, 2.0, 3.25, 4.0, 8.5], ny), (nx, ny))
        work = rng.normal(size=(nx, ny))
        columns = dict(zip(REPORT_FIELDS, [
            per_x, per_y, rng.normal(size=(nx, ny)), np.full((nx, ny), 2.5), work,
            per_x[::-1], rng.normal(size=(nx, ny)), per_y * 2.0,
        ]))
        energy = np.array([1.0, -0.0, np.nan, np.inf, -np.inf, 0.1, 1e300, -2.5e-8])
        entropy = rng.permutation(energy)
        corners = np.stack([
            np.broadcast_to(rng.integers(0, energy.size, (nx, 1)), (nx, ny)),  # per x value
            np.broadcast_to(rng.integers(0, energy.size, ny), (nx, ny)),  # per y value
            rng.integers(0, energy.size, (nx, ny)), np.full((nx, ny), 5),
        ])
        nodes = {0, cli._ROWS - 2, cli._ROWS - 1, cli._ROWS, cli._ROWS + 1, nx * ny - 1}
        errors = {divmod(n, ny): f"node {n}, at 5% of %s" for n in nodes}
        grid = SweepGrid(
            SweepAxis("alpha_1", 1.1, 1.9, nx), SweepAxis("alpha_2", 1.2, 2.0, ny),
            CycleParams(1.0, 1.5, 1.5, 2.0, 4.0, 3.0), columns, energy, entropy, corners, errors,
        )
        layouts, templates = [], cli._templates
        monkeypatch.setattr(cli, "_templates", lambda *args: layouts.append(templates(*args)) or layouts[-1])
        items = list(cli._sweep_csv(grid))
        assert "\n".join(items) + "\n" == rowwise_sweep_csv(grid)
        assert [item.count("\n") + 1 for item in items[1:]] == [cli._ROWS, nx * ny - cli._ROWS]

        def span(values):  # the columns from the first to the last that any text uses
            used = g17.slots(np.asarray(values)).any(axis=0).nonzero()[0]
            return used[-1] - used[0] + 1

        assert span(mixed) > span(per_y[0]) + 10
        # an axis field spans the columns its texts use; a per-node float a
        # full slot, the per-node regime the 10 bytes of "non_engine"
        axis_fields = [grid.axis_x.values(), grid.axis_y.values(), per_x[:, 0], per_y[0], [2.5], per_x[::-1, 0],
                       per_y[0] * 2.0, [carnot_efficiency(grid.base)]]
        for values in (entropy, energy):
            axis_fields += [values[corners[0, :, 0]], values[corners[1, 0]], values[[5]]]
        per_node = 5 * g17.SLOT + 10  # q_cd, work, q_h, s_c and u_c, and the regime
        (axis_templates, per_item), = layouts
        assert [axis for axis, _, _ in per_item] == [None] * 6
        assert axis_templates["x"].shape == (nx, sum(map(span, axis_fields)) + per_node + 20 + 1)  # 20 commas, a newline
        assert axis_templates["y"].shape == (ny, axis_templates["x"].shape[1])

    @pytest.mark.parametrize("nx, ny", [(5, 500), (500, 7)])
    def test_items_that_end_mid_row_match_a_row_by_row_writer(self, nx, ny):
        # items end mid x-row here, and one axis is longer than cli._ROWS, so
        # its fields, the regime among them, are formatted at each item's
        # nodes; error rows sit on both sides of every item edge
        assert nx * ny > cli._ROWS and cli._ROWS % ny and max(nx, ny) > cli._ROWS
        rng = np.random.default_rng(nx * ny)
        along_x = np.broadcast_to(rng.normal(size=ny), (nx, ny))
        along_y = np.broadcast_to(rng.normal(size=(nx, 1)), (nx, ny))
        work = along_x if ny > cli._ROWS else along_y  # the regime follows the longer axis
        q_r = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.25e-300], (nx, ny))
        columns = dict(zip(REPORT_FIELDS, [
            along_x, along_y, np.full((nx, ny), -0.0), rng.normal(size=(nx, ny)), work, q_r,
            rng.normal(size=(nx, ny)), rng.normal(size=(nx, ny)),
        ]))
        energy = np.array([1.0, -0.0, np.nan, np.inf, -np.inf, 0.1])
        edges = range(cli._ROWS, nx * ny, cli._ROWS)
        nodes = {0, nx * ny - 1, *edges, *(e - 1 for e in edges)}
        errors = {divmod(n, ny): f"node {n}, at 5% of %s" for n in nodes}
        grid = SweepGrid(
            SweepAxis("width_a", 0.5, 1.5, nx), SweepAxis("alpha_2", 1.2, 1.8, ny),
            CycleParams(1.0, 1.5, 1.5, 2.0, 4.0, 3.0), columns, energy, rng.permutation(energy),
            rng.integers(0, energy.size, (4, nx, ny)), errors,
        )
        items = list(cli._sweep_csv(grid))
        assert [item.count("\n") + 1 for item in items[1:-1]] == [cli._ROWS] * (len(items) - 2)
        assert "\n".join(items) + "\n" == rowwise_sweep_csv(grid)

    @pytest.mark.parametrize("nx, ny", [(2, 5000), (700, 3)])
    def test_holds_at_most_the_row_cap_per_item(self, capsys, monkeypatch, tmp_path, nx, ny):
        # the header, then items of the next cli._ROWS rows in row order, the
        # last of the rest; an axis longer than cli._ROWS is formatted at each
        # item's nodes; --out and stdout get the same bytes
        grids, writes, write = [], [], cli._write
        monkeypatch.setattr(cli, "sweep", lambda *args: grids.append(sweep(*args)) or grids[-1])
        monkeypatch.setattr(cli, "_write", lambda lines, out: write(writes.append(list(lines)) or writes[-1], out))
        argv = ["sweep", "--x", f"alpha1=1.2:1.8:{nx}", "--y", f"alpha2=1.3:1.9:{ny}"]
        code, out, _ = run_cli(capsys, *argv)
        items = writes[0]
        assert code == 0 and items[0] == SWEEP_HEADER
        rows = [item.count("\n") + 1 for item in items[1:]]
        assert rows == [min(cli._ROWS, nx * ny - start) for start in range(0, nx * ny, cli._ROWS)]
        assert out == rowwise_sweep_csv(grids[0])
        target = tmp_path / "grid.csv"
        assert main([*argv, "--out", str(target)]) == 0
        assert target.read_bytes() == out.encode()

    def test_axis_up_to_the_float_maximum_exits_0(self, capsys):
        # 1 + 3 * step overflows; that node is the axis end, and the wells
        # past the first x fail by node
        code, out, err = run_cli(
            capsys, "sweep", "--x", "la=1:1.7976931348623157e308:4", "--y", "alpha2=1.5:1.6:2",
        )
        header, rows = csv_rows(out)
        assert (code, err, len(rows)) == (0, "", 8)
        xs = SweepAxis("width_a", 1.0, sys.float_info.max, 4).values()
        assert [r[0] for r in rows[::2]] == [f"{v:.17g}" for v in xs] and xs[-1] == sys.float_info.max
        assert [r[11] != "error" for r in rows] == [True] * 2 + [False] * 6

    def test_axis_over_max_nodes_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--x", f"alpha1=1.2:1.8:{MAX_NODES + 1}", "--y", "alpha2=1.3:1.9:2"])
        assert exc.value.code == 2

    def test_grid_over_max_nodes_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--x", "alpha1=1.2:1.8:1001", "--y", "alpha2=1.3:1.9:1001",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: a 1001 x 1001 grid exceeds")

    def test_bad_tolerance_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--x", "alpha1=1.2:1.8:2", "--y", "alpha2=1.3:1.9:2",
            "--rtol", "1",
        )
        assert code == 1
        assert out == "" and "rel_tol" in err

    def test_unrepresentable_node_is_an_error_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--x", "la=1e-200:1:3", "--y", "alpha2=1.3:1.6:2"
        )
        assert code == 0
        _, rows = csv_rows(out)
        # only the (1e-200, 1.6) node fails: its E_1 ~ (pi/2e-200)^1.6 overflows
        assert [r[11] == "error" for r in rows] == [False, True] + [False] * 4

    def test_dense_columns_match_explicit_sums(self, capsys):
        # wide wells at T_h = 100 and alpha down to 1.05 cut at up to ~1e5
        # levels, past the kernel's exactly summed head: every corner's U and
        # S match plain numpy sums over the same levels
        code, out, _ = run_cli(
            capsys, "sweep", "--x", "la=1:50:3", "--y", "alpha2=1.05:2:3",
            "--lb", "60", "--a1", "1.05", "--th", "100", "--tc", "60",
        )
        assert code == 0
        header, rows = csv_rows(out)
        closed = 0
        for row in rows:
            values = dict(zip(header, row))
            la, a2 = float(values["x"]), float(values["y"])
            corners = {"a": (la, a2, 100.0), "b": (60.0, 1.05, 100.0),
                       "c": (60.0, 1.05, 60.0), "d": (la, a2, 60.0)}
            for corner, (width, alpha, t) in corners.items():
                e1 = level_scale(width, alpha, 1.0)
                n_cut = math.ceil(thermo._level_count(alpha, e1 / t, DEFAULT_REL_TOL))
                closed += n_cut > thermo._HEAD
                delta = e1 * np.arange(1, n_cut + 1, dtype=float) ** alpha - e1
                weights = np.exp(-delta / t)
                z = float(np.sum(weights))
                excess = float(np.dot(weights, delta)) / z
                assert float(values[f"u_{corner}"]) == pytest.approx(e1 + excess, rel=1e-12)
                assert float(values[f"s_{corner}"]) == pytest.approx(excess / t + math.log(z), rel=1e-12)
        assert closed >= 30


@pytest.mark.parametrize("argv", [
    ["cycle"],
    ["sweep", "--x", "la=0.8:1.2:2", "--y", "lb=0.9:1.3:2"],
    ["trace", "--sweep", "alpha2=1.5:1.6:2", "--solve", "alpha1", "--lb", "1.4", "--levels", "10"],
], ids=lambda argv: argv[0])
def test_out_path_that_cannot_be_opened_exits_1(tmp_path, argv):
    target = tmp_path / "missing" / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "fracstirling.cli", *argv, "--out", str(target)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and str(target) in proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1


class TestTraceCommand:
    def test_single_node(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--la", "1.0", "--lb", "1.4",
            "--sweep", "alpha2=1.579:1.6:2", "--solve", "alpha1",
            "--bracket", "1.482:2.0", "--levels", "10",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["alpha_2", "alpha_1", "residual", "status"]
        assert len(rows) == 2
        assert rows[0][3] == "ok"
        assert abs(float(rows[0][1]) - 1.502) < 5e-3

    def test_gap_rows(self, capsys):
        # the library's warning reaches stderr as one line in the CLI's words,
        # free of the checkout's path and of a Python source line
        code, out, err = run_cli(
            capsys, "trace", "--la", "1.0", "--lb", "1.4",
            "--sweep", "alpha2=1.40:1.45:2", "--solve", "alpha1",
            "--bracket", "1.3:2.0", "--levels", "10",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert all(r[3] == "gap" for r in rows)
        assert err == (
            "warning: no regeneration root found at any grid node; the locus does "
            "not intersect the scanned bracket, or every node failed\n"
            "warning: 2 of 2 grid nodes are gaps (no_sign_change 2, failing_corner 0, solve_failure 0)\n"
        )

    def test_failing_node_is_a_gap_row(self, capsys):
        code, out, err = run_cli(
            capsys, "trace", "--sweep", "lb=1.4:1e200:2", "--solve", "alpha1",
            "--la", "1", "--a2", "1.6", "--bracket", "1.3:2.0",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert [r[3] for r in rows] == ["ok", "gap"]
        assert err == "warning: 1 of 2 grid nodes are gaps (no_sign_change 0, failing_corner 1, solve_failure 0)\n"

    def test_failed_solve_is_a_gap_row(self, capsys):
        # at tol = 0 the bracket of alpha_2 = 1.61 collapses before q_r is exactly 0
        code, out, err = run_cli(
            capsys, "trace", "--la", "1", "--lb", "1.4", "--a1", "1.5", "--a2", "1.579",
            "--sweep", "alpha2=1.55:1.67:5", "--solve", "alpha1", "--tol", "0",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert [r[3] for r in rows] == ["ok", "ok", "gap", "ok", "ok"]
        assert rows[2][:3] == ["1.6099999999999999", "nan", "nan"]
        assert err == "warning: 1 of 5 grid nodes are gaps (no_sign_change 0, failing_corner 0, solve_failure 1)\n"

    def test_table1_traces_are_pinned(self, capsys):
        # the twenty traces of the benchmark's trace-table1 workload at seed
        # 3: each Table-1 width pair, ten-level and adaptive, along 21 alpha_2
        # values from 0.0010955272231129593 above its row; the sha256 of their
        # stdout was computed at commit ddaa282, before the trace result became arrays
        digest = hashlib.sha256()
        for levels in (["--levels", "10"], []):
            for row in BENCH_ROWS:
                lo = row.alpha_2 + 0.0010955272231129593
                code, out, _ = run_cli(
                    capsys, "trace", "--sweep", f"alpha2={lo!r}:{lo + 0.1!r}:21", "--solve", "alpha1",
                    "--la", repr(row.width_a), "--lb", repr(row.width_b), *levels,
                )
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == "fcd6703e46683da43e827bc63338d59ee8f2e72e36d412eb5d32c6431de7e440"

    def test_a_trace_without_gaps_writes_no_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "trace", "--la", "1", "--lb", "1.4", "--sweep", "alpha2=1.579:1.6:2",
            "--solve", "alpha1", "--levels", "10",
        )
        assert code == 0 and err == ""
        assert [r[3] for r in csv_rows(out)[1]] == ["ok", "ok"]

    def test_exact_root_at_scan_point_is_an_ok_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--la", "1", "--lb", "1", "--sweep", "alpha2=1.9:2:2",
            "--solve", "alpha1", "--levels", "10",
        )
        assert code == 0
        assert out.splitlines()[-1] == "2,2,0,ok"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_invalid_root_tolerance_exits_1(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "trace", "--la", "1", "--lb", "1.4", "--sweep",
            "alpha2=1.579:1.6:2", "--solve", "alpha1", "--levels", "10", f"--tol={tol}",
        )
        assert code == 1
        assert out == "" and err.startswith("error: tol ")

    def test_bracket_outside_the_domain_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "trace", "--solve", "la", "--bracket=-1:2",
            "--sweep", "lb=1.2:1.4:2", "--a1", "1.5", "--a2", "1.6",
        )
        assert code == 1
        assert out == "" and "error: width_a must be positive" in err

    @pytest.mark.parametrize("levels", [[], ["--levels", "0"]])
    def test_width_solve_from_zero_words_its_first_scan_point(self, capsys, levels):
        # the scan points are checked before the cut arguments
        code, out, err = run_cli(
            capsys, "trace", "--solve", "la", "--bracket", "0:1",
            "--sweep", "lb=1.2:1.4:2", "--a1", "1.5", "--a2", "1.6", *levels,
        )
        assert (code, out, err) == (1, "", "error: width_a must be positive and finite, got 0.0\n")

    @pytest.mark.parametrize("bracket", ["1.3", "a:2", "1:2:3"])
    def test_bad_bracket_exits_2(self, capsys, bracket):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--sweep", "alpha2=1.579:1.6:2", "--solve", "alpha1", "--bracket", bracket])
        assert exc.value.code == 2
        assert f"bad bracket {bracket!r} (want lo:hi)" in capsys.readouterr().err

    def test_unknown_solve_parameter_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--sweep", "alpha2=1.579:1.6:2", "--solve", "m"])
        assert exc.value.code == 2
        assert "unknown solve parameter 'm'" in capsys.readouterr().err

    def test_width_solve_requires_bracket(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--sweep", "lb=1.0:1.4:2", "--solve", "la"])
        assert exc.value.code == 2


class TestTable1Command:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "result: PASS"
        assert sum("PASS" in ln for ln in lines[2:-1]) == 10
