import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracstirling.cli import main
from fracstirling.solver import MAX_NODES

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

    def test_byte_identical_reruns(self, capsys):
        args = ("cycle", "--la", "0.8", "--lb", "1.1", "--a1", "1.3", "--a2", "1.7")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_computational_failure_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "cycle", "--la", "3e7", "--lb", "3e7",
            "--a1", "1.05", "--a2", "1.06",
        )
        assert code == 1
        assert "error" in err

    def test_unrepresentable_level_scale_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "cycle", "--la", "1e-200")
        assert code == 1
        assert out == "" and "error: energy levels" in err

    @pytest.mark.parametrize(
        "argv, code, error",
        [
            (("--la", "1e-302", "--a1", "1.01", "--a2", "1.02"), 1, "error: energy levels"),
            # T < 1 with levels near the float maximum: one row, no warning
            (("--la", "1e-303", "--lb", "1e-303", "--a1", "1.01", "--a2", "1.011",
              "--th", "0.2", "--tc", "0.1"), 0, None),
            # E_1 underflows to 0: the cut is infinite and no level is computed
            (("--la", "1e200", "--lb", "1e200"), 1, "error: partition sum"),
            # level spacings near 1e200: (E_n - E_1)^2 would overflow in C
            (("--la", "1e-100", "--lb", "2e-100", "--th", "1e200", "--tc", "5e199"),
             0, None),
        ],
        ids=["overflow", "below-unit-temperature", "underflow", "heat-capacity"],
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


class TestSweepCommand:
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
        with pytest.warns(UserWarning):
            code, out, _ = run_cli(
                capsys, "trace", "--la", "1.0", "--lb", "1.4",
                "--sweep", "alpha2=1.40:1.45:2", "--solve", "alpha1",
                "--bracket", "1.3:2.0", "--levels", "10",
            )
        assert code == 0
        _, rows = csv_rows(out)
        assert all(r[3] == "gap" for r in rows)

    def test_failing_node_is_a_gap_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--sweep", "lb=1.4:3e7:2", "--solve", "alpha1",
            "--la", "1", "--a2", "1.6", "--bracket", "1.3:2.0",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert [r[3] for r in rows] == ["ok", "gap"]

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
