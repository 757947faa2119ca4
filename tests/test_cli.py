import pytest

from fracstirling.cli import main


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
        # alpha1 >= alpha2 triggers the forward-convention warning
        assert "alpha1" in err and "warning" in err

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
