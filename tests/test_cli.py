import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.linalg import expm

import deltaproc
from deltaproc import (
    ControlBounds,
    ControlSchedule,
    PiecewiseLinearModel,
    ShootingError,
    TimePartition,
    TrajectoryRecord,
    dense_reference_record,
    example1,
    fit_model,
    min_time_transfer,
    simulate_model,
    solve_partition,
    write_trajectories,
)
from deltaproc.cli import (
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
    build_parser,
    main,
    parse_args,
    read_config,
)
from deltaproc.reference import PASSAGE_STEP


def write_csv_problem(tmp_path):
    """A one-record trajectory CSV of example 1 at u = 1; returns its path."""
    path = str(tmp_path / "data.csv")
    write_trajectories(path, [dense_reference_record(example1(), 1.0, num_samples=21, step=1e-3)])
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFit:
    def test_benchmark_model_rows(self, tmp_path):
        code = main(
            [
                "fit",
                "--problem", "example1",
                "--data-control", "0.5",
                "--num-pieces", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "model.csv")
        assert len(rows) == 2
        assert float(rows[0]["A00"]) == pytest.approx(0.5, abs=1e-6)
        assert float(rows[0]["B00"]) == pytest.approx(0.5, abs=1e-6)
        assert float(rows[1]["A00"]) == pytest.approx(1.5, abs=1e-6)
        assert float(rows[1]["B00"]) == pytest.approx(-0.5, abs=1e-6)

    def test_case_name_uses_its_data(self, tmp_path):
        assert main(["fit", "--problem", "example2-case3", "--out", str(tmp_path / "c")]) == 0
        assert main(["fit", "--problem", "example1", "--out", str(tmp_path / "e")]) == 0
        rows = read_csv(tmp_path / "c" / "model.csv")
        anchors = [float(row["anchor0"]) for row in rows]
        assert anchors == pytest.approx([0.75, 1.0], abs=1e-6)
        # the case samples u = 1.0 where example1 samples u = 0.5
        assert float(rows[0]["B00"]) == pytest.approx(1.0, abs=1e-6)
        model = (tmp_path / "c" / "model.csv").read_bytes()
        assert model != (tmp_path / "e" / "model.csv").read_bytes()

    def test_case_name_solve_matches_demo(self, tmp_path, capsys):
        assert main(["solve", "--problem", "example2-case2", "--out", str(tmp_path)]) == 0
        total = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
        assert main(["demo", "example2-case2"]) == 0
        demo_total = float(capsys.readouterr().out.splitlines()[1].split()[1])
        assert total == pytest.approx(demo_total, abs=1e-4)
        assert len(read_csv(tmp_path / "model.csv")) == 4

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--data-control", "0.5"], ""),
            (["--num-pieces", "2"], ""),
            ([], "num_pieces=2\n"),
            ([], "data_control=0.9\nnum_pieces=4\n"),
        ],
    )
    def test_case_name_with_its_own_settings_rejected(self, tmp_path, capsys, flags, config):
        argv = ["fit", "--problem", "example2-case3", "--out", str(tmp_path), *flags]
        if config:
            (tmp_path / "run.cfg").write_text(config)
            argv = ["--config", str(tmp_path / "run.cfg"), *argv]
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "example2-case3 fixes its data control and checkpoints" in err
        assert not (tmp_path / "model.csv").exists()

    def test_bad_path(self, tmp_path, capsys):
        code = main(["fit", "--problem", str(tmp_path / "missing.csv")])
        assert code == EXIT_INVALID

    @pytest.mark.parametrize(
        "header, message",
        [
            ("traj_id,label,t,x0", "need at least one x and one u column"),
            ("traj_id,label,t,x0,x1,u0,dx0", "1 dx columns for 2 states"),
            (
                "traj_id,label,t,u0,x0",
                "columns ['u0', 'x0'] do not match expected ['x0', 'u0']",
            ),
        ],
    )
    def test_bad_header_names_file_and_line(self, tmp_path, capsys, header, message):
        data = tmp_path / "header.csv"
        data.write_text(header + "\n")
        code = main(["fit", "--problem", str(data), "--out", str(tmp_path)])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {data}:1: {message}\n"

    def test_repeated_sample_time_names_file_and_id(self, tmp_path, capsys):
        data = tmp_path / "repeat.csv"
        data.write_text(
            "traj_id,label,t,x0,u0\n"
            "a,positive,0.0,0.0,0.5\n"
            "a,positive,0.5,0.2,0.5\n"
            "a,positive,0.5,0.3,0.5\n"
            "a,positive,1.0,0.5,0.5\n"
        )
        code = main(["delta", "--problem", str(data), "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert f"{data}:4: id 'a' repeats sample time 0.5" in capsys.readouterr().err

    def test_single_row_record_names_file_line_and_id(self, tmp_path, capsys):
        # id b is never fitted, but a record of one row is still rejected
        data = tmp_path / "one.csv"
        data.write_text(
            "traj_id,label,t,x0,u0\n"
            "a,positive,0.0,0.0,0.5\n"
            "a,positive,0.5,0.2,0.5\n"
            "b,negative,0.0,0.1,0.5\n"
            "a,positive,1.0,0.5,0.5\n"
        )
        code = main(["delta", "--problem", str(data), "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert f"{data}:4: id 'b' has a single row" in capsys.readouterr().err

    def test_nan_sample_time_names_file_line_and_id(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        data.write_text(
            "traj_id,label,t,x0,u0\n"
            "a,positive,0.0,0.0,0.5\n"
            "a,positive,nan,0.2,0.5\n"
            "a,positive,1.0,0.5,0.5\n"
        )
        code = main(["fit", "--problem", str(data), "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert f"{data}:3: id 'a' has non-finite sample time nan" in capsys.readouterr().err

    def test_over_long_field_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text(
            "traj_id,label,t,x0,u0\n"
            "a,positive,0.0,0.0,0.5\n"
            "a,positive,1.0,0.5," + "5" * 200_000 + "\n"
        )
        code = main(["solve", "--problem", str(data), "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert f"{data}:3: field larger than field limit" in capsys.readouterr().err

    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(
            b"traj_id,label,t,x0,u0\n"
            b"a,positive,0.0,0.0,0.5\n"
            b"a\xff,positive,1.0,0.5,0.5\n"
            b"a,positive,2.0,1.0,0.5\n"
        )
        code = main(["solve", "--problem", str(data), "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {data}:3: byte 0xff is not UTF-8\n"

    def test_two_rows_without_derivatives_name_the_record(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text(
            "traj_id,label,t,x0,u0\nshort,positive,0.0,0.0,0.5\nshort,positive,1.0,0.5,0.5\n"
        )
        code = main(["fit", "--num-pieces", "1", "--problem", str(data), "--out", str(tmp_path)])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: record 'short' has 2 samples: ")
        assert "a third sample, or dx columns" in err

    @pytest.mark.parametrize("command", ["fit", "solve"])
    @pytest.mark.parametrize("nan_at, k", [(0.35, 0), (1.0, 1)])
    def test_non_finite_two_state_sample_names_its_piece(self, tmp_path, capsys, command, nan_at, k):
        data = tmp_path / "nan.csv"
        lines = ["traj_id,label,t,x0,x1,u0"]
        for t in (np.arange(21) / 20).tolist():
            x1 = "nan" if t == nan_at else repr(math.sin(t))
            lines.append(f"a,positive,{t!r},{math.cos(t)!r},{x1},0.5")
        data.write_text("\n".join(lines) + "\n")
        argv = [command, "--num-pieces", "2", "--problem", str(data), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_INVALID
        assert f"error: piece {k}: fit conditions must be finite" in capsys.readouterr().err

    def test_byte_order_mark_csv(self, tmp_path, capsys):
        data = tmp_path / "bom.csv"
        lines = ["\ufefftraj_id,label,t,x0,u0"]
        for t in np.linspace(0.0, 1.0, 9).tolist():
            lines.append(f"a,positive,{t!r},{0.8 * t!r},0.5")
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["solve", "--problem", str(data), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert "total minimal time: 0.500000" in capsys.readouterr().out

    def test_no_positive_record(self, tmp_path, capsys):
        data = tmp_path / "negative.csv"
        data.write_text(
            "traj_id,label,t,x0,u0\n"
            "a,negative,0.0,0.0,0.5\n"
            "a,negative,1.0,0.5,0.5\n"
        )
        code = main(["fit", "--problem", str(data), "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert f"{data}: no positive-labeled records to fit" in capsys.readouterr().err

    def test_single_piece_linear_csv(self, tmp_path):
        data = tmp_path / "lin.csv"
        lines = ["traj_id,label,t,x0,u0,dx0"]
        for t in np.linspace(0.0, 1.0, 5):
            lines.append(f"a,positive,{t},{2*t},1.0,2.0")
        data.write_text("\n".join(lines) + "\n")
        code = main(
            ["fit", "--problem", str(data), "--num-pieces", "1", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "model.csv")
        assert len(rows) == 1
        assert float(rows[0]["A00"]) == pytest.approx(0.0, abs=1e-9)
        assert float(rows[0]["B00"]) == pytest.approx(2.0, abs=1e-9)


    @pytest.mark.parametrize(
        "command, printed",
        [(["solve", "--num-pieces", "4"], "total minimal time: 0.500000"),
         (["delta"], "total time: 0.500000")],
    )
    def test_constant_rate_csv(self, tmp_path, capsys, command, printed):
        # estimated derivatives leave a = 5.6e-16 on each piece, not 0
        data = tmp_path / "const.csv"
        lines = ["traj_id,label,t,x0,u0"]
        for t in np.linspace(0.0, 1.0, 9).tolist():
            lines.append(f"a,positive,{t!r},{0.8 * t!r},0.5")
        data.write_text("\n".join(lines) + "\n")
        code = main(command + ["--problem", str(data), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert printed in capsys.readouterr().out


class TestDelta:
    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_rejected(self, tmp_path, capsys, delta):
        argv = ["delta", "--problem", "example1", "--delta", delta, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_INVALID
        assert capsys.readouterr().err == "error: delta must be positive and finite\n"
        assert not (tmp_path / "out").exists()

    def test_converged_run(self, tmp_path):
        code = main(
            [
                "delta",
                "--problem", "example1",
                "--data-control", "1.0",
                "--delta", "0.05",
                "--initial-n", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        trace = read_csv(tmp_path / "trace.csv")
        assert len(trace) >= 2
        totals = [float(row["total_time"]) for row in trace]
        assert abs(totals[-1] - totals[-2]) <= 0.05
        assert float(trace[-1]["gap"]) <= 0.05

    def test_budget_exhausted(self, tmp_path):
        code = main(
            [
                "delta",
                "--problem", "example1",
                "--data-control", "1.0",
                "--delta", "1e-9",
                "--max-refinements", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_NOT_CONVERGED

    def test_infeasible_bounds(self, tmp_path):
        # admissible controls are all strongly negative: the fitted pieces
        # cannot be driven up toward the goal
        code = main(
            [
                "delta",
                "--problem", "example1",
                "--data-control", "0.5",
                "--u-min", "-2.0",
                "--u-max", "-1.0",
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_INFEASIBLE

    def test_schedule_round_trip(self, tmp_path):
        main(
            [
                "delta",
                "--problem", "example1",
                "--data-control", "1.0",
                "--delta", "0.05",
                "--out", str(tmp_path),
            ]
        )
        trace = read_csv(tmp_path / "trace.csv")
        reported_total = float(trace[-1]["total_time"])
        sched_rows = read_csv(tmp_path / "schedule.csv")
        segments = tuple(
            (float(r["t_start"]), float(r["t_end"]), [float(r["u0"])]) for r in sched_rows
        )
        schedule = ControlSchedule(segments)
        assert schedule.duration == pytest.approx(reported_total, abs=1e-6)
        model_rows = read_csv(tmp_path / "model.csv") if (tmp_path / "model.csv").exists() else None
        # replay through the fitted model: re-solve to obtain it
        from deltaproc import DeltaConfig, ControlBounds, dense_reference_record, example1, run_delta

        record = dense_reference_record(example1(), 1.0)
        result = run_delta(
            record,
            DeltaConfig(delta=0.05, bounds=ControlBounds(lower=[-1], upper=[1])),
        )
        traj = simulate_model(result.final_solution.model, result.final_solution.x_start, schedule)
        assert traj.final_state[0] == pytest.approx(1.0, abs=1e-3)


class TestDemo:
    def test_example1_within_tolerance(self, capsys):
        code = main(["demo", "example1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "1.1243" in out
        assert "1.1300" in out
        assert "MISMATCH" not in out

    def test_case3(self, capsys):
        code = main(["demo", "example2-case3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "0.7361" in out
        assert "0.7400" in out

    def test_case1_flags_mismatch_without_failing(self, capsys):
        code = main(["demo", "example2-case1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "MISMATCH" in out
        assert "1.1000" in out

    def test_unknown_case(self, capsys):
        code = main(["demo", "nope"])
        assert code == EXIT_INVALID


class TestUsage:
    FLAGS = {
        "fit": {"--problem", "--data-control", "--num-pieces", "--step", "--out"},
        "solve": {
            "--problem", "--data-control", "--num-pieces", "--step", "--out",
            "--u-min", "--u-max",
        },
        "delta": {
            "--problem", "--data-control", "--delta", "--strategy", "--initial-n",
            "--max-refinements", "--u-min", "--u-max", "--step", "--out",
        },
    }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["delta", "--delta", "abc"], "invalid float value: 'abc'"),
            (["bogus"], "invalid choice: 'bogus'"),
            (["fit", "--delta", "0.3", "--strategy", "nope"], "unrecognized arguments"),
            (["solve", "--initial-n", "3"], "unrecognized arguments"),
            (["delta", "--num-pieces", "4"], "unrecognized arguments"),
        ],
    )
    def test_usage_error_exits_invalid(self, tmp_path, capsys, argv, message):
        # argparse alone would exit 2, the code of an unconverged run
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_INVALID
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["delta", "--help"]])
    def test_help_exits_ok(self, capsys, argv):
        assert main(argv) == EXIT_OK
        assert "usage: deltaproc" in capsys.readouterr().out

    def test_each_command_takes_the_flags_it_reads(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        flags = {
            name: {
                option
                for action in commands[name]._actions
                for option in action.option_strings
                if option.startswith("--") and option != "--help"
            }
            for name in self.FLAGS
        }
        assert flags == self.FLAGS
        assert sum(map(len, flags.values())) == 22

    @pytest.mark.parametrize("command", ["fit", "delta"])
    @pytest.mark.parametrize("step", ["0", "-1e-4"])
    def test_non_positive_step(self, tmp_path, capsys, command, step):
        code = main([command, "--problem", "example1", f"--step={step}", "--out", str(tmp_path)])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == "error: step must be positive\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["fit", "delta"])
    def test_negative_step_after_a_space(self, tmp_path, capsys, command):
        code = main([command, "--problem", "example1", "--step", "-1e-4", "--out", str(tmp_path)])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == "error: step must be positive\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, problem, step, message",
        [
            ("delta", "csv", "0", "positive"),
            ("fit", "csv", "-1", "positive"),
            ("solve", "csv", "inf", "finite"),
            ("fit", "example1", "inf", "finite"),
        ],
    )
    def test_bad_step_rejected_for_any_problem(
        self, tmp_path, capsys, command, problem, step, message
    ):
        # a CSV problem never samples with the step, so it is checked up front
        if problem == "csv":
            problem = write_csv_problem(tmp_path)
        out = tmp_path / "out"
        code = main([command, "--problem", problem, f"--step={step}", "--out", str(out)])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == f"error: step must be {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, problem, num_pieces",
        [
            ("solve", "csv", "-3"),
            ("fit", "csv", "0"),
            ("fit", "example1", "0"),
            ("solve", "example1", "-1"),
        ],
    )
    def test_non_positive_num_pieces(self, tmp_path, capsys, command, problem, num_pieces):
        if problem == "csv":
            problem = write_csv_problem(tmp_path)
        out = tmp_path / "out"
        argv = [command, "--problem", problem, f"--num-pieces={num_pieces}", "--out", str(out)]
        assert main(argv) == EXIT_INVALID
        assert capsys.readouterr().err == "error: num_pieces must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, problem, data_control",
        [
            ("fit", "example1", "nan"),
            ("solve", "example1", "inf"),
            ("delta", "csv", "-inf"),
            ("solve", "csv", "nan"),
        ],
    )
    def test_non_finite_data_control_rejected_for_any_problem(
        self, tmp_path, capsys, command, problem, data_control
    ):
        # a CSV problem never samples with the data control, so it is checked up front
        if problem == "csv":
            problem = write_csv_problem(tmp_path)
        out = tmp_path / "out"
        argv = [command, "--problem", problem, f"--data-control={data_control}", "--out", str(out)]
        assert main(argv) == EXIT_INVALID
        assert capsys.readouterr().err == "error: data_control must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, step", [("fit", PASSAGE_STEP), ("delta", 1e-4)])
    def test_default_step_is_the_samplers(self, tmp_path, command, step):
        # fit and solve sample checkpoints at PASSAGE_STEP; delta's dense record keeps 1e-4
        for out, flags in (("default", []), ("given", ["--step", repr(step)])):
            argv = [command, "--problem", "example1", *flags, "--out", str(tmp_path / out)]
            assert main(argv) in (EXIT_OK, EXIT_NOT_CONVERGED)
        for name in os.listdir(tmp_path / "given"):
            given = (tmp_path / "given" / name).read_bytes()
            assert (tmp_path / "default" / name).read_bytes() == given

    @pytest.mark.parametrize("value, expected", [("-1e-1", -0.1), ("-.5", -0.5), ("-2", -2.0)])
    def test_negative_value_after_a_space(self, value, expected):
        args = parse_args(["delta", "--u-min", value, "--u-max", "1e-1"])
        assert (args.u_min, args.u_max) == (expected, 0.1)


class TestConfig:
    def test_unparsable_value_names_file_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# settings\nproblem=example1\nnum_pieces=abc\n")
        assert main(["--config", str(cfg), "fit", "--out", str(tmp_path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:3: num_pieces: ")
        assert "'abc'" in err

    def test_keys_of_other_commands_accepted(self, tmp_path):
        # one config file can serve every command
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta=0.3\nstrategy=increment\nu_min=-2\nnum_pieces=2\n")
        assert main(["--config", str(cfg), "fit", "--out", str(tmp_path)]) == EXIT_OK
        assert len(read_csv(tmp_path / "model.csv")) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# run settings\n"
            "problem=example1\n"
            "data_control=0.5\n"
            "num_pieces=2\n"
            f"out={tmp_path}\n"
        )
        code = main(["--config", str(cfg), "fit", "--data-control", "1.0"])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "model.csv")
        # with u_data=1 the first piece is (0.5, 1.0), not (0.5, 0.5)
        assert float(rows[0]["B00"]) == pytest.approx(1.0, abs=1e-6)

    def test_line_without_equals_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta 0.01\n")
        assert main(["--config", str(cfg), "fit", "--out", str(tmp_path)]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {cfg}:1: expected key=value, got 'delta 0.01'\n"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # an editor's "UTF-8 with BOM" starts the file with U+FEFF
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\ufeffnum_pieces=2\n", encoding="utf-8")
        assert cfg.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert main(["--config", str(cfg), "fit", "--out", str(tmp_path)]) == EXIT_OK
        assert len(read_csv(tmp_path / "model.csv")) == 2

    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf# r\xc3\xa9glages\r\nnum_pieces=2\r\nproblem=caf\xe9.csv\r\n")
        assert main(["--config", str(cfg), "fit", "--out", str(tmp_path)]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {cfg}:3: byte 0xe9 is not UTF-8\n"

    @pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\u0085", "\u2028"])
    def test_comment_holding_a_line_separator_of_str_splitlines(self, tmp_path, separator):
        # lines end as in a trajectory CSV: only at a line feed or a carriage return
        settings = "num_pieces = 4\nproblem=example1\n"
        plain = tmp_path / "plain.cfg"
        plain.write_text("# page one page two\n" + settings, encoding="utf-8")
        marked = tmp_path / "marked.cfg"
        marked.write_text(f"# page one{separator}page two\n" + settings, encoding="utf-8")
        assert read_config(marked) == read_config(plain) == {"num_pieces": 4, "problem": "example1"}
        assert main(["--config", str(marked), "fit", "--out", str(tmp_path)]) == EXIT_OK
        assert len(read_csv(tmp_path / "model.csv")) == 4

    def test_bad_byte_after_a_next_line_comment_names_its_line(self, tmp_path, capsys):
        # U+0085 (NEXT LINE) in a comment does not end a line
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# one\u0085two\nnum_pieces=2\n".encode() + b"problem=caf\xe9.csv\n")
        assert main(["--config", str(cfg), "fit", "--out", str(tmp_path)]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {cfg}:3: byte 0xe9 is not UTF-8\n"

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code = main(["--config", str(cfg), "fit"])
        assert code == EXIT_INVALID


class TestSolverFailure:
    def test_shooting_error_exits_solver_failure(self, tmp_path, monkeypatch, capsys):
        # the input is valid; the solver failing on it is not "invalid input"
        def miss(*args, **kwargs):
            raise ShootingError("costate shooting missed the target", best_residual=0.1)

        monkeypatch.setattr("deltaproc.procedure.scalar_transfers", miss)
        code = main(["solve", "--problem", "example1", "--out", str(tmp_path)])
        assert code == EXIT_SOLVER_FAILURE == 4
        assert "solver failure" in capsys.readouterr().err


OSCILLATOR_A = np.array([[0.0, 1.0], [-1.0, -0.3]])
OSCILLATOR_B = np.array([[0.0], [1.0]])


def damped_oscillator_record(h=0.005):
    """x1' = x2, x2' = -x1 - 0.3 x2 + u for 3 s from (1, 0), sampled every h.

    u = 0.8 cos(2t) is held over each step of h, which is taken exactly
    through the augmented matrix exponential; dx is the right-hand side at
    each sample.
    """
    A, B = OSCILLATOR_A, OSCILLATOR_B[:, 0]
    t = np.linspace(0.0, 3.0, round(3.0 / h) + 1)
    u = 0.8 * np.cos(2.0 * t)
    augmented = np.zeros((3, 3))
    augmented[:2, :2], augmented[:2, 2] = A * h, B * h
    step = expm(augmented)
    x = np.empty((t.size, 2))
    x[0] = (1.0, 0.0)
    for k in range(t.size - 1):
        x[k + 1] = step[:2, :2] @ x[k] + step[:2, 2] * u[k]
    dx = x @ A.T + np.outer(u, B)
    return TrajectoryRecord(id="osc", label="positive", t=t, x=x, u=u[:, None], dx=dx)


class TestTwoStateSolve:
    def test_schedule_csv_of_a_switching_level(self, tmp_path, capsys):
        record = damped_oscillator_record()
        data = tmp_path / "osc.csv"
        write_trajectories(data, [record])
        argv = ["solve", "--problem", str(data), "--num-pieces", "2", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        total = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
        rows = read_csv(tmp_path / "schedule.csv")
        for piece in {row["piece"] for row in rows}:
            own = [row for row in rows if row["piece"] == piece]
            switches = ";".join(row["t_end"] for row in own[:-1])
            assert [row["switch_times"] for row in own] == [switches] * len(own)
        assert any(row["switch_times"] for row in rows)
        starts = [float(row["t_start"]) for row in rows]
        ends = [float(row["t_end"]) for row in rows]
        assert starts == [0.0] + ends[:-1]
        assert ends[-1] == pytest.approx(total, abs=5e-7)  # printed to 6 decimals

        # the level behind the CSV: each piece is its own transfer from the last anchor
        bounds = ControlBounds(lower=[-1.0], upper=[1.0])
        partition = TimePartition.uniform(record.t_start, record.t_end, 2)
        sol = solve_partition(record, partition, bounds)
        table = [[float(row[key]) for key in ("piece", "t_start", "t_end", "u0")] for row in rows]
        assert table == sol.chained_segments().tolist()
        assert len(sol.piece_solutions) == 2
        x_from = sol.x_start
        for got, piece in zip(sol.piece_solutions, sol.model.pieces):
            single = min_time_transfer(piece, x_from, bounds)
            assert got.transfer_time == single.transfer_time
            assert got.hamiltonian == single.hamiltonian
            assert got.psi0.psi.tolist() == single.psi0.psi.tolist()
            assert [(a, b, u.tolist()) for a, b, u in got.u_schedule.segments] == [
                (a, b, u.tolist()) for a, b, u in single.u_schedule.segments
            ]
            x_from = piece.anchor

    def test_results_do_not_depend_on_the_layout_of_A(self):
        # a column-major A used to round the A @ x products differently:
        # piece 1 at N = 2 switched at ...7386 instead of ...7917
        record = damped_oscillator_record()
        bounds = ControlBounds(lower=[-1.0], upper=[1.0])
        model = fit_model(record, TimePartition.uniform(record.t_start, record.t_end, 2))
        piece = model.pieces[1]
        solutions = []
        for A in (np.ascontiguousarray(piece.A), np.asfortranarray(piece.A)):
            layout = dataclasses.replace(piece, A=A)
            solutions.append(min_time_transfer(layout, model.anchors[0], bounds))
        fortran = PiecewiseLinearModel(
            model.partition, np.asfortranarray(model.A), np.asfortranarray(model.B), model.anchors
        )
        solutions.append(min_time_transfer(fortran.pieces[1], model.anchors[0], bounds))
        assert solutions[0].switch_times == pytest.approx((0.7308588493917387,), abs=1e-12)
        for sol in solutions[1:]:
            assert sol.transfer_time == solutions[0].transfer_time
            assert sol.switch_times == solutions[0].switch_times

    def test_two_control_columns_for_a_one_wide_box(self, tmp_path, capsys):
        # the CLI's box has one component; the data have two
        t = np.linspace(0.0, 1.0, 41)
        record = TrajectoryRecord(
            id="w", label="positive", t=t, x=np.column_stack([t, t**2]),
            u=np.column_stack([np.cos(3.0 * t), np.sin(5.0 * t)]),
        )
        data = tmp_path / "wide.csv"
        write_trajectories(data, [record])
        out = tmp_path / "out"
        assert main(["solve", "--problem", str(data), "--out", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == "error: bounds dim 1 != model input dim 2\n"
        assert "matmul" not in err
        assert not out.exists()

    @pytest.mark.parametrize("num_pieces", [2, 4, 8, 16])
    def test_transfers_no_longer_than_the_data(self, num_pieces):
        # |u| <= 0.8 < 1 in the data, which the fit reproduces exactly, so
        # the data's own control reaches every anchor within the piece's span
        record = damped_oscillator_record()
        bounds = ControlBounds(lower=[-1.0], upper=[1.0])
        partition = TimePartition.uniform(record.t_start, record.t_end, num_pieces)
        sol = solve_partition(record, partition, bounds)
        spans = np.diff(partition.knots)
        assert np.all(sol.transfer_times <= spans + 1e-9)


class TestCoarseTwoStateRecord:
    """The oscillator sampled every 0.1 s: 31 samples over 3 s.

    From N = 16 on, every piece holds fewer than n + r = 3 samples, and from
    N = 32 on, some lie inside one sampling interval.  Such a piece is fitted
    from the samples nearest it, which satisfy the plant exactly.
    """

    @pytest.mark.parametrize("num_pieces", [16, 32, 64])
    def test_every_piece_fits_the_plant(self, num_pieces):
        record = damped_oscillator_record(0.1)
        model = fit_model(record, TimePartition.uniform(0.0, 3.0, num_pieces))
        assert np.abs(model.A - OSCILLATOR_A).max() < 1e-12
        assert np.abs(model.B - OSCILLATOR_B).max() < 1e-12

    def test_solve_prints_its_total(self, tmp_path, capsys):
        data = tmp_path / "osc01.csv"
        write_trajectories(data, [damped_oscillator_record(0.1)])
        argv = ["solve", "--problem", str(data), "--num-pieces", "32", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "total minimal time: 2.827768"

    def test_totals_rise_with_the_pieces_and_stay_below_the_span(self):
        # each anchor is a state of the data, which |u| <= 0.8 < 1 reaches
        # within the piece's span; refining adds anchors on the data's path
        record = damped_oscillator_record(0.1)
        bounds = ControlBounds(lower=[-1.0], upper=[1.0])
        totals = [
            solve_partition(record, TimePartition.uniform(0.0, 3.0, 2**k), bounds).total_time
            for k in range(7)
        ]
        assert np.all(np.diff(totals) > 0.0)
        assert totals[-1] < 3.0


SCALAR_RUN = textwrap.dedent(
    """
    import json, sys
    import deltaproc
    from deltaproc import cli, reference

    data, out = sys.argv[1:]
    codes = [
        cli.main(["fit", "--problem", data, "--out", out]),
        cli.main(["solve", "--problem", data, "--out", out]),
        cli.main(["delta", "--problem", data, "--delta", "0.01", "--out", out]),
        cli.main(["demo", "example1"]),
    ]
    plant = reference.example1()
    record = reference.sample_reference(plant, 1.0, (0.0, 0.5, 1.0), step=1e-3)
    reference.dense_reference_record(plant, 1.0, step=1e-3)
    reference.brute_force_min_time(plant, step=1e-3)
    model = deltaproc.fit_model(record, deltaproc.TimePartition(record.t))
    reference.brute_force_min_time(model, plant.bounds, x_start=[0.0])
    solution = deltaproc.solve_partition(record, model.partition, plant.bounds)
    deltaproc.simulate_model(model, record.x[0], solution.schedule)
    scalar_loads_scipy = "scipy" in sys.modules
    piece = deltaproc.LinearPiece(
        A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], t_start=0.0, t_end=1.0,
        anchor=[0.0, 0.0],
    )
    bounds = deltaproc.ControlBounds(lower=[-1.0], upper=[1.0])
    sol = deltaproc.min_time_transfer(piece, [0.761, 0.114], bounds)
    print(json.dumps({
        "codes": codes,
        "scalar_loads_scipy": scalar_loads_scipy,
        "transfer_time": sol.transfer_time,
        "switches": len(sol.switch_times),
    }))
    """
)


SWITCHING_RUN = textwrap.dedent(
    """
    import json, sys
    import deltaproc

    piece = deltaproc.LinearPiece(
        A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], t_start=0.0, t_end=1.0,
        anchor=[0.0, 0.0],
    )
    bounds = deltaproc.ControlBounds(lower=[-1.0], upper=[1.0])
    sol = deltaproc.min_time_transfer(piece, [0.5, 0.5], bounds)
    print(json.dumps({
        "switches": len(sol.switch_times),
        "loads_scipy_linalg": "scipy.linalg" in sys.modules,
        "loads_scipy_optimize": "scipy.optimize" in sys.modules,
    }))
    """
)


def fresh_env():
    """The environment of a fresh interpreter that imports this deltaproc."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(deltaproc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_fresh(script, *args):
    """The last output line of ``script`` in a fresh interpreter, as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=fresh_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solve", "--problem", "example1"], EXIT_OK),
            (["delta", "--problem", "example1", "--max-refinements", "1"], EXIT_NOT_CONVERGED),
            (["demo", "example1"], EXIT_OK),
        ],
    )
    def test_a_closed_stdout_keeps_the_exit_code(self, tmp_path, argv, code):
        # as `deltaproc solve | head -0`: the reader is gone before the first line
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "deltaproc.cli", *argv],
                cwd=tmp_path, env=fresh_env(), stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (code, b"")


class TestImportCost:
    def test_scalar_paths_leave_scipy_unloaded(self, tmp_path):
        # a fresh interpreter: this test process has loaded scipy already
        data = tmp_path / "data.csv"
        record = dense_reference_record(example1(), 1.0, num_samples=201, step=1e-3)
        write_trajectories(data, [record])
        result = run_fresh(SCALAR_RUN, str(data), str(tmp_path / "out"))
        assert result["codes"] == [EXIT_OK] * 4
        assert result["scalar_loads_scipy"] is False
        # the double integrator's closed form: 0.114 + 2 sqrt(0.761 + 0.114^2 / 2)
        expected = 0.114 + 2.0 * np.sqrt(0.761 + 0.114**2 / 2.0)
        assert result["transfer_time"] == pytest.approx(expected, abs=1e-6)
        assert result["switches"] == 1

    def test_switching_transfer_leaves_scipy_unloaded(self):
        # the arc-duration solve and expm are in-house
        result = run_fresh(SWITCHING_RUN)
        assert result == {
            "switches": 1, "loads_scipy_linalg": False, "loads_scipy_optimize": False,
        }
