import csv
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import deltaproc
from deltaproc import (
    ControlSchedule,
    ShootingError,
    dense_reference_record,
    example1,
    simulate_model,
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
)
from deltaproc.reference import PASSAGE_STEP


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


class TestDelta:
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
            problem = str(tmp_path / "data.csv")
            write_trajectories(
                problem, [dense_reference_record(example1(), 1.0, num_samples=21, step=1e-3)]
            )
        out = tmp_path / "out"
        code = main([command, "--problem", problem, f"--step={step}", "--out", str(out)])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == f"error: step must be {message}\n"
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


class TestImportCost:
    def test_scalar_paths_leave_scipy_unloaded(self, tmp_path):
        # a fresh interpreter: this test process has loaded scipy already
        data = tmp_path / "data.csv"
        record = dense_reference_record(example1(), 1.0, num_samples=201, step=1e-3)
        write_trajectories(data, [record])
        src = os.path.dirname(os.path.dirname(os.path.abspath(deltaproc.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", SCALAR_RUN, str(data), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["codes"] == [EXIT_OK] * 4
        assert result["scalar_loads_scipy"] is False
        # the double integrator's closed form: 0.114 + 2 sqrt(0.761 + 0.114^2 / 2)
        expected = 0.114 + 2.0 * np.sqrt(0.761 + 0.114**2 / 2.0)
        assert result["transfer_time"] == pytest.approx(expected, abs=1e-6)
        assert result["switches"] == 1
