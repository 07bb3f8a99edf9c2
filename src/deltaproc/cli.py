"""Command-line front end: fit models, run solves and refinement, demo cases.

Configuration is a flat key=value file; a command's flags, named after the
keys it reads, override it.  Exit codes: 0 success (or converged), 1 invalid
input or usage, 2 refinement budget exhausted before convergence,
3 infeasible transfer, 4 solver failure (shooting missed or the state
diverged) on valid input.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from .dynamics import ControlBounds, TimePartition, check_step
from .errors import (
    DeltaProcError,
    DivergenceError,
    InfeasibilityReport,
    InfeasibleTransferError,
    ShootingError,
)
from .fitting import POSITIVE, fit_model, ingest_trajectories, read_lines
from .procedure import (
    DeltaConfig,
    run_delta,
    solve_partition,
)
from .reference import (
    BENCHMARK_CASES,
    dense_reference_record,
    example1,
    sample_reference,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_CONVERGED = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER_FAILURE = 4

# Demo rows whose computed/reference difference exceeds this are flagged.
DEMO_FLAG_TOL = 0.01

# Each setting: its type, its default and the commands that take it as a
# flag.  A config file may set any of them, since one file can serve several
# commands.
SETTINGS = {
    "problem": (str, "example1", ("fit", "solve", "delta")),
    "data_control": (float, 0.5, ("fit", "solve", "delta")),
    "num_pieces": (int, 2, ("fit", "solve")),
    "delta": (float, 0.05, ("delta",)),
    "strategy": (str, "double", ("delta",)),
    "initial_n": (int, 2, ("delta",)),
    "max_refinements": (int, 8, ("delta",)),
    "u_min": (float, -1.0, ("solve", "delta")),
    "u_max": (float, 1.0, ("solve", "delta")),
    # None leaves the grid step to the sampler's own default
    "step": (float, None, ("fit", "solve", "delta")),
    "out": (str, ".", ("fit", "solve", "delta")),
}


def read_config(path):
    """The settings of a flat ``key=value`` file, each parsed to its type.

    Lines end and are skipped as a trajectory CSV's are (:func:`read_lines`).
    A bad line raises ``ValueError`` naming the file and the line.
    """
    cfg = {}
    for line, lineno in zip(*read_lines(path)):
        stripped = line.strip()
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            cfg[key] = SETTINGS[key][0](value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return cfg


def build_parser():
    parser = argparse.ArgumentParser(
        prog="deltaproc",
        description="Piecewise-linear minimal-time control from trajectory data",
    )
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("fit", "fit a piecewise-linear model and write model.csv"),
        ("solve", "solve one partition and write schedule.csv"),
        ("delta", "run partition refinement; write trace.csv and schedule.csv"),
    ):
        p = sub.add_parser(name, help=helptext)
        for key, (typ, _, commands) in SETTINGS.items():
            if name in commands:
                p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ, default=None)
    demo = sub.add_parser("demo", help="reproduce a benchmark case and compare totals")
    demo.add_argument("name", help="benchmark case name, e.g. example1 or example2-case3")
    return parser


def parse_args(argv):
    """Parse ``argv`` with :func:`build_parser`, negative values included.

    argparse takes only plain negative decimals such as ``-2.0`` for values
    and reads ``-1e-4`` as an option, so a negative number after a flag is
    attached to it as ``--flag=-1e-4`` first.
    """
    value_flags = {"--config"} | {f"--{key.replace('_', '-')}" for key in SETTINGS}
    joined = []
    for arg in argv:
        if joined and joined[-1] in value_flags and re.match(r"-\.?\d", arg):
            joined[-1] = f"{joined[-1]}={arg}"
        else:
            joined.append(arg)
    return build_parser().parse_args(joined)


def resolve_settings(args):
    """Defaults, then the config file, then the flags.

    A benchmark case other than ``example1`` as the problem brings its own
    data control and checkpoints, so giving either as well is an error.  A
    given step and data control are checked here, since a CSV problem never
    samples with them, and the piece count once a case has set its own.
    """
    given = read_config(args.config) if args.config else {}
    for key in SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            given[key] = value
    settings = {key: default for key, (_, default, _) in SETTINGS.items()}
    settings.update(given)
    if settings["step"] is not None:
        check_step(settings["step"])
    if not np.isfinite(settings["data_control"]):
        raise ValueError("data_control must be finite")
    case = BENCHMARK_CASES.get(settings["problem"])
    if case is not None and case.name != "example1":
        clash = [key for key in ("data_control", "num_pieces") if key in given]
        if clash:
            raise ValueError(
                f"problem {case.name} fixes its data control and checkpoints; "
                f"remove {' and '.join(clash)} from the flags and the config"
            )
        settings["data_control"] = case.u_data
        settings["num_pieces"] = len(case.checkpoints) - 1
    if settings["num_pieces"] < 1:
        raise ValueError("num_pieces must be >= 1")
    return settings


def _bounds(settings):
    return ControlBounds(lower=[settings["u_min"]], upper=[settings["u_max"]])


def _partition(record, settings):
    """The record's own sample times when they give num_pieces pieces, else uniform."""
    if record.t.size == settings["num_pieces"] + 1:
        return TimePartition(record.t)
    return TimePartition.uniform(record.t_start, record.t_end, settings["num_pieces"])


def _load_record(settings, dense):
    """Built-in reference data or the first positive record of a CSV file.

    ``example1`` samples the plant at ``num_pieces + 1`` evenly spaced
    states; another benchmark case samples it at its own checkpoints.  A
    given ``step`` replaces the sampler's default grid step.
    """
    problem_src = settings["problem"]
    if problem_src in BENCHMARK_CASES:
        problem = example1()
        u_data = settings["data_control"]
        step = {} if settings["step"] is None else {"step": settings["step"]}
        if dense:
            return dense_reference_record(problem, u_data, **step)
        if problem_src == "example1":
            checkpoints = np.linspace(
                float(problem.x_start[0]), float(problem.x_goal[0]), settings["num_pieces"] + 1
            )
        else:
            checkpoints = BENCHMARK_CASES[problem_src].checkpoints
        return sample_reference(problem, u_data, checkpoints, **step)
    path = Path(problem_src)
    if not path.exists():
        raise FileNotFoundError(f"no such trajectory file or built-in problem: {problem_src}")
    records = ingest_trajectories(path)
    positives = [rec for rec in records if rec.label == POSITIVE]
    if not positives:
        raise ValueError(f"{problem_src}: no positive-labeled records to fit")
    return positives[0]


def write_model_csv(path, model):
    n, r = model.n, model.r
    header = (
        ["k", "t_start", "t_end"]
        + [f"A{i}{j}" for i in range(n) for j in range(n)]
        + [f"B{i}{j}" for i in range(n) for j in range(r)]
        + [f"anchor{i}" for i in range(n)]
    )
    knots, N = model.partition.knots[:, None], model.partition.num_pieces
    params = np.hstack([model.A.reshape(N, -1), model.B.reshape(N, -1), model.anchors])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, row in enumerate(np.hstack([knots[:-1], knots[1:], params]).tolist()):
            writer.writerow([k, *map(repr, row)])


def write_schedule_csv(path, solution):
    """One row per segment on one clock from 0, with its piece's switch times.

    A piece's switch times are the ends of its segments except the last.
    """
    r = solution.model.r
    header = ["piece", "t_start", "t_end"] + [f"u{i}" for i in range(r)] + ["switch_times"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, rows in groupby(solution.chained_segments().tolist(), key=itemgetter(0)):
            rows = list(rows)
            switches = ";".join(repr(end) for (_, _, end, *_) in rows[:-1])
            for (_, a, b, *u) in rows:
                writer.writerow([int(k), repr(a), repr(b)] + [repr(v) for v in u] + [switches])


def write_trace_csv(path, trace):
    header = ["m", "N_m", "total_time", "mean_hamiltonian", "hamiltonian_deviation", "gap"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for entry in trace:
            writer.writerow(
                [
                    entry.m,
                    entry.num_pieces,
                    repr(float(entry.total_time)),
                    repr(float(entry.eq_mean_score)),
                    repr(float(entry.eq_deviation_score)),
                    "" if np.isnan(entry.gap) else repr(float(entry.gap)),
                ]
            )


def _report(line):
    """Print a summary line; a reader that closed stdout is not an input error.

    On a broken pipe, stdout is pointed at os.devnull, so the rest of the
    output and the flush at exit are dropped, and the command returns its
    own exit code.
    """
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_fit(settings):
    record = _load_record(settings, dense=False)
    model = fit_model(record, _partition(record, settings))
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_model_csv(out / "model.csv", model)
    _report(f"wrote {out / 'model.csv'} ({model.partition.num_pieces} pieces)")
    return EXIT_OK


def _solve(settings):
    record = _load_record(settings, dense=False)
    return solve_partition(record, _partition(record, settings), _bounds(settings))


def cmd_solve(settings):
    solution = _solve(settings)
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_model_csv(out / "model.csv", solution.model)
    write_schedule_csv(out / "schedule.csv", solution)
    _report(f"total minimal time: {solution.total_time:.6f}")
    _report(f"wrote {out / 'model.csv'} and {out / 'schedule.csv'}")
    return EXIT_OK


def cmd_delta(settings):
    # the settings are checked before the record is sampled
    config = DeltaConfig(
        delta=settings["delta"],
        bounds=_bounds(settings),
        initial_N=settings["initial_n"],
        max_refinements=settings["max_refinements"],
        strategy=settings["strategy"],
    )
    record = _load_record(settings, dense=True)
    result = run_delta(record, config)
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out / "trace.csv", result.trace)
    write_schedule_csv(out / "schedule.csv", result.final_solution)
    last = result.trace[-1]
    _report(
        f"refinements: {last.m}, pieces: {last.num_pieces}, "
        f"total time: {last.total_time:.6f}, converged: {result.converged}"
    )
    _report(f"wrote {out / 'trace.csv'} and {out / 'schedule.csv'}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_demo(name):
    if name not in BENCHMARK_CASES:
        print(f"unknown benchmark case {name!r}; choices: {sorted(BENCHMARK_CASES)}", file=sys.stderr)
        return EXIT_INVALID
    case = BENCHMARK_CASES[name]
    # the settings of `solve --problem NAME`; demo reads no config file
    solution = _solve(resolve_settings(argparse.Namespace(config=None, problem=name)))
    diff = abs(solution.total_time - case.reported_total)
    flag = "MISMATCH" if diff > DEMO_FLAG_TOL else "ok"
    _report(f"{'case':<18}{'computed':>12}{'reference':>12}{'|diff|':>10}  status")
    _report(
        f"{case.name:<18}{solution.total_time:>12.4f}{case.reported_total:>12.4f}"
        f"{diff:>10.4f}  {flag}"
    )
    if flag == "MISMATCH":
        _report(
            f"note: recomputed total {solution.total_time:.4f} disagrees with the "
            f"reference figure {case.reported_total}; the computed value is reported as is."
        )
    return EXIT_OK


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means "not converged"
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        if args.command == "demo":
            return cmd_demo(args.name)
        command = {"fit": cmd_fit, "solve": cmd_solve, "delta": cmd_delta}[args.command]
        return command(resolve_settings(args))
    except (InfeasibleTransferError, InfeasibilityReport) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ShootingError, DivergenceError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except (DeltaProcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
