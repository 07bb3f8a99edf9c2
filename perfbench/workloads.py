"""The benchmark's three workloads.

Each workload builds its inputs from a seed in ``setup``, pays first-call
costs in ``warm_up`` and then runs the same task list in every
``run_round``.  A round returns one outcome per task; ``check`` compares the
outcomes with the independent computations of :mod:`checks`.  The program
is always called through its module attributes, so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import math
import os
import random

from deltaproc import cli, dynamics, fitting, pontryagin, procedure, reference
from deltaproc.errors import ShootingError

import checks


class DeltaCsv:
    """``deltaproc delta`` in-process on seeded CSVs of the example-1 plant.

    One record per (control band, sample count) with the control drawn from
    the band, plus a fixed record at u = 1 whose final total under ``double``
    must approach pi/4.  Each record is solved at two deltas under both
    refinement strategies.
    """

    CONTROL_BANDS = ((0.5, 2.0 / 3.0), (2.0 / 3.0, 5.0 / 6.0), (5.0 / 6.0, 1.0))
    SAMPLE_COUNTS = (501, 2001, 8001)
    PI_RECORD = (1.0, 2001)
    DELTAS = (0.01, 0.001)
    STRATEGIES = ("double", "increment")
    # Enough levels for every seeded record to close its gap at delta = 0.001.
    MAX_REFINEMENTS = 16
    # RK4 step for generating the data; the checks read the samples back, so
    # generation accuracy only matters for the pi/4 check.
    GEN_STEP = 1e-3

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.records = [
            (lo + (hi - lo) * rng.random(), count)
            for lo, hi in self.CONTROL_BANDS
            for count in self.SAMPLE_COUNTS
        ] + [self.PI_RECORD]
        self.workdir = workdir
        self.tasks = []
        self._samples = {}

    def setup(self):
        problem = reference.example1()
        for i, (u, count) in enumerate(self.records):
            record = reference.dense_reference_record(
                problem, u, num_samples=count, step=self.GEN_STEP
            )
            path = os.path.join(self.workdir, f"record{i}.csv")
            fitting.write_trajectories(path, [record])
            near = (math.pi / 4.0, 0.02) if (u, count) == self.PI_RECORD else None
            for strategy in self.STRATEGIES:
                for delta in self.DELTAS:
                    out = os.path.join(self.workdir, f"out{len(self.tasks)}")
                    argv = [
                        "delta", "--problem", path, "--delta", repr(delta),
                        "--strategy", strategy,
                        "--max-refinements", str(self.MAX_REFINEMENTS), "--out", out,
                    ]
                    self.tasks.append(
                        (argv, path, out, strategy, delta, near if strategy == "double" else None)
                    )

    def warm_up(self):
        # every task of the first record, the smallest
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for task in self.tasks[: len(self.DELTAS) * len(self.STRATEGIES)]:
                cli.main(task[0])

    def run_round(self):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return [cli.main(task[0]) for task in self.tasks]

    def check(self, outcomes):
        errors = []
        for code, (argv, path, out, strategy, delta, near) in zip(outcomes, self.tasks):
            trace, durations = [], []
            if code == cli.EXIT_OK:
                trace = checks.read_trace(os.path.join(out, "trace.csv"))
                durations = checks.read_schedule_durations(os.path.join(out, "schedule.csv"))
            if path not in self._samples:
                self._samples[path] = checks.read_samples(path)
            found = checks.check_delta_run(
                code, trace, durations, self._samples[path], strategy, delta, near
            )
            errors.extend(f"{' '.join(argv)}: {e}" for e in found)
        return errors

    @staticmethod
    def failed(outcome):
        # an exit code other than 0 is a wrong answer, reported by check()
        return False


class VerifyCases:
    """Sample, solve, oracle and replay one benchmark case; oracle on the plant.

    The case is fixed (a round over all five cases takes about a minute); the
    seed only orders the two tasks.
    """

    CASES = ("example1",)

    def __init__(self, seed, workdir):
        self.tasks = [("case", name) for name in self.CASES] + [("plant", "example1")]
        random.Random(seed).shuffle(self.tasks)

    def setup(self):
        self.problem = reference.example1()

    def warm_up(self):
        case = reference.BENCHMARK_CASES["example1"]
        record = reference.sample_reference(self.problem, case.u_data, case.checkpoints[:2])
        solution = procedure.solve_partition(
            record, dynamics.TimePartition(record.t), self.problem.bounds
        )
        dynamics.simulate_model(solution.model, record.x[0], solution.schedule)

    def _case(self, name):
        case = reference.BENCHMARK_CASES[name]
        record = reference.sample_reference(self.problem, case.u_data, case.checkpoints)
        solution = procedure.solve_partition(
            record, dynamics.TimePartition(record.t), self.problem.bounds
        )
        oracle = reference.brute_force_min_time(
            solution.model, self.problem.bounds, x_start=record.x[0]
        )
        replay = dynamics.simulate_model(solution.model, record.x[0], solution.schedule)
        return solution, oracle, replay

    def run_round(self):
        return [
            self._case(name) if kind == "case" else reference.brute_force_min_time(self.problem)
            for kind, name in self.tasks
        ]

    def check(self, outcomes):
        errors = []
        for (kind, name), outcome in zip(self.tasks, outcomes):
            if kind == "plant":
                errors += checks.check_near(outcome, math.pi / 4.0, 1e-3, "plant oracle")
                continue
            solution, oracle, replay = outcome
            case = reference.BENCHMARK_CASES[name]
            segments = [(a, b, float(u[0])) for a, b, u in solution.schedule.segments]
            errors += [
                f"{name}: {e}"
                for e in checks.check_case(
                    case.u_data, case.checkpoints, solution.total_time, oracle,
                    segments, float(replay.x[-1][0]),
                )
            ]
        return errors

    @staticmethod
    def failed(outcome):
        return False


class Shoot2d:
    """Costate shooting on n = 2 pieces with |u| <= 1 and the anchor at 0.

    Per round: one seeded double-integrator state, one seeded oscillator
    state, and the double-integrator state (-0.681, 1.154), on which
    ``min_time_transfer`` raises ShootingError although its optimum is
    T = 1.1671.  The solver misses states whose first bang arc is much
    shorter than its scan step: states just off a curve from which one arc
    reaches the origin, such as (-0.412, 0.891) on the double integrator and
    (-0.953, 0.997) on the oscillator.  So that failures do not depend on the
    seed, seeded states keep MIN_RADIUS from the origin and SWITCH_MARGIN from
    those curves: x1 = -x2 |x2| / 2 (measured in x1) and the unit circles
    about (+-1, 0) (measured in radius).
    """

    PLANTS = {
        "double_integrator": [[0.0, 1.0], [0.0, 0.0]],
        "oscillator": [[0.0, 1.0], [-1.0, 0.0]],
    }
    FAILING_STATE = (-0.681, 1.154)
    WARM_UP_STATE = (0.5, 0.5)
    SWITCH_MARGIN = 0.1
    MIN_RADIUS = 0.2

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.tasks = [
            ("double_integrator", self._draw(rng, "double_integrator")),
            ("oscillator", self._draw(rng, "oscillator")),
            ("double_integrator", self.FAILING_STATE),
        ]

    def _draw(self, rng, plant):
        while True:
            x1, x2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            if plant == "double_integrator":
                offsets = [x1 + x2 * abs(x2) / 2.0]
            else:
                offsets = [math.hypot(x1 - c, x2) - 1.0 for c in (-1.0, 1.0)]
            clear = min(map(abs, offsets)) >= self.SWITCH_MARGIN
            if clear and math.hypot(x1, x2) >= self.MIN_RADIUS:
                return (x1, x2)

    def setup(self):
        self.bounds = dynamics.ControlBounds(lower=[-1.0], upper=[1.0])
        self.pieces = {
            plant: dynamics.LinearPiece(
                A=A, B=[[0.0], [1.0]], t_start=0.0, t_end=1.0, anchor=[0.0, 0.0]
            )
            for plant, A in self.PLANTS.items()
        }

    def warm_up(self):
        pontryagin.min_time_transfer(
            self.pieces["double_integrator"], list(self.WARM_UP_STATE), self.bounds
        )

    def run_round(self):
        outcomes = []
        for plant, x0 in self.tasks:
            try:
                outcomes.append(
                    pontryagin.min_time_transfer(self.pieces[plant], list(x0), self.bounds)
                )
            except ShootingError as exc:
                outcomes.append(exc)
        return outcomes

    def check(self, outcomes):
        errors = []
        for (plant, x0), sol in zip(self.tasks, outcomes):
            if isinstance(sol, ShootingError):
                continue
            segments = [(a, b, float(u[0])) for a, b, u in sol.u_schedule.segments]
            errors += [
                f"{plant} from {x0}: {e}"
                for e in checks.check_transfer(plant, x0, sol.transfer_time, segments)
            ]
        return errors

    @staticmethod
    def failed(outcome):
        return isinstance(outcome, ShootingError)


WORKLOADS = {"delta_csv": DeltaCsv, "verify_cases": VerifyCases, "shoot_2d": Shoot2d}
