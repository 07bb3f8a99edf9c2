import numpy as np
import pytest

from deltaproc import (
    ControlBounds,
    ControlSchedule,
    DimensionMismatchError,
    DivergenceError,
    GenerationError,
    InfeasibilityReport,
    LinearPiece,
    PiecewiseLinearModel,
    TimePartition,
    brute_force_min_time,
    dense_reference_record,
    example1,
    fit_model,
    ingest_trajectories,
    integrate,
    sample_reference,
    solve_partition,
    write_trajectories,
)
from deltaproc import dynamics, reference
from deltaproc.reference import PASSAGE_CHUNK, PASSAGE_STEP, ReferenceProblem
from deltaproc.reference import _RK4_BLOCK, BENCHMARK_CASES, CHECKPOINT_TOL

UNIT_BOUNDS = ControlBounds(lower=[-1.0], upper=[1.0])


def scalar_model(*pieces):
    """Model of scalar pieces (a, b, anchor) on unit subintervals."""
    return PiecewiseLinearModel(
        tuple(
            LinearPiece(A=[[a]], B=[[b]], t_start=k, t_end=k + 1.0, anchor=[anchor])
            for k, (a, b, anchor) in enumerate(pieces)
        ),
        TimePartition(np.arange(len(pieces) + 1.0)),
    )


def closed_form_time(a, b, x0, xf, t_max=10.0):
    """Minimal time of dx/dt = a x + b u, a != 0, |u| <= 1, from x0 to xf, or None.

    Under a constant u the state moves monotonically, so each vertex either
    reaches xf at T = ln((a xf + d)/(a x0 + d))/a with d = b u, or never.
    """
    times = []
    for u in (-1.0, 1.0):
        d = b * u
        ratio = (a * xf + d) / (a * x0 + d)
        if ratio > 0.0:
            t = np.log(ratio) / a
            if 0.0 < t <= t_max:
                times.append(t)
    return min(times) if times else None


class TestExample1:
    def test_known_optimum_reaches_goal(self):
        problem = example1()
        desc, t_opt = problem.known_optimum
        assert t_opt == pytest.approx(np.pi / 4.0)
        schedule = ControlSchedule.constant([1.0], 0.0, t_opt)
        traj = integrate(lambda t, x, u: problem.rhs(x, u), problem.x_start, schedule, step=1e-4)
        assert traj.final_state[0] == pytest.approx(1.0, abs=1e-5)

    def test_weaker_control_is_slower(self):
        problem = example1()
        schedule = ControlSchedule.constant([0.5], 0.0, np.pi / 4.0)
        traj = integrate(lambda t, x, u: problem.rhs(x, u), problem.x_start, schedule, step=1e-4)
        assert traj.final_state[0] < 1.0

    def test_divergence_past_pole(self):
        problem = example1()
        schedule = ControlSchedule.constant([1.0], 0.0, 1.6)
        with pytest.raises(DivergenceError):
            integrate(lambda t, x, u: problem.rhs(x, u), problem.x_start, schedule, step=1e-4)


class TestSampleReference:
    def test_example1_derivatives(self):
        record = sample_reference(example1(), 0.5, (0.0, 0.5, 1.0))
        np.testing.assert_allclose(record.dx[:, 0], [0.25, 0.5, 1.25], atol=1e-8)
        np.testing.assert_allclose(record.x[:, 0], [0.0, 0.5, 1.0], atol=1e-8)
        assert record.label == "positive"

    def test_five_checkpoint_derivatives(self):
        record = sample_reference(example1(), 0.9, (0.0, 0.25, 0.5, 0.75, 1.0))
        np.testing.assert_allclose(
            record.dx[:, 0], [0.81, 0.8725, 1.06, 1.3725, 1.81], atol=1e-8
        )

    def test_endpoint_derivatives(self):
        record = sample_reference(example1(), 1.0, (0.0, 1.0))
        np.testing.assert_allclose(record.dx[:, 0], [1.0, 2.0], atol=1e-8)

    def test_derivatives_match_rhs_exactly(self):
        problem = example1()
        record = sample_reference(problem, 0.5, (0.0, 0.5, 1.0))
        for i in range(record.t.size):
            expected = problem.rhs(record.x[i], record.u[i])
            assert record.dx[i, 0] == pytest.approx(float(expected[0]), abs=1e-10)

    def test_unreachable_checkpoint(self):
        with pytest.raises(GenerationError):
            sample_reference(example1(), 0.5, (-0.5,), t_max=1.0)

    def test_csv_round_trip(self, tmp_path):
        record = sample_reference(example1(), 0.5, (0.0, 0.5, 1.0))
        path = tmp_path / "ref.csv"
        write_trajectories(path, [record])
        back = ingest_trajectories(path)[0]
        np.testing.assert_allclose(back.t, record.t)
        np.testing.assert_allclose(back.x, record.x)
        np.testing.assert_allclose(back.dx, record.dx)


class TestBruteForce:
    def test_direct_grid_near_quarter_pi(self):
        best = brute_force_min_time(example1(), step=1e-4)
        assert best == pytest.approx(np.pi / 4.0, abs=2e-3)

    def test_fitted_model_vertex_search(self):
        problem = example1()
        record = sample_reference(problem, 0.5, (0.0, 0.5, 1.0))
        model = fit_model(record, TimePartition(record.t))
        best = brute_force_min_time(model, problem.bounds, x_start=[0.0])
        expected = 2.0 * np.log(1.5) + (2.0 / 3.0) * np.log(1.6)
        assert best == pytest.approx(expected, abs=1e-3)

    def test_pmp_bounded_by_oracle(self):
        problem = example1()
        record = sample_reference(problem, 1.0, (0.0, 0.5, 1.0))
        partition = TimePartition(record.t)
        sol = solve_partition(record, partition, problem.bounds)
        oracle = brute_force_min_time(sol.model, problem.bounds, x_start=[0.0])
        assert sol.total_time <= oracle + 1e-3

    def test_infeasibility_report(self):
        # positive-only drift can never reach a goal below the start
        def rhs(x, u):
            return np.atleast_1d(x) ** 2 + np.atleast_1d(u) ** 2 + 0.01

        problem = ReferenceProblem(
            name="drift-up",
            rhs=rhs,
            bounds=example1().bounds,
            x_start=np.array([0.0]),
            x_goal=np.array([-1.0]),
        )
        with pytest.raises(InfeasibilityReport):
            brute_force_min_time(problem, step=1e-3, t_max=1.0)

    def test_grid_needs_enough_levels(self):
        with pytest.raises(ValueError):
            brute_force_min_time(example1(), levels=10)


class TestAffineFirstPassage:
    def test_random_scalar_pieces_match_closed_form(self):
        rng = np.random.default_rng(20261018)
        reached = missed = 0
        for _ in range(300):
            a = float(rng.uniform(-2.0, 2.0))
            b = float(rng.uniform(0.1, 2.0)) * float(rng.choice([-1.0, 1.0]))
            x0, xf = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
            expected = closed_form_time(a, b, x0, xf)
            if expected is not None and abs(expected - 10.0) < 1e-3:
                continue  # too close to t_max to say which side it falls
            model = scalar_model((a, b, xf))
            if expected is None:
                with pytest.raises(InfeasibilityReport):
                    brute_force_min_time(model, UNIT_BOUNDS, x_start=[x0])
                missed += 1
            else:
                oracle = brute_force_min_time(model, UNIT_BOUNDS, x_start=[x0])
                assert oracle == pytest.approx(expected, rel=0.0, abs=1e-9)
                reached += 1
        assert reached > 100 and missed > 10

    @pytest.mark.parametrize("a", [0.0, 1e-14, -1e-14])
    def test_zero_and_tiny_drift(self, a):
        # T = (xf - x0)/b up to a*T^2, far below the tolerance
        model = scalar_model((a, 2.0, 0.75))
        oracle = brute_force_min_time(model, UNIT_BOUNDS, x_start=[-0.5])
        assert oracle == pytest.approx(0.625, rel=0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "a, b, x0, xf",
        [
            (5.0, 10.0, 1.0, 0.2),  # u = +1 diverges past BLOWUP_LIMIT
            (-1.0, 1.0, 0.0, 0.5),  # u = -1 settles at -1, away from the goal
        ],
    )
    def test_one_vertex_misses(self, a, b, x0, xf):
        oracle = brute_force_min_time(scalar_model((a, b, xf)), UNIT_BOUNDS, x_start=[x0])
        assert oracle == pytest.approx(closed_form_time(a, b, x0, xf), rel=0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "a, b, x0, xf",
        [
            (-1.0, 1.0, 0.0, 2.0),  # both equilibria, -1 and +1, lie below the goal
            (5.0, 0.1, 1.0, 0.5),  # both vertices diverge upwards
        ],
    )
    def test_all_vertices_miss(self, a, b, x0, xf):
        with pytest.raises(InfeasibilityReport):
            brute_force_min_time(scalar_model((a, b, xf)), UNIT_BOUNDS, x_start=[x0])

    def test_passage_after_t_max(self):
        # the last grid step ends at t_max, not at the next multiple of step
        model = scalar_model((0.0, 1.0, 1.95))
        with pytest.raises(InfeasibilityReport):
            brute_force_min_time(model, UNIT_BOUNDS, x_start=[0.0], step=0.25, t_max=1.9)
        oracle = brute_force_min_time(model, UNIT_BOUNDS, x_start=[0.0], step=0.25, t_max=2.1)
        assert oracle == pytest.approx(1.95, rel=0.0, abs=1e-9)

    def test_start_at_anchor(self):
        # the first piece holds the state at rest, but its anchor is the start
        model = scalar_model((-1.0, 0.0, 0.0), (0.0, 1.0, 0.5))
        oracle = brute_force_min_time(model, UNIT_BOUNDS, x_start=[0.0])
        assert oracle == pytest.approx(0.5, rel=0.0, abs=1e-9)

    def test_crossing_in_first_step(self):
        oracle = brute_force_min_time(scalar_model((0.0, 1.0, 3e-5)), UNIT_BOUNDS, x_start=[0.0])
        assert oracle == pytest.approx(3e-5, rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_crossing_at_chunk_boundary(self, offset):
        step = 1.0 / 1024.0  # binary, so the grid times are exact
        goal = (PASSAGE_CHUNK + offset) * step
        model = scalar_model((0.0, 1.0, goal))
        oracle = brute_force_min_time(model, UNIT_BOUNDS, x_start=[0.0], step=step)
        assert oracle == pytest.approx(goal, rel=0.0, abs=1e-9)

    def test_vector_model_rejected(self):
        piece = LinearPiece(
            A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], t_start=0.0, t_end=1.0,
            anchor=[0.0, 0.0],
        )
        model = PiecewiseLinearModel((piece,), TimePartition([0.0, 1.0]))
        with pytest.raises(NotImplementedError):
            brute_force_min_time(model, UNIT_BOUNDS, x_start=[1.0, 0.0])

    def test_dimension_mismatch(self):
        model = scalar_model((0.0, 1.0, 1.0))
        with pytest.raises(DimensionMismatchError):
            brute_force_min_time(model, UNIT_BOUNDS, x_start=[0.0, 0.0])
        box = ControlBounds(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            brute_force_min_time(model, box, x_start=[0.0])


class TestDenseRecord:
    def test_spans_start_to_goal(self):
        record = dense_reference_record(example1(), 1.0, num_samples=501)
        assert record.t[0] == 0.0
        assert record.t[-1] == pytest.approx(np.pi / 4.0, abs=1e-4)
        assert record.x[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert record.x[-1, 0] == pytest.approx(1.0, abs=1e-4)

    def test_one_sweep_and_no_second_integration(self, monkeypatch):
        def second_pass(*args, **kwargs):
            raise AssertionError("the dense record integrated the plant again")

        calls = []
        rk4_step = reference.rk4_step

        def counted(*args):
            calls.append(None)
            return rk4_step(*args)

        monkeypatch.setattr(dynamics, "integrate", second_pass)
        monkeypatch.setattr(reference, "rk4_step", counted)
        step = 1e-3
        record = dense_reference_record(example1(), 0.5, step=step)
        # the grid steps up to the crossing, the rest of the last block and
        # the bisection of the crossing step
        sweep = int(np.ceil(record.t[-1] / step))
        bisection = int(np.ceil(np.log2(step / CHECKPOINT_TOL))) + 1
        assert sweep <= len(calls) <= sweep + _RK4_BLOCK - 1 + bisection

    @pytest.mark.parametrize("step", [1e-3, 1e-4])
    @pytest.mark.parametrize("u", [0.5, 0.9])
    def test_equals_integrate_then_interpolate(self, u, step):
        problem = example1()
        record = dense_reference_record(problem, u, step=step)
        horizon = record.t[-1]
        traj = integrate(
            lambda t, x, uu: problem.rhs(x, uu),
            problem.x_start,
            ControlSchedule.constant([u], 0.0, horizon),
            step=step,
        )
        np.testing.assert_array_equal(record.t, np.linspace(0.0, horizon, 2001))
        expected = np.interp(record.t, traj.t, traj.x[:, 0])
        np.testing.assert_allclose(record.x[:, 0], expected, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(record.u, np.full((2001, 1), u))
        np.testing.assert_allclose(record.dx[:, 0], expected**2 + u**2, rtol=0.0, atol=1e-12)
        assert record.x[-1, 0] == pytest.approx(1.0, abs=CHECKPOINT_TOL * 10)

    def test_derivatives_equal_per_sample_rhs(self):
        problem = example1()
        record = dense_reference_record(problem, 0.7, num_samples=8001, step=1e-3)
        per_sample = [problem.rhs(x, [0.7])[0] for x in record.x[:, 0]]
        np.testing.assert_array_equal(record.dx[:, 0], per_sample)



def rk4_checkpoints(u, checkpoints, step):
    """Checkpoint times and states of example 1 by a per-step scalar RK4 loop.

    The state rises, so a step crosses the goal when it ends at or above it.
    Each crossing is bisected to 1e-10 from the state at the left end of its
    step, and the next checkpoint is searched from the state found.
    """

    def rk4(x, h):
        f = lambda y: y * y + u * u
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    x, t, ts, xs = 0.0, 0.0, [], []
    for goal in checkpoints:
        if abs(x - goal) >= 1e-10:
            k, x_next = 0, rk4(x, step)
            while x_next < goal:
                k, x, x_next = k + 1, x_next, rk4(x_next, step)
            lo, hi = 0.0, step
            while hi - lo >= 1e-10:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if rk4(x, mid) < goal else (lo, mid)
            t += k * step + 0.5 * (lo + hi)
            x = rk4(x, 0.5 * (lo + hi))
        ts.append(t)
        xs.append(x)
    return np.array(ts), np.array(xs)


STEP_SEARCHES = pytest.mark.parametrize(
    "search",
    [
        lambda step: sample_reference(example1(), 1.0, (0.0, 1.0), step=step),
        lambda step: dense_reference_record(example1(), 1.0, step=step),
        lambda step: brute_force_min_time(example1(), step=step),
        lambda step: brute_force_min_time(
            scalar_model((0.5, 0.5, 0.5)), UNIT_BOUNDS, step=step, x_start=[0.0]
        ),
    ],
    ids=["sample_reference", "dense_reference_record", "plant_oracle", "model_oracle"],
)


class TestFirstPassageSweep:
    @pytest.mark.parametrize("name", sorted(BENCHMARK_CASES))
    def test_benchmark_cases_match_per_step_rk4(self, name):
        case = BENCHMARK_CASES[name]
        record = sample_reference(example1(), case.u_data, case.checkpoints, step=PASSAGE_STEP)
        ts, xs = rk4_checkpoints(case.u_data, case.checkpoints, step=PASSAGE_STEP)
        np.testing.assert_allclose(record.t, ts, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(record.x[:, 0], xs, rtol=0.0, atol=1e-12)

    def test_fast_levels_escape_before_the_earliest_crossing(self):
        # dx/dt = u x^2 from x = 1: x = 1/(1 - u t).  Each u > 0 blows up at
        # t = 1/u, so u = 4 leaves the finite region at t = 0.25; each u < 0
        # reaches 0.5 at t = 1/|u|, and u = -1 first, at t = 1.
        problem = ReferenceProblem(
            name="blow-up",
            rhs=lambda x, u: np.atleast_1d(u) * np.atleast_1d(x) ** 2,
            bounds=ControlBounds(lower=[-1.0], upper=[4.0]),
            x_start=np.array([1.0]),
            x_goal=np.array([0.5]),
        )
        best = brute_force_min_time(problem, step=1e-3, t_max=2.0)
        assert best == pytest.approx(1.0, rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_rk4_crossing_at_block_boundary(self, offset):
        step = 1.0 / 1024.0  # binary, so the grid states are exact
        goal = (_RK4_BLOCK + offset) * step
        problem = ReferenceProblem(  # dx/dt = u, on which RK4 is exact
            name="speed",
            rhs=lambda x, u: 0.0 * np.atleast_1d(x) + np.atleast_1d(u),
            bounds=UNIT_BOUNDS,
            x_start=np.array([0.0]),
            x_goal=np.array([goal]),
        )
        record = sample_reference(problem, 1.0, (0.0, goal), step=step)
        assert record.t[-1] == pytest.approx(goal, rel=0.0, abs=1e-9)
        # with 1001 levels, u = 1 and the next few levels cross in one step
        assert brute_force_min_time(problem, levels=1001, step=step) == pytest.approx(
            goal, rel=0.0, abs=1e-9
        )

    @pytest.mark.parametrize(
        "rhs",
        [
            lambda x, u: np.array([x[0] ** 2 + u[0] ** 2]),  # one row only
            lambda x, u: x**2 + u**2 if x > 0 else u**2,  # truth value of an array
        ],
    )
    def test_non_elementwise_rhs_rejected(self, rhs):
        problem = ReferenceProblem(
            name="scalar-only",
            rhs=rhs,
            bounds=UNIT_BOUNDS,
            x_start=np.array([0.0]),
            x_goal=np.array([1.0]),
        )
        with pytest.raises(TypeError, match="elementwise"):
            brute_force_min_time(problem)

    @pytest.mark.parametrize("step", [0.0, -1e-3])
    @STEP_SEARCHES
    def test_non_positive_step_rejected(self, search, step):
        with pytest.raises(ValueError, match="^step must be positive$"):
            search(step)

    @STEP_SEARCHES
    def test_infinite_step_rejected(self, search):
        # ceil(t_max / inf) is 0 grid steps, which would read as unreachable
        with pytest.raises(ValueError, match="^step must be finite$"):
            search(np.inf)


class TestDefaultPassageStep:
    """The default grid is coarse, yet the 1e-10 bisection sets the accuracy."""

    @pytest.mark.parametrize("name", sorted(BENCHMARK_CASES))
    def test_checkpoint_times_match_closed_form(self, name):
        # under constant u, x = u tan(u t): checkpoint x is reached at atan(x/u)/u
        case = BENCHMARK_CASES[name]
        record = sample_reference(example1(), case.u_data, case.checkpoints)
        expected = np.arctan(np.array(case.checkpoints) / case.u_data) / case.u_data
        np.testing.assert_allclose(record.t, expected, rtol=0.0, atol=1e-10)

    def test_plant_oracle_near_quarter_pi(self):
        assert brute_force_min_time(example1()) == pytest.approx(np.pi / 4.0, rel=0.0, abs=1e-10)

    def test_agrees_with_fine_grid_without_closed_form(self):
        problem = ReferenceProblem(
            name="cubic",
            rhs=lambda x, u: x - x**3 / 3.0 + u,
            bounds=UNIT_BOUNDS,
            x_start=np.array([0.0]),
            x_goal=np.array([1.0]),
        )
        checkpoints = (0.0, 0.25, 0.5, 1.0)
        coarse = sample_reference(problem, 0.5, checkpoints)
        fine = sample_reference(problem, 0.5, checkpoints, step=1e-4)
        np.testing.assert_allclose(coarse.t, fine.t, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(coarse.x, fine.x, rtol=0.0, atol=1e-10)
        assert brute_force_min_time(problem) == pytest.approx(
            brute_force_min_time(problem, step=1e-4), rel=0.0, abs=1e-10
        )


def rk4_array_passage(u, x0, goal, step):
    """First passage of example 1 from ``x0`` to ``goal``, on one-element arrays.

    A per-step RK4 as the plant oracle's batch steps its rows: grid steps
    until one ends at or above the goal, then the bisection of that step to
    1e-10 from its left state.  Returns the time, the state
    found and the grid states from ``x0`` up to the crossing step's left end.
    """
    uu = np.array([u])

    def rk4(x, h):
        f = lambda y: y**2 + uu**2
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    x = np.array([x0])
    if abs(x0 - goal) < 1e-10:
        return 0.0, x0, [x0]
    grid = [x0]
    x_next = rk4(x, step)
    while x_next[0] < goal:
        x = x_next
        grid.append(float(x[0]))
        x_next = rk4(x, step)
    lo, hi = np.zeros(1), np.full(1, step)
    while np.any(hi - lo >= 1e-10):
        mid = 0.5 * (lo + hi)
        short = rk4(x, mid)[0] < goal
        lo, hi = (mid, hi) if short else (lo, mid)
    dt = 0.5 * (lo + hi)
    return float((len(grid) - 1) * step + dt[0]), float(rk4(x, dt)[0]), grid


class TestOneRowOnFloats:
    @pytest.mark.parametrize(
        "rhs",
        [example1().rhs, lambda x, u: np.atleast_1d(x) ** 2 + np.atleast_1d(u) ** 2],
        ids=["example1", "atleast_1d"],
    )
    @pytest.mark.parametrize("x0, goal", [(0.0, 1.0), (0.3, 0.5)])
    def test_row_alone_equals_row_in_batch(self, rhs, x0, goal):
        # u = 0.8 is the fastest level, so the batch's earliest crossing is its own
        batch = np.array([0.3, 0.8, -0.5, 0.6])
        alone = reference._first_passage(
            reference._rk4_flow(rhs, batch[1:2]), [x0], goal, 1e-3, 10.0
        )
        in_batch = reference._first_passage(
            reference._rk4_flow(rhs, batch), np.full(batch.size, x0), goal, 1e-3, 10.0
        )
        assert alone == in_batch

    def test_one_row_steps_on_python_floats(self):
        # a 0-d array in the loop would keep the bits but lose the speed
        seen = set()

        def rhs(x, u):
            seen.add((type(x), type(u)))
            return np.square(x) + np.square(u)

        hit = reference._first_passage(
            reference._rk4_flow(rhs, np.array([1.0])), [0.0], 0.5, 1e-3, 10.0
        )
        assert hit is not None
        assert seen == {(float, float)}

    @pytest.mark.parametrize(
        "rhs, x_start, checkpoint",
        [
            (lambda x, u: x**2 + u**2, 0.0, -0.5),  # float ** overflows past the escape
            (lambda x, u: u / x, 0.0, 1.0),  # float division by zero at the start
        ],
        ids=["overflow", "zero_division"],
    )
    def test_float_arithmetic_errors_escape_as_on_arrays(self, rhs, x_start, checkpoint):
        problem = ReferenceProblem(
            name="plain-python",
            rhs=rhs,
            bounds=UNIT_BOUNDS,
            x_start=np.array([x_start]),
            x_goal=np.array([1.0]),
        )
        with np.errstate(divide="ignore"), pytest.raises(GenerationError, match="unreachable"):
            sample_reference(problem, 0.5, (checkpoint,), step=1e-3)

    @pytest.mark.parametrize("name", sorted(BENCHMARK_CASES))
    def test_benchmark_cases_equal_array_rk4(self, name):
        case = BENCHMARK_CASES[name]
        record = sample_reference(example1(), case.u_data, case.checkpoints, step=PASSAGE_STEP)
        t, x, ts, xs = 0.0, 0.0, [], []
        for goal in case.checkpoints:
            dt, x, _ = rk4_array_passage(case.u_data, x, goal, PASSAGE_STEP)
            t += dt
            ts.append(t)
            xs.append(x)
        np.testing.assert_array_equal(record.t, np.array(ts), strict=True)
        np.testing.assert_array_equal(record.x[:, 0], np.array(xs), strict=True)

    @pytest.mark.parametrize("step", [1e-3, 1e-4])
    @pytest.mark.parametrize("u", [0.5, 1.0])
    def test_dense_record_equals_array_rk4(self, u, step):
        record = dense_reference_record(example1(), u, step=step)
        horizon, x_hit, grid = rk4_array_passage(u, 0.0, 1.0, step)
        ts = np.linspace(0.0, horizon, 2001)
        grid_t = step * np.arange(len(grid))
        xs = np.interp(ts, np.append(grid_t, horizon), np.append(grid, x_hit))
        np.testing.assert_array_equal(record.t, ts, strict=True)
        np.testing.assert_array_equal(record.x[:, 0], xs, strict=True)
        np.testing.assert_array_equal(record.dx[:, 0], xs**2 + u**2, strict=True)
