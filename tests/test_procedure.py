from dataclasses import replace

import numpy as np
import pytest

from deltaproc import (
    ControlBounds,
    DeltaConfig,
    DeltaProcError,
    DimensionMismatchError,
    InfeasibleTransferError,
    LinearPiece,
    PiecewiseLinearModel,
    SingularFitError,
    TimePartition,
    TrajectoryRecord,
    dense_reference_record,
    estimate_derivatives,
    example1,
    extremal_control,
    fit_model,
    hamiltonian,
    min_time_transfer,
    refine_partition,
    run_delta,
    sample_reference,
    simulate_model,
    solve_partition,
)
from deltaproc import procedure
from deltaproc.fitting import _fit_subinterval
from deltaproc.pontryagin import ZERO_STATE_TOL

UNIT_BOUNDS = ControlBounds(lower=[-1.0], upper=[1.0])


def benchmark_solution(u_data, checkpoints):
    problem = example1()
    record = sample_reference(problem, u_data, checkpoints)
    partition = TimePartition(record.t)
    return solve_partition(record, partition, problem.bounds)


class TestSolvePartition:
    def test_example1_total(self):
        sol = benchmark_solution(0.5, (0.0, 0.5, 1.0))
        expected = 2.0 * np.log(1.5) + (2.0 / 3.0) * np.log(1.6)
        assert sol.total_time == pytest.approx(expected, abs=1e-6)

    def test_case3_total(self):
        sol = benchmark_solution(1.0, (0.0, 0.75, 1.0))
        expected = (4.0 / 3.0) * np.log(1.5625) + (4.0 / 7.0) * np.log(1.28)
        assert sol.total_time == pytest.approx(expected, abs=1e-6)
        assert sol.total_time == pytest.approx(0.736, abs=1e-3)

    def test_case4_total(self):
        sol = benchmark_solution(1.0, (0.0, 0.5, 1.0))
        expected = 2.0 * np.log(1.25) + (2.0 / 3.0) * np.log(1.6)
        assert sol.total_time == pytest.approx(expected, abs=1e-6)
        assert sol.total_time == pytest.approx(0.759, abs=1e-3)

    def test_chained_schedule_reaches_final_anchor(self):
        sol = benchmark_solution(0.5, (0.0, 0.5, 1.0))
        traj = simulate_model(sol.model, sol.x_start, sol.schedule)
        assert traj.final_state[0] == pytest.approx(1.0, abs=1e-3)
        assert sol.schedule.duration == pytest.approx(sol.total_time, abs=1e-12)

    def test_scalar_level_builds_no_piece_objects(self, monkeypatch):
        problem = example1()
        record = sample_reference(problem, 0.5, np.linspace(0.0, 1.0, 8))
        dense = dense_reference_record(problem, 0.5)
        built = []
        post_init = LinearPiece.__post_init__
        monkeypatch.setattr(
            LinearPiece, "__post_init__", lambda piece: built.append(piece) or post_init(piece)
        )
        sol = solve_partition(record, TimePartition(record.t), problem.bounds)
        result = run_delta(dense, DeltaConfig(delta=0.05, bounds=problem.bounds))
        assert (sol.transfer_times.size, len(result.trace), built) == (7, 2, [])
        # an unreachable piece is named from the level's arrays too
        narrow = ControlBounds(lower=[-2.0], upper=[-1.0])
        with pytest.raises(InfeasibleTransferError, match="^piece 0: no vertex control"):
            solve_partition(record, TimePartition(record.t), narrow)
        assert built == []
        # the model's piece view is where they are built, when read
        assert len(sol.model.pieces) == len(built) == 7

    @pytest.mark.parametrize("box_width, data_width", [(2, 1), (1, 2)])
    def test_control_box_of_another_width_rejected(self, monkeypatch, box_width, data_width):
        t = np.linspace(0.0, 1.0, 41)
        x = np.column_stack([t, t**2])[:, :data_width]
        u = np.column_stack([np.cos(3.0 * t), np.sin(5.0 * t)])[:, :data_width]
        record = TrajectoryRecord(id="w", label="positive", t=t, x=x, u=u)
        box = ControlBounds(lower=[-1.0] * box_width, upper=[1.0] * box_width)
        for name in ("min_time_transfer", "scalar_transfers"):
            monkeypatch.setattr(procedure, name, lambda *args: pytest.fail("a piece was solved"))
        message = f"^bounds dim {box_width} != model input dim {data_width}$"
        with pytest.raises(DimensionMismatchError, match=message):
            solve_partition(record, TimePartition.uniform(0.0, 1.0, 4), box)


class TestScores:
    def test_mean_of_constant(self):
        sol = benchmark_solution(1.0, (0.0, 0.5, 1.0))
        sol = replace(sol, hamiltonians=np.array([2.5, 2.5]))
        assert sol.eq_mean_score == pytest.approx(2.5)
        assert sol.eq_deviation_score == pytest.approx(0.0)

    def test_two_piece_arithmetic(self):
        sol = benchmark_solution(1.0, (0.0, 0.5, 1.0))
        sol = replace(sol, hamiltonians=np.array([1.0, 3.0]))
        assert sol.eq_mean_score == pytest.approx(2.0)
        assert sol.eq_deviation_score == pytest.approx(1.0)

    def test_deviation_nonnegative_on_case2(self):
        sol = benchmark_solution(0.9, (0.0, 0.25, 0.5, 0.75, 1.0))
        assert sol.eq_deviation_score >= 0.0


class TestRefinePartition:
    def test_double_single_interval(self):
        out = refine_partition(TimePartition([0.0, 1.0]), "double")
        np.testing.assert_allclose(out.knots, [0.0, 0.5, 1.0])

    def test_double_two_intervals(self):
        out = refine_partition(TimePartition([0.0, 0.5, 1.0]), "double")
        np.testing.assert_allclose(out.knots, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_increment_splits_longest(self):
        out = refine_partition(TimePartition([0.0, 0.2, 1.0]), "increment")
        np.testing.assert_allclose(out.knots, [0.0, 0.2, 0.6, 1.0])


class TestRunDelta:
    def test_converges_on_u1_data(self):
        record = dense_reference_record(example1(), 1.0)
        config = DeltaConfig(delta=0.05, bounds=UNIT_BOUNDS, initial_N=2, max_refinements=8)
        result = run_delta(record, config)
        assert result.converged
        assert result.stopping_gap <= 0.05
        totals = [e.total_time for e in result.trace]
        assert abs(totals[-1] - totals[-2]) <= 0.05

    def test_large_delta_stops_at_second_level(self):
        record = dense_reference_record(example1(), 1.0)
        config = DeltaConfig(delta=10.0, bounds=UNIT_BOUNDS, initial_N=2, max_refinements=8)
        result = run_delta(record, config)
        assert result.converged
        assert result.trace[-1].m == 2

    def test_single_refinement_not_converged(self):
        record = dense_reference_record(example1(), 1.0)
        config = DeltaConfig(delta=0.001, bounds=UNIT_BOUNDS, initial_N=2, max_refinements=1)
        result = run_delta(record, config)
        assert not result.converged
        assert len(result.trace) == 1

    def test_converged_iff_last_gap_within_delta(self):
        record = dense_reference_record(example1(), 1.0)
        for delta in (0.001, 0.01, 0.1):
            config = DeltaConfig(delta=delta, bounds=UNIT_BOUNDS, initial_N=2, max_refinements=4)
            result = run_delta(record, config)
            last_gap = result.trace[-1].gap
            if result.converged:
                assert last_gap <= delta
            else:
                assert np.isnan(last_gap) or last_gap > delta

    def test_final_schedule_reaches_goal_through_model(self):
        record = dense_reference_record(example1(), 1.0)
        config = DeltaConfig(delta=0.05, bounds=UNIT_BOUNDS, initial_N=2, max_refinements=4)
        result = run_delta(record, config)
        sol = result.final_solution
        traj = simulate_model(sol.model, sol.x_start, sol.schedule)
        assert traj.final_state[0] == pytest.approx(1.0, abs=1e-3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DeltaConfig(delta=-1.0, bounds=UNIT_BOUNDS)
        with pytest.raises(ValueError):
            DeltaConfig(delta=0.1, bounds=UNIT_BOUNDS, strategy="nope")

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_delta_rejected(self, delta):
        # NaN passed a test of delta <= 0; inf made every level converge
        with pytest.raises(ValueError, match="^delta must be positive and finite$"):
            DeltaConfig(delta=delta, bounds=UNIT_BOUNDS)


# ---------------------------------------------------------------------------
# A scalar level solved with arrays against the per-piece object chain: a
# fit, a model check and a closed-form transfer for one piece at a time.


def per_piece_model(record, partition):
    """fit_model one subinterval at a time, stacked into the model's arrays."""
    rec = estimate_derivatives(record)
    knots = partition.knots
    fits = []
    for k in range(partition.num_pieces):
        try:
            fits.append(per_piece_fit(rec, knots[k], knots[k + 1]))
        except ValueError as exc:
            exc.args = (f"piece {k}: {exc.args[0]}",) + exc.args[1:]
            raise
    A, B = zip(*fits)
    anchors = [rec.interp_state(t_r) for t_r in knots[1:]]
    return PiecewiseLinearModel(partition, A, B, anchors)


def per_piece_fit(rec, t_l, t_r):
    """(A, B) of one scalar piece from its two endpoint conditions.

    Coinciding endpoint states go to least squares; otherwise a non-finite
    condition raises, then u = 0 does.
    """
    x_l, x_r = float(rec.interp_state(t_l)[0]), float(rec.interp_state(t_r)[0])
    if np.isclose(x_l, x_r):
        return _fit_subinterval(rec, t_l, t_r)
    dx_l, dx_r = float(rec.interp_derivative(t_l)[0]), float(rec.interp_derivative(t_r)[0])
    u = float(rec.interp_control(t_l)[0])
    if not np.isfinite([x_l, x_r, dx_l, dx_r, u]).all():
        raise ValueError("fit conditions must be finite")
    if u == 0.0:
        raise SingularFitError("u_data = 0 leaves the input coefficient unidentifiable")
    a = (dx_r - dx_l) / (x_r - x_l)
    return np.array([[a]]), np.array([[(dx_l - a * x_l) / u]])


def per_piece_time(a, x0, xf, drive):
    """(xf - x0) / s0 * log1p(z) / z with z = a (xf - x0) / s0, or None if unreached."""
    s0 = a * x0 + drive
    if s0 == 0.0:
        return None
    dist = xf - x0
    z = a * dist / s0
    if not z > -1.0:
        return None  # the speed changes sign before xf
    t = dist / s0 * (1.0 if z == 0.0 else np.log1p(z) / z)
    return t if np.isfinite(t) and t > 0.0 else None


def per_piece_transfer(piece, x_from, bounds):
    """(T, u*, psi0, H) of one scalar piece, tried ray by ray."""
    if np.linalg.norm(x_from - piece.anchor) <= ZERO_STATE_TOL:
        return 0.0, None, 1.0, 0.0
    a, x0, xf = float(piece.A[0, 0]), float(x_from[0]), float(piece.anchor[0])
    best, diagnostics = None, []
    for psi0 in (1.0, -1.0):
        u_star = extremal_control(piece, np.array([psi0]), bounds)
        drive = float(piece.B[0] @ u_star)
        t = per_piece_time(a, x0, xf, drive)
        if t is None:
            diagnostics.append(f"costate ray {psi0:+g}: drive {drive:g} cannot reach target")
            continue
        if best is None or t < best[0]:
            best = (t, u_star, psi0)
    if best is None:
        raise InfeasibleTransferError(
            f"no vertex control transfers x={x0:g} to {xf:g} "
            f"(a={a:g}, B={piece.B.ravel()}): " + "; ".join(diagnostics)
        )
    t, u_star, psi0 = best
    return t, u_star, psi0, hamiltonian(piece, np.array([psi0]), x_from, u_star)


def per_piece_solve(record, partition, bounds):
    """The model, the (T, u*, psi0, H) of each piece, the total and both scores."""
    model = per_piece_model(record, partition)
    rows, total = [], 0.0
    x_from = record.interp_state(partition.t0)
    for k, piece in enumerate(model.pieces):
        try:
            rows.append(per_piece_transfer(piece, x_from, bounds))
        except DeltaProcError as exc:
            exc.args = (f"piece {k}: {exc.args[0]}",) + exc.args[1:]
            raise
        total += rows[-1][0]
        x_from = piece.anchor
    h = np.array([row[3] for row in rows])
    mean = np.sum(h) / h.size
    return model, rows, total, float(mean), float(np.sum(np.abs(h - mean)) / h.size)


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by the caller, not handled
        return type(exc), str(exc)


def random_record(rng, num_pieces, with_dx):
    """A monotone scalar record, knots at samples, with special pieces.

    Pieces are drawn as plain steps, flat pieces (anchors that coincide or
    lie within ZERO_STATE_TOL: a trivial transfer and a least-squares fit),
    pieces with x_l close to x_r (least squares) and, when derivatives are
    given, pieces with equal endpoint derivatives (a = 0) and pieces with
    dx = x at both ends (a = 1, b = 0: both costate rays tie).  Half the
    records fall, so their drive is negative; controls take both signs.
    """
    direction = rng.choice([-1.0, 1.0])
    kinds = rng.choice(["step", "step", "flat", "near", "level", "free"], size=num_pieces)
    knot_x = [rng.uniform(-1.0, 1.0)]
    for kind in kinds:
        gap = {"flat": rng.choice([0.0, 1e-13]), "near": 1e-9}.get(kind, rng.uniform(0.05, 0.5))
        knot_x.append(knot_x[-1] + direction * gap)
    inner = 4
    t = np.cumsum(rng.uniform(0.05, 0.2, num_pieces * inner + 1))
    x = np.empty_like(t)
    for k in range(num_pieces):
        s = np.linspace(0.0, 1.0, inner + 1)
        x[k * inner : (k + 1) * inner + 1] = knot_x[k] + (knot_x[k + 1] - knot_x[k]) * s
        # interior samples leave the chord, so least squares stays full rank
        x[k * inner + 1 : (k + 1) * inner] += 0.01 * rng.standard_normal(inner - 1)
    u = rng.uniform(0.2, 1.0, t.size) * rng.choice([-1.0, 1.0], t.size)
    dx = None
    if with_dx:
        dx = direction * rng.uniform(0.5, 2.0, t.size)
        for k, kind in enumerate(kinds):
            left, right = k * inner, (k + 1) * inner
            if kind == "level":
                dx[right] = dx[left]
            elif kind == "free":
                dx[left], dx[right] = x[left], x[right]
    record = TrajectoryRecord(
        id="r", label="positive", t=t, x=x[:, None], u=u[:, None],
        dx=None if dx is None else dx[:, None],
    )
    return record, TimePartition(t[::inner]), kinds


class TestScalarLevel:
    BOUNDS = ControlBounds(lower=[-0.7], upper=[1.3])

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_per_piece_path(self, seed):
        rng = np.random.default_rng(seed)
        record, partition, kinds = random_record(rng, 6 + seed % 5, with_dx=seed % 2 == 0)
        if seed % 4 == 3:
            partition = TimePartition.uniform(record.t_start, record.t_end, 5)
        expected = outcome(per_piece_solve, record, partition, self.BOUNDS)
        got = outcome(solve_partition, record, partition, self.BOUNDS)
        if not isinstance(expected[0], PiecewiseLinearModel):
            assert got == expected
            return
        model, rows, total, mean, deviation = expected
        for name in ("A", "B", "anchors"):
            assert getattr(got.model, name).tolist() == getattr(model, name).tolist()
        x_from = got.x_start
        # trivial pieces included: zip below would hide a short list
        assert len(got.piece_solutions) == partition.num_pieces == len(rows)
        for k, (sol, (t, u_star, psi0, h)) in enumerate(zip(got.piece_solutions, rows)):
            assert sol.transfer_time == t
            assert sol.hamiltonian == h
            assert sol.psi0.psi.tolist() == [psi0]
            if u_star is None:
                assert sol.is_trivial
            else:
                ((start, end, u),) = sol.u_schedule.segments
                assert (start, end, u.tolist()) == (0.0, t, u_star.tolist())
            # one row of the closed form gives the same as the whole level
            single = min_time_transfer(model.pieces[k], x_from, self.BOUNDS)
            assert (single.transfer_time, single.hamiltonian) == (t, h)
            x_from = model.pieces[k].anchor
        assert got.total_time == total
        assert (got.eq_mean_score, got.eq_deviation_score) == (mean, deviation)

    def test_property_cases_are_covered(self):
        """The seeds above reach every special piece and a negative drive."""
        seen_kinds, drives, feasible = set(), set(), 0
        near_trivial = a_zero = b_zero = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            record, partition, kinds = random_record(rng, 6 + seed % 5, with_dx=seed % 2 == 0)
            if seed % 4 == 3:
                continue
            try:
                sol = solve_partition(record, partition, self.BOUNDS)
            except DeltaProcError:
                continue
            feasible += 1
            x_from = sol.x_start
            for piece, ps, kind in zip(sol.model.pieces, sol.piece_solutions, kinds):
                seen_kinds.add(kind)
                a_zero += piece.A[0, 0] == 0.0
                b_zero += piece.B[0, 0] == 0.0 and not ps.is_trivial
                # trivial within ZERO_STATE_TOL, not only at equal anchors
                near_trivial += ps.is_trivial and piece.anchor[0] != x_from[0]
                x_from = piece.anchor
                if not ps.is_trivial:
                    drives.add(np.sign(piece.B[0] @ ps.u_schedule.segments[0][2]))
        assert feasible >= 15
        assert seen_kinds == {"step", "flat", "near", "level", "free"}
        assert {-1.0, 1.0} <= drives
        assert near_trivial > 0 and a_zero > 0 and b_zero > 0

    def test_zero_control_error(self):
        t = np.linspace(0.0, 1.0, 9)
        u = np.full(t.size, 0.5)
        u[4] = 0.0
        record = TrajectoryRecord(id="r", label="positive", t=t, x=t**2 + t, u=u)
        partition = TimePartition(t[::2])
        expected = outcome(per_piece_solve, record, partition, UNIT_BOUNDS)
        assert expected == (
            SingularFitError, "piece 2: u_data = 0 leaves the input coefficient unidentifiable"
        )
        assert outcome(solve_partition, record, partition, UNIT_BOUNDS) == expected
        assert outcome(fit_model, record, partition) == expected

    @pytest.mark.parametrize("column", ["x", "u", "dx"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_conditions_error_of_the_first_piece(self, column, value):
        t = np.linspace(0.0, 1.0, 9)
        data = {"x": t**2 + t, "u": np.full(t.size, 0.5), "dx": 2.0 * t + 1.0}
        data["u"][6] = 0.0  # a later piece fails too
        data[column][2] = value
        record = TrajectoryRecord(id="r", label="positive", t=t, **data)
        partition = TimePartition(t[::2])
        expected = outcome(per_piece_solve, record, partition, UNIT_BOUNDS)
        # x and dx at t[2] end piece 0; u there is the control of piece 1 only
        piece = 1 if column == "u" else 0
        assert expected == (ValueError, f"piece {piece}: fit conditions must be finite")
        assert outcome(solve_partition, record, partition, UNIT_BOUNDS) == expected
        assert outcome(fit_model, record, partition) == expected

    def test_infeasible_piece_error(self):
        # the data rise on [0.5, 0.75], but the derivative at its right end
        # points down; [0.75, 1] fails as well
        t = np.linspace(0.0, 1.0, 5)
        x = np.array([0.0, 0.2, 0.4, 0.6, 0.8])
        dx = np.array([1.0, 1.0, 1.0, -1.0, 1.0])
        record = TrajectoryRecord(id="r", label="positive", t=t, x=x, u=[0.5] * 5, dx=dx)
        partition = TimePartition(t)
        bounds = ControlBounds(lower=[0.4], upper=[0.6])
        expected = outcome(per_piece_solve, record, partition, bounds)
        assert expected[0] is InfeasibleTransferError
        assert expected[1].startswith("piece 2: no vertex control transfers x=0.4 to 0.6")
        assert outcome(solve_partition, record, partition, bounds) == expected

    def test_motionless_piece_error(self):
        # dx = 0 at both ends fits a = b = 0, so no control moves the state
        t = np.linspace(0.0, 1.0, 4)
        x = np.array([0.0, 0.3, 0.6, 0.9])
        dx = np.array([1.0, 0.0, 0.0, 1.0])
        record = TrajectoryRecord(id="r", label="positive", t=t, x=x, u=[0.5] * 4, dx=dx)
        partition = TimePartition(t)
        expected = outcome(per_piece_solve, record, partition, UNIT_BOUNDS)
        assert expected[0] is InfeasibleTransferError
        assert "piece 1: no vertex control transfers x=0.3 to 0.6 (a=0, B=[0.])" in expected[1]
        assert outcome(solve_partition, record, partition, UNIT_BOUNDS) == expected
