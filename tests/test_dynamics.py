import numpy as np
import pytest
from scipy.linalg import expm
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaproc import (
    ControlBounds,
    ControlSchedule,
    DimensionMismatchError,
    DivergenceError,
    LinearPiece,
    PiecewiseLinearModel,
    TimePartition,
    Trajectory,
    evaluate_rhs,
    integrate,
    shift_coordinates,
    simulate_model,
    unshift_coordinates,
)
from deltaproc import dynamics


def make_piece(a, b, anchor, t_start=0.0, t_end=1.0):
    return LinearPiece(A=[[a]], B=[[b]], t_start=t_start, t_end=t_end, anchor=[anchor])


class TestEvaluateRhs:
    def test_first_benchmark_piece(self):
        piece = make_piece(0.5, 0.5, 0.5)
        assert evaluate_rhs(piece, [0.0], [1.0])[0] == pytest.approx(0.5)

    def test_zero_dynamics(self):
        piece = make_piece(0.0, 0.0, 0.3)
        assert evaluate_rhs(piece, [1.7], [-0.4])[0] == 0.0

    def test_second_benchmark_piece(self):
        piece = make_piece(1.5, -0.5, 1.0)
        assert evaluate_rhs(piece, [0.5], [-1.0])[0] == pytest.approx(1.25)

    def test_dimension_mismatch(self):
        piece = make_piece(0.5, 0.5, 0.5)
        with pytest.raises(DimensionMismatchError):
            evaluate_rhs(piece, [0.0, 1.0], [1.0])
        with pytest.raises(DimensionMismatchError):
            evaluate_rhs(piece, [0.0], [1.0, 2.0])

    @given(
        alpha=st.floats(0.0, 1.0),
        x1=st.floats(-5.0, 5.0),
        x2=st.floats(-5.0, 5.0),
        u=st.floats(-2.0, 2.0),
    )
    def test_affine_combination(self, alpha, x1, x2, u):
        piece = make_piece(1.2, -0.7, 0.4)
        blend = alpha * x1 + (1.0 - alpha) * x2
        lhs = evaluate_rhs(piece, [blend], [u])[0]
        rhs = (
            alpha * evaluate_rhs(piece, [x1], [u])[0]
            + (1.0 - alpha) * evaluate_rhs(piece, [x2], [u])[0]
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestShiftCoordinates:
    def test_anchor_maps_to_origin(self):
        piece = make_piece(1.0, 1.0, 1.0)
        assert shift_coordinates(piece, [1.0])[0] == 0.0

    def test_first_anchor_shift(self):
        piece = make_piece(0.5, 0.5, 0.5)
        assert shift_coordinates(piece, [0.0])[0] == pytest.approx(-0.5)

    def test_componentwise(self):
        piece = LinearPiece(A=np.eye(2), B=np.eye(2), t_start=0.0, t_end=1.0, anchor=[1, 2])
        np.testing.assert_allclose(shift_coordinates(piece, [3, 5]), [2, 3])

    @given(
        anchor=st.floats(-10.0, 10.0),
        x=st.floats(-10.0, 10.0),
    )
    def test_round_trip(self, anchor, x):
        piece = make_piece(0.1, 0.2, anchor)
        back = unshift_coordinates(piece, shift_coordinates(piece, [x]))
        assert back[0] == pytest.approx(x, abs=1e-12)


class TestIntegrate:
    @staticmethod
    def tan_rhs(t, x, u):
        return x**2 + u**2

    def test_tan_solution(self):
        schedule = ControlSchedule.constant([1.0], 0.0, 0.7)
        traj = integrate(self.tan_rhs, [0.0], schedule, step=1e-4)
        assert traj.final_state[0] == pytest.approx(np.tan(0.7), abs=1e-5)

    def test_constant_rhs(self):
        schedule = ControlSchedule(((0.0, 0.4, [1.0]), (0.4, 1.0, [-1.0])))
        traj = integrate(lambda t, x, u: np.zeros_like(x), [2.5], schedule, step=0.01)
        np.testing.assert_allclose(traj.x[:, 0], 2.5)

    def test_divergence_at_pole(self):
        schedule = ControlSchedule.constant([1.0], 0.0, 1.6)
        with pytest.raises(DivergenceError) as info:
            integrate(self.tan_rhs, [0.0], schedule, step=1e-4)
        assert info.value.last_valid_time <= 1.6
        assert info.value.last_valid_time > 1.5

    def test_fourth_order_convergence(self):
        exact = np.tan(0.7)
        errors = []
        for step in (0.007, 0.0035):
            schedule = ControlSchedule.constant([1.0], 0.0, 0.7)
            traj = integrate(self.tan_rhs, [0.0], schedule, step=step)
            errors.append(abs(traj.final_state[0] - exact))
        ratio = errors[0] / errors[1]
        assert 8.0 < ratio < 32.0  # nominal 16 for a 4th-order method

    def test_samples_include_segment_boundaries(self):
        schedule = ControlSchedule(((0.0, 0.33, [1.0]), (0.33, 1.0, [0.0])))
        traj = integrate(lambda t, x, u: u, [0.0], schedule, step=0.1)
        assert np.any(np.isclose(traj.t, 0.33))
        assert traj.final_state[0] == pytest.approx(0.33, abs=1e-12)


class TestSimulateModel:
    @staticmethod
    def model_and_schedule():
        pieces = (
            LinearPiece(A=[[0.5, -0.2], [0.1, -1.0]], B=[[1.0, 0.0], [0.3, 2.0]],
                        t_start=0.0, t_end=1.0, anchor=[0.0, 0.0]),
            LinearPiece(A=[[-1.3, 0.4], [0.0, 0.7]], B=[[0.0, -0.5], [1.0, 1.0]],
                        t_start=1.0, t_end=2.0, anchor=[0.0, 0.0]),
        )
        model = PiecewiseLinearModel(pieces, TimePartition([0.0, 1.0, 2.0]))
        schedule = ControlSchedule(((0.0, 0.37, [1.0, -1.0]), (0.37, 1.2, [-1.0, 1.0])))
        return model, schedule

    @staticmethod
    def reference_simulation(model, x0, schedule):
        """Piece by piece with the validating evaluate_rhs, each segment on its
        own grid of STEPS_PER_PIECE equal steps."""
        x = np.asarray(x0, dtype=float)
        all_t, all_x, all_u = [schedule.t_start], [x.copy()], [schedule.segments[0][2].copy()]
        for piece, (seg_start, seg_end, u) in zip(model.pieces, schedule.segments):
            steps = dynamics.STEPS_PER_PIECE
            h = (seg_end - seg_start) / steps
            times = np.linspace(seg_start, seg_end, steps + 1)
            rhs = lambda t, xx, uu, p=piece: evaluate_rhs(p, xx, uu)
            for k in range(steps):
                x = dynamics.rk4_step(rhs, times[k], x, u, h)
                all_t.append(times[k + 1])
                all_x.append(x.copy())
                all_u.append(u.copy())
        return Trajectory(np.array(all_t), np.array(all_x), np.array(all_u))

    def test_equals_evaluate_rhs_integration(self):
        model, schedule = self.model_and_schedule()
        traj = simulate_model(model, [0.8, -0.4], schedule)
        expected = self.reference_simulation(model, [0.8, -0.4], schedule)
        np.testing.assert_array_equal(traj.t, expected.t)
        np.testing.assert_array_equal(traj.x, expected.x)
        np.testing.assert_array_equal(traj.u, expected.u)

    def test_each_segment_on_its_own_uniform_grid(self):
        # (0.37, 1.2) starts off a multiple of its own step; it must still take
        # exactly STEPS_PER_PIECE equal steps, with no sliver at its end
        model, schedule = self.model_and_schedule()
        x0 = np.array([0.8, -0.4])
        traj = simulate_model(model, x0, schedule)
        steps = dynamics.STEPS_PER_PIECE
        assert traj.t.size == 2 * steps + 1
        x = x0
        for k, (piece, (seg_start, seg_end, u)) in enumerate(zip(model.pieces, schedule.segments)):
            seg_t = traj.t[k * steps : (k + 1) * steps + 1]
            assert seg_t[0] == seg_start and seg_t[-1] == seg_end
            np.testing.assert_allclose(np.diff(seg_t), (seg_end - seg_start) / steps, rtol=1e-9)
            # exact affine flow: expm([[A, B u], [0, 0]] dt) carries (x, 1)
            M = np.zeros((3, 3))
            M[:2, :2] = piece.A * (seg_end - seg_start)
            M[:2, 2] = piece.B @ u * (seg_end - seg_start)
            x = (expm(M) @ np.append(x, 1.0))[:2]
        np.testing.assert_allclose(traj.x[-1], x, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "x0, last_u",
        [([0.8, -0.4, 0.0], [-1.0, 1.0]), ([0.8, -0.4], [-1.0]), ([0.8], [-1.0, 1.0])],
    )
    def test_dimension_mismatch_before_any_step(self, monkeypatch, x0, last_u):
        model, schedule = self.model_and_schedule()
        (s0, e0, u0), (s1, e1, _) = schedule.segments
        schedule = ControlSchedule(((s0, e0, u0), (s1, e1, last_u)))
        steps = []
        original = dynamics.rk4_step
        monkeypatch.setattr(
            dynamics, "rk4_step", lambda *args: steps.append(1) or original(*args)
        )
        with pytest.raises(DimensionMismatchError):
            simulate_model(model, x0, schedule)
        assert steps == []

    def test_non_finite_start_rejected(self):
        model, schedule = self.model_and_schedule()
        with pytest.raises(ValueError):
            simulate_model(model, [np.nan, 0.0], schedule)


class TestDomainTypes:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            ControlBounds(lower=[1.0], upper=[1.0])
        b = ControlBounds(lower=[-1.0, 0.0], upper=[1.0, 2.0])
        assert b.contains([0.0, 1.0])
        assert not b.contains([0.0, 3.0])
        assert len(b.vertices()) == 4

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            TimePartition([0.0, 0.0, 1.0])
        part = TimePartition.uniform(0.0, 1.0, 4)
        assert part.num_pieces == 4
        assert part.t0 == 0.0 and part.t1 == 1.0

    def test_schedule_contiguity(self):
        with pytest.raises(ValueError):
            ControlSchedule(((0.0, 0.5, [1.0]), (0.6, 1.0, [0.0])))
        sched = ControlSchedule(((0.0, 0.5, [1.0]), (0.5, 1.0, [0.0])))
        assert sched.u_at(0.25)[0] == 1.0
        assert sched.u_at(0.75)[0] == 0.0
        assert sched.duration == pytest.approx(1.0)

    def test_piece_validation(self):
        with pytest.raises(ValueError):
            LinearPiece(A=[[1.0]], B=[[1.0]], t_start=1.0, t_end=0.5, anchor=[0.0])
        with pytest.raises(DimensionMismatchError):
            LinearPiece(A=[[1.0]], B=[[1.0]], t_start=0.0, t_end=1.0, anchor=[0.0, 1.0])
