import warnings

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
    simulate_model,
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

    def test_divergence_names_last_finite_time(self):
        rhs = lambda t, x, u: np.where(t > 0.5, np.inf, np.zeros_like(x))
        schedule = ControlSchedule.constant([1.0], 0.0, 1.0)
        with pytest.raises(DivergenceError) as info:
            integrate(rhs, [1.0], schedule, 0.1)
        assert type(info.value.last_valid_time) is float
        assert info.value.last_valid_time == pytest.approx(0.5)

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

    @pytest.mark.parametrize(
        "step, message", [(np.nan, "step must be positive"), (np.inf, "step must be finite")]
    )
    def test_non_finite_step_rejected(self, step, message):
        # nan would read as a divergence, and inf as one RK4 step per segment
        schedule = ControlSchedule.constant([1.0], 0.0, 0.7)
        with pytest.raises(ValueError, match=f"^{message}$"):
            integrate(self.tan_rhs, [0.0], schedule, step=step)


DOUBLE_INTEGRATOR = [[0.0, 1.0], [0.0, 0.0]]


class TestExpm:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_scipy(self, n):
        # scipy's expm is the oracle here only; 1-norms from 1e-6 to 50
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(200, n, n))
        norms = 10.0 ** rng.uniform(-6.0, np.log10(50.0), size=200)
        stack *= (norms / np.abs(stack).sum(axis=1).max(axis=1))[:, None, None]
        expected = np.array([expm(a) for a in stack])
        got = dynamics.expm(stack)
        scale = np.abs(expected).max(axis=(1, 2), keepdims=True)
        np.testing.assert_allclose(got / scale, expected / scale, rtol=0.0, atol=1e-11)
        for a, one in zip(stack[:20], got[:20]):
            np.testing.assert_array_equal(dynamics.expm(a), one)

    def test_zero_matrix_is_identity(self):
        np.testing.assert_array_equal(dynamics.expm(np.zeros((3, 3))), np.eye(3))

    def test_empty_stack(self):
        assert dynamics.expm(np.zeros((0, 2, 2))).shape == (0, 2, 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            dynamics.expm(np.array([[0.0, value], [1.0, 0.0]]))


class TestAffineTransition:
    def test_double_integrator_closed_form(self):
        phi, gain = dynamics.affine_transition(np.array(DOUBLE_INTEGRATOR), 0.3)
        np.testing.assert_allclose(phi, [[1.0, 0.3], [0.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(gain, [[0.3, 0.045], [0.0, 0.3]], atol=1e-15)

    def test_matches_augmented_exponential(self):
        A = np.array([[0.2, 1.0], [-0.5, 0.1]])
        v = np.array([0.4, -1.1])
        M = np.zeros((3, 3))
        M[:2, :2] = A * 0.7
        M[:2, 2] = v * 0.7
        expected = expm(M) @ np.array([0.3, 0.9, 1.0])
        phi, gain = dynamics.affine_transition(A, 0.7)
        np.testing.assert_allclose(phi @ [0.3, 0.9] + gain @ v, expected[:2], rtol=1e-13)

    def test_array_of_durations_stacks_single_calls(self):
        A = np.array([[0.2, 1.0], [-0.5, 0.1]])
        durations = np.array([0.0, 0.3, 1.7])
        phis, gains = dynamics.affine_transition(A, durations)
        assert phis.shape == gains.shape == (3, 2, 2)
        for dt, phi, gain in zip(durations, phis, gains):
            one_phi, one_gain = dynamics.affine_transition(A, dt)
            np.testing.assert_array_equal(phi, one_phi)
            np.testing.assert_array_equal(gain, one_gain)

    @pytest.mark.parametrize("a", [-3.0, -1e-9, 0.0, 1e-9, 2.0])
    def test_scalar_closed_form_matches_augmented_exponential(self, a):
        dt = 0.7
        expected = expm(np.array([[a * dt, dt], [0.0, 0.0]]))
        phi, gain = dynamics.affine_transition(np.array([[a]]), dt)
        assert phi.shape == gain.shape == (1, 1)
        np.testing.assert_allclose(phi[0, 0], expected[0, 0], rtol=1e-13)
        np.testing.assert_allclose(gain[0, 0], expected[0, 1], rtol=1e-13)


class TestPiecewiseLinearModel:
    PARTITION = TimePartition([0.0, 0.5, 2.0])

    @staticmethod
    def arrays():
        """(A, B, anchors) of two n = 2, r = 1 pieces."""
        return (
            np.array([[[0.5, -0.2], [0.1, -1.0]], [[-1.3, 0.4], [0.0, 0.7]]]),
            np.array([[[1.0], [0.3]], [[0.0], [1.0]]]),
            np.array([[0.2, -0.1], [0.4, 0.3]]),
        )

    @pytest.mark.parametrize("index, name", [(0, "A"), (1, "B"), (2, "anchors")])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_rejected(self, index, name, value):
        arrays = self.arrays()
        arrays[index][1, 0] = value
        with pytest.raises(ValueError, match=f"^model {name} must be finite$"):
            PiecewiseLinearModel(self.PARTITION, *arrays)

    @pytest.mark.parametrize("count", [1, 3])
    def test_piece_count_other_than_the_partitions_rejected(self, count):
        arrays = [np.resize(values, (count,) + values.shape[1:]) for values in self.arrays()]
        with pytest.raises(DimensionMismatchError, match="^a model of 2 pieces needs"):
            PiecewiseLinearModel(self.PARTITION, *arrays)

    @pytest.mark.parametrize(
        "cut",
        [
            lambda A, B, anchors: (A[:, :1, :1], B, anchors),  # n = 1 in A, 2 in B
            lambda A, B, anchors: (A, B[:, :1], anchors),  # n = 1 in B
            lambda A, B, anchors: (A, B, anchors[:, :1]),  # n = 1 in the anchors
            lambda A, B, anchors: (A, B[:1], anchors),  # one piece in B, two in A
            lambda A, B, anchors: (A, B[:, :, 0], anchors),  # B without its r axis
            lambda A, B, anchors: (A, B[:, :, :0], anchors),  # r = 0
        ],
        ids=["A-n", "B-n", "anchors-n", "B-pieces", "B-2d", "r-0"],
    )
    def test_mismatched_n_or_r_rejected(self, cut):
        with pytest.raises(DimensionMismatchError, match="^a model of 2 pieces needs"):
            PiecewiseLinearModel(self.PARTITION, *cut(*self.arrays()))

    def test_pieces_view(self):
        A, B, anchors = self.arrays()
        model = PiecewiseLinearModel(self.PARTITION, A, B, anchors)
        assert (model.n, model.r) == (2, 1)
        knots = self.PARTITION.knots
        assert len(model.pieces) == 2
        for k, piece in enumerate(model.pieces):
            assert isinstance(piece, LinearPiece)
            assert (
                piece.A.tolist(), piece.B.tolist(), piece.t_start, piece.t_end, piece.anchor.tolist()
            ) == (A[k].tolist(), B[k].tolist(), knots[k], knots[k + 1], anchors[k].tolist())


class TestSimulateModel:
    @staticmethod
    def model_and_schedule():
        model = PiecewiseLinearModel(
            TimePartition([0.0, 1.0, 2.0]),
            A=[[[0.5, -0.2], [0.1, -1.0]], [[-1.3, 0.4], [0.0, 0.7]]],
            B=[[[1.0, 0.0], [0.3, 2.0]], [[0.0, -0.5], [1.0, 1.0]]],
            anchors=np.zeros((2, 2)),
        )
        schedule = ControlSchedule(((0.0, 0.37, [1.0, -1.0]), (0.37, 1.2, [-1.0, 1.0])))
        return model, schedule

    @staticmethod
    def augmented_chain(model, x0, schedule):
        """States at the schedule start and each segment end, written with the
        augmented exponential expm([[A, B u], [0, 0]] dt) that carries (x, 1)."""
        x = np.asarray(x0, dtype=float)
        states = [x]
        for piece, (seg_start, seg_end, u) in zip(model.pieces, schedule.segments):
            n, dt = piece.n, seg_end - seg_start
            M = np.zeros((n + 1, n + 1))
            M[:n, :n] = piece.A * dt
            M[:n, n] = piece.B @ u * dt
            x = (expm(M) @ np.append(x, 1.0))[:n]
            states.append(x)
        return np.array(states)

    def test_matches_augmented_exponential_chain(self):
        model, schedule = self.model_and_schedule()
        x0 = np.array([0.8, -0.4])
        traj = simulate_model(model, x0, schedule)
        expected = self.augmented_chain(model, x0, schedule)
        np.testing.assert_allclose(traj.x, expected, rtol=0, atol=1e-12)

    def test_samples_at_segment_ends_without_rk4(self, monkeypatch):
        model, schedule = self.model_and_schedule()
        steps = []
        original = dynamics.rk4_step
        monkeypatch.setattr(
            dynamics, "rk4_step", lambda *args: steps.append(1) or original(*args)
        )
        traj = simulate_model(model, [0.8, -0.4], schedule)
        np.testing.assert_array_equal(traj.t, [0.0, 0.37, 1.2])
        np.testing.assert_array_equal(traj.u, [[1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        assert steps == []

    def test_scalar_piece_matches_augmented_exponential(self):
        model = PiecewiseLinearModel(TimePartition([0.0, 2.0]), [[[-0.7]]], [[[1.3]]], [[0.0]])
        schedule = ControlSchedule.constant([0.6], 0.0, 1.5)
        traj = simulate_model(model, [0.4], schedule)
        expected = self.augmented_chain(model, [0.4], schedule)
        np.testing.assert_allclose(traj.x, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "pieces, segments, last_valid_time",
        [
            ([make_piece(800.0, 1.0, 0.0)], [(0.0, 1.0, [1.0])], 0.0),
            (
                [make_piece(0.5, 1.0, 0.0), make_piece(800.0, 1.0, 0.0, 1.0, 2.0)],
                [(0.0, 0.25, [1.0]), (0.25, 1.25, [1.0])],
                0.25,
            ),
        ],
    )
    def test_overflow_raises_divergence_at_segment_start(self, pieces, segments, last_valid_time):
        # a = 800 over 1 s: exp(800) overflows a float
        knots = [piece.t_start for piece in pieces] + [pieces[-1].t_end]
        model = PiecewiseLinearModel(
            TimePartition(knots),
            [piece.A for piece in pieces],
            [piece.B for piece in pieces],
            [piece.anchor for piece in pieces],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                simulate_model(model, [1.0], ControlSchedule(segments))
        assert info.value.last_valid_time == last_valid_time

    @pytest.mark.parametrize(
        "x0, last_u",
        [([0.8, -0.4, 0.0], [-1.0, 1.0]), ([0.8, -0.4], [-1.0]), ([0.8], [-1.0, 1.0])],
    )
    def test_dimension_mismatch_before_any_step(self, monkeypatch, x0, last_u):
        model, schedule = self.model_and_schedule()
        (s0, e0, u0), (s1, e1, _) = schedule.segments
        schedule = ControlSchedule(((s0, e0, u0), (s1, e1, last_u)))
        steps = []
        for name in ("rk4_step", "affine_transition"):
            original = getattr(dynamics, name)
            monkeypatch.setattr(
                dynamics, name, lambda *args, f=original: steps.append(1) or f(*args)
            )
        with pytest.raises(DimensionMismatchError):
            simulate_model(model, x0, schedule)
        assert steps == []

    def test_non_finite_start_rejected(self):
        model, schedule = self.model_and_schedule()
        with pytest.raises(ValueError):
            simulate_model(model, [np.nan, 0.0], schedule)


class TestTrajectory:
    @staticmethod
    def random_trajectory(seed=0, m=40):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.uniform(0.01, 0.2, m))
        return Trajectory(
            t, rng.normal(size=(m, 2)), rng.normal(size=(m, 3)), dx=rng.normal(size=(m, 2))
        )

    def test_integrate_result(self):
        schedule = ControlSchedule(((0.0, 0.33, [1.0]), (0.33, 0.7, [-1.0])))
        traj = integrate(TestIntegrate.tan_rhs, [0.0], schedule, step=1e-3)
        assert isinstance(traj, Trajectory)
        assert (traj.n, traj.r, traj.t_start, traj.t_end) == (1, 1, 0.0, 0.7)
        np.testing.assert_array_equal(traj.interp_state(traj.t[100]), traj.x[100])
        assert traj.interp_state(0.7)[0] == traj.final_state[0]
        np.testing.assert_array_equal(traj.interp_control(0.5), [-1.0])

    def test_simulate_model_result(self):
        model, schedule = TestSimulateModel.model_and_schedule()
        traj = simulate_model(model, [0.8, -0.4], schedule)
        assert isinstance(traj, Trajectory)
        assert (traj.n, traj.r, traj.t_end) == (2, 2, 1.2)
        np.testing.assert_array_equal(traj.interp_state(1.2), traj.final_state)
        middle = 0.5 * (traj.t[0] + traj.t[1])
        np.testing.assert_allclose(
            traj.interp_state(middle), 0.5 * (traj.x[0] + traj.x[1]), rtol=1e-12
        )

    def test_interp_at_array_equals_per_time(self):
        traj = self.random_trajectory()
        # sample times, times between samples and times outside the span
        times = np.concatenate(
            [traj.t[::7], np.linspace(traj.t_start - 0.5, traj.t_end + 0.5, 57)]
        )
        for interp, dim in (
            (traj.interp_state, 2),
            (traj.interp_control, 3),
            (traj.interp_derivative, 2),
        ):
            one_by_one = np.array([interp(tt) for tt in times])
            assert one_by_one.shape == (times.size, dim)
            np.testing.assert_array_equal(interp(times), one_by_one, strict=True)

    def test_dim_by_samples_input_transposed(self):
        traj = self.random_trajectory()
        flipped = Trajectory(list(traj.t), traj.x.T, traj.u.T, dx=traj.dx.T)
        for name in ("t", "x", "u", "dx"):
            np.testing.assert_array_equal(getattr(flipped, name), getattr(traj, name), strict=True)

    def test_no_derivatives(self):
        traj = Trajectory([0.0, 1.0], [0.0, 1.0], [1.0, 1.0])
        assert traj.dx is None
        with pytest.raises(ValueError, match="no derivative column"):
            traj.interp_derivative(0.5)


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
