import numpy as np
import pytest
from scipy.linalg import expm
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaproc import (
    ControlBounds,
    ControlSchedule,
    InfeasibleTransferError,
    LinearPiece,
    ShootingError,
    TrivialCostateError,
    adjoint_solve,
    extremal_control,
    hamiltonian,
    integrate,
    min_time_transfer,
)
from deltaproc import pontryagin
from deltaproc.dynamics import evaluate_rhs

UNIT_BOUNDS = ControlBounds(lower=[-1.0], upper=[1.0])


def make_piece(a, b, anchor, t_start=0.0, t_end=1.0):
    return LinearPiece(A=[[a]], B=[[b]], t_start=t_start, t_end=t_end, anchor=[anchor])


class TestAdjointSolve:
    def test_scalar_exponential(self):
        psi = adjoint_solve(make_piece(0.5, 0.5, 0.0), [1.0])
        assert psi(2.0)[0] == pytest.approx(np.exp(-1.0))

    def test_zero_matrix_constant(self):
        piece = LinearPiece(A=np.zeros((2, 2)), B=np.eye(2), t_start=0.0, t_end=1.0, anchor=[0, 0])
        psi = adjoint_solve(piece, [0.3, -0.7])
        np.testing.assert_allclose(psi(5.0), [0.3, -0.7], atol=1e-12)

    def test_scalar_sign_preserved(self):
        psi = adjoint_solve(make_piece(-0.5, 1.0, 0.0), [1.0])
        ts = np.linspace(0.0, 10.0, 50)
        values = np.array([psi(t)[0] for t in ts])
        assert np.all(values > 0.0)
        assert values[-1] > values[0]  # grows like exp(0.5 t)

    def test_trivial_costate_rejected(self):
        with pytest.raises(TrivialCostateError):
            adjoint_solve(make_piece(0.5, 0.5, 0.0), [0.0])

    def test_matches_integrated_adjoint(self):
        A = np.array([[0.2, 1.0], [-0.5, 0.1]])
        piece = LinearPiece(A=A, B=np.eye(2), t_start=0.0, t_end=2.0, anchor=[0, 0])
        psi = adjoint_solve(piece, [1.0, 0.5])
        sched = ControlSchedule.constant([0.0, 0.0], 0.0, 2.0)
        traj = integrate(lambda t, p, u: -A.T @ p, [1.0, 0.5], sched, step=1e-3)
        np.testing.assert_allclose(psi(2.0), traj.final_state, atol=1e-8)


class TestExtremalControl:
    def test_positive_gain(self):
        u = extremal_control(make_piece(0.5, 0.5, 0.0), [1.0], UNIT_BOUNDS)
        assert u[0] == 1.0

    def test_negative_gain(self):
        u = extremal_control(make_piece(1.5, -0.5, 0.0), [1.0], UNIT_BOUNDS)
        assert u[0] == -1.0

    def test_tie_breaks_to_upper(self):
        u = extremal_control(make_piece(0.5, 0.0, 0.0), [1.0], UNIT_BOUNDS)
        assert u[0] == 1.0

    @settings(max_examples=50)
    @given(
        psi=st.lists(st.floats(-2, 2), min_size=2, max_size=2),
        b_entries=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    )
    def test_attains_box_maximum(self, psi, b_entries):
        B = np.array(b_entries).reshape(2, 2)
        piece = LinearPiece(A=np.zeros((2, 2)), B=B, t_start=0.0, t_end=1.0, anchor=[0, 0])
        bounds = ControlBounds(lower=[-1.0, -0.5], upper=[1.0, 2.0])
        psi = np.array(psi)
        u_star = extremal_control(piece, psi, bounds)
        best = psi @ B @ u_star
        rng = np.random.default_rng(0)
        samples = bounds.lower + rng.random((1000, 2)) * (bounds.upper - bounds.lower)
        assert np.all(psi @ B @ samples.T <= best + 1e-9)
        for v in bounds.vertices():
            assert psi @ B @ v <= best + 1e-12


class TestHamiltonian:
    def test_first_benchmark_piece(self):
        # H = psi * 0.5 * (x + u); at x=0, u=1 this is 0.5
        piece = make_piece(0.5, 0.5, 0.5)
        assert hamiltonian(piece, [1.0], [0.0], [1.0]) == pytest.approx(0.5)

    def test_orthogonal_costate(self):
        piece = LinearPiece(A=np.eye(2), B=np.eye(2), t_start=0.0, t_end=1.0, anchor=[0, 0])
        # A x + B u = (1, 0); psi = (0, 1) is orthogonal
        assert hamiltonian(piece, [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]) == 0.0

    def test_homogeneous_in_costate(self):
        piece = make_piece(1.5, -0.5, 1.0)
        h1 = hamiltonian(piece, [1.0], [0.5], [-1.0])
        h2 = hamiltonian(piece, [2.0], [0.5], [-1.0])
        assert h2 == pytest.approx(2.0 * h1)


class TestScalarTransfer:
    def test_first_benchmark_transfer(self):
        sol = min_time_transfer(make_piece(0.5, 0.5, 0.5), [0.0], UNIT_BOUNDS)
        assert sol.transfer_time == pytest.approx(2.0 * np.log(1.5), abs=1e-12)
        assert sol.u_schedule.segments[0][2][0] == 1.0
        assert sol.switch_times == ()

    def test_second_benchmark_transfer(self):
        sol = min_time_transfer(make_piece(1.5, -0.5, 1.0), [0.5], UNIT_BOUNDS)
        assert sol.transfer_time == pytest.approx((2.0 / 3.0) * np.log(1.6), abs=1e-12)
        assert sol.u_schedule.segments[0][2][0] == -1.0

    def test_steep_piece_transfer(self):
        sol = min_time_transfer(make_piece(1.75, 0.25, 1.0), [0.75], UNIT_BOUNDS)
        assert sol.transfer_time == pytest.approx((4.0 / 7.0) * np.log(8.0 / 6.25), abs=1e-12)
        assert sol.u_schedule.segments[0][2][0] == 1.0

    def test_trivial_transfer(self):
        sol = min_time_transfer(make_piece(0.5, 0.5, 0.5), [0.5], UNIT_BOUNDS)
        assert sol.transfer_time == 0.0
        assert sol.is_trivial

    def test_infeasible_no_drive(self):
        piece = make_piece(0.0, 0.0001, 1.0)
        bounds = ControlBounds(lower=[-2.0], upper=[-1.0])
        with pytest.raises(InfeasibleTransferError):
            # need to move up, but every admissible drive is negative
            min_time_transfer(piece, [0.0], bounds)

    def test_closed_form_matches_simulation(self):
        piece = make_piece(0.5, 0.5, 0.5)
        sol = min_time_transfer(piece, [0.0], UNIT_BOUNDS)
        traj = integrate(
            lambda t, x, u: evaluate_rhs(piece, x, u),
            [0.0],
            sol.u_schedule,
            step=sol.transfer_time / 20000,
        )
        assert traj.final_state[0] == pytest.approx(0.5, abs=1e-4)
        assert traj.t[-1] == pytest.approx(sol.transfer_time)

    def test_costate_ray_invariance(self):
        # normalization makes the reported costate unit length either way
        sol = min_time_transfer(make_piece(0.5, 0.5, 0.5), [0.0], UNIT_BOUNDS)
        assert abs(np.linalg.norm(sol.psi0.psi) - 1.0) < 1e-12

    def test_hamiltonian_constant_along_solution(self):
        piece = make_piece(1.5, -0.5, 1.0)
        sol = min_time_transfer(piece, [0.5], UNIT_BOUNDS)
        psi = adjoint_solve(
            LinearPiece(A=piece.A, B=piece.B, t_start=0.0, t_end=sol.transfer_time, anchor=piece.anchor),
            sol.psi0.psi,
        )
        traj = integrate(
            lambda t, x, u: evaluate_rhs(piece, x, u),
            [0.5],
            sol.u_schedule,
            step=sol.transfer_time / 2000,
        )
        h_vals = [
            hamiltonian(piece, psi(t), x, sol.u_schedule.u_at(min(t, sol.u_schedule.t_end - 1e-12)))
            for t, x in zip(traj.t, traj.x)
        ]
        h_vals = np.array(h_vals)
        assert np.max(np.abs(h_vals - h_vals[0])) / abs(h_vals[0]) < 1e-6


class TestShootingTransfer:
    def test_double_integrator(self):
        piece = LinearPiece(
            A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], t_start=0.0, t_end=2.0, anchor=[0.0, 0.0]
        )
        sol = min_time_transfer(piece, [1.0, 0.0], UNIT_BOUNDS)
        assert sol.transfer_time == pytest.approx(2.0, abs=1e-6)
        assert len(sol.switch_times) == 1
        assert sol.switch_times[0] == pytest.approx(1.0, abs=1e-6)
        controls = [seg[2][0] for seg in sol.u_schedule.segments]
        assert controls == [-1.0, 1.0]

    def test_oscillator_reaches_target(self):
        piece = LinearPiece(
            A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]], t_start=0.0, t_end=2.0, anchor=[0.0, 0.0]
        )
        sol = min_time_transfer(piece, [0.5, 0.5], UNIT_BOUNDS)
        # replay the schedule; terminal state must hit the anchor
        traj = integrate(
            lambda t, x, u: evaluate_rhs(piece, x, u),
            [0.5, 0.5],
            sol.u_schedule,
            step=sol.transfer_time / 20000,
        )
        np.testing.assert_allclose(traj.final_state, [0.0, 0.0], atol=1e-5)
        for seg in sol.u_schedule.segments:
            assert abs(seg[2][0]) == 1.0  # vertex controls only


DOUBLE_INTEGRATOR = [[0.0, 1.0], [0.0, 0.0]]
OSCILLATOR = [[0.0, 1.0], [-1.0, 0.0]]


def plant_piece(A):
    return LinearPiece(A=A, B=[[0.0], [1.0]], t_start=0.0, t_end=1.0, anchor=[0.0, 0.0])


def double_integrator_time(x1, x2):
    """Closed-form minimal time to the origin (Athans & Falb, 1966)."""
    if x1 + x2 * abs(x2) / 2.0 > 0.0:
        return x2 + 2.0 * np.sqrt(x1 + x2**2 / 2.0)
    return -x2 + 2.0 * np.sqrt(-x1 + x2**2 / 2.0)


def seeded_states(seed, count, offsets):
    """States in [-1, 1]^2 at least 0.2 from the origin and 0.1 from every
    curve from which one bang arc reaches it (``offsets`` gives the distances)."""
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        x = rng.uniform(-1.0, 1.0, 2)
        if np.linalg.norm(x) >= 0.2 and min(abs(o) for o in offsets(*x)) >= 0.1:
            states.append(x)
    return states


class TestAffineTransition:
    def test_double_integrator_closed_form(self):
        phi, gain = pontryagin._affine_transition(np.array(DOUBLE_INTEGRATOR), 0.3)
        np.testing.assert_allclose(phi, [[1.0, 0.3], [0.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(gain, [[0.3, 0.045], [0.0, 0.3]], atol=1e-15)

    def test_matches_augmented_exponential(self):
        A = np.array([[0.2, 1.0], [-0.5, 0.1]])
        v = np.array([0.4, -1.1])
        M = np.zeros((3, 3))
        M[:2, :2] = A * 0.7
        M[:2, 2] = v * 0.7
        expected = expm(M) @ np.array([0.3, 0.9, 1.0])
        phi, gain = pontryagin._affine_transition(A, 0.7)
        np.testing.assert_allclose(phi @ [0.3, 0.9] + gain @ v, expected[:2], rtol=1e-13)


class TestBatchedScan:
    @staticmethod
    def scan_one(piece, x_from, psi0, t_max, steps):
        """One costate ray at a time, control re-evaluated every step."""
        h = t_max / steps
        psi_step = expm(-piece.A.T * h)
        best = (np.inf, np.nan)
        x = np.array(x_from, dtype=float)
        psi = np.array(psi0, dtype=float)
        for i in range(steps):
            u = extremal_control(piece, psi, UNIT_BOUNDS)
            M = np.zeros((3, 3))
            M[:2, :2] = piece.A * h
            M[:2, 2] = piece.B @ u * h
            x = (expm(M) @ np.append(x, 1.0))[:2]
            psi = psi_step @ psi
            if not np.all(np.isfinite(x)) or np.any(np.abs(x) > 1e12):
                break
            miss = np.linalg.norm(x - piece.anchor)
            if miss < best[0]:
                best = (miss, (i + 1) * h)
        return best

    @pytest.mark.parametrize(
        "A, x_from, t_max",
        [
            (DOUBLE_INTEGRATOR, [0.761, 0.114], 10.0),
            (OSCILLATOR, [0.6, -0.5], 10.0),
            # the first component leaves the <= 1e12 region near t = 9.5
            ([[3.0, 0.0], [0.0, -1.3]], [0.4, -0.2], 12.0),
        ],
    )
    def test_matches_per_direction_loop(self, A, x_from, t_max):
        piece = plant_piece(A)
        directions = pontryagin._sphere_directions(2, 24)
        misses, times = pontryagin._scan_directions(
            piece, np.array(x_from), UNIT_BOUNDS, directions, t_max, 400
        )
        for d, miss, t_at in zip(directions, misses, times):
            ref_miss, ref_t = self.scan_one(piece, x_from, d, t_max, 400)
            assert miss == pytest.approx(ref_miss, abs=1e-12)
            assert t_at == ref_t

    @pytest.mark.filterwarnings("error")  # a stopped row must not overflow later
    def test_row_that_never_takes_a_finite_step(self):
        piece = plant_piece([[80.0, 0.0], [0.0, 0.0]])
        misses, times = pontryagin._scan_directions(
            piece, np.array([1.0, 0.0]), UNIT_BOUNDS, [np.array([1.0, 0.0])], 40.0, 100
        )
        assert misses[0] == np.inf and np.isnan(times[0])


class TestCostateGrid:
    @pytest.mark.parametrize(
        "A", [DOUBLE_INTEGRATOR, OSCILLATOR, [[0.7, 0.0], [0.0, -1.3]]]
    )
    @pytest.mark.parametrize("psi0, horizon", [([0.6, -0.8], 2.0), ([-0.3, 0.95], 7.5)])
    def test_doubling_matches_exponential(self, A, psi0, horizon):
        piece = plant_piece(A)
        psi0 = np.array(psi0) / np.linalg.norm(psi0)
        ts, psis = pontryagin._costate_grid(piece, psi0, horizon, 2001)
        np.testing.assert_array_equal(ts, np.linspace(0.0, horizon, 2001))
        expected = np.array([expm(-piece.A.T * t) @ psi0 for t in ts])
        # relative to each sample's size: oscillator components pass through 0
        err = np.linalg.norm(psis - expected, axis=1)
        assert np.all(err <= 1e-10 * np.linalg.norm(expected, axis=1))

    def test_odd_sample_count(self):
        piece = plant_piece(OSCILLATOR)
        ts, psis = pontryagin._costate_grid(piece, np.array([1.0, 0.0]), 3.0, 7)
        expected = np.array([expm(-piece.A.T * t) @ [1.0, 0.0] for t in ts])
        np.testing.assert_allclose(psis, expected, atol=1e-14)


def double_integrator_offsets(x1, x2):
    """Distance in x1 from the switching curve x1 = -x2 |x2| / 2."""
    return [x1 + x2 * abs(x2) / 2.0]


def oscillator_offsets(x1, x2):
    """Radial distance from the unit circles about (-1, 0) and (1, 0)."""
    return [np.hypot(x1 - c, x2) - 1.0 for c in (-1.0, 1.0)]


class TestShootingClosedForms:
    @pytest.mark.parametrize("x_from", seeded_states(7, 6, double_integrator_offsets))
    def test_double_integrator_closed_form(self, x_from):
        sol = min_time_transfer(plant_piece(DOUBLE_INTEGRATOR), x_from, UNIT_BOUNDS)
        assert sol.transfer_time == pytest.approx(double_integrator_time(*x_from), abs=1e-6)
        assert len(sol.switch_times) == 1

    @pytest.mark.parametrize("x_from", seeded_states(8, 5, oscillator_offsets))
    def test_oscillator_rotation_replay(self, x_from):
        sol = min_time_transfer(plant_piece(OSCILLATOR), x_from, UNIT_BOUNDS)
        x = np.array(x_from, dtype=float)
        for a, b, u in sol.u_schedule.segments:
            # x - (u, 0) turns clockwise at unit rate about (u, 0)
            c, s = np.cos(b - a), np.sin(b - a)
            z = x - [u[0], 0.0]
            x = np.array([c * z[0] + s * z[1], -s * z[0] + c * z[1]]) + [u[0], 0.0]
        np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-6)

    @pytest.mark.xfail(
        raises=ShootingError,
        strict=True,
        reason="first bang arc much shorter than the scan step: the scan misses it",
    )
    def test_short_first_arc_double_integrator(self):
        x_from = (-0.681, 1.154)
        sol = min_time_transfer(plant_piece(DOUBLE_INTEGRATOR), x_from, UNIT_BOUNDS)
        assert double_integrator_time(*x_from) == pytest.approx(1.1671, abs=1e-4)
        assert sol.transfer_time == pytest.approx(double_integrator_time(*x_from), abs=1e-6)
