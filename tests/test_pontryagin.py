import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import linprog
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaproc import (
    ControlBounds,
    ControlSchedule,
    DimensionMismatchError,
    InfeasibleTransferError,
    LinearPiece,
    PiecewiseLinearModel,
    ShootingError,
    TimePartition,
    TrivialCostateError,
    adjoint_solve,
    brute_force_min_time,
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

    @pytest.mark.parametrize(
        "psi", [[0.0], [1e-8], [-1e-8], [1.0000001e-8], [0.0, -2e-8], [1e-9, 1e-9], [1.0]]
    )
    def test_adjoint_state_rejects_what_allclose_calls_zero(self, psi):
        if np.allclose(psi, 0.0):
            with pytest.raises(TrivialCostateError):
                pontryagin.AdjointState(psi=psi)
        else:
            assert pontryagin.AdjointState(psi=psi).psi.tolist() == psi

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

    @pytest.mark.parametrize("a", [0.0, -5.55e-16, 1e-14, 1e-12, 1e-8])
    def test_small_a_matches_oracle(self, a):
        # log(sf / s0) / a loses all its digits as a -> 0; log1p(z) / z does not
        piece = make_piece(a, 1.6, 0.2)
        sol = min_time_transfer(piece, [0.0], UNIT_BOUNDS)
        model = PiecewiseLinearModel(TimePartition([0.0, 1.0]), [piece.A], [piece.B], [piece.anchor])
        oracle = brute_force_min_time(model, UNIT_BOUNDS, x_start=[0.0])
        assert sol.transfer_time == pytest.approx(oracle, abs=1e-9)

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

    @pytest.mark.parametrize("x_from", [[1.0, 0.0], [0.0, 0.0]])
    def test_control_box_of_another_width_rejected(self, x_from):
        # checked before the trivial transfer too, not left to a matmul inside the shooting
        box = ControlBounds(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        with pytest.raises(DimensionMismatchError, match=r"^bounds dim 2 != piece input dim 1$"):
            min_time_transfer(plant_piece(DOUBLE_INTEGRATOR), x_from, box)

    def test_unreachable_anchor_raises(self):
        # x2' = 2 x2 holds no control: no arc sequence moves x2 from 1 to 0
        piece = LinearPiece(
            A=np.diag([1.0, 2.0]), B=[[1.0], [0.0]], t_start=0.0, t_end=1.0, anchor=[0.0, 0.0]
        )
        with pytest.raises(ShootingError, match="no certified transfer") as info:
            min_time_transfer(piece, [0.0, 1.0], UNIT_BOUNDS)
        assert info.value.best_residual == pytest.approx(1.0, abs=1e-6)

    def test_scipy_called_through_module_names(self, monkeypatch):
        # a tracer counts these calls by replacing the module attributes
        counts = {"expm": 0, "nfev": 0}
        expm_, least_squares_ = pontryagin.expm, pontryagin.least_squares

        def counted_expm(*args, **kwargs):
            counts["expm"] += 1
            return expm_(*args, **kwargs)

        def counted_least_squares(*args, **kwargs):
            result = least_squares_(*args, **kwargs)
            counts["nfev"] += result.nfev
            return result

        monkeypatch.setattr(pontryagin, "expm", counted_expm)
        monkeypatch.setattr(pontryagin, "least_squares", counted_least_squares)
        sol = min_time_transfer(plant_piece(DOUBLE_INTEGRATOR), [1.0, 0.0], UNIT_BOUNDS)
        assert sol.transfer_time == pytest.approx(2.0, abs=1e-6)
        assert counts["expm"] > 0 and counts["nfev"] > 0


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


class TestBatchedScan:
    @staticmethod
    def scan_one(piece, x_from, psi0, t_max, steps):
        """One costate ray at a time, control re-evaluated every step."""
        h = t_max / steps
        psi_step = expm(-piece.A.T * h)
        best = (np.inf, np.nan)
        x = np.array(x_from, dtype=float)
        psi = np.array(psi0, dtype=float)
        controls = []
        for i in range(steps):
            u = extremal_control(piece, psi, UNIT_BOUNDS)
            controls.append(u)
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
        return best, np.array(controls)

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
        ((misses, times, controls),) = pontryagin._scan_directions(
            piece, np.array(x_from), UNIT_BOUNDS, directions, t_max / 400, (400,)
        )
        assert controls.shape == (400, len(directions), 1)
        for d, miss, t_at, held in zip(directions, misses, times, np.swapaxes(controls, 0, 1)):
            (ref_miss, ref_t), ref_controls = self.scan_one(piece, x_from, d, t_max, 400)
            assert miss == pytest.approx(ref_miss, abs=1e-12)
            assert t_at == ref_t
            # the seeds read a ray's arcs from this record, up to its best time
            np.testing.assert_array_equal(held[: ref_controls.shape[0]], ref_controls)

    @pytest.mark.filterwarnings("error")  # a stopped row must not overflow later
    def test_row_that_never_takes_a_finite_step(self):
        piece = plant_piece([[80.0, 0.0], [0.0, 0.0]])
        ((misses, times, _),) = pontryagin._scan_directions(
            piece, np.array([1.0, 0.0]), UNIT_BOUNDS, [np.array([1.0, 0.0])], 0.4, (100,)
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
        np.testing.assert_allclose(rotation_replay(x_from, sol), [0.0, 0.0], atol=1e-6)

    def test_short_first_arc_double_integrator(self):
        x_from = (-0.681, 1.154)
        sol = min_time_transfer(plant_piece(DOUBLE_INTEGRATOR), x_from, UNIT_BOUNDS)
        assert double_integrator_time(*x_from) == pytest.approx(1.1671, abs=1e-4)
        assert sol.transfer_time == pytest.approx(double_integrator_time(*x_from), abs=1e-6)

    def test_short_first_arc_below_the_switching_curve(self):
        # 0.015 below the curve: the first arc, on u = +1, lasts about 0.008
        x_from = (-0.412, 0.891)
        sol = min_time_transfer(plant_piece(DOUBLE_INTEGRATOR), x_from, UNIT_BOUNDS)
        assert sol.transfer_time == pytest.approx(double_integrator_time(*x_from), abs=1e-6)
        assert len(sol.switch_times) == 1 and sol.switch_times[0] < 0.01
        assert_certified(plant_piece(DOUBLE_INTEGRATOR), x_from, sol)

    def test_short_first_arc_oscillator(self):
        # 0.002 inside the unit circle about (-1, 0)
        x_from = (-0.953, 0.997)
        sol = min_time_transfer(plant_piece(OSCILLATOR), x_from, UNIT_BOUNDS)
        np.testing.assert_allclose(rotation_replay(x_from, sol), [0.0, 0.0], atol=1e-9)
        assert sol.switch_times[0] < 0.01
        assert_certified(plant_piece(OSCILLATOR), x_from, sol)

    @pytest.mark.parametrize("x_from, u", [((-1.0, 1.0), -1.0), ((1.0, -1.0), 1.0)])
    def test_oscillator_quarter_turn(self, x_from, u):
        # the unit circle about (u, 0) passes through x_from and the origin
        sol = min_time_transfer(plant_piece(OSCILLATOR), x_from, UNIT_BOUNDS)
        assert sol.transfer_time == pytest.approx(np.pi / 2.0, abs=1e-9)
        assert sol.switch_times == ()
        assert sol.u_schedule.segments[0][2].tolist() == [u]
        assert_certified(plant_piece(OSCILLATOR), x_from, sol)

    def test_oscillator_with_two_switches(self):
        # without the switch residuals, a three-arc solve settles on a longer,
        # non-extremal transfer from here
        sol = min_time_transfer(plant_piece(OSCILLATOR), (3.0, 0.0), UNIT_BOUNDS)
        np.testing.assert_allclose(rotation_replay((3.0, 0.0), sol), [0.0, 0.0], atol=1e-9)
        assert sol.transfer_time == pytest.approx(4.8377, abs=1e-4)
        assert len(sol.switch_times) == 2
        assert np.diff(sol.switch_times)[0] == pytest.approx(np.pi, abs=1e-9)
        assert_certified(plant_piece(OSCILLATOR), (3.0, 0.0), sol)



def arc_rows(rng, width, free, count=60):
    """``count`` rows in R^3 whose projections onto the plane of ``free`` (2, 3)
    span an arc of exactly ``width`` radians, at random lengths and turn."""
    angles = rng.uniform(0.0, width, count)
    angles[:2] = 0.0, width
    angles += rng.uniform(0.0, 2.0 * np.pi)
    planar = rng.uniform(0.1, 1.0, (count, 1)) * np.c_[np.cos(angles), np.sin(angles)]
    normal = np.cross(*free)
    return planar @ free + rng.normal(size=(count, 1)) * normal


def linprog_costate(rows, free):
    """The linear program that a free set of dimension 3 or more is searched by."""
    projected = rows @ free.T
    lp = linprog(
        np.zeros(free.shape[0]), A_ub=-projected, b_ub=np.zeros(rows.shape[0]),
        A_eq=projected.sum(axis=0, keepdims=True), b_eq=[rows.shape[0]],
        bounds=(None, None), method="highs",
    )
    if lp.status != 0:
        return None
    psi0 = lp.x @ free
    return psi0 / np.linalg.norm(psi0)


ONE_ARC_RUN = textwrap.dedent(
    """
    import json, sys
    import deltaproc

    piece = deltaproc.LinearPiece(
        A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]], t_start=0.0, t_end=1.0,
        anchor=[0.0, 0.0],
    )
    bounds = deltaproc.ControlBounds(lower=[-1.0], upper=[1.0])
    sol = deltaproc.min_time_transfer(piece, [1.0, -1.0], bounds)
    print(json.dumps({
        "transfer_time": sol.transfer_time,
        "switches": len(sol.switch_times),
        "scipy_modules": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    }))
    """
)


class TestPlaneCertificate:
    @pytest.mark.parametrize("seed", range(6))
    def test_bisector_found_exactly_when_linprog_finds_a_costate(self, seed):
        rng = np.random.default_rng(seed)
        found = {True: 0, False: 0}
        for _ in range(40):
            free = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
            narrow, wide = rng.uniform(0.0, np.pi - 0.01), rng.uniform(np.pi + 0.01, 2.0 * np.pi)
            width = rng.choice([narrow, wide])
            rows = arc_rows(rng, width, free)
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            (bisector,) = pontryagin._arc_bisector(rows @ free.T) @ free
            by_bisector = (rows @ bisector).min() >= -pontryagin.CERT_TOL
            lp = linprog_costate(rows, free)
            by_linprog = lp is not None and (rows @ lp).min() >= -pontryagin.CERT_TOL
            assert by_bisector == by_linprog == (width < np.pi)
            assert np.linalg.norm(bisector) == pytest.approx(1.0, abs=1e-15)
            found[by_bisector] += 1
        assert min(found.values()) > 0

    def test_short_projections_are_dropped(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0], [-0.5e-6, -0.5e-6]])
        np.testing.assert_allclose(pontryagin._arc_bisector(points), [[0.5**0.5, 0.5**0.5]])
        assert pontryagin._arc_bisector(points[2:]).shape == (0, 2)

    def test_one_arc_transfer_loads_no_scipy(self):
        # a fresh interpreter: this test process has loaded scipy already
        src = os.path.dirname(os.path.dirname(os.path.abspath(pontryagin.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", ONE_ARC_RUN], env=env, capture_output=True, text=True, check=True
        )
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["transfer_time"] == pytest.approx(np.pi / 2.0, abs=1e-9)
        assert result["switches"] == 0
        assert result["scipy_modules"] == []


def rotation_replay(x_from, sol):
    """End state of the oscillator's bang-bang schedule, by exact rotations."""
    x = np.array(x_from, dtype=float)
    for a, b, u in sol.u_schedule.segments:
        # x - (u, 0) turns clockwise at unit rate about (u, 0)
        c, s = np.cos(b - a), np.sin(b - a)
        z = x - [u[0], 0.0]
        x = np.array([c * z[0] + s * z[1], -s * z[0] + c * z[1]]) + [u[0], 0.0]
    return x


def assert_certified(piece, x_from, sol):
    """The returned psi0 makes every segment's control extremal, H >= 0."""
    psi = adjoint_solve(piece, sol.psi0.psi)
    for a, b, u in sol.u_schedule.segments:
        for t in np.linspace(a, b, 7)[1:-1]:
            assert extremal_control(piece, psi(t), UNIT_BOUNDS).tolist() == u.tolist()
    assert sol.hamiltonian >= -1e-9


def states_near_switching_curve(seed, count):
    """DI states 1e-6 to 1e-3 off the switching curve, in x1, on both sides."""
    rng = np.random.default_rng(seed)
    x2 = rng.uniform(0.05, 1.0, count) * rng.choice([-1.0, 1.0], count)
    offset = 10.0 ** rng.uniform(-6.0, -3.0, count) * rng.choice([-1.0, 1.0], count)
    return [(-v * abs(v) / 2.0 + d, v) for v, d in zip(x2, offset)]


class TestShootingNearSwitchingCurve:
    @pytest.mark.parametrize("x_from", states_near_switching_curve(11, 48))
    def test_double_integrator_closed_form(self, x_from):
        piece = plant_piece(DOUBLE_INTEGRATOR)
        sol = min_time_transfer(piece, x_from, UNIT_BOUNDS)
        assert sol.transfer_time == pytest.approx(double_integrator_time(*x_from), abs=1e-6)
        assert len(sol.switch_times) == 1
        assert_certified(piece, x_from, sol)


class TestShootingRandomPieces:
    # random pieces, anchor 0, unit box; real eigenvalues, so the extremal
    # is the optimum.  From its seed (0.630, 0.053) the n = 2 solve crosses a
    # flat stretch at miss 0.0118 before it converges, which the stall test
    # must not end.
    @pytest.mark.parametrize(
        "A, B, x_from, expected, switches",
        [
            (
                [
                    [-0.02601736395641648, 0.7075118939065392, -0.4668803461946416],
                    [-0.08936155966732771, 0.08837131459958447, 0.05102541940404957],
                    [-0.9800446611341548, 0.06091218430160648, 1.0870587373932301],
                ],
                [[-1.5471446781284823], [0.8593826880215982], [0.11935402569658124]],
                [0.7426787533857613, -0.2774718819716848, 0.19636813441442613],
                1.2569720489862652,
                2,
            ),
            (
                [
                    [-0.08189620897072059, -0.16002436031461487],
                    [0.06813417595691727, 0.14020876151908587],
                ],
                [[-0.5307436711234165], [-0.03262829758865476]],
                [-0.35584328957464106, -0.02343254239303727],
                1.7291928067608073,
                1,
            ),
        ],
    )
    def test_transfer_time(self, A, B, x_from, expected, switches):
        piece = LinearPiece(A=A, B=B, t_start=0.0, t_end=1.0, anchor=np.zeros(len(A)))
        sol = min_time_transfer(piece, x_from, UNIT_BOUNDS)
        assert sol.transfer_time == pytest.approx(expected, abs=1e-9)
        assert len(sol.switch_times) == switches
        assert_certified(piece, x_from, sol)

    def test_underflowed_transition_rejects_the_trial(self):
        # trial steps reach durations near (32.84, 1.87), where expm(A 34.7)
        # underflows to a singular matrix.  A two-arc sequence builds no
        # switching rows, so its residual stays finite; with a second switch
        # the singular solve must read as a non-finite residual (so the trust
        # region shrinks), not raise LinAlgError
        A = [[-0.547100169634812, 1.259918509391637], [0.37486304513279944, -1.5808554455055794]]
        B = [[-0.8546514698367423], [0.7051415271220325]]
        x_from = np.array([0.7231586577878986, 0.8433537180939568])
        piece = LinearPiece(A=A, B=B, t_start=0.0, t_end=1.0, anchor=[0.0, 0.0])
        residuals, _ = pontryagin._arc_flow(
            piece, x_from, np.array([[-1.0], [1.0]]), np.array([32.84, 1.87])
        )
        assert np.isfinite(residuals).all()
        residuals, jac = pontryagin._arc_flow(
            piece, x_from, np.array([[-1.0], [1.0], [-1.0]]), np.array([32.84, 1.87, 0.1])
        )
        assert not np.isfinite(residuals).any() and not np.isfinite(jac).any()
        sol = min_time_transfer(piece, x_from, UNIT_BOUNDS)
        # a discretised LP bounds it from above by 5.154487 at 800 steps
        assert sol.transfer_time == pytest.approx(5.154481317529221, abs=1e-9)
        assert len(sol.switch_times) == 1
        assert_certified(piece, x_from, sol)


class TestArcDurationSolve:
    X_FROM = np.array([0.9581002401455487, -0.08740344741630346])

    def test_stalled_seeds_stop_early(self, monkeypatch):
        # neither seed can reach the anchor: a solve that runs to MAX_NFEV
        # spends 15 + 20 evaluations on them
        nfev = []
        least_squares = pontryagin.least_squares

        def counted(*args, **kwargs):
            result = least_squares(*args, **kwargs)
            nfev.append(result.nfev)
            return result

        monkeypatch.setattr(pontryagin, "least_squares", counted)
        piece = plant_piece(DOUBLE_INTEGRATOR)
        for vertices, durations in [([[1.0]], [0.075]), ([[1.0], [-1.0]], [0.075, 0.0125])]:
            durations, miss = pontryagin._fit_durations(
                piece, self.X_FROM, np.array(vertices), np.array(durations)
            )
            assert miss == pytest.approx(0.954, abs=1e-3)
            assert np.all(durations >= 0.0)
        assert len(nfev) == 2 and sum(nfev) <= 17

    def test_reaching_seed_still_converges(self):
        piece = plant_piece(DOUBLE_INTEGRATOR)
        durations, miss = pontryagin._fit_durations(
            piece, self.X_FROM, np.array([[-1.0], [1.0]]), np.array([0.225, 0.3])
        )
        assert miss <= 1e-12
        assert np.all(durations >= 0.0)
        assert durations.sum() == pytest.approx(double_integrator_time(*self.X_FROM), abs=1e-9)
        assert double_integrator_time(*self.X_FROM) == pytest.approx(1.8741468797032186, abs=1e-15)

    def test_bound_holds_and_every_evaluation_counts(self):
        # r(d) = d - c: the second duration wants to go negative and stays at the bound
        target = np.array([1.0, -1.0])
        calls = []

        def flow(d):
            calls.append(d.copy())
            return d - target, np.eye(2)

        result = pontryagin.least_squares(flow, np.array([0.5, 0.5]))
        assert result.nfev == len(calls)
        assert all(np.all(d >= 0.0) for d in calls)
        assert result.x[0] == pytest.approx(1.0, abs=1e-6) and 0.0 <= result.x[1] <= 1e-6
        np.testing.assert_array_equal(result.fun, result.x - target)

    def test_non_finite_trials_shrink_the_step_until_the_budget_ends(self):
        # finite at x0 and non-finite at every trial: each trial is rejected,
        # the trust radius shrinks, and the solve keeps x0 (clipped to the bound)
        calls = []

        def flow(d):
            calls.append(d.copy())
            if len(calls) == 1:
                return d - np.array([2.0, -1.0]), np.eye(2)
            return np.full(2, np.nan), np.full((2, 2), np.nan)

        result = pontryagin.least_squares(flow, np.array([0.5, -0.25]))
        assert result.nfev == len(calls) == pontryagin.MAX_NFEV
        assert all(np.all(d >= 0.0) for d in calls)
        assert result.x.tolist() == [0.5, 1e-10]
        np.testing.assert_array_equal(result.fun, result.x - [2.0, -1.0])
        reach = [np.linalg.norm(d - result.x) for d in calls[1:]]
        assert all(b < a for a, b in zip(reach, reach[1:]))


class TestTrustRegionStep:
    """``_trust_region_step`` against a bisection on |p(alpha)| = radius.

    The reference p(alpha) = -(M^T M + alpha I)^-1 M^T f comes from the
    normal equations, not from the SVD that the step is built from.
    """

    FRACTIONS = (0.9, 0.5, 0.1, 1e-3, 1e-6)

    @staticmethod
    def system(kind, seed):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(6, 4)) * rng.uniform(0.01, 10.0, 4)
        if kind == "dependent column":
            M[:, 3] = M[:, 0] + M[:, 1]
        elif kind == "zero column":
            M[:, 1] = 0.0
        f = rng.normal(size=6)
        u, s, vt = np.linalg.svd(M, full_matrices=False)
        return M, f, u.T @ f, s, vt

    @staticmethod
    def lm_step(M, f, alpha):
        return -np.linalg.solve(M.T @ M + alpha * np.eye(M.shape[1]), M.T @ f)

    def root(self, M, f, radius):
        """The alpha > 0 with |p(alpha)| = radius, by bisection."""
        lo, hi = 0.0, np.linalg.norm(M.T @ f) / radius  # |p(alpha)| < |M^T f| / alpha
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.linalg.norm(self.lm_step(M, f, mid)) > radius:
                lo = mid
            else:
                hi = mid
        return hi

    @pytest.mark.parametrize("kind", ["full rank", "dependent column", "zero column"])
    def test_gauss_newton_step_when_it_fits(self, kind):
        for seed in range(20):
            M, f, uf, s, vt = self.system(kind, seed)
            least_norm = -np.linalg.lstsq(M, f, rcond=None)[0]
            for fraction in (1.0 + 1e-9, 2.0):
                radius = fraction * np.linalg.norm(least_norm)
                p = pontryagin._trust_region_step(uf, s, vt, radius)
                np.testing.assert_allclose(p, least_norm, rtol=1e-10, atol=1e-12 * radius)

    @pytest.mark.parametrize("kind", ["full rank", "dependent column", "zero column"])
    def test_levenberg_marquardt_step_on_the_radius(self, kind):
        # the Newton iteration stops once |p(alpha)| is within 1 % of the
        # radius, and from alpha = 0 it never passes the root: alpha lies
        # between the roots of |p| = 1.01 radius and |p| = radius
        for seed in range(20):
            M, f, uf, s, vt = self.system(kind, seed)
            keep = s > np.finfo(float).eps * s.size * s[0]
            for fraction in self.FRACTIONS:
                radius = fraction * np.linalg.norm(np.linalg.lstsq(M, f, rcond=None)[0])
                p = pontryagin._trust_region_step(uf, s, vt, radius)
                assert radius * (1.0 - 1e-12) <= np.linalg.norm(p) <= radius * (1.0 + 1e-12)
                # p = c p(alpha) is, in SVD coordinates, -c s uf / (s^2 + alpha): the
                # ratio -s uf / (vt p) is a line in s^2 with slope 1/c and intercept alpha/c
                ratio = -(s * uf)[keep] / (vt[keep] @ p)
                slope, intercept = np.polyfit(s[keep] ** 2, ratio, 1)
                alpha = intercept / slope
                reference = self.lm_step(M, f, alpha)
                scaled = reference * (radius / np.linalg.norm(reference))
                np.testing.assert_allclose(p, scaled, rtol=1e-7, atol=1e-12 * radius)
                # alpha read back from p carries ~1e-8 relative error at the smallest radii
                assert self.root(M, f, 1.01 * radius) * (1.0 - 1e-6) <= alpha
                assert alpha <= self.root(M, f, radius) * (1.0 + 1e-6)
