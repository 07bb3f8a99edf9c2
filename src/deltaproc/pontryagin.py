"""Per-piece maximum-principle machinery.

For each linear piece the extremal control maximizes psi^T B u over the
control box, the costate obeys d(psi)/dt = -A^T psi, and the minimal-time
transfer to the piece anchor is computed in closed form for scalar state or
by costate shooting for n >= 2.  The costate is fixed only up to positive
scale, so initial costates are normalized to unit length and both antipodal
rays are tried; feasibility picks the winner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import least_squares

from .dynamics import BLOWUP_LIMIT, ControlBounds, ControlSchedule, LinearPiece, as_vector
from .errors import (
    DimensionMismatchError,
    InfeasibleTransferError,
    ShootingError,
    TrivialCostateError,
)

TERMINAL_TOL = 1e-8
ZERO_STATE_TOL = 1e-12
# Time steps of the coarse costate-direction scan over [0, t_max].
SCAN_STEPS = 400


@dataclass(frozen=True)
class AdjointState:
    """A costate value at a time instant; must be nontrivial."""

    psi: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "psi", as_vector(self.psi, "psi"))
        if np.allclose(self.psi, 0.0):
            raise TrivialCostateError("costate must be nonzero")


@dataclass(frozen=True)
class PieceSolution:
    """Minimal-time bang-bang transfer for one piece.

    ``u_schedule`` lives on the local clock [0, transfer_time] and is None for
    the trivial zero-time transfer.  ``hamiltonian`` is the (constant) value
    psi^T (A x + B u) along the optimal trajectory under the unit-normalized
    initial costate.
    """

    piece_index: int
    u_schedule: ControlSchedule
    transfer_time: float
    switch_times: tuple
    hamiltonian: float
    psi0: AdjointState

    @property
    def is_trivial(self):
        return self.u_schedule is None


def normalize_costate(psi0):
    """Unit norm with the first nonzero component positive."""
    psi0 = as_vector(psi0, "psi0")
    norm = np.linalg.norm(psi0)
    if norm == 0.0:
        raise TrivialCostateError("costate must be nonzero")
    psi = psi0 / norm
    for v in psi:
        if v != 0.0:
            if v < 0.0:
                psi = -psi
            break
    return psi


def adjoint_solve(piece: LinearPiece, psi0, span=None):
    """Costate flow psi(t) = expm(-A^T (t - t_start)) psi0 as a callable.

    Scalar pieces use the explicit exponential.  ``span`` is accepted for
    interface symmetry with the integrator; evaluation is analytic and valid
    for any t.
    """
    psi0 = as_vector(psi0, "psi0")
    if psi0.size != piece.n:
        raise DimensionMismatchError(f"psi0 dim {psi0.size} != piece dim {piece.n}")
    if np.allclose(psi0, 0.0):
        raise TrivialCostateError("psi0 = 0 gives only the trivial costate")
    t_start = piece.t_start
    if piece.n == 1:
        a = float(piece.A[0, 0])

        def psi(t):
            return psi0 * np.exp(-a * (np.asarray(t, dtype=float) - t_start))

        return psi

    At = piece.A.T

    def psi(t):
        return expm(-At * (float(t) - t_start)) @ psi0

    return psi


def extremal_control(piece: LinearPiece, psi, bounds: ControlBounds):
    """Componentwise maximizer of psi^T B u over the box.

    Ties (psi^T B component exactly zero) break to the upper bound, matching
    the vertex-only control convention.
    """
    psi = as_vector(psi, "psi")
    if psi.size != piece.n:
        raise DimensionMismatchError(f"psi dim {psi.size} != piece dim {piece.n}")
    if bounds.r != piece.r:
        raise DimensionMismatchError(f"bounds dim {bounds.r} != piece input dim {piece.r}")
    gains = piece.B.T @ psi  # (r,)
    return np.where(gains < 0.0, bounds.lower, bounds.upper).astype(float)


def hamiltonian(piece: LinearPiece, psi, x, u):
    """psi^T (A x + B u), the maximum-principle Hamiltonian for the piece.

    Evaluated in the original coordinate frame, matching the dynamics the
    piece was fitted with; this is the quantity that stays constant along an
    extremal of an autonomous piece.
    """
    psi = as_vector(psi, "psi")
    x = as_vector(x, "state")
    u = as_vector(u, "control")
    if psi.size != piece.n or x.size != piece.n:
        raise DimensionMismatchError("psi/x dimension does not match the piece")
    if u.size != piece.r:
        raise DimensionMismatchError("control dimension does not match the piece")
    return float(psi @ (piece.A @ x + piece.B @ u))


def min_time_transfer(
    piece: LinearPiece,
    x_from,
    bounds: ControlBounds,
    piece_index=0,
    t_max=None,
) -> PieceSolution:
    """Minimal-time transfer from x_from to the piece anchor.

    Scalar state uses the closed-form logarithmic transfer time under the
    feasible costate ray; n >= 2 shoots over normalized initial costate
    directions.  Raises :class:`InfeasibleTransferError` when no vertex
    control reaches the target.
    """
    x_from = as_vector(x_from, "x_from")
    if x_from.size != piece.n:
        raise DimensionMismatchError(f"x_from dim {x_from.size} != piece dim {piece.n}")
    if np.linalg.norm(x_from - piece.anchor) <= ZERO_STATE_TOL:
        return PieceSolution(
            piece_index=piece_index,
            u_schedule=None,
            transfer_time=0.0,
            switch_times=(),
            hamiltonian=0.0,
            psi0=AdjointState(psi=np.eye(piece.n)[0], t=0.0),
        )
    if piece.n == 1:
        return _scalar_transfer(piece, x_from, bounds, piece_index)
    return _shooting_transfer(piece, x_from, bounds, piece_index, t_max)


def _scalar_transfer(piece, x_from, bounds, piece_index):
    a = float(piece.A[0, 0])
    x0 = float(x_from[0])
    xf = float(piece.anchor[0])
    best = None
    diagnostics = []
    for psi0 in (1.0, -1.0):
        u_star = extremal_control(piece, np.array([psi0]), bounds)
        drive = float(piece.B[0] @ u_star)
        t = _scalar_time(a, x0, xf, drive)
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
    schedule = ControlSchedule.constant(u_star, 0.0, t)
    h = hamiltonian(piece, np.array([psi0]), x_from, u_star)
    return PieceSolution(
        piece_index=piece_index,
        u_schedule=schedule,
        transfer_time=t,
        switch_times=(),
        hamiltonian=h,
        psi0=AdjointState(psi=np.array([psi0]), t=0.0),
    )


def _scalar_time(a, x0, xf, drive):
    """Transfer time for dx/dt = a x + drive, or None when unreachable.

    The log formula needs a x + drive to keep one sign over the whole path;
    equivalently both endpoint speeds must share the direction of travel.
    """
    s0 = a * x0 + drive
    sf = a * xf + drive
    if a == 0.0:
        if drive == 0.0:
            return None
        t = (xf - x0) / drive
        return t if t > 0.0 else None
    if s0 == 0.0 or sf == 0.0 or np.sign(s0) != np.sign(sf):
        return None
    t = np.log(sf / s0) / a
    return t if t > 0.0 else None


def _angles_to_direction(angles):
    """Spherical angles (n-1 of them) to a unit vector in R^n."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    n = angles.size + 1
    direction = np.ones(n)
    for i, th in enumerate(angles):
        direction[i] *= np.cos(th)
        direction[i + 1 :] *= np.sin(th)
    return direction


def _sphere_directions(n, count, seed=0):
    """Quasi-uniform unit directions: axes plus seeded random samples."""
    rng = np.random.default_rng(seed)
    dirs = list(np.eye(n)) + list(-np.eye(n))
    raw = rng.normal(size=(count, n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    dirs.extend(raw)
    return dirs


def _affine_transition(A, dt):
    """(Phi, G) with x(dt) = Phi x(0) + G v under dx/dt = A x + v, v constant.

    Both blocks come from one augmented exponential (Van Loan, IEEE TAC 1978):
    expm([[A dt, I dt], [0, 0]]) = [[Phi, G], [0, I]], G = int_0^dt expm(A s) ds.
    """
    n = A.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = A * dt
    M[:n, n:] = np.eye(n) * dt
    E = expm(M)
    return E[:n, :n], E[:n, n:]


def _costate_grid(piece, psi0, horizon, samples):
    """psi(t_i) = expm(-A^T t_i) psi0 on ``samples`` uniform times over [0, horizon].

    The grid is filled by doubling: with S_m = expm(-A^T m h), the block
    psis[m:2m] is psis[:m] @ S_m^T, and S_2m = S_m S_m.
    """
    ts = np.linspace(0.0, horizon, samples)
    step = expm(-piece.A.T * (ts[1] - ts[0]))
    psis = np.empty((samples, piece.n))
    psis[0] = psi0
    m = 1
    while m < samples:
        k = min(m, samples - m)
        psis[m : m + k] = psis[:k] @ step.T
        step = step @ step
        m += k
    return ts, psis


def _switch_times(piece, psi0, horizon, samples=2001):
    """Zero crossings of each component of B^T psi(t) on [0, horizon]."""
    ts, psis = _costate_grid(piece, psi0, horizon, samples)

    def psi(t):
        return expm(-piece.A.T * float(t)) @ psi0

    gains = psis @ piece.B  # (samples, r)
    switches = []
    for j in range(gains.shape[1]):
        g = gains[:, j]
        idx = np.where(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
        for i in idx:
            lo, hi = ts[i], ts[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if np.sign((piece.B.T @ psi(mid))[j]) == np.sign(g[i]):
                    lo = mid
                else:
                    hi = mid
            switches.append(0.5 * (lo + hi))
    return sorted(switches), psi


def _propagate_segment(piece, x, u, dt):
    """Exact state propagation under constant control."""
    phi, gain = _affine_transition(piece.A, dt)
    return phi @ x + gain @ (piece.B @ u)


def _terminal_state(piece, x_from, bounds, psi0, T):
    """State at time T under the bang-bang control induced by psi0."""
    if T <= 0.0:
        return x_from, [], None
    switches, psi = _switch_times(piece, psi0, T)
    knots = [0.0] + [s for s in switches if 0.0 < s < T] + [T]
    x = x_from.copy()
    controls = []
    for lo, hi in zip(knots, knots[1:]):
        u = extremal_control(piece, psi(0.5 * (lo + hi)), bounds)
        x = _propagate_segment(piece, x, u, hi - lo)
        controls.append((lo, hi, u))
    return x, controls, psi


def _scan_directions(piece, x_from, bounds, directions, t_max, steps):
    """Best miss distance and its time over a coarse sweep, for every costate ray.

    All rays advance together as rows of (D, n) state and costate arrays.  The
    control is re-evaluated once per step, so a switch inside a step is only
    located to step resolution; the polish stage fixes that.  A row that
    leaves the finite, <= BLOWUP_LIMIT region stops updating from that step
    on.  Rows that never take a finite step keep miss inf and time nan.
    """
    h = t_max / steps
    phi, gain = _affine_transition(piece.A, h)
    psi_step = expm(-piece.A.T * h)
    drive = gain @ piece.B  # (n, r)
    psis = np.array(directions, dtype=float)
    xs = np.tile(x_from, (psis.shape[0], 1))
    best_miss = np.full(psis.shape[0], np.inf)
    best_t = np.full(psis.shape[0], np.nan)
    alive = np.ones(psis.shape[0], dtype=bool)
    for i in range(steps):
        us = np.where(psis @ piece.B < 0.0, bounds.lower, bounds.upper)
        xs = xs @ phi.T + us @ drive.T
        psis = psis @ psi_step.T
        alive &= np.all(np.abs(xs) <= BLOWUP_LIMIT, axis=1)  # False for inf and nan
        xs[~alive] = 0.0
        miss = np.linalg.norm(xs - piece.anchor, axis=1)
        better = alive & (miss < best_miss)
        best_miss[better] = miss[better]
        best_t[better] = (i + 1) * h
    return best_miss, best_t


def _shooting_transfer(piece, x_from, bounds, piece_index, t_max):
    n = piece.n
    if t_max is None:
        scale = max(np.linalg.norm(piece.A, 2), 1e-6)
        dist = np.linalg.norm(x_from - piece.anchor)
        speed = max(
            min(np.linalg.norm(piece.B @ v) for v in bounds.vertices()), 1e-6
        )
        t_max = max(10.0 * dist / speed, 10.0 / scale, 10.0 * piece.span)

    directions = _sphere_directions(n, 64 * n)
    misses, times = _scan_directions(piece, x_from, bounds, directions, t_max, SCAN_STEPS)
    candidates = [
        (miss, t_at, d) for miss, t_at, d in zip(misses, times, directions) if not np.isnan(t_at)
    ]
    candidates.sort(key=lambda c: c[0])
    best_residual = candidates[0][0] if candidates else np.inf

    for miss, t_at, d in candidates[:8]:
        angles0 = _direction_to_angles(d)

        def residual(z):
            psi0 = _angles_to_direction(z[:-1])
            T = abs(z[-1])
            xT, _, _ = _terminal_state(piece, x_from, bounds, psi0, T)
            return xT - piece.anchor

        try:
            sol = least_squares(
                residual,
                np.append(angles0, t_at),
                xtol=1e-14,
                ftol=1e-14,
                gtol=1e-14,
                max_nfev=400,
            )
        except Exception:
            continue
        res_norm = np.linalg.norm(sol.fun)
        best_residual = min(best_residual, res_norm)
        if res_norm < TERMINAL_TOL:
            # unit length, with the sign the polish converged to: flipping it
            # would flip the control
            raw = _angles_to_direction(sol.x[:-1])
            psi0 = raw / np.linalg.norm(raw)
            T = abs(sol.x[-1])
            xT, controls, psi = _terminal_state(piece, x_from, bounds, psi0, T)
            schedule = ControlSchedule(tuple(controls))
            switch_ts = tuple(hi for (_, hi, _) in controls[:-1])
            u0 = controls[0][2]
            h = hamiltonian(piece, psi0, x_from, u0)
            return PieceSolution(
                piece_index=piece_index,
                u_schedule=schedule,
                transfer_time=T,
                switch_times=switch_ts,
                hamiltonian=h,
                psi0=AdjointState(psi=psi0, t=0.0),
            )
    raise ShootingError(
        f"costate shooting missed the target (best residual {best_residual:.3e})",
        best_residual=best_residual,
    )


def _direction_to_angles(direction):
    """Inverse of :func:`_angles_to_direction` (principal branch)."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    n = d.size
    angles = np.zeros(n - 1)
    for i in range(n - 1):
        tail = np.linalg.norm(d[i:])
        if tail == 0.0:
            angles[i:] = 0.0
            break
        angles[i] = np.arccos(np.clip(d[i] / tail, -1.0, 1.0))
    if n >= 2 and d[-1] < 0.0:
        angles[-1] = 2.0 * np.pi - angles[-1]
    return angles
