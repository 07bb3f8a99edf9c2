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

from .dynamics import BLOWUP_LIMIT, ControlBounds, ControlSchedule, LinearPiece, as_vector
from .dynamics import affine_transition, expm
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


# scipy serves only n >= 2 shooting, so it is imported on the first such call
# and scalar runs never load it.  The solver calls ``expm`` and this wrapper
# through their module names here.
def least_squares(fun, x0, **kwargs):
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(fun, x0, **kwargs)


@dataclass(frozen=True)
class AdjointState:
    """An initial costate value; must be nontrivial."""

    psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psi", as_vector(self.psi, "psi"))
        # np.allclose(psi, 0.0) for the finite psi that as_vector leaves
        if not (np.abs(self.psi) > 1e-8).any():
            raise TrivialCostateError("costate must be nonzero")


@dataclass(frozen=True)
class PieceSolution:
    """Minimal-time bang-bang transfer for one piece.

    ``u_schedule`` lives on the local clock [0, transfer_time] and is None for
    the trivial zero-time transfer.  ``hamiltonian`` is the (constant) value
    psi^T (A x + B u) along the optimal trajectory under the unit-normalized
    initial costate.
    """

    u_schedule: ControlSchedule
    transfer_time: float
    hamiltonian: float
    psi0: AdjointState

    @property
    def is_trivial(self):
        return self.u_schedule is None

    @property
    def switch_times(self):
        """Local times at which the control switches: every segment end but the last."""
        if self.is_trivial:
            return ()
        return tuple(end for (_, end, _) in self.u_schedule.segments[:-1])


def adjoint_solve(piece: LinearPiece, psi0):
    """Costate flow psi(t) = expm(-A^T (t - t_start)) psi0 as a callable.

    Scalar pieces use the explicit exponential.  Evaluation is analytic and
    valid for any t.
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
            u_schedule=None, transfer_time=0.0, hamiltonian=0.0, psi0=AdjointState(np.eye(piece.n)[0])
        )
    if piece.n == 1:
        return _scalar_transfer(piece, x_from, bounds)
    return _shooting_transfer(piece, x_from, bounds, t_max)


def _scalar_transfer(piece, x_from, bounds):
    (t,), (u_star,), (psi0,), (h,) = scalar_transfers(
        piece.A[0], piece.B, x_from, piece.anchor, bounds
    )
    if np.isnan(t):
        drives = {
            ray: float(piece.B[0] @ extremal_control(piece, np.array([ray]), bounds))
            for ray in (1.0, -1.0)
        }
        diagnostics = [
            f"costate ray {ray:+g}: drive {drive:g} cannot reach target"
            for ray, drive in drives.items()
        ]
        raise InfeasibleTransferError(
            f"no vertex control transfers x={float(x_from[0]):g} to {float(piece.anchor[0]):g} "
            f"(a={float(piece.A[0, 0]):g}, B={piece.B.ravel()}): " + "; ".join(diagnostics)
        )
    return PieceSolution(
        u_schedule=ControlSchedule.constant(u_star, 0.0, float(t)),
        transfer_time=float(t),
        hamiltonian=float(h),
        psi0=AdjointState(psi=np.array([psi0])),
    )


def scalar_transfers(a, B, x0, xf, bounds):
    """Closed-form minimal transfers of the scalar rows dx/dt = a x + B u.

    ``a``, ``x0`` and ``xf`` hold one entry per row and ``B`` one row of r
    gains.  Each costate ray psi0 = +1, -1 drives with the vertex control
    that maximises psi0 B u; the ray +1 wins ties.  The log formula needs
    a x + drive to keep one sign over the whole path; equivalently both
    endpoint speeds must share the direction of travel.  Returns the arrays
    T, u*, psi0 and H = psi0 (a x0 + B u*).  A row with
    |x0 - xf| <= ZERO_STATE_TOL is trivial (T = 0, psi0 = +1, H = 0); a row
    that neither ray can reach has T = nan.
    """
    a, x0, xf = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, x0, xf))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if bounds.r != B.shape[1]:
        raise DimensionMismatchError(f"bounds dim {bounds.r} != piece input dim {B.shape[1]}")
    linear = a == 0.0
    rays = []
    with np.errstate(all="ignore"):
        for psi0 in (1.0, -1.0):
            u = np.where(B * psi0 < 0.0, bounds.lower, bounds.upper)
            drive = (B * u).sum(axis=1)
            s0 = a * x0 + drive
            sf = a * xf + drive
            t = np.where(linear, (xf - x0) / drive, np.log(sf / s0) / a)
            reach = (t > 0.0) & np.where(linear, drive != 0.0, np.sign(s0) == np.sign(sf))
            rays.append((t, u, drive, reach))
    (t_plus, u_plus, drive_plus, reach_plus), (t_minus, u_minus, drive_minus, reach_minus) = rays
    minus = reach_minus & (~reach_plus | (t_minus < t_plus))
    T = np.where(minus, t_minus, np.where(reach_plus, t_plus, np.nan))
    psi = np.where(minus, -1.0, 1.0)
    H = psi * (a * x0 + np.where(minus, drive_minus, drive_plus))
    trivial = np.abs(x0 - xf) <= ZERO_STATE_TOL
    T[trivial], psi[trivial], H[trivial] = 0.0, 1.0, 0.0
    return T, np.where(minus[:, None], u_minus, u_plus), psi, H


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
        phi, gain = affine_transition(piece.A, hi - lo)
        x = phi @ x + gain @ (piece.B @ u)
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
    phi, gain = affine_transition(piece.A, h)
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


def _shooting_transfer(piece, x_from, bounds, t_max):
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
            return PieceSolution(
                u_schedule=ControlSchedule(tuple(controls)),
                transfer_time=T,
                hamiltonian=hamiltonian(piece, psi0, x_from, controls[0][2]),
                psi0=AdjointState(psi=psi0),
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
