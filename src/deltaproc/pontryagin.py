"""Per-piece maximum-principle machinery.

For each linear piece the extremal control maximizes psi^T B u over the
control box, the costate obeys d(psi)/dt = -A^T psi, and the minimal-time
transfer to the piece anchor is computed in closed form for scalar state or,
for n >= 2, by solving for the durations of bang arcs and certifying the
answer with a costate.  The costate is fixed only up to positive scale, so
initial costates are normalized to unit length.
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
# Scanned rays, closest first, whose bang arcs seed the arc-duration solve.
SEED_RAYS = 8
# Step counts of the scan prefixes searched in turn, shortest first: a ray
# that passes near the anchor late must not crowd out one that reaches it early.
SCAN_PREFIXES = (SCAN_STEPS // 16, SCAN_STEPS // 4, SCAN_STEPS)
# Residual evaluations allowed to one arc-duration solve.
MAX_NFEV = 20
# Length, in scan steps, of the opposite-vertex arc that a seed adds in front or behind.
SHORT_ARC = 0.5
# Arcs no longer than this (time units) are dropped from a solved arc
# sequence when the shorter sequence still ends at the anchor.
SHORT_DROP = 1e-4
# Samples of the costate grid on which a certificate checks the switching
# function, and the violation it forgives on a row scaled to unit length.
CERT_SAMPLES = 2001
CERT_TOL = 1e-6


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
    feasible costate ray, and raises :class:`InfeasibleTransferError` when
    no vertex control reaches the target.  For n >= 2 a batched scan of unit
    costate rays over [0, t_max] seeds arc sequences on box vertices; their
    durations are solved so that the bang-bang trajectory ends at the anchor.
    A solution counts only with a certificate: a unit initial costate whose
    switching function has each arc's vertex sign, vanishes at the switches
    and gives H >= 0.  The least certified transfer time is returned;
    :class:`ShootingError` names the best uncertified one when none is
    certified.
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

    ``psi0`` is one costate (n,) or a stack of them (m, n); the grid has shape
    (samples,) + psi0.shape.  It is filled by doubling: with
    S_m = expm(-A^T m h), the block psis[m:2m] is psis[:m] @ S_m^T, and
    S_2m = S_m S_m.
    """
    psi0 = np.asarray(psi0, dtype=float)
    ts = np.linspace(0.0, horizon, samples)
    step = expm(-piece.A.T * (ts[1] - ts[0]))
    psis = np.empty((samples,) + psi0.shape)
    psis[0] = psi0
    m = 1
    while m < samples:
        k = min(m, samples - m)
        psis[m : m + k] = psis[:k] @ step.T
        step = step @ step
        m += k
    return ts, psis


def _scan_directions(piece, x_from, bounds, directions, h, prefixes):
    """Best miss distance and its time for every costate ray, after each prefix.

    Yields (best_miss, best_t) over the first ``prefixes[j]`` steps of size h,
    for increasing prefixes of one sweep; a caller that stops early saves the
    rest.  All rays advance together as rows of (D, n) state and costate
    arrays.  The control is re-evaluated once per step, so a switch inside a
    step is only located to step resolution; the arc-duration solve fixes
    that.  A row that leaves the finite, <= BLOWUP_LIMIT region stops
    updating from that step on.  Rows that never take a finite step keep miss
    inf and time nan.
    """
    phi, gain = affine_transition(piece.A, h)
    psi_step = expm(-piece.A.T * h)
    drive = gain @ piece.B  # (n, r)
    psis = np.array(directions, dtype=float)
    xs = np.tile(x_from, (psis.shape[0], 1))
    best_miss = np.full(psis.shape[0], np.inf)
    best_t = np.full(psis.shape[0], np.nan)
    alive = np.ones(psis.shape[0], dtype=bool)
    for i in range(prefixes[-1]):
        us = np.where(psis @ piece.B < 0.0, bounds.lower, bounds.upper)
        xs = xs @ phi.T + us @ drive.T
        psis = psis @ psi_step.T
        alive &= np.all(np.abs(xs) <= BLOWUP_LIMIT, axis=1)  # False for inf and nan
        xs[~alive] = 0.0
        miss = np.linalg.norm(xs - piece.anchor, axis=1)
        better = alive & (miss < best_miss)
        best_miss[better] = miss[better]
        best_t[better] = (i + 1) * h
        if i + 1 in prefixes:
            yield best_miss.copy(), best_t.copy()


def _ray_arcs(piece, bounds, rays, times, h):
    """The bang arcs (vertices, durations) that each scanned ray follows up to its best time.

    Step i holds the extremal control at the step's start, as in
    :func:`_scan_directions`, so every duration is a whole number of steps h.
    """
    counts = np.rint(np.asarray(times) / h).astype(int)
    _, psis = _costate_grid(piece, rays, counts.max() * h, counts.max() + 1)
    controls = np.where(psis @ piece.B < 0.0, bounds.lower, bounds.upper)  # (steps, rays, r)
    for j, count in enumerate(counts):
        u = controls[:count, j]
        starts = np.flatnonzero(np.r_[True, (u[1:] != u[:-1]).any(axis=1)])
        yield u[starts], np.diff(np.r_[starts, count]) * h


def _arc_flow(piece, x_from, vertices, durations):
    """Residuals of bang arcs and their Jacobian with respect to the arc durations.

    Arc i holds vertex v_i for durations[i], and its affine transition (one
    batched call for all arcs) carries the state across it.  The first n
    residuals are the end state minus the anchor; d x_T / d durations[i] is
    arc i's end velocity A x_i + B v_i, carried to T by the later arcs'
    transitions.  For n = 2 the first switch
    fixes the costate up to sign, and each later switch adds the residual
    det(s_1, s_j) / (|s_1| |s_j|): s_j = expm(-A t_j) B_k is the switching
    row of the component k that switches at t_j, and d s_j / d t_j = -A s_j.
    (The Jacobian holds the scale |s_1| |s_j| fixed, which is exact at a root.)
    """
    A = piece.A
    x, carry = x_from, np.eye(A.shape[0])
    transitions, gains = affine_transition(A, durations)
    velocities, switches = [], []
    for i, (v, phi, gain) in enumerate(zip(vertices, transitions, gains)):
        drive = piece.B @ v
        x = phi @ x + gain @ drive
        velocities.append(A @ x + drive)
        carry = phi @ carry
        if A.shape[0] == 2 and i + 1 < len(vertices):
            rows = np.linalg.solve(carry, piece.B)  # expm(-A t_i) B
            switches += [(i, rows[:, k]) for k in np.flatnonzero(v != vertices[i + 1])]
    jac = np.zeros((x.size + max(len(switches) - 1, 0), len(vertices)))
    carry = np.eye(x.size)
    for i in reversed(range(len(vertices))):
        jac[: x.size, i] = carry @ velocities[i]
        carry = carry @ transitions[i]
    residuals = [x - piece.anchor]
    for row, (j, c) in enumerate(switches[1:], start=x.size):
        i, a = switches[0]
        scale = np.linalg.norm(a) * np.linalg.norm(c)
        residuals.append([_det(a, c) / scale])
        jac[row, : i + 1] += _det(-A @ a, c) / scale
        jac[row, : j + 1] += _det(a, -A @ c) / scale
    return np.concatenate(residuals), jac


def _det(a, c):
    return a[0] * c[1] - a[1] * c[0]


def _fit_durations(piece, x_from, vertices, durations):
    """Arc durations >= 0 that zero the residuals of :func:`_arc_flow`, and the
    end state's miss of the anchor.  ``least_squares`` gets the analytic
    Jacobian from the same forward pass as the residuals."""
    memo = [None, None]  # the durations last flowed, and their flow

    def flow(d):
        if memo[0] is None or not np.array_equal(memo[0], d):
            memo[:] = d.copy(), _arc_flow(piece, x_from, vertices, d)
        return memo[1]

    sol = least_squares(
        lambda d: flow(d)[0],
        durations,
        jac=lambda d: flow(d)[1],
        bounds=(0.0, np.inf),
        xtol=1e-15,
        ftol=1e-10,  # stops a solve that stalls short of the anchor
        gtol=1e-15,
        max_nfev=MAX_NFEV,
    )
    return sol.x, float(np.linalg.norm(sol.fun[: piece.n]))


def _merge_arcs(vertices, durations):
    """Drop arcs no longer than SHORT_DROP and merge neighbours on one vertex."""
    keep = durations > SHORT_DROP
    vertices, durations = vertices[keep], durations[keep]
    if not durations.size:
        return vertices, durations
    starts = np.flatnonzero(np.r_[True, (vertices[1:] != vertices[:-1]).any(axis=1)])
    return vertices[starts], np.add.reduceat(durations, starts)


def _certificate(piece, bounds, x_from, vertices, durations):
    """A unit initial costate under which the bang arcs are extremal, or None.

    The switching function sigma(t) = B^T expm(-A^T t) psi0 must have the sign
    of each arc's vertex (+ at the upper bound, - at the lower) at every
    sample of a :func:`_costate_grid` over [0, T], each component must vanish
    where its control switches, and H = psi0^T (A x0 + B v_1) must be >= 0.
    Each condition is a row that psi0 meets to CERT_TOL after the row is
    scaled to unit length.  The switch rows fix psi0 when they leave one free
    direction (for n = 2 the first switch fixes it up to sign, and later
    switches only check it); when they leave more, a linear program looks
    for psi0 among them.
    """
    n = piece.n
    ends = np.cumsum(durations)
    # sigma_k(t) = (expm(-A t) B_k)^T psi0
    switch_rows = [np.zeros((0, n))]
    for t, v, w in zip(ends[:-1], vertices, vertices[1:]):
        switch_rows.append((expm(-piece.A * t) @ piece.B)[:, v != w].T)
    _, s, vt = np.linalg.svd(_unit_rows(np.concatenate(switch_rows)))
    free = vt[int((s > CERT_TOL).sum()) :]
    if not free.size:
        return None

    ts, grid = _costate_grid(piece, np.eye(n), ends[-1], CERT_SAMPLES)
    arc = np.minimum(np.searchsorted(ends, ts), ends.size - 1)
    signs = np.where(vertices == bounds.upper, 1.0, -1.0)[arc]  # (samples, r)
    # grid[j] @ B holds, in column k, the row of sigma_k(t_j) in psi0
    sign_rows = np.swapaxes((grid @ piece.B) * signs[:, None, :], 1, 2).reshape(-1, n)
    rows = _unit_rows(np.vstack([sign_rows, piece.A @ x_from + piece.B @ vertices[0]]))
    if free.shape[0] == 1:
        candidates = (free[0], -free[0])
    else:
        from scipy.optimize import linprog

        # any psi0 with every row >= 0 and not all rows 0: scale their sum
        projected = rows @ free.T
        lp = linprog(
            np.zeros(free.shape[0]),
            A_ub=-projected,
            b_ub=np.zeros(rows.shape[0]),
            A_eq=projected.sum(axis=0, keepdims=True),
            b_eq=[rows.shape[0]],
            bounds=(None, None),
            method="highs",
        )
        if lp.status != 0:
            return None
        psi0 = lp.x @ free
        candidates = (psi0 / np.linalg.norm(psi0),)
    for psi0 in candidates:
        if (rows @ psi0).min() >= -CERT_TOL:
            return psi0
    return None


def _unit_rows(rows):
    """``rows`` scaled to unit length, all-zero rows dropped."""
    norms = np.linalg.norm(rows, axis=1)
    return rows[norms > 0.0] / norms[norms > 0.0, None]


def _seeds(piece, bounds, directions, misses, times, h, max_switches):
    """Arc sequences (vertices, durations) to solve, one per vertex sequence.

    Each of the SEED_RAYS closest rays gives its arcs, and the same with a
    short arc on the opposite vertex in front or behind, for a first or last
    arc shorter than a scan step h.  A sequence in which some control
    component switches more than ``max_switches`` times (None: no bound) is
    left out; the first ray to give a vertex sequence sets its durations.
    """
    rays = [i for i in np.argsort(misses, kind="stable") if not np.isnan(times[i])][:SEED_RAYS]
    if not rays:
        return []
    seeds = {}
    for vertices, durations in _ray_arcs(piece, bounds, directions[rays], times[rays], h):
        first = np.where(vertices[:1] == bounds.upper, bounds.lower, bounds.upper)
        last = np.where(vertices[-1:] == bounds.upper, bounds.lower, bounds.upper)
        for seed in (
            (vertices, durations),
            (np.vstack([first, vertices]), np.r_[SHORT_ARC * h, durations]),
            (np.vstack([vertices, last]), np.r_[durations, SHORT_ARC * h]),
        ):
            switches = (seed[0][1:] != seed[0][:-1]).sum(axis=0).max(initial=0)
            if max_switches is None or switches <= max_switches:
                seeds.setdefault(seed[0].tobytes(), seed)
    return list(seeds.values())


def _shooting_transfer(piece, x_from, bounds, t_max):
    n = piece.n
    if t_max is None:
        scale = max(np.linalg.norm(piece.A, 2), 1e-6)
        dist = np.linalg.norm(x_from - piece.anchor)
        speed = max(
            min(np.linalg.norm(piece.B @ v) for v in bounds.vertices()), 1e-6
        )
        t_max = max(10.0 * dist / speed, 10.0 / scale, 10.0 * piece.span)

    directions = np.array(_sphere_directions(n, 64 * n))
    h = t_max / SCAN_STEPS
    # Feldbaum: with real eigenvalues each control component switches at most n - 1 times
    real = not np.iscomplex(np.linalg.eigvals(piece.A)).any()
    best = None  # (T, vertices, durations, psi0) of the least certified T
    closest = (np.inf, np.nan)  # (miss, T) of the best uncertified candidate
    tried, seen = set(), 0.0  # vertex sequences solved so far, and the horizon they saw
    prefixes = _scan_directions(piece, x_from, bounds, directions, h, SCAN_PREFIXES)
    for steps, (misses, times) in zip(SCAN_PREFIXES, prefixes):
        if steps < SCAN_STEPS:
            # a ray still closing in at the prefix's end has not made its approach yet
            times = np.where(times < steps * h, times, np.nan)
        seeds = _seeds(piece, bounds, directions, misses, times, h, n - 1 if real else None)
        for vertices, durations in seeds:
            if vertices.tobytes() in tried and durations.sum() <= seen:
                continue  # a shorter prefix seeded this sequence already
            durations, miss = _fit_durations(piece, x_from, vertices, durations)
            if miss <= TERMINAL_TOL:
                # an arc that should vanish stays a little open: the miss
                # grows only with its square
                merged = _merge_arcs(vertices, durations)
                if 0 < merged[1].size < durations.size:
                    refit, refit_miss = _fit_durations(piece, x_from, *merged)
                    if refit_miss <= TERMINAL_TOL:
                        vertices, durations, miss = merged[0], refit, refit_miss
            T = float(durations.sum())
            if best is not None and T >= best[0]:
                continue  # no better than a certified transfer
            psi0 = None
            if miss <= TERMINAL_TOL:
                psi0 = _certificate(piece, bounds, x_from, vertices, durations)
            if psi0 is None:
                closest = min(closest, (miss, T))
            else:
                best = (T, vertices, durations, psi0)
        tried.update(vertices.tobytes() for vertices, _ in seeds)
        seen = steps * h
        if best is not None and best[0] <= seen:
            break
    if best is None:
        miss, T = closest
        raise ShootingError(
            f"costate shooting found no certified transfer (best uncertified T {T:.6g}, "
            f"residual {miss:.3e})",
            best_residual=miss,
        )
    _, vertices, durations, psi0 = best
    ends = np.cumsum(durations)
    return PieceSolution(
        u_schedule=ControlSchedule(tuple(zip(np.r_[0.0, ends[:-1]], ends, vertices))),
        transfer_time=float(ends[-1]),
        hamiltonian=hamiltonian(piece, psi0, x_from, vertices[0]),
        psi0=AdjointState(psi=psi0),
    )
