"""Per-piece maximum-principle machinery.

For each linear piece the extremal control maximizes psi^T B u over the
control box, the costate obeys d(psi)/dt = -A^T psi, and the minimal-time
transfer to the piece anchor is computed in closed form for scalar state or,
for n >= 2, by solving for the durations of bang arcs and certifying the
answer with a costate.  The costate is fixed only up to positive scale, so
initial costates are normalized to unit length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
# An arc-duration solve also ends when a step that the model predicted well
# lowers the cost by less than this fraction of itself.  Near a root
# Gauss-Newton cuts the cost by orders of magnitude per step, so only a solve
# that stalls short of the anchor ends this way.
STALL_FTOL = 1e-4
# ... and when the Coleman-Li scaled gradient falls below this: the residual
# has reached zero to rounding.
GRADIENT_TOL = 1e-15
# Length, in scan steps, of the opposite-vertex arc that a seed adds in front or behind.
SHORT_ARC = 0.5
# Arcs no longer than this (time units) are dropped from a solved arc
# sequence when the shorter sequence still ends at the anchor.
SHORT_DROP = 1e-4
# Samples of the costate grid on which a certificate checks the switching
# function, and the violation it forgives on a row scaled to unit length.
CERT_SAMPLES = 2001
CERT_TOL = 1e-6


class LeastSquaresResult(NamedTuple):
    """Solved durations ``x``, their residuals ``fun`` and the evaluations spent."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int


# The shooting solver calls ``expm`` and this solver through their module
# names here, so that a tracer can count them.
def least_squares(flow, x0):
    """Durations d >= 0 near x0 that minimise the cost |r(d)|^2 / 2.

    ``flow(d)`` returns the residuals r and their Jacobian from one pass.  This
    is a trust region on the one bound d >= 0 with Coleman & Li's scaling
    (SIAM J. Optim. 6, 1996), as scipy's ``trf`` takes it, cut down to the
    few unknowns of an arc sequence.  Each iteration scales the Gauss-Newton
    model by the distance to the bound that the gradient points at, and
    solves its trust-region subproblems (:func:`_trust_region_step`) from one
    SVD.  A step that would cross d = 0 is cut there and pulled back to theta
    of that; nothing is reflected off the bound.  A solve ends after MAX_NFEV
    evaluations, when the scaled gradient vanishes (GRADIENT_TOL), or when a
    step whose actual cost reduction is more than a quarter of the predicted
    one lowers the cost by less than STALL_FTOL of itself.  ``nfev`` counts
    every evaluation, rejected trial steps included.
    """
    x = np.maximum(np.asarray(x0, dtype=float), 1e-10)  # strictly inside the bound
    f, J = flow(x)
    nfev = 1
    cost = 0.5 * (f @ f)
    g = J.T @ f
    radius = _norm(x / np.sqrt(np.where(g > 0.0, x, 1.0))) or 1.0
    stalled = False
    while nfev < MAX_NFEV and not stalled:
        # v is the distance to d = 0 where the gradient points at the bound
        toward = g > 0.0
        v = np.where(toward, x, 1.0)
        g_norm = np.abs(g * v).max()
        if not g_norm >= GRADIENT_TOL:  # also a residual that is not finite
            break
        scale = np.sqrt(v)
        diag_h = np.where(toward, g, 0.0)
        g_h = scale * g
        J_h = J * scale
        augmented = np.vstack([J_h, np.diag(np.sqrt(diag_h))])
        u, s, vt = np.linalg.svd(augmented, full_matrices=False)
        uf = u[: f.size].T @ f
        theta = max(0.995, 1.0 - g_norm)  # how far short of the bound a step stops
        reduction = -1.0
        while reduction <= 0.0 and nfev < MAX_NFEV:
            p_h = _trust_region_step(uf, s, vt, radius)
            step = scale * p_h
            if not (x + step >= 0.0).all():
                cut = theta * _to_bound(x, step)
                step, p_h = step * cut, p_h * cut
            predicted = -_model(J_h, diag_h, g_h, p_h)
            x_new = np.maximum(x + step, np.nextafter(0.0, 1.0))
            f_new, J_new = flow(x_new)
            nfev += 1
            step_h_norm = _norm(p_h)
            if not np.isfinite(f_new).all():
                radius = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * (f_new @ f_new)
            reduction = cost - cost_new
            ratio = reduction / predicted if predicted > 0.0 else 0.0
            if ratio > 0.25 and reduction < STALL_FTOL * cost:
                stalled = True
                break
            if ratio < 0.25:
                radius = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * radius:
                radius = 2.0 * radius
        if reduction > 0.0:
            x, f, J, cost = x_new, f_new, J_new, cost_new
            g = J.T @ f
    return LeastSquaresResult(x, f, nfev)


def _trust_region_step(uf, s, vt, radius):
    """The least-squares step p with |p| <= radius.

    The model is the augmented system of SVD u diag(s) vt, and uf = u^T f;
    directions with s <= eps * s.size * s[0] are dropped.  When the least-norm
    Gauss-Newton step fits, it is the answer.  Otherwise the Levenberg-Marquardt
    step p(alpha) = -vt^T (s uf / (s^2 + alpha)) is put on the radius by Newton
    steps on 1/|p(alpha)| from alpha = 0 (Reinsch, Numer. Math. 16, 1971;
    Hebden, 1973).  That function is concave, so the iterates rise to the root
    without a bracket.  They stop within 1 % of the radius, or after 10 steps,
    and that p is scaled onto the radius.
    """
    keep = s > np.finfo(float).eps * s.size * s[0]
    s, vt, suf = s[keep], vt[keep], s[keep] * uf[keep]
    alpha, q = 0.0, suf / s**2
    q_norm = _norm(q)
    if q_norm <= radius:
        return -vt.T @ q
    for _ in range(10):
        if q_norm - radius < 0.01 * radius:
            break
        alpha += (q_norm - radius) / radius * q_norm**2 / np.sum(suf**2 / (s**2 + alpha) ** 3)
        q = suf / (s**2 + alpha)
        q_norm = _norm(q)
    return vt.T @ q * (-radius / q_norm)


def _to_bound(x, step):
    """The least t >= 0 with x + t step on d = 0 (inf if none)."""
    strides = np.full(x.size, np.inf)
    down = step < 0.0
    strides[down] = -x[down] / step[down]
    return strides.min()


def _norm(v):
    """Euclidean length of a 1-D array: np.linalg.norm's arithmetic, without its overhead."""
    return math.sqrt(v @ v)


def _model(J_h, diag_h, g_h, p_h):
    """The scaled model m(p_h) = |J_h p_h|^2 / 2 + p_h^T diag(diag_h) p_h / 2 + g_h^T p_h.

    A scaled step p_h maps to the step scale * p_h in the durations.
    """
    Jp = J_h @ p_h
    return 0.5 * (Jp @ Jp + (p_h * diag_h) @ p_h) + p_h @ g_h


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
) -> PieceSolution:
    """Minimal-time transfer from x_from to the piece anchor.

    Scalar state uses the closed-form logarithmic transfer time under the
    feasible costate ray, and raises :class:`InfeasibleTransferError` when
    no vertex control reaches the target.  For n >= 2 a batched scan of unit
    costate rays over [0, t_max] seeds arc sequences on box vertices.  The
    horizon t_max is ten times the longest of three time scales: the distance
    to the anchor over the slowest vertex drive |B v|, 1/||A||_2 and the
    piece's span (drive and norm floored at 1e-6).  The arcs' durations are
    solved so that the bang-bang trajectory ends at the anchor.
    A solution counts only with a certificate: a unit initial costate whose
    switching function has each arc's vertex sign, vanishes at the switches
    and gives H >= 0.  The least certified transfer time is returned;
    :class:`ShootingError` names the best uncertified one when none is
    certified.
    """
    x_from = as_vector(x_from, "x_from")
    if x_from.size != piece.n:
        raise DimensionMismatchError(f"x_from dim {x_from.size} != piece dim {piece.n}")
    if bounds.r != piece.r:
        raise DimensionMismatchError(f"bounds dim {bounds.r} != piece input dim {piece.r}")
    if np.linalg.norm(x_from - piece.anchor) <= ZERO_STATE_TOL:
        return PieceSolution(
            u_schedule=None, transfer_time=0.0, hamiltonian=0.0, psi0=AdjointState(np.eye(piece.n)[0])
        )
    if piece.n == 1:
        return _scalar_transfer(piece, x_from, bounds)
    return _shooting_transfer(piece, x_from, bounds)


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

    ``a``, ``x0`` and ``xf`` are arrays of one entry per row and ``B`` one
    row of r gains; the callers check that the box has r components.  Each
    costate ray psi0 = +1, -1 drives with the vertex control that maximises
    psi0 B u; the ray +1 wins ties.  With the start speed
    s0 = a x0 + drive and z = a (xf - x0) / s0, the time to xf is
    T = (xf - x0) / s0 * log1p(z) / z, the factor read as 1 at z = 0.  That
    is log(sf / s0) / a without its cancellation at small |a|, and
    (xf - x0) / drive at a = 0.  A ray reaches xf iff T is finite and
    positive and z > -1: the speed keeps its sign along the path.  Returns
    the arrays T, u*, psi0 and H = psi0 (a x0 + B u*).  A row with
    |x0 - xf| <= ZERO_STATE_TOL is trivial (T = 0, psi0 = +1, H = 0); a row
    that neither ray can reach has T = nan.
    """
    dist = xf - x0
    rays = []
    with np.errstate(all="ignore"):
        for psi0 in (1.0, -1.0):
            u = np.where(B * psi0 < 0.0, bounds.lower, bounds.upper)
            drive = (B * u).sum(axis=1)
            s0 = a * x0 + drive
            z = a * dist / s0
            t = dist / s0 * np.where(z == 0.0, 1.0, np.log1p(z) / z)
            reach = np.isfinite(t) & (t > 0.0) & (z > -1.0)
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
    """Quasi-uniform unit directions (2n + count, n): axes plus seeded random samples."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return np.vstack([np.eye(n), -np.eye(n), raw])


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
    """Best miss, its time and the controls held, for every costate ray, after each prefix.

    Yields (best_miss, best_t, controls) over the first ``prefixes[j]`` steps
    of size h, for increasing prefixes of one sweep; a caller that stops
    early saves the rest.  ``controls`` (steps, rays, r) holds the extremal
    control that each ray held on each step.  All rays advance together as
    rows of (D, n) state and costate arrays.  The control is re-evaluated
    once per step, so a switch inside a step is only located to step
    resolution; the arc-duration solve fixes that.  A row that leaves the
    finite, <= BLOWUP_LIMIT region stops updating from that step on.  Rows
    that never take a finite step keep miss inf and time nan.
    """
    phi, gain = affine_transition(piece.A, h)
    psi_step = expm(-piece.A.T * h)
    drive = gain @ piece.B  # (n, r)
    psis = np.array(directions, dtype=float)
    xs = np.tile(x_from, (psis.shape[0], 1))
    controls = np.empty((prefixes[-1], psis.shape[0], piece.r))
    best_sq = np.full(psis.shape[0], np.inf)  # squared misses: one sqrt per yield
    best_t = np.full(psis.shape[0], np.nan)
    alive = np.ones(psis.shape[0], dtype=bool)
    for i in range(prefixes[-1]):
        controls[i] = np.where(psis @ piece.B < 0.0, bounds.lower, bounds.upper)
        xs = xs @ phi.T + controls[i] @ drive.T
        psis = psis @ psi_step.T
        alive &= np.all(np.abs(xs) <= BLOWUP_LIMIT, axis=1)  # False for inf and nan
        xs[~alive] = 0.0
        offset = xs - piece.anchor
        sq = (offset * offset).sum(axis=1)
        better = alive & (sq < best_sq)
        best_sq[better] = sq[better]
        best_t[better] = (i + 1) * h
        if i + 1 in prefixes:
            yield np.sqrt(best_sq), best_t.copy(), controls[: i + 1]


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
    # one switch leaves no residual of its own: build its rows only with two or more
    rows_needed = A.shape[0] == 2 and (vertices[1:] != vertices[:-1]).sum() > 1
    for i, (v, phi, gain) in enumerate(zip(vertices, transitions, gains)):
        drive = piece.B @ v
        x = phi @ x + gain @ drive
        velocities.append(A @ x + drive)
        carry = phi @ carry
        if rows_needed and i + 1 < len(vertices):
            try:
                rows = np.linalg.solve(carry, piece.B)  # expm(-A t_i) B
            except np.linalg.LinAlgError:  # expm(A t_i) underflowed: reject the trial
                return np.full(x.size, np.nan), np.full((x.size, len(vertices)), np.nan)
            switches += [(i, rows[:, k]) for k in np.flatnonzero(v != vertices[i + 1])]
    jac = np.zeros((x.size + max(len(switches) - 1, 0), len(vertices)))
    carry = np.eye(x.size)
    for i in reversed(range(len(vertices))):
        jac[: x.size, i] = carry @ velocities[i]
        carry = carry @ transitions[i]
    residuals = [x - piece.anchor]
    for row, (j, c) in enumerate(switches[1:], start=x.size):
        i, a = switches[0]
        scale = _norm(a) * _norm(c)
        residuals.append([_det(a, c) / scale])
        jac[row, : i + 1] += _det(-A @ a, c) / scale
        jac[row, : j + 1] += _det(a, -A @ c) / scale
    return np.concatenate(residuals), jac


def _det(a, c):
    return a[0] * c[1] - a[1] * c[0]


def _fit_durations(piece, x_from, vertices, durations):
    """Arc durations >= 0 that zero the residuals of :func:`_arc_flow`, and the
    end state's miss of the anchor."""
    sol = least_squares(lambda d: _arc_flow(piece, x_from, vertices, d), durations)
    return sol.x, _norm(sol.fun[: piece.n])


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
    switches only check it).  When they leave a plane of free psi0 (for
    n = 2, an arc with no switch), psi0 is the :func:`_arc_bisector` of the
    rows projected onto that plane: the one choice of a costate that is not
    unique, and it needs no solver.  A free set of dimension 3 or more
    (n >= 3) is searched by a linear program, the only use of scipy here.
    """
    n = piece.n
    ends = np.cumsum(durations)
    # sigma_k(t) = (expm(-A t) B_k)^T psi0: one row per component k that switches at t
    switch_rows = np.swapaxes(expm(-piece.A * ends[:-1, None, None]) @ piece.B, 1, 2)
    _, s, vt = np.linalg.svd(_unit_rows(switch_rows[vertices[1:] != vertices[:-1]]))
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
    elif free.shape[0] == 2:
        candidates = _arc_bisector(rows @ free.T) @ free
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


def _arc_bisector(points):
    """The unit bisector (1, 2) of the least arc of the circle that holds the
    directions of the 2-D ``points``; (0, 2) when none is longer than CERT_TOL.

    Shorter points are dropped.  If that arc is no wider than pi, the bisector
    is within pi/2 of every direction, so its product with each point is >= 0.
    """
    points = points[np.hypot(points[:, 0], points[:, 1]) > CERT_TOL]
    angles = np.sort(np.arctan2(points[:, 1], points[:, 0]))
    if not angles.size:
        return np.empty((0, 2))
    # the arc is the circle less the widest gap between neighbouring angles
    gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
    j = gaps.argmax()
    middle = angles[j] - (2.0 * np.pi - gaps[j]) / 2.0
    return np.array([[np.cos(middle), np.sin(middle)]])


def _unit_rows(rows):
    """``rows`` scaled to unit length, all-zero rows dropped."""
    norms = np.linalg.norm(rows, axis=1)
    return rows[norms > 0.0] / norms[norms > 0.0, None]


def _seeds(bounds, misses, times, controls, h, max_switches):
    """Arc sequences (vertices, durations) to solve, one per vertex sequence.

    Each of the SEED_RAYS closest rays gives the arcs that it held in the
    scan's ``controls`` up to its best time, and the same with a short arc on
    the opposite vertex in front or behind, for a first or last arc shorter
    than a scan step h.  Every scanned duration is a whole number of steps.
    A sequence in which some control component switches more than
    ``max_switches`` times (None: no bound) is left out; the first ray to
    give a vertex sequence sets its durations.
    """
    rays = [i for i in np.argsort(misses, kind="stable") if not np.isnan(times[i])][:SEED_RAYS]
    seeds = {}
    for j in rays:
        count = int(np.rint(times[j] / h))
        u = controls[:count, j]
        starts = np.flatnonzero(np.r_[True, (u[1:] != u[:-1]).any(axis=1)])
        vertices, durations = u[starts], np.diff(np.r_[starts, count]) * h
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


def _shooting_transfer(piece, x_from, bounds):
    n = piece.n
    scale = max(np.linalg.norm(piece.A, 2), 1e-6)
    dist = np.linalg.norm(x_from - piece.anchor)
    speed = max(min(np.linalg.norm(piece.B @ v) for v in bounds.vertices()), 1e-6)
    t_max = max(10.0 * dist / speed, 10.0 / scale, 10.0 * piece.span)

    directions = _sphere_directions(n, 64 * n)
    h = t_max / SCAN_STEPS
    # Feldbaum: with real eigenvalues each control component switches at most n - 1 times
    real = not np.iscomplex(np.linalg.eigvals(piece.A)).any()
    best = None  # (T, vertices, durations, psi0) of the least certified T
    closest = (np.inf, np.nan)  # (miss, T) of the best uncertified candidate
    tried, seen = set(), 0.0  # vertex sequences solved so far, and the horizon they saw
    prefixes = _scan_directions(piece, x_from, bounds, directions, h, SCAN_PREFIXES)
    for steps, (misses, times, controls) in zip(SCAN_PREFIXES, prefixes):
        if steps < SCAN_STEPS:
            # a ray still closing in at the prefix's end has not made its approach yet
            times = np.where(times < steps * h, times, np.nan)
        seeds = _seeds(bounds, misses, times, controls, h, n - 1 if real else None)
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
