"""Core state-space types, piecewise-linear models, exact replay and RK4 integration.

States and controls are plain 1-D numpy arrays.  A ``PiecewiseLinearModel``
stacks every subinterval's constant ``(A, B)`` pair and its anchor state (the
data state at the subinterval's right knot, which the piece is expected to
transfer to); a ``LinearPiece`` is one such piece on its own.  Dynamics are
always expressed in the original coordinate frame, ``dx/dt = A x + B u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from .errors import DimensionMismatchError, DivergenceError

# Magnitude above which a trajectory is declared divergent.
BLOWUP_LIMIT = 1e12


# Coefficients of the [13/13] Pade approximant to exp, scaled to 1 at k = 0 so
# that a zero matrix gives exactly the identity, and the 1-norm up to which it
# is accurate to double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).
PADE_13 = tuple(
    factorial(26 - k) * factorial(13) / (factorial(26) * factorial(k) * factorial(13 - k))
    for k in range(14)
)
THETA_13 = 5.371920351148152


def expm(a):
    """Matrix exponential of ``a`` (..., n, n), batched over the leading axes.

    Scaling and squaring on the [13/13] Pade approximant: each matrix is scaled
    by its own power of two 2^-s to a 1-norm below THETA_13 and its approximant
    squared s times, so a stacked matrix gets the same result as its own call.
    Raises ``ValueError`` for a non-finite input.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("expm needs a finite matrix")
    s = np.maximum(np.frexp(np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0) / THETA_13)[1], 0)
    a = np.ldexp(a, -s[..., None, None])
    b, ident = PADE_13, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    # the odd and even parts of the numerator; the denominator is v - u
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):
        r = np.where((s > k)[..., None, None], r @ r, r)
    return r


def as_vector(x, name="vector"):
    """Coerce to a finite 1-D float array."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite components: {arr}")
    return arr


@dataclass(frozen=True)
class ControlBounds:
    """Box of admissible controls, lower[i] < upper[i]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", as_vector(self.lower, "lower"))
        object.__setattr__(self, "upper", as_vector(self.upper, "upper"))
        if self.lower.shape != self.upper.shape:
            raise DimensionMismatchError("bounds lower/upper shapes differ")
        if not np.all(self.lower < self.upper):
            raise ValueError("control bounds require lower < upper componentwise")

    @property
    def r(self):
        return self.lower.size

    def contains(self, u, tol=1e-12):
        u = as_vector(u, "control")
        return bool(np.all(u >= self.lower - tol) and np.all(u <= self.upper + tol))

    def vertices(self):
        """All 2^r corner controls of the box."""
        r = self.r
        out = []
        for mask in range(2**r):
            v = np.where([(mask >> i) & 1 for i in range(r)], self.upper, self.lower)
            out.append(v.astype(float))
        return out


@dataclass(frozen=True)
class TimePartition:
    """Strictly increasing knots covering the horizon."""

    knots: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "knots", as_vector(self.knots, "knots"))
        if self.knots.size < 2:
            raise ValueError("a partition needs at least two knots")
        if not np.all(np.diff(self.knots) > 0):
            raise ValueError("partition knots must be strictly increasing")

    @property
    def t0(self):
        return float(self.knots[0])

    @property
    def t1(self):
        return float(self.knots[-1])

    @property
    def num_pieces(self):
        return self.knots.size - 1

    @classmethod
    def uniform(cls, t0, t1, num_pieces):
        return cls(np.linspace(t0, t1, num_pieces + 1))


@dataclass(frozen=True)
class LinearPiece:
    """One subinterval's constant (A, B) model and its target anchor state."""

    A: np.ndarray
    B: np.ndarray
    t_start: float
    t_end: float
    anchor: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.ascontiguousarray(self.A, dtype=float))
        B = np.atleast_2d(np.ascontiguousarray(self.B, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "anchor", as_vector(self.anchor, "anchor"))
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatchError(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise DimensionMismatchError(f"B rows {B.shape[0]} != A size {A.shape[0]}")
        if self.anchor.size != A.shape[0]:
            raise DimensionMismatchError("anchor dimension does not match A")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise ValueError("A and B must be finite")
        if not self.t_start < self.t_end:
            raise ValueError("piece requires t_start < t_end")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def r(self):
        return self.B.shape[1]

    @property
    def span(self):
        return self.t_end - self.t_start


@dataclass(frozen=True)
class PiecewiseLinearModel:
    """Stacked (A, B, anchor) arrays on one partition of the horizon.

    Piece k holds ``A[k]`` (n, n) and ``B[k]`` (n, r) on
    ``[knots[k], knots[k+1]]`` and ends at ``anchors[k]`` (n,).
    """

    partition: TimePartition
    A: np.ndarray        # (N, n, n)
    B: np.ndarray        # (N, n, r)
    anchors: np.ndarray  # (N, n)

    def __post_init__(self):
        A, B, anchors = (
            np.ascontiguousarray(v, dtype=float) for v in (self.A, self.B, self.anchors)
        )
        N = self.partition.num_pieces
        n, r = B.shape[1:] if B.ndim == 3 else (0, 0)
        if not n * r or (A.shape, B.shape, anchors.shape) != ((N, n, n), (N, n, r), (N, n)):
            raise DimensionMismatchError(
                f"a model of {N} pieces needs A (N, n, n), B (N, n, r) and anchors (N, n), "
                f"got {A.shape}, {B.shape} and {anchors.shape}"
            )
        for name, values in (("A", A), ("B", B), ("anchors", anchors)):
            if not np.isfinite(values).all():
                raise ValueError(f"model {name} must be finite")
            object.__setattr__(self, name, values)

    @property
    def n(self):
        return self.A.shape[1]

    @property
    def r(self):
        return self.B.shape[2]

    @cached_property
    def pieces(self):
        """One :class:`LinearPiece` per piece, built when first read."""
        knots = self.partition.knots.tolist()
        return tuple(map(LinearPiece, self.A, self.B, knots[:-1], knots[1:], self.anchors))


@dataclass(frozen=True)
class ControlSchedule:
    """Contiguous segments of constant control: (t_start, t_end, u)."""

    segments: tuple

    def __post_init__(self):
        segs = []
        for (t_start, t_end, u) in self.segments:
            segs.append((float(t_start), float(t_end), as_vector(u, "control")))
        if not segs:
            raise ValueError("schedule needs at least one segment")
        for (a, b, _) in segs:
            if not a < b:
                raise ValueError("segment requires t_start < t_end")
        for (_, e0, _), (s1, _, _) in zip(segs, segs[1:]):
            if not np.isclose(e0, s1, atol=1e-12):
                raise ValueError("schedule segments must be contiguous")
        object.__setattr__(self, "segments", tuple(segs))

    @property
    def t_start(self):
        return self.segments[0][0]

    @property
    def t_end(self):
        return self.segments[-1][1]

    @property
    def duration(self):
        return self.t_end - self.t_start

    def u_at(self, t):
        for (a, b, u) in self.segments:
            if a <= t < b:
                return u
        if np.isclose(t, self.t_end):
            return self.segments[-1][2]
        raise ValueError(f"time {t} outside schedule span [{self.t_start}, {self.t_end}]")

    @classmethod
    def constant(cls, u, t_start, t_end):
        return cls(((t_start, t_end, u),))


@dataclass(frozen=True)
class Trajectory:
    """Sampled time series: times, states, controls and optional derivatives.

    States, controls and derivatives are stored as (samples, dim) arrays; a
    (dim, samples) input is transposed.  Values between samples are
    interpolated linearly, per component.
    """

    t: np.ndarray          # (num_samples,)
    x: np.ndarray          # (num_samples, n)
    u: np.ndarray          # (num_samples, r)
    dx: np.ndarray = None  # (num_samples, n) or None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "t", t)
        for name in ("x", "u", "dx"):
            values = getattr(self, name)
            if values is None:
                continue
            values = np.atleast_2d(np.asarray(values, dtype=float))
            if values.shape[0] != t.size:
                values = values.T
            object.__setattr__(self, name, values)

    @property
    def n(self):
        return self.x.shape[1]

    @property
    def r(self):
        return self.u.shape[1]

    @property
    def t_start(self):
        return float(self.t[0])

    @property
    def t_end(self):
        return float(self.t[-1])

    @property
    def final_state(self):
        return self.x[-1]

    def interp_state(self, t):
        return self._interp(t, self.x)

    def interp_control(self, t):
        return self._interp(t, self.u)

    def interp_derivative(self, t):
        if self.dx is None:
            raise ValueError("record has no derivative column; run estimate_derivatives first")
        return self._interp(t, self.dx)

    def _interp(self, t, values):
        """``values`` at one time, shape (dim,), or at an array of times, (len(t), dim)."""
        return np.stack([np.interp(t, self.t, column) for column in values.T], axis=-1)


def evaluate_rhs(piece: LinearPiece, x, u) -> np.ndarray:
    """Time derivative of the piece model at (x, u), original coordinates.

    The anchor translation cancels in the derivative (d(x - anchor)/dt =
    dx/dt), so the returned value is A x + B u: the form the fit conditions
    interpolate.  This is linear in (x - anchor) and in u for a fixed anchor.
    """
    x = as_vector(x, "state")
    u = as_vector(u, "control")
    if x.size != piece.n:
        raise DimensionMismatchError(f"state dim {x.size} != piece dim {piece.n}")
    if u.size != piece.r:
        raise DimensionMismatchError(f"control dim {u.size} != piece input dim {piece.r}")
    return piece.A @ x + piece.B @ u


def rk4_step(rhs, t, x, u, h):
    """One classical 4th-order step with control held constant."""
    k1 = rhs(t, x, u)
    k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1, u)
    k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2, u)
    k4 = rhs(t + h, x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def affine_transition(A, dt):
    """(Phi, G) with x(dt) = Phi x(0) + G v under dx/dt = A x + v, v constant.

    For n >= 2 both blocks come from one augmented exponential (Van Loan, IEEE
    TAC 1978): expm([[A dt, I dt], [0, 0]]) = [[Phi, G], [0, I]], with
    G = int_0^dt expm(A s) ds.  There ``dt`` may also be a 1-D array of
    durations; Phi and G are then (len(dt), n, n) stacks from one batched
    exponential (:func:`expm`), each equal to its own call.  A 1x1 ``A`` =
    [[a]] takes the closed form exp(a dt) and expm1(a dt)/a (dt when a = 0).
    """
    n = A.shape[0]
    if n == 1:
        a = A[0, 0]
        gain = dt if a == 0.0 else np.expm1(a * dt) / a
        return np.array([[np.exp(a * dt)]]), np.array([[gain]])
    dt = np.asarray(dt, dtype=float)[..., None, None]
    M = np.zeros(dt.shape[:-2] + (2 * n, 2 * n))
    M[..., :n, :n] = A * dt
    M[..., :n, n:] = np.eye(n) * dt
    E = expm(M)
    return E[..., :n, :n], E[..., :n, n:]


def check_step(step):
    """Raise ``ValueError`` unless ``step`` is a positive, finite grid step."""
    if not step > 0:
        raise ValueError("step must be positive")
    if not np.isfinite(step):
        raise ValueError("step must be finite")


def _check_finite(x, t_valid):
    if not np.all(np.isfinite(x)) or np.any(np.abs(x) > BLOWUP_LIMIT):
        raise DivergenceError(f"state diverged after t={t_valid:.6g}", last_valid_time=t_valid)


def integrate(rhs, x0, schedule: ControlSchedule, step) -> Trajectory:
    """Fixed-step RK4 simulation of ``rhs(t, x, u)`` under a control schedule.

    Samples are taken at global multiples of ``step`` plus every segment
    boundary.  Raises ``ValueError`` for a ``step`` that is not positive or
    not finite, and :class:`DivergenceError` when the state blows up.
    """
    check_step(step)
    x = as_vector(x0, "x0").copy()
    t = schedule.t_start
    times = [t]
    states = [x.copy()]
    controls = [schedule.segments[0][2].copy()]
    for (seg_start, seg_end, u) in schedule.segments:
        t = seg_start
        while t < seg_end - 1e-15:
            # next global step multiple, clipped to the segment end
            next_t = min((np.floor(t / step + 1e-9) + 1) * step, seg_end)
            h = next_t - t
            if h <= 0:
                break
            x = rk4_step(rhs, t, x, u, h)
            _check_finite(x, float(t))
            t = next_t
            times.append(t)
            states.append(x.copy())
            controls.append(u.copy())
    return Trajectory(np.array(times), np.array(states), np.array(controls))


def simulate_model(model: PiecewiseLinearModel, x0, schedule: ControlSchedule) -> Trajectory:
    """Replay a piecewise-linear model exactly under a control schedule.

    Schedule segment k uses piece k (one transfer segment per piece).  The
    state and every segment's control are checked against the model's n and
    r before any segment is replayed.  Each piece is affine with its control
    held, so one :func:`affine_transition` carries the state across its
    segment.  The result holds the state at the schedule start and at every
    segment end.  Raises :class:`DivergenceError` when the state blows up,
    with the start of the failing segment as its last valid time.
    """
    if len(schedule.segments) != model.partition.num_pieces:
        raise ValueError("schedule must have one segment per model piece")
    x = as_vector(x0, "x0")
    if x.size != model.n:
        raise DimensionMismatchError(f"state dim {x.size} != model dim {model.n}")
    for (_, _, u) in schedule.segments:
        if u.size != model.r:
            raise DimensionMismatchError(f"control dim {u.size} != model input dim {model.r}")
    times, states, controls = [schedule.t_start], [x], [schedule.segments[0][2]]
    # an overflow shows as a DivergenceError, not as a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        for A, B, (seg_start, seg_end, u) in zip(model.A, model.B, schedule.segments):
            phi, gain = affine_transition(A, seg_end - seg_start)
            x = phi @ x + gain @ (B @ u)
            _check_finite(x, seg_start)
            times.append(seg_end)
            states.append(x)
            controls.append(u)
    return Trajectory(np.array(times), np.array(states), np.array(controls))
