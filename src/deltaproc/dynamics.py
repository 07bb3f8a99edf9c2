"""Core state-space types, piecewise-linear models, and fixed-step integration.

States and controls are plain 1-D numpy arrays.  A ``LinearPiece`` holds one
subinterval's constant ``(A, B)`` pair together with the anchor state (the
data state at the subinterval's right knot) that the piece is expected to
transfer to.  Dynamics are always expressed in the original coordinate frame,
``dx/dt = A x + B u``; :func:`shift_coordinates` provides the translation that
maps the anchor to the origin when a target-at-zero frame is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DivergenceError

# Magnitude above which a trajectory is declared divergent.
BLOWUP_LIMIT = 1e12

# Default number of integration steps per piece.
STEPS_PER_PIECE = 2000


def as_vector(x, name="vector"):
    """Coerce to a finite 1-D float array."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
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
    """Strictly increasing knots covering the horizon, with refinement index m."""

    knots: np.ndarray
    m: int = 1

    def __post_init__(self):
        object.__setattr__(self, "knots", as_vector(self.knots, "knots"))
        if self.knots.size < 2:
            raise ValueError("a partition needs at least two knots")
        if not np.all(np.diff(self.knots) > 0):
            raise ValueError("partition knots must be strictly increasing")
        if self.m < 1:
            raise ValueError("refinement index m must be >= 1")

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
    def uniform(cls, t0, t1, num_pieces, m=1):
        return cls(np.linspace(t0, t1, num_pieces + 1), m=m)


@dataclass(frozen=True)
class LinearPiece:
    """One subinterval's constant (A, B) model and its target anchor state."""

    A: np.ndarray
    B: np.ndarray
    t_start: float
    t_end: float
    anchor: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "anchor", as_vector(self.anchor, "anchor"))
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatchError(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise DimensionMismatchError(f"B rows {B.shape[0]} != A size {A.shape[0]}")
        if self.anchor.size != A.shape[0]:
            raise DimensionMismatchError("anchor dimension does not match A")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
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
    """Ordered, contiguous pieces covering one partition of the horizon."""

    pieces: tuple
    partition: TimePartition

    def __post_init__(self):
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if len(pieces) != self.partition.num_pieces:
            raise ValueError(
                f"{len(pieces)} pieces for a partition with "
                f"{self.partition.num_pieces} subintervals"
            )
        for k, piece in enumerate(pieces):
            lo, hi = self.partition.knots[k], self.partition.knots[k + 1]
            if not (np.isclose(piece.t_start, lo) and np.isclose(piece.t_end, hi)):
                raise ValueError(f"piece {k} does not match its subinterval [{lo}, {hi}]")

    @property
    def n(self):
        return self.pieces[0].n

    def piece_at(self, t):
        """Piece active at time t (right-open subintervals, last is closed)."""
        knots = self.partition.knots
        idx = int(np.searchsorted(knots, t, side="right")) - 1
        idx = min(max(idx, 0), len(self.pieces) - 1)
        return self.pieces[idx]


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

    def shifted(self, offset):
        return ControlSchedule(tuple((a + offset, b + offset, u) for (a, b, u) in self.segments))


@dataclass
class Trajectory:
    """Sampled trajectory: times, states (len x n), controls (len x r)."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray = field(default=None)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if self.x.shape[0] != self.t.size:
            self.x = self.x.T
        if self.u is not None:
            self.u = np.atleast_2d(np.asarray(self.u, dtype=float))
            if self.u.shape[0] != self.t.size:
                self.u = self.u.T

    @property
    def final_state(self):
        return self.x[-1]

    def state_at(self, t):
        """Linear interpolation of the state at time t."""
        return np.array([np.interp(t, self.t, self.x[:, j]) for j in range(self.x.shape[1])])


def shift_coordinates(piece: LinearPiece, x) -> np.ndarray:
    """Translate a state so the piece's anchor maps to the origin."""
    x = as_vector(x, "state")
    if x.size != piece.n:
        raise DimensionMismatchError(f"state dim {x.size} != piece dim {piece.n}")
    return x - piece.anchor


def unshift_coordinates(piece: LinearPiece, x_shifted) -> np.ndarray:
    """Inverse of :func:`shift_coordinates`."""
    x_shifted = as_vector(x_shifted, "state")
    if x_shifted.size != piece.n:
        raise DimensionMismatchError(f"state dim {x_shifted.size} != piece dim {piece.n}")
    return x_shifted + piece.anchor


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


def _check_finite(x, t):
    if not np.all(np.isfinite(x)) or np.any(np.abs(x) > BLOWUP_LIMIT):
        raise DivergenceError(f"state diverged near t={t:.6g}", last_valid_time=t)


def integrate(rhs, x0, schedule: ControlSchedule, step) -> Trajectory:
    """Fixed-step RK4 simulation of ``rhs(t, x, u)`` under a control schedule.

    Samples are taken at global multiples of ``step`` plus every segment
    boundary.  Raises :class:`DivergenceError` when the state blows up.
    """
    if step <= 0:
        raise ValueError("step must be positive")
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
            t = next_t
            _check_finite(x, t)
            times.append(t)
            states.append(x.copy())
            controls.append(u.copy())
    return Trajectory(np.array(times), np.array(states), np.array(controls))


def simulate_model(model: PiecewiseLinearModel, x0, schedule: ControlSchedule, step=None) -> Trajectory:
    """Simulate a piecewise-linear model, switching pieces with the schedule's clock.

    The piece active at time t is looked up from the model's partition scaled
    onto the schedule span proportionally by segment index: each schedule
    segment k uses piece k (one transfer segment per piece).  The state and
    every segment's control are checked against their pieces before any step.
    Each segment is stepped with RK4 on its own uniform grid from its start to
    its end: ``STEPS_PER_PIECE`` steps, or the fewest steps no longer than
    ``step`` when it is given.  Raises :class:`DivergenceError` when the state
    blows up.
    """
    if len(schedule.segments) != len(model.pieces):
        raise ValueError("schedule must have one segment per model piece")
    if step is not None and step <= 0:
        raise ValueError("step must be positive")
    x = as_vector(x0, "x0").copy()
    for piece, (_, _, u) in zip(model.pieces, schedule.segments):
        if x.size != piece.n:
            raise DimensionMismatchError(f"state dim {x.size} != piece dim {piece.n}")
        if u.size != piece.r:
            raise DimensionMismatchError(f"control dim {u.size} != piece input dim {piece.r}")
    all_t, all_x, all_u = [[schedule.t_start]], [[x]], [[schedule.segments[0][2]]]
    for piece, (seg_start, seg_end, u) in zip(model.pieces, schedule.segments):
        span = seg_end - seg_start
        steps = STEPS_PER_PIECE if step is None else max(1, int(np.ceil(span / step - 1e-9)))
        h = span / steps
        # the control is constant on the segment, so B u is too
        rhs = lambda t, xx, uu, A=piece.A, bu=piece.B @ u: A @ xx + bu
        times = np.linspace(seg_start, seg_end, steps + 1)
        states = np.empty((steps, x.size))
        for k in range(steps):
            x = rk4_step(rhs, times[k], x, u, h)
            _check_finite(x, times[k + 1])
            states[k] = x
        all_t.append(times[1:])
        all_x.append(states)
        all_u.append(np.tile(u, (steps, 1)))
    return Trajectory(np.concatenate(all_t), np.concatenate(all_x), np.concatenate(all_u))
