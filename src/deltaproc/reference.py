"""Built-in benchmark problems, data generators, and brute-force oracles.

The benchmark plant is dx/dt = x^2 + u^2 with u in [-1, 1], to be driven
from x=0 to x=1; its minimal time is pi/4 (at u = 1, where x follows tan t,
which blows up at pi/2).  Data records are generated by simulating a constant
control and pinning samples to exact state checkpoints, since the benchmark
cases are specified by states rather than times.

The grid/vertex searches here are deliberately independent of the
maximum-principle solver: they enumerate candidate controls and measure first
passage to the goal on a time grid, with no costates.  The plant search steps
the nonlinear plant with RK4; the model search evaluates each fitted affine
piece with its exact flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BLOWUP_LIMIT,
    ControlBounds,
    ControlSchedule,
    PiecewiseLinearModel,
    as_vector,
    rk4_step,
)
from .errors import DimensionMismatchError, GenerationError, InfeasibilityReport
from .fitting import POSITIVE, TrajectoryRecord

CHECKPOINT_TOL = 1e-10

# Grid steps evaluated at once by the affine first-passage sweep.  A vertex
# that never reaches its goal sweeps the whole grid (1e5 steps by default);
# evaluating it in one array costs megabytes of peak memory for no speed.
PASSAGE_CHUNK = 4096


@dataclass(frozen=True)
class ReferenceProblem:
    """A ground-truth plant with known boundary states and optional optimum."""

    name: str
    rhs: callable  # rhs(x, u) -> dx/dt
    bounds: ControlBounds
    x_start: np.ndarray
    x_goal: np.ndarray
    known_optimum: tuple = None  # (control description, minimal time)

    @property
    def n(self):
        return np.atleast_1d(self.x_start).size


def example1() -> ReferenceProblem:
    """Scalar benchmark dx/dt = x^2 + u^2, transfer 0 -> 1, u in [-1, 1]."""

    def rhs(x, u):
        return np.atleast_1d(x) ** 2 + np.atleast_1d(u) ** 2

    return ReferenceProblem(
        name="example1",
        rhs=rhs,
        bounds=ControlBounds(lower=[-1.0], upper=[1.0]),
        x_start=np.array([0.0]),
        x_goal=np.array([1.0]),
        known_optimum=("u = +1 throughout", np.pi / 4.0),
    )


@dataclass(frozen=True)
class BenchmarkCase:
    """A data-generation setup plus the previously reported minimal time."""

    name: str
    u_data: float
    checkpoints: tuple
    reported_total: float


# Reported totals for the benchmark cases; case1/case2 figures are not
# reproducible from their own piece constructions and are flagged, never
# matched, by the demo command.
BENCHMARK_CASES = {
    "example1": BenchmarkCase("example1", 0.5, (0.0, 0.5, 1.0), 1.13),
    "example2-case1": BenchmarkCase("example2-case1", 0.9, (0.0, 0.5, 1.0), 1.1),
    "example2-case2": BenchmarkCase(
        "example2-case2", 0.9, (0.0, 0.25, 0.5, 0.75, 1.0), 0.94
    ),
    "example2-case3": BenchmarkCase("example2-case3", 1.0, (0.0, 0.75, 1.0), 0.74),
    "example2-case4": BenchmarkCase("example2-case4", 1.0, (0.0, 0.5, 1.0), 0.76),
}


def _first_passage(rhs, x0, u, target, step=1e-4, t_max=10.0):
    """Time at which scalar x first crosses ``target``, or None.

    RK4 stepping with bisection inside the bracketing step; divergence before
    passage counts as no passage.
    """
    x = float(np.atleast_1d(x0)[0])
    target = float(target)
    sign0 = np.sign(x - target)
    if sign0 == 0.0 or abs(x - target) < CHECKPOINT_TOL:
        return 0.0, x
    u = np.atleast_1d(u)
    f = lambda t, xx, uu: np.atleast_1d(rhs(xx, uu))
    t = 0.0
    while t < t_max:
        h = min(step, t_max - t)
        try:
            x_next = float(rk4_step(f, t, np.array([x]), u, h)[0])
        except FloatingPointError:
            return None
        if not np.isfinite(x_next) or abs(x_next) > 1e12:
            return None
        if np.sign(x_next - target) != sign0:
            lo, hi = 0.0, h
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                x_mid = float(rk4_step(f, t, np.array([x]), u, mid)[0])
                if np.sign(x_mid - target) == sign0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < CHECKPOINT_TOL:
                    break
            dt = 0.5 * (lo + hi)
            x_hit = float(rk4_step(f, t, np.array([x]), u, dt)[0])
            return t + dt, x_hit
        t += h
        x = x_next
    return None


def _batched_grid_passage(rhs, x0, grid, goal, step, t_max):
    """First-passage sweep over all control levels at once.

    Requires ``rhs`` to broadcast elementwise over equal-length state and
    control vectors (raises TypeError/ValueError otherwise).  Diverged levels
    drop out of the sweep; returns the best crossing time or None.
    """
    probe = np.asarray(rhs(np.array([x0, x0]), np.array(grid[:2])), dtype=float)
    if probe.shape != (2,):
        raise TypeError("rhs is not elementwise over level vectors")
    x = np.full(grid.size, x0, dtype=float)
    u = np.asarray(grid, dtype=float)
    sign0 = np.sign(x0 - goal)
    if sign0 == 0.0:
        return 0.0
    active = np.ones(grid.size, dtype=bool)
    best = None
    f = lambda t, xx, uu: np.asarray(rhs(xx, uu), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        t = 0.0
        while t < t_max and active.any():
            h = min(step, t_max - t)
            x_next = rk4_step(f, t, x, u, h)
            alive = np.isfinite(x_next) & (np.abs(x_next) < 1e12)
            crossed = active & alive & (np.sign(x_next - goal) != sign0)
            for idx in np.where(crossed)[0]:
                hit = _first_passage(
                    lambda xs, us: rhs(xs, us),
                    np.array([x[idx]]),
                    np.array([u[idx]]),
                    goal,
                    step=h,
                    t_max=2.0 * h,
                )
                if hit is not None:
                    t_hit = t + hit[0]
                    if best is None or t_hit < best:
                        best = t_hit
            if best is not None:
                # later levels can only cross later; the sweep is monotone in t
                break
            active &= alive & ~crossed
            x = np.where(active, x_next, x)
            t += h
    return best


def _affine_flow(a, d, x0, t):
    """Exact state of dx/dt = a x + d at time(s) ``t`` from ``x0`` at 0.

    The expm1 form keeps full accuracy as a approaches 0.
    """
    if a == 0.0:
        return x0 + d * t
    return x0 + (a * x0 + d) * (np.expm1(a * t) / a)


def _affine_first_passage(a, d, x0, goal, step, t_max):
    """Time at which the exact flow of dx/dt = a x + d first crosses ``goal``.

    The flow is evaluated on the grid of multiples of ``step`` up to
    ``t_max``, ``PASSAGE_CHUNK`` steps at a time, and the bracketing step is
    bisected to ``CHECKPOINT_TOL``.  Returns None when the goal is not
    crossed, or when the state first leaves the finite region bounded by
    ``BLOWUP_LIMIT``.
    """
    sign0 = np.sign(x0 - goal)
    num_steps = int(np.ceil(t_max / step))
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, num_steps, PASSAGE_CHUNK):
            k1 = min(k0 + PASSAGE_CHUNK, num_steps)
            t = np.minimum(np.arange(k0 + 1, k1 + 1) * step, t_max)
            x = _affine_flow(a, d, x0, t)
            escaped = ~(np.abs(x) <= BLOWUP_LIMIT)  # NaN and inf included
            stops = np.flatnonzero(escaped | (np.sign(x - goal) != sign0))
            if stops.size == 0:
                continue
            i = stops[0]
            if escaped[i]:
                return None
            lo = float(t[i - 1]) if i > 0 else k0 * step
            hi = float(t[i])
            for _ in range(100):
                if hi - lo < CHECKPOINT_TOL:
                    break
                mid = 0.5 * (lo + hi)
                if np.sign(_affine_flow(a, d, x0, mid) - goal) == sign0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    return None


def sample_reference(
    problem: ReferenceProblem, u_const, x_checkpoints, step=1e-4, t_max=10.0
) -> TrajectoryRecord:
    """Positive-labeled record pinned to exact state checkpoints.

    Simulates the plant under constant control and records (t, x, u, dx) at
    each checkpoint, located by sign change plus bisection.  Raises
    :class:`GenerationError` for unreachable checkpoints.
    """
    if problem.n != 1:
        raise NotImplementedError("checkpoint sampling is defined for scalar state")
    u = np.atleast_1d(np.asarray(u_const, dtype=float))
    ts, xs = [], []
    t_base = 0.0
    x_cur = float(problem.x_start[0])
    for cp in x_checkpoints:
        hit = _first_passage(problem.rhs, x_cur, u, cp, step=step, t_max=t_max - t_base)
        if hit is None:
            raise GenerationError(
                f"checkpoint x={cp} unreachable from x={x_cur:g} under u={u_const}"
            )
        dt, x_hit = hit
        t_base += dt
        x_cur = x_hit
        ts.append(t_base)
        xs.append(x_hit)
    ts = np.array(ts)
    xs = np.array(xs).reshape(-1, 1)
    us = np.tile(u, (ts.size, 1))
    dxs = np.array([np.atleast_1d(problem.rhs(x, u)) for x in xs[:, 0]])
    return TrajectoryRecord(
        id=f"{problem.name}-u{float(u[0]):g}", label=POSITIVE, t=ts, x=xs, u=us, dx=dxs
    )


def dense_reference_record(
    problem: ReferenceProblem, u_const, num_samples=2001, step=1e-4, t_max=10.0
) -> TrajectoryRecord:
    """Uniform-in-time record covering start-to-goal under a constant control."""
    if problem.n != 1:
        raise NotImplementedError("dense sampling is defined for scalar state")
    u = np.atleast_1d(np.asarray(u_const, dtype=float))
    goal = float(problem.x_goal[0])
    hit = _first_passage(problem.rhs, problem.x_start, u, goal, step=step, t_max=t_max)
    if hit is None:
        raise GenerationError(f"goal x={goal} unreachable under u={u_const}")
    horizon, _ = hit
    schedule = ControlSchedule.constant(u, 0.0, horizon)
    from .dynamics import integrate  # local import to avoid cycle at module load

    f = lambda t, xx, uu: np.atleast_1d(problem.rhs(xx, uu))
    traj = integrate(f, problem.x_start, schedule, step=step)
    ts = np.linspace(0.0, horizon, num_samples)
    xs = np.interp(ts, traj.t, traj.x[:, 0]).reshape(-1, 1)
    us = np.tile(u, (ts.size, 1))
    dxs = np.array([np.atleast_1d(problem.rhs(x, u)) for x in xs[:, 0]])
    return TrajectoryRecord(
        id=f"{problem.name}-dense-u{float(u[0]):g}",
        label=POSITIVE,
        t=ts,
        x=xs,
        u=us,
        dx=dxs,
    )


def brute_force_min_time(
    target, bounds: ControlBounds = None, levels=101, step=1e-4, t_max=10.0, x_start=None
):
    """Grid/vertex first-passage search, independent of the PMP solver.

    For a :class:`ReferenceProblem`, sweeps ``levels`` constant control values
    over the box, stepping the plant with RK4.  For a scalar
    :class:`PiecewiseLinearModel`, exhaustively tries the bounds vertices on
    each piece, chaining transfers between the data anchors; each fitted
    piece dx/dt = a x + B u is evaluated with its exact affine flow on the
    same ``step`` grid.  Neither search uses costates.  Raises
    :class:`InfeasibilityReport` when the goal is never reached, and
    :class:`NotImplementedError` for a model with state dimension n >= 2.
    """
    if isinstance(target, ReferenceProblem):
        if levels < 101:
            raise ValueError("grid search needs at least 101 control levels")
        b = bounds if bounds is not None else target.bounds
        goal = float(target.x_goal[0])
        grid = np.linspace(float(b.lower[0]), float(b.upper[0]), levels)
        try:
            best = _batched_grid_passage(
                target.rhs, float(target.x_start[0]), grid, goal, step, t_max
            )
        except (TypeError, ValueError):
            # rhs does not broadcast over a level vector; sweep one at a time
            best = None
            for u_val in grid:
                hit = _first_passage(
                    target.rhs, target.x_start, np.array([u_val]), goal, step=step, t_max=t_max
                )
                if hit is not None and (best is None or hit[0] < best):
                    best = hit[0]
        if best is None:
            raise InfeasibilityReport(
                f"goal x={goal} unreached for any of {levels} constant controls"
            )
        return best
    if isinstance(target, PiecewiseLinearModel):
        if bounds is None:
            raise ValueError("bounds are required for a model search")
        if x_start is None:
            raise ValueError("x_start is required for a model search")
        for piece in target.pieces:
            if piece.n != 1:
                raise NotImplementedError("the vertex search is defined for scalar models")
            if piece.r != bounds.r:
                raise DimensionMismatchError(
                    f"control dim {bounds.r} != piece input dim {piece.r}"
                )
        x_start = as_vector(x_start, "x_start")
        if x_start.size != 1:
            raise DimensionMismatchError(f"x_start dim {x_start.size} != model dim 1")
        vertices = bounds.vertices()
        x_from = float(x_start[0])
        total = 0.0
        for k, piece in enumerate(target.pieces):
            goal = float(piece.anchor[0])
            if abs(x_from - goal) < CHECKPOINT_TOL:
                x_from = goal
                continue
            a = float(piece.A[0, 0])
            hits = [
                _affine_first_passage(a, float(piece.B[0] @ u), x_from, goal, step, t_max)
                for u in vertices
            ]
            hits = [t for t in hits if t is not None]
            if not hits:
                raise InfeasibilityReport(
                    f"piece {k}: anchor x={goal} unreached from x={x_from:g} "
                    f"under any bounds vertex"
                )
            total += min(hits)
            x_from = goal
        return total
    raise TypeError(f"unsupported search target {type(target)!r}")
