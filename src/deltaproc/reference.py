"""Built-in benchmark problems, data generators, and brute-force oracles.

The benchmark plant is dx/dt = x^2 + u^2 with u in [-1, 1], to be driven
from x=0 to x=1; its minimal time is pi/4 (at u = 1, where x follows tan t,
which blows up at pi/2).  Data records are generated by simulating a constant
control and pinning samples to exact state checkpoints, since the benchmark
cases are specified by states rather than times.

The grid/vertex searches here are deliberately independent of the
maximum-principle solver: they enumerate candidate controls and measure first
passage to the goal on a time grid, with no costates.  One sweep,
``_first_passage``, serves the checkpoint sampler, the dense sampler and both
oracles.  It advances a batch of scalar rows under a flow: the nonlinear
plant stepped with RK4, or a fitted affine piece's exact flow.  The plant
oracle sweeps one row per control level and the samplers sweep one row on
Python floats, so the plant's ``rhs`` must be elementwise under numpy
broadcasting: equal-length state and control vectors in, a derivative vector
of that length out, and Python scalars in, a scalar out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BLOWUP_LIMIT,
    ControlBounds,
    PiecewiseLinearModel,
    check_input,
    check_state,
    check_step,
    rk4_step,
)
from .errors import GenerationError, InfeasibilityReport
from .fitting import POSITIVE, TrajectoryRecord

CHECKPOINT_TOL = 1e-10

# Default grid step of the checkpoint sampler and both oracles.  They report
# only bisected crossings, so the bisection to CHECKPOINT_TOL, not the grid,
# sets their accuracy as long as the grid's own error stays below it.  The
# budget is CHECKPOINT_TOL / 10, and tests/test_reference.py holds the grid to
# it.  Measured on the benchmark plant, over every BENCHMARK_CASES control up
# to its goal and the plant oracle's u = +-1 rows, RK4's worst error against
# |u| tan(|u| t) is 3.2e-12 at 4e-3 (global error O(step^4): 1.1e-14 at 1e-3,
# 1.2e-10 at 1e-2).  The budget is shown for this plant only; a plant whose
# higher derivatives grow faster along its path should pass a finer
# ``step=``.  The dense sampler interpolates between grid states, an
# O(step^2) error, so it keeps its finer default.
PASSAGE_STEP = 4e-3

# Grid states each flow fills per call of the first-passage sweep.  A row
# that never reaches its goal sweeps the whole grid (1e4 steps by default).
# The exact affine flow evaluates a chunk in closed form, and one array of the
# whole grid would cost megabytes of peak memory for no speed.  The RK4 flow
# takes one step per state, so a short block wastes few steps past a crossing.
PASSAGE_CHUNK = 4096
_RK4_BLOCK = 64


@dataclass(frozen=True)
class ReferenceProblem:
    """A ground-truth plant with known boundary states and optional optimum."""

    name: str
    rhs: callable  # rhs(x, u) -> dx/dt, elementwise: equal-length x and u, or scalars
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
        return np.square(x) + np.square(u)

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


def _rk4_flow(rhs, u):
    """Flow of dx/dt = rhs(x, u) stepped with RK4, all rows at once.

    Each call fills up to ``_RK4_BLOCK`` grid states, one ``rk4_step`` each.
    ``rhs`` must be elementwise over the rows of ``x`` and ``u``.  A single
    row steps on Python floats: numpy's per-call overhead on one-element
    arrays costs several times the arithmetic, and float operations round
    exactly as the elementwise array ones do.  An ``rhs`` that returns an
    array for scalar input still works, at array speed.  Where float
    arithmetic raises instead, the row leaves the finite region as it would
    on arrays.
    """

    def f(t, x, uu):
        dx = rhs(x, uu)
        return float(dx) if isinstance(dx, float) else np.asarray(dx, dtype=float)

    def flow(x, h, steps):
        xs = np.empty((x.size, min(steps, _RK4_BLOCK)))
        uu = u
        if x.size == 1:  # h is one value per row in the bisection
            x, uu, h = float(x[0]), float(u[0]), float(np.ravel(h)[0])
        for j in range(xs.shape[1]):
            try:
                x = rk4_step(f, 0.0, x, uu, h)
            except (OverflowError, ZeroDivisionError):  # numpy gives inf or nan
                xs[:, j:] = np.nan
                break
            xs[:, j] = x
        return xs

    return flow


def _affine_flow(a, d):
    """Exact flow of dx/dt = a x + d, one row per entry of ``d``.

    Each call fills up to ``PASSAGE_CHUNK`` grid states in closed form; the
    expm1 form keeps full accuracy as a approaches 0.
    """

    def flow(x, h, steps):
        t = np.multiply.outer(h, np.arange(1, min(steps, PASSAGE_CHUNK) + 1))
        x, d_col = x[:, None], d[:, None]
        if a == 0.0:
            return x + d_col * t
        return x + (a * x + d_col) * (np.expm1(a * t) / a)

    return flow


def _first_passage(flow, x0_rows, goal, step, t_max):
    """Earliest time at which any scalar row first crosses ``goal``.

    ``flow(x, h, steps)`` returns the states of the rows ``x`` after 1, 2, ...
    steps of length ``h`` (a scalar or one value per row), as a (rows, m)
    array; the flow's block length sets m <= ``steps``.  The rows advance on
    the grid of multiples of ``step`` up to ``t_max``, whose last point is
    ``t_max`` itself.  A row that leaves the finite, <= ``BLOWUP_LIMIT``
    region drops out.  The rows that cross in the earliest grid step are
    bisected from their left grid state to ``CHECKPOINT_TOL``.  Returns
    ``(t, x)`` at the earliest crossing, or None.  Raises ``ValueError`` for a
    ``step`` that is not positive or not finite, and for a ``t_max`` that is
    not finite.
    """
    check_step(step)
    if not np.isfinite(t_max):
        raise ValueError("t_max must be finite")
    x = np.array(x0_rows, dtype=float)
    at_goal = np.flatnonzero(np.abs(x - goal) < CHECKPOINT_TOL)
    if at_goal.size:
        return 0.0, float(x[at_goal[0]])
    sign0 = np.sign(x - goal)
    live = np.ones(x.size, dtype=bool)
    num_steps = int(np.ceil(t_max / step))
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while k < num_steps and live.any():
            h = step if k + 1 < num_steps else t_max - k * step
            xs = flow(x, h, max(num_steps - 1 - k, 1))
            escaped = ~(np.abs(xs) <= BLOWUP_LIMIT)  # NaN and inf included
            stop = live[:, None] & (escaped | (np.sign(xs - goal) != sign0[:, None]))
            first = stop.argmax(axis=1)
            crossed = stop.any(axis=1) & ~escaped[np.arange(x.size), first]
            if crossed.any():
                break
            live &= ~stop.any(axis=1)
            x = xs[:, -1]
            k += xs.shape[1]
        else:
            return None
        i = first[crossed].min()
        rows = np.flatnonzero(crossed & (first == i))
        x_left = xs[:, i - 1] if i else x
        lo, hi = np.zeros(x.size), np.full(x.size, h)
        while np.any(hi - lo >= CHECKPOINT_TOL):
            mid = 0.5 * (lo + hi)
            short = np.sign(flow(x_left, mid, 1)[:, 0] - goal) == sign0
            lo, hi = np.where(short, mid, lo), np.where(short, hi, mid)
        dt = 0.5 * (lo + hi)
        x_hit = flow(x_left, dt, 1)[:, 0]
    j = rows[np.argmin(dt[rows])]
    return float((k + i) * step + dt[j]), float(x_hit[j])


def sample_reference(
    problem: ReferenceProblem, u_const, x_checkpoints, step=PASSAGE_STEP, t_max=10.0
) -> TrajectoryRecord:
    """Positive-labeled record pinned to exact state checkpoints.

    Simulates the plant under constant control and records (t, x, u, dx) at
    each checkpoint, located by sign change plus bisection.  Raises
    :class:`GenerationError` for unreachable checkpoints.
    """
    if problem.n != 1:
        raise NotImplementedError("checkpoint sampling is defined for scalar state")
    u = np.atleast_1d(np.asarray(u_const, dtype=float))
    flow = _rk4_flow(problem.rhs, u)
    ts, xs = [], []
    t_base = 0.0
    x_cur = float(problem.x_start[0])
    for cp in x_checkpoints:
        hit = _first_passage(flow, [x_cur], cp, step, t_max - t_base)
        if hit is None:
            raise GenerationError(
                f"checkpoint x={cp} unreachable from x={x_cur:g} under u={u_const}"
            )
        dt, x_hit = hit
        t_base += dt
        x_cur = x_hit
        ts.append(t_base)
        xs.append(x_hit)
    return _plant_record(problem, f"{problem.name}-u{float(u[0]):g}", u, ts, xs)


def dense_reference_record(
    problem: ReferenceProblem, u_const, num_samples=2001, step=1e-4, t_max=10.0
) -> TrajectoryRecord:
    """Uniform-in-time record covering start-to-goal under a constant control.

    The states are interpolated from the grid states of the one RK4 sweep
    that finds the goal time, closed by the state found at the goal.
    """
    if problem.n != 1:
        raise NotImplementedError("dense sampling is defined for scalar state")
    u = np.atleast_1d(np.asarray(u_const, dtype=float))
    goal = float(problem.x_goal[0])
    rk4_flow = _rk4_flow(problem.rhs, u)
    blocks = [problem.x_start]

    def flow(x, h, steps):
        xs = rk4_flow(x, h, steps)
        if np.ndim(h) == 0:  # a sweep block; the bisection's steps are per row
            blocks.append(xs[0])
        return xs

    hit = _first_passage(flow, problem.x_start, goal, step, t_max)
    if hit is None:
        raise GenerationError(f"goal x={goal} unreachable under u={u_const}")
    horizon, x_hit = hit
    grid_x = np.concatenate(blocks)
    grid_t = step * np.arange(grid_x.size)
    # the grid states before the crossing, then the state at the goal time
    before = grid_t < horizon
    ts = np.linspace(0.0, horizon, num_samples)
    xs = np.interp(ts, np.append(grid_t[before], horizon), np.append(grid_x[before], x_hit))
    return _plant_record(problem, f"{problem.name}-dense-u{float(u[0]):g}", u, ts, xs)


def _plant_record(problem, record_id, u, ts, xs):
    """Positive record of scalar states ``xs`` at times ``ts`` under constant ``u``.

    The derivatives come from one elementwise call of the plant's ``rhs``.
    """
    ts, xs = np.asarray(ts, dtype=float), np.asarray(xs, dtype=float)
    us = np.full(ts.size, float(u[0]))
    dxs = np.asarray(problem.rhs(xs, us), dtype=float)
    return TrajectoryRecord(
        id=record_id,
        label=POSITIVE,
        t=ts,
        x=xs.reshape(-1, 1),
        u=us.reshape(-1, 1),
        dx=dxs.reshape(-1, 1),
    )


def brute_force_min_time(
    target, bounds: ControlBounds = None, levels=101, step=PASSAGE_STEP, t_max=10.0, x_start=None
):
    """Grid/vertex first-passage search, independent of the PMP solver.

    For a :class:`ReferenceProblem`, sweeps ``levels`` constant control values
    over the box at once, stepping the plant with RK4; its ``rhs`` must be
    elementwise over the levels (``TypeError`` otherwise).  For a scalar
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
        x0_rows = np.full(levels, float(target.x_start[0]))
        try:
            elementwise = np.shape(target.rhs(x0_rows, grid)) == (levels,)
        except (TypeError, ValueError):
            elementwise = False
        if not elementwise:
            raise TypeError(
                f"the grid search needs an elementwise rhs that maps ({levels},) "
                f"states and controls to ({levels},) derivatives"
            )
        hit = _first_passage(_rk4_flow(target.rhs, grid), x0_rows, goal, step, t_max)
        if hit is None:
            raise InfeasibilityReport(
                f"goal x={goal} unreached for any of {levels} constant controls"
            )
        return hit[0]
    if isinstance(target, PiecewiseLinearModel):
        if bounds is None:
            raise ValueError("bounds are required for a model search")
        if x_start is None:
            raise ValueError("x_start is required for a model search")
        if target.n != 1:
            raise NotImplementedError("the vertex search is defined for scalar models")
        check_input(bounds.r, target, "bounds")
        x_start = check_state(x_start, target, "x_start")
        vertices = np.array(bounds.vertices())
        x_from = float(x_start[0])
        total = 0.0
        pieces = zip(target.A[:, 0, 0].tolist(), target.B[:, 0], target.anchors[:, 0].tolist())
        for k, (a, b, goal) in enumerate(pieces):
            flow = _affine_flow(a, vertices @ b)
            hit = _first_passage(flow, np.full(len(vertices), x_from), goal, step, t_max)
            if hit is None:
                raise InfeasibilityReport(
                    f"piece {k}: anchor x={goal} unreached from x={x_from:g} "
                    f"under any bounds vertex"
                )
            total += hit[0]
            x_from = goal
        return total
    raise TypeError(f"unsupported search target {type(target)!r}")
