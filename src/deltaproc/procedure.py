"""Outer refinement loop: fit, solve every piece, score, refine, stop.

Each refinement level m fits a piecewise-linear model on the current time
partition, chains minimal-time transfers between consecutive data anchors,
and records the total.  Refinement stops once successive totals differ by at
most the configured delta (in absolute value: coarse approximations can
undershoot as well as overshoot the limit) or the refinement budget runs out.
The mean-Hamiltonian and Hamiltonian-deviation scores are reported as
diagnostics; the stopping rule is the successive-total gap alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ControlBounds, ControlSchedule, PiecewiseLinearModel, TimePartition
from .dynamics import check_input
from .errors import DeltaProcError, InfeasibleTransferError
from .fitting import TrajectoryRecord, fit_model
from .pontryagin import AdjointState, PieceSolution, min_time_transfer, scalar_transfers
from .pontryagin import unreachable_message

REFINE_DOUBLE = "double"
REFINE_INCREMENT = "increment"


@dataclass(frozen=True)
class PartitionSolution:
    """One refinement level: the fitted model and every piece's optimal transfer.

    Piece k goes from ``x_start`` (k = 0) or anchor k-1 to anchor k in
    ``transfer_times[k]``; ``hamiltonians[k]`` and ``psi0[k]`` are its constant
    Hamiltonian and unit initial costate.  Each row of ``segments`` is
    (piece, t_start, t_end, u_0, ..., u_{r-1}) on that piece's own clock, so a
    piece owns the rows that carry its index and a trivial piece owns none.
    """

    model: PiecewiseLinearModel
    x_start: np.ndarray
    transfer_times: np.ndarray  # (N,)
    hamiltonians: np.ndarray    # (N,)
    psi0: np.ndarray            # (N, n)
    segments: np.ndarray        # (S, 3 + r)

    @property
    def total_time(self):
        # summed left to right like the transfers are chained: np.sum adds
        # pairwise and would change the last bits
        return float(np.add.accumulate(self.transfer_times)[-1])

    @property
    def eq_mean_score(self):
        """Mean of the per-piece Hamiltonian values."""
        return float(np.sum(self.hamiltonians) / self.hamiltonians.size)

    @property
    def eq_deviation_score(self):
        """Mean absolute deviation of the per-piece Hamiltonians from their mean.

        The unsigned form; the signed sum vanishes identically.
        """
        h = self.hamiltonians
        return float(np.sum(np.abs(h - np.sum(h) / h.size)) / h.size)

    def chained_segments(self):
        """``segments`` on one clock from 0: each piece starts where the last ended."""
        starts = np.concatenate([[0.0], np.add.accumulate(self.transfer_times)[:-1]])
        chained = self.segments.copy()
        chained[:, 1:3] += starts[self.segments[:, 0].astype(int), None]
        return chained

    @property
    def schedule(self) -> ControlSchedule:
        """All piece schedules concatenated on one clock from 0."""
        return ControlSchedule(tuple((a, b, u) for (_, a, b, *u) in self.chained_segments()))

    @property
    def piece_solutions(self):
        """One :class:`PieceSolution` per piece, trivial pieces included."""
        owned = [[] for _ in self.transfer_times]
        for (k, a, b, *u) in self.segments:
            owned[int(k)].append((a, b, u))
        return [
            PieceSolution(
                u_schedule=ControlSchedule(tuple(rows)) if rows else None,
                transfer_time=float(t),
                hamiltonian=float(h),
                psi0=AdjointState(psi=psi),
            )
            for rows, t, h, psi in zip(owned, self.transfer_times, self.hamiltonians, self.psi0)
        ]


@dataclass(frozen=True)
class DeltaConfig:
    """Settings for the refinement loop."""

    delta: float
    bounds: ControlBounds
    initial_N: int = 2
    max_refinements: int = 8
    strategy: str = REFINE_DOUBLE

    def __post_init__(self):
        if not 0.0 < self.delta < np.inf:  # NaN fails both comparisons
            raise ValueError("delta must be positive and finite")
        if self.initial_N < 1:
            raise ValueError("initial_N must be >= 1")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")
        if self.strategy not in (REFINE_DOUBLE, REFINE_INCREMENT):
            raise ValueError(f"unknown refinement strategy {self.strategy!r}")


@dataclass
class DeltaTraceEntry:
    m: int
    num_pieces: int
    total_time: float
    eq_mean_score: float
    eq_deviation_score: float
    gap: float  # |total_m - total_{m-1}|; nan for m=1


@dataclass
class DeltaResult:
    """Outcome of the refinement loop."""

    trace: list
    converged: bool
    final_solution: PartitionSolution
    stopping_gap: float

    @property
    def total_time(self):
        return self.final_solution.total_time


def solve_partition(
    record: TrajectoryRecord,
    partition: TimePartition,
    bounds: ControlBounds,
) -> PartitionSolution:
    """Fit a model on the partition and chain per-piece minimal-time transfers.

    Piece k transfers from the data anchor at knot k-1 to the anchor at knot
    k; totals are the sum of per-piece times.  Errors from fitting or the
    transfer solver are annotated with the piece index.  A control box whose
    width is not the model's input width raises
    :class:`DimensionMismatchError` before any piece is solved.  A scalar
    model is solved in one closed-form pass over all its pieces, and the
    first piece that pass cannot reach raises
    :class:`InfeasibleTransferError` from the same arrays.
    """
    model = fit_model(record, partition)
    check_input(bounds.r, model, "bounds")
    # piece k starts at the record's first state (k = 0) or at anchor k - 1
    x0 = np.vstack([record.interp_state(partition.t0), model.anchors[:-1]])
    if model.n == 1:
        a, b, xf = model.A[:, 0, 0], model.B[:, 0], model.anchors[:, 0]
        T, u, psi, H = scalar_transfers(a, b, x0[:, 0], xf, bounds)
        if np.isnan(T).any():
            k = int(np.isnan(T).argmax())  # the first piece that neither ray reaches
            why = unreachable_message(a[k], b[k], x0[k, 0], xf[k], bounds)
            raise InfeasibleTransferError(f"piece {k}: {why}")
        moves = np.flatnonzero(T > 0.0)
        segments = np.column_stack([moves, np.zeros(moves.size), T[moves], u[moves]])
        psi = psi[:, None]
    else:
        solutions = [_transfer(k, *args, bounds) for k, args in enumerate(zip(model.pieces, x0))]
        T = np.array([sol.transfer_time for sol in solutions])
        H = np.array([sol.hamiltonian for sol in solutions])
        psi = np.array([sol.psi0.psi for sol in solutions])
        segments = [
            (k, a, b, *u)
            for k, sol in enumerate(solutions)
            if not sol.is_trivial
            for (a, b, u) in sol.u_schedule.segments
        ]
    return PartitionSolution(
        model=model, x_start=x0[0], transfer_times=T, hamiltonians=H, psi0=psi,
        segments=np.array(segments, dtype=float).reshape(-1, 3 + bounds.r),
    )


def _transfer(k, piece, x_from, bounds):
    try:
        return min_time_transfer(piece, x_from, bounds)
    except DeltaProcError as exc:
        exc.args = (f"piece {k}: {exc.args[0]}",) + exc.args[1:]
        raise


def refine_partition(partition: TimePartition, strategy=REFINE_DOUBLE) -> TimePartition:
    """Split subintervals: midpoints everywhere, or one knot in the longest."""
    knots = partition.knots
    if strategy == REFINE_DOUBLE:
        mids = 0.5 * (knots[:-1] + knots[1:])
        new = np.sort(np.concatenate([knots, mids]))
    elif strategy == REFINE_INCREMENT:
        widths = np.diff(knots)
        k = int(np.argmax(widths))
        mid = 0.5 * (knots[k] + knots[k + 1])
        new = np.sort(np.append(knots, mid))
    else:
        raise ValueError(f"unknown refinement strategy {strategy!r}")
    return TimePartition(new)


def run_delta(record: TrajectoryRecord, config: DeltaConfig) -> DeltaResult:
    """Refine until successive totals differ by at most delta.

    Non-convergence within the refinement budget is reported through the
    ``converged`` flag, not as an error.
    """
    partition = TimePartition.uniform(record.t_start, record.t_end, config.initial_N)
    trace = []
    prev_total = None
    solution = None
    converged = False
    gap = np.nan
    for m in range(1, config.max_refinements + 1):
        solution = solve_partition(record, partition, config.bounds)
        gap = np.nan if prev_total is None else abs(solution.total_time - prev_total)
        trace.append(
            DeltaTraceEntry(
                m=m,
                num_pieces=partition.num_pieces,
                total_time=solution.total_time,
                eq_mean_score=solution.eq_mean_score,
                eq_deviation_score=solution.eq_deviation_score,
                gap=gap,
            )
        )
        if prev_total is not None and gap <= config.delta:
            converged = True
            break
        prev_total = solution.total_time
        partition = refine_partition(partition, config.strategy)
    return DeltaResult(
        trace=trace,
        converged=converged,
        final_solution=solution,
        stopping_gap=float(gap) if np.isfinite(gap) else np.nan,
    )
