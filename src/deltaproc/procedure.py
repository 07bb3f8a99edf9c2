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

from dataclasses import dataclass, field

import numpy as np

from .dynamics import ControlBounds, ControlSchedule, PiecewiseLinearModel, TimePartition
from .errors import DeltaProcError
from .fitting import TrajectoryRecord, fit_model
from .pontryagin import PieceSolution, min_time_transfer, scalar_transfers

REFINE_DOUBLE = "double"
REFINE_INCREMENT = "increment"


@dataclass(frozen=True)
class PartitionWeights:
    """Dimensionless piece weights, constrained to sum to the piece count."""

    eps: np.ndarray

    def __post_init__(self):
        eps = np.atleast_1d(np.asarray(self.eps, dtype=float))
        object.__setattr__(self, "eps", eps)
        if np.any(eps <= 0.0):
            raise ValueError("weights must be positive")
        if abs(eps.sum() - eps.size) > 1e-9:
            raise ValueError(f"weights must sum to their count {eps.size}, got {eps.sum()}")

    @classmethod
    def ones(cls, count):
        return cls(np.ones(count))


@dataclass
class PartitionSolution:
    """Fitted model plus per-piece optimal transfers for one partition."""

    model: PiecewiseLinearModel
    piece_solutions: list
    x_start: np.ndarray
    total_time: float
    eq_mean_score: float = 0.0
    eq_deviation_score: float = 0.0

    @property
    def schedule(self) -> ControlSchedule:
        """Piece schedules concatenated on one clock starting at 0."""
        segments = []
        t = 0.0
        for sol in self.piece_solutions:
            if sol.is_trivial:
                continue
            for (a, b, u) in sol.u_schedule.segments:
                segments.append((t + a, t + b, u))
            t += sol.transfer_time
        return ControlSchedule(tuple(segments))


@dataclass(frozen=True)
class DeltaConfig:
    """Settings for the refinement loop."""

    delta: float
    bounds: ControlBounds
    initial_N: int = 2
    max_refinements: int = 8
    strategy: str = REFINE_DOUBLE

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
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
    def final_schedule(self) -> ControlSchedule:
        return self.final_solution.schedule

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
    transfer solver are annotated with the piece index.  A scalar model is
    solved in one closed-form pass over all its pieces.
    """
    model = fit_model(record, partition)
    x_start = record.interp_state(partition.t0)
    if model.n == 1 and model.pieces[0].r == bounds.r:
        solutions = _scalar_level(model.pieces, x_start, bounds)
    else:
        # n >= 2, or a control box that does not fit the pieces, which the
        # first non-trivial transfer reports
        solutions = []
        x_from = x_start
        for k, piece in enumerate(model.pieces):
            solutions.append(_transfer(k, piece, x_from, bounds))
            x_from = piece.anchor
    # summed left to right like the transfers are chained: np.sum adds
    # pairwise and would change the last bits
    total = np.add.accumulate([sol.transfer_time for sol in solutions])[-1]
    result = PartitionSolution(
        model=model,
        piece_solutions=solutions,
        x_start=np.asarray(x_start, dtype=float),
        total_time=float(total),
    )
    w = PartitionWeights.ones(len(model.pieces))
    result.eq_mean_score = mean_hamiltonian_score(result, w)
    result.eq_deviation_score = hamiltonian_deviation(result, w)
    return result


def _scalar_level(pieces, x_start, bounds):
    """Transfers of all pieces of a scalar model, chained through the anchors."""
    xf = np.array([piece.anchor[0] for piece in pieces])
    x0 = np.concatenate([x_start, xf[:-1]])
    solutions = scalar_transfers(
        [piece.A[0, 0] for piece in pieces],
        np.concatenate([piece.B for piece in pieces]),
        x0,
        xf,
        bounds,
    )
    unreachable = next((k for k, sol in enumerate(solutions) if sol is None), None)
    if unreachable is not None:
        # raises the piece's own InfeasibleTransferError
        _transfer(unreachable, pieces[unreachable], x0[unreachable], bounds)
    return solutions


def _transfer(k, piece, x_from, bounds):
    try:
        return min_time_transfer(piece, x_from, bounds, piece_index=k)
    except DeltaProcError as exc:
        exc.args = (f"piece {k}: {exc.args[0]}",) + exc.args[1:]
        raise


def mean_hamiltonian_score(sol: PartitionSolution, w: PartitionWeights):
    """Weighted mean of the per-piece Hamiltonian values: sum(H_k eps_k)/N."""
    h = np.array([ps.hamiltonian for ps in sol.piece_solutions])
    if h.size != w.eps.size:
        raise ValueError("weights count does not match the piece count")
    return float(np.sum(h * w.eps) / h.size)


def hamiltonian_deviation(sol: PartitionSolution, w: PartitionWeights):
    """Weighted mean absolute deviation of H_k from its weighted mean.

    The unsigned form; the raw signed sum would vanish identically at unit
    weights by construction of the mean.
    """
    h = np.array([ps.hamiltonian for ps in sol.piece_solutions])
    if h.size != w.eps.size:
        raise ValueError("weights count does not match the piece count")
    mean = np.sum(h * w.eps) / h.size
    return float(np.sum(np.abs(h - mean) * w.eps) / h.size)


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
    return TimePartition(new, m=partition.m + 1)


def run_delta(record: TrajectoryRecord, config: DeltaConfig) -> DeltaResult:
    """Refine until successive totals differ by at most delta.

    Non-convergence within the refinement budget is reported through the
    ``converged`` flag, not as an error.
    """
    partition = TimePartition.uniform(
        record.t_start, record.t_end, config.initial_N, m=1
    )
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
