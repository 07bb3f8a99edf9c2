"""Reduce an integral-cost problem to a minimal-time one and map back.

Augmenting the state with the running cost and reparametrizing time by
d(tau) = f0(x, u) dt turns minimizing the integral of f0 into minimizing the
new-time duration.  The integrand must stay strictly positive along the
trajectories used, so the new time is monotone and invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ControlSchedule, Trajectory, as_vector
from .errors import RescalingDomainError


def augment_state(rhs, f0):
    """Prepend the running cost as state component 0.

    ``rhs(t, x, u)`` is the original dynamics; the returned callable has the
    same signature on the (n+1)-dimensional state, with component 0 evolving
    as f0(x, u).  Starting that component at 0 makes its final value the cost.
    """

    def augmented(t, x_aug, u):
        x = np.asarray(x_aug, dtype=float)[1:]
        return np.concatenate([[f0(x, u)], np.atleast_1d(rhs(t, x, u))])

    return augmented


def augment_initial_state(x0):
    return np.concatenate([[0.0], as_vector(x0, "x0")])


@dataclass
class RescaledTrajectory:
    """A trajectory with its monotone new-time samples attached."""

    original: Trajectory
    tau: np.ndarray

    @property
    def total_cost(self):
        return float(self.tau[-1] - self.tau[0])


def rescale_time(trajectory: Trajectory, f0) -> RescaledTrajectory:
    """New time tau(t) = integral of f0 along the sampled trajectory.

    Composite trapezoid on the sample grid; strictly increasing because f0
    must be positive at every sample (else :class:`RescalingDomainError`).
    """
    values = np.array(
        [f0(trajectory.x[i], trajectory.u[i]) for i in range(trajectory.t.size)]
    )
    bad = np.where(values <= 0.0)[0]
    if bad.size:
        i = int(bad[0])
        raise RescalingDomainError(
            f"integrand is {values[i]:g} <= 0 at t={trajectory.t[i]:g} (sample {i})"
        )
    dt = np.diff(trajectory.t)
    increments = 0.5 * (values[:-1] + values[1:]) * dt
    tau = np.concatenate([[0.0], np.cumsum(increments)])
    return RescaledTrajectory(original=trajectory, tau=tau)


def map_solution_back(schedule: ControlSchedule, rescaled: RescaledTrajectory) -> ControlSchedule:
    """Convert a schedule on the new clock back to original time.

    Segment boundaries are inverted through the monotone tau(t) samples by
    interpolation; boundaries outside the rescaled range are a domain error.
    """
    tau = rescaled.tau
    t = rescaled.original.t
    lo, hi = tau[0], tau[-1]
    segments = []
    for (a, b, u) in schedule.segments:
        for bound in (a, b):
            if bound < lo - 1e-12 or bound > hi + 1e-12:
                raise RescalingDomainError(
                    f"schedule boundary {bound:g} outside rescaled range [{lo:g}, {hi:g}]"
                )
        segments.append((np.interp(a, tau, t), np.interp(b, tau, t), u))
    return ControlSchedule(tuple(segments))
