"""Independent checks of the program's outputs.

Everything here uses the standard library only and none of the program's
code: the expected values are recomputed from closed forms (the scalar
worked example, the double integrator of Athans & Falb, *Optimal Control*,
1966) or from the input files themselves.  Each ``check_*`` function returns
a list of failure messages; an empty list means the output is accepted.
"""

from __future__ import annotations

import bisect
import csv
import math

CONTROL_VERTICES = (-1.0, 1.0)


# ----------------------------------------------------------------- scalar path

def two_endpoint_fit(x_l, x_r, dx_l, dx_r, u_data):
    """Scalar (a, b) with a*x + b*u_data matching dx at both endpoints."""
    a = (dx_r - dx_l) / (x_r - x_l)
    b = (dx_l - a * x_l) / u_data
    return a, b


def scalar_min_time(a, b, x0, xf):
    """Least transfer time of dx/dt = a x + b u from x0 to xf over u = +-1.

    T = ln((a xf + d) / (a x0 + d)) / a with d = b u, valid when the speed
    keeps one sign along the path; None when neither vertex reaches xf.
    """
    best = None
    for u in CONTROL_VERTICES:
        d = b * u
        s0 = a * x0 + d
        sf = a * xf + d
        if a == 0.0:
            t = (xf - x0) / d if d != 0.0 else -1.0
        elif s0 == 0.0 or sf == 0.0 or (s0 > 0.0) != (sf > 0.0):
            continue
        else:
            t = math.log(sf / s0) / a
        if t > 0.0 and (best is None or t < best):
            best = t
    return best


def scalar_flow(a, b, u, x0, t):
    """Exact state of dx/dt = a x + b u after time t from x0."""
    d = b * u
    if a == 0.0:
        return x0 + d * t
    return (x0 + d / a) * math.exp(a * t) - d / a


def read_samples(path):
    """(t, x, u, dx) columns of the first positive record of a scalar CSV."""
    cols = ([], [], [], [])
    first = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["traj_id", "label", "t", "x0", "u0", "dx0"]:
            raise ValueError(f"{path}: unexpected header {header}")
        for row in reader:
            if row[1] != "positive":
                continue
            first = row[0] if first is None else first
            if row[0] != first:
                continue
            for col, value in zip(cols, row[2:]):
                col.append(float(value))
    return cols


def _interp(ts, ys, t):
    """Linear interpolation of samples (ts strictly increasing), clamped."""
    if t <= ts[0]:
        return ys[0]
    if t >= ts[-1]:
        return ys[-1]
    i = bisect.bisect_right(ts, t) - 1
    slope = (ys[i + 1] - ys[i]) / (ts[i + 1] - ts[i])
    return slope * (t - ts[i]) + ys[i]


def uniform_knots(t0, t1, pieces):
    """Knots placed as numpy.linspace places them, bit for bit: ``increment``
    splits the first of equally wide pieces, so a last-bit difference in a
    width would split another piece."""
    step = (t1 - t0) / pieces
    return [t0 + i * step for i in range(pieces)] + [t1]


def refine_knots(knots, strategy):
    """Midpoints everywhere (double) or one midpoint in the widest (increment)."""
    if strategy == "double":
        mids = [0.5 * (a + b) for a, b in zip(knots, knots[1:])]
        return sorted(knots + mids)
    widths = [b - a for a, b in zip(knots, knots[1:])]
    k = widths.index(max(widths))
    return sorted(knots + [0.5 * (knots[k] + knots[k + 1])])


def partition_total(samples, knots):
    """Sum of per-piece least times, each piece fitted at its two knots."""
    ts, xs, us, dxs = samples
    total = 0.0
    for t_l, t_r in zip(knots, knots[1:]):
        x_l, x_r = _interp(ts, xs, t_l), _interp(ts, xs, t_r)
        a, b = two_endpoint_fit(
            x_l, x_r, _interp(ts, dxs, t_l), _interp(ts, dxs, t_r), _interp(ts, us, t_l)
        )
        piece = scalar_min_time(a, b, x_l, x_r)
        if piece is None:
            return None
        total += piece
    return total


def expected_level_totals(samples, strategy, levels, initial_pieces=2):
    """Totals of the first ``levels`` refinement levels, recomputed from data."""
    knots = uniform_knots(samples[0][0], samples[0][-1], initial_pieces)
    totals = []
    for _ in range(levels):
        totals.append((len(knots) - 1, partition_total(samples, knots)))
        knots = refine_knots(knots, strategy)
    return totals


def read_trace(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [
        (int(r["N_m"]), float(r["total_time"]), float(r["gap"]) if r["gap"] else None)
        for r in rows
    ]


def read_schedule_durations(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(r["t_end"]) - float(r["t_start"]) for r in csv.DictReader(fh)]


def check_delta_run(
    exit_code, trace, durations, samples, strategy, delta, near=None, tol=1e-9
):
    """Check one ``delta`` run: exit code, every level's total, gap, schedule.

    ``trace`` is [(pieces, total, gap)] as written to trace.csv, ``durations``
    the schedule.csv segment lengths, ``near`` an optional (value, tolerance)
    that the final total must lie within.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    if not trace:
        return ["empty trace"]
    errors = []
    expected = expected_level_totals(samples, strategy, len(trace))
    for m, ((pieces, total, _), (want_pieces, want_total)) in enumerate(
        zip(trace, expected), start=1
    ):
        if pieces != want_pieces:
            errors.append(f"level {m}: {pieces} pieces, expected {want_pieces}")
        elif want_total is None or abs(total - want_total) > tol:
            errors.append(f"level {m}: total {total!r}, recomputed {want_total!r}")
    final_gap = trace[-1][2]
    if final_gap is None or not final_gap <= delta:
        errors.append(f"final gap {final_gap!r} exceeds delta {delta}")
    final_total = trace[-1][1]
    if abs(math.fsum(durations) - final_total) > tol:
        errors.append(f"schedule sums to {math.fsum(durations)!r}, total is {final_total!r}")
    if near is not None and abs(final_total - near[0]) > near[1]:
        errors.append(f"final total {final_total!r} not within {near[1]} of {near[0]!r}")
    return errors


def pinned_fit(u_data, x_l, x_r):
    """Fit of the example-1 plant dx/dt = x^2 + u^2 at two exact checkpoints."""
    u2 = u_data * u_data
    return two_endpoint_fit(x_l, x_r, x_l * x_l + u2, x_r * x_r + u2, u_data)


def case_closed_form(u_data, checkpoints):
    """Chained least time over the pinned checkpoints of a benchmark case."""
    total = 0.0
    for x_l, x_r in zip(checkpoints, checkpoints[1:]):
        total += scalar_min_time(*pinned_fit(u_data, x_l, x_r), x_l, x_r)
    return total


def check_case(u_data, checkpoints, solver_total, oracle_total, segments, replay_end):
    """Solver and oracle totals against the closed form; replay against the flow.

    ``segments`` is the solver's schedule [(t_start, t_end, u)], one per piece;
    ``replay_end`` the final state of the program's replay of it.
    """
    errors = []
    want = case_closed_form(u_data, checkpoints)
    if not abs(solver_total - want) <= 1e-6:
        errors.append(f"solver total {solver_total!r}, closed form {want!r}")
    if not abs(oracle_total - want) <= 1e-3:
        errors.append(f"oracle total {oracle_total!r}, closed form {want!r}")
    x = checkpoints[0]
    for (t_start, t_end, u), x_l, x_r in zip(segments, checkpoints, checkpoints[1:]):
        x = scalar_flow(*pinned_fit(u_data, x_l, x_r), u, x, t_end - t_start)
    if len(segments) != len(checkpoints) - 1:
        errors.append(f"{len(segments)} schedule segments for {len(checkpoints) - 1} pieces")
    if not abs(replay_end - x) <= 1e-6:
        errors.append(f"replay ends at {replay_end!r}, exact flow gives {x!r}")
    if not abs(replay_end - checkpoints[-1]) <= 1e-6:
        errors.append(f"replay ends at {replay_end!r}, last anchor is {checkpoints[-1]!r}")
    return errors


def check_near(value, want, tol, what):
    return [] if abs(value - want) <= tol else [f"{what} {value!r} not within {tol} of {want!r}"]


# ------------------------------------------------------------- n = 2 transfers

def double_integrator_time(x1, x2):
    """Least time to the origin of x1' = x2, x2' = u, |u| <= 1."""
    if x1 > -x2 * abs(x2) / 2.0:
        return x2 + 2.0 * math.sqrt(x1 + x2 * x2 / 2.0)
    return -x2 + 2.0 * math.sqrt(-x1 + x2 * x2 / 2.0)


def double_integrator_flow(x, u, t):
    return (x[0] + x[1] * t + 0.5 * u * t * t, x[1] + u * t)


def oscillator_flow(x, u, t):
    """x1' = x2, x2' = -x1 + u: a clockwise rotation about (u, 0)."""
    c, s = math.cos(t), math.sin(t)
    z1, z2 = x[0] - u, x[1]
    return (u + c * z1 + s * z2, -s * z1 + c * z2)


FLOWS = {"double_integrator": double_integrator_flow, "oscillator": oscillator_flow}


def check_transfer(plant, x0, total, segments, tol=1e-6):
    """Replay a bang-bang schedule with the exact flow; it must end at 0.

    ``segments`` is [(t_start, t_end, u)]; for the double integrator the total
    must also match the closed form and the schedule must switch once.
    """
    errors = []
    x = tuple(x0)
    for t_start, t_end, u in segments:
        if u not in CONTROL_VERTICES:
            errors.append(f"control {u!r} is not a vertex")
        x = FLOWS[plant](x, u, t_end - t_start)
    if not math.hypot(*x) <= tol:
        errors.append(f"replay from {x0} ends at {x}, not the origin")
    if abs(math.fsum(b - a for a, b, _ in segments) - total) > tol:
        errors.append(f"schedule length differs from the total {total!r}")
    if plant == "double_integrator":
        want = double_integrator_time(*x0)
        if not abs(total - want) <= tol:
            errors.append(f"T = {total!r} from {x0}, closed form {want!r}")
        if len(segments) != 2:
            errors.append(f"{len(segments) - 1} switches from {x0}, expected 1")
    return errors
