"""Each check accepts the known answer and rejects a perturbed one.

    python3 -m pytest perfbench/test_checks.py
"""

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

EXAMPLE1 = (0.5, (0.0, 0.5, 1.0))
EXAMPLE1_TOTAL = 2.0 * math.log(1.5) + (2.0 / 3.0) * math.log(1.6)


def example1_segments(controls=(1.0, -1.0)):
    t1 = 2.0 * math.log(1.5)
    return [(0.0, t1, controls[0]), (t1, EXAMPLE1_TOTAL, controls[1])]


def dense_samples(u, count=401):
    """Samples of x' = x^2 + u^2 from x = 0: x = u tan(u t), up to x = 1."""
    horizon = math.atan(1.0 / u) / u
    ts = [horizon * i / (count - 1) for i in range(count)]
    xs = [u * math.tan(u * t) for t in ts]
    return ts, xs, [u] * count, [x * x + u * u for x in xs]


def written_trace(samples, strategy, levels):
    """What a correct run writes: recomputed totals and their gaps."""
    totals = checks.expected_level_totals(samples, strategy, levels)
    gaps = [None] + [abs(b[1] - a[1]) for a, b in zip(totals, totals[1:])]
    return [(n, total, gap) for (n, total), gap in zip(totals, gaps)]


# ---------------------------------------------------------------- scalar path

def test_example1_closed_form():
    assert checks.pinned_fit(0.5, 0.0, 0.5) == (0.5, 0.5)
    assert checks.pinned_fit(0.5, 0.5, 1.0) == (1.5, -0.5)
    assert math.isclose(checks.case_closed_form(*EXAMPLE1), EXAMPLE1_TOTAL, abs_tol=1e-15)


def test_scalar_min_time_picks_the_faster_vertex():
    # a = 1.5, b = -0.5 from x = 0.5 to 1: only u = -1 reaches, in (2/3) ln 1.6
    assert math.isclose(checks.scalar_min_time(1.5, -0.5, 0.5, 1.0), (2 / 3) * math.log(1.6))
    assert checks.scalar_min_time(1.0, 0.0, 0.0, 1.0) is None


def test_case_accepts_known_values():
    assert checks.check_case(
        *EXAMPLE1, EXAMPLE1_TOTAL, EXAMPLE1_TOTAL + 5e-4, example1_segments(), 1.0 + 1e-8
    ) == []


def test_case_rejects_perturbed_totals():
    assert checks.check_case(
        *EXAMPLE1, EXAMPLE1_TOTAL + 1e-3, EXAMPLE1_TOTAL, example1_segments(), 1.0
    )
    assert checks.check_case(
        *EXAMPLE1, EXAMPLE1_TOTAL, EXAMPLE1_TOTAL + 2e-3, example1_segments(), 1.0
    )


def test_case_rejects_flipped_control_and_bad_replay():
    assert checks.check_case(
        *EXAMPLE1, EXAMPLE1_TOTAL, EXAMPLE1_TOTAL, example1_segments((1.0, 1.0)), 1.0
    )
    assert checks.check_case(
        *EXAMPLE1, EXAMPLE1_TOTAL, EXAMPLE1_TOTAL, example1_segments(), 1.0 + 1e-5
    )


def test_plant_oracle_near_pi_over_4():
    assert checks.check_near(math.pi / 4 + 5e-4, math.pi / 4, 1e-3, "oracle") == []
    assert checks.check_near(math.pi / 4 + 2e-3, math.pi / 4, 1e-3, "oracle")


def test_delta_run_accepts_recomputed_trace():
    samples = dense_samples(1.0)
    trace = written_trace(samples, "double", 6)
    assert trace[-1][2] <= 1e-3
    durations = [trace[-1][1] / 4] * 4
    near = (math.pi / 4, 0.02)
    assert checks.check_delta_run(0, trace, durations, samples, "double", 1e-3, near) == []


def test_delta_run_rejects_perturbations():
    samples = dense_samples(0.75)
    trace = written_trace(samples, "increment", 5)
    durations = [trace[-1][1]]
    delta = 2 * trace[-1][2]
    assert checks.check_delta_run(0, trace, durations, samples, "increment", delta) == []
    # a level total off by 1e-6
    bad = list(trace)
    bad[2] = (bad[2][0], bad[2][1] + 1e-6, bad[2][2])
    assert checks.check_delta_run(0, bad, durations, samples, "increment", delta)
    # the other strategy's partitions
    assert checks.check_delta_run(0, trace, durations, samples, "double", delta)
    # non-zero exit, unmet delta, schedule not summing to the total
    assert checks.check_delta_run(2, trace, durations, samples, "increment", delta)
    assert checks.check_delta_run(0, trace, durations, samples, "increment", trace[-1][2] / 2)
    assert checks.check_delta_run(0, trace, [durations[0] + 1e-6], samples, "increment", delta)
    # the pi/4 check on data far from u = 1
    assert checks.check_delta_run(
        0, trace, durations, samples, "increment", delta, (math.pi / 4, 0.02)
    )


def test_refine_knots_splits_the_first_widest():
    assert checks.refine_knots([0.0, 1.0, 2.0], "increment") == [0.0, 0.5, 1.0, 2.0]
    assert checks.refine_knots([0.0, 1.0, 2.0], "double") == [0.0, 0.5, 1.0, 1.5, 2.0]


# ----------------------------------------------------------- n = 2 transfers

def double_integrator_schedule(x1, x2):
    """Closed-form bang-bang schedule to the origin: (total, segments)."""
    above = x1 > -x2 * abs(x2) / 2.0
    u = -1.0 if above else 1.0
    # first arc until the state meets the switching curve
    root = math.sqrt(x1 + x2 * x2 / 2.0) if above else math.sqrt(-x1 + x2 * x2 / 2.0)
    t1 = x2 + root if above else -x2 + root
    total = checks.double_integrator_time(x1, x2)
    return total, [(0.0, t1, u), (t1, total, -u)]


def test_double_integrator_closed_form_and_replay():
    for x0 in ((0.761, 0.114), (-0.681, 1.154), (0.3, -0.8), (-0.5, -0.2)):
        total, segments = double_integrator_schedule(*x0)
        assert checks.check_transfer("double_integrator", x0, total, segments) == []
    assert math.isclose(checks.double_integrator_time(-0.681, 1.154), 1.16709, abs_tol=1e-5)


def test_double_integrator_rejects_perturbations():
    x0 = (0.761, 0.114)
    total, segments = double_integrator_schedule(*x0)
    late = segments[:-1] + [(segments[-1][0], total + 1e-3, segments[-1][2])]
    assert checks.check_transfer("double_integrator", x0, total + 1e-3, late)
    flipped = [(a, b, -u) for a, b, u in segments]
    assert checks.check_transfer("double_integrator", x0, total, flipped)
    # right total, but an extra switch in the schedule
    (t1, _, u1), (t2, _, u2) = segments
    split = [(0.0, t1, u1), (t1, total - 0.1, u2), (total - 0.1, total, u2)]
    assert checks.check_transfer("double_integrator", x0, total, split)


def test_oscillator_replay():
    # under u = 1 the state turns clockwise about (1, 0); this start reaches
    # the origin after one time unit
    x0 = (1.0 - math.cos(1.0), -math.sin(1.0))
    assert checks.check_transfer("oscillator", x0, 1.0, [(0.0, 1.0, 1.0)]) == []
    assert checks.check_transfer("oscillator", x0, 1.0, [(0.0, 1.0, -1.0)])
    assert checks.check_transfer("oscillator", x0, 1.001, [(0.0, 1.001, 1.0)])
