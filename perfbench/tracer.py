"""Spans and counts at the boundaries between the program's layers.

The tracer replaces a public name at the module attribute that the program
(or the benchmark) calls through, so nothing inside the program changes.
Spans are kept in memory with their parent; a span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans = []  # [id, parent, name, phase, start, end, self seconds]
        self.counts = defaultdict(int)  # (phase, name) -> count
        self._ids = itertools.count()
        self._stack = []  # open spans: [id, start, child seconds]
        self._patches = []

    def count(self, name, amount=1):
        self.counts[(self.phase, name)] += amount

    def span(self, module, attr, name, counts=None, calls=False):
        """Wrap ``module.attr`` in a span.

        ``name`` may be a callable of the call's arguments, to split one
        boundary into several span names.  ``calls`` counts every call as
        ``<name>_calls``; ``counts(result)`` returns {count name: amount} for
        a call that returned.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            frame = [next(self._ids), time.perf_counter(), 0.0]
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans.append(
                    [frame[0], parent, label, self.phase, frame[1], end, duration - frame[2]]
                )
                if calls:
                    self.count(label + "_calls")
            if counts is not None:
                for key, amount in counts(result).items():
                    self.count(key, amount)
            return result

        self._patch(module, attr, wrapper)

    def counter(self, module, attr, name, amount=None):
        """Count calls of ``module.attr``, or add ``amount(result)`` per call."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.count(name, 1 if amount is None else amount(result))
            return result

        self._patch(module, attr, wrapper)

    def _patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def totals(self):
        """{phase: ({span name: [inclusive s, self s]}, {count name: n})}."""
        out = defaultdict(lambda: (defaultdict(lambda: [0.0, 0.0]), {}))
        for _, _, name, phase, start, end, self_s in self.spans:
            entry = out[phase][0][name]
            entry[0] += end - start
            entry[1] += self_s
        for (phase, name), n in self.counts.items():
            out[phase][1][name] = n
        return out


def install(tracer):
    """Wrap every layer boundary of the deltaproc modules on a solve path."""
    from deltaproc import cli
    from deltaproc import dynamics as dyn
    from deltaproc import pontryagin as pon
    from deltaproc import procedure as proc
    from deltaproc import reference as ref

    def transfer_kind(piece, *args, **kwargs):
        return "pontryagin.scalar" if piece.n == 1 else "pontryagin.shoot"

    tracer.span(ref, "sample_reference", "reference.sample")
    tracer.span(ref, "dense_reference_record", "reference.sample")
    tracer.span(ref, "brute_force_min_time", "reference.oracle")
    tracer.counter(ref, "rk4_step", "reference.rk4_steps")
    tracer.span(dyn, "simulate_model", "dynamics.simulate")
    tracer.span(dyn, "integrate", "dynamics.integrate")
    tracer.counter(dyn, "rk4_step", "dynamics.rk4_steps")
    # fitting is reached only through cli (ingest) and procedure (fit_model)
    tracer.span(
        cli, "ingest_trajectories", "fitting.ingest",
        counts=lambda recs: {"fitting.rows_ingested": sum(r.t.size for r in recs)},
    )
    tracer.span(
        proc, "fit_model", "fitting.fit_model",
        counts=lambda model: {"fitting.pieces_fitted": len(model.pieces)},
    )
    # the procedure calls transfers through its own module, the benchmark
    # through pontryagin's
    tracer.span(proc, "min_time_transfer", transfer_kind, calls=True)
    tracer.span(pon, "min_time_transfer", transfer_kind, calls=True)
    tracer.counter(pon, "expm", "pontryagin.expm_calls")
    tracer.counter(pon, "least_squares", "pontryagin.lsq_nfev", amount=lambda r: r.nfev)
    tracer.span(
        cli, "run_delta", "procedure.run_delta",
        counts=lambda res: {"procedure.levels": len(res.trace)},
    )
    tracer.span(
        proc, "solve_partition", "procedure.solve_partition",
        counts=lambda sol: {"procedure.pieces_solved": len(sol.piece_solutions)},
    )
    tracer.span(cli, "main", "cli.main")
    tracer.span(cli, "write_trace_csv", "cli.write")
    tracer.span(cli, "write_schedule_csv", "cli.write")


# Per-layer metric -> (kind, source): "incl" and "self" read span times,
# "count" reads a counter.
LAYER_METRICS = {
    "reference.sample_s": ("incl", "reference.sample"),
    "reference.oracle_s": ("incl", "reference.oracle"),
    "reference.rk4_steps": ("count", "reference.rk4_steps"),
    "dynamics.simulate_s": ("incl", "dynamics.simulate"),
    "dynamics.integrate_s": ("incl", "dynamics.integrate"),
    "dynamics.rk4_steps": ("count", "dynamics.rk4_steps"),
    "fitting.ingest_s": ("incl", "fitting.ingest"),
    "fitting.rows_ingested": ("count", "fitting.rows_ingested"),
    "fitting.fit_model_s": ("incl", "fitting.fit_model"),
    "fitting.pieces_fitted": ("count", "fitting.pieces_fitted"),
    "pontryagin.scalar_s": ("incl", "pontryagin.scalar"),
    "pontryagin.scalar_calls": ("count", "pontryagin.scalar_calls"),
    "pontryagin.shoot_s": ("incl", "pontryagin.shoot"),
    "pontryagin.shoot_calls": ("count", "pontryagin.shoot_calls"),
    "pontryagin.expm_calls": ("count", "pontryagin.expm_calls"),
    "pontryagin.lsq_nfev": ("count", "pontryagin.lsq_nfev"),
    "procedure.run_delta_s": ("self", "procedure.run_delta"),
    "procedure.levels": ("count", "procedure.levels"),
    "procedure.solve_partition_s": ("self", "procedure.solve_partition"),
    "procedure.pieces_solved": ("count", "procedure.pieces_solved"),
    "cli.main_s": ("self", "cli.main"),
    "cli.write_s": ("incl", "cli.write"),
}


def metric_value(phase_totals, metric):
    """A metric from one phase's totals, or None when its layer did no work."""
    kind, source = LAYER_METRICS[metric]
    times, counts = phase_totals
    if kind == "count":
        return counts.get(source)
    if source not in times:
        return None
    return times[source][0 if kind == "incl" else 1]
