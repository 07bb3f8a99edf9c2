"""One workload in one process: set-up, then identical timed rounds.

Started by run.py with the BLAS and OpenMP thread counts fixed at one.
Prints one JSON line: the set-up time and, unless ``--setup-only``, the
round timings, outcome counts, check failures and (with ``--trace 1``) the
per-layer values.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (imports deltaproc)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def layer_values(tracer, rounds):
    """Per-layer metrics: the median over the traced rounds, or the set-up's
    value where the layer does no work in the rounds (0 where it does none)."""
    totals = tracer.totals()
    values, repeat = {}, True
    for metric, (kind, _) in tracing.LAYER_METRICS.items():
        per_round = [tracing.metric_value(totals[i], metric) for i in rounds]
        if all(v is None for v in per_round):
            value = tracing.metric_value(totals["setup"], metric) or 0
        elif kind == "count":
            per_round = [v or 0 for v in per_round]
            value = statistics.median_low(per_round)
            repeat &= len(set(per_round)) == 1
        else:
            value = statistics.median([v or 0 for v in per_round])
        values[metric] = {"value": value, "unit": "count" if kind == "count" else "s"}
    return values, repeat


def write_trace(path, tracer, summary):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                **summary,
                "span_fields": ["id", "parent", "name", "phase", "start", "end", "self"],
                "spans": tracer.spans,
                "counts": [[p, name, n] for (p, name), n in tracer.counts.items()],
            },
            fh,
        )


def main(argv=None):
    args = parse_args(argv)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    workload.setup()
    workload.warm_up()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is not None:
        tracer.restore()

    walls, cpus, errors = [], [], []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        # A traced run alternates traced and untraced rounds, so that its
        # overhead is measured against rounds run at nearly the same time.
        traced = tracer is not None and len(walls) % 2 == 0
        if traced:
            tracer.phase = len(walls)
            tracing.install(tracer)
        w0, c0 = time.perf_counter(), time.process_time()
        outcomes = workload.run_round()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        if traced:
            tracer.restore()
        attempted += len(outcomes)
        failed += sum(map(workload.failed, outcomes))
        errors += workload.check(outcomes)
        # stop before a round that would end after the run length; a traced
        # run needs one round of each kind
        enough = len(walls) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - begin + statistics.median(walls) > args.seconds:
            break

    tasks = len(workload.tasks)
    result = {
        "setup_s": setup_s,
        "round_walls": walls,
        "tasks_per_round": tasks,
        "task_s": statistics.median(walls) / tasks,
        "task_cpu_s": statistics.median(cpus) / tasks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    if tracer is not None:
        traced_rounds = range(0, len(walls), 2)
        result["layers"], result["counts_repeat"] = layer_values(tracer, traced_rounds)
        traced_s = statistics.median(walls[0::2]) / tasks
        untraced_s = statistics.median(walls[1::2]) / tasks
        result["layers"]["trace.task_s"] = {"value": traced_s, "unit": "s"}
        result["layers"]["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        write_trace(path, tracer, {k: v for k, v in result.items() if k != "errors"})
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
