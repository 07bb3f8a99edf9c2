"""Benchmark of deltaproc: one workload per call, each in its own process.

    python3 perfbench/run.py --workload delta_csv --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src``.  The workload process runs with one BLAS/OpenMP thread.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run instead, and the spans and counts go to ``perfbench/out``.
``--workload all`` runs every workload untraced and traced and prints the
tracing overhead of each.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("delta_csv", "verify_cases", "shoot_2d")
# Set-ups per untraced run; setup_s is their median.  Each set-up runs in a
# fresh process, so each pays the import.
SETUP_RUNS = 3
# One thread: OpenBLAS otherwise starts a second thread on 2x2 matrices,
# which costs CPU and spreads the wall times of n = 2 shooting.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run ends within this many seconds, or fails.
RUN_DEADLINE_S = 170
END_TO_END_UNITS = {"setup_s": "s", "task_s": "s", "task_cpu_s": "s", "peak_rss_mb": "MB"}


def worker(args, deadline, extra=()):
    """Run one workload process and return its JSON line."""
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    env = {**os.environ, **THREADS, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(args):
    """One benchmark run: the result object the last output line carries."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    if not args.trace:
        setups = [
            worker(args, deadline, ["--setup-only"])["setup_s"] for _ in range(SETUP_RUNS - 1)
        ]
    main_run = worker(args, deadline)
    for error in main_run["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if args.trace:
        metrics = main_run["layers"]
    else:
        main_run["setup_s"] = statistics.median(setups + [main_run["setup_s"]])
        metrics = {
            name: {"value": main_run[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": not main_run["errors"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }, main_run


def report(args, result, detail):
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print(
        f"# {args.workload} seed {args.seed}: {len(detail['round_walls'])} rounds of "
        f"{detail['tasks_per_round']} tasks, {result['attempted']} attempted, "
        f"{result['failed']} failed, correct {result['correct']}"
    )
    for metric, entry in result["metrics"].items():
        print(f"{metric:<32}{entry['value']:>16.6g} {entry['unit']}")


def run_all(args):
    """Every workload, untraced then traced, with the tracing overhead."""
    summary = {}
    for workload in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
            runs[trace], detail = measure(one)
            report(one, runs[trace], detail)
        traced = runs[1]["metrics"]
        overhead = traced["trace.overhead_s"]["value"]
        print(f"# {workload}: tracing overhead {overhead:+.4f} s per task "
              f"({overhead / (traced['trace.task_s']['value'] - overhead):+.1%}), "
              f"traced minus untraced rounds of the traced run")
        summary[workload] = {"untraced": runs[0], "traced": runs[1]}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "deltaproc", "__init__.py")):
        print(f"error: no deltaproc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    result, detail = measure(args)
    report(args, result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
