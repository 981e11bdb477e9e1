"""Run one benchmark workload and print its metrics.

Usage (from the root of a repository checkout)::

    python3 perfbench/run.py --workload scan_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced sessions and then decomposes the workload
into per-layer calls.  ``--tiny`` shrinks the inputs (for the benchmark's
own tests).  The program is imported from ``src/`` of the checkout; without
it the benchmark exits with status 2 and prints no result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
show each timing's median, the highest percentile the sample supports and
the sample count, plus the run's environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("report_s", "s"),
              ("overview_s", "s"), ("drilldown_s", "s"), ("filtered_plot_s", "s"),
              ("refresh_s", "s"), ("rows_per_s", "rows/s"), ("peak_rss_mb", "MB"),
              ("success_rate", "ratio")]
#: Session phase timed by each latency metric.
PHASE_METRICS = {"report_s": "report", "overview_s": "overview",
                 "drilldown_s": "drilldown", "filtered_plot_s": "filtered",
                 "refresh_s": "refresh"}
#: Metrics where a higher value is better; their tail is the low end.
HIGHER_IS_BETTER = {"rows_per_s", "success_rate"}
#: Set-ups per run; setup_s is their median.
SETUP_REPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def percentile_summary(samples, higher_is_better=False):
    """(median, label, value, n) for the worst tail the sample supports.

    The tail value is the highest percentile with at least ten samples
    beyond it (the lowest, for a higher-is-better metric), or the worst
    sample when there are too few.
    """
    ordered = sorted(samples, reverse=higher_is_better)
    n = len(ordered)
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            label = f"p{100 - pct if higher_is_better else pct}"
            return statistics.median(ordered), label, ordered[math.ceil(n * pct / 100) - 1], n
    return statistics.median(ordered), "min" if higher_is_better else "max", ordered[-1], n


def _finite(value):
    return value if math.isfinite(value) else None


def end_to_end_samples(bench, setups, iterations, attempted, failed, peak_rss):
    samples = {"setup_s": setups, "wall_s": [it.wall_s for it in iterations]}
    for metric, phase in PHASE_METRICS.items():
        samples[metric] = [it.phase_s[phase] for it in iterations]
    samples["rows_per_s"] = [bench.rows / it.phase_s["report"] for it in iterations]
    samples["peak_rss_mb"] = [peak_rss]
    samples["success_rate"] = [(attempted - failed) / attempted]
    return samples


def _exit_on_term(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn a termination request into SystemExit, so the pool and the work
    # directory are still cleaned up.
    signal.signal(signal.SIGTERM, _exit_on_term)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # The workload fixes the scheduler; environment defaults must not.
    for variable in ("REPRO_SCHEDULER", "REPRO_REMOTE_WORKERS", "REPRO_REMOTE_AUTHKEY"):
        os.environ.pop(variable, None)
    sys.path[:] = [src, ROOT] + [path for path in sys.path if path != HERE]

    import numpy

    from perfbench import layers, session

    if args.workload not in session.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(session.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = session.WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = os.path.join(ROOT, ".perfbench_work", run_id)
    bench = session.Bench(workload, args.seed, workdir, tiny=args.tiny)
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "rows": bench.rows,
            "source": workload.source, "scheduler": workload.scheduler,
            "workers": bench.workers,
            "chunks": (math.ceil(bench.rows / bench.chunk_rows)
                       if workload.source == "scan" else 0),
            "append_rows": bench.append_rows, "seconds": args.seconds}
    print("perfbench " + json.dumps(info), flush=True)
    try:
        if args.trace:
            warmup = bench.setup()
            metrics, tracer, attempted, failed, problems = layers.traced_run(
                bench, args.seconds, os.path.join(workdir, "decompose"), run_id)
            attempted += warmup.attempted
            failed += warmup.failed
            problems = warmup.problems + problems
            units = dict(layers.METRICS)
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(trace_path)
            for name, unit in layers.METRICS:
                print(f"  {name:34s} {metrics[name]:14.6g} {unit}")
            print(f"  spans written to {os.path.relpath(trace_path, ROOT)}")
            result_metrics = {name: {"value": metrics[name], "unit": units[name]}
                              for name, _ in layers.METRICS}
        else:
            setups, passes = [], []
            for _ in range(SETUP_REPS):
                started = time.perf_counter()
                passes.append(bench.setup())
                setups.append(time.perf_counter() - started)
            iterations = []
            deadline = time.perf_counter() + args.seconds
            while True:
                iterations.append(bench.run_iteration(len(iterations)))
                if time.perf_counter() >= deadline:
                    break
            passes += iterations
            attempted = sum(it.attempted for it in passes)
            failed = sum(it.failed for it in passes)
            problems = [problem for it in passes for problem in it.problems]
            samples = end_to_end_samples(bench, setups, iterations, attempted, failed,
                                         session.peak_rss_mb())
            result_metrics = {}
            for name, unit in END_TO_END:
                median, label, tail, n = percentile_summary(samples[name],
                                                            name in HIGHER_IS_BETTER)
                print(f"  {name:16s} median {median:12.6g} {unit:7s} "
                      f"{label} {tail:12.6g}  n={n}")
                result_metrics[name] = {"value": _finite(median), "unit": unit}
    finally:
        # The traced run of a scan starts a process pool.
        session.stop_pools(bench.workers)
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems[:20]:
        print(f"  WRONG: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
