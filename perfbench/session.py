"""The two workloads: their inputs, per-run state and timed EDA session.

Every workload is one closed-loop client that waits for each reply, the
way one EDA user does.  Each timed iteration runs the same five phases of a
user session through the public API; the workloads differ in the input
(scanned CSV or in-memory frame), in the execution backend and in the state
the storage layers start from:

* ``report``   -- path or frame to report HTML (``create_report`` +
  ``Report.to_html``; for a scan this includes opening a fresh
  ``scan_csv`` handle);
* ``overview`` -- the rendered ``plot(df)``;
* ``drilldown``-- the rendered calls of the Figure 7 user-study loop
  between ``plot(df)`` and ``create_report``;
* ``filtered`` -- ``plot(df, "f0", where=ts >= cutoff)``, about 10% of rows;
* ``refresh``  -- a 1% append, then the refreshed report to HTML.

Scan workloads run the report first (the first-contact order); the
in-memory session follows Figure 7 (overview, drill-down, report).
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import shutil
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from repro.graph.executor import ProcessExecutor

from perfbench.data import TIMESTAMP, Table, Truth, generate

PHASES = ("report", "overview", "drilldown", "filtered", "refresh")
DRILLDOWN = (("plot", ("f0",)), ("plot", ("c4",)), ("plot", ("f0", "f1")),
             ("plot", ("f0", "c4")), ("plot", ("c4", "c200")),
             ("plot_correlation", ()), ("plot_missing", ()),
             ("plot_missing", ("f0",)))
#: ``plot_missing(scan, col)`` cannot stream: it materializes the whole file
#: through a full CSV parse (the documented fallback), which would put a
#: second full parse into every scan iteration.  Scan sessions leave it out.
SCAN_DRILLDOWN = DRILLDOWN[:-1]
FILTER_SHARE = 0.10
APPEND_SHARE = 0.01
#: Chunks per scan worker: several, so chunk scheduling matters.
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class Workload:
    name: str
    source: str                   # "scan" or "memory"
    scheduler: str
    rows: int
    tiny_rows: int


#: Two workloads, so that each run can measure for long: on a shared host the
#: machine's speed drifts over minutes, and only long runs keep the medians
#: of separate runs close.  Both run in one process on the default threaded
#: scheduler.  A warm-storage workload on the process scheduler is left out:
#: its coordinator and nproc workers share the cores, and on a 2-vCPU VM its
#: report times drifted about 1.4 times as far as a pure-Python loop timed
#: alongside them.  The traced run of scan_cold measures its storage
#: findings instead (warm sidecar hits and the bytes a refresh re-parses
#: under the process scheduler).
WORKLOADS = {
    "scan_cold": Workload("scan_cold", "scan", "threaded", 12_000, 1_600),
    # Above compute.small_data_rows (50k), so the graph path and the
    # cross-call cache are active; ~25 MB of intermediates fits the cache.
    "inmem_session": Workload("inmem_session", "memory", "threaded", 60_000, 3_000),
}


@dataclass
class Op:
    phase: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], List[str]]


@dataclass
class Iteration:
    """Timings and outcomes of one pass over the session."""

    wall_s: float
    phase_s: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    results: List[Tuple[Op, Any]] = field(default_factory=list)


def worker_count() -> int:
    return min(8, os.cpu_count() or 1)


def stop_pools(workers: int) -> None:
    """Shut the process pool down and wait for every worker to exit."""
    ProcessExecutor(workers).discard()
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live worker children."""
    pids = ["self"] + [str(child.pid) for child in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _html_problems(html: Any) -> List[str]:
    return [] if isinstance(html, str) and len(html) > 1000 else ["empty HTML"]


class Bench:
    """One workload's inputs, state isolation and session."""

    def __init__(self, workload: Workload, seed: int, workdir: str, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.rows = workload.tiny_rows if tiny else workload.rows
        self.workers = worker_count()
        self.chunk_rows = max(1, self.rows // (CHUNKS_PER_WORKER * self.workers))
        self.append_rows = max(1, int(self.rows * APPEND_SHARE))
        self.config: Dict[str, Any] = {}
        if tiny and workload.source == "memory":
            self.config["compute.small_data_rows"] = self.rows // 2
        self.csv = os.path.join(workdir, "data.csv")
        self.base: Optional[Table] = None
        self.handle: Any = None
        self.report: Any = None
        self.drilldown = SCAN_DRILLDOWN if workload.source == "scan" else DRILLDOWN
        self.ops = self._build_ops()

    # ------------------------------------------------------------------ #
    # Set-up and per-iteration state isolation
    # ------------------------------------------------------------------ #
    def setup(self) -> Iteration:
        """Generate the inputs and run every op once.

        Returns the warm-up pass, whose failures count like any other.
        """
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.base = generate(self.seed, self.rows)
        self.truth = Truth(self.base)
        self.cutoff = self.base.cutoff(FILTER_SHARE)
        self.filtered_truth = Truth(self.base.take(
            self.base.values[TIMESTAMP] >= self.cutoff))
        if self.workload.source == "scan":
            with open(self.csv, "wb") as handle:
                handle.write(self.base.csv_header() + self.base.csv_rows())
            self.pristine_bytes = os.path.getsize(self.csv)
        else:
            grown = self.base.concat(self._delta(1))
            self.grown_truth = Truth(grown)
            self.frame = repro.DataFrame(self.base.frame_columns())
            self.grown = repro.DataFrame(grown.frame_columns())
        return self.run_iteration(-1)

    def _delta(self, stream: int) -> Table:
        return generate(self.seed, self.append_rows, stream=stream,
                        after=self.base.values[TIMESTAMP][-1])

    def reset(self, iteration: int) -> None:
        """Put the storage layers and caches in the iteration's start state.

        Every scan iteration appends a different delta (its own generator
        stream), so the appended chunk is never served from an earlier
        iteration's sidecar.
        """
        repro.clear_cache()
        # Start every iteration with no garbage left over from the last one.
        gc.collect()
        if self.workload.source == "scan":
            delta = self._delta(2 + iteration)
            self.grown_truth = Truth(self.base.concat(delta))
            # Truncating keeps every pristine chunk's CRC stamp valid.
            os.truncate(self.csv, self.pristine_bytes)
            # A cold start: no sidecar and no zone maps.
            shutil.rmtree(self.csv + ".chunks", ignore_errors=True)
            if os.path.exists(self.csv + ".zones.json"):
                os.remove(self.csv + ".zones.json")
            self.delta_bytes = delta.csv_rows()
            self.handle = None
        else:
            # The frames are built once in set-up; dropping their cached
            # fingerprints makes the session fingerprint them again, as it
            # would a newly loaded frame.
            self.frame.invalidate_fingerprint()
            self.grown.invalidate_fingerprint()
            self.handle = self.frame

    def run_iteration(self, iteration: int, tracer: Any = None) -> Iteration:
        self.reset(iteration)
        return self.run_session(tracer)

    # ------------------------------------------------------------------ #
    # The session
    # ------------------------------------------------------------------ #
    def _build_ops(self) -> List[Op]:
        report = Op("report", "create_report", self._report_op,
                    lambda out: self.truth.check_report(out[0]) + _html_problems(out[1]))
        overview = self._call_op("overview", "plot", ())
        drilldown = [self._call_op("drilldown", call, columns)
                     for call, columns in self.drilldown]
        filtered = Op("filtered", "plot(f0, where)", self._filtered_op,
                      lambda out: (self.filtered_truth.check_numeric(
                          out[0].intermediates.stats, "f0") + _html_problems(out[1])))
        refresh = Op("refresh", "refresh", self._refresh_op,
                     lambda out: (self.grown_truth.check_report(out[0])
                                  + _html_problems(out[1])))
        if self.workload.source == "scan":
            return [report, overview, *drilldown, filtered, refresh]
        return [overview, *drilldown, report, filtered, refresh]

    def _call_op(self, phase: str, call: str, columns: tuple) -> Op:
        def run() -> Any:
            container = getattr(repro, call)(self.handle, *columns, config=self.config)
            return container, container.to_html()

        def check(out: Any) -> List[str]:
            return (self.truth.check_call(call, columns, out[0].intermediates)
                    + _html_problems(out[1]))
        return Op(phase, f"{call}({', '.join(columns)})", run, check)

    def _report_op(self) -> Any:
        if self.workload.source == "scan":
            self.handle = repro.scan_csv(self.csv, chunk_rows=self.chunk_rows)
        self.report = repro.create_report(self.handle, config=self.config)
        return self.report, self.report.to_html()

    def _filtered_op(self) -> Any:
        container = repro.plot(self.handle, "f0", where=(TIMESTAMP, ">=", self.cutoff),
                               config=self.config)
        return container, container.to_html()

    def _refresh_op(self) -> Any:
        if self.workload.source == "scan":
            with open(self.csv, "ab") as handle:
                handle.write(self.delta_bytes)
            refreshed = self.report.refresh()
        else:
            # An in-memory frame cannot grow in place: the user re-profiles
            # the appended frame.
            refreshed = repro.create_report(self.grown, config=self.config)
        return refreshed, refreshed.to_html()

    def run_session(self, tracer: Any = None) -> Iteration:
        """Run every op in order; check the outputs after the timed pass.

        A failed or wrong op counts as failed and its latency as infinite,
        so it misses every latency limit.
        """
        timed: List[Tuple[Op, Any, Optional[str], float]] = []
        with warnings.catch_warnings():
            # plot_missing(scan, col) announces its documented
            # materialization fallback; the benchmark expects it.
            warnings.simplefilter("ignore", UserWarning)
            started = time.perf_counter()
            for op in self.ops:
                op_start = time.perf_counter()
                value, error = None, None
                try:
                    with tracer.span(op.label, "session") if tracer else nullcontext():
                        value = op.run()
                except Exception as exc:  # a failed op is counted, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                timed.append((op, value, error, time.perf_counter() - op_start))
            wall = time.perf_counter() - started
        phase_s = {phase: 0.0 for phase in PHASES}
        problems: List[str] = []
        failed = 0
        for op, value, error, seconds in timed:
            try:
                found = [error] if error else op.check(value)
            except Exception as exc:  # a malformed output is a wrong answer
                found = [f"check failed: {type(exc).__name__}: {exc}"]
            if found:
                failed += 1
                problems += [f"{op.label}: {problem}" for problem in found]
                seconds = math.inf
            phase_s[op.phase] += seconds
        # Outputs are kept only for a traced session, which reads counters
        # from them; holding every iteration's output would grow the heap.
        kept = [(op, value) for op, value, _, _ in timed] if tracer else []
        return Iteration(math.inf if failed else wall, phase_s, len(timed), failed,
                         problems, kept)
