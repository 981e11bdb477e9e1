"""Per-layer decomposition of a workload for the traced run.

Each layer is timed from outside the program: the benchmark calls the
layer's public functions itself, one span per call, on the workload's own
input and storage state.  Counters (sidecar hits, chunks skipped, chunks
reused, tasks, cache hits) are read from the outputs of the last traced
session.  A layer the workload leaves idle reports 0.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
import warnings
from typing import Any, Dict, List, Tuple

import repro
from repro.frame.fingerprint import fingerprint_frame
from repro.frame.io import parse_csv_range
from repro.frame.sidecar import SidecarRoute, load_chunk, store_chunk
from repro.render import render_intermediates
from repro.stats.descriptive import CategoricalSummary, NumericSummary

from perfbench.data import BY_DTYPE, NUMERIC, STRINGS
from perfbench.session import Bench, Iteration
from perfbench.spans import Tracer

#: Layer of each per-layer metric prefix, for the ``<prefix>.errors`` counts.
LAYERS = {"io": "frame.io", "sidecar": "frame.sidecar", "zonemap": "frame.zonemap",
          "refresh": "frame.source", "fingerprint": "frame.fingerprint",
          "stats": "stats", "compute": "eda.compute", "graph": "graph",
          "render": "render"}

#: (name, unit) of every per-layer metric, in output order.
METRICS: List[Tuple[str, str]] = [
    ("io.scan_s", "s"), ("io.parse_s", "s"), ("io.parse_mb_per_s", "MB/s"),
    ("io.parse_col.float_s", "s"), ("io.parse_col.int_s", "s"),
    ("io.parse_col.string_s", "s"), ("io.parse_col.datetime_s", "s"),
    ("io.parse_col.datetime_share", "ratio"),
    ("sidecar.store_s", "s"), ("sidecar.load_s", "s"),
    ("sidecar.bytes_per_csv_byte", "ratio"), ("sidecar.hits", "count"),
    ("sidecar.misses", "count"), ("sidecar.process_hits", "count"),
    ("zonemap.build_s", "s"), ("predicate.chunks_skipped", "count"),
    ("predicate.skip_ratio", "ratio"), ("predicate.rows_filtered", "count"),
    ("refresh.rescan_s", "s"), ("refresh.chunks_reused", "count"),
    ("refresh.chunks_new", "count"), ("refresh.bytes_reparsed", "bytes"),
    ("refresh.reparse_ratio", "ratio"), ("refresh.process_bytes_reparsed", "bytes"),
    ("refresh.process_reparse_ratio", "ratio"),
    ("fingerprint.frame_s", "s"),
    ("stats.numeric_summary_s", "s"), ("stats.categorical_summary_s", "s"),
    ("compute.report_s", "s"), ("compute.overview_s", "s"),
    ("compute.drilldown_s", "s"), ("report.section.overview_s", "s"),
    ("report.section.interactions_s", "s"), ("report.section.correlations_s", "s"),
    ("report.section.missing_s", "s"),
    ("graph.report_s", "s"), ("graph.sync_report_s", "s"),
    ("graph.report_over_sync", "ratio"),
    ("graph.tasks_executed", "count"), ("graph.tasks_planned", "count"),
    ("graph.sharing_ratio", "ratio"), ("graph.projected_parses", "count"),
    ("graph.full_parses", "count"),
    ("cache.hits", "count"), ("cache.misses", "count"), ("cache.hit_rate", "ratio"),
    ("cache.bytes", "bytes"), ("cache.evictions", "count"),
    ("render.report_s", "s"), ("render.session_s", "s"), ("render.html_bytes", "bytes"),
] + [(f"{prefix}.errors", "count") for prefix in LAYERS] + [("trace.overhead", "ratio")]

_SECTIONS = {"overview": "overview_and_variables", "interactions": "interactions",
             "correlations": "correlations", "missing": "missing_values"}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(path) for name in names)


class Decomposition:
    """Calls each layer's public functions on one workload, under spans."""

    def __init__(self, bench: Bench, tracer: Tracer, scratch: str):
        self.bench = bench
        self.tracer = tracer
        self.scratch = scratch
        self.metrics: Dict[str, float] = {name: 0.0 for name, _ in METRICS}
        self.problems: List[str] = []
        self.parsed_bytes = 0
        self.stored_csv_bytes = 0
        self.route = SidecarRoute(directory=os.path.join(scratch, "sidecar"))

    def _chunks(self, handle: Any, first_byte: int) -> None:
        """Load each chunk from the sidecar, or parse and store it.

        This is what a scan does per chunk; the workload's storage state
        decides which branch runs (cold: parse + store, warm: load).
        Stores go to a scratch sidecar so the workload's state is kept.
        """
        call, bench = self.tracer.call, self.bench
        columns, dtypes = tuple(handle.columns), handle.dtypes
        parsed_rows = 0
        for index, (start, stop) in enumerate(handle.byte_ranges):
            if start < first_byte:
                continue
            rows = handle.boundaries[index][1] - handle.boundaries[index][0]
            stamp = handle.chunk_stamp(index)
            frame = call("frame.sidecar", "load_chunk", load_chunk, bench.csv, start, stop,
                         stamp, columns, dtypes, rows, SidecarRoute())
            if frame is not None:
                continue
            frame = call("frame.io", "read_chunk", handle.read_chunk, index)
            if frame is None:
                continue
            parsed_rows += len(frame)
            self.parsed_bytes += stop - start
            for dtype, names in BY_DTYPE.items():
                for name in names:
                    call("frame.io", f"parse_col.{dtype}", parse_csv_range, bench.csv,
                         start, stop, columns, dtypes, usecols=[name])
            if call("frame.sidecar", "store_chunk", store_chunk, bench.csv, start, stop,
                    stamp, frame, self.route):
                self.stored_csv_bytes += stop - start
        if first_byte == 0 and parsed_rows not in (0, bench.rows):
            self.problems.append(f"parsed {parsed_rows} rows of {bench.rows}")

    def run(self, iteration: int) -> None:
        bench, call = self.bench, self.tracer.call
        scan = bench.workload.source == "scan"
        bench.reset(iteration)
        with warnings.catch_warnings(), self.tracer.span("decompose", "benchmark"):
            # The same documented plot_missing(scan, col) fallback as in the session.
            warnings.simplefilter("ignore", UserWarning)
            handle = None
            if scan:
                handle = call("frame.io", "scan_csv", repro.scan_csv, bench.csv,
                              chunk_rows=bench.chunk_rows)
                if handle is not None:
                    self._chunks(handle, 0)
            self._compute_and_render(handle if scan else bench.handle)
            if scan:
                self._zone_map()
            self._frame_layers()
            self._graph(iteration)
            if scan and handle is not None:
                self._refresh(handle)
            if scan:
                self._process_scheduler(iteration)
        self._finish()

    def _compute_and_render(self, data: Any) -> None:
        """compute.overview_s / drilldown_s (no render), then render.session_s."""
        call, config = self.tracer.call, self.bench.config
        repro.clear_cache()
        computed = [call("eda.compute", "compute.overview", repro.plot, data,
                         config=config, mode="intermediates")]
        for name, columns in self.bench.drilldown:
            computed.append(call("eda.compute", "compute.drilldown", getattr(repro, name),
                                 data, *columns, config=config, mode="intermediates"))
        render_config = repro.Config.from_user(config)
        for intermediates in computed:
            if intermediates is not None:
                call("render", "render_intermediates", render_intermediates,
                     intermediates, render_config)

    def _zone_map(self) -> None:
        """A cold zone-map build on a copy of the pristine file."""
        copy = os.path.join(self.scratch, "zones.csv")
        with open(self.bench.csv, "rb") as source, open(copy, "wb") as target:
            target.write(source.read(self.bench.pristine_bytes))
        handle = repro.scan_csv(copy, chunk_rows=self.bench.chunk_rows)
        self.tracer.call("frame.zonemap", "zone_map", handle.zone_map)

    def _frame_layers(self) -> None:
        """Fingerprint, summaries and the render-free report of the frame."""
        call, bench = self.tracer.call, self.bench
        fresh = repro.DataFrame(bench.base.frame_columns())
        call("frame.fingerprint", "fingerprint_frame", fingerprint_frame, fresh)
        for name in NUMERIC:
            call("stats", "numeric_summary", NumericSummary.from_column, fresh.column(name))
        for name in STRINGS:
            call("stats", "categorical_summary", CategoricalSummary.from_column,
                 fresh.column(name))
        repro.clear_cache()
        report = call("eda.compute", "compute.report", repro.create_report, fresh,
                      config=bench.config)
        if report is None:
            return
        self.problems += bench.truth.check_report(report)
        for section, key in _SECTIONS.items():
            self.metrics[f"report.section.{section}_s"] = report.timings.get(key, 0.0)
        html = call("render", "Report.to_html", report.to_html)
        if html is not None:
            self.metrics["render.html_bytes"] = len(html.encode("utf-8"))

    def _graph(self, iteration: int) -> None:
        """The workload's report under its scheduler and under synchronous."""
        bench, call = self.bench, self.tracer.call
        for name, config in (("graph.report", bench.config),
                             ("graph.sync_report",
                              dict(bench.config, **{"compute.scheduler": "synchronous"}))):
            bench.reset(iteration)
            data = bench.handle
            if bench.workload.source == "scan":
                data = repro.scan_csv(bench.csv, chunk_rows=bench.chunk_rows)
            report = call("graph", name, repro.create_report, data, config=config)
            if report is not None:
                self.problems += [f"{name}: {problem}"
                                  for problem in bench.truth.check_report(report)]

    def _process_scheduler(self, iteration: int) -> None:
        """A report on a warm sidecar and its refresh, on the process scheduler.

        A threaded report writes the sidecar first; with the cache cleared,
        the process report on a fresh handle finds every chunk stored.
        """
        bench, call = self.bench, self.tracer.call
        config = {"compute.scheduler": "process", "compute.max_workers": bench.workers}
        bench.reset(iteration)
        call("graph", "store_report", repro.create_report,
             repro.scan_csv(bench.csv, chunk_rows=bench.chunk_rows))
        repro.clear_cache()
        report = call("graph", "process_report", repro.create_report,
                      repro.scan_csv(bench.csv, chunk_rows=bench.chunk_rows), config=config)
        if report is None:
            return
        self.problems += [f"process report: {problem}"
                          for problem in bench.truth.check_report(report)]
        self.metrics["sidecar.process_hits"] = float(
            report.sidecar_stats.get("sidecar_hits", 0))
        with open(bench.csv, "ab") as target:
            target.write(bench.delta_bytes)
        refreshed = call("frame.source", "process_refresh", report.refresh)
        if refreshed is None:
            return
        self.problems += [f"process refresh: {problem}"
                          for problem in bench.grown_truth.check_report(refreshed)]
        reparsed = float(refreshed.incremental_stats.get("bytes_reparsed", 0))
        self.metrics["refresh.process_bytes_reparsed"] = reparsed
        self.metrics["refresh.process_reparse_ratio"] = _ratio(reparsed,
                                                               len(bench.delta_bytes))

    def _refresh(self, handle: Any) -> None:
        """Append the iteration's delta, re-resolve the scan, handle new chunks."""
        bench = self.bench
        os.truncate(bench.csv, bench.pristine_bytes)
        with open(bench.csv, "ab") as target:
            target.write(bench.delta_bytes)
        grown = self.tracer.call("frame.source", "refresh_input", repro.refresh_input,
                                 handle)
        if grown is not None:
            self._chunks(grown, bench.pristine_bytes)

    def _finish(self) -> None:
        metrics, total = self.metrics, self.tracer.total
        metrics["io.scan_s"] = total("scan_csv")
        metrics["io.parse_s"] = total("read_chunk")
        metrics["io.parse_mb_per_s"] = _ratio(self.parsed_bytes / 1e6, metrics["io.parse_s"])
        for dtype in BY_DTYPE:
            metrics[f"io.parse_col.{dtype}_s"] = total(f"parse_col.{dtype}")
        metrics["io.parse_col.datetime_share"] = _ratio(
            metrics["io.parse_col.datetime_s"],
            sum(metrics[f"io.parse_col.{dtype}_s"] for dtype in BY_DTYPE))
        metrics["sidecar.store_s"] = total("store_chunk")
        metrics["sidecar.load_s"] = total("load_chunk")
        metrics["sidecar.bytes_per_csv_byte"] = _ratio(
            _tree_bytes(os.path.join(self.scratch, "sidecar")), self.stored_csv_bytes)
        metrics["zonemap.build_s"] = total("zone_map")
        metrics["refresh.rescan_s"] = total("refresh_input")
        metrics["fingerprint.frame_s"] = total("fingerprint_frame")
        metrics["stats.numeric_summary_s"] = total("numeric_summary")
        metrics["stats.categorical_summary_s"] = total("categorical_summary")
        metrics["compute.report_s"] = total("compute.report")
        metrics["compute.overview_s"] = total("compute.overview")
        metrics["compute.drilldown_s"] = total("compute.drilldown")
        metrics["graph.report_s"] = total("graph.report")
        metrics["graph.sync_report_s"] = total("graph.sync_report")
        metrics["graph.report_over_sync"] = _ratio(metrics["graph.report_s"],
                                                   metrics["graph.sync_report_s"])
        metrics["render.report_s"] = total("Report.to_html")
        metrics["render.session_s"] = total("render_intermediates")
        for prefix, layer in LAYERS.items():
            metrics[f"{prefix}.errors"] = float(self.tracer.errors(layer))


def session_counters(bench: Bench, iteration: Iteration,
                     cache_before: Dict[str, Any]) -> Dict[str, float]:
    """Counters the program reported during one traced session."""
    metrics: Dict[str, float] = {}
    sidecar = {"sidecar_hits": 0, "sidecar_misses": 0}
    graph = {"tasks_executed": 0, "tasks_before_optimization": 0,
             "projected_parses": 0, "full_parses": 0}
    by_phase: Dict[str, Any] = {}
    for op, value in iteration.results:
        if value is None:
            continue
        output = value[0]
        by_phase[op.phase] = output
        if isinstance(output, repro.Report):
            stats, reports = output.sidecar_stats, output.execution_reports
        else:
            meta = output.intermediates.meta
            stats, reports = meta.get("sidecar", {}), meta.get("execution_reports", [])
        for key in sidecar:
            sidecar[key] += int(stats.get(key, 0))
        for report in reports:
            for key in graph:
                graph[key] += int(getattr(report, key, 0))
    metrics["sidecar.hits"] = float(sidecar["sidecar_hits"])
    metrics["sidecar.misses"] = float(sidecar["sidecar_misses"])
    metrics["graph.tasks_executed"] = float(graph["tasks_executed"])
    metrics["graph.tasks_planned"] = float(graph["tasks_before_optimization"])
    # Share of planned tasks that never ran: shared, culled or cache-served.
    metrics["graph.sharing_ratio"] = _ratio(
        graph["tasks_before_optimization"] - graph["tasks_executed"],
        graph["tasks_before_optimization"])
    metrics["graph.projected_parses"] = float(graph["projected_parses"])
    metrics["graph.full_parses"] = float(graph["full_parses"])

    filtered = by_phase.get("filtered")
    predicate = filtered.intermediates.meta.get("predicate", {}) if filtered else {}
    skipped = int(predicate.get("chunks_skipped", 0))
    metrics["predicate.chunks_skipped"] = float(skipped)
    chunks = bench.handle.n_chunks if bench.workload.source == "scan" else 0
    metrics["predicate.skip_ratio"] = _ratio(skipped, chunks)
    metrics["predicate.rows_filtered"] = float(predicate.get("rows_filtered", 0))

    refreshed = by_phase.get("refresh")
    incremental = refreshed.incremental_stats if refreshed is not None else {}
    for key in ("chunks_reused", "chunks_new", "bytes_reparsed"):
        metrics[f"refresh.{key}"] = float(incremental.get(key, 0))
    appended = len(bench.delta_bytes) if bench.workload.source == "scan" else 0
    metrics["refresh.reparse_ratio"] = _ratio(metrics["refresh.bytes_reparsed"], appended)

    cache_after = repro.cache_stats()
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    metrics["cache.hits"] = float(hits)
    metrics["cache.misses"] = float(misses)
    metrics["cache.hit_rate"] = _ratio(hits, hits + misses)
    metrics["cache.bytes"] = float(cache_after["current_bytes"])
    metrics["cache.evictions"] = float(cache_after["evictions"] - cache_before["evictions"])
    return metrics


def _traced_iteration(bench: Bench, tracer: Tracer, iteration: int
                      ) -> Tuple[Iteration, Dict[str, float]]:
    bench.reset(iteration)
    cache_before = repro.cache_stats()
    with tracer.span("iteration", "session"):
        spanned = bench.run_session(tracer)
    return spanned, session_counters(bench, spanned, cache_before)


def traced_run(bench: Bench, seconds: float, scratch: str, run_id: str
               ) -> Tuple[Dict[str, float], Tracer, int, int, List[str]]:
    """Alternate untraced and traced sessions, then decompose the workload.

    Returns (per-layer metrics, tracer, attempted, failed, problems).
    """
    tracer = Tracer(run_id)
    untraced: List[float] = []
    traced: List[float] = []
    attempted = failed = 0
    problems: List[str] = []
    iteration = 0
    deadline = time.perf_counter() + seconds
    while True:
        # Alternate which of the pair runs first, so neither always runs on
        # state the other just warmed.
        traced_first = (iteration // 2) % 2 == 1
        if traced_first:
            spanned, counters = _traced_iteration(bench, tracer, iteration)
        plain = bench.run_iteration(iteration + traced_first)
        if not traced_first:
            spanned, counters = _traced_iteration(bench, tracer, iteration + 1)
        for result in (plain, spanned):
            attempted += result.attempted
            failed += result.failed
            problems += result.problems
        untraced.append(plain.wall_s)
        traced.append(spanned.wall_s)
        iteration += 2
        if time.perf_counter() >= deadline:
            break
    decomposition = Decomposition(bench, tracer, scratch)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    decomposition.run(iteration)
    spans = [span for span in tracer.spans if span.layer not in ("session", "benchmark")]
    attempted += len(spans) + 1
    failed += sum(1 for span in spans if span.error) + bool(decomposition.problems)
    problems += decomposition.problems
    problems += [f"{span.name}: {span.error}" for span in spans if span.error]
    metrics = dict(decomposition.metrics)
    metrics.update(counters)
    metrics["trace.overhead"] = _ratio(statistics.median(traced),
                                       statistics.median(untraced))
    return metrics, tracer, attempted, failed, problems
