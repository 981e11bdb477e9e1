"""Tests of the benchmark itself.

Run from the repository root with::

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` on purpose: it starts benchmark
subprocesses (with process pools) and takes about half a minute, so the
library's tier-1 ``pytest`` run does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import repro  # noqa: E402

from perfbench.data import Truth, generate  # noqa: E402
from perfbench.session import WORKLOADS  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

SEED = 7
LAYERS = {"frame.io", "frame.sidecar", "frame.zonemap", "frame.source",
          "frame.fingerprint", "stats", "eda.compute", "graph", "render"}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = SPEC["command"] + ["--workload", workload, "--seed", str(SEED),
                                 "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results():
    """Each workload run once untraced and once traced, in tiny mode."""
    outputs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run_bench(workload, trace)
            assert done.returncode == 0, done.stderr[-3000:]
            outputs[workload, trace] = json.loads(done.stdout.strip().splitlines()[-1])
    return outputs


def test_workloads_match_the_spec():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_appears_with_its_unit(results, workload, trace):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_traced_spans_nest_and_cover_every_layer(results):
    path = os.path.join(ROOT, ".perfbench_out", f"trace-scan_cold-seed{SEED}.json")
    with open(path, encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    by_id = {span["id"]: span for span in spans}
    assert len({span["run_id"] for span in spans}) == 1
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert 0.0 <= span["self_s"] <= span["end"] - span["start"]
    assert LAYERS <= {span["layer"] for span in spans}


def test_self_time_subtracts_children():
    tracer = Tracer("test")
    with tracer.span("outer", "a") as outer:
        with tracer.span("inner", "b") as inner:
            pass
    assert inner.parent == outer.id
    assert tracer.self_time(outer) == pytest.approx(outer.duration - inner.duration)


def test_oracle_accepts_the_program_and_rejects_a_wrong_expectation():
    table = generate(SEED, 500)
    frame = repro.DataFrame(table.frame_columns())
    truth = Truth(table)
    univariate = repro.plot(frame, "f0", mode="intermediates")
    report = repro.create_report(frame)
    assert truth.check_call("plot", ("f0",), univariate) == []
    assert truth.check_report(report) == []

    mean, low, high = truth.numeric["f0"]
    truth.numeric["f0"] = (mean * (1 + 1e-6), low, high)
    assert truth.check_call("plot", ("f0",), univariate)
    truth.numeric["f0"] = (mean, low, high)
    truth.missing["c4"] += 1
    assert truth.check_report(report)
    assert truth.check_call("plot", ("c4",), repro.plot(frame, "c4", mode="intermediates"))


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("scan_cold", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout
