"""Tests for the benchmark's own code.

Run from the repository root:  python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import Span  # noqa: E402
from workloads import Workload  # noqa: E402


def span(id, parent, start, end, name="x"):
    return Span(id=id, name=name, parent=parent, op=0, start=start, end=end)


def test_self_time_subtracts_children_only_once():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 5.0, 7.0),
        span(3, 1, 2.0, 3.0),  # grandchild: counts against span 1, not span 0
    ]
    assert tracing.self_times(spans) == {0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0}


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 3.0, 6.0),  # overlaps span 1: union covers [1, 6]
        span(3, 0, 9.0, 12.0),  # runs past its parent's end: only [9, 10] counts
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10 - 5 - 1)


def test_aggregate_sums_self_time_and_attributes():
    spans = [span(0, None, 0.0, 4.0, "a"), span(1, 0, 1.0, 2.0, "b"),
             span(2, None, 5.0, 6.0, "b")]
    spans[1].attrs = {"evals": 3}
    spans[2].attrs = {"evals": 4}
    agg = tracing.aggregate(spans)
    assert agg["a"] == {"calls": 1, "self_s": 3.0}
    assert agg["b"] == {"calls": 2, "self_s": 2.0, "evals": 7}
    assert tracing.parent_counts(spans, "b", "a") == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(37) == 72
    assert run.tail_percentile(12) == 50
    xs = list(range(1, 101))
    assert run.percentile(xs, 90) == 90 and sum(x > 90 for x in xs) == 10
    assert run.percentile([3.0], 50) == 3.0


def test_times_are_scaled_by_the_bracketing_reference(monkeypatch):
    readings = iter([0.010, 0.030, 0.020])  # before op 0, between, after op 1
    monkeypatch.setattr(run.reference, "measure", lambda blocks: next(readings))

    class Echo(Workload):
        min_ops = 2
        reference_blocks = (run.reference.search,)  # nominal 0.008 s

        def op(self, inp):
            return inp

    done = run.timed_ops(Echo(q=None, workdir=None), [1, 2])
    assert [op.res for op in done] == [1, 2]
    assert [op.scale for op in done] == pytest.approx([0.008 / 0.020, 0.008 / 0.025])
    assert all(op.seconds > 0 and not op.failures for op in done)


def test_install_rebinds_every_importer_and_restores():
    q = run.load_qmac(run.ROOT)
    tensor, init = q.linalg.tensor, q.protocol.TaggingUnitary.__init__
    tr = tracing.Tracer()
    with tr.install():
        assert q.adversary.tensor is q.protocol.tensor is q.linalg.tensor
        assert q.linalg.tensor is not tensor
        assert q.designer.best_message_attack is q.adversary.best_message_attack
        q.protocol.TaggingUnitary(q.fixtures.BUILTIN["identity"]())  # not recording
        with tr.recording(op=0):
            q.protocol.TaggingUnitary(q.fixtures.BUILTIN["identity"]())
    assert q.linalg.tensor is tensor and q.adversary.tensor is tensor
    assert q.protocol.TaggingUnitary.__init__ is init
    init_span = next(s for s in tr.spans if s.name == "protocol.TaggingUnitary")
    assert init_span.parent is None
    assert {s.parent for s in tr.spans if s.name == "linalg.tensor"} == {init_span.id}


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for w in spec["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_passes_every_check(workload):
    # --seconds 0 runs only the leading operations, then the traced replay.
    rep, result = run.run(workload, seed=3, seconds=0, trace=True)
    assert result["correct"], (rep["failures"], rep["trace_problems"])
    assert result["failed"] == 0 and result["attempted"] == 2 * rep["operations"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["trace.ops"]["value"] == rep["operations"]
    assert rep["environment"]["blas_threads_env"] == "1"
    json.dumps(rep, allow_nan=False)
    json.dumps(result, allow_nan=False)


def test_untraced_run_reports_every_end_to_end_metric():
    rep, result = run.run("reuse", seed=4, seconds=0, trace=False)
    assert result["correct"] and result["attempted"] == rep["operations"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert {"reuse.trials_per_s", "reuse.exact_per_s"} <= set(rep["metrics"])


def test_fails_without_the_qmac_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
