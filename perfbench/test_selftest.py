"""Harness self-test: every workload at the tiny test configs, untraced and traced.

    python3 -m pytest perfbench/test_selftest.py -q

Each run is a fresh process of perfbench/run.py with --tiny, so the whole
suite takes seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Every workload's own metrics, printed by name with their unit above the result.
NAMED = {
    "train-proposed": {"train_events_per_s": "events/s", "step_ms_p50": "ms",
                       "step_ms_p99": "ms", "holdout_ne": "NE"},
    "data-io": {"gen_events_per_s": "events/s", "load_events_per_s": "events/s",
                "dataset_mb": "MB"},
    "serve-rank": {"rank_ms_p50": "ms", "rank_ms_p99": "ms", "rank_rows_per_s": "rows/s",
                   "replay_s": "s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "failed/attempted"}


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and not line.startswith("#"):
            printed[fields[0]] = fields[2]
    return result, printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, printed = _result(_run(workload, 0))
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in {**expected, **COMMON, **NAMED[workload]}.items():
        assert printed.get(name) == unit, (name, unit, printed.get(name))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result, printed = _result(_run(workload, 1))
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert value["trace.spans"] > 0
    if workload == "train-proposed":
        assert value["autodiff.backward.s"] > 0 and value["autodiff.ops_per_step"] > 0
        assert value["serialize.bytes_written"] == 0
    elif workload == "data-io":
        assert value["autodiff.backward.s"] == 0
        assert 1.0 < value["serialize.write_amplification"] < 3.0
        assert 1.0 < value["serialize.read_amplification"] < 3.0
    else:
        assert value["autodiff.ops_per_rank_request"] > 0 and value["evalrank.rank_topk.s"] > 0
        assert value["trainer.checkpoint_bytes"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    sys.path.insert(0, HERE)
    from tracing import Tracer
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 3 and totals["outer"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["incl_s"] - totals["inner"]["incl_s"], abs=1e-9)
    assert 0 < totals["outer"]["self_s"] < totals["outer"]["incl_s"]
