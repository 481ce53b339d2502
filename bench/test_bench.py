"""Tests of the benchmark itself: tiny smoke runs, the result line, and the checks.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
# end-to-end names each workload prints besides the ones on the result line
PRINTED = {
    "evolve-n8": ["evolve_steps_per_s"],
    "ensemble-small": ["trajectory_steps_per_s"],
    "wide-state": ["trajectory_steps_per_s"],
    "decide-ref": ["decisions_per_s", "walks_per_s"],
}


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def printed_metrics(stdout):
    """{name: unit} from the `metric NAME VALUE UNIT` lines."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            float(parts[2])
            found[parts[1]] = parts[3]
    return found


def test_spec_lists_the_workloads_the_harness_runs():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert set(PRINTED) == set(WORKLOAD_NAMES)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    proc = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    shown = printed_metrics(proc.stdout)
    for name in PRINTED[workload] + ["setup_s", "peak_rss_mb", "error_rate"]:
        assert name in shown, name
    assert shown["error_rate"] == "ratio"


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_smoke_reports_every_per_layer_metric(workload):
    proc = run_bench(workload, trace=1)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] != 0 for v in result["metrics"].values())
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed3-trace1-tiny.json").read_text())
    assert record["spans"] and record["environment"]["seed"] == 3


def _corrupt_evolve(monkeypatch):
    real = workloads.channel.evolve

    def evolve(*args, **kwargs):
        series = real(*args, **kwargs)
        series.trS[1:] += 1e-6
        return series

    monkeypatch.setattr(workloads.channel, "evolve", evolve)


def _corrupt_decide(monkeypatch):
    real = workloads.decision.decide

    def decide(*args, **kwargs):
        v = real(*args, **kwargs)
        flipped = "NO" if v.decision == "YES" else "YES"
        return workloads.decision.Verdict(flipped, v.N0, v.params, v.seed)

    monkeypatch.setattr(workloads.decision, "decide", decide)


@pytest.mark.parametrize("workload, corrupt", [
    ("evolve-n8", _corrupt_evolve),
    ("decide-ref", _corrupt_decide),
])
def test_corrupted_output_counts_in_error_rate_and_fails_the_run(
        workload, corrupt, monkeypatch, capsys):
    corrupt(monkeypatch)
    code = harness.main(["--workload", workload, "--seed", "5", "--seconds", "0", "--tiny"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert float(next(line.split()[2] for line in out.splitlines()
                      if line.startswith("metric error_rate"))) > 0


def test_fails_without_a_result_when_the_package_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "evolve-n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    with tr.run("r"):
        with tr.span("outer"):
            time.sleep(0.02)
            with tr.span("inner", items=4):
                time.sleep(0.03)
    table = tr.self_times("r")
    outer, inner = table["outer"], table["inner"]
    assert inner["calls"] == 4 and outer["spans"] == 1
    assert np.isclose(outer["self_s"] + inner["total_s"], outer["total_s"])
    assert outer["self_s"] < outer["total_s"]
    assert Tracer(enabled=False).spans == []
