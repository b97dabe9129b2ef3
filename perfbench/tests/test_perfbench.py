"""Tests of the benchmark itself: names, identity gate, tail rule, tracer,
launcher.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import json
import os
import random
import re
import subprocess
import sys

import pytest

from run import Launcher, per_layer_metrics, tail
from workloads import (HERE, ROOT, WORKLOADS, load_references, mismatches,
                       observed_outputs)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def declared(section):
    return {m["name"] for m in DECLARED[section]}


def cli(workload, out_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "acceldse.cli", *workload.argv(out_dir)],
        cwd=ROOT, env=ENV, capture_output=True)
    return observed_outputs(workload, proc.returncode, proc.stdout, out_dir)


def traced(workload, tmp_path):
    out_dir = tmp_path / "traced-out"
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced.py"), str(tmp_path / "s.json"),
         str(tmp_path / "spans.jsonl"), *workload.argv(out_dir, traced=True)],
        cwd=ROOT, env=ENV, capture_output=True)
    return observed_outputs(workload, proc.returncode, proc.stdout, out_dir)


@pytest.fixture(scope="module")
def calibrate_stdout():
    proc = subprocess.run(
        [sys.executable, "-m", "acceldse.cli",
         *WORKLOADS["calibrate"].argv()], cwd=ROOT, env=ENV,
        capture_output=True)
    return proc.returncode, proc.stdout


def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for s in ("workloads", "end_to_end", "per_layer")
             for m in DECLARED[s]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in DECLARED["workloads"]} == set(WORKLOADS)


def test_per_layer_names_match_declaration_for_any_summary():
    summary = {"functions": {}, "counts": {}, "caches": {}, "import_s": 0.1}
    metrics = per_layer_metrics(summary, {})
    metrics["trace.overhead_s"] = metrics["wall_s"] = 0.0
    model = {n for n in declared("per_layer") if n.startswith("model.")}
    assert set(metrics) | model == declared("per_layer")


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_emits_exactly_the_declared_names(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_default",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == declared(section)
    assert all(NAME.fullmatch(n) for n in result["metrics"])


def test_gate_flags_one_byte_change_in_output_tree(tmp_path):
    workload = WORKLOADS["sweep_default"]
    reference = load_references()[workload.name]
    out_dir = tmp_path / "out"
    assert mismatches(reference, cli(workload, out_dir)) == []
    target = out_dir / "summary.json"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 1
    target.write_bytes(bytes(data))
    observed = observed_outputs(workload, 0, b"", out_dir)
    assert mismatches(reference, observed) == [
        "output file summary.json differs from the reference"]


def test_gate_flags_one_byte_change_in_stdout_and_exit_code(calibrate_stdout):
    workload = WORKLOADS["calibrate"]
    reference = load_references()[workload.name]
    code, stdout = calibrate_stdout
    assert code == workload.expected_exit == 1
    assert mismatches(reference, observed_outputs(workload, code, stdout, None)) == []
    changed = bytearray(stdout)
    changed[0] ^= 1
    assert mismatches(reference, observed_outputs(
        workload, code, bytes(changed), None)) == [
        "stdout differs from the reference"]
    assert mismatches(reference, observed_outputs(
        workload, 0, stdout, None)) == ["exit code 0, expected 1"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail([1.0] * 10) is None
    assert tail([float(v) for v in range(1, 12)]) == (100.0 / 11, 1.0)
    values = [float(v) for v in range(1, 61)]
    random.Random(0).shuffle(values)
    percentile, value = tail(values)
    assert value == 50.0  # ten samples (51..60) lie beyond it
    assert percentile == pytest.approx(100 * 50 / 60)


def test_peak_memory_excludes_the_benchmark_process(tmp_path):
    ballast = b"x" * (64 << 20)  # written, so resident in this process
    launcher = Launcher()
    try:
        inv = launcher.run([sys.executable, "-I", "-S", "-c", "pass"],
                           tmp_path)
    finally:
        launcher.close()
    assert inv.exit_code == 0
    assert inv.max_rss_kb < 32 << 10 < len(ballast) >> 10


@pytest.mark.parametrize("name", ["sweep_default", "calibrate"])
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    workload = WORKLOADS[name]
    observed = traced(workload, tmp_path)
    assert mismatches(load_references()[name], observed) == []
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["functions"]["cli.main"]["calls"] == 1
