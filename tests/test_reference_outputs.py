"""Byte-level pins of every CLI output the project documents.

The benchmark's four workload commands are run in-process through
`main()` and gated against `perfbench/references.json`, the same record
the benchmark checks.  The `simulate`, `roofline` and `report` outputs
that no workload covers, and the per-group model counts that
`perfbench/model_counts.py` reads through the public API, are pinned by
sha256 digests recorded before the modules behind them were last
reshaped; a refactor must leave all of them unchanged.  The benchmark's
traced run of the default sweep runs in a subprocess, as the benchmark
runs it, with its layer-boundary and call counts pinned.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from acceldse.cli import _plain_args, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
BASELINE = str(ROOT / "configs" / "baseline.conf")


def _perfbench_module(name: str):
    """`perfbench/<name>.py`, registered under the name by which the
    benchmark's scripts import each other (`from workloads import ...`);
    dataclasses look their module up there too."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WL = _perfbench_module("workloads")
MODEL_COUNTS = _perfbench_module("model_counts")


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_benchmark_workload_matches_reference(name, tmp_path, monkeypatch,
                                              capsysbinary):
    workload = WL.WORKLOADS[name]
    monkeypatch.chdir(ROOT)  # workload argv names the config relative to ROOT
    out_dir = tmp_path / "out"
    argv = workload.argv(out_dir)
    # every benchmark command line is plain: it runs without argparse
    assert vars(_plain_args(argv)) == vars(build_parser().parse_args(argv))
    code = main(argv)
    stdout = capsysbinary.readouterr().out
    observed = WL.observed_outputs(workload, code, stdout, out_dir)
    assert WL.mismatches(WL.load_references()[name], observed) == []


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_benchmark_setup_probe_runs_silently(name):
    # the benchmark times this probe as `setup_s`: it must load each
    # workload's config through the public loaders and print nothing
    proc = subprocess.run(
        [sys.executable, "perfbench/probe.py", WL.CONFIG,
         *WL.WORKLOADS[name].overrides],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


STDOUT_DIGESTS = {
    ("simulate", "--phase", "prefill", "--format", "table"):
        "c4e05cc4fecb0f3668cbe99bc1a003307208644eb9fdd1a19be55ace12a85e20",
    ("simulate", "--phase", "prefill", "--format", "json"):
        "2af79c7161edd1eeb3bcdd525e3799813e188c1442e57ee2af8c389d2798e59b",
    ("simulate", "--phase", "prefill", "--format", "csv"):
        "2fefb2e4c0c574edf11c7a0c2eed7f10ec1602210d12ecd77d9b2420e441bf5b",
    ("simulate", "--phase", "decode", "--format", "table"):
        "eef764f81a1fb443d536c96fe50ce622151233a9976131827d34c547744f3643",
    ("simulate", "--phase", "decode", "--format", "json"):
        "6f134f3dfe60690b895b9fefb8b7c8cc8b7fb59452f7797f35f085237c24a272",
    ("simulate", "--phase", "decode", "--format", "csv"):
        "0275ffbf04b7e6412eaad5ffa923f85cebddc9a282eb4780be33b7dab571960c",
    ("simulate", "--phase", "decode", "--decode-mode", "mean",
     "--format", "table"):
        "a621cf2a713a643923a7dceb281b5423d8efccfbfb296333e5b0e60982ba993c",
    ("simulate", "--phase", "decode", "--decode-mode", "mean",
     "--format", "json"):
        "84dc8ff905cce0e3d15c1ef951dc1bb7625cb0702fee8ac1d1ff96070caf2895",
    ("roofline", "--phase", "decode"):
        "27bb96df4460d0175678ec12422bc5d324a6091264f0af839e49c61b62aeba97",
    ("roofline", "--phase", "prefill"):
        "bf8c3aac4db74affd4fc1360cee65ff1cee1372bfb30145fd02a98a4a3f7dc5c",
    ("report",):
        "907e04d3b5e85b18684272ea484c23c742afb54962b8ad551076791e26cf2cc4",
}
# `roofline --phase` sweeps the phase it names, whatever sweep.phases lists
for phase, other in (("prefill", "decode"), ("decode", "prefill")):
    STDOUT_DIGESTS["roofline", "--phase", phase, "--override",
                   f"sweep.phases={other}"] = STDOUT_DIGESTS[
                       "roofline", "--phase", phase]


@pytest.mark.parametrize("argv", sorted(STDOUT_DIGESTS), ids=" ".join)
def test_cli_stdout_matches_recorded_digest(argv, capsysbinary):
    code = main([*argv, "--config", BASELINE])
    stdout = capsysbinary.readouterr().out
    assert code == 0
    assert hashlib.sha256(stdout).hexdigest() == STDOUT_DIGESTS[argv]


def test_report_out_tree_matches_sweep_reference(tmp_path, capsysbinary):
    # `report --out` emits the tree that `sweep --out` does, and prints
    # `report`'s stdout, then one line for the files it wrote
    assert main(["report", "--config", BASELINE, "--out", str(tmp_path)]) == 0
    assert WL.tree_digests(tmp_path) \
        == WL.load_references()["sweep_default"]["files"]
    *report, wrote = capsysbinary.readouterr().out.splitlines(keepends=True)
    assert hashlib.sha256(b"".join(report)).hexdigest() \
        == STDOUT_DIGESTS[("report",)]
    assert wrote == f"wrote 50 files to {tmp_path}\n".encode()


# A child without PYTHONUNBUFFERED, as most users run it, block-buffers
# stdout, which `run`'s `os._exit` would discard if `main` left it full.
BUFFERED_ENV = {**{key: value for key, value in os.environ.items()
                   if key != "PYTHONUNBUFFERED"},
                "PYTHONPATH": str(ROOT / "src")}


@pytest.mark.parametrize("argv", [
    *sorted(STDOUT_DIGESTS),
    ("calibrate",),  # prints its constants, then exits 1
    # writes its tree and prints, then exits 1: one buffer fits no tile set
    ("sweep", "--override", "sweep.local_buffer_kb=0.01,64", "--out", "out"),
], ids=" ".join)
def test_dash_m_on_buffered_stdout_matches_main(argv, tmp_path, monkeypatch,
                                                capsysbinary):
    # `python -m acceldse.cli` exits, prints and writes what `main` does
    argv = [*argv, "--config", BASELINE]
    ran_main, ran_child = tmp_path / "main", tmp_path / "child"
    ran_main.mkdir()
    ran_child.mkdir()
    monkeypatch.chdir(ran_main)
    code = main(argv)
    captured = capsysbinary.readouterr()
    proc = subprocess.run([sys.executable, "-m", "acceldse.cli", *argv],
                          cwd=ran_child, env=BUFFERED_ENV, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) \
        == (code, captured.out, captured.err)
    assert WL.tree_digests(ran_child) == WL.tree_digests(ran_main)


# sha256 of json.dumps(model_counts(name), sort_keys=True)
MODEL_COUNT_DIGESTS = {
    "sweep_default":
        "3c85bbc3dc50535daa12c3ef9f36d33883575c5668cc582fd65cc9fc7757116a",
    "sweep_gpt3":
        "45848a8d8de171c4d19b41e54406dea95364da6d2bc5ee0d1fb79ab282fb6ade",
    "calibrate":
        "3c85bbc3dc50535daa12c3ef9f36d33883575c5668cc582fd65cc9fc7757116a",
    "decode_mean_gpt3":
        "45848a8d8de171c4d19b41e54406dea95364da6d2bc5ee0d1fb79ab282fb6ade",
}


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_perfbench_model_counts_match_recorded_digest(name):
    counts = json.dumps(MODEL_COUNTS.model_counts(name), sort_keys=True)
    assert hashlib.sha256(counts.encode()).hexdigest() \
        == MODEL_COUNT_DIGESTS[name]


# The layer-boundary counts and call counts of the benchmark's traced run
# of the default sweep; `perfbench/traced.py` finds traces by their type
# and functions by module, so a renamed record or module shows here.
TRACED_COUNTS = {
    "memory.distinct_matmuls": 70,
    "memory.entries_scanned": 70,
    "sweep.emit_reports.bytes": 125994,
    "sweep.emit_reports.files": 50,
    "workload.matmuls_emitted": 10,
}
TRACED_CALLS = {
    "memory.phase_totals": 14,
    "memory.plan_tiling": 70,
    "sweep.evaluate_point": 294,
    # the f- and BW-free terms: once per (phase, S) entry
    "energy.energy_terms": 14,
    # the summary's argmins: 6 (phase, BW) blocks x 3 metrics
    "sweep.argmin": 18,
    "sweep.contour_levels": 18,
}


def test_traced_harness_counts_default_sweep(tmp_path):
    summary_path = tmp_path / "summary.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/traced.py", str(summary_path),
         str(tmp_path / "spans.jsonl"), "sweep", "--config",
         "configs/baseline.conf", "--out", str(tmp_path / "out")],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(summary_path.read_text())
    assert summary["counts"] == TRACED_COUNTS
    calls = {name: summary["functions"][name]["calls"]
             for name in TRACED_CALLS}
    assert calls == TRACED_CALLS
