import argparse
import ast
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from acceldse import config, report
from acceldse.cli import (VERBS as CLI_VERBS, _plain_args, build_parser,
                          main, run)
from acceldse.config import (GB, KIB, MHZ, ConfigError, apply_overrides,
                             load_hardware, load_model_spec, load_request,
                             load_sweep_axes, parse_config)
from acceldse.report import ARGMIN_METRICS
from acceldse.sweep import run_sweep
from acceldse.workload import PHASES, InferenceRequest

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "configs" / "baseline.conf"
# a child interpreter imports the package from the checkout
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def tree_digests(root):
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_parse_baseline_config():
    values = parse_config(BASELINE)
    hw = load_hardware(values)
    assert hw.fabric.total_arrays == 432
    assert hw.buffers.local == 64 * KIB
    assert hw.ext_bandwidth == 2048 * GB
    assert hw.onchip_bandwidth == 8 * 2048 * GB
    assert hw.frequency == 800e6
    assert hw.array_leakage_w == 9.31e-3
    assert hw.array_dynamic_w_ref == 1.25
    assert hw.gating_prefill == 0.04
    assert hw.gating_decode == 0.20
    # the on-chip link is fixed, not derived from the external bandwidth
    assert load_hardware({"hw.ext_bandwidth_gbps": "4096"}) \
        .onchip_bandwidth == 16384 * GB


def test_baseline_config_sets_every_key():
    # the annotated reference config and the key tables stay in step, and
    # each table default is the baseline's value
    values = parse_config(BASELINE)
    assert set(values) == set(config.KEYS)
    for load in (load_hardware, load_model_spec, load_request,
                 load_sweep_axes):
        assert load(values) == load({}), load.__name__


def test_sweep_axes_defaults():
    s, f, bw, phases = load_sweep_axes(parse_config(BASELINE))
    assert s == tuple(k * KIB for k in (16, 32, 64, 128, 256, 512, 1024))
    assert f == tuple(m * 1e6 for m in (200, 400, 600, 800, 1000, 1200, 1400))
    assert bw == tuple(b * GB for b in (2048, 4096, 8192))
    assert len(phases) == 2


def test_parse_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("hw.cores = 108\nthis line has no equals\n")
    with pytest.raises(ConfigError, match="bad.conf:2"):
        parse_config(bad)
    bad.write_text("hw.cores = 108\nhw.corez = 4\n")
    with pytest.raises(ConfigError, match="bad.conf:2: unknown key 'hw.corez'"):
        parse_config(bad)


def test_overrides_last_writer_wins():
    values = apply_overrides({"hw.frequency_mhz": "800"},
                             ["hw.frequency_mhz=200", "hw.frequency_mhz=400"])
    assert values["hw.frequency_mhz"] == "400"
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no-equals-here"])


def test_cli_missing_config_exits_2(capsys):
    rc = main(["simulate", "--config", "/nonexistent/path.conf"])
    assert rc == 2
    assert "/nonexistent/path.conf" in capsys.readouterr().err


def test_cli_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("hw.cores 108\n")
    rc = main(["simulate", "--config", str(bad)])
    assert rc == 2
    assert "bad.conf:1" in capsys.readouterr().err


def test_cli_simulate_baseline_decode_is_memory_bound(capsys):
    rc = main(["simulate", "--config", str(BASELINE), "--phase", "decode"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bound            memory" in out


def test_cli_simulate_builds_the_request_once(monkeypatch, capsys):
    built = []
    new = InferenceRequest.__new__

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(InferenceRequest, "__new__", counted)
    assert main(["simulate", "--config", str(BASELINE)]) == 0
    assert built == [InferenceRequest]


def test_cli_simulate_override_applies(capsys):
    rc = main(["simulate", "--config", str(BASELINE), "--phase", "decode",
               "--override", "hw.frequency_mhz=200", "--format", "json"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["point"]["f_hz"] == 200e6
    assert record["bound"] == "compute"


def test_cli_simulate_matches_sweep_record(capsys, tmp_path):
    overrides = ["sweep.local_buffer_kb=64", "sweep.frequency_mhz=800",
                 "sweep.bandwidth_gbps=2048", "sweep.phases=decode"]
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(BASELINE), "--out", str(out)]
              + [f"--override={o}" for o in overrides])
    assert rc == 0
    capsys.readouterr()
    rc = main(["simulate", "--config", str(BASELINE), "--phase", "decode",
               "--format", "json"])
    assert rc == 0
    sim = json.loads(capsys.readouterr().out)
    grid = (out / "latency_decode_bw2048.csv").read_text().splitlines()
    s, f, value = grid[3].split(",")
    assert int(s) == sim["point"]["S_bytes"]
    assert float(f) == sim["point"]["f_hz"]
    assert float(value) == sim["latency_s"]


def test_cli_byte_identical_outputs(tmp_path):
    args = ["sweep", "--config", str(BASELINE), "--out"]
    overrides = ["--override=sweep.bandwidth_gbps=2048",
                 "--override=sweep.frequency_mhz=400,800"]
    assert main(args + [str(tmp_path / "a")] + overrides) == 0
    assert main(args + [str(tmp_path / "b")] + overrides) == 0
    for pa in sorted((tmp_path / "a").iterdir()):
        assert pa.read_bytes() == (tmp_path / "b" / pa.name).read_bytes()


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "acceldse.cli", "simulate",
         "--config", str(BASELINE), "--phase", "prefill", "--format", "json"],
        env=CHILD_ENV, capture_output=True, text=True)
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["bound"] == "compute"
    assert record["compute_fraction"] == 1.0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_cli_stdout_that_cannot_be_written_exits_1_with_one_line():
    # without PYTHONUNBUFFERED stdout is block-buffered, so the write
    # fails when `main` flushes it, not in `print`
    env = {key: value for key, value in CHILD_ENV.items()
           if key != "PYTHONUNBUFFERED"}
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "acceldse.cli", "simulate",
             "--config", str(BASELINE), "--format", "csv"],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) \
        == (1, "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("verb, code", [("simulate", 0), ("calibrate", 1)])
def test_cli_with_stdout_and_stderr_closed_keeps_its_exit_code(verb, code):
    # a process started with fds 1 and 2 closed has sys.stdout and
    # sys.stderr None, which print skips and ending the run must too
    proc = subprocess.run(
        ["sh", "-c", '"$@" >&- 2>&-', "sh", sys.executable, "-m",
         "acceldse.cli", verb, "--config", str(BASELINE)], env=CHILD_ENV)
    assert proc.returncode == code


def test_console_script_ends_through_run():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())[
        "project"]["scripts"]
    module, name = scripts["acceldse"].split(":")
    assert getattr(importlib.import_module(module), name) is run


def test_cli_simulate_csv_format(capsys):
    rc = main(["simulate", "--config", str(BASELINE), "--phase", "decode",
               "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("phase,S_bytes,f_hz")
    assert lines[1].split(",")[0] == "decode"
    assert len(lines) == 2


def test_cli_decode_mean_mode(capsys):
    rc = main(["simulate", "--config", str(BASELINE), "--phase", "decode",
               "--decode-mode", "mean", "--format", "json",
               "--override", "model.gen_tokens=3"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    mean = record["decode_mean"]
    assert mean["steps"] == 3.0
    # KV growth makes later steps no cheaper than step 0
    assert mean["mean_latency_s"] >= record["latency_s"]


@pytest.mark.parametrize("flags", [
    "--format csv",
    "--phase prefill --format json",
])
def test_cli_decode_mean_needs_decode_phase_and_table_or_json(capsys, flags):
    # a mean the output would drop is refused, not silently skipped
    argv = ["simulate", "--config", str(BASELINE), "--decode-mode", "mean",
            *flags.split()]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert "--decode-mode" in captured.err


def test_sweep_axes_canonical_order(tmp_path):
    # reversed sweep lists produce byte-identical reports
    args = ["sweep", "--config", str(BASELINE)]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a),
                        "--override", "sweep.frequency_mhz=400,800",
                        "--override", "sweep.bandwidth_gbps=2048"]) == 0
    assert main(args + ["--out", str(b),
                        "--override", "sweep.frequency_mhz=800,400",
                        "--override", "sweep.bandwidth_gbps=2048"]) == 0
    for pa in sorted(a.iterdir()):
        assert pa.read_bytes() == (b / pa.name).read_bytes()


def test_cli_roofline_lists_cells(capsys):
    rc = main(["roofline", "--config", str(BASELINE), "--phase", "decode",
               "--override", "sweep.local_buffer_kb=64",
               "--override", "sweep.frequency_mhz=800",
               "--override", "sweep.bandwidth_gbps=2048"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("bandwidth,S_bytes")
    assert len(lines) == 2
    assert lines[1].endswith("memory")


def test_cli_report_prints_argmins(capsys):
    rc = main(["report", "--config", str(BASELINE),
               "--override", "sweep.local_buffer_kb=32,64",
               "--override", "sweep.frequency_mhz=400,800",
               "--override", "sweep.bandwidth_gbps=2048"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "records: 8  complete: True" in out
    assert "EDP argmin" in out
    assert "memory-bound from" in out


def test_cli_report_prints_one_argmin_line_per_summary_argmin(tmp_path,
                                                             capsys):
    rc = main(["report", "--config", str(BASELINE), "--out", str(tmp_path),
               "--override", "sweep.local_buffer_kb=16,64",
               "--override", "sweep.frequency_mhz=400,800"])
    assert rc == 0
    blocks: dict[str, list[str]] = {}
    for line in capsys.readouterr().out.splitlines():
        if line.endswith(":") and not line.startswith(" "):
            blocks[line[:-1]] = block = []
        elif line.startswith("  ") and blocks:
            block.append(line)
    grids = json.loads((tmp_path / "summary.json").read_text())["grids"]
    assert set(blocks) == set(grids)
    for key, entry in grids.items():
        argmins = [line for line in blocks[key] if " argmin " in line]
        names = [name for name in entry if name.endswith("_argmin")]
        assert len(argmins) == len(names) == len(ARGMIN_METRICS)
        for name in names:
            label = ARGMIN_METRICS[name.removesuffix("_argmin")]
            assert sum(line.startswith(f"  {label} argmin ")
                       for line in argmins) == 1, (key, name)


# grid values whose `:g` text, six significant digits, reads back as a
# neighbour's: 1048577 B next to 1 MiB, and two f within 1e-6 MHz of 600
CLOSE_VALUES = ["sweep.local_buffer_kb=1024,1024.001",
                "sweep.frequency_mhz=600.0000001,600.0000002",
                "sweep.bandwidth_gbps=2048", "sweep.phases=decode"]


def test_cli_report_labels_read_back_as_grid_values(capsys):
    overrides = [arg for item in CLOSE_VALUES for arg in ("--override", item)]
    assert main(["report", "--config", str(BASELINE), *overrides]) == 0
    out = capsys.readouterr().out
    s_values, f_values, _, _ = load_sweep_axes(
        apply_overrides(parse_config(BASELINE), CLOSE_VALUES))
    kb = {s / KIB for s in s_values}
    mhz = {f / MHZ for f in f_values}
    cells = re.findall(r"S=(\S+) KB, f=(\S+) MHz", out)
    assert len(cells) == len(ARGMIN_METRICS)
    assert all(float(s) in kb and float(f) in mhz for s, f in cells)
    [line] = [line for line in out.splitlines() if "memory-bound from" in line]
    transitions = ast.literal_eval(line.split("from", 1)[1].strip())
    # one key per S: neither size is dropped
    assert {float(key.removesuffix("KB")) for key in transitions} == kb
    assert {float(value.removesuffix(" MHz"))
            for value in transitions.values()} <= mhz


def test_cli_simulate_table_labels_read_back_as_the_design_point(capsys):
    assert main(["simulate", "--config", str(BASELINE),
                 "--override", "hw.local_buffer_kb=1024.001",
                 "--override", "hw.frequency_mhz=600.0000001",
                 "--override", "hw.ext_bandwidth_gbps=2048.0000001"]) == 0
    hw = load_hardware(apply_overrides(parse_config(BASELINE), [
        "hw.local_buffer_kb=1024.001", "hw.frequency_mhz=600.0000001",
        "hw.ext_bandwidth_gbps=2048.0000001"]))
    [row] = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("design point")]
    s, f, bw = re.fullmatch(
        r"design point +S=(\S+) KB  f=(\S+) MHz  BW=(\S+) GB/s", row).groups()
    assert (float(s), float(f), float(bw)) == (
        hw.buffers.local / KIB, hw.frequency / MHZ, hw.ext_bandwidth / GB)


def test_cli_sweep_keeps_bandwidths_whose_quotient_rounds_down(tmp_path,
                                                               capsys):
    # 6898329841e9 / 1e9 is just below 6898329841: truncated, it named
    # the same files and summary key as 6898329840, and one was lost
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(BASELINE), "--out", str(out),
                 "--override", "sweep.bandwidth_gbps=6898329840,6898329841",
                 "--override", "sweep.local_buffer_kb=64",
                 "--override", "sweep.frequency_mhz=800"]) == 0
    assert capsys.readouterr().out == (
        f"evaluated 4 records, wrote 34 files to {out}\n")
    grids = json.loads((out / "summary.json").read_text())["grids"]
    assert sorted(grids) == [f"{phase}@{gbps}GBps"
                             for phase in ("decode", "prefill")
                             for gbps in (6898329840, 6898329841)]
    assert len(list(out.glob("edp_decode_bw689832984[01].csv"))) == 2


def test_cli_report_out_builds_the_summary_once(tmp_path, monkeypatch,
                                                 capsys):
    # the summary `report` prints is the one it writes
    built = []
    summary_dict = report.summary_dict

    def counted(result, decode_step):
        built.append(result)
        return summary_dict(result, decode_step)

    monkeypatch.setattr(report, "summary_dict", counted)
    assert main(["report", "--config", str(BASELINE),
                 "--out", str(tmp_path)]) == 0
    assert len(built) == 1


def test_cli_non_zero_decode_step_reaches_every_output(tmp_path, monkeypatch,
                                                       capsys):
    # the step is request data: the summary and report name it, and the
    # decode records are those of a sweep at that step, not at step 0
    results = []
    swept = report.run_sweep

    def kept(*run):
        results.append(swept(*run))
        return results[-1]

    monkeypatch.setattr(report, "run_sweep", kept)
    step = ["--override", "model.decode_step=5"]
    assert main(["sweep", "--config", str(BASELINE), *step,
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["decode_step"] == 5
    assert main(["report", "--config", str(BASELINE), *step]) == 0
    assert "(step 5)" in capsys.readouterr().out
    values = parse_config(BASELINE)
    spec = load_sweep_axes(values)
    run = spec, load_hardware(values), load_model_spec(values)
    req = load_request(values)
    at_5 = run_sweep(*run, req._replace(decode_step=5))
    assert results == [at_5, at_5]
    decode = [r for r in at_5.records if r.phase == "decode"]
    assert decode != [r for r in run_sweep(*run, req).records
                      if r.phase == "decode"]


@pytest.mark.parametrize("verb", ["simulate", "sweep", "roofline",
                                  "calibrate", "report"])
def test_cli_parses_every_key_once(verb, tmp_path, monkeypatch, capsys):
    # each command builds its records, the request among them, from one
    # parse of every key
    parsed = []
    for table in config._TABLES:
        for field, (key, parse, default) in list(table.items()):
            monkeypatch.setitem(table, field, (
                key, lambda text, key=key, parse=parse:
                parsed.append(key) or parse(text), default))
    out = ["--out", str(tmp_path)] if verb == "sweep" else []
    assert main([verb, "--config", str(BASELINE), *out,
                 "--override", "sweep.local_buffer_kb=32,64",
                 "--override", "sweep.frequency_mhz=600,800",
                 "--override", "sweep.bandwidth_gbps=2048"]) == 0
    assert sorted(parsed) == sorted(config.KEYS)


def test_phase_names_are_declared_once():
    # both --phase options and sweep.phases take exactly PHASES
    [verbs] = [action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
    for verb in ("simulate", "roofline"):
        [phase] = [action for action in verbs.choices[verb]._actions
                   if action.dest == "phase"]
        assert tuple(phase.choices) == PHASES
    for name in PHASES:
        assert load_sweep_axes({"sweep.phases": name}).phases == (name,)
    for name in ("decode_step", "Prefill", "DECODE"):
        with pytest.raises(ConfigError, match="sweep.phases"):
            load_sweep_axes({"sweep.phases": name})


@pytest.mark.parametrize("verb", ["sweep", "roofline", "report"])
def test_cli_sweep_exit_1_on_infeasible_cells(verb, tmp_path, capsys):
    # a sub-minimal buffer size makes those cells unevaluable; they are
    # recorded and reported, and the run exits nonzero saying how many
    out = [] if verb == "roofline" else ["--out", str(tmp_path)]
    rc = main([verb, "--config", str(BASELINE), *out,
               "--override", "sweep.local_buffer_kb=0.0078125,64",
               "--override", "sweep.frequency_mhz=800",
               "--override", "sweep.bandwidth_gbps=2048",
               "--override", "sweep.phases=decode"])
    assert rc == 1
    assert capsys.readouterr().err \
        == "error: 1 design points could not be evaluated\n"
    if out:
        assert (tmp_path / "summary.json").exists()


def test_cli_array_rows_not_a_power_of_two(tmp_path, capsys):
    # 12 rows is no tile size; tile_m falls back below it where no tile
    # size of at least 12 fits, instead of the search crashing
    rows = ["--config", str(BASELINE), "--override", "hw.array_rows=12"]
    assert main(["sweep", *rows, "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.iterdir())) == 50
    assert main(["simulate", "--phase", "prefill", *rows,
                 "--override", "hw.local_buffer_kb=16"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_cli_jobs_outputs_identical(tmp_path):
    # --jobs is accepted for any N and selects nothing
    for jobs in ("1", "3"):
        assert main(["sweep", "--config", str(BASELINE), "--jobs", jobs,
                     "--out", str(tmp_path / jobs)]) == 0
    assert tree_digests(tmp_path / "1") == tree_digests(tmp_path / "3")


def test_cli_report_all_infeasible_prints_none(capsys):
    rc = main(["report", "--config", str(BASELINE),
               "--override", "sweep.local_buffer_kb=0.01"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "complete: False" in out
    argmins = [line for line in out.splitlines() if "argmin" in line]
    assert len(argmins) == 3 * 2 * 3  # 3 metrics x 2 phases x 3 bandwidths
    assert all(line.endswith(" none") for line in argmins)


@pytest.mark.parametrize("verb,override", [
    ("simulate", "hw.cores=0"),
    ("simulate", "hw.local_buffer_kb=0"),
    ("simulate", "hw.global_buffer_mb=0"),
    ("simulate", "hw.onchip_bandwidth_gbps=0"),
    ("sweep", "sweep.local_buffer_kb=0"),
    ("simulate", "model.decode_step=99"),
    ("simulate", "model.decode_step=-1"),
    ("simulate", "hw.frequency_mhz=0"),
    ("simulate", "model.gen_tokens=0"),
    ("simulate --decode-mode mean", "model.gen_tokens=0"),
    ("sweep", "model.gen_tokens=0"),
    # every run needs a generated token, even one that never reads it
    ("simulate --phase prefill", "model.gen_tokens=0"),
    ("sweep --override sweep.phases=prefill", "model.gen_tokens=0"),
    ("simulate", "hw.corez=4"),
    ("simulate", "hw.local_buffer_kb=inf"),
    ("simulate", "hw.ext_bandwidth_gbps=nan"),
    ("sweep", "sweep.local_buffer_kb=nan"),
    ("sweep", "sweep.phases=prefill,bogus"),
    ("sweep", "sweep.phases=decode,decode"),
    ("sweep", "sweep.phases=,"),
    # every key is checked, whichever specs the command goes on to load
    ("simulate", "sweep.local_buffer_kb=nan"),
    ("simulate --phase prefill", "sweep.phases=prefill,bogus"),
    ("roofline", "sweep.bandwidth_gbps=inf"),
    ("roofline", "model.decode_step=one"),
    # report files and summary keys name a bandwidth by its whole GB/s
    ("sweep", "sweep.bandwidth_gbps=2048.25,2048.75"),
    ("sweep", "sweep.bandwidth_gbps=0.5"),
    # whole, but too many bytes/s for a float
    ("report", "sweep.bandwidth_gbps=1e300"),
    # the SRAM power law overflows at the largest configured buffer,
    # whichever command runs
    ("simulate", "hw.sram_access_exponent=100"),
    ("sweep", "hw.sram_access_exponent=100"),
    ("simulate --override sweep.local_buffer_kb=1e10",
     "hw.sram_access_exponent=40"),
    ("sweep --override hw.local_buffer_kb=1e10", "hw.sram_access_exponent=40"),
])
def test_cli_out_of_range_value_exits_2_naming_key(tmp_path, capsys, verb,
                                                   override):
    args = [*verb.split(), "--config", str(BASELINE), "--override", override]
    if verb.startswith("sweep"):
        args += ["--out", str(tmp_path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert override.split("=")[0] in err
    if override == "sweep.bandwidth_gbps=1e300":
        # the number typed is finite: its value in bytes/s is what overflows
        assert err.endswith("'1e300' (overflows a float once scaled by "
                            "1000000000)\n")


# A value just outside each key's range: below 1 byte after the cast for
# the sizes, 0 for the other positive values, 1 for the gating savings.
OUTSIDE = [
    "model.n_heads=0", "model.head_dim=0", "model.mlp_ratio=0",
    "model.bytes_per_element=0", "model.n_layers=0",
    "model.batch=0", "model.prompt_len=0", "model.gen_tokens=0",
    "model.decode_step=16", "hw.cores=0", "hw.arrays_per_core=0",
    "hw.array_rows=0", "hw.array_cols=0", "hw.local_buffer_kb=0.0001",
    "hw.global_buffer_mb=0.0000001", "hw.ext_bandwidth_gbps=0",
    "hw.onchip_bandwidth_gbps=0", "hw.frequency_mhz=0",
    "hw.sram_leakage_w_per_byte=0", "hw.sram_access_energy_j=0",
    "hw.sram_access_ref_kb=0.0001", "hw.sram_access_exponent=0",
    "hw.array_leakage_w=0", "hw.array_dynamic_w=0",
    "hw.array_ref_frequency_mhz=0", "hw.gating_prefill=1",
    "hw.gating_decode=1", "hw.gating_decode=-0.01",
    "sweep.local_buffer_kb=0.0001", "sweep.frequency_mhz=0",
    "sweep.bandwidth_gbps=0.5", "sweep.phases=,",
]
# a cross-key check names each key it compares
NAMED = {
    "model.decode_step=16": {"model.decode_step", "model.gen_tokens"},
}


def test_every_key_has_a_value_outside_its_range():
    assert {override.split("=")[0] for override in OUTSIDE} == config.KEYS


@pytest.mark.parametrize("override", OUTSIDE)
def test_cli_diagnostic_names_only_its_key(capsys, override):
    assert main(["simulate", "--config", str(BASELINE),
                 "--override", override]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    named = {key for key in config.KEYS  # as whole tokens
             if re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", err)}
    assert named == NAMED.get(override, {override.split("=")[0]}), err


@pytest.mark.parametrize("args", [
    "sweep --out {file}",
    "sweep --out {file}/sub",
    "report --out {file}",
    "calibrate --out {file}/constants.conf",
    "calibrate --out {missing}/constants.conf",
    # no cell of the calibration grid fits a tile set
    "calibrate --override sweep.local_buffer_kb=0.01 --target-s-kb 0.01",
    # every decode EDP is inf: no cell is the argmin to calibrate against
    "calibrate --override sweep.frequency_mhz=1e-300 --target-f-mhz 1e-300 "
    "--target-s-kb 16",
    # the design point's buffer fits no tile set, whatever the format
    *(f"simulate --override hw.local_buffer_kb=0.01 {flags}" for flags in (
        "--format table", "--format json", "--format csv",
        "--decode-mode mean")),
    # the fixed step fits (`simulate` alone exits 0), but a later step's
    # attention GEMMs need 46 bytes of the 40
    pytest.param("simulate --decode-mode mean" + "".join(
        f" --override {kv}" for kv in (
            "model.n_heads=1", "model.head_dim=1", "model.batch=1",
            "model.prompt_len=1", "model.gen_tokens=30", "hw.array_rows=1",
            "hw.array_cols=6", "hw.local_buffer_kb=0.0390625")),
        id="simulate --decode-mode mean, a later step untileable"),
    # counts too large for a float, though each key is in its range
    *(pytest.param(args.replace("{big}", str(big)),
                   id=args.replace("{big}", f"10**{len(str(big)) - 1}"))
      for args, big in (
          ("simulate --override model.batch={big}", 10**300),
          ("sweep --override model.batch={big} --out {missing}", 10**300),
          ("simulate --override model.n_layers={big}", 10**310),
          ("simulate --phase prefill --override model.prompt_len={big}",
           10**400))),
])
def test_cli_unusable_run_exits_1_with_one_line(tmp_path, capsys, args):
    file = tmp_path / "file"
    file.write_text("")
    argv = args.format(file=file, missing=tmp_path / "missing_dir").split()
    assert main([*argv, "--config", str(BASELINE)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [file]  # and no file written


# 1e302 MHz at 1 GB/s: a memory-bound cell's cycles overflow to inf
HUGE_F = ("--override sweep.frequency_mhz=1e302 "
          "--override sweep.bandwidth_gbps=1")


@pytest.mark.parametrize("args,output", [
    # 1e-300 MHz makes every EDP inf
    ("sweep --override sweep.frequency_mhz=1e-300 --out {out}",
     "edp_prefill_bw2048.csv"),
    ("report --override sweep.frequency_mhz=1e-300 --out {out}",
     "edp_prefill_bw2048.csv"),
    (f"sweep {HUGE_F} --out {{out}}", "cycles_prefill_bw1.csv"),
    (f"report {HUGE_F} --out {{out}}", "cycles_prefill_bw1.csv"),
    # the energies overflow to inf, whatever the format
    ("simulate --format json --override hw.sram_leakage_w_per_byte=1e303",
     "record"),
    ("simulate --override hw.sram_leakage_w_per_byte=1e303", "record"),
    ("simulate --format csv --override hw.sram_leakage_w_per_byte=1e303",
     "record"),
    ("simulate --decode-mode mean "
     "--override hw.sram_leakage_w_per_byte=1e303", "record"),
    # a finite latency, but EDP overflows
    ("simulate --override hw.ext_bandwidth_gbps=1e-300", "record"),
    ("simulate --override hw.frequency_mhz=1e302 "
     "--override hw.ext_bandwidth_gbps=1", "record"),
    # peak flops and bw * oi both overflow: the attainable rate is inf
    ("roofline --override sweep.frequency_mhz=1e302 "
     "--override sweep.bandwidth_gbps=1e299", "roofline"),
])
def test_cli_non_finite_output_exits_1_writing_nothing(tmp_path, capsys, args,
                                                       output):
    out = tmp_path / "out"
    assert main([*args.format(out=out).split(),
                 "--config", str(BASELINE)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = captured.err
    assert err.count("\n") == 1 and err.startswith("error: cannot ")
    assert output in err and not any(key in err for key in config.KEYS)


def test_cli_report_checks_outputs_not_intermediate_values(capsysbinary):
    # at 1e-300 MHz every EDP is inf, so no cell is an EDP argmin and
    # `report` prints `none` for it; the latency and energy argmins it
    # prints are finite cells, so it prints them: the rule checks
    # outputs, not every value of the grid they are read from
    assert main(["report", "--config", str(BASELINE),
                 "--override", "sweep.frequency_mhz=1e-300"]) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == (
        "67fc87e03ef5beefa6f0b024d404347202f482c766dced98cbb7ecce050afd57")


# a tiny model whose 0.1875 KB buffer fits prefill's tiles but not decode's
TINY = ("--override model.n_heads=1 --override model.head_dim=4 "
        "--override model.mlp_ratio=1 "
        "--override model.batch=1 --override model.prompt_len=2 "
        "--override model.decode_step=14 "
        "--override sweep.local_buffer_kb=0.1875,64").split()


def test_cli_roofline_counts_only_the_cells_of_its_phase(capsys):
    # the exit code counts the failed cells of the printed phase alone
    args = ["--config", str(BASELINE), *TINY]
    assert main(["roofline", "--phase", "prefill", *args]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1 + 2 * 7 * 3 and captured.err == ""
    assert main(["roofline", "--phase", "decode", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1 + 7 * 3
    assert captured.err == "error: 21 design points could not be evaluated\n"


def test_cli_calibrate_ignores_sweep_phases(capsys):
    # calibrate always searches decode, whatever sweep.phases lists
    runs = []
    for extra in ([], ["--override", "sweep.phases=prefill"]):
        code = main(["calibrate", "--config", str(BASELINE), *extra])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("flag", [
    "--target-s-kb=48", "--target-f-mhz=500",
    "--target-s-kb=nan", "--target-s-kb=inf",
])
def test_cli_calibrate_target_off_grid_exits_2(capsys, flag):
    assert main(["calibrate", "--config", str(BASELINE), flag]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert flag.split("=")[-2] in err  # the flag, or the override's key


# A plain command line runs without argparse, which imports gettext and,
# at its first message, locale.
ARGPARSE = ("argparse", "gettext", "locale")
# Each verb: the module `main` imports for it, its exit code on the
# baseline config, and what else it must not load: no verb loads another
# verb's module, and `json` is loaded only where JSON is built.
VERBS = {
    "simulate": ("simulate", 0, ("acceldse.calibrate", "acceldse.report")),
    "sweep": ("report", 0, ("acceldse.simulate", "acceldse.calibrate")),
    "roofline": ("report", 0,
                 ("json", "acceldse.simulate", "acceldse.calibrate")),
    "report": ("report", 0,
               ("json", "acceldse.simulate", "acceldse.calibrate")),
    "calibrate": ("calibrate", 1,
                  ("json", "acceldse.simulate", "acceldse.report")),
}


def _verb_argv(verb, out_dir):
    return [verb, "--config", str(BASELINE),
            *(["--out", str(out_dir)] if verb == "sweep" else [])]


def _newly_loaded(argv, names):
    """(exit code or None, which of `names` are loaded) after a child
    interpreter imports `acceldse.cli` and, given `argv`, runs `main`:
    modules loaded before the import do not count."""
    child = ("import sys\nbefore = set(sys.modules)\nimport acceldse.cli\n"
             f"code = acceldse.cli.main({argv!r}) if {argv!r} else None\n"
             f"print(code, [m for m in {names!r} "
             "if m in sys.modules and m not in before])")
    proc = subprocess.run([sys.executable, "-c", child], env=CHILD_ENV,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


def test_cli_import_leaves_numpy_out():
    # the PE-grid oracle, and with it numpy, is for tests only; the records
    # are named tuples, not dataclasses (which import inspect); no verb's
    # module is loaded before its verb runs, nor json before JSON is built
    heavy = ("numpy", "dataclasses", "inspect", "json", "acceldse.simulate",
             "acceldse.calibrate", "acceldse.report", *ARGPARSE)
    assert _newly_loaded([], heavy) == "None []"


@pytest.mark.parametrize("verb", VERBS)
def test_cli_verb_loads_only_its_own_module(tmp_path, verb):
    module, code, others = VERBS[verb]
    own = f"acceldse.{module}"
    assert _newly_loaded(_verb_argv(verb, tmp_path),
                         (own, *others, *ARGPARSE)) == f"{code} {[own]}"


def test_cli_registers_no_exit_hook(tmp_path):
    # `run` ends the process with `os._exit`, which runs no atexit hook
    argvs = [_verb_argv(verb, tmp_path) for verb in VERBS]
    child = ("import atexit\nregistered = []\n"
             "atexit.register = lambda f, *a, **k: registered.append(f) or f\n"
             "import acceldse.cli\n"
             f"codes = [acceldse.cli.main(argv) for argv in {argvs!r}]\n"
             "print(codes, registered)")
    proc = subprocess.run([sys.executable, "-c", child], env=CHILD_ENV,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] \
        == f"{[code for _, code, _ in VERBS.values()]} []"


@pytest.mark.parametrize("verb", VERBS)
def test_cli_is_loaded_once_under_dash_m(tmp_path, verb):
    # `python -m acceldse.cli` runs cli as __main__: a module that imported
    # `acceldse.cli` by name would load and compile it a second time.
    # importtime lists what import statements load, so not the verb's
    # module, which `main` loads through `importlib`
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "acceldse.cli",
         *_verb_argv(verb, tmp_path)],
        env=CHILD_ENV, capture_output=True, text=True)
    imported = [line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert proc.returncode == VERBS[verb][1]
    assert "acceldse.sweep" in imported and "acceldse.cli" not in imported
    assert "argparse" not in imported


# sha256 of `acceldse --help` and of each verb's `--help` at 80 columns
# (Python 3.11's argparse), recorded before the verbs left `cli`
HELP_DIGESTS = {
    "": "c067adb21b9edcf72f42091284cf999195f286afdf6ae5519bf40e39e388fc92",
    "simulate":
        "096731003b92dea47bf9e3a4f3d8100f1162c59e2ea4460b162b96a18061e017",
    "sweep":
        "83f14ef525169ecc26c66c0e85bb3a7fb03e495b598aa41da349e5795923ec51",
    "roofline":
        "b5dcb6afa77b1d76625a9b5d6d7f4d5634fff6b9a1be16245ed9b08cfe3fdcf0",
    "calibrate":
        "54035e34bb42800ad80fec92c820d44defefc694c91eee7f30d7805edb379ffb",
    "report":
        "9100cc6a460664d4496e4d467e3a3e3d331bee8ec4a2a5c7b863651a83de0a85",
}


@pytest.mark.parametrize("verb", HELP_DIGESTS,
                         ids=lambda verb: verb or "acceldse")
def test_cli_help_matches_recorded_digest(verb, monkeypatch, capsysbinary):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main([*verb.split(), "--help"])
    assert exited.value.code == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() \
        == HELP_DIGESTS[verb]


# argparse's usage errors at 80 columns, recorded before `main` read a
# plain command line without it
USAGE_ERRORS = {
    ("simulate", "--config", "X", "--phase", "bogus"):
        "usage: acceldse simulate [-h] --config CONFIG [--override KEY=VALUE]\n"
        "                         [--jobs JOBS] [--phase {prefill,decode}]\n"
        "                         [--format {table,json,csv}]\n"
        "                         [--decode-mode {step,mean}]\n"
        "acceldse simulate: error: argument --phase: invalid choice: 'bogus' "
        "(choose from 'prefill', 'decode')\n",
    ("sweep", "--config", "X"):
        "usage: acceldse sweep [-h] --config CONFIG [--override KEY=VALUE]\n"
        "                      [--jobs JOBS] --out OUT\n"
        "acceldse sweep: error: the following arguments are required: "
        "--out\n",
}


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_cli_usage_error_matches_recorded_text(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    assert exited.value.code == 2
    assert capsys.readouterr() == ("", USAGE_ERRORS[argv])


def _values(kwargs):
    """(values an option's `type` and `choices` accept, values that they
    reject or that start with `-`)"""
    if "choices" in kwargs:
        return list(kwargs["choices"]), ["bogus", f"-{kwargs['choices'][0]}"]
    if kwargs.get("type") is int:
        return ["1", "2", "08"], ["x", "1.5", "-1"]
    if kwargs.get("type") is float:
        return ["32", "0.5", "1e3"], ["x", "", "-600"]
    return ["configs/baseline.conf", "model.n_layers=96", "a b", ""], \
        ["-x", "-", "--"]


@st.composite
def command_lines(draw):
    """(argv, plain): a command line drawn from the CLI's table, and
    whether it is plain; a near miss is plain but for one token, or
    lacks a required option."""
    verb = draw(st.sampled_from(list(CLI_VERBS)))
    options = CLI_VERBS[verb][2]
    required = [flag for flag, kwargs in options.items()
                if kwargs.get("required")]
    chosen = required + draw(st.lists(st.sampled_from(list(options)),
                                      max_size=6))
    argv = [verb]
    for flag in chosen:
        argv += [flag, draw(st.sampled_from(_values(options[flag])[0]))]
    miss = draw(st.sampled_from(["verb", "help", "required", "value",
                                 "abbreviate", "equals", "drop", None, None,
                                 None]))
    at = 2 * draw(st.integers(0, len(chosen) - 1)) + 1
    if miss == "verb":
        argv[0] = draw(st.sampled_from(["bogus", verb[:-1], verb.title()]))
    elif miss == "help":
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["-h", "--help"])))
    elif miss == "required":
        flag = draw(st.sampled_from(required))
        argv = [verb, *(token for pair in zip(argv[1::2], argv[2::2])
                        if pair[0] != flag for token in pair)]
    elif miss == "value":
        argv[at + 1] = draw(st.sampled_from(_values(options[argv[at]])[1]))
    elif miss == "abbreviate":
        argv[at] = argv[at][:-1]
    elif miss == "equals":
        argv[at:at + 2] = [f"{argv[at]}={argv[at + 1]}"]
    elif miss == "drop":
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv, miss is None


@settings(max_examples=300, deadline=None)
@given(command_lines())
@example((["simulate", "--config", "X", "--phase", "bogus"], False))
@example((["calibrate", "--config", "X", "--jobs", "1.5"], False))
@example((["sweep", "--config", "X", "--out", "-o"], False))
@example((["sweep", "--override", "a=1", "--out", "o"], False))
@example((["report", "--config", "X", "--override", "a=1", "--override",
           "b=2"], True))
def test_plain_args_is_parse_args_or_declines(line):
    argv, plain = line
    args = _plain_args(argv)
    assert (args is not None) == plain
    if plain:
        assert vars(args) == vars(build_parser().parse_args(argv))
