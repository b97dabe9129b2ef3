import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from acceldse import memory, simulate, sweep
from acceldse.cli import main
from acceldse.config import (GB, KIB, SweepSpec, apply_overrides,
                             load_hardware, load_model_spec, load_request,
                             load_sweep_axes, parse_config)
from acceldse.energy import by_component, energy_terms
from acceldse.memory import TilingError, phase_totals
from acceldse.report import summary_dict, write_reports
from acceldse.simulate import decode_mean_over_generation
from acceldse.sweep import (METRICS, OutputError, SweepRecord, evaluate_point,
                            evaluate_sweep, phase_table, run_sweep)
from acceldse.workload import build_decode_trace
from oracle import evaluate_cell

BASELINE = str(Path(__file__).resolve().parent.parent / "configs"
               / "baseline.conf")

HW = load_hardware({})
MODEL = load_model_spec({})
REQ = load_request({})

SMALL_SPEC = SweepSpec(
    s_values=(16 * KIB, 64 * KIB, 256 * KIB),
    f_values=(400e6, 800e6),
    bw_values=(2048 * GB,),
    phases=("prefill", "decode"),
)

DEFAULT_SPEC = SweepSpec(
    s_values=tuple(k * KIB for k in (16, 32, 64, 128, 256, 512, 1024)),
    f_values=tuple(f * 1e6 for f in (200, 400, 600, 800, 1000, 1200, 1400)),
    bw_values=tuple(b * GB for b in (2048, 4096, 8192)),
    phases=("prefill", "decode"),
)


def test_sweep_spec_validation(capsys):
    # an empty or non-positive axis is rejected as its key is parsed;
    # the parser sorts every axis it accepts
    for override in ("sweep.local_buffer_kb=,", "sweep.local_buffer_kb=2,-1"):
        assert main(["simulate", "--config", BASELINE,
                     "--override", override]) == 2
        assert capsys.readouterr().err.startswith(
            "error: bad value for sweep.local_buffer_kb: ")


def test_default_cardinality(monkeypatch):
    # cycles and traffic are computed once per (phase, S), not per cell
    calls = []
    counted = sweep.phase_totals
    monkeypatch.setattr(sweep, "phase_totals",
                        lambda *args: calls.append(args) or counted(*args))
    records = run_sweep(DEFAULT_SPEC, HW, MODEL, REQ).records
    assert len(records) == 7 * 7 * 3 * 2
    assert len(calls) == 2 * 7


def test_small_sweep_complete_and_ordered():
    result = run_sweep(SMALL_SPEC, HW, MODEL, REQ)
    assert len(result.records) == 3 * 2 * 1 * 2
    assert result.complete
    points = [(r.phase, r.bw, r.s, r.f) for r in result.records]
    assert points == sorted(points, key=lambda p: (
        ["prefill", "decode"].index(p[0]), p[1], p[2], p[3]))


def test_select_returns_one_phase_bandwidth_block():
    spec = SweepSpec(SMALL_SPEC.s_values, SMALL_SPEC.f_values,
                     (2048 * GB, 4096 * GB), SMALL_SPEC.phases)
    result = run_sweep(spec, HW, MODEL, REQ)
    for phase in spec.phases:
        for bw in spec.bw_values:
            assert result.select(phase, bw) == tuple(
                r for r in result.records
                if r.phase == phase and r.bw == bw)


def test_single_point_matches_direct_evaluation():
    spec = SweepSpec((64 * KIB,), (800e6,), (2048 * GB,), ("decode",))
    result = run_sweep(spec, HW, MODEL, REQ)
    assert len(result.records) == 1
    trace = build_decode_trace(MODEL, REQ, 0)
    totals = phase_totals(trace, HW.fabric, 64 * KIB,
                          MODEL.bytes_per_element)
    direct = evaluate_point(totals, energy_terms(totals, "decode", HW,
                                                 64 * KIB),
                            "decode", HW, 64 * KIB, 800e6, 2048 * GB)
    got = result.records[0]
    assert got == direct
    assert got.edp == direct.edp


def test_record_leads_with_its_cell():
    # the cell's coordinates are the record's own first four fields
    assert SweepRecord._fields[:4] == ("phase", "s", "f", "bw")
    [record] = run_sweep(SweepSpec((8,), (800e6,), (2048 * GB,), ("decode",)),
                         HW, MODEL, REQ).records
    assert record[:4] == ("decode", 8, 800e6, 2048 * GB) and not record.ok


def test_infeasible_cells_recorded_not_skipped(tmp_path):
    spec = SweepSpec((8, 64 * KIB), (800e6,), (2048 * GB,), ("decode",))
    result = run_sweep(spec, HW, MODEL, REQ)
    assert len(result.records) == 2
    bad = [r for r in result.records if not r.ok]
    assert len(bad) == 1 and bad[0].s == 8
    assert not result.complete
    # grids stay dense: the error cell keeps its place, and its value is NaN
    block = result.select("decode", 2048 * GB)
    assert [(r.s, r.ok) for r in block] == [(8, False), (64 * KIB, True)]
    write_reports(result, tmp_path, summary_dict(result, 0))
    rows = (tmp_path / "latency_decode_bw2048.csv").read_text().splitlines()
    assert rows[3:] == ["8,800000000.0,nan",
                        f"{64 * KIB},800000000.0,{block[1].latency!r}"]


def test_emit_reports_file_set(tmp_path):
    result = run_sweep(SMALL_SPEC, HW, MODEL, REQ)
    written = write_reports(result, tmp_path, summary_dict(result, 0))
    # 8 metrics x 2 phases x 1 bandwidth + roofline + summary
    assert len(written) == 8 * 2 * 1 + 2
    assert [p.name for p in written] == [
        f"{metric}_{phase}_bw2048.csv" for metric in METRICS
        for phase in ("prefill", "decode")] + ["roofline.csv", "summary.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in written)
    grid_text = (tmp_path / "latency_decode_bw2048.csv").read_text()
    lines = grid_text.splitlines()
    assert lines[0] == "metric,phase,bandwidth"
    assert lines[1].startswith("latency,decode,")
    assert lines[2] == "S_bytes,f_hz,value"
    assert len(lines) == 3 + 3 * 2  # |S| x |f| data rows


def test_emit_reports_writes_nothing_for_a_non_finite_summary(tmp_path):
    result = run_sweep(SMALL_SPEC, HW, MODEL, REQ)
    out = tmp_path / "out"
    with pytest.raises(OutputError, match=r"^cannot write .*summary\.json: "):
        write_reports(result, out, {"level": float("nan")})
    assert not out.exists()


def test_summary_contains_argmins_and_transitions():
    result = run_sweep(SMALL_SPEC, HW, MODEL, REQ)
    summary = summary_dict(result, 0)
    assert summary["schema_version"] == 1
    key = "decode@2048GBps"
    entry = summary["grids"][key]
    assert "edp_argmin" in entry
    assert "latency_argmin" in entry
    assert set(entry["bound_transition_mhz"]) == {
        str(s) for s in SMALL_SPEC.s_values}


@pytest.mark.parametrize("spec", [
    DEFAULT_SPEC,
    SweepSpec((8, 64 * KIB), DEFAULT_SPEC.f_values, (2048 * GB,),
              ("decode",)),
], ids=["default", "infeasible_8_bytes"])
def test_bound_transition_is_lowest_memory_bound_frequency(spec):
    result = run_sweep(spec, HW, MODEL, REQ)
    grids = summary_dict(result, 0)["grids"]
    seen = set()
    for phase in spec.phases:
        for bw in spec.bw_values:
            got = grids[f"{phase}@{int(bw / GB)}GBps"][
                "bound_transition_mhz"]
            assert list(got) == [str(s) for s in spec.s_values]
            for s in spec.s_values:
                bound = [r.f for r in result.records
                         if (r.phase, r.bw, r.s) == (phase, bw, s)
                         and r.ok and r.memory_bound]
                want = min(bound) / 1e6 if bound else None
                assert got[str(s)] == want, (phase, bw, s)
                seen.add(want is None)
    assert seen == {True, False}  # both a transition and none occur


def ascending(values, scale):
    return tuple(sorted(v * scale for v in values))


@settings(max_examples=40, deadline=None)
@given(s_kb=st.lists(st.integers(1, 2048), min_size=1, max_size=3,
                     unique=True),
       f_mhz=st.lists(st.floats(10, 5000), min_size=1, max_size=3,
                      unique=True),
       bw_gbps=st.lists(st.floats(10, 50000), min_size=1, max_size=3,
                        unique=True))
def test_cells_share_phase_totals_and_obey_closed_form(s_kb, f_mhz, bw_gbps):
    spec = SweepSpec(ascending(s_kb, KIB), ascending(f_mhz, 1e6),
                     ascending(bw_gbps, GB), ("prefill", "decode"))
    first = {}
    for rec in run_sweep(spec, HW, MODEL, REQ).records:
        t = rec.totals
        # cycles and traffic depend on (phase, S) only, never on f or BW
        shared = first.setdefault((rec.phase, rec.s), t)
        assert t == shared
        assert rec.latency >= rec.compute_time
        assert rec.latency >= t.dram_bytes / rec.bw
        assert rec.latency >= t.onchip_bytes / HW.onchip_bandwidth
        assert rec.total_cycles == pytest.approx(rec.latency * rec.f,
                                                 rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(n_heads=st.sampled_from((1, 2, 3)), head_dim=st.integers(1, 12),
       n_layers=st.integers(1, 3), batch=st.integers(1, 3),
       prompt_len=st.integers(1, 30), rows=st.integers(1, 8),
       cols=st.integers(1, 8), cores=st.integers(1, 4),
       onchip_gbps=st.integers(1, 100_000),
       s_bytes=st.lists(st.integers(16, 8192), min_size=1, max_size=3,
                        unique=True),
       f_mhz=st.lists(st.floats(10, 5000), min_size=1, max_size=3,
                      unique=True),
       bw_gbps=st.lists(st.integers(1, 50_000), min_size=1, max_size=3,
                        unique=True))
# memory-bound: flops / latency and attainable round flops * bw /
# dram_bytes in different orders, and the first exceeds the second in the
# last bit; achieved is capped at attainable
@example(n_heads=1, head_dim=8, n_layers=1, batch=1, prompt_len=3, rows=3,
         cols=1, cores=4, onchip_gbps=2, s_bytes=[64], f_mhz=[63.0],
         bw_gbps=[1])
def test_model_invariants_hold_on_random_small_configs(
        n_heads, head_dim, n_layers, batch, prompt_len, rows, cols, cores,
        onchip_gbps, s_bytes, f_mhz, bw_gbps):
    values = {"model.n_heads": str(n_heads), "model.head_dim": str(head_dim),
              "model.n_layers": str(n_layers), "model.batch": str(batch),
              "model.prompt_len": str(prompt_len),
              "hw.array_rows": str(rows), "hw.array_cols": str(cols),
              "hw.cores": str(cores),
              "hw.onchip_bandwidth_gbps": str(onchip_gbps)}
    spec = SweepSpec(ascending(s_bytes, 1), ascending(f_mhz, 1e6),
                     ascending(bw_gbps, GB), ("prefill", "decode"))
    result = run_sweep(spec, load_hardware(values), load_model_spec(values),
                       load_request(values))
    along_f = {}
    for rec in result.records:
        if not rec.ok:  # no tile set fits this S
            continue
        assert 0 < rec.energy.utilization <= 1
        assert rec.achieved <= rec.attainable
        assert 0 < rec.compute_fraction <= 1
        along_f.setdefault((rec.phase, rec.bw, rec.s),
                           []).append(rec)  # f ascends
    # latency, energy and EDP never rise with f, exactly
    for cell, recs in along_f.items():
        for metric in ("latency", "total_j", "edp"):
            values = [getattr(r, metric) for r in recs]
            assert all(b <= a for a, b in zip(values, values[1:])), (cell,
                                                                     metric)


@settings(max_examples=60, deadline=None)
@given(n_heads=st.sampled_from((1, 2, 3)), head_dim=st.integers(1, 12),
       n_layers=st.integers(1, 3), batch=st.integers(1, 3),
       prompt_len=st.integers(1, 30), rows=st.integers(1, 8),
       cols=st.integers(1, 8), cores=st.integers(1, 4),
       onchip_gbps=st.integers(1, 100_000),
       gating=st.tuples(*[st.sampled_from((0.0, 0.04, 0.2))
                          | st.floats(0.0, 0.99)] * 2),
       # the SRAM and array energy constants, bounded so nothing overflows
       sram=st.tuples(st.floats(1e-12, 1e-3), st.floats(1e-16, 1e-9),
                      st.integers(1, 2**20), st.floats(0.05, 2.0)),
       arrays=st.tuples(st.floats(1e-6, 10.0), st.floats(1e-3, 100.0),
                        st.floats(1.0, 1e4)),
       s_bytes=st.lists(st.integers(16, 8192), min_size=1, max_size=3,
                        unique=True),
       f_mhz=st.lists(st.floats(10, 5000), min_size=1, max_size=3,
                      unique=True),
       bw_gbps=st.lists(st.integers(1, 50_000), min_size=1, max_size=3,
                        unique=True),
       printed=st.sampled_from(("prefill", "decode")))
# one head, no gating, compute- and memory-bound cells at 1 GB/s, and an
# S (16 bytes) that no tile set fits beside one that fits every GEMM
@example(n_heads=1, head_dim=8, n_layers=1, batch=1, prompt_len=3, rows=3,
         cols=1, cores=4, onchip_gbps=100_000, gating=(0.0, 0.0),
         sram=(3e-7, 2e-13, 32 * KIB, 0.5), arrays=(9.31e-3, 1.25, 1000.0),
         s_bytes=[16, 4096], f_mhz=[63.0, 5000.0], bw_gbps=[1],
         printed="decode")
def test_split_cells_match_the_unsplit_oracle(
        n_heads, head_dim, n_layers, batch, prompt_len, rows, cols, cores,
        onchip_gbps, gating, sram, arrays, s_bytes, f_mhz, bw_gbps, printed):
    # the overrides that configure one run, for `run_sweep` and `simulate`
    overrides = {
        "model.n_heads": n_heads, "model.head_dim": head_dim,
        "model.n_layers": n_layers,
        "model.batch": batch, "model.prompt_len": prompt_len,
        "hw.array_rows": rows, "hw.array_cols": cols, "hw.cores": cores,
        "hw.onchip_bandwidth_gbps": onchip_gbps,
        "hw.gating_prefill": gating[0], "hw.gating_decode": gating[1],
        "hw.sram_leakage_w_per_byte": repr(sram[0]),
        "hw.sram_access_energy_j": repr(sram[1]),
        "hw.sram_access_ref_kb": repr(sram[2] / KIB),
        "hw.sram_access_exponent": repr(sram[3]),
        "hw.array_leakage_w": repr(arrays[0]),
        "hw.array_dynamic_w": repr(arrays[1]),
        "hw.array_ref_frequency_mhz": repr(arrays[2]),
        "sweep.local_buffer_kb": ",".join(repr(s / KIB) for s in s_bytes),
        "sweep.frequency_mhz": ",".join(map(repr, f_mhz)),
        "sweep.bandwidth_gbps": ",".join(map(str, bw_gbps)),
        # simulate prints the largest S at the highest f and lowest BW
        "hw.local_buffer_kb": repr(max(s_bytes) / KIB),
        "hw.frequency_mhz": repr(max(f_mhz)), "hw.ext_bandwidth_gbps":
        str(min(bw_gbps))}
    argv = [f"{key}={value}" for key, value in overrides.items()]
    values = apply_overrides(parse_config(BASELINE), argv)
    hw = load_hardware(values)
    spec = load_sweep_axes(values)
    model, req = load_model_spec(values), load_request(values)
    table = phase_table(spec, hw, model, req)
    oracle = {}
    for rec in run_sweep(spec, hw, model, req).records:
        totals = table[rec.phase, rec.s]
        if isinstance(totals, str):  # no tile set fits this S
            assert rec.error == totals
            oracle[rec[:4]] = None  # keyed by (phase, S, f, BW)
            continue
        result, energy, roof = evaluate_cell(totals, rec.phase, hw, rec.s,
                                             rec.f, rec.bw)
        oracle[rec[:4]] = energy
        t = rec.totals
        got = {
            "compute_cycles": t.compute_cycles,
            "compute_time": rec.compute_time,
            "memory_time": rec.memory_time, "latency": rec.latency,
            "total_cycles": rec.total_cycles,
            "compute_fraction": rec.compute_fraction, "traffic": t,
            "utilization": rec.energy.utilization, "flops": rec.flops,
            "oi": rec.oi, "attainable": rec.attainable,
            "achieved": rec.achieved, "bound": rec.ridge_side,
            "static_j": rec.static_j, "dynamic_j": rec.energy.dynamic_j,
            "total_j": rec.total_j, "dynamic_power_w": rec.dynamic_power_w,
            "by_component": by_component(rec.energy, rec.latency)}
        want = {**result, **roof, **energy}
        assert list(got) == list(want)
        for name, value in want.items():
            assert repr(got[name]) == repr(value), name
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["simulate", "--config", BASELINE, "--phase", printed,
                     "--format", "json", *(f"--override={o}" for o in argv)])
    want = oracle[printed, hw.buffers.local, hw.frequency,
                  hw.ext_bandwidth]
    if want is None:
        assert code == 1
    else:
        assert code == 0
        # json spells floats by repr; both sides sort their keys
        assert json.dumps(json.loads(out.getvalue())["energy"],
                          sort_keys=True) == json.dumps(want, sort_keys=True)


DEFAULT_TABLE = phase_table(DEFAULT_SPEC, HW, MODEL, REQ)


def with_sram(leakage, access):
    return load_hardware({"hw.sram_leakage_w_per_byte": repr(leakage),
                          "hw.sram_access_energy_j": repr(access)})


@settings(max_examples=30, deadline=None)
@given(leakage=st.floats(1e-9, 1e-5), access=st.floats(1e-15, 1e-11),
       leakage_growth=st.floats(1.0, 100.0),
       access_growth=st.floats(1.0, 100.0))
def test_total_energy_monotone_in_sram_constants(leakage, access,
                                                 leakage_growth,
                                                 access_growth):
    # at every cell, more leakage or costlier accesses never save energy,
    # and no energy term is negative
    base = evaluate_sweep(DEFAULT_SPEC, with_sram(leakage, access),
                          DEFAULT_TABLE)
    for hw in (with_sram(leakage * leakage_growth, access),
               with_sram(leakage, access * access_growth)):
        grown = evaluate_sweep(DEFAULT_SPEC, hw, DEFAULT_TABLE)
        for a, b in zip(base.records, grown.records, strict=True):
            assert b.total_j >= a.total_j
            for r in (a, b):
                assert r.static_j >= 0 and r.energy.dynamic_j >= 0


# --- decode mean over the generation -----------------------------------------

def per_step_mean(hw, model, req):
    """The decode mean as one single-cell `run_sweep` per generation step
    at `hw`'s own point, every step tiled from scratch."""
    spec = SweepSpec((hw.buffers.local,), (hw.frequency,),
                     (hw.ext_bandwidth,), ("decode",))
    latency = energy = edp_sum = 0.0
    for step in range(req.gen_tokens):
        [record] = run_sweep(spec, hw, model,
                             req._replace(decode_step=step)).records
        if not record.ok:
            raise TilingError(record.error)
        latency += record.latency
        energy += record.total_j
        edp_sum += record.edp
    n = req.gen_tokens
    return {
        "steps": float(n),
        "mean_latency_s": latency / n,
        "mean_total_j": energy / n,
        "mean_edp_js": edp_sum / n,
        "aggregate_latency_s": latency,
        "aggregate_total_j": energy,
    }


def small_run(n_heads, head_dim, batch, prompt_len, gen_tokens, rows, cols,
              s_bytes):
    """(hardware, model, request) of a small decode run whose local
    buffer holds `s_bytes`."""
    values = {"model.n_heads": str(n_heads), "model.head_dim": str(head_dim),
              "model.n_layers": "2", "model.batch": str(batch),
              "model.prompt_len": str(prompt_len),
              "model.gen_tokens": str(gen_tokens),
              "hw.array_rows": str(rows), "hw.array_cols": str(cols),
              "hw.cores": "3"}
    hw = load_hardware(values)
    hw = hw._replace(buffers=hw.buffers._replace(local=s_bytes))
    return hw, load_model_spec(values), load_request(values)


@settings(max_examples=100, deadline=None)
@given(n_heads=st.sampled_from((1, 2, 3)), head_dim=st.integers(1, 12),
       batch=st.integers(1, 3), prompt_len=st.integers(1, 30),
       gen_tokens=st.integers(1, 30), rows=st.integers(1, 6),
       cols=st.integers(1, 6), s_bytes=st.integers(16, 2048))
# kv_len passes head_dim (score and output GEMMs share an entry) and, with
# one head and one sequence, 3 * d_model (attention shares the QKV entry)
@example(n_heads=1, head_dim=8, batch=1, prompt_len=6, gen_tokens=20,
         rows=4, cols=4, s_bytes=1024)
# 24 bytes fit QKV but neither step 0's attention score nor an MLP GEMM,
# and the two errors differ: step 0 must be tiled in trace order.  40
# bytes fit step 0, but not the score once kv_len passes the 6 columns.
@example(n_heads=1, head_dim=1, batch=1, prompt_len=5, gen_tokens=4,
         rows=1, cols=6, s_bytes=24)
@example(n_heads=1, head_dim=1, batch=1, prompt_len=1, gen_tokens=30,
         rows=1, cols=6, s_bytes=40)
# Each example below crosses one boundary of the decode mean's runs
# mid-generation, and fails if the runs do not end there.  kv_len 12 to 13
# passes a multiple of 4 rows: the output GEMM's K folds move.
@example(n_heads=1, head_dim=11, batch=1, prompt_len=12, gen_tokens=3,
         rows=4, cols=5, s_bytes=114)
# kv_len 21 to 30 passes multiples of 2 columns: the score's N folds move
@example(n_heads=2, head_dim=1, batch=2, prompt_len=21, gen_tokens=10,
         rows=6, cols=2, s_bytes=114)
# 16-column score tiles on 6-column arrays: kv_len 33 adds a third tile
# inside the folds' run of kv_len 31 to 36
@example(n_heads=1, head_dim=4, batch=1, prompt_len=29, gen_tokens=7,
         rows=5, cols=6, s_bytes=245)
# 4-column score tiles: kv_len 13 makes 4 tiles on 3 cores, a second wave
@example(n_heads=1, head_dim=3, batch=1, prompt_len=7, gen_tokens=8,
         rows=3, cols=3, s_bytes=52)
# the score passes its cap of 12 at kv_len 13; the output GEMM, still
# below its own cap, changes plan at kv_len 15, inside a run of fixed
# folds and tile counts: plans stay only once both capped shapes do
@example(n_heads=2, head_dim=7, batch=1, prompt_len=12, gen_tokens=4,
         rows=6, cols=4, s_bytes=243)
# below 8, the power of two at or above 5 columns, the score's smallest
# tile grows with kv_len: kv_len 4 to 6 fit, 7 does not, and 8 fails
# with a larger tile set, so each step's shape is tiled in step order
@example(n_heads=1, head_dim=1, batch=1, prompt_len=4, gen_tokens=5,
         rows=4, cols=5, s_bytes=40)
# the output GEMM sets the steady step: the score is past its cap of 15
# from the first step (kv_len 25), and the output passes its cap of 26
# mid-generation, so the plans stay only from kv_len 26 on
@example(n_heads=3, head_dim=10, batch=2, prompt_len=25, gen_tokens=11,
         rows=6, cols=4, s_bytes=322)
# and the score sets it: the output is past its cap of 6 from kv_len 10,
# and the score's column tile, all 10 columns at kv_len 10, is 8 from
# its cap of 11 on
@example(n_heads=2, head_dim=12, batch=3, prompt_len=10, gen_tokens=23,
         rows=4, cols=5, s_bytes=141)
def test_decode_mean_matches_a_sweep_per_step(n_heads, head_dim, batch,
                                              prompt_len, gen_tokens, rows,
                                              cols, s_bytes):
    run = small_run(n_heads, head_dim, batch, prompt_len, gen_tokens, rows,
                    cols, s_bytes)
    try:
        expected = per_step_mean(*run)
    except TilingError as exc:
        with pytest.raises(TilingError) as raised:
            decode_mean_over_generation(*run)
        assert str(raised.value) == str(exc)
    else:
        # repr spells every float exactly: the sums are bit-identical
        assert repr(decode_mean_over_generation(*run)) == repr(expected)


def test_decode_mean_counts_each_run_of_steps_once(monkeypatch):
    calls = {"plan_tiling": 0, "traffic": 0, "capped_dims": 0}
    for name in calls:
        counted = getattr(memory, name)

        def count(*args, name=name, counted=counted):
            calls[name] += 1
            return counted(*args)
        for module in (memory, simulate):
            monkeypatch.setattr(module, name, count)
    req = load_request({"model.gen_tokens": "256"})
    decode_mean_over_generation(HW, MODEL, req)
    # step 0's five GEMMs in trace order, once: at kv_len 2048 both
    # attention GEMMs are past their 1,819 caps, so the walk keeps the
    # two attention plans of step 0
    assert calls["plan_tiling"] == 5
    # step 0's three weight GEMMs, then each of the 17 runs of kv_len
    # 2048-2303 between multiples of 16 columns: 2 for the one-step run
    # at 2048 and 4 (its base and the next step) for each of the 16 others
    assert calls["traffic"] == 3 + 2 + 4 * 16
    # the last step's two capped shapes set the steady step: no scan of
    # the steps reads theirs
    assert calls["capped_dims"] == 2
    # below the caps (kv_len 256-511) the capped shapes move every step,
    # so each step after step 0 tiles its two attention GEMMs, and each
    # step counts them once; the steady step is the last, read off the
    # same two capped shapes
    calls.update(plan_tiling=0, traffic=0, capped_dims=0)
    decode_mean_over_generation(HW, MODEL, req._replace(prompt_len=256))
    assert calls == {"plan_tiling": 5 + 2 * 255, "traffic": 3 + 2 * 256,
                     "capped_dims": 2}


# --- depth scales every count ------------------------------------------------

def step_totals(monkeypatch, model, req):
    """Each step's totals in the decode mean of `model`, in step order."""
    steps = []
    monkeypatch.setattr(simulate, "energy_terms",
                        lambda totals, *args: steps.append(totals)
                        or energy_terms(totals, *args))
    decode_mean_over_generation(HW, model, req)
    return steps


def argmins_and_transitions(summary):
    """Each grid's argmins and bound transition frequencies."""
    return {key: {name: value for name, value in grid.items()
                  if name.endswith("_argmin")
                  or name == "bound_transition_mhz"}
            for key, grid in summary["grids"].items()}


@pytest.mark.parametrize("k", [2, 96])
def test_k_layers_scale_every_count_and_move_no_optimum(monkeypatch, k):
    # every GEMM's count is a multiple of n_layers, so every integer count
    # is k times its one-layer value, and so is every time and energy up
    # to rounding: no argmin and no bound transition moves
    deep = MODEL._replace(n_layers=k)
    one, many = (phase_table(DEFAULT_SPEC, HW, model, REQ)
                 for model in (MODEL, deep))
    assert one.keys() == many.keys()
    for key, totals in one.items():
        assert many[key] == tuple(k * x for x in totals), key
    req = REQ._replace(gen_tokens=32)
    assert step_totals(monkeypatch, deep, req) == [
        tuple(k * x for x in totals)
        for totals in step_totals(monkeypatch, MODEL, req)]
    one, many = (argmins_and_transitions(summary_dict(
        evaluate_sweep(DEFAULT_SPEC, HW, table), REQ.decode_step))
        for table in (one, many))
    assert many == one
