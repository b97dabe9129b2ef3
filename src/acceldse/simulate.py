"""The `simulate` command: the cell at the hardware record's own S, f and
BW, printed as its JSON record, a table or a CSV row, and with
`--decode-mode mean` the decode mean (`decode_mean_over_generation`)."""

from __future__ import annotations

from functools import partial

from .config import GB, KIB, MHZ, ConfigError, HardwareConfig, SweepSpec
from .energy import by_component, energy_terms
from .memory import (PhaseTotals, TilingError, affine_extent, capped_dims,
                     plan_tiling, sum_totals, traffic)
from .sweep import (SweepRecord, evaluate_point, json_text, label, load_run,
                    output_text, run_sweep)
from .workload import (InferenceRequest, ModelSpec, attention_matmuls,
                       build_decode_trace, weight_matmuls)

# The columns of `simulate --format csv`: names from the JSON record.
CSV_FIELDS = ("phase", "S_bytes", "f_hz", "bw_bytes_per_s", "bound",
              "latency_s", "compute_time_s", "memory_time_s",
              "compute_cycles", "total_cycles", "compute_fraction",
              "utilization", "dram_bytes", "static_j", "dynamic_j",
              "total_j", "edp_js")


def _record_dict(r: SweepRecord) -> dict:
    """The JSON record of one evaluated cell."""
    return {
        "point": {"S_bytes": r.s, "f_hz": r.f, "bw_bytes_per_s": r.bw},
        "phase": r.phase,
        "compute_cycles": r.totals.compute_cycles,
        "compute_time_s": r.compute_time,
        "memory_time_s": r.memory_time,
        "latency_s": r.latency,
        "total_cycles": r.total_cycles,
        "compute_fraction": r.compute_fraction,
        "utilization": r.energy.utilization,
        "bound": "memory" if r.memory_bound else "compute",
        "flops": r.flops,
        # the six traffic counts: every PhaseTotals field after the MACs
        "traffic": dict(zip(PhaseTotals._fields[2:], r.totals[2:])),
        "energy": {"static_j": r.static_j, "dynamic_j": r.energy.dynamic_j,
                   "total_j": r.total_j, "dynamic_power_w": r.dynamic_power_w,
                   "by_component": by_component(r.energy, r.latency)},
        "edp_js": r.edp,
        "roofline": {"oi": r.oi, "attainable": r.attainable,
                     "achieved": r.achieved, "bound": r.ridge_side},
    }


def _table_text(d: dict) -> str:
    """The `simulate` table of a JSON record, one padded label a line."""
    point, energy, roof = d["point"], d["energy"], d["roofline"]
    rows = [
        ("design point", f"S={label(point['S_bytes'] / KIB)} KB  "
                         f"f={label(point['f_hz'] / MHZ)} MHz  "
                         f"BW={label(point['bw_bytes_per_s'] / GB)} GB/s"),
        ("phase", d["phase"]), ("bound", d["bound"]),
        ("latency", f"{d['latency_s']:.6e} s"),
        ("compute time", f"{d['compute_time_s']:.6e} s"),
        ("memory time", f"{d['memory_time_s']:.6e} s"),
        ("compute cycles", d["compute_cycles"]),
        ("total cycles", f"{d['total_cycles']:.6e}"),
        ("compute fraction", f"{d['compute_fraction']:.4f}"),
        ("utilization", f"{d['utilization']:.4f}"),
        ("dram bytes", d["traffic"]["dram_bytes"]),
        ("onchip bytes", d["traffic"]["onchip_bytes"]),
        ("static energy", f"{energy['static_j']:.6e} J"),
        ("dynamic energy", f"{energy['dynamic_j']:.6e} J"),
        ("total energy", f"{energy['total_j']:.6e} J"),
        ("dynamic power", f"{energy['dynamic_power_w']:.6e} W"),
        ("EDP", f"{d['edp_js']:.6e} J*s"),
        ("roofline", f"OI={roof['oi']:.4f} fl/B  "
                     f"attainable={roof['attainable']:.6e}  "
                     f"achieved={roof['achieved']:.6e}  bound={roof['bound']}"),
    ]
    mean = d.get("decode_mean")
    rows += [("mean over gen", f"{mean['mean_latency_s']:.6e} s/token, "
              f"{mean['mean_total_j']:.6e} J/token "
              f"({int(mean['steps'])} steps)")] if mean else []
    return "".join(f"{name:<17}{value}\n" for name, value in rows)


def _csv_text(d: dict) -> str:
    flat = {**d, **d["point"], **d["traffic"], **d["energy"]}
    return "".join(",".join(row) + "\n" for row in (
        CSV_FIELDS, [str(flat[name]) for name in CSV_FIELDS]))


def decode_mean_over_generation(hw: HardwareConfig, model: ModelSpec,
                                req: InferenceRequest) -> dict[str, float]:
    """Per-token decode metrics averaged over the gen_tokens (>= 1) steps,
    at `hw`'s own point: S = `hw.buffers.local`, f = `hw.frequency` and
    BW = `hw.ext_bandwidth`, the cell `simulate` prints.

    The default reporting convention is a single fixed step; this is the
    alternative convention for workloads where KV growth over the whole
    generation matters.  Step 0's GEMMs are planned once, in trace
    order, as a sweep of it plans them.  The weight GEMMs are the same
    at every step, so their totals are counted and summed once under
    those plans, and the walk's first step takes step 0's two attention
    plans.  Each attention GEMM's kv dim (the score's N, the output's K)
    has a `memory.capped_dims` cap that head_dim alone fixes, and its
    other capped dim stops moving at a power of two at most that cap, so
    from the last step's larger capped kv dim (`steady`, at least the
    first step) on, both plans are the last step's.  Up to `steady`
    each later step tiles both GEMMs, score first, as a sweep of it
    does, so an S too small for a GEMM raises the sweep's TilingError.
    From it on the steps go in runs of affine counts
    (`memory.affine_extent`): step i of a run has the integer totals
    base + i * (second - base), from two `memory.traffic` sums.
    """
    s, b, fabric = hw.buffers.local, model.bytes_per_element, hw.fabric
    tiled = {m: plan_tiling(m, s, b, fabric.array)
             for m in build_decode_trace(model, req, 0).matmuls}
    weights = sum_totals([(traffic(m, tiled[m], b, fabric), count) for m, count
                          in weight_matmuls(model, rows=req.batch)])
    attention = partial(attention_matmuls, model, req.batch, 1)
    kv, last = req.prompt_len, req.prompt_len + req.gen_tokens - 1

    def totals(gemms, plans: list) -> PhaseTotals:
        return sum_totals([(weights, 1), *(
            (traffic(m, plan, b, fabric), count)
            for (m, count), plan in zip(gemms, plans))])

    (score, _), (out, _) = attention(last)
    steady = max(kv, capped_dims(score, s, b, fabric.array).N,
                 capped_dims(out, s, b, fabric.array).K)
    latency = energy = edp_sum = 0.0
    while kv <= last:
        (score, _), (out, _) = gemms = attention(kv)
        if kv <= steady:
            plans = [tiled.get(m) or plan_tiling(m, s, b, fabric.array)
                     for m, _ in gemms]
        end = kv if kv < steady else min(
            last, affine_extent(score, plans[0], fabric.array)[1],
            affine_extent(out, plans[1], fabric.array)[0])
        base = totals(gemms, plans)
        second = totals(attention(kv + 1), plans) if end > kv else base
        for i in range(end - kv + 1):
            step = PhaseTotals._make([x + i * (y - x) for x, y in
                                      zip(base, second)]) if i else base
            record = evaluate_point(step, energy_terms(step, "decode", hw, s),
                                    "decode", hw, s, hw.frequency,
                                    hw.ext_bandwidth)
            latency += record.latency
            energy += record.total_j
            edp_sum += record.edp
        kv = end + 1
    n = req.gen_tokens
    return {
        "steps": float(n),
        "mean_latency_s": latency / n,
        "mean_total_j": energy / n,
        "mean_edp_js": edp_sum / n,
        "aggregate_latency_s": latency,
        "aggregate_total_j": energy,
    }


def cmd_simulate(args) -> bool:
    if args.decode_mode == "mean" and (args.phase == "prefill"
                                       or args.format == "csv"):
        raise ConfigError("--decode-mode mean needs --phase decode and "
                          "--format table or json")
    _, hw, model, req = load_run(args.config, args.override or [])
    spec = SweepSpec((hw.buffers.local,), (hw.frequency,),
                     (hw.ext_bandwidth,), (args.phase,))
    [record] = run_sweep(spec, hw, model, req).records
    if not record.ok:
        raise TilingError(record.error)
    d = _record_dict(record)
    if args.decode_mode == "mean":
        d["decode_mean"] = decode_mean_over_generation(hw, model, req)
    # every format prints numbers of the record: one check serves them all
    text = output_text("print the record", json_text, d)
    print(text if args.format == "json" else
          (_csv_text if args.format == "csv" else _table_text)(d), end="")
    return True
