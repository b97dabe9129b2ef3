"""Modeled per-group counts of one workload at its config's design point.

Usage: python perfbench/model_counts.py WORKLOAD

Prints one JSON object with `model.<phase>.<group>.compute_cycles` and
`model.<phase>.<group>.dram_bytes` for phases prefill and decode (at the
config's `model.decode_step`) and the five matmul groups.  These are
simulated statistics, not host time: they use only the public
`build_prefill_trace`, `build_decode_trace`, `plan_tiling`, `traffic` and
`analytic_cycles`, and must repeat exactly between runs.  A change that
moves them has changed the model.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from collections.abc import Mapping

from acceldse.config import (apply_overrides, decode_step, load_hardware,
                             load_model_spec, load_request, parse_config)
from acceldse.dataflow import analytic_cycles
from acceldse.memory import plan_tiling, traffic
from acceldse.workload import build_decode_trace, build_prefill_trace

from workloads import CONFIG, ROOT, WORKLOADS, trace_storage

PHASES = ("prefill", "decode")
GROUPS = ("qkv", "attn_score", "attn_out", "mlp_up", "mlp_down")


def counted_matmuls(trace) -> list[tuple[object, int]]:
    """(matmul, multiplicity) pairs of a trace."""
    storage = trace_storage(trace)
    if isinstance(storage, Mapping):
        return list(storage.items())
    return list(Counter(storage).items())


def group_of(m, model) -> str:
    """Name of the matmul group a GEMM belongs to, from its dimensions."""
    d, ff, hd = model.d_model, model.d_ff, model.head_dim
    matches = [name for name, hit in (
        ("qkv", (m.K, m.N) == (d, 3 * d)),
        ("attn_score", m.K == hd),
        ("attn_out", m.N == hd),
        ("mlp_up", (m.K, m.N) == (d, ff)),
        ("mlp_down", (m.K, m.N) == (ff, d)),
    ) if hit]
    if len(matches) != 1:
        raise ValueError(f"cannot classify matmul {m} into one group: {matches}")
    return matches[0]


def model_counts(workload_name: str) -> dict[str, int]:
    workload = WORKLOADS[workload_name]
    values = apply_overrides(parse_config(ROOT / CONFIG),
                             list(workload.overrides))
    hw = load_hardware(values)
    model = load_model_spec(values)
    req = load_request(values)
    traces = {"prefill": build_prefill_trace(model, req),
              "decode": build_decode_trace(model, req, decode_step(values))}
    b = model.bytes_per_element
    counts = {f"model.{phase}.{group}.{kind}": 0 for phase in PHASES
              for group in GROUPS for kind in ("compute_cycles", "dram_bytes")}
    for phase, trace in traces.items():
        for m, count in counted_matmuls(trace):
            prefix = f"model.{phase}.{group_of(m, model)}"
            plan = plan_tiling(m, hw.buffers.local, b, hw.fabric.array)
            counts[f"{prefix}.compute_cycles"] += (
                analytic_cycles(m, hw.fabric).compute_cycles * count)
            counts[f"{prefix}.dram_bytes"] += (
                traffic(m, plan, b, hw.fabric).dram_bytes * count)
    return counts


if __name__ == "__main__":
    print(json.dumps(model_counts(sys.argv[1]), sort_keys=True))
