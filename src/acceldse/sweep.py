"""Cartesian design-space sweep over (local SRAM size, frequency, bandwidth).

Cycles and traffic depend only on the phase and the local buffer size S,
so the sweep tiles each (phase, S) once into a table of totals, or of
the reason no tile set fits, which every cell of that entry records as
its error (`phase_table`).  An evaluation of the table gives each
entry's error to its cells, or computes the energy terms of its totals,
which f and BW never touch (`energy.energy_terms`), and then each (f,
BW) cell from both in closed form (`evaluate_point`) as one flat
`SweepRecord`: the cell's (phase, S, f, BW), then the few fields every
reported quantity is read from (`evaluate_sweep`).
The clock and the bandwidths enter only there, in the compute time and
in the memory time: the slower of the external and on-chip links.
Evaluation is serial and pure, so results are bit-identical for
identical inputs.  The records of one (phase, BW) are its S x f grid
(`SweepResult.select`).  A metric's argmin cell is read from its finite
values, and is None where there are none; only a block with an argmin
has contour levels.  Reports are per-metric grid CSVs, a roofline CSV,
and a JSON summary with argmin cells, contour levels and
bound-transition frequencies; every output's numbers must be finite
(`output_text`), and a grid value's label for people reads back as the
value (`label`).
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import isfinite
from pathlib import Path

from .analysis import peak_flops
from .config import GB, MHZ, HardwareConfig, SweepSpec
from .energy import EnergyTerms, energy_terms
from .memory import (PhaseTotals, TilingError, matmul_totals, phase_totals,
                     sum_totals)
from .workload import (InferenceRequest, ModelSpec, attention_matmuls,
                       build_decode_trace, build_prefill_trace,
                       weight_matmuls)

SCHEMA_VERSION = 1
DECODE_CONVENTION = "per_output_token_at_fixed_step"


class SweepRecord(namedtuple("SweepRecord", (
        "phase",
        "s",  # local buffer bytes
        "f",  # Hz
        "bw",  # external bytes/s
        "totals",  # the (phase, S) entry's PhaseTotals; None on error
        "energy",  # the entry's EnergyTerms; None on error
        # what f and BW set; None on error
        "compute_time",
        "memory_time",
        "latency",
        "static_j",
        "peak",  # flops/s at f
        "error",  # why the cell could not be evaluated, else None
), defaults=(None,) * 8)):
    """One sweep cell: its coordinates (phase, S, f, BW), then what they
    give.  Every other quantity is read from these fields."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def total_cycles(self) -> float:
        # grows with f when memory-bound
        return self.latency * self.f

    @property
    def compute_fraction(self) -> float:
        return self.compute_time / self.latency

    @property
    def memory_bound(self) -> bool:
        return self.memory_time > self.compute_time

    @property
    def total_j(self) -> float:
        return self.static_j + self.energy.dynamic_j

    @property
    def dynamic_power_w(self) -> float:
        return self.energy.dynamic_j / self.latency

    @property
    def edp(self) -> float:
        return self.total_j * self.latency

    @property
    def flops(self) -> int:
        return 2 * self.totals.macs  # one multiply, one add

    @property
    def oi(self) -> float:
        """Flops per external-memory byte."""
        return self.flops / self.totals.dram_bytes

    @property
    def attainable(self) -> float:
        """Flops/s under the roofline min(peak, bw * oi)."""
        return min(self.peak, self.bw * self.oi)

    @property
    def achieved(self) -> float:
        # capped: it and `attainable` round in different orders
        return min(self.flops / self.latency, self.attainable)

    @property
    def ridge_side(self) -> str:
        """The roofline side: "memory" below the ridge point peak / bw,
        else "compute"."""
        return "memory" if self.oi < self.peak / self.bw else "compute"


class SweepResult(namedtuple("SweepResult", (
        "spec", "records"))):  # records in (phase, bw, s, f) order
    __slots__ = ()

    @property
    def complete(self) -> bool:
        return all(r.ok for r in self.records)

    def select(self, phase: str, bw: float) -> tuple[SweepRecord, ...]:
        """The S x f grid of one (phase, BW): S-major, f ascending."""
        spec = self.spec
        size = len(spec.s_values) * len(spec.f_values)
        start = size * (spec.phases.index(phase) * len(spec.bw_values)
                        + spec.bw_values.index(bw))
        return self.records[start:start + size]


def decode_mean_over_generation(hw: HardwareConfig, model: ModelSpec,
                                req: InferenceRequest) -> dict[str, float]:
    """Per-token decode metrics averaged over the gen_tokens (>= 1) steps,
    at `hw`'s own point: S = `hw.buffers.local`, f = `hw.frequency` and
    BW = `hw.ext_bandwidth`, the cell `simulate` prints.

    The default reporting convention is a single fixed step; this is the
    alternative convention for workloads where KV growth over the whole
    generation matters.  The weight GEMMs are the same at every step, so
    their totals are tiled and summed once; each step tiles only the two
    attention GEMMs of its kv_len and adds their totals to that sum.
    Step 0 is tiled in trace order, so an S too small for one of its GEMMs
    raises the TilingError a sweep of that step raises.
    """
    s, b = hw.buffers.local, model.bytes_per_element
    tiled = {m: matmul_totals(m, hw.fabric, s, b)
             for m in build_decode_trace(model, req, 0).matmuls}
    weights = sum_totals([(tiled[m], count) for m, count
                          in weight_matmuls(model, rows=req.batch)])
    latency = energy = edp_sum = 0.0
    for step in range(req.gen_tokens):
        attention = attention_matmuls(model, req.batch, q_len=1,
                                      kv_len=req.prompt_len + step)
        if step:  # step 0's attention GEMMs were tiled with its trace
            tiled = {m: matmul_totals(m, hw.fabric, s, b)
                     for m, _ in attention}
        totals = sum_totals([(weights, 1),
                             *((tiled[m], count) for m, count in attention)])
        record = evaluate_point(totals, energy_terms(totals, "decode", hw, s),
                                "decode", hw, s, hw.frequency,
                                hw.ext_bandwidth)
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


def evaluate_point(totals: PhaseTotals, energy: EnergyTerms, phase: str,
                   hw: HardwareConfig, s: int, f: float,
                   bw: float) -> SweepRecord:
    """The record of the cell (phase, S, f, BW) of a feasible (phase, S)
    entry: its totals, whose dram_bytes > 0 as `memory.traffic` counts
    every GEMM's weights, and their energy terms, at f and BW.

    compute_time covers the arrays; memory_time covers external and
    on-chip transfers.  The global buffer decouples compute from memory
    by double buffering, so whichever side is slower hides the other:
    latency is the max of the two.  Static energy is latency times the
    gated leakage, >= 0 as every factor is within the config's ranges.
    """
    compute_time = totals.compute_cycles / f
    memory_time = max(totals.dram_bytes / bw,
                      totals.onchip_bytes / hw.onchip_bandwidth)
    latency = max(compute_time, memory_time)
    return SweepRecord(phase, s, f, bw, totals, energy, compute_time,
                       memory_time, latency,
                       latency * energy.static_w * energy.ungated,
                       peak_flops(hw.fabric, f))


def phase_table(spec: SweepSpec, hw: HardwareConfig, model: ModelSpec,
                req: InferenceRequest
                ) -> dict[tuple[str, int], PhaseTotals | str]:
    """Every (phase, S) entry, decode at `req.decode_step`: the phase's
    totals with an S-byte local buffer, or why no tile set fits in it (the
    one place a TilingError becomes a cell's error); f and BW never enter."""
    table: dict[tuple[str, int], PhaseTotals | str] = {}
    for phase in spec.phases:
        trace = (build_prefill_trace(model, req) if phase == "prefill"
                 else build_decode_trace(model, req, req.decode_step))
        for s in spec.s_values:
            try:
                table[phase, s] = phase_totals(trace, hw.fabric, s,
                                               model.bytes_per_element)
            except TilingError as exc:
                table[phase, s] = str(exc)
    return table


def evaluate_sweep(spec: SweepSpec, hw: HardwareConfig,
                   table: dict[tuple[str, int], PhaseTotals | str]
                   ) -> SweepResult:
    """Every cell of the sweep from its (phase, S) table entry: a feasible
    entry's energy terms are computed once for all of its cells, and an
    entry's error text is the error of every one of its cells."""
    records: list[SweepRecord] = []
    for phase in spec.phases:
        row = [(s, table[phase, s]) for s in spec.s_values]
        terms = {s: energy_terms(totals, phase, hw, s) for s, totals in row
                 if not isinstance(totals, str)}
        for bw in spec.bw_values:
            for s, totals in row:
                energy = terms.get(s)
                if energy is None:
                    records += (SweepRecord(phase, s, f, bw, error=totals)
                                for f in spec.f_values)
                else:
                    records += (evaluate_point(totals, energy, phase, hw, s,
                                               f, bw) for f in spec.f_values)
    return SweepResult(spec=spec, records=tuple(records))


def run_sweep(spec: SweepSpec, hw: HardwareConfig, model: ModelSpec,
              req: InferenceRequest) -> SweepResult:
    """Evaluate the full cartesian sweep; never aborts on infeasible cells."""
    return evaluate_sweep(spec, hw, phase_table(spec, hw, model, req))


# --- report emission ------------------------------------------------------

# Every reported metric: its name, as grid files and summary keys carry
# it, and its value in one evaluated record, in grid-file order.
METRICS = {
    "latency": lambda r: r.latency,
    "total_energy": lambda r: r.total_j,
    "edp": lambda r: r.edp,
    "cycles": lambda r: r.total_cycles,
    "compute_fraction": lambda r: r.compute_fraction,
    "dynamic_power": lambda r: r.dynamic_power_w,
    "dynamic_energy": lambda r: r.energy.dynamic_j,
    "static_energy": lambda r: r.static_j,
}

# The metrics whose argmin cell the summary gives, with `report`'s label.
ARGMIN_METRICS = {"latency": "latency", "total_energy": "total energy",
                  "edp": "EDP"}


def argmin(block: tuple[SweepRecord, ...],
           metric: str) -> tuple[int, float] | None:
    """The (S, f) of the block's smallest `metric` over its evaluated cells
    whose `metric` is finite, or None if there is no such cell; a tie goes
    to the first in block order, the smallest S then f."""
    value = METRICS[metric]
    best = min((r for r in block if r.ok and isfinite(value(r))), key=value,
               default=None)
    return None if best is None else (best.s, best.f)


def contour_levels(block: tuple[SweepRecord, ...], metric: str) -> list[float]:
    """Ten evenly spaced levels from the block's min to max of `metric`
    over its evaluated cells (for isoplots), read only for a block that
    has an `argmin`, so that at least one cell is evaluated."""
    values = [METRICS[metric](r) for r in block if r.ok]
    lo, hi = min(values), max(values)
    step = (hi - lo) / 9
    return [lo + i * step for i in range(10)]


class OutputError(ValueError):
    """An output that holds, or is read off, inf or nan: it is not written."""


def _fmt(value: float) -> str:
    """The text of every grid and roofline float, which must be finite."""
    if not isfinite(value):
        raise ValueError(value)
    return repr(float(value))


def label(value: float) -> str:
    """`value` as `:g` text if that reads back as `value`, else its repr:
    distinct grid values get distinct labels."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def json_text(value) -> str:
    """`value` as indented, key-sorted JSON, whose numbers must be finite."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


def output_text(output: str, build, *args) -> str:
    """`build(*args)`, the whole text of the output that `output` names
    ("print ..." or "write <path>"), or OutputError if it cannot be."""
    try:
        return build(*args)
    except ValueError:  # from `_fmt` or `json_text`
        raise OutputError(f"cannot {output}: it holds inf or nan") from None


def _grid_csv(block: tuple[SweepRecord, ...], metric: str, phase: str,
              bw: float) -> str:
    value = METRICS[metric]
    lines = ["metric,phase,bandwidth",
             f"{metric},{phase},{_fmt(bw)}",
             "S_bytes,f_hz,value"]
    lines += [f"{r.s},{_fmt(r.f)},"
              f"{_fmt(value(r)) if r.ok else 'nan'}" for r in block]
    return "\n".join(lines) + "\n"


ROOFLINE_HEADER = "bandwidth,S_bytes,f_hz,oi,attainable,achieved,bound"


def roofline_row(r: SweepRecord) -> str:
    """One evaluated record's roofline point, in ROOFLINE_HEADER order."""
    return (f"{_fmt(r.bw)},{r.s},{_fmt(r.f)},"
            f"{_fmt(r.oi)},{_fmt(r.attainable)},{_fmt(r.achieved)},"
            f"{r.ridge_side}")


def _roofline_csv(result: SweepResult) -> str:
    lines = ["phase," + ROOFLINE_HEADER]
    lines += [f"{r.phase},{roofline_row(r)}"
              for r in result.records if r.ok]
    return "\n".join(lines) + "\n"


def summary_dict(result: SweepResult, decode_step: int) -> dict:
    summary: dict = {
        "schema_version": SCHEMA_VERSION,
        "decode_convention": DECODE_CONVENTION,
        "decode_step": decode_step,
        "complete": result.complete,
        "record_count": len(result.records),
        "grids": {},
    }
    for phase in result.spec.phases:
        for bw in result.spec.bw_values:
            key = f"{phase}@{round(bw / GB)}GBps"
            # the lowest frequency at which each S is memory-bound, if any
            lowest: dict[int, float] = {}
            block = result.select(phase, bw)
            for r in block:  # f ascends within each S
                if r.ok and r.memory_bound:
                    lowest.setdefault(r.s, r.f / MHZ)
            entry: dict = {"bound_transition_mhz": {
                str(s): lowest.get(s) for s in result.spec.s_values}}
            for metric in ARGMIN_METRICS:
                cell = argmin(block, metric)  # None: no finite cell
                entry[f"{metric}_argmin"] = None if cell is None else {
                    "S_bytes": cell[0], "f_hz": cell[1]}
                entry[f"{metric}_contour_levels"] = (
                    [] if cell is None else contour_levels(block, metric))
            summary["grids"][key] = entry
    return summary


def emit_reports(result: SweepResult, out_dir: str | Path,
                 summary: dict) -> list[Path]:
    """Write grid CSVs, the roofline CSV and `summary`, every text built
    first: an OutputError leaves the directory and every file unwritten."""
    out = Path(out_dir)
    builds = {out / f"{metric}_{phase}_bw{round(bw / GB)}.csv":
              (_grid_csv, result.select(phase, bw), metric, phase, bw)
              for metric in METRICS for phase in result.spec.phases
              for bw in result.spec.bw_values}
    builds[out / "roofline.csv"] = (_roofline_csv, result)
    builds[out / "summary.json"] = (json_text, summary)
    texts = {path: output_text(f"write {path}", *build)
             for path, build in builds.items()}
    out.mkdir(parents=True, exist_ok=True)
    for path, text in texts.items():
        path.write_text(text)
    return list(texts)
