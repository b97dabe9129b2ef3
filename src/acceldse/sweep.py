"""Cartesian design-space sweep over (local SRAM size, frequency, bandwidth),
and what every command runs: the configured run (`load_run`), the records,
the reported metrics and the output rules.

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
has contour levels.  Every output's numbers must be finite
(`output_text`), and a grid value's label for people reads back as the
value (`label`).  The `report` module builds the report files' texts,
which `emit_reports` writes.
"""

from __future__ import annotations

from collections import namedtuple
from math import isfinite
from pathlib import Path

from .analysis import peak_flops
from .config import (ConfigError, HardwareConfig, SweepSpec, apply_overrides,
                     load_hardware, load_model_spec, load_request,
                     load_sweep_axes, parse_config)
from .energy import EnergyTerms, energy_terms, sram_access_energy
from .memory import PhaseTotals, TilingError, phase_totals
from .workload import (InferenceRequest, ModelSpec, build_decode_trace,
                       build_prefill_trace)


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


def load_run(path: str, overrides: list[str]) -> tuple[
        SweepSpec, HardwareConfig, ModelSpec, InferenceRequest]:
    """(sweep spec, hardware, model, request) of the config file at `path`
    with `overrides` applied, in `run_sweep`'s order; every key is parsed
    once."""
    values = apply_overrides(parse_config(path), overrides)
    spec = load_sweep_axes(values)
    hw = load_hardware(values)
    try:  # the exponent is positive: the largest buffer costs most
        sram_access_energy(hw, max(*hw.buffers, spec.s_values[-1]))
    except OverflowError:
        raise ConfigError("bad value for hw.sram_access_exponent: "
                          f"{hw.sram_access_exponent!r} overflows the SRAM "
                          "per-access energy") from None
    return spec, hw, load_model_spec(values), load_request(values)


def run_sweep(spec: SweepSpec, hw: HardwareConfig, model: ModelSpec,
              req: InferenceRequest) -> SweepResult:
    """Evaluate the full cartesian sweep; never aborts on infeasible cells."""
    return evaluate_sweep(spec, hw, phase_table(spec, hw, model, req))


# --- what every report reads ----------------------------------------------

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


def label(value: float) -> str:
    """`value` as `:g` text if that reads back as `value`, else its repr:
    distinct grid values get distinct labels."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def json_text(value) -> str:
    """`value` as indented, key-sorted JSON, whose numbers must be finite."""
    import json  # here: only the outputs that are JSON need it

    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


def output_text(output: str, build, *args) -> str:
    """`build(*args)`, the whole text of the output that `output` names
    ("print ..." or "write <path>"), or OutputError if it cannot be."""
    try:
        return build(*args)
    except ValueError:  # a non-finite number in the text
        raise OutputError(f"cannot {output}: it holds inf or nan") from None


def emit_reports(texts: dict[Path, str]) -> list[Path]:
    """Write each report text, all built first, to its path, making its
    directory: an output that cannot be built leaves every file unwritten."""
    for directory in {path.parent for path in texts}:
        directory.mkdir(parents=True, exist_ok=True)
    for path, text in texts.items():
        path.write_text(text)
    return list(texts)
