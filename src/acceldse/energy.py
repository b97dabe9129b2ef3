"""SRAM and systolic-array energy of one phase's counts.

SRAM leakage is linear in capacity; per-access energy follows a power
law in capacity (longer wordlines and bitlines cost more per access).
Arrays draw dynamic power only while computing (clock-gated when
stalled) and leak all the time; power gating trims a phase-dependent
share of all leakage.  Every constant is a field of
`config.HardwareConfig`.

`energy_terms` computes, once per (phase, S), the arrays' utilization
and one table of each component's leakage and dynamic energy from the
phase's totals.  A sweep cell scales the leakage by its latency
(`sweep.evaluate_point`), and `by_component` reads the table.
"""

from __future__ import annotations

from collections import namedtuple

from .config import HardwareConfig
from .memory import PhaseTotals


class EnergyTerms(namedtuple("EnergyTerms", (
        "components",  # {name: (W each, instances, dynamic J)}, ungated
        "static_w",  # the leakage of every component, ungated
        "ungated",  # 1 - the phase's gating saving
        "dynamic_j",
        "utilization",  # the arrays' activity factor: MACs / peak MACs
))):
    """The frequency- and bandwidth-free energy terms of one phase."""

    __slots__ = ()


def sram_access_energy(hw: HardwareConfig, size: int) -> float:
    """J per access of a `size`-byte SRAM: `hw`'s reference access
    energy times (size / reference size) ** exponent."""
    return hw.sram_access_energy_ref * (
        size / hw.sram_ref_size) ** hw.sram_access_exponent


def energy_terms(totals: PhaseTotals, phase: str, hw: HardwareConfig,
                 local: int) -> EnergyTerms:
    """Leakage power and dynamic energy of one phase's counts on `hw`
    with a `local`-byte buffer per core.

    Each buffer level's dynamic energy is its reads plus writes times its
    per-access energy.  The array term is P_dyn(f, util) * compute_time,
    written with the frequency cancelled (cycles / ref_frequency) so that
    design points with identical cycles get bit-identical energy at every
    frequency.  Every factor is >= 0 within the config's ranges, and so
    are the sums.
    """
    fabric, global_ = hw.fabric, hw.buffers.global_
    cycles = totals.compute_cycles
    utilization = totals.macs / (cycles * fabric.macs_per_cycle)
    components = {
        "local_buffers": (hw.sram_leakage_per_byte * local, fabric.cores,
                          (totals.local_reads + totals.local_writes)
                          * sram_access_energy(hw, local)),
        "global_buffer": (hw.sram_leakage_per_byte * global_, 1,
                          (totals.global_reads + totals.global_writes)
                          * sram_access_energy(hw, global_)),
        "arrays": (hw.array_leakage_w, fabric.total_arrays,
                   hw.array_dynamic_w_ref * utilization
                   * (cycles / hw.array_ref_frequency)
                   * fabric.total_arrays),
    }
    # summed left to right from 0.0 on every Python (`sum` compensates
    # floats from 3.12 on): 0.0 + x and x * 1 are exact
    static_w = dynamic = 0.0
    for watts, count, joules in components.values():
        static_w += watts * count
        dynamic += joules
    saving = hw.gating_prefill if phase == "prefill" else hw.gating_decode
    return EnergyTerms(components, static_w, 1.0 - saving, dynamic,
                       utilization)


def by_component(terms: EnergyTerms,
                 latency: float) -> dict[str, dict[str, float]]:
    """{component: {"static_j": J, "dynamic_j": J}} of a phase's energy
    terms when it takes `latency` seconds; the static parts sum to its
    static energy only up to rounding."""
    return {name: {"static_j": latency * watts * count * terms.ungated,
                   "dynamic_j": joules}
            for name, (watts, count, joules) in terms.components.items()}
