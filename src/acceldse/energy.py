"""Parametric SRAM and systolic-array power models.

SRAM leakage is linear in capacity; per-access energy follows a power
law in capacity (longer wordlines and bitlines cost more per access).
Arrays draw dynamic power only while computing (clock-gated when
stalled) and leak all the time; power gating trims a phase-dependent
share of all leakage.

`energy_terms` computes, once per (phase, S), the arrays' utilization
and one table of each component's leakage and dynamic energy from the
phase's totals.  A sweep cell scales the leakage by its latency
(`sweep.evaluate_point`), and `by_component` reads the table.
"""

from __future__ import annotations

from collections import namedtuple

from .dataflow import FabricSpec
from .memory import Buffers, PhaseTotals


class SramEnergyModel(namedtuple("SramEnergyModel", (
        "leakage_per_byte",  # W/byte
        "access_energy_ref",  # J/access at ref_size
        "ref_size",  # bytes
        "access_exponent",
))):
    __slots__ = ()

    def leakage(self, size: int) -> float:
        return self.leakage_per_byte * size

    def access_energy(self, size: int) -> float:
        return self.access_energy_ref * (size / self.ref_size) ** self.access_exponent


class ArrayPower(namedtuple("ArrayPower", (
        "leakage_w",  # per array, post-layout
        "dynamic_w_ref",  # per array at ref_frequency, full utilization
        "ref_frequency",
))):
    __slots__ = ()


class GatingPolicy(namedtuple("GatingPolicy", (
        "prefill_saving", "decode_saving"))):
    __slots__ = ()

    def saving(self, phase: str) -> float:
        return self.prefill_saving if phase == "prefill" else self.decode_saving


class EnergyTerms(namedtuple("EnergyTerms", (
        "components",  # {name: (W each, instances, dynamic J)}, ungated
        "static_w",  # the leakage of every component, ungated
        "ungated",  # 1 - the phase's gating saving
        "dynamic_j",
        "utilization",  # the arrays' activity factor: MACs / peak MACs
))):
    """The frequency- and bandwidth-free energy terms of one phase."""

    __slots__ = ()


def energy_terms(totals: PhaseTotals, phase: str, sram: SramEnergyModel,
                 arrays: ArrayPower, gating: GatingPolicy, buffers: Buffers,
                 fabric: FabricSpec) -> EnergyTerms:
    """Leakage power and dynamic energy of one phase's counts.

    Each buffer level's dynamic energy is its reads plus writes times its
    per-access energy.  The array term is P_dyn(f, util) * compute_time,
    written with the frequency cancelled (cycles / ref_frequency) so that
    design points with identical cycles get bit-identical energy at every
    frequency.  Every factor is >= 0 within the config's ranges, and so
    are the sums.
    """
    cycles = totals.compute_cycles
    utilization = totals.macs / (cycles * fabric.macs_per_cycle)
    components = {
        "local_buffers": (sram.leakage(buffers.local), fabric.cores,
                          (totals.local_reads + totals.local_writes)
                          * sram.access_energy(buffers.local)),
        "global_buffer": (sram.leakage(buffers.global_), 1,
                          (totals.global_reads + totals.global_writes)
                          * sram.access_energy(buffers.global_)),
        "arrays": (arrays.leakage_w, fabric.total_arrays,
                   arrays.dynamic_w_ref * utilization
                   * (cycles / arrays.ref_frequency)
                   * fabric.total_arrays),
    }
    # summed from 0, left to right: 0 + x and x * 1 are exact
    static_w = sum(watts * count for watts, count, _ in components.values())
    dynamic = sum(joules for _, _, joules in components.values())
    return EnergyTerms(components, static_w, 1.0 - gating.saving(phase),
                       dynamic, utilization)


def by_component(terms: EnergyTerms,
                 latency: float) -> dict[str, dict[str, float]]:
    """{component: {"static_j": J, "dynamic_j": J}} of a phase's energy
    terms when it takes `latency` seconds; the static parts sum to its
    static energy only up to rounding."""
    return {name: {"static_j": latency * watts * count * terms.ungated,
                   "dynamic_j": joules}
            for name, (watts, count, joules) in terms.components.items()}
