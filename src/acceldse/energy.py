"""Parametric SRAM and systolic-array power models.

SRAM leakage is linear in capacity; per-access energy follows a power
law in capacity (longer wordlines and bitlines cost more per access).
Arrays draw dynamic power only while computing (clock-gated when
stalled) and leak all the time; power gating trims a phase-dependent
share of all leakage.

`energy_terms` computes, once per (phase, S), the leakage power and each
component's dynamic energy; `phase_energy` scales the leakage by one
cell's latency.  `by_component` splits a printed record's energy.
"""

from __future__ import annotations

from collections import namedtuple

from .dataflow import FabricSpec
from .memory import Buffers, PhaseTerms
from .workload import Phase


class SramEnergyModel(namedtuple("SramEnergyModel", (
        "leakage_per_byte",  # W/byte
        "access_energy_ref",  # J/access at ref_size
        "ref_size",  # bytes
        "access_exponent",
))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self) <= 0:
            raise ValueError("SRAM energy parameters must be positive")
        return self

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

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self) <= 0:
            raise ValueError("array power parameters must be positive")
        return self


class GatingPolicy(namedtuple("GatingPolicy", (
        "prefill_saving", "decode_saving"))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for s in self:
            if not 0 <= s < 1:
                raise ValueError("gating saving must be in [0, 1)")
        return self

    def saving(self, phase: Phase) -> float:
        return self.prefill_saving if phase is Phase.PREFILL else self.decode_saving


class EnergyTerms(namedtuple("EnergyTerms", (
        "leakage",  # {component: (W per instance, instances)}, ungated
        "static_w",  # the leakage of every component, ungated
        "ungated",  # 1 - the phase's gating saving
        "dynamic_parts",  # {component: J}
        "dynamic_j",
))):
    """The frequency- and bandwidth-free energy terms of one phase."""

    __slots__ = ()


class EnergyBreakdown(namedtuple("EnergyBreakdown", (
        "static_j",
        "dynamic_j",
        "total_j",
        "dynamic_power_w",
        "terms",  # the EnergyTerms it was evaluated from
))):
    __slots__ = ()


def energy_terms(terms: PhaseTerms, phase: Phase, sram: SramEnergyModel,
                 arrays: ArrayPower, gating: GatingPolicy, buffers: Buffers,
                 fabric: FabricSpec) -> EnergyTerms:
    """Leakage power and dynamic energy of one phase's terms.

    The array term is P_dyn(f, util) * compute_time; written with the
    frequency cancelled (cycles / ref_frequency) so that design points
    with identical cycles get bit-identical energy at every frequency.
    """
    local_w = sram.leakage(buffers.local)
    global_w = sram.leakage(buffers.global_)
    static_w = (local_w * fabric.cores + global_w
                + arrays.leakage_w * fabric.total_arrays)
    leakage = {  # one global buffer: multiplying by 1 is exact
        "local_buffers": (local_w, fabric.cores),
        "global_buffer": (global_w, 1),
        "arrays": (arrays.leakage_w, fabric.total_arrays),
    }
    tr = terms.traffic
    dynamic_parts = {
        "local_buffers": (tr.local_reads + tr.local_writes)
        * sram.access_energy(buffers.local),
        "global_buffer": (tr.global_reads + tr.global_writes)
        * sram.access_energy(buffers.global_),
        "arrays": (arrays.dynamic_w_ref * terms.utilization
                   * (terms.compute_cycles / arrays.ref_frequency)
                   * fabric.total_arrays),
    }
    dynamic = sum(dynamic_parts.values())
    if dynamic < 0:
        raise ValueError("energy must be non-negative")
    return EnergyTerms(leakage, static_w, 1.0 - gating.saving(phase),
                       dynamic_parts, dynamic)


def phase_energy(terms: EnergyTerms, latency: float) -> EnergyBreakdown:
    """Static, dynamic and total energy of one phase that takes `latency`
    seconds."""
    static = latency * terms.static_w * terms.ungated
    if static < 0:
        raise ValueError("energy must be non-negative")
    return EnergyBreakdown(static, terms.dynamic_j, static + terms.dynamic_j,
                           terms.dynamic_j / latency, terms)


def by_component(energy: EnergyBreakdown,
                 latency: float) -> dict[str, dict[str, float]]:
    """{component: {"static_j": J, "dynamic_j": J}} of a phase's energy
    that took `latency` seconds; the static parts sum to its static_j
    only up to rounding."""
    terms = energy.terms
    return {name: {"static_j": latency * watts * count * terms.ungated,
                   "dynamic_j": terms.dynamic_parts[name]}
            for name, (watts, count) in terms.leakage.items()}
