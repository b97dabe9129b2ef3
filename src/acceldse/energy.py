"""Parametric SRAM and systolic-array power models.

SRAM leakage is linear in capacity; per-access energy follows a power
law in capacity (longer wordlines and bitlines cost more per access).
Arrays draw dynamic power only while computing (clock-gated when
stalled) and leak all the time; power gating trims a phase-dependent
share of all leakage.
"""

from __future__ import annotations

from collections import namedtuple

from .dataflow import FabricSpec
from .memory import Buffers, PhaseResult
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


class EnergyBreakdown(namedtuple("EnergyBreakdown", (
        "static_j",
        "dynamic_j",
        "total_j",
        "dynamic_power_w",
        "by_component",  # {component: {"static_j": J, "dynamic_j": J}}
))):
    __slots__ = ()


def phase_energy(result: PhaseResult, phase: Phase, sram: SramEnergyModel,
                 arrays: ArrayPower, gating: GatingPolicy, buffers: Buffers,
                 fabric: FabricSpec) -> EnergyBreakdown:
    """Full static/dynamic/total breakdown for one evaluated phase.

    The array term is P_dyn(f, util) * compute_time; written with the
    frequency cancelled (cycles / ref_frequency) so that design points
    with identical cycles get bit-identical energy at every frequency.
    """
    g = gating.saving(phase)
    local_leak = sram.leakage(buffers.local)
    global_leak = sram.leakage(buffers.global_)
    static = result.latency * (local_leak * fabric.cores + global_leak
                               + arrays.leakage_w * fabric.total_arrays) \
        * (1.0 - g)
    tr = result.traffic
    dyn_parts = {
        "local_buffers": (tr.local_reads + tr.local_writes)
        * sram.access_energy(buffers.local),
        "global_buffer": (tr.global_reads + tr.global_writes)
        * sram.access_energy(buffers.global_),
        "arrays": (arrays.dynamic_w_ref * result.utilization
                   * (result.compute_cycles / arrays.ref_frequency)
                   * fabric.total_arrays),
    }
    dynamic = sum(dyn_parts.values())
    if static < 0 or dynamic < 0:
        raise ValueError("energy must be non-negative")
    static_parts = {
        "local_buffers": result.latency * local_leak * fabric.cores * (1.0 - g),
        "global_buffer": result.latency * global_leak * (1.0 - g),
        "arrays": result.latency * arrays.leakage_w * fabric.total_arrays
        * (1.0 - g),
    }
    by_component = {
        name: {"static_j": static_parts[name], "dynamic_j": dyn_parts[name]}
        for name in ("local_buffers", "global_buffer", "arrays")
    }
    return EnergyBreakdown(
        static_j=static,
        dynamic_j=dynamic,
        total_j=static + dynamic,
        dynamic_power_w=dynamic / result.latency,
        by_component=by_component,
    )
