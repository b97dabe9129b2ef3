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
), defaults=(0.5,))):
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
), defaults=(9.31e-3, 1.25, 1.0e9))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self) <= 0:
            raise ValueError("array power parameters must be positive")
        return self


class GatingPolicy(namedtuple("GatingPolicy", (
        "prefill_saving", "decode_saving"), defaults=(0.04, 0.20))):
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


def static_energy(result: PhaseResult, leakage_sum: float,
                  gating: float) -> float:
    """Leakage integrated over execution time, less the gated share."""
    return result.latency * leakage_sum * (1.0 - gating)


def leakage_sum(sram: SramEnergyModel, arrays: ArrayPower,
                buffers: Buffers, fabric: FabricSpec) -> float:
    return (sram.leakage(buffers.local) * fabric.cores
            + sram.leakage(buffers.global_)
            + arrays.leakage_w * fabric.total_arrays)


def dynamic_components(result: PhaseResult, sram: SramEnergyModel,
                       arrays: ArrayPower, buffers: Buffers,
                       fabric: FabricSpec) -> dict[str, float]:
    """SRAM access energy plus array switching energy, per component.

    The array term is P_dyn(f, util) * compute_time; written with the
    frequency cancelled (cycles / ref_frequency) so that design points
    with identical cycles get bit-identical energy at every frequency.
    """
    tr = result.traffic
    local = (tr.local_reads + tr.local_writes) \
        * sram.access_energy(buffers.local)
    global_ = (tr.global_reads + tr.global_writes) \
        * sram.access_energy(buffers.global_)
    array = (arrays.dynamic_w_ref * result.utilization
             * (result.compute_cycles / arrays.ref_frequency)
             * fabric.total_arrays)
    return {"local_buffers": local, "global_buffer": global_, "arrays": array}


def total_energy(static_j: float, dynamic_j: float,
                 latency: float) -> tuple[float, float]:
    """Returns (total_j, dynamic_power_w)."""
    if static_j < 0 or dynamic_j < 0:
        raise ValueError("energy must be non-negative")
    return static_j + dynamic_j, dynamic_j / latency


def phase_energy(result: PhaseResult, phase: Phase, sram: SramEnergyModel,
                 arrays: ArrayPower, gating: GatingPolicy, buffers: Buffers,
                 fabric: FabricSpec) -> EnergyBreakdown:
    """Full static/dynamic/total breakdown for one evaluated phase."""
    g = gating.saving(phase)
    static = static_energy(result, leakage_sum(sram, arrays, buffers, fabric), g)
    dyn_parts = dynamic_components(result, sram, arrays, buffers, fabric)
    dynamic = sum(dyn_parts.values())
    total, dyn_power = total_energy(static, dynamic, result.latency)

    static_parts = {
        "local_buffers": result.latency * sram.leakage(buffers.local)
        * fabric.cores * (1.0 - g),
        "global_buffer": result.latency * sram.leakage(buffers.global_)
        * (1.0 - g),
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
        total_j=total,
        dynamic_power_w=dyn_power,
        by_component=by_component,
    )
