import random

import pytest

from acceldse.dataflow import FabricSpec
from acceldse.energy import (ArrayPower, GatingPolicy, SramEnergyModel,
                             dynamic_components, leakage_sum, phase_energy,
                             static_energy, total_energy)
from acceldse.memory import (GB, KIB, MIB, Buffers, PhaseResult,
                             TrafficReport, phase_result, phase_totals)
from acceldse.workload import (InferenceRequest, ModelSpec, Phase,
                               build_decode_trace, build_prefill_trace)

SRAM = SramEnergyModel(leakage_per_byte=3e-7, access_energy_ref=2e-13,
                       ref_size=32 * KIB)
ARRAYS = ArrayPower()
GATING = GatingPolicy()
FABRIC = FabricSpec()
EXT_BW, ONCHIP_BW = 2048 * GB, 16384 * GB


def fake_result(latency=1.0, cycles=1000, util=0.5,
                traffic=TrafficReport()) -> PhaseResult:
    return PhaseResult(compute_cycles=cycles, compute_time=latency,
                       memory_time=latency / 2, latency=latency,
                       total_cycles=float(cycles), compute_fraction=1.0,
                       traffic=traffic, utilization=util, flops=0)


def test_static_energy_hand_cases():
    r = fake_result(latency=1.0)
    assert static_energy(r, 10e-3, 0.20) == pytest.approx(8e-3)
    assert static_energy(r, 10e-3, 0.0) == 1.0 * 10e-3
    assert static_energy(fake_result(latency=2.0), 10e-3, 0.20) == \
        2 * static_energy(fake_result(latency=1.0), 10e-3, 0.20)


def test_leakage_linear_in_capacity():
    assert SRAM.leakage(2 * 64 * KIB) == 2 * SRAM.leakage(64 * KIB)


def test_access_energy_power_law():
    # quadrupling the size with exponent 0.5 doubles the per-access energy
    assert SRAM.access_energy(4 * 32 * KIB) == pytest.approx(
        2 * SRAM.access_energy(32 * KIB))
    assert SRAM.access_energy(SRAM.ref_size) == SRAM.access_energy_ref


def test_array_part_paper_anchor():
    # 1.25 J per array for 1 s of full-utilization compute at ref frequency
    arrays = ArrayPower()
    fabric = FabricSpec(cores=1, arrays_per_core=1)
    r = fake_result(latency=1.0, cycles=int(arrays.ref_frequency), util=1.0)
    parts = dynamic_components(r, SRAM, arrays,
                               Buffers(32 * KIB, 40 * MIB),
                               fabric)
    assert parts["arrays"] == pytest.approx(1.25)


def test_dynamic_energy_zero_case():
    r = fake_result(cycles=0, util=0.0)
    bufs = Buffers(32 * KIB, 40 * MIB)
    e = phase_energy(r, Phase.DECODE_STEP, SRAM, ARRAYS, GATING, bufs, FABRIC)
    assert e.dynamic_j == 0.0


def test_total_energy_hand_cases():
    assert total_energy(2.0, 3.0, 1.0) == (5.0, 3.0)
    assert total_energy(4.0, 0.0, 2.0) == (4.0, 0.0)
    total, power = total_energy(0.0, 3.0, 2.0)
    assert power == 1.5
    with pytest.raises(ValueError):
        total_energy(-1.0, 0.0, 1.0)


def test_identities_randomized():
    rng = random.Random(0)
    for _ in range(1000):
        latency = rng.uniform(1e-6, 10.0)
        leak = rng.uniform(1e-6, 100.0)
        gating = rng.uniform(0.0, 0.99)
        r = fake_result(latency=latency)
        s = static_energy(r, leak, gating)
        assert s == pytest.approx(latency * leak * (1 - gating), rel=1e-12)
        d = rng.uniform(0.0, 50.0)
        total, _ = total_energy(s, d, latency)
        assert total == pytest.approx(s + d, rel=1e-12)


def test_gating_policy_by_phase():
    assert GATING.saving(Phase.PREFILL) == 0.04
    assert GATING.saving(Phase.DECODE_STEP) == 0.20
    with pytest.raises(ValueError):
        GatingPolicy(prefill_saving=1.0)


def test_phase_energy_composition():
    model = ModelSpec()
    req = InferenceRequest()
    bufs = Buffers(64 * KIB, 40 * MIB)
    totals = phase_totals(build_decode_trace(model, req, 0), FABRIC,
                          bufs.local, 2)
    r = phase_result(totals, FABRIC, 800e6, EXT_BW, ONCHIP_BW)
    e = phase_energy(r, Phase.DECODE_STEP, SRAM, ARRAYS, GATING, bufs, FABRIC)
    assert e.total_j == e.static_j + e.dynamic_j
    assert e.dynamic_power_w == e.dynamic_j / r.latency
    assert set(e.by_component) == {"local_buffers", "global_buffer", "arrays"}
    leak = leakage_sum(SRAM, ARRAYS, bufs, FABRIC)
    assert e.static_j == pytest.approx(r.latency * leak * 0.8, rel=1e-12)


def test_memory_bound_array_energy_invariant_to_frequency():
    # compute_time ~ 1/f cancels P_dyn ~ f: bit-identical dynamic energy
    model = ModelSpec()
    req = InferenceRequest()
    bufs = Buffers(64 * KIB, 40 * MIB)
    totals = phase_totals(build_decode_trace(model, req, 0), FABRIC,
                          bufs.local, 2)
    energies = set()
    for f in (600e6, 800e6, 1000e6, 1200e6, 1400e6):
        r = phase_result(totals, FABRIC, f, EXT_BW, ONCHIP_BW)
        e = phase_energy(r, Phase.DECODE_STEP, SRAM, ARRAYS, GATING, bufs,
                         FABRIC)
        energies.add((e.static_j, e.dynamic_j))
    assert len(energies) == 1


def test_compute_bound_static_energy_decreases_with_frequency():
    model = ModelSpec()
    req = InferenceRequest()
    bufs = Buffers(64 * KIB, 40 * MIB)
    totals = phase_totals(build_prefill_trace(model, req), FABRIC,
                          bufs.local, 2)
    statics = []
    for f in (200e6, 600e6, 1000e6, 1400e6):
        r = phase_result(totals, FABRIC, f, EXT_BW, ONCHIP_BW)
        e = phase_energy(r, Phase.PREFILL, SRAM, ARRAYS, GATING, bufs, FABRIC)
        statics.append(e.static_j)
    assert all(b < a for a, b in zip(statics, statics[1:]))
