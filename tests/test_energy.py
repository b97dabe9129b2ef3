import random

import pytest
from hypothesis import given, settings, strategies as st

from acceldse.config import (GB, KIB, MIB, ConfigError, load_hardware,
                             load_model_spec, load_request, load_sweep_axes)
from acceldse.dataflow import FabricSpec
from acceldse.energy import by_component, energy_terms, sram_access_energy
from acceldse.memory import Buffers, PhaseTotals, phase_totals
from acceldse.sweep import evaluate_point, evaluate_sweep, phase_table
from acceldse.workload import build_decode_trace, build_prefill_trace

HW = load_hardware({})
MODEL = load_model_spec({})
REQ = load_request({})
FABRIC = HW.fabric
ONE_ARRAY = FabricSpec(cores=1, arrays_per_core=1, array=FABRIC.array)
# one array and a 32 KB local buffer beside the 40 MB global one
ONE_ARRAY_HW = HW._replace(fabric=ONE_ARRAY,
                           buffers=Buffers(32 * KIB, 40 * MIB))
EXT_BW = 2048 * GB


def fake_energy(latency, phase, hw, cycles=1000, util=0.5):
    """The record of a phase of `cycles` at `util` (its MACs over the
    fabric's peak MACs) and no buffer accesses that takes `latency`
    seconds on `hw` at its local buffer size: the time of its on-chip
    bytes on a 1 byte/s link, at a clock fast enough that compute takes
    less."""
    fabric, local = hw.fabric, hw.buffers.local
    totals = PhaseTotals(cycles, round(util * cycles * fabric.macs_per_cycle),
                         0, latency, 0, 0, 0, 0)
    energy = energy_terms(totals, phase, hw, local)
    return evaluate_point(totals, energy, phase,
                          hw._replace(onchip_bandwidth=1.0), local,
                          2 * (cycles + 1) / latency, EXT_BW)


def evaluate(totals, phase, buffers, f):
    """The record of a phase's totals at f and the default bandwidths,
    with the default 40 MB global buffer."""
    return evaluate_point(totals, energy_terms(totals, phase, HW,
                                               buffers.local),
                          phase, HW, buffers.local, f, EXT_BW)


def leakage_w(hw, local) -> float:
    """Leakage power of every buffer and array, before gating, with a
    `local`-byte buffer per core."""
    fabric = hw.fabric
    return (hw.sram_leakage_per_byte * local * fabric.cores
            + hw.sram_leakage_per_byte * hw.buffers.global_
            + hw.array_leakage_w * fabric.total_arrays)


def test_static_energy_hand_cases():
    # 2 mW per buffer and 6 mW for the one array: 10 mW of leakage
    hw = HW._replace(fabric=ONE_ARRAY, buffers=Buffers(1000, 1000),
                     sram_leakage_per_byte=2e-6, array_leakage_w=6e-3,
                     gating_prefill=0.0, gating_decode=0.20)

    def static(latency, phase):
        return fake_energy(latency, phase, hw).static_j

    assert static(1.0, "decode") == pytest.approx(8e-3)
    assert static(1.0, "prefill") == pytest.approx(10e-3, rel=1e-12)
    assert static(2.0, "decode") == 2 * static(1.0, "decode")


def test_leakage_linear_in_capacity():
    def local_leakage(local):
        totals = PhaseTotals(1, 1, 1, 1, 0, 0, 0, 0)
        watts, _, _ = energy_terms(totals, "decode", HW,
                                   local).components["local_buffers"]
        return watts

    assert local_leakage(2 * 64 * KIB) == 2 * local_leakage(64 * KIB)


def test_access_energy_power_law():
    # quadrupling the size with exponent 0.5 doubles the per-access energy
    assert sram_access_energy(HW, 4 * 32 * KIB) == pytest.approx(
        2 * sram_access_energy(HW, 32 * KIB))
    assert sram_access_energy(HW, HW.sram_ref_size) \
        == HW.sram_access_energy_ref


def test_array_part_paper_anchor():
    # 1.25 J per array for 1 s of full-utilization compute at ref frequency
    e = fake_energy(1.0, "decode", ONE_ARRAY_HW,
                    cycles=int(HW.array_ref_frequency), util=1.0)
    assert by_component(e.energy, 1.0)["arrays"]["dynamic_j"] \
        == pytest.approx(1.25)


def test_dynamic_energy_zero_case():
    hw = HW._replace(buffers=Buffers(32 * KIB, 40 * MIB))
    e = fake_energy(1.0, "decode", hw, util=0.0)
    assert e.energy.dynamic_j == 0.0
    assert e.total_j == e.static_j and e.dynamic_power_w == 0.0


def test_total_energy_hand_cases():
    # two seconds of full-utilization compute on one array at its
    # reference clock and no buffer traffic: 2.5 J dynamic, 1.25 W
    e = fake_energy(2.0, "decode", ONE_ARRAY_HW,
                    cycles=2 * int(HW.array_ref_frequency), util=1.0)
    assert e.energy.dynamic_j == 2.5
    assert e.dynamic_power_w == 1.25
    assert e.total_j == e.static_j + 2.5


def test_identities_randomized():
    rng = random.Random(0)
    local = 64 * KIB
    for _ in range(1000):
        latency = rng.uniform(1e-6, 10.0)
        gating = rng.uniform(0.0, 0.99)
        hw = HW._replace(buffers=Buffers(local, 40 * MIB),
                         sram_leakage_per_byte=rng.uniform(1e-9, 1e-5),
                         array_leakage_w=rng.uniform(1e-4, 1.0),
                         gating_prefill=gating, gating_decode=gating)
        e = fake_energy(latency, "prefill", hw,
                        cycles=rng.randrange(1, 10**9),
                        util=rng.uniform(0.0, 1.0))
        leak = leakage_w(hw, local)
        assert e.static_j == pytest.approx(latency * leak * (1 - gating),
                                           rel=1e-12)
        assert e.total_j == pytest.approx(e.static_j + e.energy.dynamic_j,
                                          rel=1e-12)


def test_gating_policy_by_phase():
    totals = PhaseTotals(1, 1, 1, 1, 0, 0, 0, 0)
    assert (HW.gating_prefill, HW.gating_decode) == (0.04, 0.20)
    assert energy_terms(totals, "prefill", HW, 1).ungated == 1.0 - 0.04
    assert energy_terms(totals, "decode", HW, 1).ungated == 1.0 - 0.20
    with pytest.raises(ConfigError, match="bad value for hw.gating_prefill: "
                       r"'1.0' \(need a value in \[0, 1\)\)"):
        load_hardware({"hw.gating_prefill": "1.0"})


def test_cell_energy_composition():
    bufs = Buffers(64 * KIB, 40 * MIB)
    totals = phase_totals(build_decode_trace(MODEL, REQ, 0), FABRIC,
                          bufs.local, 2)
    r = evaluate(totals, "decode", bufs, 800e6)
    assert r.total_j == r.static_j + r.energy.dynamic_j
    assert r.dynamic_power_w == r.energy.dynamic_j / r.latency
    assert set(by_component(r.energy, r.latency)) == {
        "local_buffers", "global_buffer", "arrays"}
    leak = leakage_w(HW, bufs.local)
    assert r.static_j == pytest.approx(r.latency * leak * 0.8, rel=1e-12)


DEFAULT_SPEC = load_sweep_axes({})
DEFAULT_TABLE = phase_table(DEFAULT_SPEC, HW, MODEL, REQ)


@settings(max_examples=40, deadline=None)
@given(leakage=st.floats(1e-9, 1e-5), access=st.floats(1e-15, 1e-11),
       exponent=st.floats(0.1, 1.0))
def test_component_split_sums_to_totals(leakage, access, exponent):
    hw = HW._replace(sram_leakage_per_byte=leakage,
                     sram_access_energy_ref=access,
                     sram_access_exponent=exponent)
    for record in evaluate_sweep(DEFAULT_SPEC, hw, DEFAULT_TABLE).records:
        parts = by_component(record.energy, record.latency).values()
        assert record.energy.dynamic_j == sum(c["dynamic_j"] for c in parts)
        assert record.total_j == record.static_j + record.energy.dynamic_j
        assert sum(c["static_j"] for c in parts) == pytest.approx(
            record.static_j, rel=1e-12)


def test_memory_bound_array_energy_invariant_to_frequency():
    # compute_time ~ 1/f cancels P_dyn ~ f: bit-identical dynamic energy
    bufs = Buffers(64 * KIB, 40 * MIB)
    totals = phase_totals(build_decode_trace(MODEL, REQ, 0), FABRIC,
                          bufs.local, 2)
    energies = set()
    for f in (600e6, 800e6, 1000e6, 1200e6, 1400e6):
        r = evaluate(totals, "decode", bufs, f)
        energies.add((r.static_j, r.energy.dynamic_j))
    assert len(energies) == 1


def test_compute_bound_static_energy_decreases_with_frequency():
    bufs = Buffers(64 * KIB, 40 * MIB)
    totals = phase_totals(build_prefill_trace(MODEL, REQ), FABRIC,
                          bufs.local, 2)
    statics = []
    for f in (200e6, 600e6, 1000e6, 1400e6):
        statics.append(evaluate(totals, "prefill", bufs, f).static_j)
    assert all(b < a for a, b in zip(statics, statics[1:]))
