import random

import pytest
from hypothesis import given, settings, strategies as st

from acceldse.config import (GB, KIB, MIB, ConfigError, load_hardware,
                             load_model_spec, load_request, load_sweep_axes)
from acceldse.dataflow import FabricSpec
from acceldse.energy import (ArrayPower, GatingPolicy,
                             SramEnergyModel, by_component, energy_terms)
from acceldse.memory import Buffers, PhaseTotals, phase_totals
from acceldse.sweep import (DesignPoint, SweepSpec, entry_terms,
                            evaluate_point, evaluate_sweep, phase_table)
from acceldse.workload import build_decode_trace, build_prefill_trace

HW = load_hardware({})
MODEL = load_model_spec({})
REQ = load_request({})
SRAM = SramEnergyModel(leakage_per_byte=3e-7, access_energy_ref=2e-13,
                       ref_size=32 * KIB, access_exponent=0.5)
ARRAYS = HW.arrays
GATING = HW.gating
FABRIC = HW.fabric
ONE_ARRAY = FabricSpec(cores=1, arrays_per_core=1, array=FABRIC.array)
EXT_BW = 2048 * GB


def fake_energy(latency, phase, sram, arrays, gating, buffers, fabric,
                cycles=1000, util=0.5):
    """The record of a phase of `cycles` at `util` (its MACs over the
    fabric's peak MACs) and no buffer accesses that takes `latency`
    seconds: the time of its on-chip bytes on a 1 byte/s link, at a clock
    fast enough that compute takes less."""
    totals = PhaseTotals(cycles, round(util * cycles * fabric.macs_per_cycle),
                         0, latency, 0, 0, 0, 0)
    energy = energy_terms(totals, phase, sram, arrays, gating, buffers,
                          fabric)
    point = DesignPoint(buffers.local, 2 * (cycles + 1) / latency, EXT_BW)
    return evaluate_point((totals, energy), phase,
                          HW._replace(fabric=fabric, onchip_bandwidth=1.0),
                          point)


def evaluate(totals, phase, buffers, f):
    """The record of a phase's totals at f and the default bandwidths,
    with the default 40 MB global buffer."""
    hw = HW._replace(sram=SRAM)
    return evaluate_point(entry_terms(totals, phase, hw, buffers.local),
                          phase, hw, DesignPoint(buffers.local, f, EXT_BW))


def leakage_w(sram, arrays, buffers, fabric) -> float:
    """Leakage power of every buffer and array, before gating."""
    return (sram.leakage(buffers.local) * fabric.cores
            + sram.leakage(buffers.global_)
            + arrays.leakage_w * fabric.total_arrays)


def test_static_energy_hand_cases():
    # 2 mW per buffer and 6 mW for the one array: 10 mW of leakage
    sram = SramEnergyModel(2e-6, 2e-13, 32 * KIB, 0.5)
    arrays = ArrayPower(6e-3, 1.25, 1e9)
    bufs = Buffers(1000, 1000)

    def static(latency, phase):
        return fake_energy(latency, phase, sram, arrays,
                           GatingPolicy(0.0, 0.20), bufs, ONE_ARRAY).static_j

    assert static(1.0, "decode") == pytest.approx(8e-3)
    assert static(1.0, "prefill") == pytest.approx(10e-3, rel=1e-12)
    assert static(2.0, "decode") == 2 * static(1.0, "decode")


def test_leakage_linear_in_capacity():
    assert SRAM.leakage(2 * 64 * KIB) == 2 * SRAM.leakage(64 * KIB)


def test_access_energy_power_law():
    # quadrupling the size with exponent 0.5 doubles the per-access energy
    assert SRAM.access_energy(4 * 32 * KIB) == pytest.approx(
        2 * SRAM.access_energy(32 * KIB))
    assert SRAM.access_energy(SRAM.ref_size) == SRAM.access_energy_ref


def test_array_part_paper_anchor():
    # 1.25 J per array for 1 s of full-utilization compute at ref frequency
    e = fake_energy(1.0, "decode", SRAM, ARRAYS, GATING,
                    Buffers(32 * KIB, 40 * MIB), ONE_ARRAY,
                    cycles=int(ARRAYS.ref_frequency), util=1.0)
    assert by_component(e.energy, 1.0)["arrays"]["dynamic_j"] \
        == pytest.approx(1.25)


def test_dynamic_energy_zero_case():
    bufs = Buffers(32 * KIB, 40 * MIB)
    e = fake_energy(1.0, "decode", SRAM, ARRAYS, GATING, bufs,
                    FABRIC, util=0.0)
    assert e.energy.dynamic_j == 0.0
    assert e.total_j == e.static_j and e.dynamic_power_w == 0.0


def test_total_energy_hand_cases():
    # two seconds of full-utilization compute on one array at its
    # reference clock and no buffer traffic: 2.5 J dynamic, 1.25 W
    e = fake_energy(2.0, "decode", SRAM, ARRAYS, GATING,
                    Buffers(32 * KIB, 40 * MIB), ONE_ARRAY,
                    cycles=2 * int(ARRAYS.ref_frequency), util=1.0)
    assert e.energy.dynamic_j == 2.5
    assert e.dynamic_power_w == 1.25
    assert e.total_j == e.static_j + 2.5


def test_identities_randomized():
    rng = random.Random(0)
    bufs = Buffers(64 * KIB, 40 * MIB)
    for _ in range(1000):
        latency = rng.uniform(1e-6, 10.0)
        gating = rng.uniform(0.0, 0.99)
        sram = SramEnergyModel(rng.uniform(1e-9, 1e-5), 2e-13, 32 * KIB, 0.5)
        arrays = ArrayPower(rng.uniform(1e-4, 1.0), 1.25, 1e9)
        e = fake_energy(latency, "prefill", sram, arrays,
                        GatingPolicy(gating, gating), bufs, FABRIC,
                        cycles=rng.randrange(1, 10**9),
                        util=rng.uniform(0.0, 1.0))
        leak = leakage_w(sram, arrays, bufs, FABRIC)
        assert e.static_j == pytest.approx(latency * leak * (1 - gating),
                                           rel=1e-12)
        assert e.total_j == pytest.approx(e.static_j + e.energy.dynamic_j,
                                          rel=1e-12)


def test_gating_policy_by_phase():
    assert GATING.saving("prefill") == 0.04
    assert GATING.saving("decode") == 0.20
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
    leak = leakage_w(SRAM, ARRAYS, bufs, FABRIC)
    assert r.static_j == pytest.approx(r.latency * leak * 0.8, rel=1e-12)


DEFAULT_SPEC = SweepSpec(*map(tuple, load_sweep_axes({})))
DEFAULT_TABLE = phase_table(DEFAULT_SPEC, HW, MODEL, REQ)


@settings(max_examples=40, deadline=None)
@given(leakage=st.floats(1e-9, 1e-5), access=st.floats(1e-15, 1e-11),
       exponent=st.floats(0.1, 1.0))
def test_component_split_sums_to_totals(leakage, access, exponent):
    hw = HW._replace(sram=SramEnergyModel(leakage, access, 32 * KIB,
                                          exponent))
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
