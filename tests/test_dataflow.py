import random

import pytest

from acceldse.dataflow import (ArraySpec, FabricSpec, analytic_cycles,
                               fold_count, matmul_local_accesses)
from acceldse.config import MIB, load_hardware
from acceldse.energy import energy_terms
from acceldse.memory import phase_totals, plan_tiling, traffic
from acceldse.workload import InferenceRequest, MatmulDims, ModelSpec, \
    build_prefill_trace
from oracle import SimulationGuardError, simulate_cycles

HW = load_hardware({})


def single(rows, cols=None):
    return FabricSpec(cores=1, arrays_per_core=1,
                      array=ArraySpec(rows, cols if cols is not None else rows))


def test_analytic_hand_cases():
    # one full fold: preload + stream + drain
    assert analytic_cycles(MatmulDims(4, 4, 4), single(4)).compute_cycles == 14
    assert analytic_cycles(MatmulDims(16, 16, 16), single(16)).compute_cycles == 62
    assert fold_count(MatmulDims(4, 32, 32), ArraySpec(16, 16)) == 4


def test_simulate_hand_cases():
    s = simulate_cycles(MatmulDims(1, 1, 1), ArraySpec(1, 1))
    assert s.estimate.compute_cycles == 2  # preload 1 + stream 1 + drain 0
    assert simulate_cycles(MatmulDims(4, 4, 4), ArraySpec(4, 4)).estimate.compute_cycles == 14


def test_single_fold_when_dims_fit():
    assert simulate_cycles(MatmulDims(7, 13, 11), ArraySpec(16, 16)).folds == 1


def test_simulation_guard():
    with pytest.raises(SimulationGuardError):
        simulate_cycles(MatmulDims(200, 200, 200), ArraySpec(8, 8))


@pytest.mark.parametrize("rows", [1, 2, 4, 8])
def test_oracle_equivalence_sampled(rows):
    # reduced grid here; the acceptance suite covers all of [1, 48]^3
    arr = ArraySpec(rows, rows)
    fab = single(rows)
    for M in (1, 2, 3, 5, 9, 12):
        for K in (1, 2, 7, 8, 12):
            for N in (1, 3, 8, 11, 12):
                m = MatmulDims(M, K, N)
                a = analytic_cycles(m, fab)
                s = simulate_cycles(m, arr)
                assert a.compute_cycles == s.estimate.compute_cycles, m
                assert fold_count(m, arr) == s.folds


def test_rectangular_array_equivalence():
    arr = ArraySpec(4, 8)
    fab = FabricSpec(1, 1, arr)
    for m in (MatmulDims(5, 9, 17), MatmulDims(1, 4, 8), MatmulDims(12, 3, 2)):
        assert analytic_cycles(m, fab).compute_cycles == \
            simulate_cycles(m, arr).estimate.compute_cycles


def test_simulated_counts_match_closed_form():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.choice((1, 2, 4, 8))
        m = MatmulDims(rng.randint(1, 20), rng.randint(1, 20), rng.randint(1, 20))
        arr = ArraySpec(rows, rows)
        got = simulate_cycles(m, arr).counts
        want = matmul_local_accesses(m, arr)
        assert got == want


def test_counts_hand_case():
    # single (1,1,1): one weight read, one input read, one output write
    assert matmul_local_accesses(MatmulDims(1, 1, 1), ArraySpec(16, 16)) == (2, 1)
    # (4,4,4) on 4x4: 16 input reads, 16 weight reads, 16 output writes
    assert matmul_local_accesses(MatmulDims(4, 4, 4), ArraySpec(4, 4)) == (32, 16)


def test_counts_linearity_in_n():
    arr = ArraySpec(16, 16)
    base = matmul_local_accesses(MatmulDims(8, 16, 16), arr)
    doubled = matmul_local_accesses(MatmulDims(8, 16, 32), arr)
    # input reads scale with the fold-column count, weights with N
    assert doubled == (2 * base[0], 2 * base[1])
    # inputs over one fold-column plus the weights; one K-fold of outputs
    assert base == (8 * 16 + 16 * 16, 8 * 16)


def test_fold_distribution_across_fabric():
    m = MatmulDims(8, 32, 32)  # 4 folds
    est2 = analytic_cycles(m, FabricSpec(1, 2, ArraySpec(16, 16)))
    est4 = analytic_cycles(m, FabricSpec(1, 4, ArraySpec(16, 16)))
    per_fold = 8 + 2 * 16 + 16 - 2
    assert est2.compute_cycles == 2 * per_fold
    assert est4.compute_cycles == 1 * per_fold


def utilization(m, fabric):
    """The array utilization of a phase made of the one GEMM `m`."""
    plan = plan_tiling(m, 64 * MIB, 2, fabric.array)
    return energy_terms(traffic(m, plan, 2, fabric), "decode",
                        HW._replace(fabric=fabric),
                        HW.buffers.local).utilization


def test_utilization_single_full_fold_formula():
    # M*K*N / (rows*cols*(M + 2*rows + cols - 2)) for one full fold
    rows = cols = 8
    for M in (1, 8, 64, 512):
        m = MatmulDims(M, rows, cols)
        expected = (M * rows * cols) / (rows * cols * (M + 2 * rows + cols - 2))
        assert utilization(m, single(rows)) == pytest.approx(expected,
                                                             rel=1e-12)
    assert utilization(MatmulDims(10**6, 8, 8), single(8)) > 0.99


def test_utilization_bounded():
    rng = random.Random(3)
    fab = FabricSpec(3, 2, ArraySpec(8, 4))
    for _ in range(50):
        m = MatmulDims(rng.randint(1, 300), rng.randint(1, 300), rng.randint(1, 300))
        assert 0 < utilization(m, fab) <= 1


def test_cycles_independent_of_frequency_inputs():
    # cycles are an architectural quantity: no frequency anywhere in the API
    m = MatmulDims(64, 64, 64)
    fab = FabricSpec(108, 4, ArraySpec(16, 16))
    assert analytic_cycles(m, fab) == analytic_cycles(m, fab)


def test_accesses_per_phase_aggregates():
    model = ModelSpec(n_heads=2, head_dim=2, mlp_ratio=4, bytes_per_element=2,
                      n_layers=1)
    trace = build_prefill_trace(model, InferenceRequest(
        batch=1, prompt_len=2, gen_tokens=0, decode_step=0))
    fab = FabricSpec(1, 1, ArraySpec(2, 2))
    total = phase_totals(trace, fab, MIB, 2)
    by_hand_reads = by_hand_writes = 0
    for m, n in trace.matmuls.items():
        reads, writes = matmul_local_accesses(m, fab.array)
        by_hand_reads += reads * n
        by_hand_writes += writes * n
    assert (total.local_reads, total.local_writes) == (by_hand_reads,
                                                       by_hand_writes)
