import random
from math import isfinite

import pytest
from hypothesis import given, settings, strategies as st

from acceldse.analysis import peak_flops
from acceldse.config import (KIB, SweepSpec, load_hardware, load_model_spec,
                             load_request)
from acceldse.dataflow import FabricSpec
from acceldse.energy import energy_terms
from acceldse.memory import PhaseTotals, phase_totals
from acceldse.sweep import (METRICS, SweepRecord, argmin, contour_levels,
                            evaluate_point, run_sweep)
from acceldse.workload import build_decode_trace


def point_with(flops, dram_bytes, latency, peak, bw):
    """The record of a phase of `flops` and `dram_bytes` that takes
    `latency` seconds under a compute roof of `peak` flops/s."""
    return SweepRecord("decode", 64 * KIB, 1e9, bw,
                       totals=PhaseTotals(1, flops // 2, dram_bytes,
                                          0, 0, 0, 0, 0),
                       compute_time=latency, memory_time=latency,
                       latency=latency, peak=peak)


def test_roofline_min_law():
    # oi = 5, peak 100 GF/s, bw 10 GB/s -> attainable 50 GF/s, memory-bound
    pt = point_with(flops=50 * 10**9, dram_bytes=10**10, latency=1.0,
                    peak=100e9, bw=10e9)
    assert pt.oi == 5.0
    assert pt.attainable == 50e9
    assert pt.ridge_side == "memory"


def test_roofline_compute_bound_above_ridge():
    pt = point_with(flops=10**12, dram_bytes=10**9, latency=1.0,  # oi = 1000
                    peak=100e9, bw=10e9)
    assert pt.attainable == 100e9
    assert pt.ridge_side == "compute"


def test_roofline_ridge_point_is_compute_side():
    pt = point_with(flops=10**11, dram_bytes=10**9, latency=1.0,  # oi = 100
                    peak=100e9, bw=1e9)
    assert pt.oi == pt.peak / pt.bw
    assert pt.ridge_side == "compute"


def test_roofline_bandwidth_linearity_below_roof():
    def at(bw):
        return point_with(flops=50 * 10**9, dram_bytes=10**10, latency=1.0,
                          peak=1e15, bw=bw)
    low, high = at(10e9), at(20e9)
    assert high.attainable == 2 * low.attainable


def test_peak_flops():
    fab = FabricSpec(cores=2, arrays_per_core=2, array=fab_array())
    assert peak_flops(fab, 1e9) == 4 * 16 * 16 * 2 * 1e9


def fab_array():
    from acceldse.dataflow import ArraySpec
    return ArraySpec(16, 16)


HW = load_hardware({})
TOTALS = phase_totals(build_decode_trace(load_model_spec({}),
                                         load_request({}), 0),
                      HW.fabric, 64 * KIB, 2)
DECODE = evaluate_point(TOTALS, energy_terms(TOTALS, "decode", HW, 64 * KIB),
                        "decode", HW, 64 * KIB, 800e6, HW.ext_bandwidth)


def record_with(total_j, latency):
    """The decode record with its latency replaced and its energy all
    static, `total_j` joules."""
    return DECODE._replace(latency=latency, static_j=total_j,
                           energy=DECODE.energy._replace(dynamic_j=0.0))


def test_edp_hand_cases():
    # a record's EDP is exactly total energy times latency
    assert record_with(2.0, 3.0).edp == 6.0
    assert record_with(0.0, 5.0).edp == 0.0
    assert DECODE.edp == DECODE.total_j * DECODE.latency > 0


def test_edp_argmin_invariant_under_energy_rescaling():
    rng = random.Random(1)
    pairs = [(rng.uniform(0.1, 10), rng.uniform(0.1, 10)) for _ in range(30)]
    base = [record_with(e, t).edp for e, t in pairs]
    scaled = [record_with(e * 1e6, t).edp for e, t in pairs]
    assert base.index(min(base)) == scaled.index(min(scaled))


def block_from(latencies):
    """The S-major block of decode records whose latency at [s][f] is
    `latencies[s][f]`; None marks a cell whose tiling failed."""
    block = []
    for si, row in enumerate(latencies):
        for fi, latency in enumerate(row):
            s, f = 16384 * (si + 1), 2e8 * (fi + 1)
            block.append(
                SweepRecord("decode", s, f, HW.ext_bandwidth,
                            error="no tile set fits")
                if latency is None
                else record_with(1.0, latency)._replace(s=s, f=f))
    return tuple(block)


def test_select_block_is_the_s_major_grid():
    # a (phase, BW) block holds every S x f cell, error cells included,
    # S-major with f ascending within each S
    spec = SweepSpec((8, 64 * KIB), (4e8, 8e8), (HW.ext_bandwidth,),
                     ("decode",))
    result = run_sweep(spec, HW, load_model_spec({}), load_request({}))
    block = result.select("decode", HW.ext_bandwidth)
    assert [(r.s, r.f, r.ok) for r in block] == [
        (8, 4e8, False), (8, 8e8, False),
        (64 * KIB, 4e8, True), (64 * KIB, 8e8, True)]
    assert argmin(block, "latency") == (64 * KIB, 8e8)


def test_argmin_tie_break_smallest_s_then_f():
    assert argmin(block_from([[5.0, 5.0], [5.0, 5.0]]), "latency") \
        == (16384, 2e8)
    # first minimal cell scanning S-major
    assert argmin(block_from([[7.0, 3.0], [3.0, 9.0]]), "latency") \
        == (16384, 4e8)


def test_argmin_skips_error_cells():
    assert argmin(block_from([[None, 4.0], [2.0, 9.0]]), "latency") \
        == (32768, 2e8)


def test_argmin_skips_non_finite_values():
    inf, nan = float("inf"), float("nan")
    mixed = block_from([[inf, 4.0], [nan, 2.0]])
    assert argmin(mixed, "latency") == argmin(mixed, "edp") == (32768, 4e8)
    # an all-inf block is no tie of optima: no cell is the argmin
    assert argmin(block_from([[inf, inf], [None, inf]]), "edp") is None


def test_all_error_block_has_no_argmin():
    assert argmin(block_from([[None, None]]), "latency") is None


# a cell's latency: None for an error cell, else inf, nan or a finite
# value, often one of two so that ties are common
CELL = st.one_of(st.none(), st.sampled_from((float("inf"), float("nan"))),
                 st.sampled_from((1.0, 2.0)), st.floats(1e-9, 1e9))


@settings(max_examples=200, deadline=None)
@given(latencies=st.integers(1, 4).flatmap(lambda n_f: st.lists(
           st.lists(CELL, min_size=n_f, max_size=n_f),
           min_size=1, max_size=4)),
       metric=st.sampled_from(sorted(METRICS)))
def test_argmin_is_the_first_finite_minimum(latencies, metric):
    block, value = block_from(latencies), METRICS[metric]
    best = None  # (value, (S, f)) of the first smallest finite value
    for r in block:
        if r.ok and isfinite(value(r)) and (best is None
                                            or value(r) < best[0]):
            best = value(r), (r.s, r.f)
    assert argmin(block, metric) == (None if best is None else best[1])


def test_contour_levels_span_grid():
    levels = contour_levels(
        block_from([[0.0, 1.0], [None, 2.0], [2.0, 10.0]]), "latency")
    assert len(levels) == 10
    assert levels[0] == 0.0 and levels[-1] == 10.0
    steps = [b - a for a, b in zip(levels, levels[1:])]
    assert all(s == pytest.approx(steps[0]) for s in steps)
