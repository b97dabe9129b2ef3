import math
import random

import pytest

from acceldse.analysis import (MetricGrid, operational_intensity, peak_flops,
                               roofline)
from acceldse.config import load_hardware, load_model_spec, load_request
from acceldse.dataflow import FabricSpec
from acceldse.memory import KIB, PhaseResult, PhaseTerms, TrafficReport
from acceldse.sweep import (DesignPoint, SweepRecord, entry_terms,
                            evaluate_point, tile_phase)
from acceldse.workload import Phase, build_decode_trace


def terms_with(flops, dram_bytes):
    return PhaseTerms(compute_cycles=1,
                      traffic=TrafficReport(dram_bytes, 0, 0, 0, 0, 0),
                      utilization=1.0, flops=flops, onchip_time=0.0)


def point_with(flops, dram_bytes, latency, peak, bw):
    """The roofline point of a phase of `flops` and `dram_bytes` that
    takes `latency` seconds."""
    terms = terms_with(flops, dram_bytes)
    result = PhaseResult(compute_cycles=1, compute_time=latency,
                         memory_time=latency, latency=latency,
                         total_cycles=1.0, compute_fraction=1.0,
                         traffic=terms.traffic, utilization=1.0, flops=flops)
    return roofline(result, operational_intensity(terms), peak, bw)


def test_roofline_min_law():
    # oi = 5, peak 100 GF/s, bw 10 GB/s -> attainable 50 GF/s, memory-bound
    pt = point_with(flops=50 * 10**9, dram_bytes=10**10, latency=1.0,
                    peak=100e9, bw=10e9)
    assert pt.oi == 5.0
    assert pt.attainable == 50e9
    assert pt.bound == "memory"


def test_roofline_compute_bound_above_ridge():
    pt = point_with(flops=10**12, dram_bytes=10**9, latency=1.0,  # oi = 1000
                    peak=100e9, bw=10e9)
    assert pt.attainable == 100e9
    assert pt.bound == "compute"


def test_roofline_bandwidth_linearity_below_roof():
    def at(bw):
        return point_with(flops=50 * 10**9, dram_bytes=10**10, latency=1.0,
                          peak=1e15, bw=bw)
    low, high = at(10e9), at(20e9)
    assert high.attainable == 2 * low.attainable


def test_roofline_rejects_zero_traffic():
    with pytest.raises(ValueError):
        operational_intensity(terms_with(1, 0))


def test_peak_flops():
    fab = FabricSpec(cores=2, arrays_per_core=2, array=fab_array())
    assert peak_flops(fab, 1e9) == 4 * 16 * 16 * 2 * 1e9


def fab_array():
    from acceldse.dataflow import ArraySpec
    return ArraySpec(16, 16)


HW = load_hardware({})
DECODE = evaluate_point(
    entry_terms(tile_phase(build_decode_trace(load_model_spec({}),
                                              load_request({}), 0),
                           HW, 64 * KIB, 2), Phase.DECODE_STEP, HW, 64 * KIB),
    Phase.DECODE_STEP, HW, DesignPoint(64 * KIB, 800e6, HW.ext_bandwidth))


def record_with(total_j, latency):
    """The decode record with its total energy and latency replaced."""
    return SweepRecord(
        DECODE.point, DECODE.phase,
        DECODE.result._replace(latency=latency),
        DECODE.energy._replace(total_j=total_j), DECODE.roofline)


def test_edp_hand_cases():
    # a record's EDP is exactly total energy times latency
    assert record_with(2.0, 3.0).edp == 6.0
    assert record_with(0.0, 5.0).edp == 0.0
    assert DECODE.edp == DECODE.energy.total_j * DECODE.result.latency > 0


def test_edp_argmin_invariant_under_energy_rescaling():
    rng = random.Random(1)
    pairs = [(rng.uniform(0.1, 10), rng.uniform(0.1, 10)) for _ in range(30)]
    base = [record_with(e, t).edp for e, t in pairs]
    scaled = [record_with(e * 1e6, t).edp for e, t in pairs]
    assert base.index(min(base)) == scaled.index(min(scaled))


def grid_from(values, metric="latency"):
    s_axis = tuple(16384 * (i + 1) for i in range(len(values)))
    f_axis = tuple(2e8 * (i + 1) for i in range(len(values[0])))
    return MetricGrid(metric, s_axis, f_axis,
                      tuple(tuple(row) for row in values))


def test_grid_shape_and_missing_cell():
    g = grid_from([[1.0, 2.0], [3.0, 4.0]])
    assert g.value(16384, 2e8) == 1.0
    assert g.value(32768, 4e8) == 4.0
    with pytest.raises(ValueError):  # a row missing a cell
        MetricGrid("latency", (1, 2), (1.0,), ((0.0,), ()))
    with pytest.raises(ValueError):  # a missing row
        MetricGrid("latency", (1, 2), (1.0,), ((0.0,),))


def test_argmin_tie_break_smallest_s_then_f():
    g = grid_from([[5.0, 5.0], [5.0, 5.0]])
    assert g.argmin() == (16384, 2e8)
    g2 = grid_from([[7.0, 3.0], [3.0, 9.0]])
    assert g2.argmin() == (16384, 4e8)  # first minimal cell scanning S-major


def test_argmin_skips_nan_cells():
    g = grid_from([[math.nan, 4.0], [2.0, 9.0]])
    assert g.argmin() == (32768, 2e8)


def test_all_nan_grid_raises():
    g = grid_from([[math.nan, math.nan]])
    with pytest.raises(ValueError):
        g.argmin()
    with pytest.raises(ValueError):
        g.contour_levels()


def test_contour_levels_span_grid():
    g = grid_from([[0.0, 1.0], [2.0, 10.0]])
    levels = g.contour_levels()
    assert len(levels) == 10
    assert levels[0] == 0.0 and levels[-1] == 10.0
    steps = [b - a for a, b in zip(levels, levels[1:])]
    assert all(s == pytest.approx(steps[0]) for s in steps)
