import random
from math import ceil

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from acceldse.config import (GB, KIB, MIB, load_hardware, load_model_spec,
                             load_request)
from acceldse.dataflow import (ArraySpec, FabricSpec, analytic_cycles,
                               matmul_local_accesses)
from acceldse.memory import (TilingError, TilingPlan, affine_extent,
                             capped_dims, phase_totals, plan_tiling,
                             tile_set_bytes, traffic)
from acceldse.energy import energy_terms
from acceldse.sweep import evaluate_point
from acceldse.workload import (MatmulDims, ModelSpec, attention_matmuls,
                               build_decode_trace, build_prefill_trace)
from oracle import search_plan

ARRAY = ArraySpec(16, 16)
FABRIC = FabricSpec(108, 4, ARRAY)


def exhaustive_plan(m, cap, b, array):
    """Brute-force oracle: enumerate every tile triple, same objective."""
    k_floor = min(m.K, array.rows)
    n_floor = min(m.N, array.cols)
    for m_floor in (min(m.M, array.rows), 1):
        best = None
        for tm in range(m_floor, m.M + 1):
            for tk in range(k_floor, m.K + 1):
                for tn in range(n_floor, m.N + 1):
                    if tile_set_bytes(tm, tk, tn, b) > cap:
                        continue
                    key = (tk * tn, tm, tn, tk)
                    if best is None or key > best:
                        best = key
        if best is not None:
            return best
    return None


def test_plan_single_tile_when_everything_fits():
    m = MatmulDims(8, 8, 8)
    plan = plan_tiling(m, 1 * MIB, 2, ARRAY)
    assert (plan.tile_m, plan.tile_k, plan.tile_n) == (8, 8, 8)


def test_plan_minimal_boundary():
    # capacity exactly fits the minimal 1x1x1 double-buffered set (5 bytes/elem)
    m = MatmulDims(1, 1, 1)
    plan = plan_tiling(m, 10, 2, ARRAY)
    assert (plan.tile_m, plan.tile_k, plan.tile_n) == (1, 1, 1)
    with pytest.raises(TilingError):
        plan_tiling(m, 9, 2, ARRAY)


def test_plan_8x8x8_at_256_bytes_matches_exhaustive_oracle():
    m = MatmulDims(8, 8, 8)
    best = exhaustive_plan(m, 256, 2, ARRAY)
    assert best is not None
    _, tm, tn, tk = best
    assert (tm, tk, tn) == (2, 8, 8)  # frozen from the oracle
    plan = plan_tiling(m, 256, 2, ARRAY)
    assert (plan.tile_m, plan.tile_k, plan.tile_n) == (tm, tk, tn)


def test_plan_matches_exhaustive_oracle_on_random_cases():
    rng = random.Random(11)
    arr = ArraySpec(4, 4)
    for _ in range(20):
        m = MatmulDims(rng.randint(1, 16), rng.randint(1, 16), rng.randint(1, 16))
        cap = rng.choice((64, 128, 256, 512, 2048))
        oracle = exhaustive_plan(m, cap, 2, arr)
        if oracle is None:
            with pytest.raises(TilingError):
                plan_tiling(m, cap, 2, arr)
            continue
        plan = plan_tiling(m, cap, 2, arr)
        got = (plan.tile_k * plan.tile_n, plan.tile_m, plan.tile_n, plan.tile_k)
        # the implementation searches power-of-two dims only, so its plan can
        # never beat the unrestricted oracle, and its traffic driver tile_n
        # must reach the oracle's within one halving
        assert got <= oracle
        _, _, tn_oracle, _ = oracle
        assert plan.tile_n * 2 > tn_oracle or plan.tile_n == m.N


def reported_bytes(exc):
    """The tile-set size a TilingError names."""
    return int(str(exc).rsplit(" of ", 1)[1].split()[0])


@st.composite
def tiling_cases(draw):
    """(matmul, capacity, bytes per element, array) with array shapes that
    need not be powers of two and capacities often within a few bytes of
    a tile set of tile sizes fitting."""
    m = MatmulDims(*(draw(st.integers(1, 600)) for _ in range(3)))
    array = ArraySpec(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    b = draw(st.sampled_from((1, 2, 4)))
    tm, tk, tn = (min(dim, 1 << draw(st.integers(0, 10))) for dim in m)
    edge = tile_set_bytes(tm, tk, tn, b)
    capacity = draw(st.one_of(st.integers(max(1, edge - 8), edge + 8),
                              st.integers(1, 1 << 22)))
    return m, capacity, b, array


@settings(max_examples=500, deadline=None)
@given(tiling_cases())
# 12 rows is no tile size, so no tile_m >= 12 may fit beside a pair
@example((MatmulDims(128, 64, 64), 6000, 2, ArraySpec(12, 16)))
# 24 rows make 32 the smallest tile_k: 24 x 16 tile sets are never tried
@example((MatmulDims(8, 12288, 36864), 1024, 2, ArraySpec(24, 16)))
def test_plan_matches_exhaustive_tile_size_search(case):
    m, capacity, b, array = case
    try:
        expected = search_plan(m, capacity, b, array)
    except TilingError as exc:
        with pytest.raises(TilingError) as raised:
            plan_tiling(m, capacity, b, array)
        assert str(raised.value) == str(exc)
        need = reported_bytes(raised.value)
        assert need > capacity
        # the bytes named are the threshold: they fit, one byte less does not
        plan_tiling(m, need, b, array)
        with pytest.raises(TilingError):
            plan_tiling(m, need - 1, b, array)
    else:
        assert plan_tiling(m, capacity, b, array) == expected


def test_tiling_error_names_a_tile_set_the_search_tries():
    # 24 rows: the smallest tile_k tried is 32, not 24 (928 bytes would fit
    # nothing the search considers, and contradicts the capacity)
    with pytest.raises(TilingError, match="cannot hold a minimal "
                       "double-buffered tile set of 1216 bytes") as raised:
        plan_tiling(MatmulDims(8, 12288, 36864), 1024, 2, ArraySpec(24, 16))
    assert reported_bytes(raised.value) > 1024
    # a power-of-two array floors tile_k and tile_n at its own rows and cols
    with pytest.raises(TilingError, match=f"tile set of "
                       f"{tile_set_bytes(1, 16, 16, 2)} bytes"):
        plan_tiling(MatmulDims(8, 12288, 36864), 512, 2, ARRAY)


def plan_or_error(m, capacity, b, array):
    """`plan_tiling`'s plan, or the text of its TilingError."""
    try:
        return plan_tiling(m, capacity, b, array)
    except TilingError as exc:
        return str(exc)


@st.composite
def capped_cases(draw):
    """(matmul, capacity, bytes per element, array) whose K and N are each
    below the power of two at or above rows (cols), within a few of its
    cap, or anywhere up to four times it; N's cap is taken at the drawn K,
    so one dim past its cap beside one below its power of two is drawn."""
    array = ArraySpec(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    b = draw(st.sampled_from((1, 2, 4)))
    capacity = draw(st.integers(1, 256 * KIB))
    floors = (1 << (array.rows - 1).bit_length(),
              1 << (array.cols - 1).bit_length())

    def dim(floor, cap):
        return draw(st.one_of(st.integers(1, floor),
                              st.integers(max(floor, cap - 2), cap + 2),
                              st.integers(floor, 4 * cap)))
    # past N's power of two the K cap no longer moves
    k = dim(floors[0], capped_dims(MatmulDims(1, 1 << 40, 1 << 40),
                                   capacity, b, array).K)
    n = dim(floors[1], capped_dims(MatmulDims(1, k, 1 << 40),
                                   capacity, b, array).N)
    return MatmulDims(draw(st.integers(1, 64)), k, n), capacity, b, array


@settings(max_examples=500, deadline=None)
@given(capped_cases())
def test_capped_dims_plan_as_the_matmul_does(case):
    m, capacity, b, array = case
    capped = capped_dims(m, capacity, b, array)
    assert capped.M == m.M and capped.K <= m.K and capped.N <= m.N
    # the same plan, or the same TilingError text
    assert plan_or_error(capped, capacity, b, array) \
        == plan_or_error(m, capacity, b, array)


@settings(max_examples=300, deadline=None)
@given(capped_cases(), st.sampled_from(("K", "N")))
def test_capped_dims_are_monotone_in_each_dim(case, dim):
    # as K (N) grows, the capped K (N) must not fall and the capped N (K)
    # must not rise, as `capped_dims` states: a growing GEMM's capped
    # shape, once it stops moving, never moves again
    m, capacity, b, array = case
    before, after = (capped_dims(x, capacity, b, array) for x in
                     (m, m._replace(**{dim: getattr(m, dim) + 1})))
    other = "N" if dim == "K" else "K"
    assert getattr(before, dim) <= getattr(after, dim)
    assert getattr(before, other) >= getattr(after, other)


@st.composite
def kv_runs(draw):
    """(model, capacity, array, first kv_len, last kv_len) of a decode
    generation on one head that starts at a small kv_len or near either
    attention GEMM's cap."""
    array = ArraySpec(draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    b = draw(st.sampled_from((1, 2, 4)))
    capacity = draw(st.integers(1, 64 * KIB))
    model = ModelSpec(1, draw(st.integers(1, 64)), 4, b, 1)
    score, out = (capped_dims(m, capacity, b, array) for m, _ in
                  attention_matmuls(model, 1, 1, 1 << 40))
    first = draw(st.one_of(st.integers(1, 64), *(
        st.integers(max(1, cap - 64), cap + 8) for cap in (score.N, out.K))))
    return model, capacity, array, first, first + draw(st.integers(0, 128))


@settings(max_examples=300, deadline=None)
@given(kv_runs())
def test_capped_attention_shapes_stay_from_the_last_steps_capped_kv(run):
    # the decode mean's steady step: the first kv_len from which both
    # capped attention shapes are the last step's, found by a scan back
    # from the last step, is the last step's larger capped kv dim
    model, capacity, array, first, last = run

    def capped(kv):
        return [capped_dims(m, capacity, model.bytes_per_element, array)
                for m, _ in attention_matmuls(model, 1, 1, kv)]
    fixed = capped(last)
    steady = last
    while steady > first and capped(steady - 1) == fixed:
        steady -= 1
    assert steady == max(first, fixed[0].N, fixed[1].K)


def tile_walk_bytes(m, plan, b):
    """Counting oracle: walk every tile, count bytes moved per operand."""
    weights = inputs = outputs = 0
    for n0 in range(0, m.N, plan.tile_n):
        n_sz = min(plan.tile_n, m.N - n0)
        for k0 in range(0, m.K, plan.tile_k):
            k_sz = min(plan.tile_k, m.K - k0)
            weights += k_sz * n_sz * b  # each weight tile fetched once
            for m0 in range(0, m.M, plan.tile_m):
                m_sz = min(plan.tile_m, m.M - m0)
                inputs += m_sz * k_sz * b  # re-read per column tile
    for n0 in range(0, m.N, plan.tile_n):
        n_sz = min(plan.tile_n, m.N - n0)
        for m0 in range(0, m.M, plan.tile_m):
            outputs += min(plan.tile_m, m.M - m0) * n_sz * b
    return weights, inputs, outputs


def test_traffic_single_tile_is_compulsory():
    m = MatmulDims(8, 8, 8)
    plan = plan_tiling(m, 1 * MIB, 2, ARRAY)
    t = traffic(m, plan, 2, FabricSpec(1, 1, ARRAY))
    assert t.dram_bytes == (8 * 8 + 8 * 8 + 8 * 8) * 2
    assert t.onchip_bytes == t.dram_bytes


def test_traffic_input_passes_double_when_tile_n_halves():
    m = MatmulDims(8, 64, 64)
    single_core = FabricSpec(1, 1, ARRAY)
    t_full = traffic(m, plan_tiling(m, 1 * MIB, 2, ARRAY), 2, single_core)
    from acceldse.memory import TilingPlan
    halved = TilingPlan(tile_m=8, tile_k=64, tile_n=32)
    t_half = traffic(m, halved, 2, single_core)
    in_full = t_full.dram_bytes - (64 * 64 + 8 * 64) * 2
    in_half = t_half.dram_bytes - (64 * 64 + 8 * 64) * 2
    assert in_half == 2 * in_full


def test_traffic_matches_tile_walk_oracle():
    rng = random.Random(5)
    single_core = FabricSpec(1, 1, ARRAY)
    for _ in range(20):
        m = MatmulDims(rng.randint(1, 40), rng.randint(16, 64), rng.randint(16, 64))
        cap = rng.choice((256, 1024, 4096))
        try:
            plan = plan_tiling(m, cap, 2, ARRAY)
        except TilingError:
            continue
        weights, inputs, outputs = tile_walk_bytes(m, plan, 2)
        t = traffic(m, plan, 2, single_core)
        assert t.onchip_bytes == weights + inputs + outputs
        assert t.dram_bytes == weights + inputs + outputs  # one core: no sharing
        assert t.global_reads * 2 == t.global_writes * 2 == \
            weights + inputs + outputs
        assert t.compute_cycles == \
            analytic_cycles(m, single_core).compute_cycles
        assert t.macs == m.M * m.K * m.N
        assert (t.local_reads, t.local_writes) == \
            matmul_local_accesses(m, ARRAY)


def test_traffic_core_amortization():
    # cores sweep distinct column tiles concurrently, sharing each input wave
    m = MatmulDims(8, 64, 2048)
    plan = plan_tiling(m, 18_000, 2, ARRAY)
    n_tiles = ceil(m.N / plan.tile_n)
    assert n_tiles > 3
    t1 = traffic(m, plan, 2, FabricSpec(1, 1, ARRAY))
    t3 = traffic(m, plan, 2, FabricSpec(3, 1, ARRAY))
    base = (m.K * m.N + m.M * m.N) * 2
    assert t1.dram_bytes - base == m.M * m.K * 2 * n_tiles
    assert t3.dram_bytes - base == m.M * m.K * 2 * ceil(n_tiles / 3)
    assert t1.onchip_bytes == t3.onchip_bytes  # per-tile movement unchanged


@settings(max_examples=300, deadline=None)
@given(tiling_cases(), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(("K", "N")))
def test_traffic_is_affine_up_to_its_extent(case, cores, arrays, dim):
    m, capacity, b, array = case
    try:
        plan = plan_tiling(m, capacity, b, array)
    except TilingError:
        assume(False)
    fabric = FabricSpec(cores, arrays, array)
    last = dict(zip("KN", affine_extent(m, plan, array)))[dim]

    def at(x):
        return traffic(m._replace(**{dim: x}), plan, b, fabric)

    start = getattr(m, dim)
    base = at(start)
    slope = [y - x for x, y in zip(base, at(start + 1))]
    for x in range(start, last + 1):
        assert at(x) == tuple(a + (x - start) * d
                              for a, d in zip(base, slope)), x


def test_counts_are_exact_integers_beyond_float_precision():
    # N = 2**60 + 1 columns on 1x1 arrays, one element per tile: N folds
    # and N tiles, which a ceiling taken through a float rounds to 2**60
    n = 2**60 + 1  # 1152921504606846977
    m = MatmulDims(1, 1, n)
    plan = TilingPlan(1, 1, 1)
    one = traffic(m, plan, 1, FabricSpec(1, 1, ArraySpec(1, 1)))
    # N rounds of one fold, 1 + 2 + 1 - 2 = 2 cycles each
    assert one.compute_cycles == 2305843009213693954
    assert one.macs == 1152921504606846977
    # inputs x N tiles + N weights + N outputs, in both directions
    assert one.global_reads == 3458764513820540931
    assert one.global_writes == 3458764513820540931
    # inputs once per fold-column plus N weights; N outputs, one K-fold
    assert (one.local_reads, one.local_writes) == (2305843009213693954,
                                                   1152921504606846977)
    # three cores: ceil(N / 3) = (N + 1) / 3 = 384307168202282326 rounds
    # and input waves
    three = traffic(m, plan, 1, FabricSpec(3, 1, ArraySpec(1, 1)))
    assert three.compute_cycles == 768614336404564652
    assert three.global_reads == 3458764513820540931
    # 384307168202282326 input waves + 2N
    assert three.global_writes == three.dram_bytes == 2690150177415976280


def test_traffic_at_least_compulsory():
    rng = random.Random(9)
    for _ in range(20):
        m = MatmulDims(rng.randint(1, 64), rng.randint(1, 128), rng.randint(1, 128))
        plan = plan_tiling(m, 64 * KIB, 2, ARRAY)
        t = traffic(m, plan, 2, FABRIC)
        compulsory = (m.K * m.N + m.M * m.K + m.M * m.N) * 2
        assert t.dram_bytes >= compulsory


def test_dram_non_increasing_in_capacity():
    rng = random.Random(23)
    sizes = [16 * KIB, 32 * KIB, 64 * KIB, 128 * KIB, 256 * KIB, 512 * KIB, 1024 * KIB]
    cases = [MatmulDims(rng.randint(1, 4096), rng.randint(1, 4096),
                        rng.randint(1, 4096)) for _ in range(15)]
    cases += [MatmulDims(16384, 12288, 36864), MatmulDims(1, 128, 2048)]
    for m in cases:
        prev = None
        for cap in sizes:
            t = traffic(m, plan_tiling(m, cap, 2, ARRAY), 2, FABRIC)
            if prev is not None:
                assert t.dram_bytes <= prev, (m, cap)
            prev = t.dram_bytes


# --- latency at (f, BW) ---------------------------------------------------

MODEL = load_model_spec({})
REQ = load_request({})
EXT_BW, ONCHIP_BW = 2048 * GB, 16384 * GB
HW = load_hardware({})._replace(fabric=FABRIC, onchip_bandwidth=ONCHIP_BW)


def at(trace, f_hz, phase="decode"):
    """The trace of `phase` with a 64 KB local buffer, evaluated at f_hz
    and the default bandwidths."""
    totals = phase_totals(trace, FABRIC, 64 * KIB, 2)
    return evaluate_point(totals, energy_terms(totals, phase, HW, 64 * KIB),
                          phase, HW, 64 * KIB, f_hz, EXT_BW)


def test_latency_overlap_model():
    trace = build_decode_trace(MODEL, REQ, 0)
    r = at(trace, 800e6)
    assert r.latency == max(r.compute_time, r.memory_time)
    assert r.compute_fraction == r.compute_time / r.latency
    assert r.total_cycles == pytest.approx(r.latency * 800e6)
    assert r.total_cycles >= r.totals.compute_cycles
    assert 0 < r.energy.utilization <= 1


def test_memory_time_from_bandwidth():
    # dram bytes / ext bandwidth when the external link dominates
    trace = build_decode_trace(MODEL, REQ, 0)
    r = at(trace, 800e6)
    assert r.memory_time == pytest.approx(
        max(r.totals.dram_bytes / EXT_BW, r.totals.onchip_bytes / ONCHIP_BW))


def test_memory_bound_latency_invariant_to_frequency():
    trace = build_decode_trace(MODEL, REQ, 0)
    results = [at(trace, f * 1e6) for f in (600, 800, 1000, 1200, 1400)]
    assert all(r.memory_bound for r in results)
    assert len({r.latency for r in results}) == 1
    cycles = [r.total_cycles for r in results]
    assert all(b > a for a, b in zip(cycles, cycles[1:]))


def test_compute_bound_latency_is_cycles_over_frequency():
    trace = build_prefill_trace(MODEL, REQ)
    for f in (200e6, 800e6, 1400e6):
        r = at(trace, f, "prefill")
        assert not r.memory_bound
        assert r.latency * f == pytest.approx(r.totals.compute_cycles,
                                              rel=1e-12)
        assert r.compute_fraction == 1.0


def test_decode_bound_classification_flip():
    trace = build_decode_trace(MODEL, REQ, 0)
    low = at(trace, 400e6)
    high = at(trace, 600e6)
    assert not low.memory_bound
    assert high.memory_bound


def test_compute_fraction_is_one_at_transition():
    # run the clock exactly at cycles / memory_time: both sides equal
    trace = build_decode_trace(MODEL, REQ, 0)
    probe = at(trace, 1e9)
    f_cross = probe.totals.compute_cycles / probe.memory_time
    r = at(trace, f_cross)
    assert r.compute_fraction == 1.0
    assert r.compute_time == r.memory_time
