"""Oracles that the closed forms are pinned to.

`simulate_cycles` steps a rows x cols grid of processing elements cycle by
cycle for every distinct fold shape of a matmul and checks the numeric
result, so the closed form in `dataflow.analytic_cycles` can be pinned
to it exactly.  `search_plan` tries every (tile_k, tile_n) pair of tile
sizes, so the closed-form search in `memory.plan_tiling` can be pinned
to it.  `evaluate_cell` evaluates one sweep cell from its phase totals
in one pass, the way the model reads on paper, so the package's split
into per-(phase, S) terms and per-(f, BW) cells can be pinned to it bit
for bit.  It lives with the tests, so the package never imports numpy.
"""

from __future__ import annotations

import zlib
from collections import namedtuple

import numpy as np

from acceldse.analysis import peak_flops
from acceldse.dataflow import ArraySpec, CycleEstimate
from acceldse.memory import TilingError, TilingPlan, tile_set_bytes
from acceldse.workload import MatmulDims

SIMULATION_MAC_GUARD = 1_000_000


class SimulationGuardError(ValueError):
    """Matmul too large for desk-scale cycle-accurate simulation."""


class SimulatedCycles(namedtuple("SimulatedCycles", (
        "estimate",
        "folds",  # weight folds run, K-folds x N-folds
        "counts",  # local-buffer (reads, writes), in element accesses
))):
    __slots__ = ()


_FOLD_CACHE: dict[tuple[int, int, int, int, int], int] = {}


def _simulate_fold(M: int, k_sub: int, n_sub: int, rows: int, cols: int) -> int:
    """Simulate one weight fold on a rows x cols PE grid, cycle by cycle.

    Weights shift in from the top, one row per cycle, for `rows` cycles.
    Input rows then stream from the left with a one-cycle skew per row
    while partial sums flow downward, entering at the top (accumulating a
    previously stored partial) and exiting at the bottom.  The simulated
    outputs are checked against an exact integer matmul before the cycle
    count is trusted.
    """
    key = (M, k_sub, n_sub, rows, cols)
    cached = _FOLD_CACHE.get(key)
    if cached is not None:
        return cached

    rng = np.random.default_rng(zlib.crc32(repr(key).encode()))
    acts = rng.integers(-8, 9, size=(M, k_sub)).astype(np.int64)
    weights = rng.integers(-8, 9, size=(k_sub, n_sub)).astype(np.int64)
    psum_in = rng.integers(-8, 9, size=(M, n_sub)).astype(np.int64)

    w_grid = np.zeros((rows, cols), dtype=np.int64)
    w_feed = np.zeros((rows, cols), dtype=np.int64)
    w_feed[:k_sub, :n_sub] = weights

    cycles = 0
    # preload: rows enter top-down in reverse so row k settles at depth k
    for step in range(rows):
        w_grid[1:, :] = w_grid[:-1, :]
        w_grid[0, :] = w_feed[rows - 1 - step, :]
        cycles += 1
    assert np.array_equal(w_grid[:k_sub, :n_sub], weights)

    a_grid = np.zeros((rows, cols), dtype=np.int64)
    p_grid = np.zeros((rows, cols), dtype=np.int64)
    out = np.zeros((M, n_sub), dtype=np.int64)
    stream_cycles = M + rows + cols - 2
    row_idx = np.arange(rows)
    for t in range(stream_cycles):
        # activations shift right; row k consumes input element (t-k, k)
        a_grid[:, 1:] = a_grid[:, :-1]
        inject = np.zeros(rows, dtype=np.int64)
        m_for_row = t - row_idx
        valid = (m_for_row >= 0) & (m_for_row < M) & (row_idx < k_sub)
        inject[valid] = acts[m_for_row[valid], row_idx[valid]]
        a_grid[:, 0] = inject
        # partial sums shift down; output row m enters column n at t = m + n
        p_top = np.zeros(cols, dtype=np.int64)
        for n in range(n_sub):
            mi = t - n
            if 0 <= mi < M:
                p_top[n] = psum_in[mi, n]
        p_in = np.vstack((p_top, p_grid[:-1, :]))
        p_grid = p_in + w_grid * a_grid
        # bottom row emits output (m, n) at t = m + n + rows - 1
        for n in range(n_sub):
            mo = t - n - rows + 1
            if 0 <= mo < M:
                out[mo, n] = p_grid[rows - 1, n]
        cycles += 1

    expected = psum_in + acts @ weights
    if not np.array_equal(out, expected):
        raise AssertionError(
            f"systolic fold simulation produced a wrong matmul result for {key}")

    _FOLD_CACHE[key] = cycles
    return cycles


def _fold_shapes(dim: int, extent: int) -> list[tuple[int, int]]:
    """(sub_extent, count) pairs covering `dim` in `extent`-sized folds."""
    shapes = []
    if dim // extent:
        shapes.append((extent, dim // extent))
    if dim % extent:
        shapes.append((dim % extent, 1))
    return shapes


def simulate_cycles(m: MatmulDims, array: ArraySpec) -> SimulatedCycles:
    """Exact cycles and SRAM access counts for one matmul on one array.

    Folds run back to back with no cross-fold pipeline state, so each
    distinct fold shape is simulated once cycle by cycle and its count
    multiplies the result; at most four shapes occur (interior and edge
    tiles along K and N).
    """
    if m.M * m.K * m.N > SIMULATION_MAC_GUARD:
        raise SimulationGuardError(
            f"matmul {m.M}x{m.K}x{m.N} exceeds the {SIMULATION_MAC_GUARD} MAC guard")
    rows, cols = array.rows, array.cols
    k_folds = -(-m.K // rows)  # ceil in exact integers
    n_folds = -(-m.N // cols)

    cycles = 0
    in_reads = w_reads = out_writes = 0
    for k_sub, k_count in _fold_shapes(m.K, rows):
        for n_sub, n_count in _fold_shapes(m.N, cols):
            count = k_count * n_count
            cycles += count * _simulate_fold(m.M, k_sub, n_sub, rows, cols)
            in_reads += count * m.M * k_sub
            w_reads += count * k_sub * n_sub
            out_writes += count * m.M * n_sub
    # psum re-read per extra K-fold (fold index > 0 along K)
    out_reads = m.M * m.N * (k_folds - 1)
    counts = (in_reads + w_reads + out_reads, out_writes)
    return SimulatedCycles(CycleEstimate(cycles), k_folds * n_folds, counts)


def _tile_sizes(dim: int) -> list[int]:
    """The powers of two below `dim`, then `dim` itself."""
    out = []
    v = 1
    while v < dim:
        out.append(v)
        v *= 2
    out.append(dim)
    return out


def search_plan(m: MatmulDims, capacity: int, bytes_per_element: int,
                array: ArraySpec) -> TilingPlan:
    """`memory.plan_tiling` by exhaustive search over (tile_k, tile_n).

    Every pair of tile sizes at or above the array floors is tried with
    the widest tile_m that fits beside it; a pair that no tile_m at or
    above the row floor fits beside is skipped.  The first row floor with
    a fitting pair wins.  Raises the same TilingError as `plan_tiling`,
    naming the smallest tile set the search tries.
    """
    b = bytes_per_element
    tk_cands = [t for t in _tile_sizes(m.K) if t >= min(m.K, array.rows)]
    tn_cands = [t for t in _tile_sizes(m.N) if t >= min(m.N, array.cols)]
    for m_floor in (min(m.M, array.rows), 1):
        tm_cands = [t for t in _tile_sizes(m.M) if t >= m_floor]
        best = None
        for tk in tk_cands:
            for tn in tn_cands:
                fitting = [tm for tm in tm_cands
                           if tile_set_bytes(tm, tk, tn, b) <= capacity]
                if not fitting:
                    continue
                key = (tk * tn, max(fitting), tn, tk)
                if best is None or key > best:
                    best = key
        if best is not None:
            _, tm, tn, tk = best
            return TilingPlan(tile_m=tm, tile_k=tk, tile_n=tn)
    raise TilingError(
        f"local buffer of {capacity} bytes cannot hold a minimal "
        f"double-buffered tile set of "
        f"{tile_set_bytes(1, tk_cands[0], tn_cands[0], b)} bytes")


# --- one sweep cell, unsplit ---------------------------------------------

def cell_result(totals, fabric, frequency, ext_bandwidth,
                onchip_bandwidth) -> dict:
    """Latency of one phase's totals at a clock and bandwidths."""
    cycles = totals.compute_cycles
    compute_time = cycles / frequency
    memory_time = max(totals.dram_bytes / ext_bandwidth,
                      totals.onchip_bytes / onchip_bandwidth)
    latency = max(compute_time, memory_time)
    utilization = totals.macs / (fabric.total_arrays * cycles
                                 * fabric.array.rows * fabric.array.cols)
    return {
        "compute_cycles": cycles,
        "compute_time": compute_time,
        "memory_time": memory_time,
        "latency": latency,
        "total_cycles": latency * frequency,
        "compute_fraction": compute_time / latency,
        "traffic": totals,
        "utilization": utilization,
        "flops": 2 * totals.macs,
    }


def cell_energy(result, phase, hw, local) -> dict:
    """The energy of one evaluated phase on `hw` with a `local`-byte
    buffer per core, as `simulate --format json` prints it."""
    fabric, global_ = hw.fabric, hw.buffers.global_
    g = hw.gating_prefill if phase == "prefill" else hw.gating_decode
    latency = result["latency"]
    local_leak = hw.sram_leakage_per_byte * local
    global_leak = hw.sram_leakage_per_byte * global_
    static = latency * (local_leak * fabric.cores + global_leak
                        + hw.array_leakage_w * fabric.total_arrays) * (1.0 - g)
    tr = result["traffic"]

    def per_access(size):
        return hw.sram_access_energy_ref * (
            size / hw.sram_ref_size) ** hw.sram_access_exponent

    dyn_parts = {
        "local_buffers": (tr.local_reads + tr.local_writes)
        * per_access(local),
        "global_buffer": (tr.global_reads + tr.global_writes)
        * per_access(global_),
        "arrays": (hw.array_dynamic_w_ref * result["utilization"]
                   * (result["compute_cycles"] / hw.array_ref_frequency)
                   * fabric.total_arrays),
    }
    dynamic = 0.0  # left to right, as `energy.energy_terms` adds them
    for part in dyn_parts.values():
        dynamic += part
    if static < 0 or dynamic < 0:
        raise ValueError("energy must be non-negative")
    static_parts = {
        "local_buffers": latency * local_leak * fabric.cores * (1.0 - g),
        "global_buffer": latency * global_leak * (1.0 - g),
        "arrays": latency * hw.array_leakage_w * fabric.total_arrays
        * (1.0 - g),
    }
    return {
        "static_j": static,
        "dynamic_j": dynamic,
        "total_j": static + dynamic,
        "dynamic_power_w": dynamic / latency,
        "by_component": {
            name: {"static_j": static_parts[name],
                   "dynamic_j": dyn_parts[name]}
            for name in ("local_buffers", "global_buffer", "arrays")},
    }


def cell_roofline(result: dict, peak: float, bw: float) -> dict:
    """The roofline point of one evaluated phase: its operational
    intensity, attainable and achieved flops/s, and the side of the ridge
    point it lies on."""
    dram_bytes = result["traffic"].dram_bytes
    if dram_bytes <= 0:
        raise ValueError("roofline undefined for zero external traffic")
    oi = result["flops"] / dram_bytes
    attainable = min(peak, bw * oi)
    return {
        "oi": oi,
        "attainable": attainable,
        # flops / latency may round above the bound computed another way
        "achieved": min(result["flops"] / result["latency"], attainable),
        "bound": "memory" if oi < peak / bw else "compute",
    }


def evaluate_cell(totals, phase, hw, s, f, bw) -> tuple[dict, dict, dict]:
    """(result, energy, roofline point) of the sweep cell (phase, S, f, BW)
    from its phase's totals."""
    result = cell_result(totals, hw.fabric, f, bw, hw.onchip_bandwidth)
    energy = cell_energy(result, phase, hw, s)
    roof = cell_roofline(result, peak_flops(hw.fabric, f), bw)
    return result, energy, roof
