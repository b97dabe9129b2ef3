"""Buffer hierarchy: tiling, and one GEMM's or one phase's counts.

Each core owns one local SRAM buffer that feeds its arrays; all cores
share one global buffer that double-buffers external-memory transfers.
`PhaseTotals` is one flat record of the integer counts that latency and
energy read: compute cycles, MACs, external and on-chip bytes, and the
reads and writes of each buffer level.  `traffic` fills it for one GEMM
under a tiling plan: its cycles come from `dataflow.analytic_cycles`,
its local-buffer counts from `dataflow.matmul_local_accesses`, and it
counts the global-buffer reads and writes itself and derives the
on-chip and external bytes from them.

`phase_totals` fixes a phase's counts from the trace, the fabric and the
local buffer size alone, as the field-wise sum of each distinct GEMM's
`traffic` under its `plan_tiling` plan.  No clock or bandwidth enters
them, so a sweep computes them once per (phase, S) and applies the
clock and the bandwidths to each (f, BW) cell in closed form
(`sweep.evaluate_point`).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .dataflow import (ArraySpec, FabricSpec, analytic_cycles,
                       matmul_local_accesses)
from .workload import MatmulDims, PhaseTrace


class TilingError(ValueError):
    """Local buffer cannot hold even a minimal double-buffered tile set."""


class Buffers(namedtuple("Buffers", ("local", "global_"))):
    """Capacities in bytes: one core's local buffer, the shared global one."""

    __slots__ = ()


class TilingPlan(namedtuple("TilingPlan", ("tile_m", "tile_k", "tile_n"))):
    __slots__ = ()


class PhaseTotals(namedtuple("PhaseTotals", (
        "compute_cycles", "macs", "dram_bytes", "onchip_bytes",
        "local_reads", "local_writes", "global_reads", "global_writes"))):
    """The frequency- and bandwidth-free integer counts of one phase, or
    of one GEMM, at one local size: cycles, MACs, external and on-chip
    bytes, and element reads and writes of the local and global buffers."""

    __slots__ = ()


def tile_set_bytes(tm: int, tk: int, tn: int, b: int) -> int:
    # resident weight tile plus double-buffered input and output tiles
    return b * (tk * tn + 2 * tm * tk + 2 * tm * tn)


def _snap_up(floor: int, dim: int) -> int:
    """The smallest tile size for a dim (a power of two below it, or dim
    itself) that is at least `floor`, which is at most dim."""
    return min(dim, 1 << (floor - 1).bit_length())


def _snap_down(limit: int, dim: int) -> int:
    """The largest tile size for a dim (a power of two below it, or dim
    itself) that is at most `limit`; 0 when limit < 1."""
    if limit >= dim:
        return dim
    return 1 << (limit.bit_length() - 1) if limit >= 1 else 0


def plan_tiling(m: MatmulDims, capacity: int, bytes_per_element: int,
                array: ArraySpec) -> TilingPlan:
    """Capacity-feasible plan maximizing weight reuse.

    Deterministic search over power-of-two tile dims clipped to (M, K, N),
    lexicographically maximizing (tile_k * tile_n, tile_m, tile_n, tile_k).
    Weight tiles span whole array folds (tile_k >= rows, tile_n >= cols
    unless the matmul is smaller) so each weight loads into the arrays
    once, and plans that stream at least an array's worth of rows per
    tile (tile_m >= rows) are preferred so pipeline fill amortizes; the
    row preference is dropped when capacity cannot afford it.

    Only tile_k is enumerated.  For a fixed tile_k the objective grows
    with tile_n and the tile set's bytes are linear in it, so the widest
    tile_n that fits beside the smallest tile_m wins; it, and then the
    widest tile_m beside it, are bounds snapped down to tile sizes.
    """
    b = bytes_per_element
    elements = capacity // b  # most tile-set elements the buffer holds
    tk_min = _snap_up(min(m.K, array.rows), m.K)
    tk_cands = []
    tk = tk_min
    while tk < m.K:
        tk_cands.append(tk)
        tk *= 2
    tk_cands.append(m.K)
    tn_min = _snap_up(min(m.N, array.cols), m.N)
    for m_floor in (min(m.M, array.rows), 1):
        tm_min = _snap_up(m_floor, m.M)
        best = None
        for tk in tk_cands:
            tn = _snap_down((elements - 2 * tm_min * tk) // (tk + 2 * tm_min),
                            m.N)
            if tn < tn_min:
                continue
            tm = _snap_down((elements - tk * tn) // (2 * (tk + tn)), m.M)
            key = (tk * tn, tm, tn, tk)
            if best is None or key > best:
                best = key
        if best is not None:
            _, tm, tn, tk = best
            return TilingPlan(tile_m=tm, tile_k=tk, tile_n=tn)
    raise TilingError(
        f"local buffer of {capacity} bytes cannot hold a minimal "
        f"double-buffered tile set of "
        f"{tile_set_bytes(1, tk_min, tn_min, b)} bytes")


def capped_dims(m: MatmulDims, capacity: int, bytes_per_element: int,
                array: ArraySpec) -> MatmulDims:
    """`m` with K and N cut to where `plan_tiling` stops reading them, so
    it plans or rejects the result exactly as it does `m`.

    Past the power of two at or above rows (cols), the smallest tile_k
    (tile_n) is that power.  Each tile_n bound falls as tile_k or tile_m
    grows, so past the smallest tile_k's beside tile_m = 1 no snap reads
    N; no tile_k past the same bound for the smallest tile_n fits.  Each
    capped dim is monotone in K and in N: a dim is min(dim, its cap), and
    its cap never rises as the other dim's smallest tile grows.
    """
    elements = capacity // bytes_per_element
    tk_min = _snap_up(min(m.K, array.rows), m.K)
    tn_min = _snap_up(min(m.N, array.cols), m.N)
    k_cap = max(1 << (array.rows - 1).bit_length(),
                (elements - 2 * tn_min) // (tn_min + 2) + 1)
    n_cap = max(1 << (array.cols - 1).bit_length(),
                (elements - 2 * tk_min) // (tk_min + 2) + 1)
    return MatmulDims(m.M, min(m.K, k_cap), min(m.N, n_cap))


def traffic(m: MatmulDims, plan: TilingPlan, bytes_per_element: int,
            fabric: FabricSpec) -> PhaseTotals:
    """Every count of one matmul under a tiling plan.

    Weight tiles are fetched once (weight-stationary); the input panel is
    re-read from the global buffer for every column tile, but cores sweep
    distinct column tiles concurrently, so external memory sees the panel
    once per wave of `cores` tiles.  K-fold partial sums stay in the
    local buffers.

    The global buffer writes what external memory sends it (inputs per
    wave, weights) and the outputs the local buffers return; it reads
    what it feeds the local buffers (inputs per tile, weights) and the
    outputs it writes back.  Outputs cross each level once, so the
    external bytes are the global writes, and the on-chip bytes the
    global reads, times the element size.
    """
    inputs, weights, outputs = m.M * m.K, m.K * m.N, m.M * m.N
    n_tiles = -(-m.N // plan.tile_n)  # ceil in exact integers
    waves = -(-n_tiles // fabric.cores)
    global_reads = inputs * n_tiles + weights + outputs
    global_writes = inputs * waves + weights + outputs
    local_reads, local_writes = matmul_local_accesses(m, fabric.array)
    return PhaseTotals(
        compute_cycles=analytic_cycles(m, fabric).compute_cycles,
        macs=m.M * m.K * m.N,
        dram_bytes=global_writes * bytes_per_element,
        onchip_bytes=global_reads * bytes_per_element,
        local_reads=local_reads,
        local_writes=local_writes,
        global_reads=global_reads,
        global_writes=global_writes,
    )


def affine_extent(m: MatmulDims, plan: TilingPlan,
                  array: ArraySpec) -> tuple[int, int]:
    """The last K, and the last N, up to which each `traffic` count of `m`
    under `plan` is affine in that dim: it reads K only through
    ceil(K / rows), N only through ceil(N / cols) and ceil(N / tile_n),
    and has K or N as one factor at most in every other term."""
    rows, cols = array
    return (-(-m.K // rows) * rows,  # next multiples, in exact integers
            min(-(-m.N // cols) * cols, -(-m.N // plan.tile_n) * plan.tile_n))


def sum_totals(terms: Iterable[tuple[PhaseTotals, int]]) -> PhaseTotals:
    """The field-wise, count-weighted sum of one or more (totals, count)
    pairs: a trace's totals from the `traffic` of each of its GEMMs, or
    one part's sum plus another's.

    Every count is an integer, so the sum is exact in any order.
    """
    scaled = [[x * n for x in totals] for totals, n in terms]
    return PhaseTotals._make(map(sum, zip(*scaled)))


def phase_totals(trace: PhaseTrace, fabric: FabricSpec, capacity: int,
                 bytes_per_element: int) -> PhaseTotals:
    """Every count of one phase with a local buffer of `capacity` bytes;
    raises the TilingError of the first GEMM in trace order that no tile
    set fits, which gives the buffer size and that GEMM's minimal
    tile-set bytes."""
    b = bytes_per_element
    return sum_totals([
        (traffic(m, plan_tiling(m, capacity, b, fabric.array), b, fabric),
         count)
        for m, count in trace.matmuls.items()])
