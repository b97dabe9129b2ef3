"""Analytic compute cycles and local-buffer access counts for
weight-stationary systolic arrays.

A matmul is executed as a grid of weight folds: each fold pins one
rows x cols weight tile in an array, streams all M input rows through it,
and drains the pipeline before the next fold is loaded.  Folds are
distributed round-robin across every array in the fabric; M is never
split.  `analytic_cycles` and `matmul_local_accesses` are the closed
forms; the tests pin both exactly to a cycle-by-cycle simulation of one
array (`simulate_cycles` in tests/oracle.py).  Utilization is a phase
quantity, derived in `energy.energy_terms`.
"""

from __future__ import annotations

from collections import namedtuple

from .workload import MatmulDims


class ArraySpec(namedtuple("ArraySpec", ("rows", "cols"))):
    __slots__ = ()


class FabricSpec(namedtuple("FabricSpec", ("cores", "arrays_per_core", "array"))):
    __slots__ = ()

    @property
    def total_arrays(self) -> int:
        return self.cores * self.arrays_per_core

    @property
    def macs_per_cycle(self) -> int:
        return self.total_arrays * self.array.rows * self.array.cols


class CycleEstimate(namedtuple("CycleEstimate", ("compute_cycles",))):
    __slots__ = ()


def fold_count(m: MatmulDims, array: ArraySpec) -> int:
    # -(-a // b) is ceil(a / b) in exact integers, at any size
    return -(-m.K // array.rows) * -(-m.N // array.cols)


def per_fold_cycles(m: MatmulDims, array: ArraySpec) -> int:
    # rows cycles of weight preload (one row per cycle), then M streamed
    # rows plus rows + cols - 2 cycles of pipeline fill/drain.
    return m.M + 2 * array.rows + array.cols - 2


def analytic_cycles(m: MatmulDims, fabric: FabricSpec) -> CycleEstimate:
    rounds = -(-fold_count(m, fabric.array) // fabric.total_arrays)
    return CycleEstimate(rounds * per_fold_cycles(m, fabric.array))


def matmul_local_accesses(m: MatmulDims, array: ArraySpec) -> tuple[int, int]:
    """Closed-form local-buffer (reads, writes) for one matmul, in element
    accesses at the array edge."""
    k_folds = -(-m.K // array.rows)
    n_folds = -(-m.N // array.cols)
    reads = (m.M * m.K * n_folds  # inputs, once per fold-column
             + m.K * m.N  # weights, once
             + m.M * m.N * (k_folds - 1))  # partial sums, per extra K-fold
    writes = m.M * m.N * k_folds  # outputs, once per K-fold
    return reads, writes
