"""Roofline points and S x f metric grids for isoplots and argmins.

A phase's operational intensity is fixed by its (phase, S) terms; the
roofline point at one (f, BW) cell is computed from it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .dataflow import FabricSpec
from .memory import PhaseResult, PhaseTerms


class RooflinePoint(namedtuple("RooflinePoint", (
        "oi",  # flops per external-memory byte
        "attainable",  # flops/s under min(peak, bw * oi)
        "achieved",  # flops/s actually reached
        "bound",  # "memory" below the ridge point peak / bw, else "compute"
))):
    __slots__ = ()


def peak_flops(fabric: FabricSpec, frequency: float) -> float:
    return fabric.macs_per_cycle * 2 * frequency


def operational_intensity(terms: PhaseTerms) -> float:
    """Flops per external-memory byte; no clock or bandwidth enters."""
    if terms.traffic.dram_bytes <= 0:
        raise ValueError("roofline undefined for zero external traffic")
    return terms.flops / terms.traffic.dram_bytes


def roofline(result: PhaseResult, oi: float, peak: float,
             bw: float) -> RooflinePoint:
    """The roofline point of a result whose operational intensity is `oi`."""
    attainable = min(peak, bw * oi)
    achieved = result.flops / result.latency
    bound = "memory" if oi < peak / bw else "compute"
    return RooflinePoint(oi, attainable, achieved, bound)


class MetricGrid(namedtuple("MetricGrid", (
        "metric",  # a name in sweep.METRICS
        "s_axis",  # bytes, ascending
        "f_axis",  # Hz, ascending
        "values",  # [s_index][f_index], NaN = error cell
))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.values) != len(self.s_axis) or any(
                len(row) != len(self.f_axis) for row in self.values):
            raise ValueError("grid shape must be |s_axis| x |f_axis|")
        return self

    def value(self, s: int, f: float) -> float:
        return self.values[self.s_axis.index(s)][self.f_axis.index(f)]

    def argmin(self) -> tuple[int, float]:
        """Cell with the smallest value; ties break to smallest S then f."""
        best = None
        best_cell = None
        for si, s in enumerate(self.s_axis):
            for fi, f in enumerate(self.f_axis):
                v = self.values[si][fi]
                if math.isnan(v):
                    continue
                if best is None or v < best:
                    best, best_cell = v, (s, f)
        if best_cell is None:
            raise ValueError("grid has no finite cells")
        return best_cell

    def contour_levels(self) -> list[float]:
        """Ten evenly spaced levels from grid min to max (for isoplots)."""
        finite = [v for row in self.values for v in row if not math.isnan(v)]
        if not finite:
            raise ValueError("grid has no finite cells")
        lo, hi = min(finite), max(finite)
        step = (hi - lo) / 9
        return [lo + i * step for i in range(10)]

