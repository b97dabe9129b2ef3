"""Roofline points: operational intensity, attainable and achieved flops/s.

A phase's operational intensity is fixed by its (phase, S) terms; the
roofline point at one (f, BW) cell is computed from it.
"""

from __future__ import annotations

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
