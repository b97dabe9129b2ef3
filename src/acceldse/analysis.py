"""Roofline points: attainable and achieved flops/s at one (f, BW) cell.

A phase's operational intensity is one of its (phase, S) terms
(`memory.phase_terms`); the roofline point of each cell is read from it.
"""

from __future__ import annotations

from collections import namedtuple

from .dataflow import FabricSpec
from .memory import PhaseResult


class RooflinePoint(namedtuple("RooflinePoint", (
        "oi",  # flops per external-memory byte
        "attainable",  # flops/s under min(peak, bw * oi)
        "achieved",  # flops/s actually reached
        "bound",  # "memory" below the ridge point peak / bw, else "compute"
))):
    __slots__ = ()


def peak_flops(fabric: FabricSpec, frequency: float) -> float:
    return fabric.macs_per_cycle * 2 * frequency


def roofline(result: PhaseResult, oi: float, peak: float,
             bw: float) -> RooflinePoint:
    """The roofline point of a result whose operational intensity is `oi`."""
    attainable = min(peak, bw * oi)
    achieved = result.flops / result.latency
    bound = "memory" if oi < peak / bw else "compute"
    return RooflinePoint(oi, attainable, achieved, bound)
