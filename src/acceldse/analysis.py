"""The roofline's compute ceiling: peak flops/s at a clock.

A sweep cell's roofline point (`sweep.SweepRecord`) reads this ceiling,
the cell's external bandwidth and its phase's operational intensity
(`sweep.SweepRecord.oi`).
"""

from __future__ import annotations

from .dataflow import FabricSpec


def peak_flops(fabric: FabricSpec, frequency: float) -> float:
    return fabric.macs_per_cycle * 2 * frequency
