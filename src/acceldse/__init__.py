"""Design-space exploration for LLM inference on systolic-array accelerators."""

from .analysis import Bound, Metric, MetricGrid, MetricPoint, RooflinePoint
from .dataflow import (ArraySpec, CycleEstimate, FabricSpec, analytic_cycles,
                       simulate_cycles)
from .energy import ArrayPower, EnergyBreakdown, GatingPolicy, SramEnergyModel
from .memory import (Buffers, BufferSpec, BufferLevel, ClockSpec, MemorySpec,
                     PhaseResult, PhaseTotals, TilingPlan, TrafficReport,
                     phase_result, phase_totals, plan_tiling, traffic)
from .sweep import DesignPoint, SweepRecord, SweepResult, SweepSpec, run_sweep
from .workload import (InferenceRequest, MatmulDims, ModelSpec, Phase,
                       PhaseTrace, build_decode_trace, build_prefill_trace,
                       flops_of)

__version__ = "0.1.0"

__all__ = [
    "ArrayPower", "ArraySpec", "Bound", "Buffers", "BufferLevel",
    "BufferSpec", "ClockSpec", "CycleEstimate", "DesignPoint",
    "EnergyBreakdown", "FabricSpec", "GatingPolicy", "InferenceRequest",
    "MatmulDims", "MemorySpec", "Metric", "MetricGrid", "MetricPoint",
    "ModelSpec", "Phase", "PhaseResult", "PhaseTotals", "PhaseTrace",
    "RooflinePoint",
    "SramEnergyModel", "SweepRecord", "SweepResult", "SweepSpec",
    "TilingPlan", "TrafficReport", "analytic_cycles", "build_decode_trace",
    "build_prefill_trace", "flops_of", "phase_result", "phase_totals",
    "plan_tiling",
    "run_sweep", "simulate_cycles", "traffic",
]
