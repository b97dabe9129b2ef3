"""Calibration of the SRAM energy constants against argmin targets.

Deterministic greedy coordinate search over two fields of
`config.HardwareConfig`, `sram_leakage_per_byte` and
`sram_access_energy_ref`; a trial is `hw` with both replaced.  Steps are
multiplicative, and only a strict improvement in grid-step displacement
of the decode EDP argmin from the target cell, which `cli.cmd_calibrate`
keeps on the grid, is accepted; a trial that leaves no decode EDP
finite, so has no argmin, counts as an evaluation but is skipped; the
search stops at a fixed point.  Started from constants that already
achieve the minimum displacement, it returns them unchanged.  The energy
constants never touch cycles or traffic, so every trial re-evaluates one
(phase, S) table.
"""

from __future__ import annotations

from collections import namedtuple

from .config import KIB, HardwareConfig
from .memory import TilingError
from .sweep import (OutputError, SweepResult, SweepSpec, argmin,
                    evaluate_sweep, phase_table)
from .workload import InferenceRequest, ModelSpec

STEP_FACTORS = (4.0, 2.0, 1.5, 1.25)
MAX_ROUNDS = 20


class CalibrationTarget(namedtuple("CalibrationTarget", ("s_bytes", "f_hz"))):
    """The cell at which the decode EDP argmin is wanted."""

    __slots__ = ()


class CalibrationOutcome(namedtuple("CalibrationOutcome", (
        "leakage_per_byte",
        "access_energy_ref",
        "displacement",  # grid steps from target, summed over both axes
        "achieved_s",
        "achieved_f",
        "evaluations",
))):
    __slots__ = ()


def _displacement(result: SweepResult,
                  target: CalibrationTarget) -> tuple[int, int, float] | None:
    """(grid steps from `target`, S, f) of the decode EDP argmin, or None
    if no decode EDP is finite."""
    spec = result.spec
    cell = argmin(result.select("decode", spec.bw_values[0]), "edp")
    if cell is None:
        return None
    s_min, f_min = cell
    steps = (abs(spec.s_values.index(s_min) - spec.s_values.index(target.s_bytes))
             + abs(spec.f_values.index(f_min) - spec.f_values.index(target.f_hz)))
    return steps, s_min, f_min


def calibrate(hw: HardwareConfig, spec: SweepSpec, model: ModelSpec,
              req: InferenceRequest,
              target: CalibrationTarget) -> CalibrationOutcome:
    """The search from `hw`'s two SRAM constants, every other field of
    `hw` fixed, decode at `req.decode_step`; TilingError if no decode
    cell of the grid fits a tile set, OutputError if the start constants
    leave no decode EDP finite."""
    leakage = hw.sram_leakage_per_byte
    access = hw.sram_access_energy_ref
    evals = 0
    # the search reads one S x f block: decode at the first BW
    spec = spec._replace(phases=("decode",), bw_values=spec.bw_values[:1])
    table = phase_table(spec, hw, model, req)
    if all(isinstance(totals, str) for totals in table.values()):
        raise TilingError("no decode cell can be evaluated: "
                          f"{table['decode', spec.s_values[-1]]}")

    def measure(lk: float, ac: float) -> tuple[int, int, float] | None:
        nonlocal evals
        evals += 1
        trial = hw._replace(sram_leakage_per_byte=lk,
                            sram_access_energy_ref=ac)
        return _displacement(evaluate_sweep(spec, trial, table), target)

    start = measure(leakage, access)
    if start is None:
        raise OutputError("cannot calibrate: no decode EDP is finite")
    best_disp, best_s, best_f = start
    for _ in range(MAX_ROUNDS):
        if best_disp == 0:
            break
        # neighbors in order; the first strict improvement is taken
        trials = ((leakage * d, access) if coord == "leakage"
                  else (leakage, access * d)
                  for coord in ("leakage", "access")
                  for factor in STEP_FACTORS for d in (factor, 1.0 / factor))
        for lk, ac in trials:
            trial = measure(lk, ac)  # None, no decode EDP finite: not a step
            if trial is not None and trial[0] < best_disp:
                best_disp, best_s, best_f = trial
                leakage, access = lk, ac
                break
        else:
            break
    return CalibrationOutcome(
        leakage_per_byte=leakage,
        access_energy_ref=access,
        displacement=best_disp,
        achieved_s=best_s,
        achieved_f=best_f,
        evaluations=evals,
    )


def constants_file_text(outcome: CalibrationOutcome,
                        target: CalibrationTarget,
                        ref_size: int, exponent: float) -> str:
    lines = [
        "# SRAM energy calibration constants",
        "# target: decode edp argmin at "
        f"(S={target.s_bytes} B, f={target.f_hz:g} Hz)",
        f"# achieved: (S={outcome.achieved_s} B, f={outcome.achieved_f:g} Hz), "
        f"displacement {outcome.displacement} grid step(s)",
        f"hw.sram_leakage_w_per_byte = {outcome.leakage_per_byte!r}",
        f"hw.sram_access_energy_j = {outcome.access_energy_ref!r}",
        f"hw.sram_access_ref_kb = {ref_size / KIB!r}",
        f"hw.sram_access_exponent = {exponent!r}",
    ]
    return "\n".join(lines) + "\n"
