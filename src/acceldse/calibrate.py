"""Calibration of the SRAM energy constants against argmin targets, and
the `calibrate` command that runs it (`cmd_calibrate`).

Deterministic greedy coordinate search over two fields of
`config.HardwareConfig`, `sram_leakage_per_byte` and
`sram_access_energy_ref`; the search's state is one record, and each
trial is the current best with one constant scaled.  Steps are
multiplicative, and only a strict improvement in grid-step displacement
of the decode EDP argmin from the target `(S, f)` cell, which
`cmd_calibrate` keeps on the grid, is accepted; a trial that leaves
no decode EDP finite, so has no argmin, counts as an evaluation but is
skipped; the search stops at a fixed point and returns the calibrated
record.  Started from constants that already achieve the minimum
displacement, it returns `hw` unchanged.  The energy constants never
touch cycles or traffic, so every trial re-evaluates one (phase, S)
table.
"""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path

from .config import KIB, MHZ, ConfigError, HardwareConfig, SweepSpec
from .memory import TilingError
from .sweep import (OutputError, SweepResult, argmin, evaluate_sweep, label,
                    phase_table)
from .workload import InferenceRequest, ModelSpec

STEP_FACTORS = (4.0, 2.0, 1.5, 1.25)
MAX_ROUNDS = 20


class CalibrationOutcome(namedtuple("CalibrationOutcome", (
        "hw",  # the start record with the two constants found
        "displacement",  # grid steps from target, summed over both axes
        "achieved",  # the (S, f) of the decode EDP argmin at `hw`
        "evaluations",
))):
    """The search's result: the calibrated `config.HardwareConfig`, how
    far its decode EDP argmin lies from the target, that argmin's cell,
    and the number of trials evaluated."""

    __slots__ = ()


def _displacement(result: SweepResult, target: tuple[int, float]
                  ) -> tuple[int, tuple[int, float]] | None:
    """(grid steps from `target`, (S, f)) of the decode EDP argmin of a
    one-block result, or None if no decode EDP is finite."""
    spec = result.spec
    cell = argmin(result.records, "edp")
    if cell is None:
        return None
    steps = sum(abs(axis.index(got) - axis.index(want)) for axis, got, want
                in zip((spec.s_values, spec.f_values), cell, target))
    return steps, cell


def calibrate(hw: HardwareConfig, spec: SweepSpec, model: ModelSpec,
              req: InferenceRequest,
              target: tuple[int, float]) -> CalibrationOutcome:
    """The search from `hw`'s two SRAM constants, every other field of
    `hw` fixed, decode at `req.decode_step`, for the decode EDP argmin at
    the `(S, f)` cell `target`; TilingError if no decode cell of the grid
    fits a tile set, OutputError if `hw` leaves no decode EDP finite."""
    evals = 0
    # the search reads one S x f block: decode at the first BW
    spec = spec._replace(phases=("decode",), bw_values=spec.bw_values[:1])
    table = phase_table(spec, hw, model, req)
    if all(isinstance(totals, str) for totals in table.values()):
        raise TilingError("no decode cell can be evaluated: "
                          f"{table['decode', spec.s_values[-1]]}")

    def measure(trial: HardwareConfig
                ) -> tuple[int, tuple[int, float]] | None:
        nonlocal evals
        evals += 1
        return _displacement(evaluate_sweep(spec, trial, table), target)

    start = measure(hw)
    if start is None:
        raise OutputError("cannot calibrate: no decode EDP is finite")
    (best_disp, best_cell), best = start, hw
    for _ in range(MAX_ROUNDS):
        if best_disp == 0:
            break
        # neighbors in order; the first strict improvement is taken
        trials = (best._replace(**{field: getattr(best, field) * d})
                  for field in ("sram_leakage_per_byte",
                                "sram_access_energy_ref")
                  for factor in STEP_FACTORS for d in (factor, 1.0 / factor))
        for trial in trials:
            found = measure(trial)  # None, no decode EDP finite: not a step
            if found is not None and found[0] < best_disp:
                (best_disp, best_cell), best = found, trial
                break
        else:
            break
    return CalibrationOutcome(best, best_disp, best_cell, evals)


def constants_file_text(outcome: CalibrationOutcome,
                        target: tuple[int, float]) -> str:
    """The constants file of `outcome.hw`'s four SRAM keys."""
    hw, (s_want, f_want), (s_got, f_got) = outcome.hw, target, outcome.achieved
    lines = [
        "# SRAM energy calibration constants",
        f"# target: decode edp argmin at (S={s_want} B, f={label(f_want)} Hz)",
        f"# achieved: (S={s_got} B, f={label(f_got)} Hz), "
        f"displacement {outcome.displacement} grid step(s)",
        f"hw.sram_leakage_w_per_byte = {hw.sram_leakage_per_byte!r}",
        f"hw.sram_access_energy_j = {hw.sram_access_energy_ref!r}",
        f"hw.sram_access_ref_kb = {hw.sram_ref_size / KIB!r}",
        f"hw.sram_access_exponent = {hw.sram_access_exponent!r}",
    ]
    return "\n".join(lines) + "\n"


def cmd_calibrate(args, spec, hw, model, req) -> tuple[str, str | None]:
    # whole bytes, as the S axis is parsed; nan and inf stay off the grid
    s_bytes = args.target_s_kb * KIB // 1
    f_hz = args.target_f_mhz * MHZ
    for flag, value, axis in (
            ("--target-s-kb", s_bytes, spec.s_values),
            ("--target-f-mhz", f_hz, spec.f_values)):
        if value not in axis:
            raise ConfigError(f"bad value for {flag}: the calibration target "
                              f"must lie on the sweep grid")
    target = (int(s_bytes), f_hz)
    outcome = calibrate(hw, spec, model, req, target)
    text = constants_file_text(outcome, target)
    if args.out:
        Path(args.out).write_text(text)
        text = f"wrote constants to {args.out}\n"
    s_got, f_got = outcome.achieved
    text += (f"achieved argmin (S={s_got} B, f={label(f_got)} Hz) after "
             f"{outcome.evaluations} evaluations; displacement "
             f"{outcome.displacement} grid step(s)\n")
    if outcome.displacement == 0:
        return text, None
    return text, ("target argmin not reachable; best displacement "
                  f"{outcome.displacement} grid step(s)")
