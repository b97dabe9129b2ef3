"""Command-line entry point: simulate, sweep, roofline, calibrate, report.

`sweep` and `report` evaluate the configured phases; every other command
evaluates only the phase it names: `simulate` and `roofline` their
`--phase`, `calibrate` decode.  Each command builds every text it
outputs, which `sweep.output_text` checks, before it prints or writes
any of them."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (GB, KIB, MHZ, ConfigError, SweepSpec, apply_overrides,
                     load_hardware, load_model_spec, load_request,
                     load_sweep_axes, parse_config)
from .energy import by_component, sram_access_energy
from .memory import PhaseTotals, TilingError
from .sweep import (ARGMIN_METRICS, ROOFLINE_HEADER, OutputError, SweepRecord,
                    SweepResult, decode_mean_over_generation, emit_reports,
                    json_text, label, output_text, roofline_row, run_sweep,
                    summary_dict)
from .workload import PHASES

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_CONFIG = 2

# The columns of `simulate --format csv`: names from the JSON record.
CSV_FIELDS = ("phase", "S_bytes", "f_hz", "bw_bytes_per_s", "bound",
              "latency_s", "compute_time_s", "memory_time_s",
              "compute_cycles", "total_cycles", "compute_fraction",
              "utilization", "dram_bytes", "static_j", "dynamic_j",
              "total_j", "edp_js")


def _load(args):
    """(sweep spec, hardware, model, request) of the configured run, in
    `run_sweep`'s order; every key is parsed once."""
    values = apply_overrides(parse_config(args.config), args.override or [])
    spec = load_sweep_axes(values)
    hw = load_hardware(values)
    try:  # the exponent is positive: the largest buffer costs most
        sram_access_energy(hw, max(*hw.buffers, spec.s_values[-1]))
    except OverflowError:
        raise ConfigError("bad value for hw.sram_access_exponent: "
                          f"{hw.sram_access_exponent!r} overflows the SRAM "
                          "per-access energy") from None
    return spec, hw, load_model_spec(values), load_request(values)


def _record_dict(r: SweepRecord) -> dict:
    """The JSON record of one evaluated cell."""
    return {
        "point": {"S_bytes": r.s, "f_hz": r.f, "bw_bytes_per_s": r.bw},
        "phase": r.phase,
        "compute_cycles": r.totals.compute_cycles,
        "compute_time_s": r.compute_time,
        "memory_time_s": r.memory_time,
        "latency_s": r.latency,
        "total_cycles": r.total_cycles,
        "compute_fraction": r.compute_fraction,
        "utilization": r.energy.utilization,
        "bound": "memory" if r.memory_bound else "compute",
        "flops": r.flops,
        # the six traffic counts: every PhaseTotals field after the MACs
        "traffic": dict(zip(PhaseTotals._fields[2:], r.totals[2:])),
        "energy": {"static_j": r.static_j, "dynamic_j": r.energy.dynamic_j,
                   "total_j": r.total_j, "dynamic_power_w": r.dynamic_power_w,
                   "by_component": by_component(r.energy, r.latency)},
        "edp_js": r.edp,
        "roofline": {"oi": r.oi, "attainable": r.attainable,
                     "achieved": r.achieved, "bound": r.ridge_side},
    }


def _table_text(d: dict) -> str:
    """The `simulate` table of a JSON record, one padded label a line."""
    point, energy, roof = d["point"], d["energy"], d["roofline"]
    rows = [
        ("design point", f"S={label(point['S_bytes'] / KIB)} KB  "
                         f"f={label(point['f_hz'] / MHZ)} MHz  "
                         f"BW={label(point['bw_bytes_per_s'] / GB)} GB/s"),
        ("phase", d["phase"]), ("bound", d["bound"]),
        ("latency", f"{d['latency_s']:.6e} s"),
        ("compute time", f"{d['compute_time_s']:.6e} s"),
        ("memory time", f"{d['memory_time_s']:.6e} s"),
        ("compute cycles", d["compute_cycles"]),
        ("total cycles", f"{d['total_cycles']:.6e}"),
        ("compute fraction", f"{d['compute_fraction']:.4f}"),
        ("utilization", f"{d['utilization']:.4f}"),
        ("dram bytes", d["traffic"]["dram_bytes"]),
        ("onchip bytes", d["traffic"]["onchip_bytes"]),
        ("static energy", f"{energy['static_j']:.6e} J"),
        ("dynamic energy", f"{energy['dynamic_j']:.6e} J"),
        ("total energy", f"{energy['total_j']:.6e} J"),
        ("dynamic power", f"{energy['dynamic_power_w']:.6e} W"),
        ("EDP", f"{d['edp_js']:.6e} J*s"),
        ("roofline", f"OI={roof['oi']:.4f} fl/B  "
                     f"attainable={roof['attainable']:.6e}  "
                     f"achieved={roof['achieved']:.6e}  bound={roof['bound']}"),
    ]
    mean = d.get("decode_mean")
    rows += [("mean over gen", f"{mean['mean_latency_s']:.6e} s/token, "
              f"{mean['mean_total_j']:.6e} J/token "
              f"({int(mean['steps'])} steps)")] if mean else []
    return "".join(f"{name:<17}{value}\n" for name, value in rows)


def _csv_text(d: dict) -> str:
    flat = {**d, **d["point"], **d["traffic"], **d["energy"]}
    return "".join(",".join(row) + "\n" for row in (
        CSV_FIELDS, [str(flat[name]) for name in CSV_FIELDS]))


def cmd_simulate(args) -> int:
    if args.decode_mode == "mean" and (args.phase == "prefill"
                                       or args.format == "csv"):
        raise ConfigError("--decode-mode mean needs --phase decode and "
                          "--format table or json")
    _, hw, model, req = _load(args)
    spec = SweepSpec((hw.buffers.local,), (hw.frequency,),
                     (hw.ext_bandwidth,), (args.phase,))
    [record] = run_sweep(spec, hw, model, req).records
    if not record.ok:
        raise TilingError(record.error)
    d = _record_dict(record)
    if args.decode_mode == "mean":
        d["decode_mean"] = decode_mean_over_generation(hw, model, req)
    # every format prints numbers of the record: one check serves them all
    text = output_text("print the record", json_text, d)
    print(text if args.format == "json" else
          (_csv_text if args.format == "csv" else _table_text)(d), end="")
    return EXIT_OK


def _exit_code(result: SweepResult) -> int:
    """EXIT_OK for a complete grid; else say how many cells failed."""
    if result.complete:
        return EXIT_OK
    failed = sum(not r.ok for r in result.records)
    print(f"error: {failed} design points could not be evaluated",
          file=sys.stderr)
    return EXIT_FAILURE


def cmd_sweep(args) -> int:
    *run, req = _load(args)
    result = run_sweep(*run, req)
    written = emit_reports(result, args.out,
                           summary_dict(result, req.decode_step))
    print(f"evaluated {len(result.records)} records, "
          f"wrote {len(written)} files to {args.out}")
    return _exit_code(result)


def cmd_roofline(args) -> int:
    spec, *run = _load(args)
    result = run_sweep(spec._replace(phases=(args.phase,)), *run)
    points = [r for r in result.records if r.ok]
    print(output_text("print the roofline", lambda: "\n".join(
        [ROOFLINE_HEADER, *map(roofline_row, points)])))
    return _exit_code(result)


def cmd_calibrate(args) -> int:
    # imported here: no other command needs the search
    from .calibrate import calibrate, constants_file_text

    spec, hw, model, req = _load(args)
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
    print(f"{text}achieved argmin (S={s_got} B, f={label(f_got)} Hz) after "
          f"{outcome.evaluations} evaluations; displacement "
          f"{outcome.displacement} grid step(s)")
    if outcome.displacement > 0:
        print("error: target argmin not reachable; best displacement "
              f"{outcome.displacement} grid step(s)", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_report(args) -> int:
    *run, req = _load(args)
    result = run_sweep(*run, req)
    summary = summary_dict(result, req.decode_step)
    lines = [f"records: {len(result.records)}  complete: {result.complete}",
             f"decode convention: {summary['decode_convention']} "
             f"(step {summary['decode_step']})"]
    for key in sorted(summary["grids"]):
        entry = summary["grids"][key]
        lines.append(f"{key}:")
        for metric, name in ARGMIN_METRICS.items():
            cell = entry[f"{metric}_argmin"]  # None: every cell infeasible
            where = "none" if cell is None else (
                f"S={label(cell['S_bytes'] / KIB)} KB, "
                f"f={label(cell['f_hz'] / MHZ)} MHz")
            lines.append(f"  {name + ' argmin':<20}{where}")
        transitions = {
            f"{label(int(s) / KIB)}KB": (f"{label(mhz)} MHz" if mhz
                                         else "none")
            for s, mhz in entry["bound_transition_mhz"].items()}
        lines.append(f"  memory-bound from   {transitions}")
    if args.out:
        written = emit_reports(result, args.out, summary)
        lines.append(f"wrote {len(written)} files to {args.out}")
    print("\n".join(lines))
    return _exit_code(result)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acceldse",
        description="Design-space exploration for LLM inference on a "
                    "systolic-array accelerator")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="config override, repeatable, last writer wins")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: evaluation is serial, "
                            "and outputs are identical for any N")

    p = sub.add_parser("simulate", help="evaluate one design point")
    common(p)
    p.add_argument("--phase", choices=PHASES, default="decode")
    p.add_argument("--format", choices=("table", "json", "csv"),
                   default="table")
    p.add_argument("--decode-mode", choices=("step", "mean"), default="step",
                   help="decode reporting: fixed step (default) or mean "
                        "over all generated tokens")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run the full design-space sweep")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("roofline", help="print roofline points for a phase")
    common(p)
    p.add_argument("--phase", choices=PHASES, default="decode")
    p.set_defaults(func=cmd_roofline)

    p = sub.add_parser("calibrate",
                       help="search SRAM constants for an EDP argmin target")
    common(p)
    p.add_argument("--target-s-kb", type=float, default=32.0)
    p.add_argument("--target-f-mhz", type=float, default=600.0)
    p.add_argument("--out", help="constants file to write")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("report", help="run the sweep and print a summary")
    common(p)
    p.add_argument("--out", help="also write report files here")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (OSError, OutputError, TilingError) as exc:
        # an output that cannot be written, or no cell that can be evaluated
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OverflowError as exc:
        # counts too large for a float: no one key is at fault
        print(f"error: cannot evaluate: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
