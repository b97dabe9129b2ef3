"""The `sweep`, `report` and `roofline` commands.  Reports are per-metric
grid CSVs, a roofline CSV, and a JSON summary with argmin cells, contour
levels and bound-transition frequencies (`summary_dict`), every text
built and checked here, which `cli.main` writes (`sweep.emit_reports`)."""

from __future__ import annotations

from math import isfinite
from pathlib import Path

from .config import GB, KIB, MHZ
from .sweep import (METRICS, SweepRecord, SweepResult, argmin, contour_levels,
                    json_text, label, output_text, run_sweep)

SCHEMA_VERSION = 1
DECODE_CONVENTION = "per_output_token_at_fixed_step"

# The metrics whose argmin cell the summary gives, with `report`'s label.
ARGMIN_METRICS = {"latency": "latency", "total_energy": "total energy",
                  "edp": "EDP"}


def _fmt(value: float) -> str:
    """The text of every grid and roofline float, which must be finite."""
    if not isfinite(value):
        raise ValueError(value)
    return repr(float(value))


def _grid_csv(block: tuple[SweepRecord, ...], metric: str, phase: str,
              bw: float) -> str:
    value = METRICS[metric]
    lines = ["metric,phase,bandwidth",
             f"{metric},{phase},{_fmt(bw)}",
             "S_bytes,f_hz,value"]
    lines += [f"{r.s},{_fmt(r.f)},"
              f"{_fmt(value(r)) if r.ok else 'nan'}" for r in block]
    return "\n".join(lines) + "\n"


ROOFLINE_HEADER = "bandwidth,S_bytes,f_hz,oi,attainable,achieved,bound"


def roofline_row(r: SweepRecord) -> str:
    """One evaluated record's roofline point, in ROOFLINE_HEADER order."""
    return (f"{_fmt(r.bw)},{r.s},{_fmt(r.f)},"
            f"{_fmt(r.oi)},{_fmt(r.attainable)},{_fmt(r.achieved)},"
            f"{r.ridge_side}")


def _roofline_csv(result: SweepResult) -> str:
    lines = ["phase," + ROOFLINE_HEADER]
    lines += [f"{r.phase},{roofline_row(r)}"
              for r in result.records if r.ok]
    return "\n".join(lines) + "\n"


def summary_dict(result: SweepResult, decode_step: int) -> dict:
    summary: dict = {
        "schema_version": SCHEMA_VERSION,
        "decode_convention": DECODE_CONVENTION,
        "decode_step": decode_step,
        "complete": result.complete,
        "record_count": len(result.records),
        "grids": {},
    }
    for phase in result.spec.phases:
        for bw in result.spec.bw_values:
            key = f"{phase}@{round(bw / GB)}GBps"
            # the lowest frequency at which each S is memory-bound, if any
            lowest: dict[int, float] = {}
            block = result.select(phase, bw)
            for r in block:  # f ascends within each S
                if r.ok and r.memory_bound:
                    lowest.setdefault(r.s, r.f / MHZ)
            entry: dict = {"bound_transition_mhz": {
                str(s): lowest.get(s) for s in result.spec.s_values}}
            for metric in ARGMIN_METRICS:
                cell = argmin(block, metric)  # None: no finite cell
                entry[f"{metric}_argmin"] = None if cell is None else {
                    "S_bytes": cell[0], "f_hz": cell[1]}
                entry[f"{metric}_contour_levels"] = (
                    [] if cell is None else contour_levels(block, metric))
            summary["grids"][key] = entry
    return summary


def report_files(result: SweepResult, out_dir: str | Path,
                 summary: dict) -> dict[Path, str | None]:
    """The directory `out_dir` (None), then the texts of its grid CSVs,
    roofline CSV and `summary`; OutputError if one cannot be built."""
    out = Path(out_dir)
    builds = {out / f"{metric}_{phase}_bw{round(bw / GB)}.csv":
              (_grid_csv, result.select(phase, bw), metric, phase, bw)
              for metric in METRICS for phase in result.spec.phases
              for bw in result.spec.bw_values}
    builds[out / "roofline.csv"] = (_roofline_csv, result)
    builds[out / "summary.json"] = (json_text, summary)
    return {out: None, **{path: output_text(f"write {path}", *build)
                          for path, build in builds.items()}}


def _failure(result: SweepResult) -> str | None:
    """None for a complete grid; else how many cells failed."""
    if result.complete:
        return None
    return (f"{sum(not r.ok for r in result.records)} design points could "
            "not be evaluated")


def cmd_sweep(args, spec, hw, model, req) -> tuple[str, dict, str | None]:
    result = run_sweep(spec, hw, model, req)
    files = report_files(result, args.out,
                         summary_dict(result, req.decode_step))
    return (f"evaluated {len(result.records)} records, wrote "
            f"{len(files) - 1} files to {args.out}\n", files, _failure(result))


def cmd_roofline(args, spec, *run) -> tuple[str, dict, str | None]:
    result = run_sweep(spec._replace(phases=(args.phase,)), *run)
    points = [r for r in result.records if r.ok]
    text = output_text("print the roofline", lambda: "\n".join(
        [ROOFLINE_HEADER, *map(roofline_row, points), ""]))
    return text, {}, _failure(result)


def cmd_report(args, spec, hw, model, req) -> tuple[str, dict, str | None]:
    result = run_sweep(spec, hw, model, req)
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
    files = report_files(result, args.out, summary) if args.out else {}
    if files:  # the directory, then its files
        lines.append(f"wrote {len(files) - 1} files to {args.out}")
    return "\n".join([*lines, ""]), files, _failure(result)
