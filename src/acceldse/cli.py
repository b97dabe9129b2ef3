"""Command-line entry point: simulate, sweep, roofline, calibrate, report.

`main` imports the module of the verb it runs, which holds the code
only that verb runs (`simulate`; `calibrate`; `report` for `sweep`,
`report` and `roofline`), and calls its `cmd_<verb>`: True if the
command did all it was asked, else False after saying why on stderr.
`sweep` and `report` evaluate the configured phases; every other command
evaluates only the phase it names: `simulate` and `roofline` their
`--phase`, `calibrate` decode.  Each command builds every text it
outputs, which `sweep.output_text` checks, before it prints or writes
any of them."""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from .config import ConfigError
from .memory import TilingError
from .sweep import OutputError
from .workload import PHASES

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_CONFIG = 2


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
    p.set_defaults(module="simulate")

    p = sub.add_parser("sweep", help="run the full design-space sweep")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(module="report")

    p = sub.add_parser("roofline", help="print roofline points for a phase")
    common(p)
    p.add_argument("--phase", choices=PHASES, default="decode")
    p.set_defaults(module="report")

    p = sub.add_parser("calibrate",
                       help="search SRAM constants for an EDP argmin target")
    common(p)
    p.add_argument("--target-s-kb", type=float, default=32.0)
    p.add_argument("--target-f-mhz", type=float, default=600.0)
    p.add_argument("--out", help="constants file to write")
    p.set_defaults(module="calibrate")

    p = sub.add_parser("report", help="run the sweep and print a summary")
    common(p)
    p.add_argument("--out", help="also write report files here")
    p.set_defaults(module="report")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        module = import_module(f".{args.module}", __package__)
        done = getattr(module, f"cmd_{args.verb}")(args)
        return EXIT_OK if done else EXIT_FAILURE
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
