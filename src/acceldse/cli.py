"""Command-line entry point: simulate, sweep, roofline, calibrate, report.

`VERBS` declares every verb once: the module that holds its code, its
help text and its options, each with the keyword arguments of argparse's
`add_argument`.  `build_parser` builds argparse's parser from it, and
`_plain_args` reads a plain command line (the verb, then `--flag value`
pairs) from it directly, so `main` loads argparse only for `--help` and
for a command line that `_plain_args` declines, which argparse then
parses or rejects with its usage error.

`main` loads the configured run (`sweep.load_run`), imports the module
of the verb it runs, which holds the code only that verb runs
(`simulate`; `calibrate`; `report` for `sweep`, `report` and
`roofline`), and calls its `cmd_<verb>(args, spec, hw, model, req)`:
(stdout text, failure), where failure is the message of the one
`error:` line of a command that did not do all it was asked, or None.
Only `main` prints, and it alone picks the exit code.  `sweep` and
`report` evaluate the configured phases; every other command evaluates
only the phase it names: `simulate` and `roofline` their `--phase`,
`calibrate` decode.  Each command builds every text it outputs, which
`sweep.output_text` checks, before any of them is written or printed."""

from __future__ import annotations

import os
import sys
from importlib import import_module

from .config import ConfigError
from .memory import TilingError
from .sweep import OutputError, load_run
from .workload import PHASES

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_CONFIG = 2

_COMMON = {
    "--config": dict(required=True, help="config file path"),
    "--override": dict(action="append", metavar="KEY=VALUE",
                       help="config override, repeatable, last writer wins"),
    "--jobs": dict(type=int, default=1,
                   help="accepted and ignored: evaluation is serial, "
                        "and outputs are identical for any N"),
}
_PHASE = {"--phase": dict(choices=PHASES, default="decode")}

# verb: (the module that holds its code, its help, its options in --help
# order, each flag with the keyword arguments of `add_argument`)
VERBS = {
    "simulate": ("simulate", "evaluate one design point", {
        **_COMMON, **_PHASE,
        "--format": dict(choices=("table", "json", "csv"), default="table"),
        "--decode-mode": dict(choices=("step", "mean"), default="step",
                              help="decode reporting: fixed step (default) "
                                   "or mean over all generated tokens"),
    }),
    "sweep": ("report", "run the full design-space sweep", {
        **_COMMON, "--out": dict(required=True, help="output directory"),
    }),
    "roofline": ("report", "print roofline points for a phase",
                 {**_COMMON, **_PHASE}),
    "calibrate": ("calibrate",
                  "search SRAM constants for an EDP argmin target", {
        **_COMMON,
        "--target-s-kb": dict(type=float, default=32.0),
        "--target-f-mhz": dict(type=float, default=600.0),
        "--out": dict(help="constants file to write"),
    }),
    "report": ("report", "run the sweep and print a summary", {
        **_COMMON, "--out": dict(help="also write report files here"),
    }),
}


def build_parser():
    """The argparse parser of `VERBS`."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="acceldse",
        description="Design-space exploration for LLM inference on a "
                    "systolic-array accelerator")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, summary, options) in VERBS.items():
        p = sub.add_parser(verb, help=summary)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


class _Args:
    """The fields of a plain command line, as `argparse.Namespace` holds
    them, without importing argparse."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


def _plain_args(argv: list[str]) -> _Args | None:
    """The fields `build_parser().parse_args(argv)` gives, if `argv` is a
    verb and then `--flag value` pairs, each flag one of the verb's in
    full, each value starting with no `-` and accepted by its option's
    `type` and `choices`, and each required option given; else None."""
    if len(argv) % 2 == 0 or argv[0] not in VERBS:
        return None
    options = VERBS[argv[0]][2]
    fields = {flag: kwargs.get("default") for flag, kwargs in options.items()}
    for flag, text in zip(argv[1::2], argv[2::2]):
        kwargs = options.get(flag)
        if kwargs is None or text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        if kwargs.get("action") == "append":
            value = [*(fields[flag] or ()), value]
        fields[flag] = value
    if any(kwargs.get("required") and flag not in argv[1::2]
           for flag, kwargs in options.items()):
        return None
    return _Args(verb=argv[0], **{flag[2:].replace("-", "_"): value
                                  for flag, value in fields.items()})


def main(argv: list[str] | None = None) -> int:
    """Run the command line `argv` (default `sys.argv[1:]`): print the
    verb's stdout text, then the `error:` line of its failure, if any,
    and return the exit code.

    A command line `_plain_args` declines goes to argparse, which parses
    it or prints the help or a usage error and exits."""
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        configured = load_run(args.config, args.override or [])
        module = import_module(f".{VERBS[args.verb][0]}", __package__)
        text, failure = getattr(module, f"cmd_{args.verb}")(args, *configured)
        # a buffered write fails here, not after `run`'s os._exit; print,
        # unlike sys.stdout.flush(), skips a closed stdout (None)
        print(text, end="", flush=True)
        if failure is None:
            return EXIT_OK
        print(f"error: {failure}", file=sys.stderr)
        return EXIT_FAILURE
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


def run() -> None:
    """`acceldse` and `python -m acceldse.cli`: `main`, then `os._exit`
    with its exit code, which skips the interpreter's teardown (about a
    tenth of a command's CPU time) and every `atexit` hook."""
    code = main()
    print(end="", file=sys.stderr, flush=True)
    os._exit(code)


if __name__ == "__main__":
    run()
