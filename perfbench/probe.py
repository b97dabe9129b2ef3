"""Set-up probe: start an interpreter, import the CLI and load one config.

Usage: python perfbench/probe.py CONFIG [KEY=VALUE ...]

The benchmark times this whole process from start to exit as `setup_s`:
interpreter start, `import acceldse.cli`, and the workload's config read
through the public `acceldse.config` loaders.  It prints nothing.
"""

import sys

import acceldse.cli  # noqa: F401  (the import is what is measured)
from acceldse.config import (apply_overrides, decode_step, load_hardware,
                             load_model_spec, load_request, load_sweep_axes,
                             parse_config)

values = apply_overrides(parse_config(sys.argv[1]), sys.argv[2:])
load_hardware(values)
load_model_spec(values)
load_request(values)
load_sweep_axes(values)
decode_step(values)
