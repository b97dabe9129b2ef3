"""Record the reference outputs the identity gate compares against.

Usage (from the root of a checkout): python3 perfbench/record_references.py

Runs every workload once and writes the exit code and output digests to
`perfbench/references.json`.  The references were recorded at the commit
that defined the benchmark; re-recording them changes what "correct"
means, so only a change that deliberately alters the model's outputs, and
argues for it, may do so.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import Launcher, git_sha
from workloads import HERE, REFERENCES, WORKLOADS, observed_outputs


def main() -> int:
    workdir = HERE / "_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    records = {}
    launcher = Launcher()
    try:
        for workload in WORKLOADS.values():
            out_dir = workdir / "out"
            inv = launcher.run([sys.executable, "-m", "acceldse.cli",
                                *workload.argv(out_dir)], workdir)
            if inv.exit_code != workload.expected_exit:
                print(f"{workload.name}: exit {inv.exit_code}, expected "
                      f"{workload.expected_exit}", file=sys.stderr)
                return 1
            records[workload.name] = observed_outputs(
                workload, inv.exit_code, inv.stdout, out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(
        {"recorded_at": git_sha(), "workloads": records},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
