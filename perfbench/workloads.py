"""The benchmark's four workloads and its output-identity gate.

Every workload is one fixed `acceldse` CLI command.  The simulator has no
randomness, so each invocation of a workload must reproduce, byte for byte,
the outputs recorded in `references.json` at the commit that defined the
benchmark.  A perf change that moves any of them has changed the model.

This module is stdlib-only: it is imported by `run.py`, by the traced
child and by the model-count child, none of which may pay for anything
but what they measure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CONFIG = "configs/baseline.conf"
REFERENCES = HERE / "references.json"

MODULES = ("cli", "config", "workload", "dataflow", "memory", "energy",
           "analysis", "sweep", "calibrate")

GPT3_LAYERS = "model.n_layers=96"
SWEEP_CELLS = 7 * 7 * 3 * 2  # S x f x BW x phase in configs/baseline.conf
CALIBRATE_SWEEPS = 17  # evaluations documented in the README


@dataclass(frozen=True)
class Workload:
    name: str
    verb: tuple[str, ...]  # subcommand and its own flags
    overrides: tuple[str, ...]
    jobs: int
    writes_tree: bool  # True: outputs are the --out tree; False: stdout
    expected_exit: int
    evals: int  # simulated design-point evaluations per invocation
    scope: str
    why: str

    def argv(self, out_dir: Path | None = None, traced: bool = False) -> list[str]:
        """CLI arguments after `python -m acceldse.cli`.

        A traced invocation always runs with one job, so that all of its
        spans are recorded in a single process.
        """
        args = [*self.verb, "--config", CONFIG]
        for item in self.overrides:
            args += ["--override", item]
        if self.jobs != 1 and not traced:
            args += ["--jobs", str(self.jobs)]
        if self.writes_tree:
            args += ["--out", str(out_dir)]
        return args


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep_default",
        verb=("sweep",), overrides=(), jobs=1, writes_tree=True,
        expected_exit=0, evals=SWEEP_CELLS,
        scope="1 layer, 294 cells, 50 report files, serial",
        why="The command users run most; import is most of its wall time "
            "and grid and report emission are a visible share, so import "
            "and emitter changes show here and almost nowhere else."),
    Workload(
        name="sweep_gpt3",
        verb=("sweep",), overrides=(GPT3_LAYERS,), jobs=2, writes_tree=True,
        expected_exit=0, evals=SWEEP_CELLS,
        scope="96 layers (traces of 147,744 entries), 294 cells, --jobs 2",
        why="At the real GPT-3 depth the per-cell trace scan dominates, "
            "and --jobs 2 keeps the process-pool path measured."),
    Workload(
        name="calibrate",
        verb=("calibrate",), overrides=(), jobs=1, writes_tree=False,
        expected_exit=1, evals=SWEEP_CELLS * CALIBRATE_SWEEPS,
        scope="17 back-to-back 294-cell sweeps in one process, no files",
        why="Seventeen sweeps that differ only in energy constants and "
            "write no files, so reuse of traffic across sweeps shows here "
            "and emitter work is absent."),
    Workload(
        name="decode_mean_gpt3",
        verb=("simulate", "--phase", "decode", "--decode-mode", "mean",
              "--format", "json"),
        overrides=(GPT3_LAYERS, "model.gen_tokens=256"), jobs=1,
        writes_tree=False, expected_exit=0, evals=256,
        scope="one design point, 256 distinct 96-layer decode traces",
        why="One design point over 256 traces whose kv_len grows every "
            "step, so reuse across design points does nothing and the "
            "tiling caches miss on attention shapes."),
)}


# --- output-identity gate --------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under `root`, keyed by its relative posix path."""
    return {p.relative_to(root).as_posix(): sha256(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def observed_outputs(workload: Workload, exit_code: int, stdout: bytes,
                     out_dir: Path | None) -> dict:
    """The record the gate compares: exit code plus the workload's outputs."""
    record: dict = {"exit_code": exit_code}
    if workload.writes_tree:
        record["files"] = tree_digests(out_dir) if out_dir.is_dir() else {}
    else:
        record["stdout_sha256"] = sha256(stdout)
    return record


def mismatches(reference: dict, observed: dict) -> list[str]:
    """Every way `observed` differs from `reference`; empty means identical."""
    problems = []
    if observed["exit_code"] != reference["exit_code"]:
        problems.append(f"exit code {observed['exit_code']}, "
                        f"expected {reference['exit_code']}")
    if "stdout_sha256" in reference and (
            observed.get("stdout_sha256") != reference["stdout_sha256"]):
        problems.append("stdout differs from the reference")
    if "files" in reference:
        want, got = reference["files"], observed.get("files", {})
        for name in sorted(want.keys() - got.keys()):
            problems.append(f"missing output file {name}")
        for name in sorted(got.keys() - want.keys()):
            problems.append(f"unexpected output file {name}")
        for name in sorted(want.keys() & got.keys()):
            if want[name] != got[name]:
                problems.append(f"output file {name} differs from the reference")
    return problems


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())["workloads"]


# --- trace shapes ----------------------------------------------------------

def trace_storage(trace):
    """The container a phase trace stores its matmuls in: a flat sequence,
    or a mapping from matmul to multiplicity."""
    return getattr(trace, "matmuls", trace)

