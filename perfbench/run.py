"""acceldse benchmark: CLI time per workload, traced per-module run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--trace 0` runs the workload's CLI command (`python -m acceldse.cli`
with `src` on PYTHONPATH, each `--out` in a fresh directory) back to back,
one process at a time, for about S seconds, and reports host-time
end-to-end metrics: median CPU time per invocation from process start to
exit, set-up time, peak resident memory and design-point evaluations per
CPU second.  Set-up probes (a fresh interpreter that imports
`acceldse.cli` and loads the workload's config) are interleaved with the
invocations.

The gated timings are CPU time at a reference host speed, not wall time.
A virtual machine on a shared host loses its CPU to the hypervisor for
stretches that differ from run to run (steal time), which the guest kernel
keeps out of CPU time but not out of wall time; and the speed the host
gives a CPU second swings by tens of percent within seconds, as
neighbours load the shared cores and memory, and differently on each
core.  So the benchmark pins itself, and with it every process it starts,
to one CPU; every measured process is timed as the user + system CPU time
of it and every process it waited for; and while it runs the benchmark
samples that CPU's speed by timing a fixed pure-Python reference loop
(`reference_loop`) about every `POLL_S` seconds.  The CPU time is scaled by
`REF_NOMINAL_S` over the mean reference time of those samples: it is the
CPU time the invocation would take on a host where the reference loop
takes `REF_NOMINAL_S`.  The program cannot change the reference loop, so
a program that does more work still reads slower.  Raw CPU time, the host
slowdown factor and the median wall time are printed and recorded,
ungated, and the traced run reports the wall time as the per-layer
`wall_s`.  Because of the pinning, `--jobs 2` runs its pool workers on
the one CPU: the benchmark measures what the pool costs in CPU time, not
what it saves in wall time on a second core.

`--trace 1` runs the command once in a fresh traced process (see
`traced.py`), then untraced with the same arguments for about S seconds,
and reports per-module calls and self time, work counts, cache hit ratios,
the tracing overhead (scaled CPU time), the untraced median wall time, and
the modeled per-group counts (`model_counts.py`).

Every invocation's exit code and outputs are checked byte for byte against
`references.json`; a mismatch counts as a failed operation.  The simulator
has no randomness: the seed only sets the order in which set-up probes and
invocations are interleaved.  The model has no hardware reference in this
repository, so it is unvalidated and the benchmark gives no simulated-error
figure.  Every measured process starts with empty host caches.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it print every metric by name
and unit.  A full record (samples, provenance, per-function trace summary)
is written to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from workloads import (CONFIG, HERE, MODULES, REFERENCES, ROOT, WORKLOADS,
                       Workload, load_references, mismatches,
                       observed_outputs, tree_digests)

SETUP_PROBES = 7
# The reference loop is arithmetic on a few locals: its working set stays
# in the core's own caches, so the measured program cannot change its
# speed through what it leaves in the caches.
REF_ITERATIONS = 40_000  # one reference-loop sample
REF_NOMINAL_S = 0.0035  # its CPU time at the reference host speed
POLL_S = 0.05  # interval between host-speed samples while a child runs
MIN_SAMPLES = 1  # invocations per run, even when one outlasts --seconds
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail value
RESULTS = HERE / "results"
CACHED = ("memory.plan_tiling", "memory.traffic", "dataflow.analytic_cycles")
BOUNDARY_COUNTS = ("workload.matmuls_emitted", "memory.entries_scanned",
                   "memory.distinct_matmuls", "sweep.emit_reports.files",
                   "sweep.emit_reports.bytes")
CALL_COUNTS = ("memory.evaluate_matmul", "sweep.evaluate_point",
               "sweep.run_sweep")
UNVALIDATED = ("The model is unvalidated against hardware: the repository "
               "holds no reference measurements, so no simulated-error "
               "figure is given.")
# Reported beside the gated metrics but not declared in BENCHMARK.json:
# error_rate is 0 on a correct tree (the result's `failed`/`attempted`
# carry it), the tails exist only where a run has 11+ samples, and wall
# time is too noisy on a shared virtual machine to gate (see above).
REPORTED_UNITS = {"error_rate": "ratio", "cpu_s.tail": "s",
                  "raw_cpu_s": "s", "host_slowdown": "ratio", "wall_s": "s"}
COLD_CACHES = ("Host caches start empty: every invocation and probe is a "
               "fresh process.")


@dataclass(frozen=True)
class Invocation:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    raw_cpu_s: float  # user + system, the process and its reaped children
    host_slowdown: float  # mean reference-loop time over REF_NOMINAL_S
    max_rss_kb: int

    @property
    def cpu_s(self) -> float:
        """CPU time at the reference host speed."""
        return self.raw_cpu_s / self.host_slowdown


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def reference_loop() -> float:
    """CPU time of a fixed pure-Python loop: one sample of host speed."""
    start = time.thread_time()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return time.thread_time() - start


def pin_to_one_cpu() -> int:
    """Confine this process, and every process it starts, to one CPU, so
    that the host-speed samples are taken where the measured work runs."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Launcher:
    """Runs measured processes one at a time through `launcher.py`, so that
    their peak memory does not include this process's."""

    def __init__(self):
        # -I -S: no site packages, so the launcher stays smaller than any
        # interpreter it starts.
        self.proc = subprocess.Popen([sys.executable, "-I", "-S",
                                      str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, bufsize=0)
        self.child: int | None = None

    def close(self) -> None:
        """Kill the running child's process group, if any, and end the
        launcher; return only when both have ended."""
        if self.child is not None:
            try:
                os.killpg(self.child, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _line(self) -> bytes:
        line = self.proc.stdout.readline()
        if not line.endswith(b"\n"):
            raise RuntimeError("perfbench launcher ended unexpectedly")
        return line

    def run(self, cmd: list[str], workdir: Path) -> Invocation:
        """Run one process to exit, sampling host speed until it exits.

        Wall time runs from the request to the reply (late by at most one
        reference sample); CPU time and peak RSS cover its tree (the child
        and every child it waited for; peak RSS is that of the largest
        process)."""
        out_path, err_path = workdir / "stdout", workdir / "stderr"
        request = [cmd, str(ROOT), child_env(), str(out_path), str(err_path)]
        refs = [reference_loop()]
        start = time.perf_counter()
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.child = int(self._line())
        while not select.select([self.proc.stdout], [], [], POLL_S)[0]:
            refs.append(reference_loop())
        exit_code, user_s, system_s, max_rss_kb = json.loads(self._line())
        wall = time.perf_counter() - start
        self.child = None
        return Invocation(exit_code, out_path.read_bytes(),
                          err_path.read_bytes(), wall, user_s + system_s,
                          statistics.mean(refs) / REF_NOMINAL_S, max_rss_kb)


class Gate:
    """Runs CLI invocations of one workload and checks each one's outputs."""

    def __init__(self, workload: Workload, workdir: Path, launcher: Launcher):
        self.workload = workload
        self.workdir = workdir
        self.launcher = launcher
        self.reference = load_references()[workload.name]
        self.attempted = 0
        self.failed = 0
        self.samples: list[Invocation] = []

    def invoke(self, prefix: list[str], traced: bool = False) -> Invocation:
        self.attempted += 1
        out_dir = self.workdir / f"out{self.attempted}"
        argv = self.workload.argv(out_dir, traced=traced)
        inv = self.launcher.run([*prefix, *argv], self.workdir)
        observed = observed_outputs(self.workload, inv.exit_code, inv.stdout,
                                    out_dir)
        problems = mismatches(self.reference, observed)
        if problems:
            self.failed += 1
            print(f"perfbench: {self.workload.name} invocation "
                  f"{self.attempted} failed the identity gate: "
                  + "; ".join(problems[:5]), file=sys.stderr)
            sys.stderr.write(inv.stderr.decode(errors="replace")[-2000:])
        shutil.rmtree(out_dir, ignore_errors=True)
        return inv

    def invoke_cli(self, traced: bool = False) -> Invocation:
        inv = self.invoke([sys.executable, "-m", "acceldse.cli"], traced)
        self.samples.append(inv)
        return inv


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile that has at least
    TAIL_BEYOND samples beyond it, or None when there are too few."""
    rank = len(samples) - TAIL_BEYOND  # 1-based rank of the reported sample
    if rank < 1:
        return None
    return 100.0 * rank / len(samples), sorted(samples)[rank - 1]


def keep_going(walls: list[float], seconds: float) -> bool:
    """Whether another invocation fits the run's measuring time."""
    if len(walls) < MIN_SAMPLES:
        return True
    return sum(walls) + statistics.median(walls) <= seconds


def setup_probe(launcher: Launcher, workload: Workload, workdir: Path) -> float:
    inv = launcher.run([sys.executable, str(HERE / "probe.py"), CONFIG,
                        *workload.overrides], workdir)
    if inv.exit_code != 0:
        raise RuntimeError("set-up probe failed:\n"
                           + inv.stderr.decode(errors="replace"))
    return inv.cpu_s


def check_program(launcher: Launcher, workdir: Path) -> None:
    """Fail unless `acceldse` imports from this checkout's `src`; also
    leaves its bytecode compiled, which users do not pay on every run."""
    inv = launcher.run([sys.executable, "-c",
                        "import acceldse.cli; print(acceldse.cli.__file__)"],
                       workdir)
    where = Path(inv.stdout.decode().strip() or ".").resolve()
    if inv.exit_code != 0 or ROOT / "src" not in where.parents:
        raise RuntimeError("acceldse does not import from "
                           f"{ROOT / 'src'}:\n"
                           + inv.stderr.decode(errors="replace"))


def measure_untraced(workload: Workload, seed: int, seconds: float,
                     workdir: Path, launcher: Launcher
                     ) -> tuple[Gate, dict, dict]:
    gate = Gate(workload, workdir, launcher)
    rng = random.Random(seed)
    setup: list[float] = []
    while True:
        more = keep_going([s.wall_s for s in gate.samples], seconds)
        probes_left = len(setup) < SETUP_PROBES
        if not (more or probes_left):
            break
        if probes_left and (not more or rng.random() < 0.5):
            setup.append(setup_probe(launcher, workload, workdir))
        else:
            gate.invoke_cli()
    cpus = [s.cpu_s for s in gate.samples]
    walls = [s.wall_s for s in gate.samples]
    cpu = statistics.median(cpus)
    metrics = {
        "cpu_s": cpu,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(s.max_rss_kb for s in gate.samples) / 1024,
        "evals_per_s": workload.evals / cpu,
    }
    raw = [s.raw_cpu_s for s in gate.samples]
    slowdown = [s.host_slowdown for s in gate.samples]
    reported = {"error_rate": gate.failed / gate.attempted,
                "raw_cpu_s": statistics.median(raw),
                "host_slowdown": statistics.median(slowdown),
                "wall_s": statistics.median(walls)}
    tail_point = tail(cpus)
    if tail_point is not None:
        reported["cpu_s.tail"] = tail_point[1]
    details = {"cpu_s_samples": cpus, "raw_cpu_s_samples": raw,
               "host_slowdown_samples": slowdown, "wall_s_samples": walls,
               "setup_s_samples": setup,
               "peak_rss_kb_samples": [s.max_rss_kb for s in gate.samples],
               "tail_percentile": tail_point and tail_point[0],
               "reported_not_gated": reported}
    return gate, metrics, details


def measure_traced(workload: Workload, seed: int, seconds: float,
                   workdir: Path, launcher: Launcher
                   ) -> tuple[Gate, dict, dict]:
    gate = Gate(workload, workdir, launcher)
    summary_path = workdir / "trace-summary.json"
    spans_path = RESULTS / f"{workload.name}-seed{seed}-spans.jsonl"
    traced = gate.invoke([sys.executable, str(HERE / "traced.py"),
                          str(summary_path), str(spans_path)], traced=True)
    while keep_going([s.wall_s for s in gate.samples], seconds):
        gate.invoke_cli(traced=True)
    untraced_cpu = statistics.median(s.cpu_s for s in gate.samples)
    summary = json.loads(summary_path.read_text())
    counts = launcher.run([sys.executable, str(HERE / "model_counts.py"),
                           workload.name], workdir)
    if counts.exit_code != 0:
        raise RuntimeError("model counts failed:\n"
                           + counts.stderr.decode(errors="replace"))
    metrics = per_layer_metrics(summary, json.loads(counts.stdout))
    metrics["trace.overhead_s"] = traced.cpu_s - untraced_cpu
    metrics["wall_s"] = statistics.median(s.wall_s for s in gate.samples)
    details = {"traced_cpu_s": traced.cpu_s,
               "traced_raw_cpu_s": traced.raw_cpu_s,
               "traced_wall_s": traced.wall_s,
               "untraced_cpu_s_samples": [s.cpu_s for s in gate.samples],
               "untraced_wall_s_samples": [s.wall_s for s in gate.samples],
               "traced_jobs": 1, "spans_file": str(spans_path.relative_to(ROOT)),
               "trace_summary": summary}
    return gate, metrics, details


def per_layer_metrics(summary: dict, model: dict[str, int]) -> dict:
    functions = summary["functions"]
    metrics: dict = {}
    for module in MODULES:
        mine = [v for k, v in functions.items()
                if k.split(".", 1)[0] == module]
        metrics[f"{module}.calls"] = sum(v["calls"] for v in mine)
        metrics[f"{module}.self_s"] = sum(v["self_s"] for v in mine)
    metrics["import.total_s"] = summary["import_s"]
    counts = summary["counts"]
    for name in BOUNDARY_COUNTS:
        metrics[name] = counts.get(name, 0)
    scanned = metrics["memory.entries_scanned"]
    metrics["memory.useful_ratio"] = (
        metrics["memory.distinct_matmuls"] / scanned if scanned else 0.0)
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = functions.get(name, {}).get("calls", 0)
    for name in CACHED:
        cache = summary["caches"].get(name, {"hits": 0, "misses": 0})
        lookups = cache["hits"] + cache["misses"]
        metrics[f"{name}.lookups"] = lookups
        metrics[f"{name}.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    metrics.update(model)
    return metrics


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def provenance(seed: int, gate: Gate, extra: dict, cpu: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    src = tree_digests(ROOT / "src" / "acceldse")
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "src_sha256": {k: v for k, v in src.items() if k.endswith(".py")},
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "ref_nominal_s": REF_NOMINAL_S,
        "seed": seed,
        "invocations": gate.attempted,
        "samples": {k: len(v) for k, v in extra.items()
                    if k.endswith("_samples")},
    }


def checkout_problem() -> str | None:
    for needed in (ROOT / "src" / "acceldse" / "cli.py", ROOT / CONFIG,
                   ROOT / "BENCHMARK.json", REFERENCES):
        if not needed.is_file():
            return f"{needed.relative_to(ROOT)} is missing; run from the " \
                   "root of a full acceldse checkout"
    return None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    workload = WORKLOADS[args.workload]

    RESULTS.mkdir(exist_ok=True)
    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    launcher = None
    # A termination request unwinds through the `finally` below, which
    # stops the running child and the launcher.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        cpu = pin_to_one_cpu()
        launcher = Launcher()
        check_program(launcher, workdir)
        measure = measure_traced if args.trace else measure_untraced
        gate, metrics, details = measure(workload, args.seed, args.seconds,
                                         workdir, launcher)
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError("emitted metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    record = {
        "workload": workload.name, "scope": workload.scope,
        "why": workload.why, "trace": args.trace,
        "notes": [UNVALIDATED, COLD_CACHES],
        "provenance": provenance(args.seed, gate, details, cpu),
        "result": result, **details,
    }
    record_path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print_report(record, record_path)
    print(json.dumps(result))
    return 0


def print_report(record: dict, record_path: Path) -> None:
    prov = record["provenance"]
    print(f"workload {record['workload']} ({record['scope']}), "
          f"trace {record['trace']}, seed {prov['seed']}")
    print(f"  why: {record['why']}")
    for note in record["notes"]:
        print(f"  {note}")
    print(f"  python {prov['python']}, numpy {prov['numpy']}, "
          f"git {prov['git_sha']}, nproc {prov['nproc']} "
          f"(pinned to CPU {prov['pinned_cpu']}), "
          f"{prov['invocations']} invocations")
    if record["trace"]:
        print("  traced with --jobs 1, so that every span is in one process")
    notes = {}
    if "cpu_s_samples" in record:
        count = len(record["cpu_s_samples"])
        for name in ("cpu_s", "raw_cpu_s", "host_slowdown", "wall_s"):
            notes[name] = f"median of {count}"
        notes["setup_s"] = (f"scaled CPU time, median of "
                            f"{len(record['setup_s_samples'])}")
        notes["cpu_s.tail"] = (f"p{record['tail_percentile'] or 0:.1f} "
                               f"of {count}")
    else:
        notes["wall_s"] = ("median of "
                           f"{len(record['untraced_wall_s_samples'])}"
                           " untraced")
    rows = [(name, m["value"], m["unit"])
            for name, m in record["result"]["metrics"].items()]
    rows += [(name, value, REPORTED_UNITS[name])
             for name, value in record.get("reported_not_gated", {}).items()]
    for name, value, unit in rows:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:>16.6g} {unit}{note}")
    print(f"  record: {record_path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
