"""Traced run of one workload: time every call into acceldse's modules.

Usage: python perfbench/traced.py SUMMARY_JSON SPANS_JSONL CLI_ARG...

Runs `acceldse.cli.main(CLI_ARGS)` in this fresh process, so host caches
start empty as they do for users.  Before the run, every public function
of the nine acceldse modules is replaced, at every module attribute that
binds it (`run_sweep` in both `cli` and `calibrate`, `phase_result` in
`sweep`, `plan_tiling` in `memory`, ...), by a wrapper that records a
span: function, parent span, start and end.  Spans stay in memory and are
written out when the command has finished, with a summary of calls and
self time (span minus its child spans) per function, the work counts
taken at the layer boundaries, and `cache_info()` deltas of the original
cached functions.  The program itself is not changed: stdout and exit
code are the command's own, and its outputs must match the untraced
references byte for byte.

The benchmark always passes a one-job command (see `Workload.argv`), so
that every span is recorded here rather than in pool workers.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import MODULES, trace_storage

OBSERVE = "trace.observe"  # pseudo-function: the tracer's own counting


class Tracer:
    """Spans and boundary counts of one traced run."""

    def __init__(self, trace_type: type):
        self.trace_type = trace_type
        self.names: list[str] = []  # "<module>.<function>", by index
        self.spans: list[list[int]] = []  # [function, parent, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._shapes: dict[int, tuple[object, int]] = {}
        self._observe_index = self._register(OBSERVE)

    def _register(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, index: int) -> list[int]:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        span = [index, parent, 0, 0]
        self.spans.append(span)
        span[2] = time.perf_counter_ns()
        return span

    def _close(self, span: list[int]) -> None:
        span[3] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, qualname: str, original):
        index = self._register(qualname)
        module, name = qualname.split(".", 1)

        def traced(*args, **kwargs):
            span = self._open(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            self._observe(module, name, span[1], args, kwargs, result)
            return result

        return traced

    def _module_of(self, span: int) -> str | None:
        return self.names[self.spans[span][0]].split(".", 1)[0] \
            if span >= 0 else None

    def _observe(self, module, name, parent, args, kwargs, result) -> None:
        """Count work at a layer boundary, in a span of its own so that no
        module's self time includes it."""
        traces = [a for a in (*args, *kwargs.values())
                  if isinstance(a, self.trace_type)]
        emitted = isinstance(result, self.trace_type)
        reports = module == "sweep" and name == "emit_reports"
        caller = self._module_of(parent)
        scanned = module == "memory" and caller != "memory" and traces
        built = module == "workload" and caller != "workload" and emitted
        if not (scanned or built or reports):
            return
        span = self._open(self._observe_index)
        if scanned:
            for trace in traces:
                entries, distinct = self._shape(trace)
                self.counts["memory.entries_scanned"] += entries
                self.counts["memory.distinct_matmuls"] += distinct
        if built:
            self.counts["workload.matmuls_emitted"] += len(trace_storage(result))
        if reports:
            paths = [Path(p) for p in result]
            self.counts["sweep.emit_reports.files"] += len(paths)
            self.counts["sweep.emit_reports.bytes"] += sum(
                p.stat().st_size for p in paths)
        self._close(span)

    def _shape(self, trace) -> tuple[int, int]:
        """(entries stored, distinct matmuls) of a trace, counted once."""
        storage = trace_storage(trace)
        key = id(storage)
        if key not in self._shapes:
            # a flat trace repeats few objects: dedupe by identity first
            unique = dict(zip(map(id, storage), storage)).values()
            # holding `storage` keeps its id from being reused by another
            self._shapes[key] = (storage, len(set(unique)))
        return len(storage), self._shapes[key][1]

    def function_summary(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per traced function."""
        child_ns = [0] * len(self.spans)
        for index, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span, (index, _, start, end) in enumerate(self.spans):
            entry = out.setdefault(self.names[index],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[span]) / 1e9
        return out


def public_functions(module) -> list[tuple[str, object]]:
    """Public functions a module defines, its `lru_cache`d ones included."""
    out = []
    for name, obj in vars(module).items():
        target = getattr(obj, "__wrapped__", obj)
        if (not name.startswith("_") and inspect.isfunction(target)
                and target.__module__ == module.__name__):
            out.append((name, obj))
    return out


def install(tracer: Tracer, modules: dict[str, object],
            package) -> dict[str, object]:
    """Wrap every public function wherever the package or a module binds
    it; returns the originals by qualified name."""
    originals: dict[str, object] = {}
    wrapper_of: dict[int, object] = {}
    for short, module in modules.items():
        for name, obj in public_functions(module):
            qualname = f"{short}.{name}"
            originals[qualname] = obj
            wrapper_of[id(obj)] = tracer.wrap(qualname, obj)
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            wrapper = wrapper_of.get(id(obj))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return originals


def cache_stats(originals: dict[str, object]) -> dict[str, tuple[int, int]]:
    """(hits, misses) of every original function that has an lru_cache."""
    stats = {}
    for name, obj in originals.items():
        if hasattr(obj, "cache_info"):
            info = obj.cache_info()
            stats[name] = (info.hits, info.misses)
    return stats


def main(argv: list[str]) -> int:
    summary_path, spans_path, cli_args = Path(argv[0]), Path(argv[1]), argv[2:]

    start = time.perf_counter()
    importlib.import_module("acceldse.cli")
    import_s = time.perf_counter() - start
    modules = {short: importlib.import_module(f"acceldse.{short}")
               for short in MODULES}
    tracer = Tracer(modules["workload"].PhaseTrace)
    originals = install(tracer, modules, importlib.import_module("acceldse"))
    before = cache_stats(originals)
    try:
        code = modules["cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        after = cache_stats(originals)
        caches = {name: {"hits": after[name][0] - before[name][0],
                         "misses": after[name][1] - before[name][1]}
                  for name in after}
        summary = {
            "cli_args": cli_args,
            "import_s": import_s,
            "functions": tracer.function_summary(),
            "counts": dict(tracer.counts),
            "caches": caches,
            "span_count": len(tracer.spans),
        }
        with open(spans_path, "w") as out:
            out.write(json.dumps({"names": tracer.names}) + "\n")
            for span in tracer.spans:
                out.write(json.dumps(span) + "\n")
        summary_path.write_text(json.dumps(summary, indent=1, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
