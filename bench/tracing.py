"""Spans around calls into qdetect's public functions, recorded from outside.

`Tracer.install` replaces every public module-level function of each layer
module, and a few methods (matrix construction and product, projection and
state validation, CSV and report output), with a wrapper that records a span:
its op, id, parent, name, start and end. Every module namespace that binds the
function gets the wrapper, so calls between modules are seen too; nothing in
the package changes and `uninstall` puts the originals back. Spans stay in
memory until `write`. At a few boundaries the wrapper also records counts of
the work done, read from the call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import Counter, defaultdict

# The package's modules, each one layer; spans are named "<layer>.<function>".
LAYERS = ("numerics", "observables", "detection", "assignment", "scenarios", "ensemble", "reporting", "cli")

METHODS = {
    "numerics": (("CMatrix", "__init__"), ("CMatrix", "__matmul__")),
    "observables": (("Projection", "__post_init__"), ("DensityOperator", "__post_init__")),
    "ensemble": (("Ensemble", "to_csv"),),
    "reporting": (
        ("Report", "add"),
        ("Report", "to_text"),
        ("Report", "to_json"),
        ("Report", "to_csv_text"),
    ),
}

RENDER = ("reporting.Report.to_text", "reporting.Report.to_json", "reporting.Report.to_csv_text")


def _support_counts(args, report) -> dict:
    freq = [c for c in report.checks if c.ref == "support:frequency"]
    return {
        "ensemble.check_support_statements_checks": len(report.checks),
        "ensemble.check_support_statements_frequency_checks": len(freq),
        "ensemble.check_support_statements_band_failures": sum(not c.passed for c in freq),
    }


COUNTERS = {
    "scenarios.load_scenario": lambda a, out: {"scenarios.load_scenario_bytes": os.path.getsize(a[0])},
    "scenarios.enumerate_constraints": lambda a, out: {
        "scenarios.enumerate_constraints_tried": out[1],
        "scenarios.enumerate_constraints_satisfying": len(out[0]),
    },
    "assignment.joint_distribution": lambda a, out: {
        "assignment.joint_distribution_atoms": len(out.atoms),
        "assignment.joint_distribution_nonzero": sum(p > 0.0 for p in out.atoms.values()),
    },
    "ensemble.check_support_statements": _support_counts,
    "ensemble.Ensemble.to_csv": lambda a, out: {"ensemble.to_csv_bytes": os.path.getsize(a[1])},
    **{name: (lambda a, out: {"reporting.checks": len(a[0].checks)}) for name in RENDER},
}


class Tracer:
    """Spans and counts of one traced run; `op` tags what is recorded next."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end), as they end
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._ids = itertools.count()  # next() on it is atomic, so safe across threads
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _record(self, name: str, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((self.op, sid, parent, name, start, end))
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counts[self.op].update(counter(args, out))
        return out

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)

        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span recorded by the benchmark itself."""
        return self._record(name, fn, args, {})

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"qdetect.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for ns in (importlib.import_module("qdetect"), *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        for layer, methods in METHODS.items():
            for cls_name, meth in methods:
                cls = getattr(modules[layer], cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        spans = sorted(self.spans, key=lambda s: s[4])
        t0 = spans[0][4] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,id,parent,name,start_s,end_s\n")
            for op, sid, parent, name, start, end in spans:
                fh.write(f"{op},{sid},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per traced op: total seconds per span name and self seconds per layer.

        A span's self time is its duration minus the durations of its direct
        children. `layers_s` sums the self time of every layer except cli:
        the time the op spent below the command-line glue.
        """
        dur = {s[1]: s[5] - s[4] for s in self.spans}
        children = defaultdict(float)
        for s in self.spans:
            if s[2] >= 0:
                children[s[2]] += dur[s[1]]
        ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for op, sid, _parent, name, _start, _end in self.spans:
            row = ops[op]
            row[name] += dur[sid]
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                row[f"{layer}.self_s"] += dur[sid] - children[sid]
                if layer != "cli":
                    row["layers_s"] += dur[sid] - children[sid]
        for op, counts in self.counts.items():
            ops[op].update(counts)
        return ops
