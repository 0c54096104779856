"""Span tracing from outside the program.

`Tracer.install` replaces every public function of the traced modules with a
wrapper, in each module that looks the function up (the defining module, the
modules that imported it by name, and the package namespace), and
`uninstall` puts the originals back. The program itself is not changed.

A span is (name, start, end, parent span index); spans stay in memory and are
written out once the run ends. Self time is a span's duration minus the
durations of its direct children. Counters are taken at the same boundaries
from the call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "neuralign"
PROBE_CALLS = 20000
TRACED_MODULES = (
    "pipeline", "network", "triggers", "coding", "attacks", "align", "watermark", "serialize",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _input_gradient(args, kwargs, result):
    nets, x = _arg(args, kwargs, 0, "nets"), _arg(args, kwargs, 1, "x")
    layer_name = _arg(args, kwargs, 3, "layer_name")
    rows = len(x)
    macs = 0
    for net in nets:
        for layer in net.layers:
            macs += layer.weights.size
            if layer.name == layer_name:
                break
    # forward and input-gradient backward: two GEMMs of 2*rows*in*out each
    return {"input_gradient_rows": rows * len(nets), "input_gradient_flop": 4 * rows * macs}


COUNTERS = {
    "network.input_gradient_batch": _input_gradient,
    "network.forward": lambda a, k, r: {"forward_rows": len(_arg(a, k, 1, "batch"))},
    "network.train": lambda a, k, r: {
        "train_samples": len(_arg(a, k, 1, "data")) * _arg(a, k, 2, "hp").epochs
    },
    "triggers.synthesize_trigger_set": lambda a, k, r: {
        "descent_steps": _arg(a, k, 4, "opt").steps, "converged": int(r.converged.sum())
    },
    "coding.nearest_centroid": lambda a, k, r: {"quantize_values": int(r.size)},
    "align.align_to_matrix": lambda a, k, r: {
        "assign_cells": r.n * r.n * len(_arg(a, k, 0, "observed_codes")[0])
    },
    "pipeline.stage_attack": lambda a, k, r: {"suspects_attacked": r["trials"]},
    "serialize.write_container": lambda a, k, r: {
        "bytes_written": len(_arg(a, k, 2, "payload")) + 10
    },
    "serialize.read_container": lambda a, k, r: {"bytes_read": len(r) + 10},
}

# Spans named by their argument: one name per trigger scheme.
SPAN_NAMES = {
    "pipeline.stage_forge": lambda a, k: "pipeline.stage_forge_" + _arg(a, k, 2, "mode"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._swapped: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        namer = SPAN_NAMES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            index = len(spans)
            spans.append([label, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def install(self) -> None:
        originals = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    originals[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        users = [m for n, m in sys.modules.items()
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in users:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._swapped.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._swapped):
            setattr(module, attr, value)
        self._swapped.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @staticmethod
    def per_call_cost() -> float:
        """Seconds a wrapper adds to one call, measured on a no-op function."""
        def noop():
            return None

        wrapped = Tracer()._wrap("probe", noop)
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            wrapped()
        return max(time.perf_counter() - start - bare, 0.0) / PROBE_CALLS

    def totals(self) -> tuple[dict, dict, dict]:
        """(total seconds, self seconds, calls) per span name.

        A span nested inside a span of the same name adds to neither total
        nor call count, so recursion and re-entry are not double counted.
        """
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            own[name] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += end - start
                calls[name] += 1
        return total, own, calls

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent")
        with path.open("w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts)}, fh)
