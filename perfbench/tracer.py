"""Per-layer tracing from outside the program.

install() replaces every public function of every loaded newtonkit module
by a wrapper, in each module that holds it under its own name: the modules
import each other's functions by name (``from .linalg import solve_exact``),
so patching only the defining module would miss calls between layers.

While an operation is open, each wrapped call records a span (layer name,
start, end, parent span) kept in memory under the operation's key, and its
self time: its duration minus the part covered by its child spans.  Calls
to the tiny arithmetic helpers are counted only, with the layer they were
called from, because a span per call would swamp the run.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

from checks import reason_code

# Counted, never timed: their time stays in the caller's self time.
COUNT_ONLY = {"rationals.dot", "rationals.rat", "rationals.vec", "rationals.vec_parse",
              "rationals.vsub", "rationals.vadd", "rationals.vscale", "rationals.rat_str",
              "rationals.vec_str", "rootdata.is_dominant", "rootdata.reflect_simple"}


class Tracer:
    def __init__(self):
        self.stats = None          # {layer: [calls, self_ns, total_ns]} of the open phase
        self.counts = None         # {(layer, parent layer): calls} of the open phase
        self.reasons = None        # {reason code: calls} of the open phase
        self.spans = None          # span list of the open operation
        self.stack = []            # open spans: [span index, child ns, layer]
        self.kept = {}             # operation key -> its spans

    # -- phases and operations -------------------------------------------
    def begin_phase(self):
        self.stats = defaultdict(lambda: [0, 0, 0])
        self.counts = defaultdict(int)
        self.reasons = defaultdict(int)

    def end_phase(self):
        out = (dict(self.stats), dict(self.counts), dict(self.reasons))
        self.stats = self.counts = self.reasons = None
        return out

    def run_op(self, key, fn, keep_spans):
        """Run fn() as the root span "op" of operation key."""
        self.spans = []
        try:
            return self._call("op", fn, (), {})
        finally:
            if keep_spans:
                self.kept[key] = self.spans
            self.spans = None

    # -- wrappers -----------------------------------------------------------
    def _call(self, layer, fn, args, kwargs):
        spans = self.spans
        stack = self.stack
        index = len(spans)
        spans.append(None)
        frame = [index, 0, layer]
        parent = stack[-1][0] if stack else -1
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            spans[index] = (layer, start, end, parent)
            duration = end - start
            st = self.stats[layer]
            st[0] += 1
            st[1] += duration - frame[1]
            st[2] += duration
            if stack:
                stack[-1][1] += duration

    def _span_wrapper(self, layer, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.spans is None:
                return fn(*args, **kwargs)
            return tracer._call(layer, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, layer, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.spans is not None:
                parent = tracer.stack[-1][2] if tracer.stack else "op"
                tracer.counts[(layer, parent)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _membership_wrapper(self, layer, fn):
        """Span wrapper that also tallies rejections by the returned reason."""
        traced = self._span_wrapper(layer, fn)
        tracer = self

        def membership(*args, **kwargs):
            result = traced(*args, **kwargs)
            if tracer.spans is not None:
                ok, detail = result
                tracer.reasons["accepted" if ok else reason_code(detail)] += 1
            return result

        membership.__wrapped__ = fn
        return membership

    def install(self, package="newtonkit"):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        wrappers = {}
        for module in modules:
            short = module.__name__.split(".")[-1]
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                layer = f"{short}.{name}"
                if layer in COUNT_ONLY:
                    wrappers[obj] = self._count_wrapper(layer, obj)
                elif layer == "kottwitz.is_in_bgmu":
                    wrappers[obj] = self._membership_wrapper(layer, obj)
                else:
                    wrappers[obj] = self._span_wrapper(layer, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])

    def absorb(self, doc, key, keep_spans):
        """Add one traced child process's figures to the open phase."""
        for layer, figures in doc["stats"].items():
            st = self.stats[layer]
            for i, value in enumerate(figures):
                st[i] += value
        for layer, parent, n in doc["counts"]:
            self.counts[(layer, parent)] += n
        for reason, n in doc["reasons"].items():
            self.reasons[reason] += n
        if keep_spans:
            self.kept[key] = [tuple(s) for s in doc["spans"]]

    def spans_document(self):
        """The kept spans as JSON-ready data, layer names interned."""
        names = sorted({s[0] for spans in self.kept.values() for s in spans if s})
        index = {n: i for i, n in enumerate(names)}
        return {
            "layers": names,
            "span_fields": ["layer", "start_ns", "end_ns", "parent"],
            "ops": {key: [[index[s[0]], s[1], s[2], s[3]] for s in spans if s]
                    for key, spans in self.kept.items()},
        }
