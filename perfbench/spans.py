"""Spans around the package's public functions, installed from outside.

A Tracer replaces each traced name at the binding its callers use (for
example ``cli.qdepth``, ``verify.qdepth`` and ``HilbertFunction.evaluate``)
with a wrapper that records a span: name, start, end and the enclosing span.
Spans stay in flat arrays until ``collect`` folds one request's spans into
per-name totals.  A name a later version of the package no longer has is
reported as missing instead of failing the run.  ``uninstall`` restores
every original binding.
"""

from __future__ import annotations

import importlib
import time
from array import array

_CONSTRUCTORS = ("polynomial_ring", "free_module", "complete_intersection",
                 "from_table", "shift", "scale", "extend")

# (owner, attribute, span name); owner is "module" or "module.Class" under
# the hilbertdepth package.  A span name ending in "." is completed with the
# call's first argument (the battery name).
TARGETS = (
    [("cli", "main", "cli.main"),
     ("dsl", "parse_spec", "dsl.parse_spec"),
     ("dsl", "elaborate", "dsl.elaborate"),
     ("series.HilbertFunction", "__add__", "series.construct"),
     ("series.HilbertFunction", "evaluate", "series.evaluate"),
     ("depth", "bounds", "depth.bounds")]
    + [(m, "qdepth", "depth.qdepth") for m in ("cli", "verify", "squarefree")]
    + [(m, "beta", "depth.beta") for m in ("verify", "hypergeometric")]
    + [(m, "beta_table", "depth.beta_table") for m in ("cli", "verify")]
    + [("verify", "reconstruct", "depth.reconstruct")]
    + [(m, c, "series.construct") for m in ("dsl", "verify") for c in _CONSTRUCTORS]
    + [("hypergeometric", "polynomial_ring", "series.construct"),
       ("squarefree", "from_table", "series.construct"),
       ("cli", "from_table", "series.construct"),
       ("cli", "parse_ideal", "squarefree.parse_ideal")]
    + [(m, f, f"squarefree.{f}") for m in ("cli", "squarefree")
       for f in ("alpha_vector", "qdepth_from_alpha")]
    + [(m, f, f"hypergeometric.{f}") for m in ("cli", "hypergeometric")
       for f in ("gauss_2f1", "big_e", "coeff_table")]
    + [("cli", "run_battery", "verify.")]
)


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"hilbertdepth.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outer = array("b")  # 1 if no enclosing span has the same name
        self._stack = [-1]
        self._active: list[int] = []
        self.counters = {"alpha_masks": 0, "alpha_total": 0}
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self._wrappers: dict[tuple[object, str], object] = {}

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.span_names)
            self.span_names.append(span)
            self._active.append(0)
        return self._ids[span]

    def install(self) -> None:
        self.missing.clear()
        for owner, attr, span in TARGETS:
            try:
                obj = _resolve(owner)
            except (ImportError, AttributeError):
                obj = None
            fn = getattr(obj, attr, None)
            if fn is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            if (obj, attr) not in self._wrappers:
                self._wrappers[obj, attr] = self._wrap(fn, span)
            self._originals.append((obj, attr, fn))
            setattr(obj, attr, self._wrappers[obj, attr])
            self.installed.add(span)

    def uninstall(self) -> None:
        for obj, attr, fn in reversed(self._originals):
            setattr(obj, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, span: str):
        name, parent, start, end, outer = self.name, self.parent, self.start, self.end, self.outer
        stack, active, clock = self._stack, self._active, time.perf_counter_ns
        fixed = None if span.endswith(".") else self._id(span)
        counting = span == "squarefree.alpha_vector"
        counters = self.counters

        def wrapper(*args, **kwargs):
            sid = fixed if fixed is not None else self._id(span + str(args[0]))
            i = len(name)
            name.append(sid)
            parent.append(stack[-1])
            depth = active[sid]
            outer.append(depth == 0)
            end.append(0)
            stack.append(i)
            active[sid] = depth + 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                active[sid] = depth
                stack.pop()
            if counting:
                counters["alpha_masks"] += 1 << args[0].n
                counters["alpha_total"] += sum(result)
            return result

        return wrapper

    def collect(self, keep: bool = False) -> tuple[dict, dict, dict | None]:
        """Fold the spans recorded since the last call into
        {span: [inclusive_ns, self_ns, calls]}; inclusive time counts only
        spans with no same-name ancestor.  Also returns and resets the
        counters, and the raw spans when ``keep`` is set."""
        n = len(self.name)
        child = [0] * n
        name, parent, start, end, outer = self.name, self.parent, self.start, self.end, self.outer
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals: dict[str, list[int]] = {}
        for i in range(n):
            dur = end[i] - start[i]
            entry = totals.setdefault(self.span_names[name[i]], [0, 0, 0])
            if outer[i]:
                entry[0] += dur
            entry[1] += dur - child[i]
            entry[2] += 1
        raw = None
        if keep and n:
            t0 = start[0]
            raw = {"span_names": list(self.span_names), "name": list(name),
                   "parent": list(parent), "start_ns": [t - t0 for t in start],
                   "end_ns": [t - t0 for t in end]}
        for arr in (name, parent, start, end, outer):
            del arr[:]
        counters = dict(self.counters)
        for key in self.counters:
            self.counters[key] = 0
        return totals, counters, raw
