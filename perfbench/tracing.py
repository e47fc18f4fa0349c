"""Outside-in span tracer: wraps public functions of ``repro`` layers.

Nothing here edits the program.  :meth:`Tracer.install` replaces each
target function with a timing wrapper at the module (or class) that
defines it *and* at every loaded module that imported it under any
name, so calls through ``from x import f`` aliases are seen too.
Iterators returned by wrapped calls are wrapped as well, so lazy
generation (``Space.enumerate``) is charged where it actually runs.

Spans are ``(id, layer, start, end, parent)`` tuples of one run id,
kept in memory; :meth:`Tracer.dump_chrome` writes them once, at the
end, as Chrome trace-event JSON.  :meth:`Tracer.summary` derives each
layer's self time (its spans minus their direct children) and calls; a
call is counted only when its parent span belongs to another layer, so
a layer calling itself (``materialize`` -> ``enumerate``) counts once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time

# layer -> targets ("module:function" or "module:Class.method").  Layer
# names follow the ``src/repro`` modules they time.
LAYERS = {
    "cli": ["repro.cli:main"],
    "network": ["repro.core.network:schedule_network"],
    "scheduler": ["repro.core.scheduler:SunstoneScheduler.schedule"],
    "tiling_tree.fits": ["repro.core.tiling_tree:tile_fits",
                         "repro.core.tiling_tree:placement_fits"],
    "mapspace.materialize": ["repro.mapspace.spaces:Space.materialize",
                             "repro.mapspace.spaces:Space.enumerate"],
    "bounds": ["repro.mapspace.bounds:BoundModel.region_bound"],
    "cohort.build": ["repro.mapspace.batch:NestCohort.from_nests",
                     "repro.mapspace.batch:SpaceDecoder.decode"],
    "engine": ["repro.search.engine:SearchEngine.evaluate_cohort",
               "repro.search.engine:SearchEngine.evaluate_many",
               "repro.search.engine:SearchEngine.evaluate"],
    "model.batch": ["repro.mapspace.batch:Cohort.evaluate_rows",
                    "repro.model.batch:evaluate_batch",
                    "repro.model.batch:evaluate_geometry"],
    "model.scalar": ["repro.model.cost:evaluate"],
    "baselines.exhaustive": ["repro.baselines.exhaustive:exhaustive_search"],
}

# Rows handed to a layer call, read from its arguments or its result.
_ROWS = {
    "repro.mapspace.batch:NestCohort.from_nests": ("result", None),
    "repro.mapspace.batch:SpaceDecoder.decode": ("result", None),
    "repro.mapspace.batch:Cohort.evaluate_rows": ("arg", 1),
    "repro.model.batch:evaluate_batch": ("arg", 0),
}

# Calls whose return values the traced child inspects afterwards.
RESULT_TARGETS = {"repro.core.scheduler:SunstoneScheduler.schedule"}


def _resolve(target: str):
    """(owner, attribute name, original callable, descriptor kind)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[name]
    if isinstance(raw, classmethod):
        return owner, name, raw.__func__, "classmethod"
    if isinstance(raw, staticmethod):
        return owner, name, raw.__func__, "staticmethod"
    return owner, name, raw, "function"


def patch(target: str, make_wrapper) -> list[tuple]:
    """Replace ``target`` by ``make_wrapper(original)`` wherever it is
    bound: on its class, or on its module and every module alias.
    Returns the undo list of ``(owner, attribute, previous value)``."""
    owner, name, fn, kind = _resolve(target)
    wrapped = make_wrapper(fn)
    replacement = {"classmethod": classmethod,
                   "staticmethod": staticmethod}.get(kind, lambda f: f)(
                       wrapped)
    current = owner.__dict__[name]
    owners = [owner] if isinstance(owner, type) else [
        module for module in list(sys.modules.values())
        if getattr(module, "__dict__", None) is not None]
    undo = []
    for holder in owners:
        for attr, value in list(vars(holder).items()):
            if value is current:
                setattr(holder, attr,
                        replacement if holder is owner else wrapped)
                undo.append((holder, attr, value))
    return undo


def unpatch(undo: list[tuple]) -> None:
    for owner, attr, previous in reversed(undo):
        setattr(owner, attr, previous)


def first_call_probe(targets, on_first_call) -> list[tuple]:
    """Call ``on_first_call()`` once, just before the first call into any
    of ``targets``; later calls pass straight through."""
    fired = []

    def make_wrapper(fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if not fired:
                fired.append(True)
                on_first_call()
            return fn(*args, **kwargs)
        return probed

    undo = []
    for target in targets:
        undo += patch(target, make_wrapper)
    return undo


def duration_probe(target, durations: list) -> list[tuple]:
    """Append the duration of every call into ``target`` to
    ``durations``."""
    def make_wrapper(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - start)
        return timed

    return patch(target, make_wrapper)


class Tracer:
    """Collects spans and per-layer self time / call / row counts."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, layer, start, end, parent)
        self.rows: dict[str, int] = {}
        self.results: dict[str, list] = {}
        self._stack: list[int] = [0]  # open span ids; 0 is the root
        self._ids = itertools.count(1)
        self._installed: list[tuple] = []

    # -- span bookkeeping (kept minimal: it runs on every call) ---------
    def _wrap_iter(self, layer: str, iterator):
        stack, spans, ids = self._stack, self.spans.append, self._ids
        clock = time.perf_counter
        while True:
            parent = stack[-1]
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                stack.pop()
                spans((span_id, layer, start, clock(), parent))
            yield item

    def _wrapper(self, layer: str, target: str, fn):
        rows = _ROWS.get(target)
        keep = (self.results.setdefault(target, [])
                if target in RESULT_TARGETS else None)
        stack, spans, ids = self._stack, self.spans.append, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans((span_id, layer, start, clock(), parent))
            if rows is not None:
                source = result if rows[0] == "result" else (
                    args[rows[1]] if len(args) > rows[1] else None)
                if source is not None:
                    self.rows[layer] = self.rows.get(layer, 0) + len(source)
            if keep is not None:
                keep.append(result)
            if hasattr(result, "__next__") and hasattr(result, "__iter__"):
                return self._wrap_iter(layer, result)
            return result

        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every target of every layer in place."""
        for layer, targets in LAYERS.items():
            for target in targets:
                self._installed += patch(
                    target, lambda fn, layer=layer, target=target:
                        self._wrapper(layer, target, fn))

    def uninstall(self) -> None:
        unpatch(self._installed)
        self._installed.clear()

    # -- output ----------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer self time (span minus direct children) and calls (a
        span whose parent belongs to another layer), plus row counts."""
        layer_of = {span[0]: span[1] for span in self.spans}
        child_s: dict[int, float] = {}
        for _, _, start, end, parent in self.spans:
            child_s[parent] = child_s.get(parent, 0.0) + end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span_id, layer, start, end, parent in self.spans:
            self_s[layer] = (self_s.get(layer, 0.0) + end - start
                             - child_s.get(span_id, 0.0))
            if layer_of.get(parent) != layer:
                calls[layer] = calls.get(layer, 0) + 1
        return {"self_s": self_s, "calls": calls, "rows": dict(self.rows)}

    def dump_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON: one ``"X"`` event
        per span (ids and parent ids in ``args``), the run id on the
        process-name metadata event."""
        lines = [json.dumps({"name": "process_name", "ph": "M", "pid": 1,
                             "tid": 0, "args": {"name": self.run_id}})]
        lines += ['{"name":"%s","ph":"X","pid":1,"tid":0,"ts":%.3f,'
                  '"dur":%.3f,"args":{"id":%d,"parent":%d}}'
                  % (layer, start * 1e6, (end - start) * 1e6, span_id,
                     parent)
                  for span_id, layer, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            handle.write(",\n".join(lines))
            handle.write("\n]}\n")
