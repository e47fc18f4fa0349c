"""Parallel, memoized evaluation of mapping candidates.

The :class:`SearchEngine` is the single funnel through which the Sunstone
scheduler and every baseline mapper run the cost model.  It adds three
orthogonal accelerations, all provably behaviour-preserving:

* **memoisation** — results are cached in an :class:`EvalCache` keyed on
  the canonical mapping fingerprint, so re-evaluating an
  identically-shaped candidate (within a level sweep, across the
  escalation retry, or across the layers of a network) is free;
* **vectorisation** — cohorts of cache misses run through
  :func:`repro.model.batch.evaluate_batch` (numpy array rollups that
  compute each distinct per-tensor term once per cohort), falling back
  bit-identically to the scalar model when numpy is absent, the cohort
  is small, or ``batch=False``;
* **parallelism** — with vectorisation off, batches of cache misses fan
  out over a ``ProcessPoolExecutor`` in deterministic chunks and merge
  back in submission order, so the downstream argmin sees candidates in
  exactly the order the serial path would.  Intra-sweep cohorts prefer
  the vectorised path; the pool is for cross-layer fan-out
  (:func:`repro.core.network.schedule_network`).

``workers=1`` (the default) never touches multiprocessing: every
evaluation runs in-process, which keeps tests, coverage and debugging
identical to a direct ``evaluate()`` call.  The determinism guarantee —
same best mapping, same ``energy_pj``/``cycles`` for every
(workers, cache, batch) configuration — is pinned by
``tests/test_search_engine.py`` and ``tests/test_model_batch.py``;
docs/PERF.md walks the full pipeline.
"""

from __future__ import annotations

import gc
import math
import os
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager
from typing import Iterator, Sequence

from ..mapping.mapping import Mapping
from ..model.batch import HAVE_NUMPY, vectorised_rows
from ..model.batch import evaluate_batch as _batch_evaluate
from ..model.cost import CostResult, evaluate
from ..sparse.spec import SparsitySpec
from .cache import EvalCache
from .faults import FaultPlan, InjectedFault, plan_from_env, trip_chunk_fault
from .fingerprint import (
    Fingerprint,
    architecture_fingerprint,
    mapping_fingerprint,
    workload_fingerprint,
)
from .stats import SearchStats

# A chunk gets at most this many pool attempts before its evaluation
# falls back in-process (where injected faults no longer apply, so the
# retry either succeeds or surfaces the genuine model error).
_MAX_CHUNK_ATTEMPTS = 2
# In-process evaluation retries after an injected fault before giving up.
_MAX_EVAL_RETRIES = 3


def _evaluate_chunk(
    payload: tuple[list[Mapping], bool, SparsitySpec | None, str | None],
) -> list[CostResult]:
    """Top-level worker so process pools can pickle it."""
    mappings, partial_reuse, sparsity, fault = payload
    trip_chunk_fault(fault)
    return [evaluate(m, partial_reuse=partial_reuse, sparsity=sparsity)
            for m in mappings]


class SearchEngine:
    """Memoized, optionally parallel ``evaluate()`` frontend.

    Parameters
    ----------
    workers:
        Process count for batch evaluation.  ``1`` stays fully
        in-process; higher values lazily spawn a pool that is reused
        across batches until :meth:`close`.
    cache:
        ``True`` (default) builds a fresh :class:`EvalCache`, ``False``
        disables memoisation, or pass an existing cache to share it
        across searches (e.g. the layers of one network).
    partial_reuse:
        Forwarded to :func:`repro.model.cost.evaluate`; it is part of
        the cache key, so engines with different settings never share
        results even when handed the same cache object.
    sparsity:
        Optional :class:`~repro.sparse.spec.SparsitySpec` forwarded to
        every evaluation.  Like ``partial_reuse`` it is part of the
        cache key: a dense engine and a sparse engine can share one
        cache object without ever exchanging results.
    batch:
        ``True`` (default) vectorises cache-miss cohorts through
        :func:`repro.model.batch.evaluate_batch` when numpy is present.
        ``False`` forces the scalar model (and re-enables the process
        pool for ``workers > 1``).  Results are bit-identical either
        way.
    cache_size:
        Entry cap of the result :class:`EvalCache`.  ``None`` keeps its
        default bound; ``0`` means unbounded.  Ignored when an existing
        ``EvalCache`` object is passed.
    chunk_timeout:
        Per-chunk wall-clock budget (seconds) for pooled evaluation.
        A chunk that exceeds it is declared lost: the pool is rebuilt
        (the stuck worker is abandoned) and the chunk re-submitted.
        ``None`` (default) waits indefinitely.
    fault_plan:
        Optional :class:`~repro.search.faults.FaultPlan` injecting
        deterministic worker crashes / chunk timeouts / evaluation
        exceptions for the regression suite.  Defaults to the
        ``REPRO_FAULTS`` environment hook (usually unset).
    max_pool_rebuilds:
        Pool rebuilds allowed per ``evaluate_many`` batch before the
        engine degrades to in-process evaluation for the remaining
        chunks (and permanently to ``workers=1``); results are
        bit-identical either way, and every recovery event is counted
        in ``stats.faults``.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: EvalCache | bool = True,
        partial_reuse: bool = True,
        chunk_size: int = 64,
        sparsity: SparsitySpec | None = None,
        batch: bool = True,
        cache_size: int | None = None,
        chunk_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
        max_pool_rebuilds: int = 1,
        rebuild_backoff_s: float = 0.05,
        clamp_workers: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if cache_size is not None and cache_size < 0:
            raise ValueError("cache_size must be >= 0 (0 = unbounded)")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be > 0 or None")
        if max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        self.workers = workers
        # Evaluation is CPU-bound pure Python: a pool wider than the
        # physical core count only adds pickling overhead, so the pool
        # (and the serial-vs-parallel crossover) is sized by this clamp.
        # ``clamp_workers=False`` keeps the requested width even on
        # narrow machines — the fault-recovery tests need a real pool
        # regardless of the host's core count.
        if clamp_workers:
            self._effective_workers = min(workers, os.cpu_count() or 1)
        else:
            self._effective_workers = workers
        if cache is True:
            if cache_size is None:
                cache = EvalCache()
            else:
                cache = EvalCache(max_entries=cache_size)
        elif cache is False:
            cache = None
        self.cache: EvalCache | None = cache
        self.partial_reuse = partial_reuse
        self.sparsity = sparsity
        self.chunk_size = chunk_size
        self.batch = bool(batch)
        self._use_batch = self.batch and HAVE_NUMPY
        self.stats = SearchStats(workers=self._effective_workers)
        self.chunk_timeout = chunk_timeout
        self.max_pool_rebuilds = max_pool_rebuilds
        self.rebuild_backoff_s = rebuild_backoff_s
        # Capped exponential backoff between pool rebuilds.
        self.rebuild_backoff_cap_s = 2.0
        self._fault_plan = fault_plan if fault_plan is not None \
            else plan_from_env()
        # Deterministic dispatch-site counters for fault injection:
        # pooled chunk dispatches and in-process evaluation calls.
        self._chunk_site = 0
        self._eval_site = 0
        self._pool: ProcessPoolExecutor | None = None
        # Workload/architecture fingerprints are invariant across the
        # thousands of candidates of one search; memoise them by object
        # identity (the referenced objects are kept alive by the entry).
        self._invariant_fps: dict[int, tuple[object, Fingerprint]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (idempotent).

        Pending chunks are cancelled so an interrupted search (Ctrl-C
        mid-batch) never pins the interpreter waiting on queued work.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _degrade_to_serial(self) -> None:
        """Give up on process parallelism for the rest of this engine's
        life; record the event so ``--stats-json`` consumers can tell a
        requested-parallel-but-serial run from a genuine ``workers=1``
        run."""
        self.workers = 1
        self._effective_workers = 1
        self.stats.workers = 1
        self.stats.faults.degraded_serial = True

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._effective_workers == 1:
            return None
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._effective_workers)
            except (OSError, ValueError):
                # Restricted environments (no /dev/shm, no fork) fall
                # back to in-process evaluation; results are identical.
                self._degrade_to_serial()
        return self._pool

    def _abort_pool(self) -> None:
        """Tear down the pool without waiting on stuck/broken workers."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _rebuild_pool(self, rebuild_index: int) -> ProcessPoolExecutor | None:
        """Replace a broken/stuck pool, or ``None`` once the per-batch
        rebuild budget is exhausted (the engine then degrades to
        in-process evaluation, bit-identically)."""
        self._abort_pool()
        if rebuild_index >= self.max_pool_rebuilds:
            self._degrade_to_serial()
            return None
        delay = min(self.rebuild_backoff_s * (2 ** rebuild_index),
                    self.rebuild_backoff_cap_s)
        if delay > 0:
            time.sleep(delay)
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self._effective_workers)
        except (OSError, ValueError):
            self._degrade_to_serial()
            return None
        self.stats.faults.pool_rebuilds += 1
        return self._pool

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def fingerprint(self, mapping: Mapping) -> Fingerprint:
        """Cache key of ``mapping`` under this engine's settings."""
        wl, arch = mapping.workload, mapping.arch
        entry = self._invariant_fps.get(id(wl))
        if entry is None or entry[0] is not wl:
            entry = (wl, workload_fingerprint(wl))
            self._invariant_fps[id(wl)] = entry
        wl_fp = entry[1]
        entry = self._invariant_fps.get(id(arch))
        if entry is None or entry[0] is not arch:
            entry = (arch, architecture_fingerprint(arch))
            self._invariant_fps[id(arch)] = entry
        return mapping_fingerprint(
            mapping, self.partial_reuse, workload_fp=wl_fp, arch_fp=entry[1],
            sparsity=self.sparsity)

    def _model_eval(self, mapping: Mapping) -> CostResult:
        """One in-process cost-model call, surviving injected faults.

        An :class:`InjectedFault` from the fault plan is retried in
        place (counted in ``stats.faults``); the model itself is pure,
        so a retry is bit-identical to an undisturbed call.
        """
        plan = self._fault_plan
        if plan is None:
            return evaluate(mapping, partial_reuse=self.partial_reuse,
                            sparsity=self.sparsity)
        site = self._eval_site
        self._eval_site += 1
        attempt = 0
        while True:
            try:
                plan.check_eval(site, attempt)
                return evaluate(mapping, partial_reuse=self.partial_reuse,
                                sparsity=self.sparsity)
            except InjectedFault:
                self.stats.faults.injected += 1
                attempt += 1
                if attempt > _MAX_EVAL_RETRIES:
                    raise
                self.stats.faults.retries += 1

    def evaluate(self, mapping: Mapping) -> CostResult:
        """Evaluate one mapping, through the cache, in-process."""
        if self.cache is None:
            self.stats.evaluations += 1
            start = time.perf_counter()
            result = self._model_eval(mapping)
            self.stats.add_stage_time("model",
                                      time.perf_counter() - start)
            return result
        key = self.fingerprint(mapping)
        cached = self.cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        start = time.perf_counter()
        result = self._model_eval(mapping)
        self.stats.add_stage_time("model", time.perf_counter() - start)
        self.stats.evaluations += 1
        self.stats.cache_misses += 1
        self.cache.put(key, result)
        self.stats.cache_evictions = self.cache.evictions
        return result

    def evaluate_many(
        self, mappings: Sequence[Mapping],
    ) -> list[CostResult]:
        """Evaluate a cohort; results align with ``mappings`` by index.

        Cache hits are served directly; the remaining distinct
        fingerprints are evaluated (vectorised, or in parallel when
        ``workers > 1`` with ``batch=False``) and merged back in input
        order, so the returned list is bit-identical to what
        ``[evaluate(m) for m in mappings]`` would produce.
        """
        start = time.perf_counter()
        self.stats.batches += 1
        if self.cache is None:
            results = self._run(list(mappings))
            self.stats.evaluations += len(mappings)
            self.stats.wall_time_s += time.perf_counter() - start
            return results

        results: list[CostResult | None] = [None] * len(mappings)
        todo: list[Mapping] = []
        todo_keys: list[Fingerprint] = []
        waiters: dict[Fingerprint, list[int]] = {}
        cache_start = time.perf_counter()
        for i, mapping in enumerate(mappings):
            key = self.fingerprint(mapping)
            pending = waiters.get(key)
            if pending is not None:
                pending.append(i)
                continue
            cached = self.cache.get(key)
            if cached is not None:
                results[i] = cached
                self.stats.cache_hits += 1
                continue
            waiters[key] = [i]
            todo.append(mapping)
            todo_keys.append(key)
        self.stats.add_stage_time("cache",
                                  time.perf_counter() - cache_start)

        fresh = self._run(todo)
        self.stats.evaluations += len(todo)
        self.stats.cache_misses += len(todo)
        cache_start = time.perf_counter()
        for key, result in zip(todo_keys, fresh):
            self.cache.put(key, result)
            indices = waiters[key]
            for i in indices:
                results[i] = result
            # Later duplicates of an in-batch miss are served without a
            # fresh evaluation: count them as hits.
            self.stats.cache_hits += len(indices) - 1
        self.stats.cache_evictions = self.cache.evictions
        self.stats.add_stage_time("cache",
                                  time.perf_counter() - cache_start)
        self.stats.wall_time_s += time.perf_counter() - start
        return results  # type: ignore[return-value]

    def _cohort_fingerprint(self, cohort, i: int) -> Fingerprint:
        """Cache key of cohort row ``i`` — the same tuple
        ``fingerprint(cohort.materialize(i))`` would build, computed
        from the cohort's geometry without a ``Mapping``."""
        wl, arch = cohort.workload, cohort.arch
        entry = self._invariant_fps.get(id(wl))
        if entry is None or entry[0] is not wl:
            entry = (wl, workload_fingerprint(wl))
            self._invariant_fps[id(wl)] = entry
        wl_fp = entry[1]
        entry = self._invariant_fps.get(id(arch))
        if entry is None or entry[0] is not arch:
            entry = (arch, architecture_fingerprint(arch))
            self._invariant_fps[id(arch)] = entry
        return (wl_fp, entry[1], cohort.fingerprint_levels(i),
                bool(self.partial_reuse), self.sparsity)

    def evaluate_cohort(
        self, cohort, rows_of: Sequence[int] | None = None,
    ) -> list[CostResult]:
        """Evaluate a :class:`repro.mapspace.batch.Cohort` end-to-end.

        The streaming twin of :meth:`evaluate_many`: identical cache
        accounting (hits, misses, in-batch duplicates), identical stage
        times, identical results — but candidates arrive as geometry
        matrices and ``Mapping`` objects are only built on the scalar
        fallback (no numpy, fault injection, or a 1-row cohort).

        ``rows_of`` maps requests to rows: request ``i`` is cohort row
        ``rows_of[i]`` (default: one request per row).  The call is
        request-exact — results, every counter, the cache's LRU order
        and evictions all equal evaluating the expanded cohort with one
        row per request — but each row is fingerprinted once, and a
        cache miss is evaluated once per row, in first-request order.
        Without a cache every request is evaluated, as for the expanded
        cohort.
        """
        start = time.perf_counter()
        self.stats.batches += 1
        requests = range(len(cohort)) if rows_of is None else rows_of
        n = len(requests)
        if self.cache is None:
            results = self._run_cohort(cohort, list(requests))
            self.stats.evaluations += n
            self.stats.wall_time_s += time.perf_counter() - start
            return results

        results: list[CostResult | None] = [None] * n
        todo: list[int] = []
        todo_keys: list[Fingerprint] = []
        waiters: dict[Fingerprint, list[int]] = {}
        row_keys: list[Fingerprint | None] = [None] * len(cohort)
        cache_start = time.perf_counter()
        for i, row in enumerate(requests):
            key = row_keys[row]
            if key is None:
                key = row_keys[row] = self._cohort_fingerprint(cohort, row)
            pending = waiters.get(key)
            if pending is not None:
                pending.append(i)
                continue
            cached = self.cache.get(key)
            if cached is not None:
                results[i] = cached
                self.stats.cache_hits += 1
                continue
            waiters[key] = [i]
            todo.append(row)
            todo_keys.append(key)
        self.stats.add_stage_time("cache",
                                  time.perf_counter() - cache_start)

        fresh = self._run_cohort(cohort, todo)
        self.stats.evaluations += len(todo)
        self.stats.cache_misses += len(todo)
        cache_start = time.perf_counter()
        for key, result in zip(todo_keys, fresh):
            self.cache.put(key, result)
            indices = waiters[key]
            for i in indices:
                results[i] = result
            # Later duplicates of an in-batch miss are served without a
            # fresh evaluation: count them as hits.
            self.stats.cache_hits += len(indices) - 1
        self.stats.cache_evictions = self.cache.evictions
        self.stats.add_stage_time("cache",
                                  time.perf_counter() - cache_start)
        self.stats.wall_time_s += time.perf_counter() - start
        return results  # type: ignore[return-value]

    def _run_cohort(self, cohort, indices: list[int]) -> list[CostResult]:
        """Evaluate the selected cohort rows preserving order; geometry
        rollups when available, scalar materialization otherwise."""
        if not indices:
            return []
        if self._use_batch and len(indices) >= 2:
            start = time.perf_counter()
            results = cohort.evaluate_rows(
                indices, self.partial_reuse, self.sparsity)
            if results is not None:
                self.stats.add_stage_time("model",
                                          time.perf_counter() - start)
                self.stats.batched_evaluations += len(indices)
                return results
        # No vectorized path: materialize the rows and run them through
        # the exact machinery evaluate_many uses (process pool, fault
        # recovery, per-mapping fallback) so accounting and recovery
        # semantics are identical.
        return self._run([cohort.materialize(i) for i in indices])

    def _run(self, mappings: list[Mapping]) -> list[CostResult]:
        """Evaluate ``mappings`` preserving order; vectorised cohorts
        first, process pool only with vectorisation unavailable."""
        if not mappings:
            return []
        if self._use_batch:
            # evaluate_batch decides which groups are large enough for an
            # array rollup; only those rows count as vectorised.
            start = time.perf_counter()
            results = _batch_evaluate(
                mappings, partial_reuse=self.partial_reuse,
                sparsity=self.sparsity)
            self.stats.add_stage_time("model",
                                      time.perf_counter() - start)
            self.stats.batched_evaluations += vectorised_rows(mappings)
            return results
        workers = self._effective_workers
        if workers == 1 or len(mappings) < 2 * workers:
            start = time.perf_counter()
            results = [self._model_eval(m) for m in mappings]
            self.stats.add_stage_time("model",
                                      time.perf_counter() - start)
            return results
        pool = self._ensure_pool()
        if pool is None:  # pool creation failed; workers reset to 1
            start = time.perf_counter()
            results = [self._model_eval(m) for m in mappings]
            self.stats.add_stage_time("model",
                                      time.perf_counter() - start)
            return results
        start = time.perf_counter()
        try:
            results = self._run_pooled(pool, mappings)
        except KeyboardInterrupt:
            # Don't let queued chunks pin the interpreter on Ctrl-C;
            # engine_scope's cleanup will find the pool already gone.
            self._abort_pool()
            raise
        self.stats.add_stage_time("pool", time.perf_counter() - start)
        return results

    def _run_pooled(
        self, pool: ProcessPoolExecutor, mappings: list[Mapping],
    ) -> list[CostResult]:
        """Fan chunks over the pool, surviving worker crashes, chunk
        timeouts and evaluation exceptions.

        A ``BrokenProcessPool`` or a per-chunk timeout rebuilds the
        pool (capped backoff, at most ``max_pool_rebuilds`` per batch)
        and re-submits only the chunks that never completed; once the
        budget is exhausted — or a chunk keeps failing — the remaining
        chunks are evaluated in-process.  Results are merged by chunk
        index, so the returned list is bit-identical to the serial
        path no matter which recovery branches fired.
        """
        chunk = min(self.chunk_size,
                    math.ceil(len(mappings) / self._effective_workers))
        chunks = [mappings[i:i + chunk]
                  for i in range(0, len(mappings), chunk)]
        sites = list(range(self._chunk_site, self._chunk_site + len(chunks)))
        self._chunk_site += len(chunks)
        results: list[list[CostResult] | None] = [None] * len(chunks)
        attempts = [0] * len(chunks)
        pending = list(range(len(chunks)))
        faults = self.stats.faults
        rebuilds = 0
        while pending:
            pool_batch = []
            for i in pending:
                if pool is None or attempts[i] >= _MAX_CHUNK_ATTEMPTS:
                    # In-process, as the worker would have run it.
                    results[i] = _evaluate_chunk(
                        (chunks[i], self.partial_reuse, self.sparsity, None))
                    faults.degraded_chunks += 1
                else:
                    pool_batch.append(i)
            if not pool_batch:
                break
            futures = {}
            lost: list[int] = []
            pool_broken = False
            for i in pool_batch:
                fault = None
                if self._fault_plan is not None:
                    fault = self._fault_plan.chunk_fault(sites[i],
                                                         attempts[i])
                if fault is not None:
                    faults.injected += 1
                if fault == "timeout":
                    # Dispatch-layer stand-in for a hung worker: the
                    # chunk is lost without waiting, and the pool must
                    # be reclaimed just as for a wall-clock expiry.
                    faults.chunk_timeouts += 1
                    attempts[i] += 1
                    lost.append(i)
                    pool_broken = True
                    continue
                futures[i] = pool.submit(
                    _evaluate_chunk,
                    (chunks[i], self.partial_reuse, self.sparsity, fault))
            for i, future in futures.items():
                try:
                    results[i] = future.result(timeout=self.chunk_timeout)
                except InjectedFault:
                    attempts[i] += 1
                    lost.append(i)
                except FuturesTimeout:
                    faults.chunk_timeouts += 1
                    attempts[i] += 1
                    lost.append(i)
                    pool_broken = True
                except BrokenExecutor:
                    # One crash breaks every outstanding future; count
                    # the event once, not once per affected chunk.
                    if not pool_broken:
                        faults.crashes_recovered += 1
                    attempts[i] += 1
                    lost.append(i)
                    pool_broken = True
                except Exception:
                    # A genuine evaluation error: skip straight to the
                    # in-process retry, which surfaces it undisturbed.
                    attempts[i] = _MAX_CHUNK_ATTEMPTS
                    lost.append(i)
            faults.retries += len(lost)
            if pool_broken:
                pool = self._rebuild_pool(rebuilds)
                rebuilds += 1
            pending = sorted(lost)
        flat: list[CostResult] = []
        for part in results:
            flat.extend(part)  # type: ignore[arg-type]
        return flat


def resolve_engine(
    engine: SearchEngine | None,
    workers: int,
    cache: bool,
    partial_reuse: bool,
    sparsity: SparsitySpec | None = None,
    batch: bool = True,
    cache_size: int | None = None,
) -> tuple[SearchEngine, bool]:
    """Return (engine, owns_it): reuse an injected engine or build one."""
    if engine is not None:
        return engine, False
    return SearchEngine(workers=workers, cache=cache,
                        partial_reuse=partial_reuse,
                        sparsity=sparsity, batch=batch,
                        cache_size=cache_size), True


# The cyclic collector is paused while any search runs.  A search
# allocates millions of short-lived tuples, dicts and results; each
# collection walks every tracked object, memo tables included, and
# finds almost nothing, because search internals hold no reference
# cycles and are freed by refcount.  Nested scopes and concurrent
# searches (serve runs tasks on threads) share one refcounted pause.
_gc_lock = threading.Lock()
_gc_depth = 0
_gc_was_enabled = False


def _pause_gc() -> None:
    global _gc_depth, _gc_was_enabled
    with _gc_lock:
        if _gc_depth == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_depth += 1


def _resume_gc() -> None:
    global _gc_depth
    with _gc_lock:
        _gc_depth -= 1
        if _gc_depth == 0 and _gc_was_enabled:
            gc.enable()


def _reset_gc_in_child() -> None:
    """A forked child (a pool or fleet worker) runs no scope of its
    parent's: give it a fresh lock and the collector state the parent
    had before its outermost scope."""
    global _gc_lock, _gc_depth
    _gc_lock = threading.Lock()
    if _gc_depth:
        _gc_depth = 0
        if _gc_was_enabled:
            gc.enable()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_gc_in_child)


@contextmanager
def engine_scope(
    engine: SearchEngine | None,
    workers: int = 1,
    cache: bool = True,
    partial_reuse: bool = True,
    sparsity: SparsitySpec | None = None,
    batch: bool = True,
    cache_size: int | None = None,
) -> Iterator[SearchEngine]:
    """Engine lifecycle as a context manager: reuse an injected engine
    (left open for its owner) or build one and close it on exit, even on
    error.  ``engine.stats`` remains readable after close.

    The cyclic garbage collector is paused process-wide from the
    outermost scope's entry to its exit, and then left as it was."""
    resolved, owns = resolve_engine(engine, workers, cache, partial_reuse,
                                    sparsity, batch, cache_size)
    _pause_gc()
    try:
        yield resolved
    finally:
        try:
            if owns:
                resolved.close()
        finally:
            _resume_gc()
