"""Exhaustive oracle mapper for small problems.

Enumerates *every* mapping — the composed
:func:`~repro.mapspace.mapspace.full_mapping_space` of all prime-factor
distributions across temporal and spatial slots and all loop
permutations per level — and returns the best valid one.  Exponential;
guarded by an explicit budget (checked analytically via
``Mapspace.size()`` before anything is enumerated) so tests cannot
hang.  Used to verify that Sunstone's pruning never rejects all optimal
mappings.

With ``bound=True`` (the default) the walk is branch-and-bound: the
space is traversed as a DFS over per-dimension factor-split prefixes,
and each prefix region is tested against the incumbent via the analytic
:class:`~repro.mapspace.bounds.BoundModel`: a node's sibling prefixes
are bounded in one :meth:`~repro.mapspace.bounds.BoundModel.block_bound`
pass (bit-identical to the scalar bound; a small subtree's prefixes in
one pass per depth, see ``SUBTREE_ROWS``), or one by one through the
:meth:`Space.bound` hook when numpy is absent.  A pruned prefix discards
every completion —
all remaining split choices *times* all ``P**num_levels`` loop-order
combinations — in O(1), with the skipped candidate count computed
analytically (shard-aware).  Pruning only fires when the bound
*strictly* exceeds the incumbent, which preserves the first-attainer
tie-break of the linear scan: the returned mapping and cost are
bit-identical to ``bound=False`` (pinned by ``tests/test_bounds.py``).
"""

from __future__ import annotations

import time

from ..arch.spec import Architecture
from ..mapping.mapping import Mapping
from ..mapspace.batch import SpaceDecoder, full_space_cohorts
from ..mapspace.bounds import BoundContext, BoundModel, Region
from ..mapspace.mapspace import (
    assemble_mapping,
    assignment_slots,
    full_mapping_space,
    stores_from_splits,
)
from ..search import SearchEngine
from ..sparse.spec import SparsitySpec
from ..workloads.expression import Workload
from .common import SearchResult, engine_scope

try:  # numpy is optional; the scalar walk covers its absence.
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


# A branch-and-bound node whose remaining subtree holds at most this many
# prefixes bounds all of them in one block per depth.
SUBTREE_ROWS = 1 << 14


class SearchBudgetExceeded(RuntimeError):
    """The exhaustive space is larger than the configured budget."""


def exhaustive_search(
    workload: Workload,
    arch: Architecture,
    max_evaluations: int = 2_000_000,
    orders_per_level: int | None = None,
    partial_reuse: bool = True,
    objective: str = "edp",
    engine: SearchEngine | None = None,
    workers: int = 1,
    cache: bool = True,
    sparsity: SparsitySpec | None = None,
    batch: bool = True,
    cache_size: int | None = None,
    shard: tuple[int, int] | None = None,
    batch_gen: bool = True,
    bound: bool = True,
) -> SearchResult:
    """Enumerate the full mapping space and return the best valid mapping.

    ``orders_per_level`` caps the loop permutations tried per level (None =
    all).  ``shard=(i, n)`` walks only the ``i``-th of ``n`` disjoint
    deterministic shards of the space.  ``batch_gen`` index-decodes the
    space into matrix cohorts (same candidates, same order) instead of
    materializing one ``Mapping`` per candidate; the winner is
    bit-identical either way.  ``bound`` enables exact branch-and-bound
    pruning of whole split-prefix regions (identical winner and cost;
    see module docstring).  Raises :class:`SearchBudgetExceeded` when
    the space exceeds ``max_evaluations``.
    """
    start = time.perf_counter()
    space = full_mapping_space(workload, arch, orders_per_level)

    size = space.size()
    if size > max_evaluations:
        raise SearchBudgetExceeded(
            f"exhaustive space {size} exceeds budget {max_evaluations}"
        )

    cohorts = None
    if batch_gen and not bound:
        cohorts = full_space_cohorts(workload, arch, orders_per_level,
                                     shard=shard)

    best = None
    evaluations = 0
    certificate = None
    with engine_scope(engine, workers, cache, partial_reuse, sparsity,
                      batch, cache_size) as eng:
        if bound:
            best, evaluations, certificate = _branch_and_bound(
                workload, arch, space, objective, eng, shard,
                partial_reuse, sparsity, batch_gen)
            stats = eng.stats
        elif cohorts is not None:
            # Vectorized generation: the space is index-decoded straight
            # into factor matrices in the exact enumeration order; only
            # per-cohort winners are materialized as Mappings.
            while True:
                gen_start = time.perf_counter()
                cohort = next(cohorts, None)
                eng.stats.add_stage_time(
                    "generation", time.perf_counter() - gen_start)
                if cohort is None:
                    break
                costs = eng.evaluate_cohort(*cohort.distinct())
                for idx, cost in enumerate(costs):
                    evaluations += 1
                    if not cost.valid:
                        continue
                    value = (cost.edp if objective == "edp"
                             else cost.energy_pj)
                    if best is None or value < best[0]:
                        best = (value, cohort.materialize(idx), cost)
            stats = eng.stats
        else:
            buffer: list[Mapping] = []
            # Chunk size for batched evaluation; results are scanned in
            # enumeration order with a strict < so the winner matches the
            # one-at-a-time scan exactly.
            flush_at = max(256, eng.workers * eng.chunk_size)

            def flush() -> None:
                nonlocal best, evaluations
                costs = eng.evaluate_many(buffer)
                for mapping, cost in zip(buffer, costs):
                    evaluations += 1
                    if not cost.valid:
                        continue
                    value = (cost.edp if objective == "edp"
                             else cost.energy_pj)
                    if best is None or value < best[0]:
                        best = (value, mapping, cost)
                buffer.clear()

            for mapping in space.enumerate(shard=shard):
                buffer.append(mapping)
                if len(buffer) >= flush_at:
                    flush()
            flush()
            stats = eng.stats

    elapsed = time.perf_counter() - start
    if best is None:
        return SearchResult(
            mapper="exhaustive",
            mapping=None,
            cost=None,
            evaluations=evaluations,
            wall_time_s=elapsed,
            invalid_reason="no valid mapping exists",
            search_stats=stats,
        )
    if certificate is not None:
        certificate["best_value"] = best[0]
        lb = certificate["lower_bound"]
        if lb > 0:
            certificate["gap_pct"] = (best[0] / lb - 1.0) * 100.0
    return SearchResult(
        mapper="exhaustive",
        mapping=best[1],
        cost=best[2],
        evaluations=evaluations,
        wall_time_s=elapsed,
        search_stats=stats,
        certificate=certificate,
    )


def _branch_and_bound(
    workload: Workload,
    arch: Architecture,
    space,
    objective: str,
    eng: SearchEngine,
    shard: tuple[int, int] | None,
    partial_reuse: bool,
    sparsity: SparsitySpec | None,
    batch_gen: bool = True,
):
    """Best-first DFS over split prefixes with analytic region pruning.

    Each visited node bounds *all* of its children once, then descends
    in ascending-bound order — the incumbent converges to near-optimal
    quickly, so later (worse) siblings prune wholesale.  Exactness under
    the reordered traversal comes from the argmin rule: the winner is
    the lexicographic minimum of ``(value, enumeration_index)`` over
    evaluated candidates, which is exactly the first attainer a linear
    scan would crown, and the true winner can never be pruned (the bound
    of any region containing it is <= its value <= every incumbent,
    while pruning requires a *strictly* greater bound).

    Surviving leaves (full per-dimension splits) contribute their
    in-shard ordering-block indices; those are accumulated and
    index-decoded into matrix cohorts (``batch_gen``, numpy available)
    or materialized as ``Mapping`` objects, then streamed through the
    batched evaluator.
    """
    dims = list(workload.dim_names)
    num = arch.num_levels
    slots = assignment_slots(arch)
    lattice_items = [space.axes[f"tiling[{d}]"].materialize() for d in dims]
    order_items = space.axes["ordering"].materialize()
    perms = len(order_items)
    block = perms ** num
    # tail[k]: candidates per fixed split prefix of length k.
    tail = [block] * (len(dims) + 1)
    for k in range(len(dims) - 1, -1, -1):
        tail[k] = tail[k + 1] * len(lattice_items[k])
    shard_index, shard_count = shard if shard is not None else (0, 1)

    def in_shard(base: int, count: int) -> int:
        """How many of the indices [base, base+count) land in the shard."""
        first = base + ((shard_index - base) % shard_count)
        if first >= base + count:
            return 0
        return (base + count - 1 - first) // shard_count + 1

    model = BoundModel(workload, arch, objective=objective,
                       partial_reuse=partial_reuse, sparsity=sparsity)
    stats = eng.stats
    best = None  # (value, enumeration_index, mapping, cost)
    evaluations = 0

    decoder = None
    if batch_gen and _np is not None:
        decoder = SpaceDecoder(workload, arch, perms)
        if not decoder.available:
            decoder = None

    def better(value: float, index: int) -> bool:
        return (best is None or value < best[0]
                or (value == best[0] and index < best[1]))

    if decoder is not None:
        pending: list = []  # int64 index arrays of surviving leaf blocks
        pending_n = 0
        flush_at = max(1024, eng.workers * eng.chunk_size)

        def flush() -> None:
            nonlocal best, evaluations, pending, pending_n
            if not pending_n:
                return
            gen_start = time.perf_counter()
            ks = pending[0] if len(pending) == 1 else _np.concatenate(pending)
            cohort = decoder.decode(ks)
            stats.add_stage_time(
                "generation", time.perf_counter() - gen_start)
            # Fingerprint-equal rows collapse before the engine sees
            # them; it still answers (and counts) one request per row.
            costs = eng.evaluate_cohort(*cohort.distinct())
            for idx, cost in enumerate(costs):
                evaluations += 1
                if not cost.valid:
                    continue
                value = cost.edp if objective == "edp" else cost.energy_pj
                index = int(ks[idx])
                if better(value, index):
                    best = (value, index, cohort.materialize(idx), cost)
            pending = []
            pending_n = 0

        def emit_leaf(base: int, first: int) -> None:
            nonlocal pending_n
            pending.append(_np.arange(first, base + block, shard_count,
                                      dtype=_np.int64))
            pending_n += len(pending[-1])
            if pending_n >= flush_at:
                flush()
    else:
        # Same flush threshold and block-granularity cadence as the
        # vectorized path, so the incumbent trajectory — and therefore
        # every prune decision and the evaluation count — is identical
        # with and without numpy.
        buffer: list[tuple[int, Mapping]] = []
        flush_at = max(1024, eng.workers * eng.chunk_size)

        def flush() -> None:
            nonlocal best, evaluations
            if not buffer:
                return
            costs = eng.evaluate_many([m for _, m in buffer])
            for (index, mapping), cost in zip(buffer, costs):
                evaluations += 1
                if not cost.valid:
                    continue
                value = cost.edp if objective == "edp" else cost.energy_pj
                if better(value, index):
                    best = (value, index, mapping, cost)
            buffer.clear()

        def emit_leaf(base: int, first: int) -> None:
            temporal, spatial = stores_from_splits(dims, prefix, slots, num)
            for index in range(first, base + block, shard_count):
                local = index - base
                orders = []
                for level in range(num):
                    digit = (local // perms ** (num - 1 - level)) % perms
                    orders.append(order_items[digit])
                buffer.append((index, assemble_mapping(
                    workload, arch, temporal, spatial, orders)))
            if len(buffer) >= flush_at:
                flush()

    prefix: list[tuple[int, ...]] = []

    if _np is not None:
        # Block bounds: a node bounds its children in one numpy pass
        # (bit-identical to the scalar region bound).  A row is the
        # (levels, dims) temporal/spatial factor grid of one prefix: the
        # parent's grid with column ``k`` set from dim ``k``'s lattice
        # rows scattered into their slots.  A node whose whole subtree
        # fits SUBTREE_ROWS bounds every depth below it at once, one
        # block per depth, and hands each child its slice; a block of a
        # few rows costs far more per row than one large block.
        t_slots = [i for i, (kind, _) in enumerate(slots) if kind == "t"]
        s_slots = [i for i, (kind, _) in enumerate(slots) if kind == "s"]
        t_levels = [slots[i][1] for i in t_slots]
        s_levels = [slots[i][1] for i in s_slots]
        columns = []
        for items in lattice_items:
            splits = _np.array(items, dtype=_np.int64)
            t_col = _np.ones((len(splits), num), dtype=_np.int64)
            s_col = _np.ones((len(splits), num), dtype=_np.int64)
            t_col[:, t_levels] = splits[:, t_slots]
            s_col[:, s_levels] = splits[:, s_slots]
            columns.append((t_col, s_col))
        free_after = [{d: workload.dims[d] for d in dims[k + 1:]}
                      for k in range(len(dims))]
        # subtree[k]: prefixes below a depth-k node, over all depths.
        subtree = [0] * (len(dims) + 1)
        for k in range(len(dims) - 1, -1, -1):
            subtree[k] = len(lattice_items[k]) * (1 + subtree[k + 1])

        def bounds_below(k: int, rows):
            depth = len(dims) if subtree[k] <= SUBTREE_ROWS else k + 1
            t_grid, s_grid = rows[0][None], rows[1][None]
            levels = []
            for j in range(k, depth):
                t_col, s_col = columns[j]
                reps = len(t_grid)
                t_grid = _np.repeat(t_grid, len(t_col), axis=0)
                s_grid = _np.repeat(s_grid, len(s_col), axis=0)
                t_grid[:, :, j] = _np.tile(t_col, (reps, 1))
                s_grid[:, :, j] = _np.tile(s_col, (reps, 1))
                levels.append(model.block_bound(
                    t_grid, s_grid, free_after[j]).tolist())
            if depth > k + 1:
                return levels, None
            return levels, lambda j: (t_grid[j], s_grid[j])

        root = (_np.ones((num, len(dims)), dtype=_np.int64),
                _np.ones((num, len(dims)), dtype=_np.int64))
    else:
        def bounds_below(k: int, rows):
            values = []
            for split in lattice_items[k]:
                prefix.append(split)
                region = Region.from_splits(
                    workload, arch, dict(zip(dims, prefix)))
                prefix.pop()
                values.append(space.bound(objective,
                                          BoundContext(model, region)))
            return [values], None

        root = None

    def walk(k: int, base: int, rows, below) -> None:
        """Visit the depth-``k`` node at enumeration offset ``base``:
        ``rows`` is its factor grid, ``below`` its subtree's bounds per
        depth when an ancestor computed them (else ``None``)."""
        if k == len(dims):
            first = base + ((shard_index - base) % shard_count)
            if first < base + block:
                emit_leaf(base, first)
            return
        stride = tail[k + 1]
        child_rows = None
        if below is None:
            bound_start = time.perf_counter()
            below, child_rows = bounds_below(k, rows)
            stats.add_stage_time("bound", time.perf_counter() - bound_start)
        values = below[0]
        count = len(values)
        # Counted where a node is visited, as if it bounded its children.
        stats.bound_regions_tested += count
        # Each child's slice of every deeper depth's bounds.
        spans = [(level, len(level) // count) for level in below[1:]]
        # Ascending (bound, j): a stable sort of the in-order indices.
        order = sorted(range(count), key=values.__getitem__)
        for pos, j in enumerate(order):
            # Strict >: a region whose bound merely equals the incumbent
            # could still hold an equal-value candidate that outranks the
            # incumbent on enumeration index.
            if best is not None and values[j] > best[0]:
                # Siblings are sorted by bound, so everything from here
                # on prunes against the same incumbent.
                for j2 in order[pos:]:
                    stats.bound_regions_pruned += 1
                    stats.bound_candidates_skipped += in_shard(
                        base + j2 * stride, stride)
                return
            prefix.append(lattice_items[k][j])
            walk(k + 1, base + j * stride,
                 child_rows(j) if child_rows is not None else None,
                 [level[j * w:(j + 1) * w] for level, w in spans] or None)
            prefix.pop()

    try:
        walk(0, 0, root, None)
    finally:
        # ``walk`` recurses through its own closure cell: dropping the
        # name breaks that cycle, so the engine, its cache and every
        # result are freed by refcount once the search returns.
        del walk
    flush()
    certificate = {"lower_bound": model.space_bound()}
    if best is not None:
        best = (best[0], best[2], best[3])
    return best, evaluations, certificate
