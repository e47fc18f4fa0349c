"""Vectorised cohort evaluation of mappings (``evaluate_batch``).

A Sunstone level sweep evaluates dozens of sibling candidates that share
one workload and architecture.  This module lays such a cohort out as
float64 numpy arrays — one row per candidate, one column per memory
level — and performs the energy/cycle rollups of
:func:`repro.model.cost.evaluate` with elementwise array ops.

Bit-identity contract
---------------------
Every field of every returned :class:`~repro.model.cost.CostResult` is
bit-identical to the scalar path:

* the per-(tensor, storage-pair) *terms* (fills, window-overlap fill
  words, sparse traffic scaling) come from the very same
  :func:`repro.model.terms.pair_term` the scalar path uses — exact
  integer arithmetic plus Python-float conversions at fixed points;
* every floating-point operation downstream of the terms is elementwise
  (``+``, ``*``, ``/``, ``maximum``) in exactly the scalar accumulation
  order, and IEEE-754 elementwise float64 ops round identically to the
  equivalent Python-float ops — no ``np.sum`` (pairwise summation) or
  other reassociation anywhere;
* numpy absent, or the cohort too small to be worth staging, falls back
  to calling the scalar :func:`~repro.model.cost.evaluate` per mapping.

``tests/test_model_batch.py`` pins the contract with seeded hypothesis
cases across window/halo workloads, bypass configs and sparsity specs.
"""

from __future__ import annotations

from ..mapping.mapping import Mapping
from ..sparse.spec import SparsitySpec
from .cost import CostResult, evaluate
from .terms import (MappingView, ModelInfo, _compute_term, _level_problems,
                    model_info)

try:  # numpy is an optional extra; the scalar fallback is bit-identical
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

HAVE_NUMPY = _np is not None

# Below this group size the array staging costs more than it saves.
MIN_BATCH = 4


def _groups(mappings: list[Mapping]):
    """Input indices of ``mappings`` per (workload, architecture) pair."""
    groups: dict[tuple[int, int], list[int]] = {}
    for k, m in enumerate(mappings):
        groups.setdefault((id(m.workload), id(m.arch)), []).append(k)
    return groups.values()


def vectorised_rows(mappings: list[Mapping]) -> int:
    """How many of ``mappings`` :func:`evaluate_batch` runs through an
    array rollup; the rest fall back to the scalar model."""
    if _np is None or len(mappings) < MIN_BATCH:
        return 0
    return sum(len(g) for g in _groups(mappings) if len(g) >= MIN_BATCH)


def evaluate_batch(
    mappings: list[Mapping],
    partial_reuse: bool = True,
    sparsity: SparsitySpec | None = None,
) -> list[CostResult]:
    """Evaluate a cohort of mappings, vectorising where profitable.

    Mappings may mix workloads/architectures; candidates are grouped by
    (workload, architecture) object pair and each group of at least
    ``MIN_BATCH`` is evaluated with array rollups.  Results are returned
    in input order and are bit-identical to
    ``[evaluate(m, ...) for m in mappings]``.
    """
    if _np is None or len(mappings) < MIN_BATCH:
        return [evaluate(m, partial_reuse=partial_reuse, sparsity=sparsity)
                for m in mappings]
    results: list[CostResult | None] = [None] * len(mappings)
    for indices in _groups(mappings):
        first = mappings[indices[0]]
        if len(indices) < MIN_BATCH:
            for k in indices:
                results[k] = evaluate(mappings[k],
                                      partial_reuse=partial_reuse,
                                      sparsity=sparsity)
            continue
        info = model_info(first.workload, first.arch)
        group = [mappings[k] for k in indices]
        for k, res in zip(indices, _evaluate_group(group, info,
                                                   partial_reuse, sparsity)):
            results[k] = res
    return results  # type: ignore[return-value]


class _CohortGeometry:
    """Exact int64 staging of one cohort's loop-bound geometry.

    The per-level temporal/spatial factors of every candidate are laid
    out as ``(n, levels, dims)`` int64 arrays whose cumulative products
    along the level axis reproduce ``Mapping.cumulative_sizes`` — the
    same integers, so every fingerprint built from them matches the
    scalar path's keys exactly.  Spans and suffix runs are staged
    lazily per requested level.
    """

    __slots__ = ("views", "info", "n", "cum_t", "cum_s", "t_from",
                 "_spans", "_runs", "_sp_cols", "_t_mat", "_order_ids",
                 "_order_table")

    def __init__(self, views: list[MappingView],
                 mappings: list[Mapping], info: ModelInfo) -> None:
        np = _np
        self.views = views
        self.info = info
        n = len(mappings)
        self.n = n
        num = info.num_levels
        nd = len(info.dim_names)
        pos = info.dim_index
        one_row = [1] * nd
        flat_t: list[int] = []
        flat_s: list[int] = []
        for m in mappings:
            for lvl in m.levels:
                row = one_row.copy()
                for d, f in lvl._nontrivial_temporal:
                    row[pos[d]] = f
                flat_t.extend(row)
                row = one_row.copy()
                for d, f in lvl._nontrivial_spatial:
                    row[pos[d]] = f
                flat_s.extend(row)
        shape = (n, num, nd)
        self.cum_t = np.cumprod(
            np.array(flat_t, dtype=np.int64).reshape(shape), axis=1)
        self.cum_s = np.cumprod(
            np.array(flat_s, dtype=np.int64).reshape(shape), axis=1)
        self.t_from = np.array([v.t_from for v in views], dtype=np.int64)
        self._spans: dict[int, object] = {}
        self._runs: dict[int, object] = {}
        self._sp_cols = None
        self._t_mat = None
        self._order_ids = None
        self._order_table = None

    @classmethod
    def from_arrays(cls, info: ModelInfo, t_mat, s_mat, order_ids,
                    order_table) -> "_CohortGeometry":
        """Geometry straight from ``(n, levels, dims)`` factor matrices.

        ``t_mat``/``s_mat`` columns follow ``info.dim_names``;
        ``order_table[order_ids[k]]`` gives candidate ``k``'s per-level
        loop-order dim sequences (trivial factors included — they mask
        out exactly like the nontrivial-only nests of the views path).
        No ``Mapping`` objects exist anywhere on this path.
        """
        np = _np
        geo = cls.__new__(cls)
        geo.views = None
        geo.info = info
        n = int(t_mat.shape[0])
        geo.n = n
        num = info.num_levels
        geo.cum_t = np.cumprod(t_mat, axis=1)
        geo.cum_s = np.cumprod(s_mat, axis=1)
        # t_from[l] = product of every temporal bound at levels >= l;
        # the per-level product over the dim axis equals the nest's
        # _temporal_product exactly (absent dims contribute 1).
        tp = np.prod(t_mat, axis=2, dtype=np.int64)
        t_from = np.ones((n, num + 1), dtype=np.int64)
        acc = np.ones(n, dtype=np.int64)
        for level in range(num - 1, -1, -1):
            acc = acc * tp[:, level]
            t_from[:, level] = acc
        geo.t_from = t_from
        geo._t_mat = t_mat
        geo._order_ids = order_ids
        geo._order_table = order_table
        geo._spans = {}
        geo._runs = {}
        geo._sp_cols = (
            np.prod(s_mat, axis=2, dtype=np.int64),
            (s_mat > 1).sum(axis=2).astype(np.int64),
        )
        return geo

    def sp_cols(self):
        """(n, levels) spatial-size and nontrivial-unroll-count arrays
        (the first two fingerprint columns of the violation checks)."""
        out = self._sp_cols
        if out is None:
            out = (_np.array([v.sp_all for v in self.views],
                             dtype=_np.int64),
                   _np.array([v.sp_counts for v in self.views],
                             dtype=_np.int64))
            self._sp_cols = out
        return out

    def spans(self, level: int):
        """Tile spans ``(n, dims)`` of one level-``level`` instance:
        exactly ``cumulative_sizes(level)`` laid out per candidate."""
        out = self._spans.get(level)
        if out is None:
            out = self.cum_t[:, level]
            if level > 0:
                out = out * self.cum_s[:, level - 1]
            self._spans[level] = out
        return out

    def runs(self, child: int):
        """``(n, tensors, 3)`` int64: per tensor the trailing temporal
        run above ``child`` as (trailing product, innermost relevant
        dim index or -1, its bound), from the shared suffix walks."""
        out = self._runs.get(child)
        if out is None:
            if self.views is not None:
                pos = self.info.dim_index
                out = _np.array(
                    [[(r[0], pos.get(r[1], -1), r[2])
                      for r in v.suffix_info(child)] for v in self.views],
                    dtype=_np.int64)
            else:
                out = self._runs_from_arrays(child)
            self._runs[child] = out
        return out

    def _runs_from_arrays(self, child: int):
        """Vectorized suffix walk over the factor matrices.

        Mirrors ``MappingView.suffix_info`` exactly: walk the loops
        above ``child`` innermost-first, per tensor record the trailing
        bound product *before* the first nontrivial loop over one of its
        indexing dims (plus that loop's dim and bound).  The walk runs
        over the full per-level order sequences; trivial bounds multiply
        1 into the trailing product (a no-op) and are masked out of the
        found check — identical to walking the nontrivial-only nests.
        """
        np = _np
        info = self.info
        tensors = info.tensors
        pos = info.dim_index
        num = info.num_levels
        t_mat = self._t_mat
        out = np.empty((self.n, len(tensors), 3), dtype=np.int64)
        out[:, :, 0] = 1
        out[:, :, 1] = -1
        out[:, :, 2] = 1
        order_ids = self._order_ids
        for combo in np.unique(order_ids).tolist():
            rows = np.nonzero(order_ids == combo)[0]
            seqs = self._order_table[combo]
            trailing = np.ones(len(rows), dtype=np.int64)
            found = np.zeros((len(rows), len(tensors)), dtype=bool)
            for level in range(child + 1, num):
                if found.all():
                    break
                seq = seqs[level] if level < len(seqs) else ()
                for d in reversed(seq):
                    j = pos.get(d, -1)
                    if j < 0:
                        continue
                    f = t_mat[rows, level, j]
                    active = f > 1
                    if active.any():
                        for tinfo in tensors:
                            if d not in tinfo.indexing:
                                continue
                            ti = tinfo.index
                            newly = active & ~found[:, ti]
                            if newly.any():
                                sel = rows[newly]
                                out[sel, ti, 0] = trailing[newly]
                                out[sel, ti, 1] = j
                                out[sel, ti, 2] = f[newly]
                                found[:, ti] |= newly
                    trailing = trailing * f
        return out


def _pair_term_cols(info, tinfo, child, partial_reuse, spec, geo, idxb):
    """Term columns of one (tensor, child) for a whole cohort.

    Builds the fingerprint rows as int64 columns and runs
    :func:`~repro.model.terms._compute_term` once per *distinct*
    fingerprint — sweep cohorts repeat fingerprints heavily.  Returns the
    per-candidate ``(fills, distinct, fill_words, pair_words)`` columns,
    scattered back exactly (integer/float64 gathers reorder nothing).
    """
    np = _np
    num = info.num_levels
    rel = tinfo.rel_dims
    nrel = len(rel)
    sub = geo.spans(child)[:, list(tinfo.rel_idx)]
    span_prod = np.prod(sub, axis=1, dtype=np.int64)
    t_rel = tinfo.rel_total // (
        span_prod * (idxb[:, num] // idxb[:, child]))
    run = geo.runs(child)[:, tinfo.index, :]
    trivial = t_rel == 1
    fills = np.where(trivial, 1,
                     geo.t_from[:, child + 1] // run[:, 0])
    inner_id = np.where(trivial, -1, run[:, 1])
    inner_bound = np.where(trivial, 1, run[:, 2])
    key_mat = np.column_stack([sub, fills, inner_id, inner_bound, t_rel])

    dim_names = info.dim_names
    local: dict[tuple, int] = {}
    local_get = local.get
    inverse: list[int] = []
    inv_append = inverse.append
    d_fills: list[int] = []
    d_dist: list[int] = []
    d_fw: list[float] = []
    d_pw: list[float] = []
    for row in key_mat.tolist():
        kt = tuple(row)
        slot = local_get(kt)
        if slot is None:
            spans_row = row[:nrel]
            fills_u, inner_id_u, inner_bound_u, t_rel_u = row[nrel:]
            inner_dim = dim_names[inner_id_u] if inner_id_u >= 0 else None
            term = _compute_term(info, tinfo, dict(zip(rel, spans_row)),
                                 tuple(spans_row), fills_u, inner_dim,
                                 inner_bound_u, t_rel_u, partial_reuse, spec)
            slot = len(d_fills)
            local[kt] = slot
            d_fills.append(term[0])
            d_dist.append(term[1])
            d_fw.append(term[2])
            d_pw.append(term[3])
        inv_append(slot)
    if len(d_fills) == 1:
        # One fingerprint for the whole cohort — broadcast it.
        n = len(inverse)
        return (np.full(n, d_fills[0], dtype=np.int64),
                np.full(n, d_dist[0], dtype=np.int64),
                np.full(n, d_fw[0]),
                np.full(n, d_pw[0]))
    inv = np.array(inverse, dtype=np.intp)
    return (np.array(d_fills, dtype=np.int64)[inv],
            np.array(d_dist, dtype=np.int64)[inv],
            np.array(d_fw)[inv],
            np.array(d_pw)[inv])


def _violations_cols(info, geo):
    """Per-candidate violation lists, one check per distinct profile.

    Mirrors ``mapping_violations`` (same strings, same order) but builds
    one fused fingerprint row per candidate — every level's spatial
    unrolling plus the tile spans its capacity check reads — and runs
    :func:`~repro.model.terms._level_problems` once per distinct row,
    sharing the (immutable) result lists across candidates.
    """
    np = _np
    sp_all, sp_counts = geo.sp_cols()
    cols = [sp_all, sp_counts]
    num = info.num_levels
    offsets = []
    off = 2 * num
    for _lvl, kind, _payload, _union, union_idx in info.level_checks:
        if kind == "skip":
            offsets.append(None)
        else:
            cols.append(geo.spans(len(offsets))[:, list(union_idx)])
            offsets.append((off, off + len(union_idx)))
            off += len(union_idx)
    key_mat = np.column_stack(cols)
    local: dict[tuple, list[str]] = {}
    local_get = local.get
    results: list[list[str]] = []
    for row in key_mat.tolist():
        kt = tuple(row)
        problems = local_get(kt)
        if problems is None:
            problems = []
            for i, (arch_level, kind, payload, union_dims, _uidx) in \
                    enumerate(info.level_checks):
                span = offsets[i]
                sizes = dict(zip(union_dims, row[span[0]:span[1]])) \
                    if span is not None else None
                problems.extend(_level_problems(
                    info, arch_level, kind, payload, row[i], row[num + i],
                    sizes))
            local[kt] = problems
        # Fresh list per candidate: results must not alias each other.
        results.append(list(problems))
    return results


def _evaluate_group(
    mappings: list[Mapping],
    info: ModelInfo,
    partial_reuse: bool,
    sparsity: SparsitySpec | None,
) -> list[CostResult]:
    """Array rollup of one same-(workload, arch) cohort of Mappings."""
    views = [MappingView(m, info) for m in mappings]
    geo = _CohortGeometry(views, mappings, info)
    return _rollup(geo, partial_reuse, sparsity)


def evaluate_geometry(
    workload,
    arch,
    t_mat,
    s_mat,
    order_ids,
    order_table,
    partial_reuse: bool = True,
    sparsity: SparsitySpec | None = None,
) -> list[CostResult]:
    """Evaluate a cohort given directly as factor matrices.

    ``t_mat``/``s_mat`` are ``(n, levels, dims)`` int64 arrays in
    ``workload.dim_names`` column order; ``order_table[order_ids[k]]``
    holds candidate ``k``'s per-level loop-order sequences.  Results are
    bit-identical to materializing each candidate as a ``Mapping`` and
    calling the scalar :func:`~repro.model.cost.evaluate` — this is the
    end of the Mapping-free generation pipeline
    (:mod:`repro.mapspace.batch`).
    """
    if _np is None:
        raise RuntimeError("evaluate_geometry requires numpy")
    info = model_info(workload, arch)
    geo = _CohortGeometry.from_arrays(info, t_mat, s_mat, order_ids,
                                      order_table)
    return _rollup(geo, partial_reuse, sparsity)


def _rollup(
    geo: _CohortGeometry,
    partial_reuse: bool,
    sparsity: SparsitySpec | None,
) -> list[CostResult]:
    """Array rollup over staged geometry (views- or matrix-backed)."""
    np = _np
    info = geo.info
    arch = info.arch
    n = geo.n
    num = info.num_levels

    reads = np.zeros((n, num))
    writes = np.zeros((n, num))
    noc_words = {i: np.zeros(n) for i in info.fanout_levels}

    # Exact spatial prefix products, one row per candidate: ratios of
    # columns give sharing lanes, multicast boundaries and instance
    # counts as exact int64 divisions (identical to the scalar ints).
    ones_col = np.ones((n, 1), dtype=np.int64)
    spb = np.concatenate(
        [ones_col, np.prod(geo.cum_s, axis=2, dtype=np.int64)], axis=1)
    total_inst = spb[:, num]

    total_ops = info.total_ops
    energy_ops: float = total_ops
    cycle_ops: float = total_ops
    op_scale = 1.0
    if sparsity is not None:
        from ..sparse.saf import compute_scales
        op_scale, cycle_scale = compute_scales(sparsity, info.tensor_names)
        energy_ops = total_ops * op_scale
        cycle_ops = total_ops * cycle_scale

    pair_ratios: dict[tuple[int, int], tuple] = {}
    for tinfo in info.tensors:
        spec = sparsity.get(tinfo.name) if sparsity is not None else None
        innermost = tinfo.innermost
        idxb = np.concatenate(
            [ones_col,
             np.prod(geo.cum_s[:, :, list(tinfo.rel_idx)], axis=2,
                     dtype=np.int64)],
            axis=1)

        # ---- compute-side accesses at the innermost storage level ----
        # int64 operands promote to float64 exactly (values < 2**53),
        # identical to the scalar float(int) conversions.
        share = spb[:, innermost] // idxb[:, innermost]
        compute_accesses = float(total_ops) / share
        if sparsity is not None:
            compute_accesses = compute_accesses * op_scale
        if tinfo.is_output:
            writes[:, innermost] += compute_accesses
            reads[:, innermost] += compute_accesses
        else:
            reads[:, innermost] += compute_accesses

        # ---- transfers between adjacent storage levels ----
        for child, parent in tinfo.pairs:
            fills_a, dist_a, fw, pw = _pair_term_cols(
                info, tinfo, child, partial_reuse, spec, geo, idxb)
            bi = idxb[:, parent] // idxb[:, child]
            ratios = pair_ratios.get((child, parent))
            if ratios is None:
                ratios = (spb[:, parent] // spb[:, child],
                          total_inst // spb[:, parent])
                pair_ratios[(child, parent)] = ratios
            ba, ab = ratios

            child_side = fw * ba * ab
            parent_side = fw * bi * ab

            if tinfo.is_output:
                reads[:, child] += child_side
                writes[:, parent] += parent_side
                # Accumulation read-back; the masked zeros are exact
                # additive identities (all accumulators are >= +0.0).
                rv = fills_a - dist_a
                mask = rv > 0
                writes[:, child] += np.where(mask, rv * pw * ba * ab, 0.0)
                reads[:, parent] += np.where(mask, rv * pw * bi * ab, 0.0)
            else:
                writes[:, child] += child_side
                reads[:, parent] += parent_side

            for j in range(child, parent):
                if j in info.fanout_set:
                    noc_words[j] += parent_side

    # ---- energy rollup (scalar accumulation order preserved) ----
    # Per-access energies are the resolved-technology floats hoisted on
    # ModelInfo (the same objects as the levels' attributes).
    read_energies = info.read_energies
    write_energies = info.write_energies
    network_energies = info.network_energies
    level_energy = np.empty((n, num))
    total = np.zeros(n)
    for i in range(num):
        energy = (reads[:, i] * read_energies[i]
                  + writes[:, i] * write_energies[i])
        level_energy[:, i] = energy
        total = total + energy

    noc_energy = np.zeros(n)
    chip2chip_energy = np.zeros(n) if info.chip2chip_levels else None
    for boundary in info.fanout_levels:
        contribution = noc_words[boundary] * network_energies[boundary]
        noc_energy = noc_energy + contribution
        if chip2chip_energy is not None and boundary in info.chip2chip_levels:
            chip2chip_energy = chip2chip_energy + contribution
    total = total + noc_energy

    compute_energy = energy_ops * info.mac_energy
    total = total + compute_energy

    # ---- latency rollup ----
    lanes = np.maximum(total_inst * arch.mac_width, 1)
    cycles = float(cycle_ops) / lanes
    for i, arch_level in enumerate(arch.levels):
        instances = total_inst // spb[:, i]
        read_cycles = reads[:, i] / instances / arch_level.read_bandwidth
        write_cycles = writes[:, i] / instances / arch_level.write_bandwidth
        cycles = np.maximum(np.maximum(cycles, read_cycles), write_cycles)
    # Finite-bandwidth interconnect links (chip2chip), mirroring the
    # scalar path's trailing max terms.
    for boundary, link_bw in info.link_bandwidths:
        cycles = np.maximum(cycles, noc_words[boundary] / link_bw)

    total_fanout = arch.total_fanout
    all_violations = _violations_cols(info, geo)
    # ndarray.tolist() converts float64 -> Python float exactly (same
    # bits as per-element float() calls), one C pass per array.
    total_l = total.tolist()
    cycles_l = cycles.tolist()
    noc_l = noc_energy.tolist()
    c2c_l = (chip2chip_energy.tolist()
             if chip2chip_energy is not None else None)
    level_rows = level_energy.tolist()
    # total_inst is the machine-wide instance count (inst_above[0] of
    # the scalar view); the int64/int division is the same IEEE op.
    util_l = (total_inst / total_fanout).tolist()
    names = [arch.levels[i].name for i in range(num)]
    results: list[CostResult] = []
    for k in range(n):
        violations = all_violations[k]
        row = level_rows[k]
        results.append(CostResult(
            energy_pj=total_l[k],
            cycles=cycles_l[k],
            valid=not violations,
            violations=violations,
            level_energy=dict(zip(names, row)),
            compute_energy=compute_energy,
            noc_energy=noc_l[k],
            chip2chip_energy=c2c_l[k] if c2c_l is not None else 0.0,
            utilization=util_l[k],
            accesses=None,
        ))
    return results
