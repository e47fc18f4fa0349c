"""Evaluation-ready candidate cohorts: geometry matrices, not Mappings.

The scalar pipeline builds a :class:`~repro.mapping.mapping.Mapping`
dataclass per candidate only for :mod:`repro.model.batch` to immediately
re-stage it as int64 factor matrices.  A :class:`Cohort` skips the
round-trip: it carries the per-candidate temporal/spatial factor
matrices (``(n, levels, dims)``) plus per-level loop-order sequences —
exactly the staging the vectorized cost model consumes — and can still
``materialize(i)`` the *i*-th candidate as a bona-fide ``Mapping``
(bit-identical to what the scalar path would have built) for winners and
checkpoint journal entries.

Two concrete cohorts cover the two producers:

* :class:`NestCohort` — built by the beam schedulers from per-candidate
  completed nests (:meth:`from_nests`);
* :class:`MatrixCohort` — built by :func:`full_space_cohorts`, which
  index-decodes the exhaustive full mapping space straight into
  matrices, in the exact historical enumeration order, shardable.

Everything degrades gracefully without numpy: ``geometry()`` and
``evaluate_rows`` return ``None`` and callers fall back to
``materialize`` + scalar evaluation, which the differential tests pin.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Sequence

from ..arch.spec import Architecture
from ..mapping.mapping import LevelMapping, Mapping
from ..workloads.expression import Workload
from .factor import FactorLattice
from .spaces import DEFAULT_COHORT, check_shard

try:  # numpy is optional everywhere in this repo
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy CI leg
    _np = None

HAVE_NUMPY = _np is not None

# Spaces larger than this never take the index-decoded path (the
# exhaustive driver's evaluation budget rejects them long before, but
# the decode math should not be asked to range over them either).
_MAX_DECODED_SPACE = 1 << 40


class Cohort:
    """A batch of mapping candidates in evaluation-ready form."""

    workload: Workload
    arch: Architecture

    def __len__(self) -> int:
        raise NotImplementedError

    def fingerprint_levels(self, i: int) -> tuple:
        """The per-level part of ``mapping_fingerprint`` for row ``i``:
        ``tuple((nontrivial_temporal, sorted_nontrivial_spatial))`` per
        level, with python ints — identical to what the scalar path
        computes from the materialized ``Mapping``."""
        raise NotImplementedError

    def materialize(self, i: int) -> Mapping:
        """The row-``i`` candidate as a ``Mapping``, bit-identical to
        the one the scalar path would have built."""
        raise NotImplementedError

    def geometry(self):
        """``(t_mat, s_mat, order_ids, order_table)`` or ``None``.

        ``t_mat``/``s_mat`` are ``(n, levels, dims)`` int64 matrices in
        ``workload.dim_names`` column order; ``order_table[order_ids[i]]``
        is row ``i``'s tuple of per-level loop-order dim sequences.
        ``None`` when numpy is unavailable.
        """
        raise NotImplementedError

    def evaluate_rows(self, indices: Sequence[int], partial_reuse,
                      sparsity):
        """Vectorized evaluation of the selected rows (in order), or
        ``None`` when the geometry path is unavailable."""
        staged = self._stage_rows(indices)
        if staged is None:
            return None
        from ..model.batch import evaluate_geometry
        return evaluate_geometry(
            self.workload, self.arch, *staged,
            partial_reuse=partial_reuse, sparsity=sparsity)

    def _stage_rows(self, indices: Sequence[int]):
        """``geometry()`` restricted to the selected rows, or ``None``."""
        geom = self.geometry()
        if geom is None:
            return None
        t_mat, s_mat, order_ids, order_table = geom
        idx = _np.asarray(list(indices), dtype=_np.int64)
        return t_mat[idx], s_mat[idx], order_ids[idx], order_table


def _nontrivial_temporal(nest: Sequence[tuple[str, int]]) -> tuple:
    return tuple([(d, f) for d, f in nest if f > 1])


def _nontrivial_spatial(pairs: Sequence[tuple[str, int]]) -> tuple:
    return tuple(sorted([(d, f) for d, f in pairs if f > 1]))


class NestCohort(Cohort):
    """Cohort over explicitly completed per-candidate nests.

    ``candidates[i]`` is ``(nests, spatials)``: per-level temporal nest
    tuples (outermost first, trivial factors included, exactly as
    ``build_mapping`` would emit them) and per-level sorted spatial
    factor tuples.
    """

    def __init__(self, workload: Workload, arch: Architecture,
                 candidates: Sequence[tuple]) -> None:
        self.workload = workload
        self.arch = arch
        self._candidates = list(candidates)
        self._geometry = None
        self._geometry_built = False
        # (id(nest), id(spatial)) -> that level's fingerprint part.  The
        # final sweep step shares level nests and spatial tuples across
        # rows; the candidates keep them alive, so no id is reused.
        self._parts: dict[tuple[int, int], tuple] = {}

    @classmethod
    def from_nests(cls, workload: Workload, arch: Architecture,
                   candidates: Sequence[tuple]) -> "NestCohort":
        return cls(workload, arch, candidates)

    def __len__(self) -> int:
        return len(self._candidates)

    def fingerprint_levels(self, i: int) -> tuple:
        nests, spatials = self._candidates[i]
        parts = self._parts
        out = []
        for nest, spatial in zip(nests, spatials):
            key = (id(nest), id(spatial))
            part = parts.get(key)
            if part is None:
                part = parts[key] = (_nontrivial_temporal(nest),
                                     _nontrivial_spatial(spatial))
            out.append(part)
        return tuple(out)

    def materialize(self, i: int) -> Mapping:
        nests, spatials = self._candidates[i]
        levels = [
            LevelMapping(temporal=tuple(nest), spatial=tuple(spatial))
            for nest, spatial in zip(nests, spatials)
        ]
        return Mapping(self.workload, self.arch, levels)

    def geometry(self):
        if not self._geometry_built:
            self._geometry_built = True
            if _np is not None and self._candidates:
                self._geometry = self._stage(self._candidates)
        return self._geometry

    def _stage_rows(self, indices: Sequence[int]):
        """Without staged geometry, stage only the selected rows: a
        sweep cohort's cache misses are a fraction of its rows."""
        if _np is None or self._geometry_built:
            return super()._stage_rows(indices)
        rows = [self._candidates[i] for i in indices]
        return self._stage(rows) if rows else None

    def _stage(self, candidates: Sequence[tuple]):
        """``(t_mat, s_mat, order_ids, order_table)`` of ``candidates``."""
        dims = self.workload.dim_names
        pos = {d: j for j, d in enumerate(dims)}
        num = self.arch.num_levels
        n = len(candidates)
        t_mat = _np.ones((n, num, len(dims)), dtype=_np.int64)
        s_mat = _np.ones((n, num, len(dims)), dtype=_np.int64)
        order_ids = _np.empty(n, dtype=_np.int64)
        combo_ids: dict[tuple, int] = {}
        order_table: list[tuple] = []
        for i, (nests, spatials) in enumerate(candidates):
            seqs = tuple(tuple(d for d, _ in nest) for nest in nests)
            combo = combo_ids.get(seqs)
            if combo is None:
                combo = combo_ids[seqs] = len(order_table)
                order_table.append(seqs)
            order_ids[i] = combo
            for level, nest in enumerate(nests):
                for d, f in nest:
                    if f != 1:
                        t_mat[i, level, pos[d]] = f
            for level, spatial in enumerate(spatials):
                for d, f in spatial:
                    if f != 1:
                        s_mat[i, level, pos[d]] = f
        return t_mat, s_mat, order_ids, order_table


class MatrixCohort(Cohort):
    """Cohort backed directly by factor matrices (full-space decode)."""

    def __init__(self, workload: Workload, arch: Architecture,
                 t_mat, s_mat, order_ids, order_table) -> None:
        self.workload = workload
        self.arch = arch
        self._t_mat = t_mat
        self._s_mat = s_mat
        self._order_ids = order_ids
        self._order_table = order_table
        # Per level: each row's part index and the distinct
        # ``(nest, spatial)`` parts, built on the first fingerprint (a
        # cohort that is only grouped by :meth:`distinct` never pays).
        self._parts = None

    def __len__(self) -> int:
        return len(self._t_mat)

    def _build_parts(self) -> list[tuple[list[int], list[tuple]]]:
        """Each level's distinct (loop order, t row, s row) keys, found
        with ``np.unique``, and one ``(nest, spatial)`` part per key."""
        t_mat, s_mat = self._t_mat, self._s_mat
        num = self.arch.num_levels
        dims = self.workload.dim_names
        pos = {d: j for j, d in enumerate(dims)}
        sorted_cols = [(d, pos[d]) for d in sorted(dims)]
        # per level: loop-order sequence -> order id
        level_orders: list[dict] = [{} for _ in range(num)]
        combo_orders = _np.zeros((len(self._order_table), num),
                                 dtype=_np.int64)
        for combo, seqs in enumerate(self._order_table):
            for level, seq in enumerate(seqs):
                ids = level_orders[level]
                combo_orders[combo, level] = ids.setdefault(seq, len(ids))
        row_orders = combo_orders[self._order_ids]
        parts = []
        for level in range(num):
            keys = _np.concatenate([row_orders[:, level:level + 1],
                                    t_mat[:, level], s_mat[:, level]],
                                   axis=1)
            _, first, inverse = _np.unique(_row_keys(keys),
                                           return_index=True,
                                           return_inverse=True)
            orders = list(level_orders[level])
            level_parts = []
            for row in first.tolist():
                order = orders[int(row_orders[row, level])]
                t_level = t_mat[row, level].tolist()
                s_level = s_mat[row, level].tolist()
                level_parts.append((
                    tuple([(d, t_level[pos[d]]) for d in order
                           if t_level[pos[d]] > 1]),
                    tuple([(d, s_level[j]) for d, j in sorted_cols
                           if s_level[j] > 1])))
            parts.append((inverse.reshape(-1).tolist(), level_parts))
        return parts

    def fingerprint_levels(self, i: int) -> tuple:
        if self._parts is None:
            self._parts = self._build_parts()
        return tuple([level_parts[rows[i]]
                      for rows, level_parts in self._parts])

    def materialize(self, i: int) -> Mapping:
        dims = self.workload.dim_names
        pos = {d: j for j, d in enumerate(dims)}
        sorted_dims = sorted(dims)
        orders = self._order_table[int(self._order_ids[i])]
        t_row = self._t_mat[i].tolist()
        s_row = self._s_mat[i].tolist()
        levels = []
        for level in range(self.arch.num_levels):
            t_level = t_row[level]
            s_level = s_row[level]
            nest = tuple((d, t_level[pos[d]]) for d in orders[level])
            spatial = tuple((d, s_level[pos[d]]) for d in sorted_dims
                            if s_level[pos[d]] > 1)
            levels.append(LevelMapping(temporal=nest, spatial=spatial))
        return Mapping(self.workload, self.arch, levels)

    def geometry(self):
        return (self._t_mat, self._s_mat, self._order_ids,
                self._order_table)

    def distinct(self) -> tuple["MatrixCohort", list[int]]:
        """Collapse fingerprint-equal rows: ``(unique, rows_of)``.

        ``unique`` holds the first row of every distinct fingerprint, in
        first-occurrence order, and row ``i`` of this cohort is row
        ``rows_of[i]`` of ``unique`` — the request map of
        :meth:`~repro.search.engine.SearchEngine.evaluate_cohort`.  A
        row is keyed on its t row, its s row and, per level, each
        nontrivial dim's rank among that level's nontrivial loops (-1
        for trivial dims): exactly what ``fingerprint_levels`` keeps,
        so keys and fingerprints match one-to-one.
        """
        t_mat, s_mat = self._t_mat, self._s_mat
        n, num, ndims = t_mat.shape
        # position of each dim in each level's loop order, per order combo
        index = {d: j for j, d in enumerate(self.workload.dim_names)}
        where = _np.zeros((len(self._order_table), num, ndims),
                          dtype=_np.int64)
        for combo, seqs in enumerate(self._order_table):
            for level, seq in enumerate(seqs):
                for p, d in enumerate(seq):
                    where[combo, level, index[d]] = p
        loops = where[self._order_ids]
        active = t_mat > 1
        # rank = how many active loops of the level sit before this one
        before = (loops[:, :, None, :] < loops[:, :, :, None]) \
            & active[:, :, None, :]
        rank = _np.where(active, before.sum(axis=3), -1)
        keys = _np.concatenate([t_mat.reshape(n, -1), s_mat.reshape(n, -1),
                                rank.reshape(n, -1)], axis=1)
        _, first, inverse = _np.unique(_row_keys(keys), return_index=True,
                                       return_inverse=True)
        order = _np.argsort(first)
        renumber = _np.empty(len(order), dtype=_np.int64)
        renumber[order] = _np.arange(len(order))
        rows = first[order]
        unique = MatrixCohort(self.workload, self.arch, t_mat[rows],
                              s_mat[rows], self._order_ids[rows],
                              self._order_table)
        return unique, renumber[inverse.reshape(-1)].tolist()


def _row_keys(keys):
    """Each row of the int matrix ``keys`` (entries >= -1) as one opaque
    byte string, in the narrowest int type that holds it: ``np.unique``
    sorts those far faster than rows."""
    n = len(keys)
    top = int(keys.max()) if n else 0
    narrow = next(t for t in (_np.int8, _np.int16, _np.int32, _np.int64)
                  if top <= _np.iinfo(t).max)
    keys = _np.ascontiguousarray(keys, dtype=narrow)
    return keys.view(_np.dtype((_np.void, keys.shape[1]
                                * keys.itemsize))).reshape(n)


class SpaceDecoder:
    """Index-decoder for the full mapping space.

    Stages every per-dimension factor lattice as an int64 split matrix
    once, then :meth:`decode` turns any ascending array of global
    enumeration indices into a :class:`MatrixCohort` — the primitive
    under both :func:`full_space_cohorts` (contiguous/shard-strided
    streams) and the branch-and-bound walker (the surviving leaf blocks,
    arbitrary indices).  ``available`` is False when the vectorized
    decode cannot run (no numpy, a lattice too large to stage, or a
    space beyond the decode guard).
    """

    def __init__(self, workload: Workload, arch: Architecture,
                 orders_per_level: int | None = None) -> None:
        # Imported here: mapspace.py reaches repro.core (via the order
        # trie), which imports the scheduler, which imports this module —
        # a cycle at package-load time but not at call time.
        from .mapspace import assignment_slots

        self.workload = workload
        self.arch = arch
        self.num = arch.num_levels
        self.dims = workload.dim_names
        self.slots = assignment_slots(arch)
        self.available = False
        self.total = 0
        if _np is None:
            return
        lattices = [FactorLattice(d, workload.dims[d], self.slots)
                    for d in self.dims]
        matrices = [lattice.split_matrix() for lattice in lattices]
        if any(m is None for m in matrices):
            return
        order_items = list(itertools.permutations(self.dims))
        if orders_per_level is not None:
            order_items = order_items[:orders_per_level]
        if not order_items:
            return
        self.matrices = matrices
        self.order_items = order_items
        self.radices = [len(m) for m in matrices] \
            + [len(order_items)] * self.num
        total = 1
        for radix in self.radices:
            total *= radix
        if total == 0 or total > _MAX_DECODED_SPACE:
            return
        self.total = total
        self.available = True

    def decode(self, ks) -> "MatrixCohort":
        """Cohort for the rows at global indices ``ks`` (int64 array,
        ascending), in that order."""
        num = self.num
        dims = self.dims
        m = len(self.order_items)
        n = len(ks)
        digits = []
        rem = ks
        for radix in reversed(self.radices):
            rem, digit = _np.divmod(rem, radix)
            digits.append(digit)
        digits.reverse()
        t_mat = _np.ones((n, num, len(dims)), dtype=_np.int64)
        s_mat = _np.ones((n, num, len(dims)), dtype=_np.int64)
        for j, matrix in enumerate(self.matrices):
            block = matrix[digits[j]]  # (n, num_slots)
            for s_idx, (kind, level) in enumerate(self.slots):
                col = block[:, s_idx]
                if kind == "t":
                    t_mat[:, level, j] = col
                else:
                    s_mat[:, level, j] = col
        combo = _np.zeros(n, dtype=_np.int64)
        for level in range(num):
            combo = combo * m + digits[len(dims) + level]
        uniq, inv = _np.unique(combo, return_inverse=True)
        order_table = []
        for value in uniq.tolist():
            # least-significant digit is the innermost-listed order axis
            # (level num-1); reverse to get level 0 first.
            decoded = []
            for _ in range(num):
                value, digit = divmod(value, m)
                decoded.append(digit)
            decoded.reverse()
            order_table.append(tuple(self.order_items[d] for d in decoded))
        return MatrixCohort(self.workload, self.arch, t_mat, s_mat,
                            inv.astype(_np.int64), order_table)


def full_space_cohorts(
    workload: Workload,
    arch: Architecture,
    orders_per_level: int | None = None,
    shard: tuple[int, int] | None = None,
    batch_size: int = DEFAULT_COHORT,
) -> "Iterator[MatrixCohort] | None":
    """Stream the full mapping space as :class:`MatrixCohort` batches.

    Row order matches :func:`~repro.mapspace.mapspace.full_mapping_space`
    enumeration (and hence the historical exhaustive stream) exactly;
    ``shard=(i, n)`` selects the rows whose global enumeration index is
    congruent to ``i`` mod ``n``.  Returns ``None`` when the vectorized
    decode is unavailable (no numpy, a lattice too large to stage, or a
    space beyond the decode guard) — callers then walk the scalar space.
    """
    decoder = SpaceDecoder(workload, arch, orders_per_level)
    if not decoder.available:
        return None
    shard = check_shard(shard)
    return _decode_cohorts(decoder, shard, batch_size)


def _decode_cohorts(decoder, shard, batch_size):
    start, step = (0, 1) if shard is None else shard
    total = decoder.total
    for block_start in range(start, total, step * batch_size):
        block_end = min(total, block_start + step * batch_size)
        ks = _np.arange(block_start, block_end, step, dtype=_np.int64)
        yield decoder.decode(ks)
