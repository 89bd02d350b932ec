"""Encode/decode core: residual quantization under a per-sub-vector stage plan.

A plan is its stage-count vector. encode_fields, encode_batch and
decode_batch work on row batches; a single vector is a one-row batch. Indices
travel as the payload's (rows, F) field matrix, one column per active
(sub-vector, stage) module; field_order alone knows the column order and which
columns of a deeper encoding a shallower plan sends. encode_fields returns only
that matrix, which is all a payload carries, so serving calls it; encode_batch
adds Z_hat for callers that measure the reconstruction.

walk_stages, the codec's one stage walk, only searches: each stage's kernel
picks the nearest codeword (rate-penalized when the model is
entropy-constrained) and hands back the residual it leaves, which the walk
writes back in place; encoding, the table pass and training all use it. It
walks a block of residuals that share one group's codebooks, so each stage is
one search over the whole block, and a sub-vector takes part only up to its
own depth. The block is a whole group: one row chunk of its members when
encoding, decoding and building the table, or its pooled training points.
Each pass gathers a group's block straight from the feature matrix's columns
(layout.group_columns), and decode_batch scatters each row chunk back with
one np.take. map_row_chunks alone chunks rows, map_workers alone runs a
worker pool (row chunks here, each group's cascade in training) and owns the
worker-count rule, and the kernels' scan alone bounds the score buffer, in
bytes (codebook.SCORE_BYTES).
decode_batch is the codec's one codeword sum: it adds the codewords in
float64 in ascending stage order, and encode_batch returns its output as
Z_hat, so encoder and decoder agree bit for bit. Sub-vectors with zero active
stages reconstruct to the stored training mean at a cost of zero transmitted
bits.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codebook import ROW_CHUNK, MsvqModel, nearest_batch, nearest_rate_penalized_batch
from .errors import ConfigError, CorruptionError
from .layout import check_features, freeze


@dataclass(frozen=True)
class SelectionPlan:
    """Active stage counts per sub-vector, a read-only int64 vector.

    A plan carries no bit totals: exact_bit_total gives its fixed-length cost
    under a layout, and rate.plan_step_bits its cost under a table.
    """

    stages: np.ndarray


def cumulative_bits(bits: np.ndarray) -> np.ndarray:
    """(N, t_max) per-stage bits -> (N, t_max + 1) bits of each row's first t stages."""
    bits = np.asarray(bits)
    return np.concatenate([np.zeros((bits.shape[0], 1), dtype=bits.dtype),
                           np.cumsum(bits, axis=1)], axis=1)


def exact_bit_total(layout, stages) -> int:
    """Fixed-length bit cost of a stage-count vector under a layout."""
    stages = np.asarray(stages, dtype=np.int64)
    return int(cumulative_bits(layout.bits)[np.arange(stages.size), stages].sum())


def _checked_stages(layout, stages) -> np.ndarray:
    """A stage-count vector as int64, checked against the layout's shape and depth."""
    stages = np.asarray(stages, dtype=np.int64)
    if stages.shape != (layout.n_sub,):
        raise ConfigError(f"plan has {stages.shape} stage counts, layout expects {layout.n_sub}")
    if stages.min() < 0 or stages.max() > layout.t_max:
        raise ConfigError(f"stage counts must lie in [0, {layout.t_max}]")
    return stages


def plan_from_stages(layout, stages) -> SelectionPlan:
    """Freeze a copy of a stage-count vector into a plan; the caller's array stays writeable."""
    return SelectionPlan(stages=freeze(_checked_stages(layout, stages).copy()))


def full_plan(layout) -> SelectionPlan:
    return plan_from_stages(layout, np.full(layout.n_sub, layout.t_max, dtype=np.int64))


def field_order(stages, within=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sub-vector, stage, column) of each field of a stage vector's field matrix.

    Fields run sub-vector-major, then stage order. column is the field's place
    in the field matrix of `within`, a stage vector at least as deep everywhere
    (default: stages), so symbols[:, column] of a deeper encoding is this plan's.
    """
    stages = np.asarray(stages, dtype=np.int64)
    within = stages if within is None else np.asarray(within, dtype=np.int64)
    sub = np.repeat(np.arange(stages.size), stages)
    stage = np.arange(sub.size) - np.repeat(np.cumsum(stages) - stages, stages)
    return sub, stage, (np.cumsum(within) - within)[sub] + stage


def _active(depth: list[int], t: int):
    """An index selecting the block members deeper than stage t.

    The index is a slice, so it selects a view, when every member is deeper.
    """
    live = [j for j, d in enumerate(depth) if d > t]
    return live if len(live) < len(depth) else slice(None)


def _block_fields(sub: np.ndarray, stage: np.ndarray, blk: slice):
    """The field-matrix columns of a group's members, and each one's (member, stage)."""
    cols = slice(*np.searchsorted(sub, [blk.start, blk.stop]).tolist())
    return cols, (sub[cols] - blk.start, slice(None), stage[cols])


def walk_stages(books, lambdas, r: np.ndarray, start: int, stop) -> np.ndarray:
    """Walk a block of residuals through their stages, in place.

    r is a float64 (n, rows, D) array of residuals that share one group's
    codebooks: n sub-vectors over the same rows, or (n = 1) a group's pooled
    points; books[t] is the stage-t codebook. stop is each of the n end stages,
    one int for all or a sequence of n. Stage t searches, as one (n' * rows, D)
    batch, the n' of them whose stop exceeds t, and writes the residuals the
    search leaves back into r. With lambdas None each stage picks the nearest
    codeword; otherwise it minimizes lambdas[t] * distortion - log2 prior.
    Returns the (n, rows, max(stop) - start) chosen indices; the columns at and
    past a sub-vector's own stop are zero.
    """
    n, rows, dim = r.shape
    stop = np.broadcast_to(np.asarray(stop, dtype=np.int64), (n,)).tolist()
    idx = np.zeros((n, rows, max(max(stop) - start, 0)), dtype=np.int64)
    for t in range(start, start + idx.shape[2]):
        sel = _active(stop, t)
        x = r[sel]
        cb = books[t]
        if lambdas is None:
            col, res = nearest_batch(x.reshape(-1, dim), cb.vectors)
        else:
            col, res = nearest_rate_penalized_batch(x.reshape(-1, dim), cb.vectors,
                                                    cb.prior, float(lambdas[t]))
        r[sel] = res.reshape(x.shape)
        idx[sel, :, t - start] = col.reshape(x.shape[:2])
    return idx


def usable_cores() -> int:
    """The CPUs this process may run on (its affinity mask), at least 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def map_workers(fn, items, threads: int | None = 1) -> list:
    """[fn(item) for item in items], in order: the codec's one worker pool.

    threads=None means every usable core; a count below 1 is a ConfigError.
    With threads > 1 and more than one item the calls run on a pool of at
    most min(threads, len(items)) workers. An exception from a call is raised
    for the first failing item in order, whatever the worker count.
    """
    if threads is None:
        threads = usable_cores()
    elif threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    items = list(items)
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def map_row_chunks(fn, rows: int, threads: int | None = 1) -> list:
    """[fn(s) for every ROW_CHUNK-row slice s of range(rows)], in row order.

    Zero rows still make one (empty) slice. The chunks, and therefore the
    results, do not depend on the worker count (see map_workers).
    """
    chunks = [slice(a, a + ROW_CHUNK) for a in range(0, max(rows, 1), ROW_CHUNK)]
    return map_workers(fn, chunks, threads)


def encode_fields(
    model: MsvqModel,
    Z: np.ndarray,
    plan: SelectionPlan,
    threads: int | None = 1,
) -> np.ndarray:
    """Encode a feature matrix to its uint8 (rows, F) field matrix, the indices a
    payload carries.

    The rows are processed in fixed chunks, on a worker pool when threads > 1;
    each chunk gathers and writes only its own rows, so the result does not
    depend on the worker count. Within a chunk, each group's columns are
    gathered into one (members, rows, D) block and walked to every member's
    planned depth.
    """
    Z = check_features(Z, model.layout.m_dim)
    stages = _checked_stages(model.layout, plan.stages)
    lay = model.layout
    sub_of, stage_of, _ = field_order(stages)
    # layout.MAX_BITS = 8 caps every codebook at 256 codewords
    symbols = np.empty((Z.shape[0], sub_of.size), dtype=np.uint8)

    def walk(rows: slice):
        for g in range(lay.n_groups):
            blk = lay.group_members(g)
            r = np.take(Z[rows], lay.group_columns(g), axis=1).transpose(1, 0, 2).copy()
            idx = walk_stages(model.codebooks[g], model.lambdas, r, 0, stages[blk].tolist())
            cols, at = _block_fields(sub_of, stage_of, blk)
            symbols[rows, cols] = idx[at].T

    map_row_chunks(walk, Z.shape[0], threads)
    return symbols


def encode_batch(
    model: MsvqModel,
    Z: np.ndarray,
    plan: SelectionPlan,
    threads: int | None = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode a feature matrix; returns encode_fields' field matrix and Z_hat,
    decode_batch of that matrix."""
    symbols = encode_fields(model, Z, plan, threads)
    return symbols, decode_batch(model, symbols, plan)


def decode_batch(model: MsvqModel, symbols: np.ndarray, plan: SelectionPlan) -> np.ndarray:
    """Rebuild Z_hat from a (rows, F) field matrix: the codec's one codeword sum.

    Within each row chunk, each group adds one gather of its members'
    codewords per stage, in ascending stage order, into a contiguous
    accumulator; a sub-vector with no stages takes its stored mean. One np.take
    puts the chunk's variance-ordered buffer into coordinate order.
    """
    stages = _checked_stages(model.layout, plan.stages)
    lay = model.layout
    sub, stage, _ = field_order(stages)
    symbols = np.asarray(symbols)
    if symbols.ndim != 2 or symbols.shape[1] != sub.size or symbols.dtype.kind not in "iu":
        raise CorruptionError(f"symbol matrix must be integer (rows, {sub.size}), got "
                              f"{symbols.dtype} {symbols.shape}")
    sizes = np.array([[cb.size for cb in b] for b in model.codebooks])[lay.group_of[sub], stage]
    bad = ((symbols < 0) | (symbols >= sizes)).any(axis=0)
    if bad.any():
        f = int(bad.argmax())
        raise CorruptionError(f"sub-vector {sub[f]} stage {stage[f]}: codeword index "
                              f"out of range [0, {sizes[f]})")
    zhat = np.empty((symbols.shape[0], lay.m_dim), dtype=np.float64)
    inverse = np.argsort(lay.perm)

    def add(rows: slice):
        chunk = symbols[rows]
        ordered = np.empty((chunk.shape[0], lay.n_sub, lay.sub_dim), dtype=np.float64)
        for g in range(lay.n_groups):
            books, blk = model.codebooks[g], lay.group_members(g)
            depth = stages[blk].tolist()
            acc = np.zeros((len(depth), chunk.shape[0], lay.sub_dim), dtype=np.float64)
            for j, d in enumerate(depth):
                if d == 0:
                    acc[j] = model.fallback_means[blk.start + j]
            idx = np.zeros((len(depth), chunk.shape[0], max(depth)), dtype=symbols.dtype)
            cols, at = _block_fields(sub, stage, blk)
            idx[at] = chunk[:, cols].T
            for t in range(max(depth)):
                sel = _active(depth, t)
                acc[sel] += books[t].vectors.astype(np.float64)[idx[sel, :, t]]
            ordered[:, blk] = acc.transpose(1, 0, 2)
        np.take(ordered.reshape(chunk.shape[0], lay.m_dim), inverse, axis=1, out=zhat[rows],
                mode="clip")

    map_row_chunks(add, symbols.shape[0])
    return zhat


def reconstruction_mse(Z: np.ndarray, Z_hat: np.ndarray) -> float:
    """Mean squared reconstruction error per vector (squared norm, row mean)."""
    diff = np.asarray(Z, dtype=np.float64) - np.asarray(Z_hat, dtype=np.float64)
    return float(np.mean(np.einsum("rm,rm->r", diff, diff)))
