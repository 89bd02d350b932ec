"""Encode/decode core: residual quantization under a per-sub-vector stage plan.

A plan is its stage-count vector. encode_batch and decode_batch work on row
batches; a single vector is a one-row batch. Indices travel as the payload's
(rows, F) field matrix, one column per active (sub-vector, stage) module;
field_order alone knows the column order and which columns of a deeper
encoding a shallower plan sends.

walk_stages, the codec's one stage walk, only searches: each stage's kernel
picks the nearest codeword (rate-penalized when the model is
entropy-constrained) and hands back the residual it leaves, which the walk
writes back in place; encoding, the table pass and training all use it. It
walks a block of sub-vectors that share one group's codebooks, so each stage
is one search over the whole block, and a sub-vector takes part only up to its
own depth. group_blocks cuts every group into blocks of at most
max(1, ROW_CHUNK // rows) sub-vectors, so a block's search never scores more
than ROW_CHUNK rows at once. decode_batch is the codec's one codeword sum: it
adds the codewords in float64 in ascending stage order, and encode_batch
returns its output as Z_hat, so encoder and decoder agree bit for bit.
Sub-vectors with zero active stages reconstruct to the stored training mean at
a cost of zero transmitted bits.
"""

from __future__ import annotations

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


def split_subvectors(layout, Z: np.ndarray) -> np.ndarray:
    """(rows, M) -> (rows, N, D) in variance order.

    Z[:, perm] returns a Fortran-ordered array, and downstream sums (the
    trainer's fallback means, the table's stage-0 distortions) follow that
    memory order; a gather such as np.take(Z, perm, axis=1) is C-ordered and
    changes their rounding, so this stays a fancy-index.
    """
    return Z[:, layout.perm].reshape(Z.shape[0], layout.n_sub, layout.sub_dim)


def merge_subvectors(layout, sub: np.ndarray) -> np.ndarray:
    """(rows, N, D) in variance order -> (rows, M) in original coordinate order."""
    return np.take(sub.reshape(sub.shape[0], layout.m_dim), np.argsort(layout.perm), axis=1)


def group_blocks(layout, rows: int):
    """Yield (group, slice of sub-vector indices) blocks covering every sub-vector.

    A block holds members of one group only (groups are contiguous runs of
    equal size), at most max(1, ROW_CHUNK // rows) of them, so a search over
    the block's (n * rows, D) residuals scores no more rows than one ROW_CHUNK.
    """
    per = max(1, ROW_CHUNK // max(rows, 1))
    size = layout.n_sub // layout.n_groups
    for g in range(layout.n_groups):
        end = (g + 1) * size
        for a in range(g * size, end, per):
            yield g, slice(a, min(a + per, end))


def _active(depth: list[int], t: int):
    """An index selecting the block members deeper than stage t.

    The index is a slice, so it selects a view, when every member is deeper.
    """
    live = [j for j, d in enumerate(depth) if d > t]
    return live if len(live) < len(depth) else slice(None)


def _block_fields(sub: np.ndarray, stage: np.ndarray, blk: slice):
    """The field-matrix columns of a block's members, and each one's (member, stage)."""
    cols = slice(*np.searchsorted(sub, [blk.start, blk.stop]).tolist())
    return cols, (sub[cols] - blk.start, slice(None), stage[cols])


def walk_stages(books, lambdas, r: np.ndarray, start: int, stop) -> np.ndarray:
    """Walk a block of sub-vector residuals through their stages, in place.

    r is a float64 (n, rows, D) array holding the residuals of n sub-vectors
    that share one group's codebooks; books[t] is the stage-t codebook. stop
    is each sub-vector's end stage, one int for all or a sequence of n. Stage t
    searches, as one (n' * rows, D) batch, the n' sub-vectors whose stop
    exceeds t, and writes the residuals the search leaves back into r. With
    lambdas None each stage picks the nearest codeword; otherwise it minimizes
    lambdas[t] * distortion - log2 prior. Returns the (n, rows,
    max(stop) - start) chosen indices; the columns at and past a sub-vector's
    own stop are zero.
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


def map_row_chunks(fn, rows: int, threads: int = 1) -> list:
    """[fn(s) for every ROW_CHUNK-row slice s of range(rows)], in row order.

    Zero rows still make one (empty) slice. With threads > 1 and more than one
    chunk the calls run on a worker pool; the chunks, and therefore the
    results, do not depend on the worker count.
    """
    chunks = [slice(a, a + ROW_CHUNK) for a in range(0, max(rows, 1), ROW_CHUNK)]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, chunks))
    return [fn(c) for c in chunks]


def encode_batch(
    model: MsvqModel,
    Z: np.ndarray,
    plan: SelectionPlan,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode a feature matrix; returns its uint8 (rows, F) field matrix and Z_hat.

    The rows are processed in fixed chunks, on a worker pool when threads > 1;
    each chunk writes only its own rows, so the result does not depend on the
    worker count. Within a chunk, each group block is walked as one batch to
    every member's planned depth. Z_hat is decode_batch of the field matrix.
    """
    Z = check_features(Z, model.layout.m_dim)
    stages = _checked_stages(model.layout, plan.stages)
    lay = model.layout
    sub = split_subvectors(lay, Z)
    sub_of, stage_of, _ = field_order(stages)
    # layout.MAX_BITS = 8 caps every codebook at 256 codewords
    symbols = np.empty((Z.shape[0], sub_of.size), dtype=np.uint8)

    def walk(rows: slice):
        chunk = sub[rows]
        for g, blk in group_blocks(lay, chunk.shape[0]):
            r = chunk[:, blk].transpose(1, 0, 2).copy()
            idx = walk_stages(model.codebooks[g], model.lambdas, r, 0, stages[blk].tolist())
            cols, at = _block_fields(sub_of, stage_of, blk)
            symbols[rows, cols] = idx[at].T

    map_row_chunks(walk, Z.shape[0], threads)
    return symbols, decode_batch(model, symbols, plan)


def decode_batch(model: MsvqModel, symbols: np.ndarray, plan: SelectionPlan) -> np.ndarray:
    """Rebuild Z_hat from a (rows, F) field matrix: the codec's one codeword sum.

    Each group block adds one gather of its members' codewords per stage, in
    ascending stage order; a sub-vector with no stages takes its stored mean.
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
    rows = symbols.shape[0]
    zhat = np.empty((rows, lay.n_sub, lay.sub_dim), dtype=np.float64)
    for g, blk in group_blocks(lay, rows):
        books = model.codebooks[g]
        depth = stages[blk].tolist()
        acc = np.zeros((len(depth), rows, lay.sub_dim), dtype=np.float64)
        for j, d in enumerate(depth):
            if d == 0:
                acc[j] = model.fallback_means[blk.start + j]
        idx = np.zeros((len(depth), rows, max(depth)), dtype=symbols.dtype)
        cols, at = _block_fields(sub, stage, blk)
        idx[at] = symbols[:, cols].T
        for t in range(max(depth)):
            sel = _active(depth, t)
            acc[sel] += books[t].vectors.astype(np.float64)[idx[sel, :, t]]
        zhat[:, blk] = acc.transpose(1, 0, 2)
    return merge_subvectors(lay, zhat)


def reconstruction_mse(Z: np.ndarray, Z_hat: np.ndarray) -> float:
    """Mean squared reconstruction error per vector (squared norm, row mean)."""
    diff = np.asarray(Z, dtype=np.float64) - np.asarray(Z_hat, dtype=np.float64)
    return float(np.mean(np.einsum("rm,rm->r", diff, diff)))
