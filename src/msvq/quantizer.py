"""Encode/decode core: residual quantization under a per-sub-vector stage plan.

A plan is its serving layout, a PlanLayout: all that serving derives from a
stage-count vector (.stages), namely the field order and each group's
columns, the packing plan (fixed widths, or under EC the fields' prefix
encoder and decoder), the bit total (.exact_bits) and decode_batch's order,
reach, base and coordinate map. plan_layout, its one constructor, is the one
check of a stage vector, a caller's or an explicit-plan header's, and keeps
the last plan's layout on the model, read-only, so a stream at one budget
builds it once. Only _build_layout fills one in; it is the only caller of
field_order and entropy.prefix_encoder, and of entropy.fixed_plan but for the
explicit plan's header (tests/test_imports.py guards these and the check).

encode_fields, encode_batch and decode_batch work on row batches; a single
vector is a one-row batch. Each resolves the layout it is given through
plan_layout(model, plan.stages), so another model's layout is rebuilt, never
trusted. Indices travel as the payload's (rows, F) field matrix, one column
per active (sub-vector, stage) module, in field_order's order. encode_fields
returns only that matrix, which is all a payload carries, so serving calls
it; encode_batch adds Z_hat for callers that measure the reconstruction.
walk_stages, the codec's one stage walk, only searches: each stage's kernel
picks the nearest codeword (rate-penalized when the model is
entropy-constrained) and writes the residual it leaves in place; encoding,
the table pass and training all use it. It walks a stage_block of residuals
that share one group's codebooks, members deepest first, so each stage is one
search over a prefix of the block, and a sub-vector takes part only up to its
own depth. The block is a whole group: one row chunk of its members when
encoding and building the table, or its pooled training points. Each pass
fills a group's block straight from the feature matrix's columns
(layout.group_columns), casting as it goes. map_row_chunks alone chunks rows,
map_workers alone runs a worker pool (row chunks here, each group's cascade in
training) and owns the worker-count rule, and a block of rows' scratch is
bounded in bytes (codebook.SCORE_BYTES): the kernels' scan bounds its score
buffer by it, and decode_batch its accumulator.
decode_batch is the codec's one codeword sum: it adds the codewords in
float64 in ascending stage order, stage-major across every group, and
encode_batch returns its output as Z_hat, so encoder and decoder agree bit
for bit. Sub-vectors with zero active stages reconstruct to the stored
training mean at a cost of zero transmitted bits.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codebook import (
    ROW_CHUNK,
    SCORE_BYTES,
    MsvqModel,
    nearest_batch,
    nearest_rate_penalized_batch,
)
from .entropy import FixedPlan, PrefixDecoder, PrefixEncoder, fixed_plan, prefix_encoder
from .errors import ConfigError, CorruptionError, DataError
from .layout import check_features, freeze


def _checked_stages(layout, stages) -> np.ndarray:
    """A stage-count vector as int64, checked against the layout's shape and depth."""
    stages = np.asarray(stages, dtype=np.int64)
    if stages.shape != (layout.n_sub,):
        raise ConfigError(f"plan has {stages.shape} stage counts, layout expects {layout.n_sub}")
    if stages.min() < 0 or stages.max() > layout.t_max:
        raise ConfigError(f"stage counts must lie in [0, {layout.t_max}]")
    return stages


def field_order(stages) -> tuple[np.ndarray, np.ndarray]:
    """(sub-vector, stage) of each field of a stage vector's field matrix.

    Fields run sub-vector-major, then stage order.
    """
    stages = np.asarray(stages, dtype=np.int64)
    sub = np.repeat(np.arange(stages.size), stages)
    return sub, np.arange(sub.size) - np.repeat(np.cumsum(stages) - stages, stages)


@dataclass(frozen=True)
class PlanLayout:
    """A plan: everything serving derives from one stage vector of one model.

    plan_layout builds it once per (model, stages); it is read-only and sized
    by the plan and the model, never by rows.

    Fields: stages, the read-only stage-count vector; sub and stage, each field's sub-vector and
    stage in field order (field_order); start, each sub-vector's first
    column; widths and sizes, each field's codebook bits and codeword count;
    exact_bits, a vector's fixed-length bits. Encoding: groups, per group with
    fields, its index, its staged members' depths and feature columns
    (deepest first), its field columns and where they sit in the stage walk's
    indices. Packing: packing, the fixed-width FixedPlan (plain
    models); under EC instead encoder, the PrefixEncoder of the fields'
    canonical codes, and decoder, the PrefixDecoder of their decode tables.
    Decoding (decode_batch): the sub-vectors sorted deepest first; reach, per
    stage, the field columns of the prefix it reaches, their stage-table rows
    and the table; base, a block's starting sums (the stored mean of each
    sub-vector with no stages, +0.0 for the rest); to_coords, each
    coordinate's place in that order; and step, the rows summed per block.
    """

    stages: np.ndarray
    sub: np.ndarray
    stage: np.ndarray
    start: np.ndarray
    widths: np.ndarray
    sizes: np.ndarray
    exact_bits: int
    groups: tuple
    packing: FixedPlan | None
    encoder: PrefixEncoder | None
    decoder: PrefixDecoder | None
    reach: tuple
    base: np.ndarray
    to_coords: np.ndarray
    step: int

    def columns_in(self, deeper: PlanLayout) -> np.ndarray:
        """Each field's column in the field matrix of a plan at least as deep
        everywhere: symbols[:, columns_in(deeper)] of its encoding is this plan's."""
        return deeper.start[self.sub] + self.stage


def plan_layout(model: MsvqModel, stages) -> PlanLayout:
    """The PlanLayout of a stage vector under a model, from the model's memo.

    The model keeps one layout, the last plan's, keyed by its stage vector:
    identity first, then contents. A miss checks the vector, builds the
    layout and swaps it in whole, as MarginalLossTable.plan does, so a thread
    sees the old layout or the new one, never a mix, and the memo stays the
    size of one plan whatever plans the callers ask for.
    """
    last = model.plan_memo
    if last is not None and (stages is last.stages or np.array_equal(stages, last.stages)):
        return last
    built = _build_layout(model, _checked_stages(model.layout, stages))
    object.__setattr__(model, "plan_memo", built)
    return built


def full_plan(model: MsvqModel) -> PlanLayout:
    """The layout of the plan that runs every sub-vector to full depth."""
    return plan_layout(model, np.full(model.layout.n_sub, model.layout.t_max, dtype=np.int64))


def _build_layout(model: MsvqModel, stages: np.ndarray) -> PlanLayout:
    """A PlanLayout (the only code that makes one); every array it holds is read-only."""
    # bitstream builds EC decode tables (bitstream.decode_table is a traced edge)
    # and imports this module, so its helper is looked up at call time
    from .bitstream import field_decoder

    lay, ec = model.layout, model.ec_enabled
    stages = freeze(stages.copy())  # the memo's key: the layout's own, never a caller's
    sub, stage = field_order(stages)
    widths = lay.bits[sub, stage]
    start = np.cumsum(stages) - stages
    groups = []
    for g in range(lay.n_groups):
        blk = lay.group_members(g)
        order = np.argsort(-stages[blk], kind="stable")
        live = order[:np.count_nonzero(stages[blk])]  # deepest first
        cols = slice(*np.searchsorted(sub, [blk.start, blk.stop]).tolist())
        if live.size:
            groups.append((g, stages[blk][live].tolist(), freeze(lay.group_columns(g)[live]),
                           cols, (freeze(np.argsort(order)[sub[cols] - blk.start]),
                                  slice(None), freeze(stage[cols]))))
    encoder, decoder = None, None
    if ec:
        books = model.huffman_codes
        codes = [books[g][t] for g, t in zip(lay.group_of[sub].tolist(), stage.tolist())]
        encoder, decoder = prefix_encoder(codes, SCORE_BYTES), field_decoder(codes)

    order = np.argsort(-stages, kind="stable")
    depth = stages[order]
    first = start[order]  # each sub-vector's stage-0 field column
    group = lay.group_of[order]
    reach = []
    for t in range(int(stages.max())):
        table, offsets = model.stage_tables[t]
        n = int((depth > t).sum())
        reach.append((freeze(first[:n] + t), freeze(np.take(offsets, group[:n])), table))
    base = np.where((depth == 0)[:, None], np.take(model.fallback_means, order, axis=0), 0.0)
    rank = np.argsort(order)
    inverse = np.argsort(lay.perm)
    # where each coordinate of Z_hat sits in a block's deepest-first accumulator
    to_coords = rank[inverse // lay.sub_dim] * lay.sub_dim + inverse % lay.sub_dim
    return PlanLayout(
        stages=stages, sub=freeze(sub), stage=freeze(stage), start=freeze(start),
        widths=freeze(widths), sizes=freeze(1 << widths), exact_bits=int(widths.sum()),
        groups=tuple(groups), packing=None if ec else fixed_plan(widths), encoder=encoder,
        decoder=decoder, reach=tuple(reach), base=freeze(base),
        to_coords=freeze(to_coords), step=max(1, SCORE_BYTES // (8 * lay.m_dim)))


def stage_block(x: np.ndarray) -> np.ndarray:
    """An (..., D) array as a stage walk's block: float64 (..., D + 1), last column 1."""
    block = np.empty(x.shape[:-1] + (x.shape[-1] + 1,), dtype=np.float64)
    block[..., -1] = 1.0
    block[..., :-1] = x
    return block


def walk_stages(tables, ec: bool, r: np.ndarray, start: int, stop) -> np.ndarray:
    """Walk a block of residuals through their stages, in place.

    r is a C-contiguous stage_block (n, rows, D + 1) of residuals that share
    one group's codebooks: n sub-vectors over the same rows, or (n = 1) a
    group's pooled points; tables[t] is the stage-t codebook's
    search_constants, rate-penalized when ec. stop is each of the n end
    stages, one int for all or a non-increasing sequence of n. Stage t
    searches the n' of them whose stop exceeds t, a prefix of r, as one
    (n' * rows, D + 1) view, which the kernel overwrites with the residuals.
    Returns the (n, rows, max(stop) - start) chosen indices; the columns at
    and past a sub-vector's own stop are zero.
    """
    n, rows, width = r.shape
    depth = np.empty(n, dtype=np.int64)
    depth[:] = stop
    idx = np.zeros((n, rows, max(int(depth.max()) - start, 0)), dtype=np.int64)
    for t in range(start, start + idx.shape[2]):
        live = int(np.count_nonzero(depth > t))
        x = r[:live].reshape(-1, width)
        kernel = nearest_rate_penalized_batch if ec else nearest_batch
        col, _ = kernel(x, *tables[t])
        idx[:live, :, t - start] = col.reshape(live, rows)
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
    plan: PlanLayout,
    threads: int | None = 1,
) -> np.ndarray:
    """Encode a feature matrix to its uint8 (rows, F) field matrix, the indices a
    payload carries.

    The rows are processed in fixed chunks, on a worker pool when threads > 1;
    each chunk gathers and writes only its own rows, so the result does not
    depend on the worker count. Within a chunk, each group's staged members
    fill one stage_block, walked to every member's planned depth. Float32 and
    float64 cast exactly to float64, so only other dtypes are cast up front.
    """
    Z = np.asarray(Z)
    Z = check_features(Z, model.layout.m_dim,
                       Z.dtype if Z.dtype in (np.float32, np.float64) else np.float64)
    pl = plan_layout(model, plan.stages)
    # layout.MAX_BITS = 8 caps every codebook at 256 codewords
    symbols = np.empty((Z.shape[0], pl.sub.size), dtype=np.uint8)

    def walk(rows: slice):
        for g, depths, coords, cols, at in pl.groups:
            r = stage_block(np.take(Z[rows], coords, axis=1).transpose(1, 0, 2))
            idx = walk_stages(model.search_tables[g], model.ec_enabled, r, 0, depths)
            symbols[rows, cols] = idx[at].T

    map_row_chunks(walk, Z.shape[0], threads)
    return symbols


def encode_batch(
    model: MsvqModel,
    Z: np.ndarray,
    plan: PlanLayout,
    threads: int | None = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode a feature matrix; returns encode_fields' field matrix and Z_hat,
    decode_batch of that matrix."""
    symbols = encode_fields(model, Z, plan, threads)
    return symbols, decode_batch(model, symbols, plan)


def decode_batch(model: MsvqModel, symbols: np.ndarray, plan: PlanLayout) -> np.ndarray:
    """Rebuild Z_hat from a (rows, F) field matrix: the codec's one codeword sum.

    The sum is stage-major across groups. Sub-vectors are sorted deepest first
    (a stable sort), so those deeper than stage t are a prefix of the order.
    The rows are summed in blocks of max(1, SCORE_BYTES // (8 M)) rows, so
    the accumulator stays in cache: a block starts from the stored mean of
    every sub-vector with no stages and +0.0 for the rest, and each stage
    adds one np.take of its codewords from the model's stage table (every
    group's stage-t codebook) to the prefix it reaches. One np.take puts the
    block into coordinate order. The order, each stage's reach, the starting
    block and the coordinate map come from the plan's PlanLayout, built once
    per (model, plan); a call only checks the matrix and sums. An output too
    large to allocate is a DataError that names the row count.
    """
    pl = plan_layout(model, plan.stages)
    m_dim = model.layout.m_dim
    symbols = np.asarray(symbols)
    if (symbols.ndim != 2 or symbols.shape[1] != pl.sub.size
            or symbols.dtype.kind not in "iu"):
        raise CorruptionError(f"symbol matrix must be integer (rows, {pl.sub.size}), got "
                              f"{symbols.dtype} {symbols.shape}")
    # MsvqModel pins each codebook's size to its bits
    bad = symbols.max(axis=0, initial=0) >= pl.sizes
    if symbols.dtype.kind == "i":
        bad |= symbols.min(axis=0, initial=0) < 0
    if bad.any():
        f = int(bad.argmax())
        raise CorruptionError(f"sub-vector {pl.sub[f]} stage {pl.stage[f]}: codeword index "
                              f"out of range [0, {pl.sizes[f]})")
    rows = symbols.shape[0]
    try:
        zhat = np.empty((rows, m_dim), dtype=np.float64)
    except MemoryError as exc:
        raise DataError(f"cannot allocate the reconstruction of {rows} vectors") from exc
    for start in range(0, rows, pl.step):
        block = slice(start, start + pl.step)
        fields = symbols[block]
        acc = np.empty((fields.shape[0],) + pl.base.shape, dtype=np.float64)
        acc[:] = pl.base
        for cols, offsets, table in pl.reach:
            acc[:, :cols.size] += np.take(table, np.take(fields, cols, axis=1) + offsets, axis=0)
        np.take(acc.reshape(fields.shape[0], m_dim), pl.to_coords, axis=1, out=zhat[block],
                mode="clip")
    return zhat


def reconstruction_mse(Z: np.ndarray, Z_hat: np.ndarray) -> float:
    """Mean squared reconstruction error per vector (squared norm, row mean)."""
    diff = np.asarray(Z, dtype=np.float64) - np.asarray(Z_hat, dtype=np.float64)
    return float(np.mean(np.einsum("rm,rm->r", diff, diff)))
