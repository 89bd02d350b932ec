"""Encode/decode core: residual quantization under a per-sub-vector stage plan.

walk_stages, the codec's one stage walk, picks the nearest codeword
(rate-penalized when the model is entropy-constrained) and subtracts it from
the residual; encoding, the table pass and training all use it. Encoder and
decoder both add the codewords in float64 in ascending stage order, so both
sides agree bit for bit. Sub-vectors with zero active stages reconstruct to the
stored training mean at a cost of zero transmitted bits.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codebook import ROW_CHUNK, MsvqModel, nearest_batch, nearest_rate_penalized_batch
from .errors import ConfigError, CorruptionError, DataError


@dataclass(frozen=True)
class SelectionPlan:
    """Active stage counts per sub-vector plus the plan's bit accounting.

    exact_bits is the fixed-length payload cost; avg_bits is the expected
    entropy-coded cost and is set only for plans derived from an average-bits
    table. Either may be None when the deriving context could not compute it.
    """

    stages: np.ndarray
    exact_bits: int | None = None
    avg_bits: float | None = None


@dataclass(frozen=True)
class EncodedFeature:
    """Codeword indices for one vector: indices[i] has plan.stages[i] entries."""

    indices: tuple[np.ndarray, ...]
    plan: SelectionPlan


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
    stages = np.asarray(stages, dtype=np.int64)
    if stages.shape != (layout.n_sub,):
        raise ConfigError(f"plan has {stages.shape} stage counts, layout expects {layout.n_sub}")
    if stages.min() < 0 or stages.max() > layout.t_max:
        raise ConfigError(f"stage counts must lie in [0, {layout.t_max}]")
    return stages


def plan_from_stages(layout, stages, avg_bits: float | None = None) -> SelectionPlan:
    stages = _checked_stages(layout, stages)
    stages.flags.writeable = False
    return SelectionPlan(stages=stages, exact_bits=exact_bit_total(layout, stages),
                         avg_bits=avg_bits)


def full_plan(layout) -> SelectionPlan:
    return plan_from_stages(layout, np.full(layout.n_sub, layout.t_max, dtype=np.int64))


def zero_plan(layout) -> SelectionPlan:
    return plan_from_stages(layout, np.zeros(layout.n_sub, dtype=np.int64))


def validate_plan(model: MsvqModel, plan: SelectionPlan) -> np.ndarray:
    """Check a plan against the model; returns its stage counts as int64."""
    stages = _checked_stages(model.layout, plan.stages)
    bits = exact_bit_total(model.layout, stages)
    if plan.exact_bits is not None and plan.exact_bits != bits:
        raise CorruptionError(f"plan claims {plan.exact_bits} bits but layout accounting "
                              f"gives {bits}")
    return stages


def split_subvectors(layout, Z: np.ndarray) -> np.ndarray:
    """(rows, M) -> (rows, N, D) in variance order."""
    return Z[:, layout.perm].reshape(Z.shape[0], layout.n_sub, layout.sub_dim)


def merge_subvectors(layout, sub: np.ndarray) -> np.ndarray:
    """(rows, N, D) in variance order -> (rows, M) in original coordinate order."""
    out = np.empty((sub.shape[0], layout.m_dim), dtype=sub.dtype)
    out[:, layout.perm] = sub.reshape(sub.shape[0], layout.m_dim)
    return out


def _check_features(model: MsvqModel, Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != model.layout.m_dim:
        raise DataError(f"feature matrix shape {Z.shape} does not match M={model.layout.m_dim}")
    if not np.all(np.isfinite(Z)):
        raise DataError("feature matrix contains non-finite values")
    return Z


def walk_stages(books, lambdas, r: np.ndarray, start: int, stop: int,
                acc: np.ndarray | None = None) -> np.ndarray:
    """Walk one sub-vector's residual through stages [start, stop), in place.

    r is a float64 (rows, D) array and books[t] the stage-t codebook. With
    lambdas None each stage picks the nearest codeword; otherwise it minimizes
    lambdas[t] * distortion - log2 prior. Each chosen codeword is also added to
    acc when it is given. Returns the (rows, stop - start) chosen indices.
    """
    idx = np.empty((r.shape[0], stop - start), dtype=np.int64)
    for t in range(start, stop):
        cb = books[t]
        if lambdas is None:
            col, _ = nearest_batch(r, cb.vectors)
        else:
            col, _, _ = nearest_rate_penalized_batch(r, cb.vectors, cb.prior,
                                                     float(lambdas[t]))
        cw = cb.vectors.astype(np.float64)[col]
        r -= cw
        if acc is not None:
            acc += cw
        idx[:, t - start] = col
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
) -> tuple[list[np.ndarray], np.ndarray]:
    """Encode a feature matrix; returns per-sub-vector index arrays and Z_hat.

    The rows are processed in fixed chunks, on a worker pool when threads > 1;
    each chunk writes only its own rows, so the result does not depend on the
    worker count.
    """
    Z = _check_features(model, Z)
    stages = validate_plan(model, plan)
    lay = model.layout
    sub = split_subvectors(lay, Z)
    lambdas = model.lambdas if model.ec_enabled else None

    indices = [np.empty((Z.shape[0], int(t)), dtype=np.int64) for t in stages]

    # sub is a private copy: each chunk of a sub-vector is overwritten with its
    # reconstruction once its residual has been copied out.
    def walk(rows: slice):
        for i in range(lay.n_sub):
            r = sub[rows, i, :].copy()
            acc = np.zeros_like(r)
            if stages[i] == 0:
                acc[:] = model.fallback_means[i]
            indices[i][rows] = walk_stages(model.codebooks[int(lay.group_of[i])], lambdas,
                                           r, 0, int(stages[i]), acc)
            sub[rows, i, :] = acc

    map_row_chunks(walk, Z.shape[0], threads)
    return indices, merge_subvectors(lay, sub)


def decode_batch(
    model: MsvqModel,
    indices: list[np.ndarray],
    plan: SelectionPlan,
    rows: int | None = None,
) -> np.ndarray:
    """Rebuild Z_hat from index arrays; bit-exact vs. the encoder's output."""
    stages = validate_plan(model, plan)
    lay = model.layout
    if len(indices) != lay.n_sub:
        raise CorruptionError(f"got index streams for {len(indices)} sub-vectors, "
                              f"model has {lay.n_sub}")
    if rows is None:
        rows = max((idx.shape[0] for idx in indices if idx.ndim == 2), default=0)
    zhat = np.empty((rows, lay.n_sub, lay.sub_dim), dtype=np.float64)
    for i in range(lay.n_sub):
        t_i = int(stages[i])
        idx_i = np.asarray(indices[i], dtype=np.int64)
        if idx_i.shape != (rows, t_i):
            raise CorruptionError(f"sub-vector {i}: index array shape {idx_i.shape} "
                                  f"does not match ({rows}, {t_i})")
        if t_i == 0:
            zhat[:, i, :] = model.fallback_means[i]
            continue
        books = model.codebooks[int(lay.group_of[i])]
        acc = np.zeros((rows, lay.sub_dim), dtype=np.float64)
        for t in range(t_i):
            col = idx_i[:, t]
            if rows and (col.min() < 0 or col.max() >= books[t].size):
                raise CorruptionError(f"sub-vector {i} stage {t}: codeword index out of "
                                      f"range [0, {books[t].size})")
            acc += books[t].vectors.astype(np.float64)[col]
        zhat[:, i, :] = acc
    return merge_subvectors(lay, zhat)


def encode(model: MsvqModel, z: np.ndarray, plan: SelectionPlan):
    """Encode a single M-vector; returns (EncodedFeature, z_hat)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise DataError(f"expected a 1-D feature vector, got shape {z.shape}")
    indices, zhat = encode_batch(model, z[None, :], plan)
    enc = EncodedFeature(indices=tuple(idx[0] for idx in indices), plan=plan)
    return enc, zhat[0]


def decode(model: MsvqModel, enc: EncodedFeature) -> np.ndarray:
    """Reconstruct a single M-vector from its encoded indices."""
    indices = [np.asarray(idx, dtype=np.int64)[None, :] for idx in enc.indices]
    return decode_batch(model, indices, enc.plan, rows=1)[0]


def reconstruction_mse(Z: np.ndarray, Z_hat: np.ndarray) -> float:
    """Mean squared reconstruction error per vector (squared norm, row mean)."""
    diff = np.asarray(Z, dtype=np.float64) - np.asarray(Z_hat, dtype=np.float64)
    return float(np.mean(np.einsum("rm,rm->r", diff, diff)))
