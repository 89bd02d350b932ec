"""Encode/decode core: residual quantization under a per-sub-vector stage plan.

Encoding walks each sub-vector through its active stages, picking the nearest
codeword (rate-penalized when the model is entropy-constrained) and updating
the residual. The reconstruction sums the chosen codewords in ascending stage
order in float64; decode repeats the identical summation, so both sides agree
bit for bit. Sub-vectors with zero active stages reconstruct to the stored
training mean at a cost of zero transmitted bits.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codebook import MsvqModel, nearest_batch, nearest_rate_penalized_batch
from .errors import ConfigError, CorruptionError, DataError

_ROW_CHUNK = 4096  # matches the search kernels' internal chunking, so the
                   # per-row arithmetic is identical for any worker count


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


def plan_from_stages(layout, stages, avg_bits: float | None = None) -> SelectionPlan:
    stages = np.asarray(stages, dtype=np.int64)
    if stages.shape != (layout.n_sub,):
        raise ConfigError(f"plan has {stages.shape} stage counts, layout expects {layout.n_sub}")
    if stages.min() < 0 or stages.max() > layout.t_max:
        raise ConfigError(f"stage counts must lie in [0, {layout.t_max}]")
    stages.flags.writeable = False
    return SelectionPlan(stages=stages, exact_bits=exact_bit_total(layout, stages),
                         avg_bits=avg_bits)


def full_plan(layout) -> SelectionPlan:
    return plan_from_stages(layout, np.full(layout.n_sub, layout.t_max, dtype=np.int64))


def zero_plan(layout) -> SelectionPlan:
    return plan_from_stages(layout, np.zeros(layout.n_sub, dtype=np.int64))


def validate_plan(model: MsvqModel, plan: SelectionPlan) -> None:
    lay = model.layout
    stages = np.asarray(plan.stages)
    if stages.shape != (lay.n_sub,):
        raise ConfigError(f"plan covers {stages.shape[0]} sub-vectors, model has {lay.n_sub}")
    if stages.min() < 0 or stages.max() > lay.t_max:
        raise ConfigError(f"plan stage counts must lie in [0, {lay.t_max}]")
    if plan.exact_bits is not None and plan.exact_bits != exact_bit_total(lay, stages):
        raise CorruptionError(
            f"plan claims {plan.exact_bits} bits but layout accounting gives "
            f"{exact_bit_total(lay, stages)}")


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


def _encode_rows(model: MsvqModel, sub: np.ndarray, stages: np.ndarray):
    lay = model.layout
    rows = sub.shape[0]
    zhat = np.empty_like(sub)
    indices: list[np.ndarray] = []
    for i in range(lay.n_sub):
        t_i = int(stages[i])
        idx_i = np.empty((rows, t_i), dtype=np.int64)
        if t_i == 0:
            zhat[:, i, :] = model.fallback_means[i].astype(np.float64)
            indices.append(idx_i)
            continue
        g = int(lay.group_of[i])
        r = sub[:, i, :].copy()
        acc = np.zeros((rows, lay.sub_dim), dtype=np.float64)
        for t in range(t_i):
            cb = model.codebooks[g][t]
            if model.ec_enabled:
                idx, _, _ = nearest_rate_penalized_batch(
                    r, cb.vectors, cb.prior, float(model.lambdas[t]))
            else:
                idx, _ = nearest_batch(r, cb.vectors)
            cw = cb.vectors[idx].astype(np.float64)
            acc += cw
            r -= cw
            idx_i[:, t] = idx
        zhat[:, i, :] = acc
        indices.append(idx_i)
    return indices, zhat


def encode_batch(
    model: MsvqModel,
    Z: np.ndarray,
    plan: SelectionPlan,
    threads: int = 1,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Encode a feature matrix; returns per-sub-vector index arrays and Z_hat.

    With threads > 1 the rows are processed in fixed chunks on a worker pool
    and stitched back in chunk order, so the result does not depend on the
    worker count.
    """
    Z = _check_features(model, Z)
    validate_plan(model, plan)
    sub = split_subvectors(model.layout, Z)
    stages = np.asarray(plan.stages, dtype=np.int64)
    if threads > 1 and Z.shape[0] > _ROW_CHUNK:
        chunks = [sub[a:a + _ROW_CHUNK] for a in range(0, sub.shape[0], _ROW_CHUNK)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda c: _encode_rows(model, c, stages), chunks))
        indices = [np.concatenate([r[0][i] for r in results], axis=0)
                   for i in range(model.layout.n_sub)]
        zhat = np.concatenate([r[1] for r in results], axis=0)
    else:
        indices, zhat = _encode_rows(model, sub, stages)
    return indices, merge_subvectors(model.layout, zhat)


def decode_batch(
    model: MsvqModel,
    indices: list[np.ndarray],
    plan: SelectionPlan,
    rows: int | None = None,
) -> np.ndarray:
    """Rebuild Z_hat from index arrays; bit-exact vs. the encoder's output."""
    validate_plan(model, plan)
    lay = model.layout
    stages = np.asarray(plan.stages, dtype=np.int64)
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
            zhat[:, i, :] = model.fallback_means[i].astype(np.float64)
            continue
        g = int(lay.group_of[i])
        acc = np.zeros((rows, lay.sub_dim), dtype=np.float64)
        for t in range(t_i):
            cb = model.codebooks[g][t]
            col = idx_i[:, t]
            if rows and (col.min() < 0 or col.max() >= cb.size):
                raise CorruptionError(f"sub-vector {i} stage {t}: codeword index out of "
                                      f"range [0, {cb.size})")
            acc += cb.vectors[col].astype(np.float64)
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
