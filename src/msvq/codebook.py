"""Codebook storage and nearest-codeword search.

Search is an exhaustive scan with a fixed tie rule (lowest index). Both
kernels run one scan that scores by the expanded norm (||c||^2 - 2 x.c) and
drops the query-norm term, which is constant per query: exact in exact
arithmetic, but near-ties within the rounding of ||x||^2 + ||c||^2 may resolve
differently from a direct-difference argmin. Decoding is unaffected, because
receivers never search. Each kernel returns the chosen indices and the
residuals x - c they leave, the next stage's input; an exact match leaves a
residual of exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import MAX_CODE_LENGTH, HuffmanCode, canonical_code, kraft_sum
from .errors import ConfigError, CorruptionError, DataError, MsvqError
from .layout import SubVectorLayout

ROW_CHUNK = 4096  # search block; callers chunk rows by it too, so results ignore threads


@dataclass(frozen=True)
class Codebook:
    """One stage codebook: K = 2^B codewords of dimension D.

    prior holds the codeword selection probabilities used by rate-penalized
    search; code_lengths holds the canonical Huffman lengths, which training
    builds from its final pass's codeword counts. A codebook on its own is not
    checked, as training refits them freely; validate_codebook states what a
    model's codebooks must satisfy, and MsvqModel applies it.
    """

    vectors: np.ndarray
    prior: np.ndarray | None = None
    code_lengths: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def validate_codebook(cb: Codebook) -> None:
    k = cb.size
    if k < 1 or (k & (k - 1)) != 0:
        raise ConfigError(f"codebook size {k} is not a power of two")
    if not np.all(np.isfinite(cb.vectors)):
        raise DataError("codebook vectors contain non-finite values")
    if cb.prior is not None:
        if cb.prior.shape != (k,):
            raise ConfigError(f"prior length {cb.prior.shape} != codebook size {k}")
        if np.any(cb.prior <= 0.0):
            raise CorruptionError("codeword prior has non-positive entries")
        if abs(float(cb.prior.sum()) - 1.0) > 1e-9:
            raise CorruptionError(f"codeword prior sums to {cb.prior.sum()!r}, not 1")
    if cb.code_lengths is not None:
        if (cb.code_lengths.shape != (k,) or cb.code_lengths.min() < 1
                or cb.code_lengths.max() > MAX_CODE_LENGTH):
            raise ConfigError(f"code lengths must lie in [1, {MAX_CODE_LENGTH}] "
                              f"and be one per codeword")
        if kraft_sum(cb.code_lengths) > 1.0 + 1e-12:
            raise CorruptionError("code lengths violate the Kraft inequality")


def check_lambdas(lambdas, t_max: int) -> np.ndarray:
    """A float64 copy of per-stage lambdas; ConfigError unless there are t_max
    of them, each positive and finite."""
    lambdas = np.array(lambdas, dtype=np.float64)
    if lambdas.shape != (t_max,) or not np.all(np.isfinite(lambdas) & (lambdas > 0)):
        raise ConfigError(f"lambdas must be positive and finite, one per stage ({t_max})")
    return lambdas


@dataclass(frozen=True)
class MsvqModel:
    """Immutable trained codec model, checked when it is built.

    codebooks[g][t] is the stage-(t+1) codebook shared by every sub-vector in
    group g: n_groups groups of t_max codebooks, codebook (g, t) holding
    2^bits[g, t] codewords of dimension sub_dim that pass validate_codebook.
    fallback_means is the finite (n_sub, sub_dim) array of per-sub-vector
    training means (layout order) used to reconstruct sub-vectors that receive
    zero stages. A model is entropy-constrained (ec_enabled) exactly when it
    has lambdas, the finite positive per-stage distortion weights of the
    rate-penalized search; then every codebook has a prior and Huffman code
    lengths (which training builds from its final pass's codeword counts), and
    otherwise none has either. Any other combination raises on construction.
    """

    layout: SubVectorLayout
    codebooks: tuple[tuple[Codebook, ...], ...]
    fallback_means: np.ndarray
    lambdas: np.ndarray | None = None

    def __post_init__(self):
        lay = self.layout
        ec = self.ec_enabled
        if len(self.codebooks) != lay.n_groups or any(
                len(books) != lay.t_max for books in self.codebooks):
            raise ConfigError(f"model needs {lay.n_groups} groups of {lay.t_max} codebooks")
        for g, books in enumerate(self.codebooks):
            for t, cb in enumerate(books):
                where = f"codebook group {g} stage {t + 1}"
                shape = (1 << int(lay.group_bits(g)[t]), lay.sub_dim)
                if cb.vectors.shape != shape:
                    raise ConfigError(f"{where}: vectors are {cb.vectors.shape}, "
                                      f"layout needs {shape}")
                if (cb.prior is not None) != ec or (cb.code_lengths is not None) != ec:
                    raise ConfigError(f"{where}: priors and code lengths must be given "
                                      f"exactly when lambdas are")
                try:
                    validate_codebook(cb)
                except MsvqError as exc:
                    raise type(exc)(f"{where}: {exc}") from exc
        means = np.asarray(self.fallback_means)
        if means.shape != (lay.n_sub, lay.sub_dim) or not np.all(np.isfinite(means)):
            raise ConfigError(f"fallback means must be a finite ({lay.n_sub}, "
                              f"{lay.sub_dim}) array, got shape {means.shape}")
        if ec:
            check_lambdas(self.lambdas, lay.t_max)

    @property
    def ec_enabled(self) -> bool:
        return self.lambdas is not None

    @cached_property
    def huffman_codes(self) -> tuple[tuple[HuffmanCode, ...], ...]:
        """Canonical code of codebook [g][t] (EC models only); built on first
        use and kept with the model, as are the codes' decode tables."""
        return tuple(tuple(canonical_code(cb.code_lengths) for cb in books)
                     for books in self.codebooks)

    @cached_property
    def padded_code_lengths(self) -> np.ndarray:
        """(G, T, K) code length of every codeword (EC models only), K being
        the largest codebook's size; zero past a smaller codebook's end."""
        k = max(cb.size for books in self.codebooks for cb in books)
        return np.array([[np.pad(cb.code_lengths, (0, k - cb.size)) for cb in books]
                         for books in self.codebooks])

    @property
    def t_max(self) -> int:
        return self.layout.t_max

    @property
    def n_groups(self) -> int:
        return len(self.codebooks)


def codeword_param_count(model: MsvqModel) -> int:
    """Total number of stored codeword parameters (sum of K*D over codebooks)."""
    return sum(cb.size * cb.dim for group in model.codebooks for cb in group)


def _scan(points, vec: np.ndarray, scale: float, bias: np.ndarray):
    """Argmin of (points @ vec.T) * scale + bias per row, lowest index on ties.

    vec is a C-contiguous float64 codeword array. Rows are scored ROW_CHUNK at
    a time. Returns (indices, residuals), a residual being points - vec[index].
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    idx = np.empty(pts.shape[0], dtype=np.int64)
    for start in range(0, pts.shape[0], ROW_CHUNK):
        chunk = pts[start:start + ROW_CHUNK]
        scores = chunk @ vec.T
        scores *= scale
        scores += bias
        idx[start:start + ROW_CHUNK] = np.argmin(scores, axis=1)
    return idx, pts - vec[idx]


def nearest_batch(points: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive nearest-codeword scan for a batch of queries.

    Returns (indices, residuals); ties go to the lowest index.
    """
    vec = np.ascontiguousarray(vectors, dtype=np.float64)
    return _scan(points, vec, -2.0, np.einsum("kd,kd->k", vec, vec))


def nearest_rate_penalized_batch(
    points: np.ndarray,
    vectors: np.ndarray,
    prior: np.ndarray,
    rd_lambda: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch scan minimizing rd_lambda * ||r - c_k||^2 - log2(prior_k).

    Returns (indices, residuals). The query-norm term is again constant per
    query and omitted from the score.
    """
    if rd_lambda <= 0.0:
        raise ConfigError(f"rd_lambda must be positive, got {rd_lambda}")
    if prior is None:
        raise CorruptionError("rate-penalized search requires codeword priors")
    if np.any(prior <= 0.0):
        raise CorruptionError("codeword prior has non-positive entries; model is corrupted")
    vec = np.ascontiguousarray(vectors, dtype=np.float64)
    penalty = -np.log2(prior) + rd_lambda * np.einsum("kd,kd->k", vec, vec)
    return _scan(points, vec, -2.0 * rd_lambda, penalty)
