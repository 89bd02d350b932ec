"""Feature variances, variance-sorted sub-vector layouts, and bit allocation.

An M-dimensional feature vector is split into N sub-vectors of dimension D by
first permuting coordinates into descending-variance order, so each sub-vector
holds entries with similar spread. Sub-vectors are then assigned to G
codebook-sharing groups (contiguous runs in variance order), and every
sub-vector gets a per-stage quantization bit width from an allocation preset.
The per-coordinate variance vector that compute_stats measures is the only
statistic a layout needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

MAX_BITS = 8  # codebooks are exhaustively scanned; 2^8 codewords is the ceiling

_PRESET_ALIASES = {
    "type1": "type1",
    "typei": "type1",
    "type2": "type2",
    "typeii": "type2",
    "type3": "type3",
    "typeiii": "type3",
}


@dataclass(frozen=True)
class SubVectorLayout:
    """Partition of an M-vector into N variance-ordered sub-vectors.

    Attributes:
        m_dim: Full feature dimension M.
        sub_dim: Sub-vector dimension D, with M = N * D.
        n_sub: Number of sub-vectors N.
        perm: Length-M permutation; perm[j] is the original coordinate that
            sits at sorted position j (descending variance, ties by ascending
            original index). Sub-vector i owns positions i*D .. (i+1)*D-1.
        group_of: Length-N array of 0-based group ids; groups are contiguous
            runs of N/G sub-vectors.
        bits: (N, t_max) integer matrix of per-stage quantization bit widths,
            non-increasing down each column and along each row.
    """

    m_dim: int
    sub_dim: int
    n_sub: int
    perm: np.ndarray
    group_of: np.ndarray
    bits: np.ndarray

    @property
    def t_max(self) -> int:
        return self.bits.shape[1]

    @property
    def n_groups(self) -> int:
        return int(self.group_of.max()) + 1

    def group_members(self, g: int) -> np.ndarray:
        """Sub-vector indices belonging to group g."""
        return np.flatnonzero(self.group_of == g)

    def group_bits(self, g: int) -> np.ndarray:
        """Shared per-stage bit widths of group g."""
        return self.bits[self.group_members(g)[0]]


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it."""
    a.flags.writeable = False
    return a


def check_features(data, m_dim: int | None = None, dtype=np.float64) -> np.ndarray:
    """A feature matrix as dtype; DataError unless it is 2-D, finite in that
    dtype (float64 for the codec, the stored float32 for FMAT files) and, when
    m_dim is given, m_dim columns wide."""
    data = np.asarray(data, dtype=dtype)
    if data.ndim != 2 or m_dim not in (None, data.shape[1]):
        raise DataError(f"feature matrix must be (rows, {m_dim or 'M'}), got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise DataError("feature matrix contains non-finite values")
    return data


def compute_stats(data: np.ndarray) -> np.ndarray:
    """Per-coordinate population variance (1/n normalization), read-only.

    Args:
        data: (rows, M) feature matrix, rows >= 2, all finite.

    Raises:
        DataError: on non-finite input or fewer than 2 rows.
    """
    data = check_features(data)
    if data.shape[0] < 2:
        raise DataError(f"need at least 2 rows to compute statistics, got {data.shape[0]}")
    mean = data.mean(axis=0)
    return freeze(np.mean((data - mean) ** 2, axis=0))


def variance_order(variance: np.ndarray) -> np.ndarray:
    """Coordinate indices in descending-variance order, ties by ascending index."""
    return np.argsort(-np.asarray(variance, dtype=np.float64), kind="stable")


def validate_bits(bits: np.ndarray) -> np.ndarray:
    """Check a bit-width matrix against the allocation constraints.

    Widths must be integers in [1, MAX_BITS], non-increasing down each column
    (higher-variance sub-vectors get at least as many bits) and non-increasing
    along each row (earlier stages get at least as many bits).
    """
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.size == 0:
        raise ConfigError(f"bit matrix must be 2-D and non-empty, got shape {bits.shape}")
    if not np.issubdtype(bits.dtype, np.integer):
        if not np.all(bits == np.floor(bits)):
            raise ConfigError("bit widths must be integers")
    bits = bits.astype(np.int64)
    if bits.min() < 1 or bits.max() > MAX_BITS:
        raise ConfigError(f"bit widths must lie in [1, {MAX_BITS}], got range "
                          f"[{bits.min()}, {bits.max()}]")
    if np.any(np.diff(bits, axis=0) > 0):
        raise ConfigError("bit widths must be non-increasing from high- to low-variance rows")
    if np.any(np.diff(bits, axis=1) > 0):
        raise ConfigError("bit widths must be non-increasing across stages")
    return bits


def allocation_preset(name: str, n_sub: int, t_max: int) -> np.ndarray:
    """Materialize a named bit-allocation preset as an (n_sub, t_max) matrix.

    type1: top half of the rows gets 8,7,6,... bits over the stages, bottom
    half 6,5,4,...; type2: constant 7 bits for the top half and 5 for the
    bottom; type3: constant 6 bits everywhere.
    """
    key = _PRESET_ALIASES.get(name.replace("_", "").replace("-", "").lower())
    if key is None:
        raise ConfigError(f"unknown allocation preset {name!r}; "
                          f"expected one of type1, type2, type3")
    if t_max < 1:
        raise ConfigError(f"t_max must be >= 1, got {t_max}")
    if n_sub < 1:
        raise ConfigError(f"n_sub must be >= 1, got {n_sub}")
    if key == "type3":
        return validate_bits(np.full((n_sub, t_max), 6, dtype=np.int64))
    if n_sub % 2 != 0:
        raise ConfigError(f"preset {name!r} splits rows into halves; n_sub={n_sub} is odd")
    half = n_sub // 2
    bits = np.empty((n_sub, t_max), dtype=np.int64)
    if key == "type1":
        if t_max > 6:
            raise ConfigError(f"type1 needs t_max <= 6 to keep widths >= 1, got {t_max}")
        stages = np.arange(t_max)
        bits[:half] = 8 - stages
        bits[half:] = 6 - stages
    else:  # type2
        bits[:half] = 7
        bits[half:] = 5
    return validate_bits(bits)


def assemble_layout(
    m_dim: int,
    sub_dim: int,
    n_sub: int,
    perm: np.ndarray,
    group_of: np.ndarray,
    bits: np.ndarray,
) -> SubVectorLayout:
    """Assemble a layout from explicit fields, enforcing every invariant.

    The one constructor of checked layouts: build_layout derives the fields
    from statistics and a preset, model loading reads them from a file.
    """
    if m_dim != n_sub * sub_dim:
        raise ConfigError(f"M={m_dim} != N*D = {n_sub}*{sub_dim}")
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (m_dim,) or not np.array_equal(np.sort(perm), np.arange(m_dim)):
        raise ConfigError("perm is not a permutation of the coordinate indices")
    group_of = np.asarray(group_of, dtype=np.int64)
    if group_of.shape != (n_sub,) or group_of.min() != 0:
        raise ConfigError("group map must cover all sub-vectors starting at group 0")
    n_groups = int(group_of.max()) + 1
    if n_sub % n_groups != 0 or not np.array_equal(
            group_of, np.repeat(np.arange(n_groups), n_sub // n_groups)):
        raise ConfigError("groups must be contiguous equal-sized runs")
    bits = validate_bits(bits)
    if bits.shape[0] != n_sub:
        raise ConfigError(f"bit matrix has {bits.shape[0]} rows, expected {n_sub}")
    for g in range(n_groups):
        rows = bits[group_of == g]
        if np.any(rows != rows[0]):
            raise ConfigError(
                f"sub-vectors in group {g} have differing bit rows; codebook "
                f"sharing requires identical widths (use more groups or another preset)")
    return SubVectorLayout(m_dim=m_dim, sub_dim=sub_dim, n_sub=n_sub,
                           perm=freeze(perm), group_of=freeze(group_of),
                           bits=freeze(bits))


def build_layout(
    variance: np.ndarray,
    sub_dim: int,
    t_max: int,
    groups: int,
    alloc: str | np.ndarray,
) -> SubVectorLayout:
    """Build the variance-sorted sub-vector layout.

    Args:
        variance: Length-M per-coordinate variances (compute_stats) that
            drive the coordinate ordering.
        sub_dim: Sub-vector dimension D; must divide M.
        t_max: Number of quantization stages.
        groups: Number of codebook-sharing groups G; must divide N.
        alloc: Preset name ("type1"/"type2"/"type3") or an explicit
            (N, t_max) bit matrix.

    Raises:
        ConfigError: on divisibility violations, preset/shape mismatches, or
            bit rows that differ within a codebook-sharing group.
    """
    m_dim = len(variance)
    if sub_dim < 1 or m_dim % sub_dim != 0:
        raise ConfigError(f"sub_dim={sub_dim} must divide feature dimension M={m_dim}")
    n_sub = m_dim // sub_dim
    if not (1 <= groups <= n_sub):
        raise ConfigError(f"groups={groups} must lie in [1, {n_sub}]")
    if n_sub % groups != 0:
        raise ConfigError(f"groups={groups} must divide n_sub={n_sub}")

    if isinstance(alloc, str):
        bits = allocation_preset(alloc, n_sub, t_max)
    else:
        bits = validate_bits(alloc)
    if bits.shape != (n_sub, t_max):
        raise ConfigError(f"bit matrix shape {bits.shape} does not match "
                          f"(n_sub={n_sub}, t_max={t_max})")

    group_of = np.repeat(np.arange(groups, dtype=np.int64), n_sub // groups)
    perm = variance_order(variance)
    return assemble_layout(m_dim, sub_dim, n_sub, perm, group_of, bits)
