"""Codeword PMFs, canonical Huffman codes, and the index packing kernels.

Codes are canonical: transmitter and receiver rebuild identical codebooks from
the length arrays alone, which is what the model file stores. All bit packing
is MSB-first, and each vector's fields are zero-padded to a byte boundary.

The kernels pack and unpack the codec's field matrix: (rows, F) symbols, one
row per vector and one column per transmitted (sub-vector, stage) field, in
the order quantizer.field_order gives; every row becomes its own byte-aligned
block. They are the only packing code: MSVP payloads go through them a row
chunk at a time.

* Fixed-length fields (pack_fixed/unpack_fixed) give every row the same block
  length, so both directions are whole-matrix numpy operations.
* Prefix-coded fields (pack_prefix) take their bit offsets from cumulative
  code lengths; each codeword's byte contributions are summed into the output
  in at most five vectorized passes.
* unpack_prefix decodes one symbol per step, table-driven (Moffat & Turpin
  1997, "On the implementation of minimum redundancy prefix codes"): the next
  LOOKUP_BITS bits index a table giving the symbol and its length, and a
  canonical per-length search handles longer codewords.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .codebook import MAX_CODE_LENGTH, PRIOR_FLOOR, kraft_sum  # kraft_sum: re-exported
from .errors import CorruptionError, DataError

LOOKUP_BITS = 12  # decode-table width; longer codewords take the per-length search
_WORD_WINDOW = 4096  # bytes of payload held as 64-bit words while decoding


@dataclass(frozen=True)
class HuffmanCode:
    """Canonical prefix code; codes are derived from lengths alone."""

    lengths: np.ndarray
    codes: np.ndarray
    max_length: int

    @property
    def size(self) -> int:
        return self.lengths.shape[0]

    @cached_property
    def decoder(self) -> DecodeTable:
        """Table-driven decoder; built on first use, then kept with the code."""
        return DecodeTable.build(self)


@dataclass(frozen=True)
class DecodeTable:
    """Lookup decoder for a canonical code.

    symbol[w] and length[w] give the codeword that starts the `bits`-bit
    window w; length is 0 when that codeword is longer than the window or the
    window starts no codeword. Then decode_long runs the canonical per-length
    search: the codewords of length L are consecutive integers from first[L],
    and belong to symbols ordered[start[L]:start[L] + count[L]].
    """

    bits: int
    symbol: array
    length: bytes
    max_length: int
    first: tuple[int, ...]
    count: tuple[int, ...]
    start: tuple[int, ...]
    ordered: tuple[int, ...]

    @classmethod
    def build(cls, code: HuffmanCode) -> DecodeTable:
        k = min(LOOKUP_BITS, code.max_length)
        lengths, codes = code.lengths, code.codes
        # codewords of at most k bits that fit their length (all of them when
        # the lengths obey Kraft's inequality) fill disjoint runs of windows
        short = np.flatnonzero((lengths <= k) & (codes < (1 << lengths)))
        span = 1 << (k - lengths[short])
        slot = (np.repeat((codes[short] << (k - lengths[short])) - (np.cumsum(span) - span),
                          span) + np.arange(int(span.sum())))
        symbol = np.zeros(1 << k, dtype=np.uint32)
        length = np.zeros(1 << k, dtype=np.uint8)
        symbol[slot] = np.repeat(short, span)
        length[slot] = np.repeat(lengths[short], span)

        ordered = np.lexsort((np.arange(code.size), lengths))
        count = np.bincount(lengths, minlength=code.max_length + 1)
        start = np.cumsum(count) - count
        first = np.zeros_like(count)
        used = count > 0
        first[used] = codes[ordered[start[used]]]
        return cls(bits=k, symbol=array("I", symbol.tobytes()), length=length.tobytes(),
                   max_length=code.max_length, first=tuple(first.tolist()),
                   count=tuple(count.tolist()), start=tuple(start.tolist()),
                   ordered=tuple(ordered.tolist()))

    def decode_long(self, word: int, pos: int) -> tuple[int, int]:
        """(symbol, length) of the codeword at bit `pos`, which is bit pos % 8
        of the big-endian 64-bit `word`; raises on a window that starts none."""
        n = self.max_length
        window = (word >> (64 - n - (pos & 7))) & ((1 << n) - 1)
        for length in range(1, n + 1):
            rank = (window >> (n - length)) - self.first[length]
            if 0 <= rank < self.count[length]:
                return self.ordered[self.start[length] + rank], length
        raise CorruptionError(f"invalid prefix code at bit offset {pos}")


def canonical_code(lengths: Sequence[int]) -> HuffmanCode:
    """Assign canonical codewords to a length array (ties by symbol index)."""
    lengths = np.array(lengths, dtype=np.int64)  # private copy; frozen below
    if lengths.ndim != 1 or lengths.size < 1 or lengths.min() < 1:
        raise DataError("code lengths must be a non-empty array of positive integers")
    if lengths.max() > MAX_CODE_LENGTH:
        raise DataError(f"code length {lengths.max()} exceeds the {MAX_CODE_LENGTH}-bit cap")
    order = np.lexsort((np.arange(lengths.size), lengths))
    codes = np.zeros(lengths.size, dtype=np.int64)
    code = 0
    prev_len = int(lengths[order[0]])
    for sym in order:
        length = int(lengths[sym])
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    lengths.flags.writeable = False
    codes.flags.writeable = False
    return HuffmanCode(lengths=lengths, codes=codes, max_length=int(lengths.max()))


def _limit_lengths(counts: list[int], cap: int) -> None:
    # Standard leaf-collapse rebalance; preserves Kraft equality exactly.
    for length in range(len(counts) - 1, cap, -1):
        while counts[length] > 0:
            j = length - 2
            while j > 0 and counts[j] == 0:
                j -= 1
            if j < 1 or counts[j] == 0:
                raise DataError("cannot limit code lengths: no shallower leaf available")
            counts[length] -= 2
            counts[length - 1] += 1
            counts[j + 1] += 2
            counts[j] -= 1


def huffman_lengths(pmf: np.ndarray) -> np.ndarray:
    """Optimal prefix-code lengths for a PMF, capped at MAX_CODE_LENGTH bits.

    Merge ties resolve by symbol index first, then by merge creation order, so
    the result is deterministic. A single-symbol alphabet still costs 1 bit.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    if pmf.ndim != 1 or pmf.size < 1:
        raise DataError("pmf must be a non-empty 1-D array")
    if np.any(pmf <= 0.0) or not np.all(np.isfinite(pmf)):
        raise DataError("pmf entries must be positive and finite")
    if abs(float(pmf.sum()) - 1.0) > 1e-6:
        raise DataError(f"pmf sums to {pmf.sum()!r}, not 1")
    k = pmf.size
    if k == 1:
        return np.array([1], dtype=np.int64)

    heap: list[tuple[float, int, list[int]]] = [(float(p), sym, [sym]) for sym, p in enumerate(pmf)]
    heapq.heapify(heap)
    lengths = np.zeros(k, dtype=np.int64)
    tie = k
    while len(heap) > 1:
        w1, _, syms1 = heapq.heappop(heap)
        w2, _, syms2 = heapq.heappop(heap)
        merged = syms1 + syms2
        lengths[merged] += 1
        heapq.heappush(heap, (w1 + w2, tie, merged))
        tie += 1

    if lengths.max() > MAX_CODE_LENGTH:
        counts = [0] * (int(lengths.max()) + 1)
        for length in lengths:
            counts[length] += 1
        _limit_lengths(counts, MAX_CODE_LENGTH)
        new_lengths = np.repeat(
            np.arange(len(counts), dtype=np.int64), counts)
        order = np.lexsort((np.arange(k), lengths))
        lengths = np.zeros(k, dtype=np.int64)
        lengths[order] = new_lengths
    return lengths


def build_code(pmf: np.ndarray) -> HuffmanCode:
    """Canonical Huffman code for a PMF."""
    return canonical_code(huffman_lengths(pmf))


def avg_bits(pmf: np.ndarray, code: HuffmanCode) -> tuple[float, float]:
    """Expected code length and entropy of a PMF, both in bits per symbol."""
    pmf = np.asarray(pmf, dtype=np.float64)
    if pmf.shape != code.lengths.shape:
        raise DataError(f"pmf size {pmf.shape} does not match code size {code.lengths.shape}")
    avg = float(np.dot(pmf, code.lengths))
    entropy = float(-np.dot(pmf, np.log2(pmf)))
    return avg, entropy


def smoothed_pmf(counts: np.ndarray) -> np.ndarray:
    """Laplace-smoothed, floored, renormalized PMF from occurrence counts."""
    counts = np.asarray(counts, dtype=np.float64)
    pmf = (counts + 1.0) / (counts.sum() + counts.size)
    pmf = np.maximum(pmf, PRIOR_FLOOR)
    return pmf / pmf.sum()


def measure_group_pmfs(usage: dict) -> dict:
    """Smoothed codeword PMF of each (group, stage) key from its codeword counts.

    Training counts each codebook's selections over all sub-vectors of its
    group (TrainReport.codeword_usage), so the PMFs pool the whole group.
    """
    return {key: smoothed_pmf(counts) for key, counts in usage.items()}


def decode_table(code: HuffmanCode) -> DecodeTable:
    """The code's table-driven decoder (built once per code object)."""
    return code.decoder


# --- packing kernels ---------------------------------------------------------

def _fixed_layout(widths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Field index and right shift of each bit of a fixed-length block, plus
    the first bit of each field."""
    widths = np.asarray(widths, dtype=np.int64)
    field_of_bit = np.repeat(np.arange(widths.size), widths)
    starts = np.cumsum(widths) - widths
    shift = (starts + widths)[field_of_bit] - 1 - np.arange(field_of_bit.size)
    return field_of_bit, shift, starts


def _field_dtype(widths) -> np.dtype:
    """Narrowest unsigned integer type that holds every field."""
    return np.min_scalar_type((1 << int(np.max(widths, initial=1))) - 1)


def pack_fixed(symbols: np.ndarray, widths) -> np.ndarray:
    """Pack (rows, F) symbols at fixed bit widths (each >= 1), MSB-first.

    Returns (rows, ceil(sum(widths) / 8)) bytes; padding bits are zero. Bits
    of a symbol above its field width are dropped.
    """
    dtype = _field_dtype(widths)
    field_of_bit, shift, _ = _fixed_layout(widths)
    symbols = np.asarray(symbols).astype(dtype, copy=False)
    return np.packbits((symbols[:, field_of_bit] >> shift.astype(dtype)) & 1, axis=1)


def unpack_fixed(blocks: np.ndarray, widths) -> np.ndarray:
    """Inverse of pack_fixed: (rows, ceil(sum(widths) / 8)) bytes -> (rows, F).

    Padding bits are ignored.
    """
    dtype = _field_dtype(widths)
    field_of_bit, shift, starts = _fixed_layout(widths)
    if starts.size == 0:
        return np.zeros((blocks.shape[0], 0), dtype=dtype)
    bits = np.unpackbits(blocks, axis=1, count=field_of_bit.size).astype(dtype, copy=False)
    return np.add.reduceat(bits << shift.astype(dtype), starts, axis=1, dtype=dtype)


def pack_prefix(symbols: np.ndarray, codes: Sequence[HuffmanCode]) -> np.ndarray:
    """Prefix-code (rows, F) symbols, column f with codes[f], MSB-first.

    Each row is zero-padded to a byte boundary; returns the packed bytes.
    """
    symbols = np.asarray(symbols)
    values = np.empty(symbols.shape, dtype=np.int64)
    lengths = np.empty(symbols.shape, dtype=np.int64)
    for f, code in enumerate(codes):
        values[:, f] = code.codes[symbols[:, f]]
        lengths[:, f] = code.lengths[symbols[:, f]]
    row_bytes = (lengths.sum(axis=1) + 7) >> 3
    row_start = 8 * (np.cumsum(row_bytes) - row_bytes)
    starts = (row_start[:, None] + np.cumsum(lengths, axis=1) - lengths).ravel()
    # Left-align each codeword in the 40 bits from its first byte (lengths are
    # capped at 32, so it ends within 5 bytes). Different codewords never
    # share a bit, so summing their byte contributions equals OR-ing them.
    aligned = values.ravel() << (40 - lengths.ravel() - (starts & 7))
    first = starts >> 3
    total = int(row_bytes.sum())
    out = np.zeros(total + 5, dtype=np.float64)
    for j in range((int(lengths.max(initial=0)) + 14) // 8):
        out += np.bincount(first + j, weights=(aligned >> (32 - 8 * j)) & 0xFF,
                           minlength=total + 5)
    return out[:total].astype(np.uint8)


def _be_words(data: bytes, start: int, n: int) -> list[int]:
    """Big-endian 64-bit words of data[start + j: start + j + 8], j < n,
    reading zeros past the end of data."""
    raw = data[start:start + n + 7].ljust(n + 7, b"\0")
    windows = np.ndarray((n, 8), dtype=np.uint8, buffer=raw, strides=(1, 1))
    return windows.copy().view(">u8").ravel().tolist()


def unpack_prefix(
    data: bytes,
    rows: int,
    tables: Sequence[DecodeTable],
    offset: int = 0,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Decode `rows` byte-aligned blocks from data[offset:], field f with tables[f].

    Returns (symbols (rows, F), realized bits per row, byte offset after the
    last block). Raises CorruptionError on an invalid codeword or a block
    that runs past the end of data.
    """
    n_fields = len(tables)
    out = array("I", [0]) * (rows * n_fields)
    row_bits = array("q", [0]) * rows
    steps = [(64 - t.bits, (1 << t.bits) - 1, t.length, t.symbol, t) for t in tables]
    reach = (sum(t.max_length for t in tables) + 7) // 8 + 1  # bytes one block can touch
    limit = 8 * (len(data) - offset)
    base, words, p, k = offset, [], 0, 0  # p: bit position relative to byte `base`
    for r in range(rows):
        if (p >> 3) + reach > len(words):
            base += p >> 3
            limit -= p
            p = 0
            words = _be_words(data, base, max(reach, min(_WORD_WINDOW, len(data) - base)))
        start = p
        for shift, mask, length, symbol, table in steps:
            word = words[p >> 3]
            peek = (word >> (shift - (p & 7))) & mask
            n = length[peek]
            if n:
                out[k] = symbol[peek]
            else:
                out[k], n = table.decode_long(word, 8 * base + p)
            k += 1
            p += n
        if p > limit:
            raise CorruptionError(f"bitstream truncated: block {r} ends at bit offset "
                                  f"{8 * base + p}, past the end at {8 * len(data)}")
        row_bits[r] = p - start
        p = (p + 7) & ~7
    symbols = np.frombuffer(out, dtype=np.uint32).reshape(rows, n_fields)
    return symbols, np.frombuffer(row_bits, dtype=np.int64), base + (p >> 3)
