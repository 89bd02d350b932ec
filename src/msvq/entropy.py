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
* unpack_prefix is table-driven (Moffat & Turpin 1997, "On the
  implementation of minimum redundancy prefix codes"): the next LOOKUP_BITS
  bits index a table giving the symbol and its length, and a canonical
  per-length search handles longer codewords. Every table has the same
  width, so one peek at a bit position serves every field. Because every row
  is a byte-aligned block, each byte offset of a bounded window of the data is
  a candidate row start, and all of them are decoded at once, one vectorized
  step per field (speculative decoding, Klein & Wiseman 2003, "Parallel
  Huffman decoding with applications to JPEG files"). The true row starts are
  then chained from the window's first byte and decoded again, together. A
  row the lookup cannot settle (a codeword longer than the table, an invalid
  code, or an end past the data) goes through the scalar loop, one symbol per
  step, which also decodes small inputs and raises every CorruptionError. The
  scalar loop reads the words its rows can touch once, before its first row.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import CorruptionError, DataError

PRIOR_FLOOR = 2.0 ** -32  # keeps -log2(p) finite for every codeword
MAX_CODE_LENGTH = 32  # Huffman code length cap
LOOKUP_BITS = 12  # width of every decode table; longer codewords take the per-length search
_SPECULATIVE_WINDOW = 8192  # candidate row starts decoded at once
_SPECULATIVE_MIN_ROWS = 64  # fewer rows are cheaper one symbol per step
_UNRESOLVED = 1 << 32  # bits a speculative lookup adds when it resolves no codeword


def kraft_sum(lengths: np.ndarray) -> float:
    return float(np.sum(2.0 ** -np.asarray(lengths, dtype=np.float64)))


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

    symbol[w] and length[w] give the codeword that starts the LOOKUP_BITS-bit
    window w, whatever the code's longest codeword; length is 0 when that
    codeword is longer than the window or the window starts no codeword. Then
    decode_long runs the canonical per-length search: the codewords of length
    L are consecutive integers from first[L], and belong to symbols
    ordered[start[L]:start[L] + count[L]].
    """

    symbol: array
    length: bytes
    max_length: int
    first: tuple[int, ...]
    count: tuple[int, ...]
    start: tuple[int, ...]
    ordered: tuple[int, ...]

    @classmethod
    def build(cls, code: HuffmanCode) -> DecodeTable:
        k = LOOKUP_BITS
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
        return cls(symbol=array("I", symbol.tobytes()), length=length.tobytes(),
                   max_length=code.max_length, first=tuple(first.tolist()),
                   count=tuple(count.tolist()), start=tuple(start.tolist()),
                   ordered=tuple(ordered.tolist()))

    @cached_property
    def advance(self) -> np.ndarray:
        """length as int64, with _UNRESOLVED where it is 0: what speculative
        decoding adds to a candidate's bit position."""
        length = np.frombuffer(self.length, dtype=np.uint8)
        return np.where(length == 0, _UNRESOLVED, length.astype(np.int64))

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

    Fewer than _SPECULATIVE_MIN_ROWS rows are decoded by the scalar loop.
    Otherwise _SPECULATIVE_WINDOW bytes at a time are decoded speculatively
    (see _speculate); rows the fast pass cannot settle still go through the
    scalar loop, so symbols, row bits, end offset and errors are the same
    either way.
    """
    n_fields = len(tables)
    out = array("I", [0]) * (rows * n_fields)
    row_bits = array("q", [0]) * rows
    steps = [(t.length, t.symbol, t) for t in tables]
    reach = (sum(t.max_length for t in tables) + 7) // 8 + 1  # bytes a block can touch
    if rows < _SPECULATIVE_MIN_ROWS or not n_fields:
        end = _decode_rows(data, steps, reach, offset, 0, rows, out, row_bits)
    else:
        end = _speculate(data, steps, reach, offset, rows, out, row_bits)
    symbols = np.frombuffer(out, dtype=np.uint32).reshape(rows, n_fields)
    return symbols, np.frombuffer(row_bits, dtype=np.int64), end


def _decode_rows(data, steps, reach, offset, first, stop, out, row_bits) -> int:
    """Scalar loop: decode blocks first..stop-1 from data[offset:], one symbol
    per step, into out (row-major symbols) and row_bits. steps holds each
    field's (length, symbol, table) lookup; no block touches more than `reach`
    bytes.

    The 64-bit words of every byte the blocks can touch are read once, up
    front: a block starts inside the data or the loop has already raised, and
    the blocks before it take at most `reach` bytes each. Callers keep that
    bounded: fewer than _SPECULATIVE_MIN_ROWS rows, one fallback row, or
    zero-field rows, whose `reach` is 1.

    Returns the byte offset after block stop-1; raises CorruptionError at the
    first invalid codeword or block end past the data.
    """
    shift, mask = 64 - LOOKUP_BITS, (1 << LOOKUP_BITS) - 1
    limit = 8 * (len(data) - offset)
    words = _be_words(data, offset,
                      max(0, min(len(data) - offset, (stop - first) * reach)) + reach)
    p, k = 0, first * len(steps)  # p: bit position relative to `offset`
    for r in range(first, stop):
        start = p
        for length, symbol, table in steps:
            word = words[p >> 3]
            peek = (word >> (shift - (p & 7))) & mask
            n = length[peek]
            if n:
                out[k] = symbol[peek]
            else:
                out[k], n = table.decode_long(word, 8 * offset + p)
            k += 1
            p += n
        if p > limit:
            raise CorruptionError(f"bitstream truncated: block {r} ends at bit offset "
                                  f"{8 * offset + p}, past the end at {8 * len(data)}")
        row_bits[r] = p - start
        p = (p + 7) & ~7
    return offset + (p >> 3)


def _speculate(data, steps, reach, offset, rows, out, row_bits) -> int:
    """Decode all rows a window at a time; returns the byte offset after the last.

    Each window's byte offsets are all decoded as row starts, one vectorized
    lookup per field. A lookup that resolves no codeword adds _UNRESOLVED
    bits, so a candidate's span tells whether every field resolved. The true
    starts are then chained from the window's first byte, and decoded again
    together into out and row_bits. A true start whose candidate did not
    resolve, or ends past the data, is decoded by the scalar loop inside the
    chain, which continues from its end. Working memory depends on the
    window and the fields, not on `rows`.
    """
    tables = [step[-1] for step in steps]
    n_fields = len(tables)
    span = sum(min(LOOKUP_BITS, t.max_length) for t in tables)  # most bits a resolved row takes
    pad = (span + 7) // 8 + 1  # bytes a resolved row reaches past its start
    fast = [(t.advance, np.frombuffer(t.length, dtype=np.uint8),
             np.frombuffer(t.symbol, dtype=np.uint32)) for t in tables]
    shifts = np.arange(8, dtype=np.uint32)
    symbols = np.frombuffer(out, dtype=np.uint32).reshape(rows, n_fields)
    bits = np.frombuffer(row_bits, dtype=np.int64)
    base, r = offset, 0
    while r < rows:
        width = max(1, min(_SPECULATIVE_WINDOW, len(data) - base, (rows - r) * reach))
        size = width + pad + 3
        raw = np.frombuffer(data[base:base + size].ljust(size, b"\0"), dtype=np.uint8)
        raw = raw.astype(np.uint32)
        word = raw[:-3] << 24 | raw[1:-2] << 16 | raw[2:-1] << 8 | raw[3:]
        # bit position -> the LOOKUP_BITS-bit lookup index that starts there
        peeks = (word[:, None] << shifts).ravel() >> (32 - LOOKUP_BITS)

        start = np.arange(0, 8 * width, 8)
        p = start.copy()
        for advance, _, _ in fast:  # unresolved candidates may run off the window
            p += np.take(advance, np.take(peeks, p, mode="clip"))
        resolved = (p - start <= span) & (p <= 8 * (len(data) - base))
        nxt = np.where(resolved, (p + 7) >> 3, -1).tolist()

        b, starts, at = 0, [], []
        while b < width and r < rows:
            end = nxt[b]
            if end < 0:  # a long or invalid codeword, or past the data
                end = _decode_rows(data, steps, reach, base + b, r, r + 1, out,
                                   row_bits) - base
            else:
                starts.append(b)
                at.append(r)
            b, r = end, r + 1
        p = 8 * np.array(starts, dtype=np.int64)
        first_bit = p.copy()
        block = np.empty((n_fields, p.size), dtype=np.uint32)
        for f, (_, length, symbol) in enumerate(fast):
            peek = np.take(peeks, p)
            np.take(symbol, peek, out=block[f])
            p += np.take(length, peek)
        symbols[at] = block.T
        bits[at] = p - first_bit
        base += b
    return base
