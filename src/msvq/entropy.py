"""Codeword PMFs, canonical Huffman codes, and the index packing kernels.

Codes are canonical: transmitter and receiver rebuild identical codebooks from
the length arrays alone, which is what the model file stores. All bit packing
is MSB-first, and each vector's fields are zero-padded to a byte boundary.

The kernels pack and unpack the codec's field matrix: (rows, F) symbols, one
row per vector and one column per transmitted (sub-vector, stage) field, in
the order quantizer.field_order gives; every row becomes its own byte-aligned
block. They are the only packing code: MSVP payloads go through them a row
chunk at a time. What they derive from the fields alone is built once, as a
FixedPlan (fixed_plan), a PrefixEncoder (prefix_encoder) or a PrefixDecoder
(prefix_decoder), and a plan's serving layout (quantizer.plan_layout) keeps
it, so a call only moves bits.

* Fixed-length fields (pack_fixed/unpack_fixed) sit at the same bits of every
  row, so both work a field, not a bit, at a time (Lemire & Boytsov 2015,
  "Decoding billions of integers per second through vectorization"). A field
  lies in the big-endian window of ceil((7 + max width) / 8) bytes from its
  first byte: unpack gathers that window and shifts and masks the field out,
  and pack ORs each byte of the block from the window bytes of the at most 8
  fields that hold its bits.
* Prefix-coded fields (pack_prefix) are packed a 32-bit word at a time, in
  row blocks whose scratch is bounded in bytes. A PrefixEncoder stacks every
  field's codewords and lengths in one table, so a block's codewords and
  their lengths are one gather each; the lengths' running sum places every
  codeword. A codeword (at most 32 bits) lies in the 64-bit big-endian window
  of the two 32-bit words that end with the word holding its last bit, and
  the codewords that end in one word, which touch disjoint bits, are OR-ed
  into one window by np.bitwise_or.reduceat over the block. Each window's
  low word is its own word, and its high word is OR-ed into the word before.
* unpack_prefix is table-driven (Moffat & Turpin 1997, "On the
  implementation of minimum redundancy prefix codes"): the next LOOKUP_BITS
  bits index a table giving the symbol and its length, and a canonical
  per-length search handles longer codewords. Every table has the same
  width, so one peek at a bit position serves every field. Because every row
  is a byte-aligned block, each byte offset of a bounded window of the data is
  a candidate row start, and all of them are decoded at once, one vectorized
  step per field (speculative decoding, Klein & Wiseman 2003, "Parallel
  Huffman decoding with applications to JPEG files"). Each candidate's lookup
  of each field is kept, so that pass is the decode: the true row starts are
  chained from the window's first byte, and their symbols are one gather from
  the kept lookups. A row the lookup cannot settle (a codeword longer than
  the table, an invalid code, or an end past the data) goes through the
  scalar loop, one symbol per step, which also decodes small inputs and
  raises every CorruptionError. Speculation costs O(F x body bytes) and the
  scalar loop O(F x rows) steps, so rows of more than
  _SPECULATIVE_MAX_ROW_BYTES body bytes on average go to the scalar loop
  too. The scalar loop reads the words its rows can touch once, before its
  first row, a bounded batch of rows at a time.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import CorruptionError, DataError
from .layout import freeze

PRIOR_FLOOR = 2.0 ** -32  # keeps -log2(p) finite for every codeword
MAX_CODE_LENGTH = 32  # Huffman code length cap
LOOKUP_BITS = 12  # width of every decode table; longer codewords take the per-length search
_SPECULATIVE_WINDOW = 16384  # candidate row starts decoded at once
_SPECULATIVE_MIN_ROWS = 64  # fewer rows are cheaper one symbol per step
_SPECULATIVE_MAX_ROW_BYTES = 96  # so are rows of more body bytes on average
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


@dataclass(frozen=True, eq=False)
class DecodeTable:
    """Lookup decoder for a canonical code; equal only to itself, as it
    belongs to the one code it was built for.

    symbol[w] and length[w] give the codeword that starts the LOOKUP_BITS-bit
    window w, whatever the code's longest codeword; length is 0 when that
    codeword is longer than the window or the window starts no codeword. Then
    decode_long runs the canonical per-length search: the codewords of length
    L are consecutive integers from first[L], and belong to symbols
    ordered[start[L]:start[L] + count[L]].
    """

    symbol: memoryview
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
        return cls(symbol=memoryview(array("I", symbol.tobytes())).toreadonly(),
                   length=length.tobytes(),
                   max_length=code.max_length, first=tuple(first.tolist()),
                   count=tuple(count.tolist()), start=tuple(start.tolist()),
                   ordered=tuple(ordered.tolist()))

    @cached_property
    def advance(self) -> np.ndarray:
        """length as int64, with _UNRESOLVED where it is 0: what speculative
        decoding adds to a candidate's bit position."""
        length = np.frombuffer(self.length, dtype=np.uint8)
        return freeze(np.where(length == 0, _UNRESOLVED, length.astype(np.int64)))

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

@dataclass(frozen=True)
class FixedPlan:
    """How the fields of a fixed-length block sit in it; built by fixed_plan.

    A field starting at bit s of its row lies in the nb-byte big-endian window
    from its first byte s >> 3, nb = ceil((7 + max width) / 8), at phase s & 7:
    it is the window shifted right by 8 * nb - phase - width, then masked
    (shift and mask are in the window's unsigned type). A block is size bytes;
    source[k, j] is the byte of pack_fixed's little-endian lanes that gives
    byte j of the block its k-th field (the zero lane past the last field
    where byte j has fewer), and dtype is the narrowest unsigned type that
    holds every field. Every array is read-only.
    """

    first: np.ndarray
    shift: np.ndarray
    mask: np.ndarray
    nb: int
    size: int
    source: np.ndarray
    dtype: np.dtype


def fixed_plan(widths) -> FixedPlan:
    """The FixedPlan of fields of the given bit widths (each 1 to 57)."""
    widths = np.asarray(widths, dtype=np.int64)
    starts = np.cumsum(widths) - widths
    first, phase = starts >> 3, starts & 7
    nb = (14 + int(widths.max(initial=1))) // 8
    window = np.min_scalar_type((1 << (8 * nb)) - 1)
    n_fields, size = widths.size, (int(widths.sum()) + 7) // 8

    # the window bytes that hold a field's bits, field by field, fall on
    # non-decreasing bytes of the block
    held = (phase + widths + 7) >> 3
    field = np.repeat(np.arange(n_fields), held)
    j = np.arange(field.size) - np.repeat(np.cumsum(held) - held, held)
    column = first[field] + j
    rank = np.arange(column.size) - np.searchsorted(column, column)
    stride = window.itemsize
    source = np.full((int(rank.max(initial=0)) + 1, size), n_fields * stride)
    source[rank, column] = field * stride + nb - 1 - j
    return FixedPlan(first=freeze(first), shift=freeze((8 * nb - phase - widths).astype(window)),
                     mask=freeze(((1 << widths) - 1).astype(window)), nb=nb, size=size,
                     source=freeze(source),
                     dtype=np.min_scalar_type((1 << int(widths.max(initial=1))) - 1))


def pack_fixed(symbols: np.ndarray, plan: FixedPlan) -> np.ndarray:
    """Pack (rows, F) symbols into the fixed-length blocks of a FixedPlan, MSB-first.

    Returns (rows, plan.size) bytes; padding bits are zero. Bits of a symbol
    above its field width are dropped.

    Each field's masked, shifted window is stored little-endian, so byte j of
    it is the field's lane nb - 1 - j. A byte of the block holds bits of at
    most 8 fields; ranked by start, the k-th of them for every byte is one
    column gather from the lanes, and the block is the OR of those gathers.
    """
    symbols = np.asarray(symbols)
    n_fields = plan.first.size
    # one all-zero field after the last: the lane of "no field"
    window = np.zeros((symbols.shape[0], n_fields + 1),
                      dtype=plan.shift.dtype.newbyteorder("<"))
    body = window[:, :n_fields]
    body[...] = symbols
    body &= plan.mask
    body <<= plan.shift
    lanes = window.view(np.uint8)
    out = np.take(lanes, plan.source[0], axis=1)
    for lane in plan.source[1:]:
        out |= np.take(lanes, lane, axis=1)
    return out


def unpack_fixed(blocks: np.ndarray, plan: FixedPlan) -> np.ndarray:
    """Inverse of pack_fixed: (rows, plan.size) bytes -> (rows, F) fields of plan.dtype.

    Padding bits are ignored.
    """
    first, nb = plan.first, plan.nb
    rows, size = blocks.shape
    padded = np.zeros((rows, size + nb - 1), dtype=np.uint8)
    padded[:, :size] = blocks
    window = padded[:, first].astype(plan.shift.dtype)
    for j in range(1, nb):
        window <<= 8
        window |= padded[:, first + j]
    window >>= plan.shift
    window &= plan.mask
    return window.astype(plan.dtype, copy=False)


@dataclass(frozen=True)
class PrefixEncoder:
    """What pack_prefix needs of a block's fields; built by prefix_encoder.

    codes and lengths hold every field's codewords and their lengths end to
    end, field f's from offset[f], so symbol s of field f is entry
    offset[f] + s of both. step is the rows a block packs. Every array is
    read-only.
    """

    codes: np.ndarray
    lengths: np.ndarray
    offset: np.ndarray
    step: int


def prefix_encoder(codes: Sequence[HuffmanCode], scratch: int) -> PrefixEncoder:
    """The PrefixEncoder of blocks whose field f is coded by codes[f].

    A block is max(1, scratch // (16 F)) rows, so each of pack_prefix's int64
    (rows, F) temporaries takes at most half of `scratch` bytes.
    """
    sizes = [code.size for code in codes]
    empty = [np.zeros(0, dtype=np.int64)]
    return PrefixEncoder(
        codes=freeze(np.concatenate(empty + [code.codes for code in codes])),
        lengths=freeze(np.concatenate(empty + [code.lengths for code in codes])),
        offset=freeze(np.cumsum([0] + sizes[:-1], dtype=np.int64)),
        step=max(1, scratch // (16 * max(1, len(sizes)))))


def pack_prefix(symbols: np.ndarray, encoder: PrefixEncoder) -> tuple[np.ndarray, np.ndarray]:
    """Prefix-code (rows, F) symbols with a PrefixEncoder, MSB-first.

    Each row is zero-padded to a byte boundary. Returns (the packed bytes,
    each row's bits before padding), like unpack_prefix's symbols and bits.
    Rows are packed encoder.step at a time (_pack_block), so the scratch
    beyond the output does not grow with the rows.
    """
    symbols = np.asarray(symbols)
    rows, n_fields = symbols.shape
    row_bits = np.zeros(rows, dtype=np.int64)
    step = encoder.step
    blocks = [_pack_block(symbols[a:a + step], encoder, row_bits[a:a + step])
              for a in range(0, rows if n_fields else 0, step)]
    return np.concatenate([np.zeros(0, dtype=np.uint8)] + blocks), row_bits


def _pack_block(symbols: np.ndarray, encoder: PrefixEncoder, bits: np.ndarray) -> np.ndarray:
    """The packed bytes of a block of at least one row and one field; writes
    each row's bits to `bits`. Its scratch is three int64 arrays the block's
    shape and arrays the size of its words."""
    index = symbols + encoder.offset
    ends = np.take(encoder.lengths, index)
    window = np.take(encoder.codes, index)
    flat = ends.reshape(-1)
    np.cumsum(flat, out=flat)  # the bits up to each codeword's end, rows unpadded
    before = ends[:, -1]
    bits[:] = before
    bits[1:] -= before[:-1]
    row_bytes = (bits + 7) >> 3
    start = np.cumsum(row_bytes)
    size = int(start[-1])
    start -= row_bytes
    ends += ((start << 3) - (before - bits))[:, None]  # each codeword's end bit
    # each codeword at the end of the 64-bit window of the 32-bit word holding
    # its last bit and the word before; below 2^63, as the shift is below 32
    shift = np.negative(ends, out=index)  # the indices are spent
    shift &= 31
    window <<= shift
    flat -= 1
    flat >>= 5  # the word holding each codeword's last bit, non-decreasing
    new = np.empty(flat.size, dtype=bool)  # the first codeword to end in its word
    new[0] = True
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    seg = np.flatnonzero(new)
    merged = np.bitwise_or.reduceat(window.reshape(-1), seg)  # one window a word
    word = flat[seg]
    # words[w + 1] is word w; a window's high word holds bits only when one of
    # its codewords started in the word before, so words[0] stays zero
    words = np.zeros(((size + 3) >> 2) + 1, dtype=np.int64)
    words[word + 1] = merged & 0xFFFFFFFF
    words[word] |= merged >> 32
    return words[1:].astype(">u4").view(np.uint8)[:size]


def _be_words(data: bytes, start: int, n: int) -> list[int]:
    """Big-endian 64-bit words of data[start + j: start + j + 8], j < n,
    reading zeros past the end of data."""
    raw = data[start:start + n + 7].ljust(n + 7, b"\0")
    windows = np.ndarray((n, 8), dtype=np.uint8, buffer=raw, strides=(1, 1))
    return windows.copy().view(">u8").ravel().tolist()


@dataclass(frozen=True)
class PrefixDecoder:
    """What unpack_prefix needs of a block's fields; built by prefix_decoder.

    steps holds each field's (length, symbol, table) lookup, reach the most
    bytes a block can touch, dtype the narrowest unsigned type that holds
    every code's symbols, and span the most bits a block the lookups resolve
    takes. For the speculative pass, advances holds each field's advance and
    stacked the fields' distinct symbol tables end to end, field f's from
    column[f]. Every array is read-only.
    """

    steps: tuple
    reach: int
    dtype: np.dtype
    span: int
    advances: tuple
    stacked: np.ndarray
    column: np.ndarray


def prefix_decoder(tables: Sequence[DecodeTable]) -> PrefixDecoder:
    """The PrefixDecoder of blocks whose field f is coded by tables[f]."""
    dtype = np.min_scalar_type(max((len(t.ordered) for t in tables), default=1) - 1)
    # fields that share a code share its table, stacked once
    rank = {t: j for j, t in enumerate(dict.fromkeys(tables))}
    stacked = np.concatenate([np.zeros(0, dtype=np.uint32)]
                             + [np.frombuffer(t.symbol, dtype=np.uint32) for t in rank])
    column = np.array([rank[t] << LOOKUP_BITS for t in tables], dtype=np.uint32)
    return PrefixDecoder(
        steps=tuple((t.length, t.symbol, t) for t in tables),
        reach=(sum(t.max_length for t in tables) + 7) // 8 + 1, dtype=dtype,
        span=sum(min(LOOKUP_BITS, t.max_length) for t in tables),
        advances=tuple(t.advance for t in tables), stacked=freeze(stacked.astype(dtype)),
        column=freeze(column[:, None]))


def unpack_prefix(
    data: bytes,
    rows: int,
    decoder: PrefixDecoder,
    offset: int = 0,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Decode `rows` byte-aligned blocks from data[offset:] with a PrefixDecoder.

    Returns (symbols (rows, F), realized bits per row, byte offset after the
    last block); the symbols take decoder.dtype, the narrowest unsigned type
    that holds every code's symbols, as unpack_fixed's fields do. Raises
    CorruptionError on an invalid codeword or a block that runs past the end
    of data.

    Speculation costs O(F x body bytes), the scalar loop O(F x rows) steps, so
    fewer than _SPECULATIVE_MIN_ROWS rows, or rows of more than
    _SPECULATIVE_MAX_ROW_BYTES body bytes on average (both known before
    decoding), are decoded by the scalar loop, a bounded batch of rows at a
    time. Otherwise _SPECULATIVE_WINDOW bytes at a time are decoded
    speculatively (see _speculate); rows the fast pass cannot settle still go
    through the scalar loop, so symbols, row bits, end offset and errors are
    the same either way. Working memory beyond the output is O(F x window),
    whatever `rows`.
    """
    n_fields = len(decoder.steps)
    out = array(decoder.dtype.char, [0]) * (rows * n_fields)
    row_bits = array("q", [0]) * rows
    if (rows < _SPECULATIVE_MIN_ROWS or not n_fields
            or len(data) - offset > rows * _SPECULATIVE_MAX_ROW_BYTES):
        batch = max(1, _SPECULATIVE_WINDOW // decoder.reach)
        end = offset
        for first in range(0, rows, batch):
            end = _decode_rows(data, decoder, out, end, first, min(first + batch, rows),
                               row_bits)
    else:
        end = _speculate(data, decoder, out, offset, rows, row_bits)
    symbols = np.frombuffer(out, dtype=decoder.dtype).reshape(rows, n_fields)
    return symbols, np.frombuffer(row_bits, dtype=np.int64), end


def _decode_rows(data, decoder, out, offset, first, stop, row_bits) -> int:
    """Scalar loop: decode blocks first..stop-1 from data[offset:], one symbol
    per step, into out (row-major symbols) and row_bits.

    The 64-bit words of every byte the blocks can touch are read once, up
    front: a block starts inside the data or the loop has already raised, and
    the blocks before it take at most decoder.reach bytes each. Callers keep
    that bounded: a batch of at most _SPECULATIVE_WINDOW bytes' reach, one
    fallback row, or zero-field rows, whose reach is 1.

    Returns the byte offset after block stop-1; raises CorruptionError at the
    first invalid codeword or block end past the data.
    """
    steps, reach = decoder.steps, decoder.reach
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


def _speculate(data, decoder, out, offset, rows, row_bits) -> int:
    """Decode all rows a window at a time; returns the byte offset after the last.

    Each window's byte offsets are all decoded as row starts, one vectorized
    lookup per field, and every candidate's lookup index of every field is
    kept. A lookup that resolves no codeword adds _UNRESOLVED bits, so a
    candidate's span tells whether every field resolved. The true starts are
    then chained from the window's first byte; their symbols are one gather
    from the kept lookups through the decoder's stacked symbol tables, and
    their bits the candidates' spans. A true start whose candidate did not
    resolve, or ends past the data, is decoded by the scalar loop inside the
    chain, which continues from its end, in the same window. Working memory
    is O(F x window), whatever `rows`.
    """
    n_fields, reach, span = len(decoder.steps), decoder.reach, decoder.span
    pad = (span + 7) // 8 + 1  # bytes a resolved row reaches past its start
    shifts = np.arange(8, dtype=np.uint32)
    symbols = np.frombuffer(out, dtype=out.typecode).reshape(rows, n_fields)
    bits = np.frombuffer(row_bits, dtype=np.int64)
    lookups = np.empty(n_fields * _SPECULATIVE_WINDOW, dtype=np.uint16)
    added = np.empty(_SPECULATIVE_WINDOW, dtype=np.int64)
    base, r = offset, 0
    while r < rows:
        width = max(1, min(_SPECULATIVE_WINDOW, len(data) - base, (rows - r) * reach))
        size = width + pad + 3
        raw = np.frombuffer(data[base:base + size].ljust(size, b"\0"), dtype=np.uint8)
        raw = raw.astype(np.uint32)
        word = raw[:-3] << 24 | raw[1:-2] << 16 | raw[2:-1] << 8 | raw[3:]
        # bit position -> the LOOKUP_BITS-bit lookup index that starts there
        peeks = word[:, None] << shifts
        peeks >>= 32 - LOOKUP_BITS
        peeks = peeks.astype(np.uint16).ravel()

        start = np.arange(0, 8 * width, 8)
        p = start.copy()
        # C-contiguous (F, width), so the take of the true rows copies nothing else
        kept, adds = lookups[:n_fields * width].reshape(n_fields, width), added[:width]
        for advance, lookup in zip(decoder.advances, kept):
            # unresolved candidates may run off the window
            np.take(peeks, p, mode="clip", out=lookup)
            np.take(advance, lookup, mode="clip", out=adds)
            p += adds
        resolved = (p - start <= span) & (p <= 8 * (len(data) - base))
        nxt = memoryview(np.where(resolved, (p + 7) >> 3, -1))

        b, starts, at = 0, [], []
        while b < width and r < rows:
            end = nxt[b]
            if end < 0:  # a long or invalid codeword, or past the data
                end = _decode_rows(data, decoder, out, base + b, r, r + 1, row_bits) - base
            else:
                starts.append(b)
                at.append(r)
            b, r = end, r + 1
        starts, at = np.array(starts, dtype=np.intp), np.array(at, dtype=np.intp)
        symbols[at] = np.take(decoder.stacked, np.take(kept, starts, axis=1) + decoder.column).T
        bits[at] = p[starts] - 8 * starts
        base += b
    return base
