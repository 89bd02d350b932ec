import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import encoded_usage, make_layout
from msvq import entropy
from msvq.codebook import ROW_CHUNK, SCORE_BYTES, Codebook, MsvqModel
from msvq.errors import CorruptionError, DataError


class TestSmoothedPmf:
    def test_count_arithmetic(self):
        pmf = entropy.smoothed_pmf(np.array([3, 1]))
        np.testing.assert_allclose(pmf, [4.0 / 6.0, 2.0 / 6.0], rtol=1e-15)

    def test_unused_codeword_stays_positive(self):
        pmf = entropy.smoothed_pmf(np.array([100, 0, 0, 0]))
        assert np.all(pmf > 0)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


class TestEstimatePmf:
    def _line_model(self):
        lay = make_layout(1, 1, [1], groups=1)
        cb = Codebook(vectors=np.array([[0.0], [1.0]], dtype=np.float32))
        return MsvqModel(layout=lay, codebooks=((cb,),),
                         fallback_means=np.zeros((1, 1), dtype=np.float32))

    def test_counts_from_encoding_pass(self):
        model = self._line_model()
        data = np.array([[0.1], [0.1], [-0.2], [0.9]])
        pmf = entropy.measure_group_pmfs(encoded_usage(model, data))[0, 0]
        np.testing.assert_allclose(pmf, [4.0 / 6.0, 2.0 / 6.0], rtol=1e-12)

    def test_pools_across_group(self):
        lay = make_layout(2, 1, [1], groups=1)
        cb = Codebook(vectors=np.array([[0.0], [1.0]], dtype=np.float32))
        model = MsvqModel(layout=lay, codebooks=((cb,),),
                          fallback_means=np.zeros((2, 1), dtype=np.float32))
        data = np.array([[0.1, 0.9], [0.1, 0.9]])
        pmf = entropy.measure_group_pmfs(encoded_usage(model, data))[0, 0]
        np.testing.assert_allclose(pmf, [0.5, 0.5], rtol=1e-12)

    def test_uniform_assignment_within_multinomial_bounds(self):
        rng = np.random.default_rng(8)
        lay = make_layout(1, 1, [3], groups=1)
        centers = np.linspace(-3.5, 3.5, 8)
        cb = Codebook(vectors=centers[:, None].astype(np.float32))
        model = MsvqModel(layout=lay, codebooks=((cb,),),
                          fallback_means=np.zeros((1, 1), dtype=np.float32))
        n = 8000
        data = (centers[rng.integers(8, size=n)] + rng.uniform(-0.05, 0.05, n))[:, None]
        pmf = entropy.measure_group_pmfs(encoded_usage(model, data))[0, 0]
        p = 1.0 / 8.0
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(pmf - p) <= 3 * sigma + 2.0 / n)


class TestBuildCode:
    def test_dyadic_pmf(self):
        code = entropy.build_code(np.array([0.5, 0.25, 0.125, 0.125]))
        assert code.lengths.tolist() == [1, 2, 3, 3]
        avg, ent = entropy.avg_bits(np.array([0.5, 0.25, 0.125, 0.125]), code)
        assert avg == pytest.approx(1.75)
        assert ent == pytest.approx(1.75)

    @pytest.mark.parametrize("b", [1, 2, 4, 6])
    def test_uniform_pmf_costs_fixed_length(self, b):
        k = 1 << b
        pmf = np.full(k, 1.0 / k)
        code = entropy.build_code(pmf)
        assert np.all(code.lengths == b)
        avg, ent = entropy.avg_bits(pmf, code)
        assert avg == pytest.approx(b)
        assert ent == pytest.approx(b)

    def test_two_symbols_cost_one_bit(self):
        code = entropy.build_code(np.array([0.99, 0.01]))
        assert code.lengths.tolist() == [1, 1]
        avg, _ = entropy.avg_bits(np.array([0.99, 0.01]), code)
        assert avg == pytest.approx(1.0)

    def test_single_symbol_emits_one_bit(self):
        code = entropy.build_code(np.array([1.0]))
        assert code.lengths.tolist() == [1]

    @pytest.mark.parametrize("seed", range(20))
    def test_huffman_bounds_and_kraft_equality(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 65))
        pmf = rng.dirichlet(np.full(k, 0.5)) + 1e-9
        pmf /= pmf.sum()
        code = entropy.build_code(pmf)
        assert entropy.kraft_sum(code.lengths) == 1.0
        avg, ent = entropy.avg_bits(pmf, code)
        assert ent <= avg + 1e-12
        assert avg < ent + 1.0
        assert avg <= np.ceil(np.log2(k)) + 1e-12  # never beaten by fixed length

    def test_long_tail_respects_length_cap(self):
        # geometric tail would exceed the cap without rebalancing
        k = 64
        pmf = 0.5 ** np.arange(1, k + 1)
        pmf[-1] *= 2  # make it sum to 1 exactly
        code = entropy.build_code(pmf)
        assert code.max_length <= entropy.MAX_CODE_LENGTH
        assert entropy.kraft_sum(code.lengths) == 1.0

    def test_prefix_free(self):
        rng = np.random.default_rng(5)
        pmf = rng.dirichlet(np.ones(12))
        code = entropy.build_code(pmf)
        words = [(int(code.codes[s]), int(code.lengths[s])) for s in range(12)]
        for a, (ca, la) in enumerate(words):
            for b, (cb, lb) in enumerate(words):
                if a != b and la <= lb:
                    assert (cb >> (lb - la)) != ca

    def test_rejects_bad_pmf(self):
        with pytest.raises(DataError):
            entropy.build_code(np.array([0.5, 0.0, 0.5]))
        with pytest.raises(DataError):
            entropy.build_code(np.array([0.9, 0.3]))


def _reference_pack(rows):
    """Scalar MSB-first packer: rows of (value, nbits) fields, each row byte-padded."""
    out = bytearray()
    for fields in rows:
        bits = "".join(format(value, f"0{nbits}b")[-nbits:] for value, nbits in fields)
        bits += "0" * (-len(bits) % 8)
        out += bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))
    return bytes(out)


def _packed(symbols, codes) -> bytes:
    """pack_prefix's bytes of a field matrix whose field f is coded by codes[f]."""
    return entropy.pack_prefix(symbols, entropy.prefix_encoder(codes, SCORE_BYTES))[0].tobytes()


def _check_prefix(symbols, codes, block):
    """Pack symbols in blocks of `block` rows; assert the bytes equal the
    scalar packer's and every SCORE_BYTES block's, the row bits the codeword
    lengths' sums, and that both unpack paths give the symbols back."""
    encoder = entropy.prefix_encoder(codes, 16 * max(1, len(codes)) * block)
    assert encoder.step == block
    packed, bits = entropy.pack_prefix(symbols, encoder)
    fields = [[(int(c.codes[s]), int(c.lengths[s])) for c, s in zip(codes, row)]
              for row in symbols]
    assert packed.dtype == np.uint8
    assert packed.tobytes() == _reference_pack(fields) == _packed(symbols, codes)
    assert bits.dtype == np.int64
    assert bits.tolist() == [sum(n for _, n in row) for row in fields]
    tables = [entropy.decode_table(c) for c in codes]
    for speculative in (True, False):
        got, got_bits, end = _decode(packed.tobytes(), len(symbols), tables,
                                     speculative=speculative)
        assert np.array_equal(got, symbols) and got.shape == symbols.shape
        assert np.array_equal(got_bits, bits)
        assert end == packed.size


class TestPackingKernels:
    def test_fixed_fields_round_trip(self):
        rng = np.random.default_rng(2)
        widths = rng.integers(1, 17, 50)
        symbols = rng.integers(0, 1 << widths, size=(7, 50))
        blocks = entropy.pack_fixed(symbols, entropy.fixed_plan(widths))
        assert blocks.shape == (7, (int(widths.sum()) + 7) // 8)
        rows = [list(zip(row.tolist(), widths.tolist())) for row in symbols]
        assert blocks.tobytes() == _reference_pack(rows)
        assert np.array_equal(entropy.unpack_fixed(blocks, entropy.fixed_plan(widths)), symbols)

    def test_fixed_unpack_ignores_padding(self):
        widths = [3, 2]
        blocks = np.array([[0b10101111]], dtype=np.uint8)
        assert entropy.unpack_fixed(blocks, entropy.fixed_plan(widths)).tolist() == [[5, 1]]

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(0, 9),
           widths=st.lists(st.integers(1, 33), max_size=40))
    def test_fixed_fields_match_the_scalar_packer(self, seed, rows, widths):
        rng = np.random.default_rng(seed)
        widths = np.array(widths, dtype=np.int64)
        # up to 8 bits above each field's width, which pack must drop
        symbols = rng.integers(0, 1 << (widths + 8), size=(rows, widths.size))
        blocks = entropy.pack_fixed(symbols, entropy.fixed_plan(widths))
        assert blocks.dtype == np.uint8
        assert blocks.shape == (rows, (int(widths.sum()) + 7) // 8)
        fields = [list(zip(row.tolist(), widths.tolist())) for row in symbols]
        assert blocks.tobytes() == _reference_pack(fields)

        padding = -int(widths.sum()) % 8  # random padding bits, which unpack must ignore
        noisy = blocks.copy()
        if padding:
            noisy[:, -1] |= rng.integers(0, 1 << padding, size=rows).astype(np.uint8)
        got = entropy.unpack_fixed(noisy, entropy.fixed_plan(widths))
        width = int(widths.max(initial=1))
        assert got.dtype == next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                                 if np.iinfo(t).bits >= width)
        assert np.array_equal(got, symbols & ((1 << widths) - 1))

    @pytest.mark.parametrize("n_fields", [16, 256])
    def test_fixed_kernels_hold_no_matrix_of_bits(self, n_fields):
        """Packing and unpacking a row chunk of 8-bit fields holds a few arrays
        the size of the field matrix, not one byte per payload bit."""
        widths = np.full(n_fields, 8)
        symbols = np.random.default_rng(3).integers(0, 256, size=(ROW_CHUNK, n_fields),
                                                    dtype=np.uint8)
        plan = entropy.fixed_plan(widths)
        blocks = entropy.pack_fixed(symbols, plan)
        for kernel, arg in ((entropy.pack_fixed, symbols), (entropy.unpack_fixed, blocks)):
            tracemalloc.start()
            try:
                kernel(arg, plan)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # about 3 (pack) and 4 (unpack) field matrices; a matrix of bits
            # is 8 and its shifted copy 8 more
            assert peak < 6 * symbols.size, kernel.__name__

    def test_prefix_rows_match_reference(self):
        rng = np.random.default_rng(4)
        codes = [entropy.build_code(rng.dirichlet(np.full(k, 0.3))) for k in (2, 9, 40)]
        symbols = np.stack([rng.integers(c.size, size=30) for c in codes], axis=1)
        rows = [[(int(c.codes[s]), int(c.lengths[s])) for c, s in zip(codes, row)]
                for row in symbols]
        packed = _packed(symbols, codes)
        assert packed == _reference_pack(rows)
        tables = [entropy.decode_table(c) for c in codes]
        got, bits, end = entropy.unpack_prefix(b"\x00" + packed, 30,
                                               entropy.prefix_decoder(tables), offset=1)
        assert np.array_equal(got, symbols)
        assert bits.tolist() == [sum(n for _, n in row) for row in rows]
        assert end == 1 + len(packed)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(0, 70),
           n_fields=st.integers(0, 12), shortest=st.integers(1, entropy.MAX_CODE_LENGTH),
           block=st.integers(1, 80))
    @example(seed=1, rows=0, n_fields=4, shortest=1, block=1)
    @example(seed=2, rows=5, n_fields=0, shortest=1, block=1)
    @example(seed=2, rows=0, n_fields=0, shortest=1, block=1)
    @example(seed=3, rows=3, n_fields=3, shortest=24, block=80)  # rows of 72 bits and more
    @example(seed=4, rows=66, n_fields=5, shortest=27, block=80)  # rows of 135 bits and more
    @example(seed=5, rows=70, n_fields=12, shortest=1, block=3)  # 24 blocks, the last short
    @example(seed=6, rows=9, n_fields=1, shortest=32, block=4)  # one 32-bit codeword a row
    @example(seed=7, rows=40, n_fields=7, shortest=20, block=1)  # one row a block
    def test_prefix_rows_match_the_scalar_packer(self, seed, rows, n_fields, shortest, block):
        """Random canonical codes, codewords up to MAX_CODE_LENGTH bits, packed
        in blocks of `block` rows: pack_prefix equals the scalar packer, and
        both unpack paths give the symbols back."""
        rng = np.random.default_rng(seed)
        codes = [_random_code(rng, shortest) for _ in range(n_fields)]
        symbols = np.zeros((rows, n_fields), dtype=np.int64)
        for f, code in enumerate(codes):
            symbols[:, f] = rng.integers(code.size, size=rows)
        _check_prefix(symbols, codes, block)

    def test_codewords_at_every_phase_of_a_word(self):
        """Every codeword length from 1 to 32 bits at every phase of a 32-bit
        word: codewords that end on a word boundary and that straddle one."""
        # symbol i has i + 1 bits, and symbol 32 is 32 ones
        code = entropy.canonical_code(np.r_[np.arange(1, 33), 32])
        rows = []
        for phase in range(32):
            lead = phase or 32  # a row starts on a word boundary
            for last in range(33):
                bits = lead + int(code.lengths[last])
                # a third codeword pads the row to whole words
                rows.append([lead - 1, last, ((-bits) % 32 or 32) - 1])
        symbols = np.array(rows)
        assert (np.take(code.lengths, symbols).sum(axis=1) % 32 == 0).all()
        for block in (1, 7, len(rows)):
            _check_prefix(symbols, [code] * 3, block)

    def test_block_scratch_is_bounded_whatever_the_rows(self):
        """A 4096-row, 31-field chunk's scratch beyond its output is a few
        SCORE_BYTES: the int64 temporaries are a block's, not the chunk's."""
        rng = np.random.default_rng(10)
        codes = [entropy.build_code(rng.dirichlet(np.full(64, 0.5))) for _ in range(31)]
        encoder = entropy.prefix_encoder(codes, SCORE_BYTES)
        assert 1 < encoder.step < ROW_CHUNK // 2
        scratch = {}
        for rows in (encoder.step, ROW_CHUNK):
            symbols = np.stack([rng.integers(64, size=rows) for _ in codes],
                               axis=1).astype(np.uint8)
            tracemalloc.start()
            try:
                packed, bits = entropy.pack_prefix(symbols, encoder)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the blocks' bytes and their concatenation, and the row bits
            scratch[rows] = peak - 2 * packed.nbytes - bits.nbytes
        # three int64 (rows, F) arrays of half SCORE_BYTES each, and smaller
        # ones; a chunk's would be 8 * 4096 * 31 bytes (almost 2 SCORE_BYTES) each
        assert scratch[ROW_CHUNK] < 2 * SCORE_BYTES
        assert scratch[ROW_CHUNK] < scratch[encoder.step] + SCORE_BYTES // 16

    def test_codes_longer_than_the_lookup(self):
        lengths = np.r_[np.arange(1, 21), 20]  # Kraft sum exactly 1
        code = entropy.canonical_code(lengths)
        assert code.max_length > entropy.LOOKUP_BITS
        table = entropy.decode_table(code)
        assert table is entropy.decode_table(code)  # built once per code
        stream = np.random.default_rng(6).integers(lengths.size, size=200)
        payload = _packed(stream[None, :], [code] * stream.size)
        decoder = entropy.prefix_decoder([table] * stream.size)
        got, _, end = entropy.unpack_prefix(payload, 1, decoder)
        assert got[0].tolist() == stream.tolist()
        assert end == len(payload)

    def test_prefix_truncation_reports_offset(self):
        table = entropy.decode_table(entropy.canonical_code(np.array([1, 2, 2])))
        with pytest.raises(CorruptionError, match="bit offset 9"):
            # 4 codewords fill the byte
            entropy.unpack_prefix(b"\xff", 1, entropy.prefix_decoder([table] * 5))


class TestIndexStreams:
    """One vector's index streams: a one-row field matrix, sub-vector-major."""

    @staticmethod
    def _round_trip(symbols, codes):
        payload = _packed(np.array([symbols], dtype=np.int64).reshape(1, -1), codes)
        decoder = entropy.prefix_decoder([entropy.decode_table(c) for c in codes])
        got, _, end = entropy.unpack_prefix(payload, 1, decoder)
        assert end == len(payload)
        return payload, got[0].tolist()

    def test_empty_plan_is_empty_payload(self):
        assert self._round_trip([], []) == (b"", [])

    def test_single_symbol_pads_to_one_byte(self):
        code = entropy.canonical_code(np.array([3, 3, 3, 3, 2, 2]))
        payload, decoded = self._round_trip([0], [code])
        assert len(payload) == 1
        assert decoded == [0]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_streams_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        codes, symbols = [], []
        for _ in range(n):
            for _ in range(int(rng.integers(0, 4))):
                k = int(rng.integers(2, 33))
                pmf = rng.dirichlet(np.ones(k))
                codes.append(entropy.build_code(pmf))
                symbols.append(int(rng.integers(k)))
        assert self._round_trip(symbols, codes)[1] == symbols

    def test_invalid_prefix_raises_with_offset(self):
        incomplete = entropy.canonical_code(np.array([2, 2, 2]))  # Kraft sum 3/4
        with pytest.raises(CorruptionError, match="bit offset"):
            entropy.unpack_prefix(b"\xff", 1,
                                  entropy.prefix_decoder([entropy.decode_table(incomplete)]))


def _random_code(rng, shortest):
    """A canonical code of 1 to 40 codewords of shortest to MAX_CODE_LENGTH bits
    whose lengths obey Kraft's inequality."""
    lengths = rng.integers(shortest, entropy.MAX_CODE_LENGTH + 1, size=int(rng.integers(1, 41)))
    while entropy.kraft_sum(lengths) > 1.0:
        lengths[rng.choice(np.flatnonzero(lengths < entropy.MAX_CODE_LENGTH))] += 1
    return entropy.canonical_code(lengths)


LONG_CODE = np.r_[np.arange(1, 21), 20]  # Kraft sum 1; codewords up to 20 bits


def _decode(data, rows, tables, offset=0, speculative=True):
    """unpack_prefix forced onto the speculative path, or onto the scalar loop
    alone (the reference), whatever the input size and row width; errors come
    back as text."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_SPECULATIVE_MIN_ROWS", 0 if speculative else sys.maxsize)
        mp.setattr(entropy, "_SPECULATIVE_MAX_ROW_BYTES", sys.maxsize)
        try:
            return entropy.unpack_prefix(data, rows, entropy.prefix_decoder(tables), offset)
        except CorruptionError as exc:
            return str(exc)


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        symbols, bits, end = got
        assert np.array_equal(symbols, want[0]) and symbols.dtype == want[0].dtype
        assert np.array_equal(bits, want[1]) and bits.dtype == want[1].dtype
        assert end == want[2]


def _random_stream(rng, rows, long_code=True):
    """Codes for a few fields (one of them, optionally, the long code) and
    their packed rows; symbols are drawn uniformly, so long codewords abound."""
    codes = [entropy.build_code(rng.dirichlet(np.full(int(rng.integers(2, 65)), 0.4)))
             for _ in range(int(rng.integers(1, 5)))]
    if long_code:
        codes.insert(int(rng.integers(len(codes) + 1)), entropy.canonical_code(LONG_CODE))
    symbols = np.stack([rng.integers(c.size, size=rows) for c in codes], axis=1)
    return codes, symbols, _packed(symbols, codes)


class TestSpeculativeDecode:
    """The speculative decoder against the scalar loop it falls back to."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(0, 120),
           offset=st.integers(0, 5), trailing=st.integers(0, 3),
           window=st.sampled_from([1, 2, 3, 8, 29, 200, 8192, 16384]),
           long_code=st.booleans())
    def test_matches_the_scalar_loop(self, seed, rows, offset, trailing, window, long_code):
        rng = np.random.default_rng(seed)
        codes, symbols, packed = _random_stream(rng, rows, long_code)
        data = bytes(rng.integers(256, size=offset, dtype=np.uint8)) + packed + b"\x5a" * trailing
        tables = [entropy.decode_table(c) for c in codes]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropy, "_SPECULATIVE_WINDOW", window)  # rows straddle windows
            got = _decode(data, rows, tables, offset)
        want = _decode(data, rows, tables, offset, speculative=False)
        _assert_same(got, want)
        assert np.array_equal(got[0], symbols)
        assert got[2] == offset + len(packed)

    @pytest.mark.parametrize("offset", [0, 3])
    def test_fallback_rows_inside_a_window(self, monkeypatch, offset):
        """Rows whose long codeword the lookup cannot settle, several per
        window: two back to back and one on the window's last byte, so it ends
        past the window. Each is decoded once by the scalar loop, and the
        speculative lookups of the rows around it still serve."""
        window = 16
        monkeypatch.setattr(entropy, "_SPECULATIVE_WINDOW", window)
        codes = [entropy.canonical_code(np.array([1, 1])), entropy.canonical_code(LONG_CODE)]
        # a short row is 2 bits (one byte), a long row 21 bits (three bytes)
        fields, long_at, pos, base = [], [], offset, offset
        while len(fields) < 300:
            long_row = pos - base in (2, 5, window - 1)
            fields.append((len(fields) % 2, 19 if long_row else 0))
            if long_row:
                long_at.append(pos)
            pos += 3 if long_row else 1
            if pos - base >= window:
                base = pos
        symbols = np.array(fields)
        data = b"\xa5" * offset + _packed(symbols, codes)
        tables = [entropy.decode_table(c) for c in codes]
        fallbacks = []
        scalar = entropy._decode_rows
        monkeypatch.setattr(entropy, "_decode_rows",
                            lambda *args: fallbacks.append(args[3]) or scalar(*args))
        got = _decode(data, len(symbols), tables, offset)
        assert fallbacks == long_at
        _assert_same(got, _decode(data, len(symbols), tables, offset, speculative=False))
        assert np.array_equal(got[0], symbols) and got[2] == len(data)

    def test_fallback_rows_do_not_end_their_window(self, monkeypatch):
        """On a stream where most rows fall back to the scalar loop, the
        speculative pass still reads each window of the body once."""
        window = 64
        monkeypatch.setattr(entropy, "_SPECULATIVE_WINDOW", window)
        rng = np.random.default_rng(8)
        code = entropy.canonical_code(LONG_CODE)
        symbols = np.where(rng.random((2000, 1)) < 0.8, rng.integers(12, 21, size=(2000, 1)),
                           rng.integers(0, 12, size=(2000, 1)))
        assert np.mean(code.lengths[symbols] > entropy.LOOKUP_BITS) > 0.7
        windows = []

        class Spy(bytes):  # records the reads _speculate makes of the data
            def __getitem__(self, key):
                if sys._getframe(1).f_code is entropy._speculate.__code__:
                    windows.append(key)
                return super().__getitem__(key)

        data = Spy(_packed(symbols, [code]))
        got = _decode(data, len(symbols), [entropy.decode_table(code)])
        assert np.array_equal(got[0], symbols) and got[2] == len(data)
        assert len(windows) <= len(data) // window + 1

    def test_scratch_is_bounded_by_the_window_and_the_fields(self):
        """The kept lookups are F x window uint16s and the stacked symbol
        tables F x 2^LOOKUP_BITS bytes; the rest, under 128 bytes per window
        byte, is its 8 bit-position peeks and the candidates' int64 vectors.
        None of it grows with the rows."""
        window = entropy._SPECULATIVE_WINDOW
        rng = np.random.default_rng(9)
        codes = [entropy.build_code(rng.dirichlet(np.full(16, 2.0))) for _ in range(31)]
        assert max(c.max_length for c in codes) <= entropy.LOOKUP_BITS
        tables = [entropy.decode_table(c) for c in codes]
        for table in tables:
            table.advance  # kept with the table once built; not scratch
        row_bytes = len(_packed(
            np.stack([rng.integers(16, size=1000) for _ in codes], axis=1), codes)) / 1000
        scratch = {}
        for windows in (4, 16):
            rows = int(windows * window / row_bytes)
            symbols = np.stack([rng.integers(16, size=rows) for _ in codes], axis=1)
            data = _packed(symbols, codes)
            tracemalloc.start()
            try:
                got, bits, _ = entropy.unpack_prefix(data, rows, entropy.prefix_decoder(tables))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(got, symbols)
            scratch[windows] = peak - got.nbytes - bits.nbytes
        assert scratch[16] <= scratch[4] + window
        stacked = len(codes) << entropy.LOOKUP_BITS
        assert scratch[16] < 2 * len(codes) * window + stacked + 128 * window

    @pytest.mark.parametrize("size, dtype", [(256, np.uint8), (257, np.uint16),
                                             (65537, np.uint32)])
    def test_symbols_take_the_narrowest_type(self, size, dtype):
        code = entropy.build_code(np.full(size, 1.0 / size))
        symbols = np.random.default_rng(size).integers(size, size=(100, 2))
        data = _packed(symbols, [code, code])
        tables = [entropy.decode_table(code)] * 2
        got = _decode(data, 100, tables)
        _assert_same(got, _decode(data, 100, tables, speculative=False))
        assert got[0].dtype == dtype and np.array_equal(got[0], symbols)

    def test_unresolved_lookups_are_caught_whatever_the_data_length(self, monkeypatch):
        # with _UNRESOLVED just above a row's largest span, the candidates it
        # marks still end inside the data; the span alone must flag them
        rng = np.random.default_rng(5)
        codes, symbols, data = _random_stream(rng, 200)
        monkeypatch.setattr(entropy, "_UNRESOLVED",
                            sum(min(c.max_length, entropy.LOOKUP_BITS) for c in codes) + 1)
        tables = [entropy.DecodeTable.build(c) for c in codes]  # fresh: advance reads it
        got = _decode(data, len(symbols), tables)
        _assert_same(got, _decode(data, len(symbols), tables, speculative=False))
        assert np.array_equal(got[0], symbols)

    def test_large_input_takes_the_fast_path(self, monkeypatch):
        rng = np.random.default_rng(11)
        codes = [entropy.build_code(rng.dirichlet(np.full(64, 2.0))) for _ in range(6)]
        assert max(c.max_length for c in codes) <= entropy.LOOKUP_BITS
        symbols = np.stack([rng.integers(64, size=3000) for _ in codes], axis=1)
        data = _packed(symbols, codes)
        tables = [entropy.decode_table(c) for c in codes]
        scalar_calls = []
        scalar = entropy._decode_rows
        monkeypatch.setattr(entropy, "_decode_rows",
                            lambda *args: scalar_calls.append(args) or scalar(*args))
        got, _, end = entropy.unpack_prefix(data, len(symbols), entropy.prefix_decoder(tables))
        assert np.array_equal(got, symbols) and end == len(data)
        assert scalar_calls == []

    def test_the_path_follows_the_bytes_per_row(self, monkeypatch):
        """Speculation costs O(F x body bytes): at one row count, narrow rows take
        the speculative pass and rows of more than _SPECULATIVE_MAX_ROW_BYTES
        body bytes on average the scalar loop."""
        rng = np.random.default_rng(12)
        code = entropy.build_code(rng.dirichlet(np.full(64, 2.0)))
        table = entropy.decode_table(code)
        calls = []
        speculate = entropy._speculate
        monkeypatch.setattr(entropy, "_speculate",
                            lambda *a: calls.append(a[4]) or speculate(*a))
        for n_fields, speculative in ((12, True), (200, False)):
            symbols = rng.integers(64, size=(300, n_fields))
            data = _packed(symbols, [code] * n_fields)
            wide = len(data) > 300 * entropy._SPECULATIVE_MAX_ROW_BYTES
            assert wide != speculative
            calls.clear()
            decoder = entropy.prefix_decoder([table] * n_fields)
            got, _, end = entropy.unpack_prefix(data, 300, decoder)
            assert np.array_equal(got, symbols) and end == len(data)
            assert calls == ([300] if speculative else [])

    def test_wide_rows_decode_in_bounded_memory(self):
        """The scalar loop decodes wide rows a batch at a time, so what it holds
        beyond its output does not grow with the row count."""
        rng = np.random.default_rng(13)
        code = entropy.build_code(rng.dirichlet(np.full(64, 2.0)))
        decoder = entropy.prefix_decoder([entropy.decode_table(code)] * 200)
        peaks = []
        for rows in (300, 1200):
            symbols = rng.integers(64, size=(rows, 200))
            data = _packed(symbols, [code] * 200)
            assert len(data) > rows * entropy._SPECULATIVE_MAX_ROW_BYTES
            tracemalloc.start()
            try:
                got, _, _ = entropy.unpack_prefix(data, rows, decoder)
                peaks.append(tracemalloc.get_traced_memory()[1] - got.nbytes - 8 * rows)
            finally:
                tracemalloc.stop()
            assert np.array_equal(got, symbols)
        # the words of one batch: about _SPECULATIVE_WINDOW Python ints
        assert peaks[1] < peaks[0] + 100_000
        assert max(peaks) < 80 * entropy._SPECULATIVE_WINDOW

    def test_truncation_at_every_byte_matches_the_scalar_loop(self):
        rng = np.random.default_rng(3)
        codes, _, data = _random_stream(rng, 40)
        tables = [entropy.decode_table(c) for c in codes]
        for cut in range(len(data)):
            want = _decode(data[:cut], 40, tables, speculative=False)
            assert isinstance(want, str) and "bit offset" in want
            _assert_same(_decode(data[:cut], 40, tables), want)

    def test_invalid_codes_match_the_scalar_loop(self):
        rng = np.random.default_rng(4)
        codes = _random_stream(rng, 0)[0] + [entropy.canonical_code(np.array([2, 2, 2]))]
        # in the last field "11" starts no codeword
        symbols = np.stack([rng.integers(c.size, size=40) for c in codes], axis=1)
        data = _packed(symbols, codes)
        tables = [entropy.decode_table(c) for c in codes]
        invalid = 0
        for at in range(len(data)):
            for value in (0xFF, int(rng.integers(256))):
                flipped = data[:at] + bytes([value]) + data[at + 1:]
                want = _decode(flipped, 40, tables, speculative=False)
                invalid += isinstance(want, str) and "invalid prefix code" in want
                _assert_same(_decode(flipped, 40, tables), want)
        assert invalid > 0
