import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import encoded_usage, make_layout
from msvq import entropy
from msvq.codebook import Codebook, MsvqModel
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


class TestPackingKernels:
    def test_fixed_fields_round_trip(self):
        rng = np.random.default_rng(2)
        widths = rng.integers(1, 17, 50)
        symbols = rng.integers(0, 1 << widths, size=(7, 50))
        blocks = entropy.pack_fixed(symbols, widths)
        assert blocks.shape == (7, (int(widths.sum()) + 7) // 8)
        rows = [list(zip(row.tolist(), widths.tolist())) for row in symbols]
        assert blocks.tobytes() == _reference_pack(rows)
        assert np.array_equal(entropy.unpack_fixed(blocks, widths), symbols)

    def test_fixed_unpack_ignores_padding(self):
        widths = [3, 2]
        blocks = np.array([[0b10101111]], dtype=np.uint8)
        assert entropy.unpack_fixed(blocks, widths).tolist() == [[5, 1]]

    def test_prefix_rows_match_reference(self):
        rng = np.random.default_rng(4)
        codes = [entropy.build_code(rng.dirichlet(np.full(k, 0.3))) for k in (2, 9, 40)]
        symbols = np.stack([rng.integers(c.size, size=30) for c in codes], axis=1)
        rows = [[(int(c.codes[s]), int(c.lengths[s])) for c, s in zip(codes, row)]
                for row in symbols]
        packed = entropy.pack_prefix(symbols, codes).tobytes()
        assert packed == _reference_pack(rows)
        tables = [entropy.decode_table(c) for c in codes]
        got, bits, end = entropy.unpack_prefix(b"\x00" + packed, 30, tables, offset=1)
        assert np.array_equal(got, symbols)
        assert bits.tolist() == [sum(n for _, n in row) for row in rows]
        assert end == 1 + len(packed)

    def test_codes_longer_than_the_lookup(self):
        lengths = np.r_[np.arange(1, 21), 20]  # Kraft sum exactly 1
        code = entropy.canonical_code(lengths)
        assert code.max_length > entropy.LOOKUP_BITS
        table = entropy.decode_table(code)
        assert table is entropy.decode_table(code)  # built once per code
        stream = np.random.default_rng(6).integers(lengths.size, size=200)
        payload = entropy.pack_prefix(stream[None, :], [code] * stream.size).tobytes()
        got, _, end = entropy.unpack_prefix(payload, 1, [table] * stream.size)
        assert got[0].tolist() == stream.tolist()
        assert end == len(payload)

    def test_prefix_truncation_reports_offset(self):
        table = entropy.decode_table(entropy.canonical_code(np.array([1, 2, 2])))
        with pytest.raises(CorruptionError, match="bit offset 9"):
            entropy.unpack_prefix(b"\xff", 1, [table] * 5)  # 4 codewords fill the byte


class TestIndexStreams:
    """One vector's index streams: a one-row field matrix, sub-vector-major."""

    @staticmethod
    def _round_trip(symbols, codes):
        payload = entropy.pack_prefix(np.array([symbols], dtype=np.int64).reshape(1, -1),
                                      codes).tobytes()
        got, _, end = entropy.unpack_prefix(payload, 1, [entropy.decode_table(c) for c in codes])
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
            entropy.unpack_prefix(b"\xff", 1, [entropy.decode_table(incomplete)])


LONG_CODE = np.r_[np.arange(1, 21), 20]  # Kraft sum 1; codewords up to 20 bits


def _decode(data, rows, tables, offset=0, speculative=True):
    """unpack_prefix forced onto the speculative path, or onto the scalar loop
    alone (the reference), whatever the input size; errors come back as text."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_SPECULATIVE_MIN_ROWS", 0 if speculative else sys.maxsize)
        try:
            return entropy.unpack_prefix(data, rows, tables, offset)
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
    return codes, symbols, entropy.pack_prefix(symbols, codes).tobytes()


class TestSpeculativeDecode:
    """The speculative decoder against the scalar loop it falls back to."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(0, 120),
           offset=st.integers(0, 5), trailing=st.integers(0, 3),
           window=st.sampled_from([1, 2, 3, 8, 29, 8192]), long_code=st.booleans())
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
        data = entropy.pack_prefix(symbols, codes).tobytes()
        tables = [entropy.decode_table(c) for c in codes]
        scalar_calls = []
        scalar = entropy._decode_rows
        monkeypatch.setattr(entropy, "_decode_rows",
                            lambda *args: scalar_calls.append(args) or scalar(*args))
        got, _, end = entropy.unpack_prefix(data, len(symbols), tables)
        assert np.array_equal(got, symbols) and end == len(data)
        assert scalar_calls == []

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
        data = entropy.pack_prefix(symbols, codes).tobytes()
        tables = [entropy.decode_table(c) for c in codes]
        invalid = 0
        for at in range(len(data)):
            for value in (0xFF, int(rng.integers(256))):
                flipped = data[:at] + bytes([value]) + data[at + 1:]
                want = _decode(flipped, 40, tables, speculative=False)
                invalid += isinstance(want, str) and "invalid prefix code" in want
                _assert_same(_decode(flipped, 40, tables), want)
        assert invalid > 0
