import builtins
import io
import json
import sys
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EMPTY_LAYOUTS, empty_layout_model
from msvq import bitstream, cli, codebook, entropy, quantizer, rate
from msvq.errors import CorruptionError, DataError, MsvqError

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_MODELS = {kind: (GOLDEN / f"model_{kind}.msvq").read_bytes() for kind in ("plain", "ec")}
GOLDEN_EC_PAYLOADS = {name: (GOLDEN / f"payload_{name}.msvp").read_bytes()
                      for name in ("ec", "ec_strict")}


@pytest.fixture(scope="module")
def table(model, corr_data):
    return rate.build_table(model, corr_data)


@pytest.fixture(scope="module")
def ec_table(ec_model, corr_data):
    return rate.build_table(ec_model, corr_data)


class TestFeatureFiles:
    def test_round_trip(self, tmp_path, corr_data):
        path = str(tmp_path / "x.fmat")
        bitstream.write_features(path, corr_data)
        back = bitstream.read_features(path)
        assert np.array_equal(back, corr_data.astype(np.float32))

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "x.fmat")
        bitstream.write_features(path, np.zeros((2, 3), dtype=np.float32))
        blob = open(path, "rb").read()
        assert blob[:4] == b"FMAT"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 3
        assert len(blob) == 16 + 2 * 3 * 4

    def test_rejects_bad_magic_and_truncation(self, tmp_path):
        path = str(tmp_path / "x.fmat")
        bitstream.write_features(path, np.zeros((2, 3), dtype=np.float32))
        blob = bytearray(open(path, "rb").read())
        (tmp_path / "bad1.fmat").write_bytes(b"XMAT" + bytes(blob[4:]))
        with pytest.raises(CorruptionError):
            bitstream.read_features(str(tmp_path / "bad1.fmat"))
        (tmp_path / "bad2.fmat").write_bytes(bytes(blob[:-3]))
        with pytest.raises(CorruptionError):
            bitstream.read_features(str(tmp_path / "bad2.fmat"))

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_rejects_values_beyond_float32(self, tmp_path):
        # finite as float64, but the file would hold inf
        path = tmp_path / "x.fmat"
        with pytest.raises(DataError, match="non-finite"):
            bitstream.write_features(str(path), np.array([[1e39, 1.0]]))
        assert not path.exists()


    def test_write_holds_no_copy_of_the_matrix(self, tmp_path):
        rows, cols = 1024, 256
        data = np.random.default_rng(0).normal(size=(rows, cols)).astype(np.float32)
        path = tmp_path / "x.fmat"
        tracemalloc.start()
        try:
            bitstream.write_features(str(path), data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the finiteness check's mask takes R*M bytes; a tobytes() copy takes 4*R*M
        assert peak < 2 * rows * cols
        assert path.read_bytes()[16:] == data.tobytes()
        bitstream.write_features(str(path), data.T)  # a non-contiguous view
        assert path.read_bytes()[16:] == data.T.tobytes()


class TestModelFiles:
    @pytest.mark.parametrize("which", ["plain", "ec"])
    def test_round_trip_and_reserialization(self, tmp_path, model, ec_model, which):
        m = model if which == "plain" else ec_model
        path = str(tmp_path / "m.msvq")
        bitstream.write_model(path, m, table_digest=0xDEADBEEF)
        back, info = bitstream.read_model(path)
        assert info.table_digest == 0xDEADBEEF
        assert bitstream.model_to_bytes(back, 0xDEADBEEF) == \
            bitstream.model_to_bytes(m, 0xDEADBEEF)
        assert back.ec_enabled == m.ec_enabled
        assert np.array_equal(back.layout.perm, m.layout.perm)

    def test_stamp_rewrites_only_digest(self, tmp_path, model):
        path = str(tmp_path / "m.msvq")
        bitstream.write_model(path, model)
        before = open(path, "rb").read()
        bitstream.stamp_table_digest(path, 0x1234)
        after = open(path, "rb").read()
        assert len(before) == len(after)
        _, info = bitstream.read_model(path)
        assert info.table_digest == 0x1234
        assert before[:28] == after[:28]
        assert before[36:] == after[36:]

    def test_rejects_unknown_version(self, tmp_path, model):
        path = str(tmp_path / "m.msvq")
        bitstream.write_model(path, model)
        blob = bytearray(open(path, "rb").read())
        blob[4] = 99
        (tmp_path / "v.msvq").write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            bitstream.read_model(str(tmp_path / "v.msvq"))

    @pytest.mark.parametrize("bit", [1, 3])
    def test_rejects_reserved_flag_bits(self, tmp_path, ec_model, bit):
        path = tmp_path / "m.msvq"
        bitstream.write_model(str(path), ec_model)
        blob = bytearray(path.read_bytes())
        blob[6] |= 1 << bit  # low byte of the u16 flags field
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match="reserved model flag"):
            bitstream.read_model(str(path))

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_nonpositive_or_nonfinite_lambda(self, tmp_path, ec_model, bad):
        lay = ec_model.layout
        at = (bitstream._MODEL_HEADER.size + 4 * lay.m_dim + 4 * lay.n_sub
              + lay.n_sub * lay.t_max + 4 * lay.n_sub * lay.sub_dim)  # lambdas follow the means
        blob = bytearray(bitstream.model_to_bytes(ec_model))
        assert np.frombuffer(blob, "<f8", lay.t_max, at).tolist() == ec_model.lambdas.tolist()
        blob[at + 8:at + 16] = np.float64(bad).tobytes()
        path = tmp_path / "m.msvq"
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match="lambdas must be positive and finite"):
            bitstream.read_model(str(path))

    @pytest.mark.parametrize("which", ["ec_without_codes", "codes_without_ec"])
    def test_rejects_mismatched_ec_and_code_flags(self, tmp_path, model, ec_model, which):
        # both models share one layout, so the EC model's length block fits the plain one
        lengths = b"".join(cb.code_lengths.astype("u1").tobytes()
                           for group in ec_model.codebooks for cb in group)
        if which == "ec_without_codes":
            blob = bytearray(bitstream.model_to_bytes(ec_model)[:-len(lengths)])
            blob[6] &= ~bitstream.FLAG_CODES  # low byte of the u16 flags field
        else:
            blob = bytearray(bitstream.model_to_bytes(model) + lengths)
            blob[6] |= bitstream.FLAG_CODES
        path = tmp_path / "m.msvq"
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match="EC and code-length flags differ"):
            bitstream.read_model(str(path))

    @pytest.mark.parametrize("m, d, n", EMPTY_LAYOUTS)
    def test_rejects_layout_without_coordinates(self, m, d, n):
        # N = 0 once raised numpy's ValueError, and D = 0 loaded as a model
        with pytest.raises(CorruptionError, match="at least one sub-vector"):
            bitstream.model_from_bytes(empty_layout_model(m, d, n))

    def test_rejects_truncated_and_trailing(self, tmp_path, model):
        path = str(tmp_path / "m.msvq")
        bitstream.write_model(path, model)
        blob = open(path, "rb").read()
        (tmp_path / "t1.msvq").write_bytes(blob[:-5])
        with pytest.raises(CorruptionError):
            bitstream.read_model(str(tmp_path / "t1.msvq"))
        (tmp_path / "t2.msvq").write_bytes(blob + b"\x00\x00")
        with pytest.raises(CorruptionError):
            bitstream.read_model(str(tmp_path / "t2.msvq"))


class TestModelFileFuzz:
    """Damaged golden model files: each either fails as corruption (CLI exit 4) or
    loads a model that serializes back to the same bytes."""

    @pytest.mark.parametrize("kind", sorted(GOLDEN_MODELS))
    def test_every_truncation_is_corruption(self, kind):
        blob = GOLDEN_MODELS[kind]
        for end in range(len(blob)):
            with pytest.raises(CorruptionError):
                bitstream.model_from_bytes(blob[:end])

    @pytest.mark.parametrize("kind", sorted(GOLDEN_MODELS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_byte_replacement_is_corruption_or_lossless(self, kind, data):
        blob = bytearray(GOLDEN_MODELS[kind])
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[at] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]), label="byte")
        try:
            model, info = bitstream.model_from_bytes(bytes(blob))
        except CorruptionError:
            return
        assert bitstream.model_to_bytes(model, info.table_digest) == blob


class TestTableFiles:
    def test_round_trip_and_format_marker(self, tmp_path, table):
        path = str(tmp_path / "t.json")
        bitstream.write_table(path, table)
        doc = json.load(open(path))
        assert doc["format"] == "MLT1"
        assert set(doc) >= {"n", "t_max", "mode", "loss", "step_bits"}
        back = bitstream.read_table(path)
        assert np.array_equal(back.loss, table.loss)
        assert np.array_equal(back.step_bits, table.step_bits)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(CorruptionError):
            bitstream.read_table(str(path))


class TestBoundPair:
    def test_table_bytes_digested_are_the_bytes_loaded(self, tmp_path, monkeypatch, model,
                                                       table, corr_data):
        model_path, table_path = tmp_path / "m.msvq", tmp_path / "t.json"
        bitstream.write_model(str(model_path), model)
        bitstream.write_table(str(table_path), table)
        bitstream.stamp_table_digest(str(model_path), bitstream.file_digest(str(table_path)))
        other = json.dumps(rate.table_to_dict(rate.build_table(model, corr_data[:300])))
        opened = []

        def swapping_open(path, mode="r", *args, **kwargs):
            # a table replaced between two reads of its file
            if str(path) == str(table_path):
                opened.append(mode)
                if len(opened) > 1:
                    return io.BytesIO(other.encode())
            return builtins.open(path, mode, *args, **kwargs)

        monkeypatch.setattr(bitstream, "open", swapping_open, raising=False)
        _, _, got = bitstream.read_bound_pair(str(model_path), str(table_path))
        assert opened == ["rb"]
        assert np.array_equal(got.loss, table.loss)

    def test_bind_checks_and_stamps_one_read_of_each_file(self, tmp_path, monkeypatch, model,
                                                          table, corr_data):
        model_path, table_path = tmp_path / "m.msvq", tmp_path / "t.json"
        bitstream.write_model(str(model_path), model)
        bitstream.write_table(str(table_path), table)
        checked = table_path.read_bytes()
        other = json.dumps(rate.table_to_dict(rate.build_table(model, corr_data[:300])))
        opened = {str(model_path): [], str(table_path): []}

        def swapping_open(path, mode="r", *args, **kwargs):
            # a table replaced after its first read
            if str(path) in opened:
                opened[str(path)].append(mode)
                if str(path) == str(table_path) and len(opened[str(path)]) > 1:
                    return io.BytesIO(other.encode())
            return builtins.open(path, mode, *args, **kwargs)

        monkeypatch.setattr(bitstream, "open", swapping_open, raising=False)
        assert cli.main(["table", "--model", str(model_path), "--bind", str(table_path)]) == 0
        monkeypatch.undo()
        assert opened == {str(model_path): ["r+b"], str(table_path): ["rb"]}
        _, info = bitstream.read_model(str(model_path))
        assert info.table_digest == bitstream.digest64(checked)


class TestPayloadFiles:
    def test_zero_budget_payload_is_header_only(self, tmp_path, model, table, corr_data):
        path = str(tmp_path / "p.msvp")
        info = bitstream.write_payload(path, model, 7, table, corr_data[:10], b_cap=0)
        assert info.plan.stages.tolist() == [0, 0, 0, 0]
        assert len(open(path, "rb").read()) == bitstream.PAYLOAD_HEADER_SIZE
        z_hat, back = bitstream.read_payload(path, model, 7, table)
        assert back.count == 10
        assert np.array_equal(z_hat, quantizer.encode_batch(model, corr_data[:10], info.plan)[1])

    def test_end_to_end_bit_exact(self, tmp_path, model, table, corr_data):
        path = str(tmp_path / "p.msvp")
        data = corr_data[:200]
        info = bitstream.write_payload(path, model, 7, table, data, b_cap=40)
        z_hat_rx, rx = bitstream.read_payload(path, model, 7, table)
        _, z_hat_tx = quantizer.encode_batch(model, data, rx.plan)
        assert np.array_equal(z_hat_rx, z_hat_tx)
        assert np.array_equal(rx.plan.stages, info.plan.stages)

    def test_exact_bits_accounting_and_padding(self, tmp_path, model, table, corr_data):
        path = str(tmp_path / "p.msvp")
        data = corr_data[:50]
        info = bitstream.write_payload(path, model, 7, table, data, b_cap=37)
        exact_bits = quantizer.exact_bit_total(model.layout, info.plan.stages)
        assert np.all(info.bits_per_vector == exact_bits)
        per_vector = (exact_bits + 7) // 8
        expected = bitstream.PAYLOAD_HEADER_SIZE + 50 * per_vector
        assert len(open(path, "rb").read()) == expected

    def test_model_digest_mismatch(self, tmp_path, model, table, corr_data):
        path = str(tmp_path / "p.msvp")
        bitstream.write_payload(path, model, 7, table, corr_data[:5], b_cap=20)
        with pytest.raises(CorruptionError):
            bitstream.read_payload(path, model, 8, table)

    def test_header_mutations_never_decode_silently(self, tmp_path, model, table,
                                                    corr_data):
        path = str(tmp_path / "p.msvp")
        bitstream.write_payload(path, model, 7, table, corr_data[:5], b_cap=20)
        blob = bytearray(open(path, "rb").read())
        for pos in range(bitstream.PAYLOAD_HEADER_SIZE):
            tampered = bytearray(blob)
            tampered[pos] ^= 0xFF
            bad = tmp_path / f"bad{pos}.msvp"
            bad.write_bytes(bytes(tampered))
            with pytest.raises(CorruptionError):
                bitstream.read_payload(str(bad), model, 7, table)

    def test_truncated_body_raises(self, tmp_path, model, table, corr_data):
        path = str(tmp_path / "p.msvp")
        bitstream.write_payload(path, model, 7, table, corr_data[:5], b_cap=30)
        blob = open(path, "rb").read()
        (tmp_path / "trunc.msvp").write_bytes(blob[:-1])
        with pytest.raises(CorruptionError):
            bitstream.read_payload(str(tmp_path / "trunc.msvp"), model, 7, table)

    @pytest.mark.parametrize("which", ["plain", "ec"])
    def test_crafted_count_fails_before_allocating(self, tmp_path, model, table, ec_model,
                                                   ec_table, corr_data, which):
        m, tab = (model, table) if which == "plain" else (ec_model, ec_table)
        path = tmp_path / "p.msvp"
        bitstream.write_payload(str(path), m, 7, tab, corr_data[:5], b_cap=30)
        blob = bytearray(path.read_bytes())
        blob[20:24] = (0xFFFFFFFF).to_bytes(4, "little")
        blob[24:28] = zlib.crc32(bytes(blob[:24])).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError, match="4294967295 vectors"):
            bitstream.read_payload(str(path), m, 7, tab)

    def test_ec_payload_round_trip(self, tmp_path, ec_model, ec_table, corr_data):
        path = str(tmp_path / "p.msvp")
        data = corr_data[:100]
        info = bitstream.write_payload(path, ec_model, 3, ec_table, data, b_cap=40)
        z_hat_rx, rx = bitstream.read_payload(path, ec_model, 3, ec_table)
        _, z_hat_tx = quantizer.encode_batch(ec_model, data, rx.plan)
        assert np.array_equal(z_hat_rx, z_hat_tx)
        assert np.array_equal(info.bits_per_vector, rx.bits_per_vector)

    def test_ec_mean_bits_track_plan_average(self, tmp_path, ec_model, ec_table,
                                             corr_data):
        # over the table's own training set, realized mean bits sit within 2%
        path = str(tmp_path / "p.msvp")
        info = bitstream.write_payload(path, ec_model, 3, ec_table, corr_data, b_cap=40)
        avg_bits = rate.plan_step_bits(ec_table, info.plan.stages)
        assert avg_bits > 0
        mean_bits = float(info.bits_per_vector.mean())
        assert abs(mean_bits - avg_bits) <= 0.02 * avg_bits

    def test_strict_mode_caps_every_vector(self, tmp_path, ec_model, ec_table, corr_data):
        data = corr_data[:200]
        loose = str(tmp_path / "loose.msvp")
        info = bitstream.write_payload(loose, ec_model, 3, ec_table, data, b_cap=40)
        assert info.bits_per_vector.max() > 40  # average-bit plans can overshoot
        strict = str(tmp_path / "strict.msvp")
        sinfo = bitstream.write_payload(strict, ec_model, 3, ec_table, data, b_cap=40,
                                        strict=True)
        assert sinfo.mode == bitstream.MODE_EXPLICIT
        assert sinfo.bits_per_vector.max() <= 40
        z_hat_rx, rx = bitstream.read_payload(strict, ec_model, 3, ec_table)
        assert np.array_equal(rx.plan.stages, sinfo.plan.stages)
        _, z_hat_tx = quantizer.encode_batch(ec_model, data, rx.plan)
        assert np.array_equal(z_hat_rx, z_hat_tx)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("which", ["plain", "ec"])
    def test_encodes_only_the_planned_stages(self, tmp_path, monkeypatch, model, table,
                                             ec_model, ec_table, corr_data, which, strict):
        m, tab, b_cap = (model, table, 40) if which == "plain" else (ec_model, ec_table, 20)
        data = corr_data[:200]

        references = []

        def full_depth(model_, Z, plan, threads=1):
            references.append(plan)
            full = quantizer.full_plan(model_.layout)
            symbols = quantizer.encode_fields(model_, Z, full, threads)
            return symbols[:, quantizer.field_order(plan.stages, full.stages)[2]]

        reference = tmp_path / "full.msvp"
        with monkeypatch.context() as mp:
            mp.setattr(bitstream, "encode_fields", full_depth)
            want = bitstream.write_payload(str(reference), m, 3, tab, data, b_cap, strict)
        assert len(references) == 1  # the reference encode replaced the shipped one

        searched = []

        def counting(kernel):
            def search(points, *args):
                searched.append(len(points))
                return kernel(points, *args)
            return search

        for name in ("nearest_batch", "nearest_rate_penalized_batch"):
            monkeypatch.setattr(quantizer, name, counting(getattr(quantizer, name)))
        path = tmp_path / "p.msvp"
        got = bitstream.write_payload(str(path), m, 3, tab, data, b_cap, strict)
        stages, _, _ = rate.greedy_order(tab, float(b_cap))
        assert 0 < stages.sum() < m.layout.n_sub * m.t_max
        assert sum(searched) == len(data) * int(stages.sum())
        assert path.read_bytes() == reference.read_bytes()
        assert np.array_equal(got.plan.stages, want.plan.stages)
        assert np.array_equal(got.bits_per_vector, want.bits_per_vector)
        if strict and which == "ec":  # the undo lowered the greedy plan
            assert got.mode == bitstream.MODE_EXPLICIT
            assert got.plan.stages.sum() < stages.sum()

    @pytest.mark.parametrize("which, strict", [("plain", False), ("ec", False), ("ec", True)])
    def test_write_payload_never_decodes(self, tmp_path, monkeypatch, model, table, ec_model,
                                         ec_table, corr_data, which, strict):
        m, tab, b_cap = (model, table, 40) if which == "plain" else (ec_model, ec_table, 20)
        data = corr_data[:200]

        def decode_batch(*args, **kwargs):
            raise AssertionError("write_payload rebuilt Z_hat")

        path = str(tmp_path / "p.msvp")
        with monkeypatch.context() as mp:
            for module in (quantizer, bitstream):
                mp.setattr(module, "decode_batch", decode_batch)
            info = bitstream.write_payload(path, m, 3, tab, data, b_cap, strict)
        if strict:  # the undo path ran too
            assert info.mode == bitstream.MODE_EXPLICIT
        z_hat_rx, rx = bitstream.read_payload(path, m, 3, tab)
        assert np.array_equal(z_hat_rx, quantizer.encode_batch(m, data, rx.plan)[1])


def _golden_ec_pair():
    """A freshly loaded golden EC model (no code state built yet), its digest
    and its table."""
    model, info = bitstream.read_model(str(GOLDEN / "model_ec.msvq"))
    return model, info.file_digest, bitstream.read_table(str(GOLDEN / "table_ec.json"))


def test_code_state_is_built_once_per_model(tmp_path, monkeypatch):
    model, digest, table = _golden_ec_pair()
    data = bitstream.read_features(str(GOLDEN / "features.fmat"))
    built = {"codes": 0, "tables": 0}
    canonical, build_table = codebook.canonical_code, entropy.DecodeTable.build

    def count_code(lengths):
        built["codes"] += 1
        return canonical(lengths)

    def count_table(cls, code):
        built["tables"] += 1
        return build_table(code)

    monkeypatch.setattr(codebook, "canonical_code", count_code)
    monkeypatch.setattr(entropy.DecodeTable, "build", classmethod(count_table))
    path = str(tmp_path / "p.msvp")
    for _ in range(2):
        info = bitstream.write_payload(path, model, digest, table, data, b_cap=30)
        bitstream.read_payload(path, model, digest, table)
    sub, stage, _ = quantizer.field_order(info.plan.stages)
    used = set(zip(model.layout.group_of[sub].tolist(), stage.tolist()))
    assert 1 < len(used) < model.n_groups * model.t_max
    assert built == {"codes": model.n_groups * model.t_max, "tables": len(used)}


def _read_outcome(path, pair, speculative=True):
    """read_payload's (reconstruction, bits per vector), or the exit code and
    text of the MsvqError it raised, and the seconds it took. With
    speculative=False the EC body is decoded by the scalar loop alone."""
    with pytest.MonkeyPatch.context() as mp:
        if not speculative:
            mp.setattr(entropy, "_SPECULATIVE_MIN_ROWS", sys.maxsize)
        start = time.perf_counter()
        try:
            z_hat, info = bitstream.read_payload(str(path), *pair)
            outcome = (z_hat, info.bits_per_vector)
        except MsvqError as exc:
            outcome = (exc.exit_code, str(exc))
    return outcome, time.perf_counter() - start


class TestEcPayloadFuzz:
    """Damaged golden EC payloads: every read fails with an MsvqError (CLI exit
    2-5) in bounded time, or decodes exactly as the scalar loop does."""

    @pytest.fixture(scope="class")
    def pair(self):
        return _golden_ec_pair()

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "p.msvp"

    @staticmethod
    def _check(blob, path, pair, errors_too=False):
        path.write_bytes(blob)
        got, seconds = _read_outcome(path, pair)
        assert seconds < 2.0
        failed = isinstance(got[0], int)
        if failed:
            assert 2 <= got[0] <= 5, got
            if not errors_too:
                return
        want, _ = _read_outcome(path, pair, speculative=False)
        if failed:
            assert got == want
        else:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("name", sorted(GOLDEN_EC_PAYLOADS))
    def test_golden_payloads_take_the_fast_path(self, monkeypatch, pair, name):
        rows = []
        speculate = entropy._speculate
        monkeypatch.setattr(entropy, "_speculate", lambda *a: rows.append(a[4]) or speculate(*a))
        _, info = bitstream.read_payload(str(GOLDEN / f"payload_{name}.msvp"), *pair)
        assert rows == [info.count] == [400]

    @pytest.mark.parametrize("name", sorted(GOLDEN_EC_PAYLOADS))
    def test_every_truncation(self, path, pair, name):
        blob = GOLDEN_EC_PAYLOADS[name]
        for end in range(len(blob)):
            self._check(blob[:end], path, pair)

    @pytest.mark.parametrize("name", sorted(GOLDEN_EC_PAYLOADS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_byte_replacement(self, path, pair, name, data):
        blob = bytearray(GOLDEN_EC_PAYLOADS[name])
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[at] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]), label="byte")
        self._check(bytes(blob), path, pair, errors_too=True)
