"""Damaged MLT1 tables, FMAT1 files and plain MSVP payloads.

Each file is cut at every length and has single bytes replaced at drawn
offsets. Every read must end, in bounded time, in an MsvqError with a CLI exit
code of 2-5, or in a valid read. A byte replaced inside an MSVP header gets a
fresh header CRC, so the damage reaches the checks behind the CRC. Model files
and EC payloads are fuzzed in tests/test_bitstream.py.
"""

import json
import time
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvq import bitstream, quantizer, rate
from msvq.errors import MsvqError

GOLDEN = Path(__file__).resolve().parent / "golden"
ROWS = 24  # vectors in each small payload
CRC_AT = bitstream.PAYLOAD_HEADER_SIZE - 4
EXPLICIT_STAGES = [3, 2, 1, 0, 1, 2]


class Case(NamedTuple):
    blob: bytes
    read: Callable  # path -> result
    check: Callable  # (blob, result) -> None, for a read that succeeded
    body_at: int | None = None  # payloads: offset of the first vector block
    row_bytes: int = 0
    reference: tuple | None = None  # payloads: the undamaged read


def _bits(values, widths) -> bytes:
    """values at the given widths, MSB-first, zero-padded to a byte (FORMATS.md)."""
    text = "".join(format(int(v), f"0{int(w)}b") for v, w in zip(values, widths))
    text += "0" * (-len(text) % 8)
    return int(text, 2).to_bytes(len(text) // 8, "big") if text else b""


def _explicit_payload(model, digest, data, stages) -> bytes:
    """A plain explicit-plan payload assembled field by field from the format spec;
    write_payload sends a plain payload only in plan-derived mode."""
    lay = model.layout
    plan = quantizer.plan_from_stages(lay, stages)
    symbols = quantizer.encode_fields(model, data, plan)
    sub, stage = quantizer.field_order(plan.stages)
    head = (bitstream.PAYLOAD_MAGIC + (1).to_bytes(2, "little")
            + bytes([bitstream.MODE_EXPLICIT, 0]) + digest.to_bytes(8, "little")
            + (0).to_bytes(4, "little") + len(data).to_bytes(4, "little"))
    plan_width = int(np.ceil(np.log2(lay.t_max + 1)))
    return (head + zlib.crc32(head).to_bytes(4, "little")
            + _bits(plan.stages, [plan_width] * lay.n_sub)
            + b"".join(_bits(row, lay.bits[sub, stage]) for row in symbols))


def _check_table(blob, table):
    assert json.loads(blob)["format"] == "MLT1"
    back = rate.table_from_dict(rate.table_to_dict(table))
    assert back.mode == table.mode
    assert np.array_equal(back.loss, table.loss)
    assert np.array_equal(back.step_bits, table.step_bits)


def _check_features(blob, data):
    assert data.shape == tuple(np.frombuffer(blob, "<u4", 2, 8))
    assert data.tobytes() == blob[16:]


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    model, info = bitstream.read_model(str(GOLDEN / "model_plain.msvq"))
    table = bitstream.read_table(str(GOLDEN / "table_plain.json"))
    digest = info.file_digest
    tmp = tmp_path_factory.mktemp("fuzz-src")
    data = bitstream.read_features(str(GOLDEN / "features.fmat"))[:ROWS]

    def read_payload(path):
        return bitstream.read_payload(str(path), model, digest, table)

    def check_payload(blob, got):
        z_hat, pinfo = got
        assert z_hat.shape == (pinfo.count, model.layout.m_dim) and np.isfinite(z_hat).all()
        exact = quantizer.exact_bit_total(model.layout, pinfo.plan.stages)
        assert np.array_equal(pinfo.bits_per_vector, np.full(pinfo.count, exact))

    out = {name: Case((GOLDEN / f"{name}.json").read_bytes(),
                      lambda p: bitstream.read_table(str(p)), _check_table)
           for name in ("table_plain", "table_ec")}
    bitstream.write_features(str(tmp / "f.fmat"), data[:6])
    out["features"] = Case((tmp / "f.fmat").read_bytes(),
                           lambda p: bitstream.read_features(str(p)), _check_features)
    bitstream.write_payload(str(tmp / "d.msvp"), model, digest, table, data, b_cap=41)
    payloads = {
        # name: (bytes, body offset, bytes per vector: 40 bits derived, 46 explicit)
        "payload_derived": ((tmp / "d.msvp").read_bytes(), CRC_AT + 4, 5),
        "payload_explicit": (_explicit_payload(model, digest, data, EXPLICIT_STAGES),
                             CRC_AT + 4 + 2, 6),
    }
    for name, (blob, body_at, row_bytes) in payloads.items():
        assert len(blob) == body_at + ROWS * row_bytes
        (tmp / name).write_bytes(blob)
        out[name] = Case(blob, read_payload, check_payload, body_at, row_bytes,
                         read_payload(tmp / name))
    return out


NAMES = ["table_plain", "table_ec", "features", "payload_derived", "payload_explicit"]


def _outcome(blob, path, read):
    """(result, None) of a read, or (None, exit code) of the MsvqError it raised."""
    path.write_bytes(blob)
    start = time.perf_counter()
    try:
        result, code = read(path), None
    except MsvqError as exc:
        result, code = None, exc.exit_code
    assert time.perf_counter() - start < 2.0
    assert code is None or 2 <= code <= 5, code
    return result, code


def test_explicit_payload_decodes_to_its_plan(cases):
    model, _ = bitstream.read_model(str(GOLDEN / "model_plain.msvq"))
    data = bitstream.read_features(str(GOLDEN / "features.fmat"))[:ROWS]
    z_hat, info = cases["payload_explicit"].reference
    assert info.mode == bitstream.MODE_EXPLICIT
    assert info.plan.stages.tolist() == EXPLICIT_STAGES
    assert np.array_equal(z_hat, quantizer.encode_batch(model, data, info.plan)[1])


@pytest.mark.parametrize("name", NAMES)
def test_every_truncation(cases, tmp_path, name):
    case = cases[name]
    for end in range(len(case.blob)):
        got, code = _outcome(case.blob[:end], tmp_path / "cut", case.read)
        if name.startswith("table"):  # dropping the final newline leaves valid JSON
            if code is None:
                case.check(case.blob[:end], got)
        else:  # the header fixes the exact file length
            assert code is not None, end


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_byte_replacement(cases, tmp_path_factory, name, data):
    case = cases[name]
    blob = bytearray(case.blob)
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    blob[at] = data.draw(st.integers(0, 255).filter(lambda b: b != case.blob[at]), label="byte")
    if case.body_at is not None and at < CRC_AT:
        blob[CRC_AT:CRC_AT + 4] = zlib.crc32(bytes(blob[:CRC_AT])).to_bytes(4, "little")
    blob = bytes(blob)
    got, code = _outcome(blob, tmp_path_factory.getbasetemp() / f"fuzz-{name}", case.read)
    if case.body_at is not None and at >= case.body_at:
        # every field value indexes a codeword and padding is ignored, so a
        # damaged plain body still decodes, and only its own vector changes
        assert code is None
        keep = np.arange(ROWS) != (at - case.body_at) // case.row_bytes
        assert np.array_equal(got[0][keep], case.reference[0][keep])
    if code is None:
        case.check(blob, got)
