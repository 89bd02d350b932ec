"""Container formats: FMAT1 features, MLT1 tables, MSVQ models, MSVP payloads.

Byte-level layouts are documented in docs/FORMATS.md. All integers are
little-endian; vectors are IEEE-754 binary32, priors binary64. Model and table
files are bound by 64-bit digests: the table command stamps the table file's
digest into the model file (bind_table), read_bound_pair loads a model
only with the table it is bound to, and every payload carries the digest of
the model file it was encoded with, so a decoder can never silently pair the
wrong artifacts. In plan-derived mode the payload carries only the bit budget
and both sides re-derive the same stage plan from the shared table.

MSVP vector data is the (rows, F) field matrix that encode_fields returns and
decode_batch reads, its columns in quantizer.field_order's order; it goes
through the packing kernels of the entropy module a row chunk at a time.
Writing a payload only encodes: it never rebuilds Z_hat.
Under a plain model every vector's block is ceil(exact_bits / 8) bytes, so the
reader checks the exact body length before decoding; under an EC model every
vector with at least one field takes at least one byte, which bounds the
header's vector count. Either check runs before anything sized by that count
is allocated. An EC body is decoded by entropy.unpack_prefix, which decodes
a window of candidate vector starts at once and falls back to one symbol per
step only for the vectors its lookup cannot settle. The canonical codes, their
decode tables and the code-length lookup are built once per loaded model and
kept with it (MsvqModel.huffman_codes, MsvqModel.padded_code_lengths).
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import rate
from .codebook import Codebook, MsvqModel
# perfbench/spans.py wraps canonical_code on this module; it is not called here.
from .entropy import (
    canonical_code,
    decode_table,
    pack_fixed,
    pack_prefix,
    unpack_fixed,
    unpack_prefix,
)
from .errors import ConfigError, CorruptionError, DataError, StateError
from .layout import assemble_layout, check_features
# perfbench/spans.py wraps encode_batch on this module; it is not called here.
from .quantizer import (
    SelectionPlan,
    decode_batch,
    encode_batch,
    encode_fields,
    exact_bit_total,
    field_order,
    map_row_chunks,
    plan_from_stages,
)

MODEL_MAGIC = b"MSVQ"
PAYLOAD_MAGIC = b"MSVP"
FMAT_MAGIC = b"FMAT"
MODEL_VERSION = 1
PAYLOAD_VERSION = 1
FMAT_VERSION = 1

FLAG_EC = 0x1
FLAG_CODES = 0x4

MODE_DERIVED = 0
MODE_EXPLICIT = 1
MODE_NAMES = {MODE_DERIVED: "plan-derived", MODE_EXPLICIT: "explicit-plan"}

_MODEL_HEADER = struct.Struct("<4sHH5IQ")
_DIGEST_OFFSET = 28  # table_digest position inside the model header
_FMAT_HEADER = struct.Struct("<4s3I")
_PAYLOAD_HEAD = struct.Struct("<4sHBBQII")  # fields before the header CRC
_PAYLOAD_CRC = struct.Struct("<I")
PAYLOAD_HEADER_SIZE = _PAYLOAD_HEAD.size + _PAYLOAD_CRC.size


def digest64(data: bytes) -> int:
    """64-bit content digest used for model/table/payload binding."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def file_digest(path: str) -> int:
    with open(path, "rb") as fh:
        return digest64(fh.read())


# --- FMAT1 feature matrices -------------------------------------------------

def write_features(path: str, data: np.ndarray) -> None:
    data = np.ascontiguousarray(check_features(data, dtype="<f4"))
    rows, cols = data.shape
    with open(path, "wb") as fh:
        fh.write(_FMAT_HEADER.pack(FMAT_MAGIC, FMAT_VERSION, rows, cols))
        fh.write(data)  # the matrix's own buffer: a C-ordered float32 input is not copied


def read_features(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _FMAT_HEADER.size:
        raise CorruptionError(f"{path}: too short for an FMAT1 header")
    magic, version, rows, cols = _FMAT_HEADER.unpack_from(blob, 0)
    if magic != FMAT_MAGIC:
        raise CorruptionError(f"{path}: bad magic {magic!r}, expected {FMAT_MAGIC!r}")
    if version != FMAT_VERSION:
        raise CorruptionError(f"{path}: unsupported FMAT version {version}")
    expected = _FMAT_HEADER.size + 4 * rows * cols
    if len(blob) != expected:
        raise CorruptionError(f"{path}: file is {len(blob)} bytes, header implies {expected}")
    data = np.frombuffer(blob, dtype="<f4", offset=_FMAT_HEADER.size).reshape(rows, cols)
    return data


# --- MLT1 marginal-loss tables ----------------------------------------------

def write_table(path: str, table: rate.MarginalLossTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rate.table_to_dict(table), fh)
        fh.write("\n")


def _table_from_bytes(blob: bytes, name: str) -> rate.MarginalLossTable:
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON; nesting too deep
        raise CorruptionError(f"{name}: not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptionError(f"{name}: table document must be a JSON object")
    return rate.table_from_dict(doc)


def read_table(path: str) -> rate.MarginalLossTable:
    with open(path, "rb") as fh:
        return _table_from_bytes(fh.read(), path)


# --- MSVQ model files ---------------------------------------------------------

@dataclass(frozen=True)
class ModelInfo:
    """The digests read_model reports beside the model: the table digest
    stamped into the header (0 when unbound) and the file's own digest."""

    table_digest: int
    file_digest: int


class _Cursor:
    def __init__(self, blob: bytes, name: str):
        self.blob = blob
        self.pos = 0
        self.name = name

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CorruptionError(f"{self.name}: truncated at byte {self.pos} "
                                  f"(need {n} more)")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def array(self, dtype: str, count: int) -> np.ndarray:
        item = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(item * count), dtype=dtype)

    def done(self) -> None:
        if self.pos != len(self.blob):
            raise CorruptionError(f"{self.name}: {len(self.blob) - self.pos} "
                                  f"trailing bytes after the last block")


def model_to_bytes(model: MsvqModel, table_digest: int = 0) -> bytes:
    lay = model.layout
    flags = FLAG_EC | FLAG_CODES if model.ec_enabled else 0
    parts = [_MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, flags,
                                lay.m_dim, lay.sub_dim, lay.n_sub,
                                lay.n_groups, lay.t_max, table_digest)]
    parts.append(np.ascontiguousarray(lay.perm, dtype="<u4").tobytes())
    parts.append(np.ascontiguousarray(lay.group_of, dtype="<u4").tobytes())
    parts.append(np.ascontiguousarray(lay.bits, dtype="u1").tobytes())
    parts.append(np.ascontiguousarray(model.fallback_means, dtype="<f4").tobytes())
    if model.ec_enabled:
        parts.append(np.ascontiguousarray(model.lambdas, dtype="<f8").tobytes())
    for group in model.codebooks:
        for cb in group:
            parts.append(np.ascontiguousarray(cb.vectors, dtype="<f4").tobytes())
    if model.ec_enabled:
        for group in model.codebooks:
            for cb in group:
                parts.append(np.ascontiguousarray(cb.prior, dtype="<f8").tobytes())
        for group in model.codebooks:
            for cb in group:
                parts.append(np.ascontiguousarray(cb.code_lengths, dtype="u1").tobytes())
    return b"".join(parts)


def write_model(path: str, model: MsvqModel, table_digest: int = 0) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model, table_digest))


def model_from_bytes(blob: bytes, name: str = "model") -> tuple[MsvqModel, ModelInfo]:
    if len(blob) < _MODEL_HEADER.size:
        raise CorruptionError(f"{name}: too short for a model header")
    magic, version, flags, m, d, n, g, t_max, table_digest = _MODEL_HEADER.unpack_from(blob, 0)
    if magic != MODEL_MAGIC:
        raise CorruptionError(f"{name}: bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    if version != MODEL_VERSION:
        raise CorruptionError(f"{name}: unsupported model version {version}")
    if flags & ~(FLAG_EC | FLAG_CODES):
        raise CorruptionError(f"{name}: reserved model flag bits set ({flags:#06x})")
    if bool(flags & FLAG_EC) != bool(flags & FLAG_CODES):  # EC fields are Huffman-coded
        raise CorruptionError(f"{name}: EC and code-length flags differ ({flags:#06x})")
    cur = _Cursor(blob, name)
    cur.pos = _MODEL_HEADER.size
    try:
        perm = cur.array("<u4", m).astype(np.int64)
        group_of = cur.array("<u4", n).astype(np.int64)
        bits = cur.array("u1", n * t_max).astype(np.int64).reshape(n, t_max)
        fallback = cur.array("<f4", n * d).reshape(n, d)
        lay = assemble_layout(m, d, n, perm, group_of, bits)
        if g != lay.n_groups:
            raise CorruptionError(f"{name}: header says {g} groups, group map has "
                                  f"{lay.n_groups}")
        ec = bool(flags & FLAG_EC)
        lambdas = cur.array("<f8", t_max) if ec else None
        sizes = [[1 << int(b) for b in lay.group_bits(gi)] for gi in range(g)]
        absent = [[None] * t_max] * g
        vectors = [[cur.array("<f4", k * d).reshape(k, d) for k in row] for row in sizes]
        priors = [[cur.array("<f8", k) for k in row] for row in sizes] if ec else absent
        lengths = ([[cur.array("u1", k).astype(np.int64) for k in row] for row in sizes]
                   if ec else absent)
        cur.done()
        books = tuple(tuple(map(Codebook, *rows)) for rows in zip(vectors, priors, lengths))
        model = MsvqModel(layout=lay, codebooks=books, fallback_means=fallback,
                          lambdas=lambdas)
    except (ConfigError, DataError) as exc:
        raise CorruptionError(f"{name}: {exc}") from exc
    return model, ModelInfo(table_digest=table_digest, file_digest=digest64(blob))


def read_model(path: str) -> tuple[MsvqModel, ModelInfo]:
    with open(path, "rb") as fh:
        blob = fh.read()
    return model_from_bytes(blob, name=path)


def _read_table_file(path: str) -> tuple[bytes, int]:
    """One read of a table file and its digest: a table parsed from these bytes
    is the table the digest names."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return blob, digest64(blob)


def stamp_table_digest(model_path: str, table_digest: int) -> None:
    """Patch a model file's table digest field; the bytes checked are the bytes patched."""
    with open(model_path, "r+b") as fh:
        model_from_bytes(fh.read(), model_path)  # refuse to patch something that is not a model
        fh.seek(_DIGEST_OFFSET)
        fh.write(struct.pack("<Q", table_digest))


def bind_table(model_path: str, table_path: str) -> None:
    """Check a table file against a model file and stamp its digest into the
    model's header: one read of the table is parsed, checked and digested, and
    the model bytes parsed are the bytes patched."""
    with open(model_path, "r+b") as fh:
        model, _ = model_from_bytes(fh.read(), model_path)
        blob, table_digest = _read_table_file(table_path)
        check_table(model, _table_from_bytes(blob, table_path))
        fh.seek(_DIGEST_OFFSET)
        fh.write(struct.pack("<Q", table_digest))


def read_bound_pair(model_path: str, table_path: str):
    """(model, ModelInfo, table) of a model file and the table file it is bound to.

    StateError when the model is bound to no table yet, CorruptionError when it
    is bound to a different one. One read of the table file is digested and parsed.
    """
    model, info = read_model(model_path)
    blob, table_digest = _read_table_file(table_path)
    if info.table_digest == 0:
        raise StateError(f"{model_path} is not bound to a table yet; "
                         f"run the table command first")
    if info.table_digest != table_digest:
        raise CorruptionError(f"{model_path} is bound to table digest "
                              f"{info.table_digest:#018x}, {table_path} has "
                              f"{table_digest:#018x}")
    return model, info, _table_from_bytes(blob, table_path)


# --- MSVP payload files -------------------------------------------------------

@dataclass(frozen=True)
class PayloadHeader:
    """The checked MSVP header fields; the version is always PAYLOAD_VERSION,
    as the parser rejects any other."""

    mode: int
    model_digest: int
    b_cap: int
    count: int


@dataclass(frozen=True)
class PayloadInfo(PayloadHeader):
    """A payload's header with the plan it was coded under and the realized
    code bits of each vector, excluding byte padding."""

    plan: SelectionPlan
    bits_per_vector: np.ndarray


def parse_payload_header(blob: bytes, name: str = "payload") -> PayloadHeader:
    """Check and decode the fixed MSVP header at the start of blob."""
    if len(blob) < PAYLOAD_HEADER_SIZE:
        raise CorruptionError(f"{name}: too short for an MSVP header")
    magic, version, mode, reserved, digest, b_cap, count = _PAYLOAD_HEAD.unpack_from(blob, 0)
    if magic != PAYLOAD_MAGIC:
        raise CorruptionError(f"{name}: bad magic {magic!r}, expected {PAYLOAD_MAGIC!r}")
    (crc,) = _PAYLOAD_CRC.unpack_from(blob, _PAYLOAD_HEAD.size)
    if crc != zlib.crc32(blob[:_PAYLOAD_HEAD.size]):
        raise CorruptionError(f"{name}: header checksum mismatch; the header is corrupted")
    if version != PAYLOAD_VERSION:
        raise CorruptionError(f"{name}: unsupported payload version {version}")
    if mode not in MODE_NAMES:
        raise CorruptionError(f"{name}: unknown plan mode {mode}")
    if reserved != 0:
        raise CorruptionError(f"{name}: reserved header byte is {reserved}, expected 0")
    return PayloadHeader(mode=mode, model_digest=digest, b_cap=b_cap, count=count)


def _plan_field_bits(lay) -> np.ndarray:
    """Field widths of an explicit plan: one stage count per sub-vector."""
    return np.full(lay.n_sub, max(1, int(np.ceil(np.log2(lay.t_max + 1)))))


def check_table(model: MsvqModel, table: rate.MarginalLossTable) -> None:
    """Raise unless the table matches the model's shape and coding mode."""
    lay = model.layout
    if table.n_sub != lay.n_sub or table.t_max != lay.t_max:
        raise ConfigError(f"table is {table.n_sub}x{table.t_max}, model expects "
                          f"{lay.n_sub}x{lay.t_max}")
    if table.mode == rate.MODE_AVERAGE and not model.ec_enabled:
        raise StateError("average-bits table requires entropy codes on the model")


def field_code_bits(model: MsvqModel, stages: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """(rows, F) transmitted bits of each field of a stage vector's field matrix.

    Fixed widths under a plain model (a read-only broadcast), the symbols' code
    lengths under an EC one; a row sums to its vector's bits before padding.
    """
    lay = model.layout
    sub, stage, _ = field_order(stages)
    if not model.ec_enabled:
        return np.broadcast_to(lay.bits[sub, stage], symbols.shape)
    lengths = model.padded_code_lengths[lay.group_of[sub], stage]
    return lengths[np.arange(sub.size), symbols]


def _field_coding(model: MsvqModel, stages: np.ndarray):
    """Bit width (plain) or canonical code (EC) of each transmitted field."""
    lay = model.layout
    sub, stage, _ = field_order(stages)
    if not model.ec_enabled:
        return lay.bits[sub, stage]
    codes = model.huffman_codes
    return [codes[g][t] for g, t in zip(lay.group_of[sub].tolist(), stage.tolist())]


def write_payload(
    path: str,
    model: MsvqModel,
    model_digest: int,
    table: rate.MarginalLossTable,
    data: np.ndarray,
    b_cap: int,
    strict: bool = False,
    threads: int | None = 1,
) -> PayloadInfo:
    """Derive the plan for b_cap, encode the data, and write an MSVP file.

    With strict=True, greedy increments are undone (lowest priority first)
    until every vector's realized bit count fits b_cap; the adjusted plan is
    then carried explicitly in the header. encode_fields checks the data, so
    the feature matrix is scanned once.
    """
    check_table(model, table)
    b_cap = int(b_cap)
    if not 0 <= b_cap < 2 ** 32:
        raise ConfigError(f"b_cap must fit an unsigned 32-bit field, got {b_cap}")
    lay = model.layout

    # Stage choices are prefix-stable: stage t's index depends only on the
    # sub-vector's earlier stages. The strict undo below only lowers stages,
    # so encoding to the greedy plan's depths serves every plan it can send.
    stages, _, order = rate.greedy_order(table, float(b_cap))
    symbols = encode_fields(model, data, plan_from_stages(lay, stages), threads=threads)
    rows = symbols.shape[0]
    bits = field_code_bits(model, stages, symbols)
    bits_rows = bits.sum(axis=1)

    mode = MODE_DERIVED
    if strict and bits_rows.max(initial=0) > b_cap:
        greedy = stages.copy()
        column = np.zeros((lay.n_sub, lay.t_max), dtype=np.int64)
        column[field_order(greedy)[:2]] = np.arange(int(greedy.sum()))
        for i_undo in reversed(order):
            if bits_rows.max(initial=0) <= b_cap:
                break
            stages[i_undo] -= 1
            bits_rows -= bits[:, column[i_undo, stages[i_undo]]]
        symbols = symbols[:, field_order(stages, greedy)[2]]
        mode = MODE_EXPLICIT
    plan = plan_from_stages(lay, stages)
    coding = _field_coding(model, plan.stages)

    with open(path, "wb") as fh:
        head = _PAYLOAD_HEAD.pack(PAYLOAD_MAGIC, PAYLOAD_VERSION, mode, 0,
                                  model_digest, b_cap, rows)
        fh.write(head)
        fh.write(_PAYLOAD_CRC.pack(zlib.crc32(head)))
        if mode == MODE_EXPLICIT:
            fh.write(pack_fixed(plan.stages[None, :], _plan_field_bits(lay)).tobytes())
        pack = pack_prefix if model.ec_enabled else pack_fixed
        fh.writelines(map_row_chunks(lambda s: pack(symbols[s], coding).tobytes(), rows))

    return PayloadInfo(mode=mode, model_digest=model_digest, b_cap=b_cap, count=rows,
                       plan=plan, bits_per_vector=bits_rows)


def read_payload(
    path: str,
    model: MsvqModel,
    model_digest: int,
    table: rate.MarginalLossTable,
) -> tuple[np.ndarray, PayloadInfo]:
    """Read an MSVP file and reconstruct the feature matrix.

    The caller passes the digest of the model file it loaded; a mismatch with
    the payload header is a hard error, never a silent wrong decode. The
    vector data's length is checked against the header's count before
    anything sized by that count is allocated.
    """
    check_table(model, table)
    lay = model.layout
    with open(path, "rb") as fh:
        blob = fh.read()
    head = parse_payload_header(blob, path)
    if head.model_digest != model_digest:
        raise CorruptionError(f"{path}: payload was encoded with model digest "
                              f"{head.model_digest:#018x}, loaded model is "
                              f"{model_digest:#018x}")

    pos = PAYLOAD_HEADER_SIZE
    if head.mode == MODE_EXPLICIT:
        field = _plan_field_bits(lay)
        size = (int(field.sum()) + 7) // 8
        if len(blob) < pos + size:
            raise CorruptionError(f"{path}: truncated inside the explicit plan")
        raw = np.frombuffer(blob, dtype=np.uint8, count=size, offset=pos)
        stages = unpack_fixed(raw.reshape(1, size), field)[0]
        pos += size
        try:
            plan = plan_from_stages(lay, stages)
        except ConfigError as exc:
            raise CorruptionError(f"{path}: explicit plan: {exc}") from exc
    else:
        plan = rate.select_stages(table, float(head.b_cap))
    coding = _field_coding(model, plan.stages)

    count, body = head.count, len(blob) - pos
    if model.ec_enabled:
        # every vector with at least one field takes at least one byte
        if len(coding) and count > body:
            raise CorruptionError(f"{path}: header claims {count} vectors, only {body} "
                                  f"bytes of vector data follow")
        tables = [decode_table(code) for code in coding]
        symbols, bits_rows, end = unpack_prefix(blob, count, tables, pos)
        if end != len(blob):
            raise CorruptionError(f"{path}: {len(blob) - end} trailing bytes after the "
                                  f"last vector")
    else:
        exact_bits = exact_bit_total(lay, plan.stages)
        block = (exact_bits + 7) // 8
        if body != count * block:
            raise CorruptionError(f"{path}: {body} bytes of vector data, {count} vectors "
                                  f"of {block} bytes need {count * block}")
        blocks = np.frombuffer(blob, dtype=np.uint8)[pos:].reshape(count, block)
        # layout.MAX_BITS = 8 caps every plain field at one byte
        symbols = np.empty((count, len(coding)), dtype=np.uint8)

        def unpack(rows: slice):
            symbols[rows] = unpack_fixed(blocks[rows], coding)

        map_row_chunks(unpack, count)
        bits_rows = np.full(count, exact_bits, dtype=np.int64)

    z_hat = decode_batch(model, symbols, plan)
    return z_hat, PayloadInfo(**vars(head), plan=plan, bits_per_vector=bits_rows)
