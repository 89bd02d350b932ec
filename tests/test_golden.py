"""Payload bytes and reconstructions pinned to committed golden files.

tests/golden/ holds a model, table and feature matrix, plus plain, EC and
EC-strict (explicit-plan) payloads with their float64 reconstructions, all
written by tests/golden/make_golden.py before the packing kernels were
vectorized. Re-encoding must give the same bytes and decoding the same values,
and retraining with the same recipe must give the same model and table bytes.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from msvq import bitstream, codebook, datagen, quantizer, rate

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {
    # name: (model kind, b_cap, strict, plan mode)
    "plain": ("plain", 41, False, bitstream.MODE_DERIVED),
    "ec": ("ec", 30, False, bitstream.MODE_DERIVED),
    "ec_strict": ("ec", 30, True, bitstream.MODE_EXPLICIT),
}


def _recipe():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pair(kind):
    model, info = bitstream.read_model(str(GOLDEN / f"model_{kind}.msvq"))
    table = bitstream.read_table(str(GOLDEN / f"table_{kind}.json"))
    return model, info.file_digest, table


@pytest.mark.parametrize("kind", ["plain", "ec"])
def test_retraining_gives_identical_model_and_table(tmp_path, kind):
    data = bitstream.read_features(str(GOLDEN / "features.fmat"))
    _recipe().build_pair(kind, data, out_dir=tmp_path)
    for name in (f"model_{kind}.msvq", f"table_{kind}.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_reencoding_gives_identical_bytes(tmp_path, name):
    kind, b_cap, strict, mode = CASES[name]
    model, digest, table = _pair(kind)
    data = bitstream.read_features(str(GOLDEN / "features.fmat"))
    out = tmp_path / "p.msvp"
    info = bitstream.write_payload(str(out), model, digest, table, data, b_cap,
                                   strict=strict, threads=2)
    assert info.mode == mode
    assert out.read_bytes() == (GOLDEN / f"payload_{name}.msvp").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_decoding_gives_stored_reconstruction(name):
    kind, b_cap, _, mode = CASES[name]
    model, digest, table = _pair(kind)
    z_hat, info = bitstream.read_payload(str(GOLDEN / f"payload_{name}.msvp"), model,
                                         digest, table)
    assert (info.mode, info.b_cap) == (mode, b_cap)
    assert np.array_equal(z_hat, np.load(GOLDEN / f"recon_{name}.npy"))


@pytest.mark.parametrize("kind", ["plain", "ec"])
def test_round_trip_across_row_chunks(tmp_path, kind):
    # a row count that is not a multiple of the packing chunk
    model, digest, table = _pair(kind)
    rows = 2 * codebook.ROW_CHUNK + 37
    data = datagen.gauss_corr(rows, model.layout.m_dim, 0.9, seed=3)
    b_cap = 41 if kind == "plain" else 30
    path = str(tmp_path / "p.msvp")
    sent = bitstream.write_payload(path, model, digest, table, data, b_cap, threads=2)
    z_hat, got = bitstream.read_payload(path, model, digest, table)
    plan = rate.select_stages(table, float(b_cap))
    assert np.array_equal(got.plan.stages, plan.stages)
    assert np.array_equal(z_hat, quantizer.encode_batch(model, data, got.plan)[1])
    assert np.array_equal(got.bits_per_vector, sent.bits_per_vector)
