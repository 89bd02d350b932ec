"""The golden artefacts do not depend on OpenBLAS's kernel or its threading.

A decoder never searches: it unpacks bits, gathers codewords, adds them in
float64 and re-derives a plan with the heap selection, none of which calls
BLAS. So the golden payloads must decode to their stored reconstructions bit
for bit under any OpenBLAS kernel selection and thread count.

Training, the table pass and encoding pick codewords by argmin over BLAS
matmul scores, so a kernel could in principle resolve a near-tie differently.
Retraining and re-encoding the golden recipe must still give the committed
model, table and payload bytes under every variant below. Should one differ,
the search kernel needs the fix, not the recipe's seeds. The golden recipe's
sub-vectors have dimension 4; a second recipe with dimension 8 is built in
this process under the default kernel and must come out the same in every
variant.

The variables are set only in the child process's environment.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msvq

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(msvq.__file__).resolve().parents[1]

DECODE = """
import sys
from pathlib import Path
import numpy as np
from msvq import bitstream

golden, out = Path(sys.argv[1]), Path(sys.argv[2])
for name in ("plain", "ec"):
    model, info = bitstream.read_model(str(golden / f"model_{name}.msvq"))
    table = bitstream.read_table(str(golden / f"table_{name}.json"))
    z_hat, _ = bitstream.read_payload(str(golden / f"payload_{name}.msvp"), model,
                                      info.file_digest, table)
    np.save(out / f"recon_{name}.npy", z_hat)
"""

RETRAIN = """
import importlib.util
import sys
from pathlib import Path
from msvq import bitstream

golden, out = Path(sys.argv[1]), Path(sys.argv[2])
spec = importlib.util.spec_from_file_location("make_golden", golden / "make_golden.py")
recipe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(recipe)
data = bitstream.read_features(str(golden / "features.fmat"))
for kind in ("plain", "ec"):
    recipe.build_pair(kind, data, out_dir=out)
for name, (kind, b_cap, strict) in recipe.PAYLOADS.items():
    model, info = bitstream.read_model(str(out / f"model_{kind}.msvq"))
    table = bitstream.read_table(str(out / f"table_{kind}.json"))
    bitstream.write_payload(str(out / f"payload_{name}.msvp"), model, info.file_digest, table,
                            data, b_cap, strict=strict)
"""

# Sub-vectors of dimension 8: the folded plain search sums D + 1 = 9 products,
# where some OpenBLAS kernels stop adding the inner dimension in order.
WIDE_SUB = """
import sys
from pathlib import Path
from msvq import bitstream, datagen, layout, rate, trainer


def build(out):
    data = datagen.gauss_corr(600, 48, 0.9, seed=13)
    lay = layout.build_layout(layout.compute_stats(data), 8, 2, 3, "type3")
    for kind, b_cap in (("plain", 60), ("ec", 30)):
        model, _ = trainer.train(data, lay, trainer.TrainConfig(max_iters=8, seed=3,
                                                                ec=kind == "ec"))
        model_path, table_path = out / f"model_{kind}.msvq", out / f"table_{kind}.json"
        bitstream.write_model(str(model_path), model)
        bitstream.write_table(str(table_path), rate.build_table(model, data))
        bitstream.stamp_table_digest(str(model_path), bitstream.file_digest(str(table_path)))
        model, info = bitstream.read_model(str(model_path))
        bitstream.write_payload(str(out / f"payload_{kind}.msvp"), model, info.file_digest,
                                bitstream.read_table(str(table_path)), data, b_cap)


if __name__ == "__main__":
    build(Path(sys.argv[2]))
"""
WIDE_SUB_FILES = [f"{what}_{kind}.{ext}" for kind in ("plain", "ec")
                  for what, ext in (("model", "msvq"), ("table", "json"), ("payload", "msvp"))]

RETRAINED = ["model_plain.msvq", "table_plain.json", "model_ec.msvq", "table_ec.json",
             "payload_plain.msvp", "payload_ec.msvp", "payload_ec_strict.msvp"]


def _run_child(script, tmp_path, coretype, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", script, str(GOLDEN), str(tmp_path)],
                   env=env, check=True, timeout=120)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_golden_payloads_decode_bit_exactly_under_blas_variants(tmp_path, threads, coretype):
    _run_child(DECODE, tmp_path, coretype, threads)
    for name in ("plain", "ec"):
        got, want = np.load(tmp_path / f"recon_{name}.npy"), np.load(GOLDEN / f"recon_{name}.npy")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_golden_recipe_retrains_and_reencodes_bit_exactly_under_blas_variants(
        tmp_path, threads, coretype):
    _run_child(RETRAIN, tmp_path, coretype, threads)
    for name in RETRAINED:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.fixture(scope="module")
def wide_sub_in_process(tmp_path_factory):
    """The D = 8 recipe's files, built in this process under the default kernel."""
    out = tmp_path_factory.mktemp("wide_sub")
    namespace = {}
    exec(WIDE_SUB, namespace)
    namespace["build"](out)
    return out


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_eight_dim_recipe_is_bit_exact_under_blas_variants(tmp_path, wide_sub_in_process,
                                                           threads, coretype):
    _run_child(WIDE_SUB, tmp_path, coretype, threads)
    for name in WIDE_SUB_FILES:
        assert (tmp_path / name).read_bytes() == (wide_sub_in_process / name).read_bytes(), name
