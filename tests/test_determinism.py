"""Decoding does not depend on the BLAS build or its threading.

A decoder never searches: it unpacks bits, gathers codewords, adds them in
float64 and re-derives a plan with the heap selection, none of which calls
BLAS. So the golden payloads must decode to their stored reconstructions bit
for bit under any OpenBLAS kernel selection and thread count. The variables
are set only in the child process's environment. Training, the table pass and
encoding pick codewords by argmin over BLAS matmul scores and are reproducible
only within one BLAS build; they are not covered here.
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


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_golden_payloads_decode_bit_exactly_under_blas_variants(tmp_path, threads, coretype):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", DECODE, str(GOLDEN), str(tmp_path)],
                   env=env, check=True, timeout=120)
    for name in ("plain", "ec"):
        got, want = np.load(tmp_path / f"recon_{name}.npy"), np.load(GOLDEN / f"recon_{name}.npy")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
