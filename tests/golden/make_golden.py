"""Write the golden MSVP artefacts that tests/test_golden.py checks against.

The files in this directory were written by this script with the codec as it
stood before the payload packing was vectorized, so the test pins today's
payload bytes and reconstructions to that older implementation. Re-running it
overwrites them with whatever the current code produces, which defeats the
purpose; do so only for a deliberate, documented format change.

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from msvq import bitstream, datagen, layout, rate, trainer

HERE = Path(__file__).resolve().parent

ROWS, DIM, SUB_DIM, GROUPS = 400, 24, 4, 3
# Unequal widths, most not a multiple of 8, so fields straddle byte edges.
BITS = np.repeat(np.array([[7, 5, 3], [6, 4, 2], [5, 3, 1]]), 2, axis=0)
LAMBDAS = [6.0, 6.0, 6.0]
PAYLOADS = {
    # name: (model kind, b_cap, strict)
    "plain": ("plain", 41, False),
    "ec": ("ec", 30, False),
    "ec_strict": ("ec", 30, True),
}


def build_pair(kind: str, data: np.ndarray, out_dir: Path = HERE) -> None:
    lay = layout.build_layout(layout.compute_stats(data), SUB_DIM, BITS.shape[1], GROUPS,
                              BITS)
    config = trainer.TrainConfig(max_iters=8, seed=5, ec=kind == "ec",
                                 lambdas=LAMBDAS if kind == "ec" else None)
    model, _ = trainer.train(data, lay, config)
    model_path, table_path = out_dir / f"model_{kind}.msvq", out_dir / f"table_{kind}.json"
    bitstream.write_model(str(model_path), model)
    bitstream.write_table(str(table_path), rate.build_table(model, data))
    bitstream.stamp_table_digest(str(model_path), bitstream.file_digest(str(table_path)))


def main() -> None:
    data = datagen.gauss_corr(ROWS, DIM, 0.9, seed=21).astype(np.float32)
    bitstream.write_features(str(HERE / "features.fmat"), data)
    for kind in ("plain", "ec"):
        build_pair(kind, data)
    for name, (kind, b_cap, strict) in PAYLOADS.items():
        model, info = bitstream.read_model(str(HERE / f"model_{kind}.msvq"))
        table = bitstream.read_table(str(HERE / f"table_{kind}.json"))
        path = str(HERE / f"payload_{name}.msvp")
        written = bitstream.write_payload(path, model, info.file_digest, table, data, b_cap,
                                          strict=strict)
        assert written.mode == (bitstream.MODE_EXPLICIT if strict else bitstream.MODE_DERIVED)
        z_hat, _ = bitstream.read_payload(path, model, info.file_digest, table)
        np.save(HERE / f"recon_{name}.npy", z_hat)


if __name__ == "__main__":
    main()
