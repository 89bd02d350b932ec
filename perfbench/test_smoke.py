"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/test_smoke.py        (or: python3 -m pytest perfbench)

Checks that every end-to-end and per-layer metric is emitted for every
workload, that BENCHMARK.json names only emitted metrics, and that a payload
with a flipped byte is counted as a failed operation instead of crashing the
run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

bench = run._import_codec()

END_TO_END = {"setup_s", "encode_vps", "decode_vps", "payload_bits_per_vector", "mse",
              "peak_rss_mb", "fail_ratio"}
PER_LAYER = {
    "layout.build_s", "trainer.train_s", "trainer.self_s", "trainer.lloyd_iters",
    "codebook.search_s", "codebook.search_calls", "codebook.search_rows",
    "codebook.search_row_codewords", "codebook.search.trainer_s", "codebook.search.rate_s",
    "codebook.search.quantizer_s", "entropy.measure_pmfs_s", "entropy.build_code_s",
    "entropy.canonical_code_calls", "entropy.decode_table_calls", "rate.build_table_s",
    "rate.greedy_s", "rate.greedy_calls", "rate.greedy_picks", "quantizer.encode_batch_s",
    "quantizer.decode_batch_s", "bitstream.write_payload_s", "bitstream.write_payload.self_s",
    "bitstream.read_payload_s", "bitstream.read_payload.self_s", "bitstream.symbols_written",
    "bitstream.symbols_read", "bitstream.write_ns_per_symbol", "bitstream.read_ns_per_symbol",
    "bitstream.fmat_io_s", "bitstream.model_table_io_s", "trace.overhead_pct",
}

# Each workload's shape shrunk until a full run takes about a second.
TINY = {
    "quickstart": dict(rows=512, dim=16, groups=4, b_cap=40, payload_rows=512, max_iters=5),
    "quickstart-ec": dict(rows=512, dim=16, groups=4, b_cap=20, payload_rows=512,
                          max_iters=5),
    "wide-stream": dict(rows=128, dim=64, groups=4, b_cap=144, payload_rows=32, max_iters=3),
}


def tiny(name: str):
    return dataclasses.replace(bench.WORKLOADS[name], **TINY[name])


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.work = run.OUT / f"smoke-{os.getpid()}"
        self.addCleanup(shutil.rmtree, self.work, True)

    def test_every_metric_is_emitted(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for name in bench.WORKLOADS:
            with self.subTest(workload=name):
                w = tiny(name)
                X = bench.make_inputs(w, seed=3, heldout=False)
                plain = bench.run_untraced(w, X, self.work / name / "plain", seconds=1)
                traced = bench.run_traced(w, X, self.work / name / "traced")
                for result in (plain, traced):
                    self.assertTrue(result.correct, result.notes)
                    self.assertEqual(result.failed, 0)
                self.assertLessEqual(END_TO_END, set(plain.metrics))
                self.assertEqual(set(traced.metrics), PER_LAYER)
                self.assertLessEqual({m["name"] for m in doc["end_to_end"]}, END_TO_END)
                self.assertLessEqual({m["name"] for m in doc["per_layer"]}, PER_LAYER)
                self.assertEqual(traced.digests, plain.digests)
                self.assertGreater(traced.metrics["codebook.search_calls"], 0)
                self.assertGreater(traced.metrics["bitstream.symbols_read"], 0)

    def test_flipped_byte_counts_as_failed_operation(self):
        w = tiny("quickstart")
        X = bench.make_inputs(w, seed=3, heldout=False)
        sess, _ = bench.set_up(w, X, self.work / "setup")
        p = bench.make_payloads(w, X, self.work / "serve")[0]
        header = bench.bitstream.PAYLOAD_HEADER_SIZE
        for offset in ("header", "body"):
            with self.subTest(offset=offset):
                ledger = bench.Ledger()
                enc = ledger.run("encode", bench.encode_op, sess, w, p)
                blob = bytearray(p.payload_path.read_bytes())
                at = 12 if offset == "header" else header + (len(blob) - header) // 2
                blob[at] ^= 0xFF
                p.payload_path.write_bytes(bytes(blob))
                self.assertIsNone(ledger.run("decode", bench.decode_and_check, sess, p,
                                             enc[1], None))
                self.assertEqual((ledger.attempted, ledger.failed), (2, 1))

    def test_heldout_inputs_differ(self):
        w = tiny("quickstart")
        self.assertFalse((bench.make_inputs(w, 3, heldout=True)
                          == bench.make_inputs(w, 3, heldout=False)).all())


if __name__ == "__main__":
    unittest.main()
